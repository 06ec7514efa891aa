//! The one replay driver. A [`Transport`] opens client connections and
//! serves one event on a connection; [`replay`] does everything else —
//! pacing, the round-robin client split, timing, digest chains and
//! histograms — so a replay means the same thing on every transport:
//!
//! * **Open loop** — one connection, queries served in trace order, each
//!   held (by spinning) until its scheduled arrival; latency is
//!   *completion − scheduled arrival*, so a query that arrives while its
//!   predecessor still runs pays the queueing delay (no coordinated
//!   omission — expensive minorities push the measured tail out).
//! * **Closed loop** — `k` clients with one connection each (client 0 on
//!   the caller's thread, the rest on their own threads),
//!   serving the trace round-robin (client `i` takes events
//!   `i, i+k, i+2k, …`) with optional think-time; latency is each call as
//!   the driver times it.
//!
//! [`InProcess`] serves every client from one warm [`Session`] through
//! [`Session::serve_shared`], as the server's workers do;
//! `lcs_server::client::Tcp` serves over the wire, so the difference
//! between the two on one trace is the cost of the wire.
//!
//! Determinism: result *values* are pure functions of (graph, partition,
//! strategy, session seed), so each client's digest chain — and the
//! outcome digest, which folds them in client order — is reproducible at
//! any `LCS_THREADS`, under any interleaving, over either transport.

use std::thread;
use std::time::{Duration, Instant};

use lcs_api::{
    LcsError, Pipeline, Query, QueryValue, Session, ShortcutStrategy, Strategy, ValueDigest,
};
use lcs_obs::Obs;

use crate::corpus::Corpus;
use crate::spec::{Mode, WorkloadSpec};
use crate::trace::{generate_trace, QueryEvent, QueryKind};
use crate::LatencyHistogram;

/// What one client measured: its sub-histogram, query count, and the
/// FNV-1a chain over its served-result digests (in its serving order).
#[derive(Debug, Clone)]
pub struct ClientOutcome {
    /// Client index (0 for the open-loop driver).
    pub client: usize,
    /// Number of queries this client served.
    pub queries: u64,
    /// This client's latency sub-histogram.
    pub histogram: LatencyHistogram,
    /// FNV-1a chain over this client's per-query result digests.
    pub digest: u64,
}

/// The merged result of one replay.
#[derive(Debug, Clone)]
pub struct WorkloadOutcome {
    /// All clients' histograms merged.
    pub histogram: LatencyHistogram,
    /// Per-kind latency histograms, in
    /// `[construct, verify, quality, mst, repair]` order; their counts are
    /// the trace's per-kind query counts.
    pub kind_histograms: [LatencyHistogram; 5],
    /// Per-client sub-outcomes, in client-index order.
    pub per_client: Vec<ClientOutcome>,
    /// Total queries served (the trace length).
    pub queries: u64,
    /// Wall-clock nanoseconds of the whole run.
    pub wall_nanos: u64,
    /// FNV-1a fold of the per-client digests in client order — the
    /// one-number determinism check: same spec + corpus ⇒ same digest.
    pub digest: u64,
    /// Every query's result digest, in trace order.
    pub digests: Vec<u64>,
    /// Every query's result values in trace order, when the transport
    /// returned them (see [`WorkloadSpec::keep_results`]).
    pub results: Option<Vec<QueryValue>>,
}

impl WorkloadOutcome {
    /// Served queries per second of wall-clock time.
    pub fn throughput_qps(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.queries as f64 * 1e9 / self.wall_nanos as f64
        }
    }
}

/// How the driver reaches a server: open a client connection, serve one
/// trace event on it. Everything else about a replay — pacing, the
/// client split, timing and digests — is [`replay`]'s.
pub trait Transport: Sync {
    /// One client's connection. Each closed-loop client opens its own, on
    /// its own thread when there are several.
    type Conn;
    /// What connecting or serving can fail with. The driver's own
    /// validation errors arrive through `From<LcsError>`.
    type Error: From<LcsError> + Send;

    /// Opens one client connection.
    ///
    /// # Errors
    ///
    /// Whatever the transport fails to connect with.
    fn connect(&self) -> Result<Self::Conn, Self::Error>;

    /// Serves `event` on `conn`: the result's digest, plus its values when
    /// the transport has them.
    ///
    /// # Errors
    ///
    /// The error the query or the transport reports.
    fn serve(
        &self,
        conn: &mut Self::Conn,
        event: &QueryEvent,
    ) -> Result<(u64, Option<QueryValue>), Self::Error>;
}

/// The in-process transport: one warm session shared by every client
/// through [`Session::serve_shared`], as the server's workers share
/// theirs. Connections cost nothing. Serving panics, as [`query_of`]
/// does, on an event the corpus cannot answer; [`run_workload`] checks
/// its trace against the corpus first.
#[derive(Clone, Copy)]
pub struct InProcess<'a, 'g> {
    session: &'a Session<'g>,
    corpus: &'a Corpus,
    keep_values: bool,
}

impl<'a, 'g> InProcess<'a, 'g> {
    /// Serves events against `corpus` entries on `session`, digests only.
    pub fn new(session: &'a Session<'g>, corpus: &'a Corpus) -> Self {
        InProcess {
            session,
            corpus,
            keep_values: false,
        }
    }
}

impl Transport for InProcess<'_, '_> {
    type Conn = ();
    type Error = LcsError;

    fn connect(&self) -> Result<(), LcsError> {
        Ok(())
    }

    fn serve(&self, _: &mut (), event: &QueryEvent) -> Result<(u64, Option<QueryValue>), LcsError> {
        let query = query_of(self.corpus, event);
        if self.keep_values {
            let (served, value) = self.session.serve_shared_full(query)?;
            Ok((served.digest, Some(value)))
        } else {
            Ok((self.session.serve_shared(query)?.digest, None))
        }
    }
}

/// Maps a trace event to the [`Query`] it stands for, borrowing the
/// entry's prebuilt inputs from the corpus. Public so equivalence tests
/// can replay a trace through [`Session`] directly.
///
/// # Panics
///
/// Panics if `event.entry` is out of the corpus's range — traces are
/// generated against the same corpus length, so this is a caller bug.
/// Likewise panics on a [`QueryKind::Repair`] event against an entry with
/// no pre-generated repair case — [`run_workload`] rejects that
/// combination with [`lcs_api::LcsError::Config`] before serving starts,
/// so reaching the panic means the trace bypassed validation.
pub fn query_of<'a>(corpus: &'a Corpus, event: &QueryEvent) -> Query<'a> {
    let entry = &corpus.entries()[event.entry];
    match event.kind {
        QueryKind::Construct => Query::Construct {
            partition: &entry.partition,
            strategy: Strategy::doubling(),
        },
        QueryKind::Verify => Query::Verify {
            shortcut: &entry.shortcut,
            partition: &entry.partition,
            threshold: entry.threshold,
        },
        QueryKind::Quality => Query::Quality {
            shortcut: &entry.shortcut,
            partition: &entry.partition,
        },
        QueryKind::Mst => Query::Mst {
            weights: &entry.weights,
            strategy: ShortcutStrategy::Doubling,
        },
        QueryKind::Repair => {
            let case = entry
                .repair
                .as_ref()
                .expect("repair event against a corpus built without repair cases");
            Query::Repair {
                baseline: &case.baseline,
                delta: &case.delta,
            }
        }
    }
}

/// Runs the workload described by `spec` against `corpus`: generates the
/// trace, warms one session over the corpus graph, and [`replay`]s the
/// trace on it through [`InProcess`].
///
/// # Errors
///
/// [`lcs_api::LcsError::Config`] for degenerate specs (empty corpus, zero
/// queries, all-zero mix, zero clients — see
/// [`generate_trace`]); otherwise the first
/// query error the session reports.
pub fn run_workload(corpus: &Corpus, spec: &WorkloadSpec) -> lcs_api::Result<WorkloadOutcome> {
    run_workload_obs(corpus, spec, &Obs::off())
}

/// [`run_workload`] with an instrumentation handle. The session reports
/// every served query's `serve/{kind}/*` probes into it, and [`replay`]
/// adds the driver's own.
pub fn run_workload_obs(
    corpus: &Corpus,
    spec: &WorkloadSpec,
    obs: &Obs,
) -> lcs_api::Result<WorkloadOutcome> {
    let trace = generate_trace(spec, corpus.len())?;
    if trace.iter().any(|e| e.kind == QueryKind::Repair)
        && corpus.entries().iter().any(|e| e.repair.is_none())
    {
        return Err(LcsError::Config {
            reason: "query mix has a repair weight but the corpus has no pre-generated \
                     repair cases; build it with Corpus::build_with_repair"
                .to_string(),
        });
    }
    let session = Pipeline::on(corpus.graph())
        .seed(spec.seed)
        .execution(spec.execution)
        .threads(spec.threads)
        .recorder(obs.clone())
        .build()?;
    let transport = InProcess {
        session: &session,
        corpus,
        keep_values: spec.keep_results,
    };
    replay(&transport, &trace, spec.mode, obs)
}

/// Replays `trace` through `transport`, paced by `mode`, and returns the
/// merged outcome.
///
/// With `obs` on, the driver records `workload/runs` /
/// `workload/queries` counters, the merged latency distribution
/// (`workload/latency` timer), the closed-loop client count
/// (`workload/clients` gauge) and — open loop only — the
/// scheduled-vs-start lag timer (`workload/open/lag`), which records how
/// late the generator ran. Counters are trace facts, identical for every
/// thread and client count, and the gauge is the configured client count;
/// timers are measurements.
///
/// # Errors
///
/// [`LcsError::Config`] for a closed loop of zero clients; otherwise the
/// first error a client hits, in client order.
pub fn replay<T: Transport>(
    transport: &T,
    trace: &[QueryEvent],
    mode: Mode,
    obs: &Obs,
) -> Result<WorkloadOutcome, T::Error> {
    mode.check()?;
    if obs.is_on() {
        obs.counter_add("workload/runs", 1);
        obs.counter_add("workload/queries", trace.len() as u64);
    }
    let start = Instant::now();
    let runs = match mode {
        Mode::Open { .. } => vec![open_loop(transport, trace, obs)?],
        Mode::Closed {
            clients,
            think_nanos,
        } => {
            if obs.is_on() {
                obs.gauge_set("workload/clients", clients as u64);
            }
            closed_loop(transport, trace, clients, Duration::from_nanos(think_nanos))?
        }
    };
    let outcome = assemble(trace, runs, start.elapsed().as_nanos() as u64);
    if obs.is_on() {
        obs.timer_merge("workload/latency", &outcome.histogram);
    }
    Ok(outcome)
}

/// One served event, as its client saw it.
struct Sample {
    slot: usize,
    digest: u64,
    latency_nanos: u64,
    value: Option<QueryValue>,
}

/// One client's serving loop over the trace `slots`. `due` waits until a
/// slot may be served and returns the instant its latency counts from.
fn serve_client<T: Transport>(
    transport: &T,
    trace: &[QueryEvent],
    slots: impl Iterator<Item = usize>,
    mut due: impl FnMut(usize) -> Instant,
    think: Duration,
) -> Result<Vec<Sample>, T::Error> {
    let mut conn = transport.connect()?;
    let mut samples = Vec::new();
    for slot in slots {
        let from = due(slot);
        let (digest, value) = transport.serve(&mut conn, &trace[slot])?;
        samples.push(Sample {
            slot,
            digest,
            latency_nanos: from.elapsed().as_nanos() as u64,
            value,
        });
        if !think.is_zero() {
            thread::sleep(think);
        }
    }
    Ok(samples)
}

fn open_loop<T: Transport>(
    transport: &T,
    trace: &[QueryEvent],
    obs: &Obs,
) -> Result<Vec<Sample>, T::Error> {
    // The start-lag probe accumulates into a plain local histogram on the
    // serving path and hits the registry once, after the loop — the hot
    // path stays lock-free.
    let mut lag_hist = obs.is_on().then(LatencyHistogram::new);
    // The schedule starts at the first `due` call, once the connection is
    // open, so connecting is not charged to the first query.
    let mut start = None;
    let samples = serve_client(
        transport,
        trace,
        0..trace.len(),
        // Hold each query until its scheduled arrival. If the schedule has
        // fallen behind (the previous query overran), fire at once — the
        // latency counts from the scheduled arrival, so it charges the
        // backlog.
        |slot| {
            let start = *start.get_or_insert_with(Instant::now);
            let arrival = trace[slot].arrival_nanos;
            let scheduled = start + Duration::from_nanos(arrival);
            while Instant::now() < scheduled {
                std::hint::spin_loop();
            }
            if let Some(hist) = &mut lag_hist {
                let now = start.elapsed().as_nanos() as u64;
                // How late the query actually starts relative to its
                // scheduled arrival: ~0 when the loop keeps up, the
                // accumulated backlog when it doesn't.
                hist.record(now.saturating_sub(arrival));
            }
            scheduled
        },
        Duration::ZERO,
    )?;
    if let Some(hist) = &lag_hist {
        obs.timer_merge("workload/open/lag", hist);
    }
    Ok(samples)
}

fn closed_loop<T: Transport>(
    transport: &T,
    trace: &[QueryEvent],
    clients: usize,
    think: Duration,
) -> Result<Vec<Vec<Sample>>, T::Error> {
    // Client 0 runs on the caller's thread, as the open loop does; the
    // others run on scoped threads that borrow the transport and the trace.
    // The first error in client order wins.
    let client = |client: usize| {
        let slots = (client..trace.len()).step_by(clients);
        serve_client(transport, trace, slots, |_| Instant::now(), think)
    };
    thread::scope(|scope| {
        let others: Vec<_> = (1..clients)
            .map(|c| scope.spawn(move || client(c)))
            .collect();
        let first = client(0);
        std::iter::once(first)
            .chain(
                others
                    .into_iter()
                    .map(|handle| handle.join().expect("replay client thread panicked")),
            )
            .collect()
    })
}

/// Merges the clients' samples (in client order) into the outcome.
fn assemble(trace: &[QueryEvent], runs: Vec<Vec<Sample>>, wall_nanos: u64) -> WorkloadOutcome {
    let mut histogram = LatencyHistogram::new();
    let mut kind_histograms: [LatencyHistogram; 5] = Default::default();
    let mut digests = vec![0u64; trace.len()];
    let mut values: Vec<Option<QueryValue>> =
        std::iter::repeat_with(|| None).take(trace.len()).collect();
    let mut fold = ValueDigest::new();
    let mut per_client = Vec::with_capacity(runs.len());
    for (client, samples) in runs.into_iter().enumerate() {
        let mut client_histogram = LatencyHistogram::new();
        let mut chain = ValueDigest::new();
        let queries = samples.len() as u64;
        for sample in samples {
            client_histogram.record(sample.latency_nanos);
            kind_histograms[trace[sample.slot].kind.index()].record(sample.latency_nanos);
            chain.push(sample.digest);
            digests[sample.slot] = sample.digest;
            values[sample.slot] = sample.value;
        }
        histogram.merge(&client_histogram);
        fold.push(chain.value());
        per_client.push(ClientOutcome {
            client,
            queries,
            histogram: client_histogram,
            digest: chain.value(),
        });
    }
    WorkloadOutcome {
        histogram,
        kind_histograms,
        per_client,
        queries: trace.len() as u64,
        wall_nanos,
        digest: fold.value(),
        digests,
        results: values.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{CorpusSpec, Family};
    use crate::spec::QueryMix;

    const OPEN: Mode = Mode::Open {
        mean_interarrival_nanos: 0,
    };

    fn closed(clients: usize) -> Mode {
        Mode::Closed {
            clients,
            think_nanos: 0,
        }
    }

    fn corpus_spec() -> CorpusSpec {
        CorpusSpec {
            family: Family::Grid,
            size: 4,
            entries: 2,
            seed: 3,
        }
    }

    fn small_corpus() -> Corpus {
        Corpus::build(&corpus_spec()).unwrap()
    }

    fn is_config_error(result: lcs_api::Result<WorkloadOutcome>) -> bool {
        matches!(result, Err(LcsError::Config { .. }))
    }

    #[test]
    fn open_and_closed_runs_complete_and_agree_on_values() {
        let corpus = small_corpus();
        let open = WorkloadSpec::new(OPEN, 12, 1.0, QueryMix::mixed(), 5).keep_results(true);
        let a = run_workload(&corpus, &open).unwrap();
        let b = run_workload(
            &corpus,
            &WorkloadSpec {
                mode: closed(2),
                ..open
            },
        )
        .unwrap();
        assert_eq!(a.queries, 12);
        assert_eq!(b.queries, 12);
        assert_eq!(a.kind_histograms.iter().map(|h| h.count()).sum::<u64>(), 12);
        // Same spec modulo pacing ⇒ same trace ⇒ same values.
        assert_eq!(a.results, b.results);
        assert_eq!(a.histogram.count(), 12);
        assert_eq!(b.per_client.len(), 2);
        assert!(a.throughput_qps() > 0.0);
    }

    #[test]
    fn reruns_have_identical_digests() {
        let corpus = small_corpus();
        let spec = WorkloadSpec::new(closed(3), 15, 0.0, QueryMix::consume(), 8);
        let a = run_workload(&corpus, &spec).unwrap();
        let b = run_workload(&corpus, &spec).unwrap();
        assert_eq!(a.digest, b.digest);
        for (ca, cb) in a.per_client.iter().zip(&b.per_client) {
            assert_eq!(ca.digest, cb.digest);
            assert_eq!(ca.queries, cb.queries);
        }
    }

    #[test]
    fn degenerate_specs_are_config_errors() {
        let corpus = small_corpus();
        let zero_queries = WorkloadSpec::new(OPEN, 0, 0.0, QueryMix::consume(), 1);
        assert!(is_config_error(run_workload(&corpus, &zero_queries)));
        let zero_clients = WorkloadSpec::new(closed(0), 5, 0.0, QueryMix::consume(), 1);
        assert!(is_config_error(run_workload(&corpus, &zero_clients)));
    }

    #[test]
    fn repair_mix_serves_and_agrees_across_drivers() {
        let corpus = Corpus::build_with_repair(&corpus_spec()).unwrap();
        let mix = QueryMix {
            construct: 0,
            verify: 2,
            quality: 1,
            mst: 0,
            repair: 2,
        };
        let open = WorkloadSpec::new(OPEN, 10, 1.0, mix, 7).keep_results(true);
        let a = run_workload(&corpus, &open).unwrap();
        let b = run_workload(
            &corpus,
            &WorkloadSpec {
                mode: closed(2),
                ..open
            },
        )
        .unwrap();
        assert_eq!(a.kind_histograms[QueryKind::Repair.index()].count(), 4);
        assert_eq!(a.results, b.results);
        assert_eq!(a.digest, run_workload(&corpus, &open).unwrap().digest);
    }

    #[test]
    fn repair_weight_without_repair_cases_is_a_config_error() {
        let mix = QueryMix {
            construct: 0,
            verify: 1,
            quality: 0,
            mst: 0,
            repair: 1,
        };
        let spec = WorkloadSpec::new(OPEN, 5, 0.0, mix, 4);
        assert!(is_config_error(run_workload(&small_corpus(), &spec)));
    }

    /// Serves `digest = slot` (the test trace stores each event's slot in
    /// its entry) and fails on one chosen slot with `FakeError(Some(slot))`;
    /// the driver's own errors arrive as `FakeError(None)`.
    struct FakeTransport(Option<usize>);

    #[derive(Debug, PartialEq)]
    struct FakeError(Option<usize>);

    impl From<LcsError> for FakeError {
        fn from(_: LcsError) -> Self {
            FakeError(None)
        }
    }

    impl Transport for FakeTransport {
        type Conn = ();
        type Error = FakeError;

        fn connect(&self) -> Result<(), FakeError> {
            Ok(())
        }

        fn serve(
            &self,
            _: &mut (),
            e: &QueryEvent,
        ) -> Result<(u64, Option<QueryValue>), FakeError> {
            match self.0 {
                Some(slot) if slot == e.entry => Err(FakeError(Some(slot))),
                _ => Ok((e.entry as u64, None)),
            }
        }
    }

    #[test]
    fn replay_splits_round_robin_and_reassembles_trace_order() {
        use QueryKind::{Construct, Quality, Repair, Verify};
        let kinds = [Verify, Construct, Verify, Repair, Quality];
        let trace: Vec<QueryEvent> = (0..kinds.len())
            .map(|slot| QueryEvent {
                kind: kinds[slot],
                entry: slot,
                arrival_nanos: 0,
            })
            .collect();
        let off = Obs::off();
        for mode in [closed(1), closed(3), closed(7), OPEN] {
            let outcome = replay(&FakeTransport(None), &trace, mode, &off).unwrap();
            assert_eq!(outcome.digests, [0, 1, 2, 3, 4], "{mode:?}");
            assert_eq!(outcome.results, None, "the fake returns no values");
            let k = mode.clients();
            assert_eq!(outcome.per_client.len(), k);
            let mut fold = ValueDigest::new();
            for (i, client) in outcome.per_client.iter().enumerate() {
                // Client i serves slots i, i+k, …, in that order.
                let mut chain = ValueDigest::new();
                (i..trace.len())
                    .step_by(k)
                    .for_each(|slot| chain.push(slot as u64));
                let served = (i..trace.len()).step_by(k).count() as u64;
                assert_eq!(client.queries, served, "{mode:?} client {i}");
                assert_eq!(client.histogram.count(), served);
                assert_eq!(client.digest, chain.value(), "{mode:?} client {i}");
                fold.push(chain.value());
            }
            assert_eq!(outcome.digest, fold.value());
            for kind in QueryKind::ALL {
                let want = kinds.iter().filter(|&&k| k == kind).count() as u64;
                assert_eq!(outcome.kind_histograms[kind.index()].count(), want);
            }
            let failed = replay(&FakeTransport(Some(3)), &trace, mode, &off);
            assert_eq!(failed.unwrap_err(), FakeError(Some(3)), "{mode:?}");
        }
        let none = replay(&FakeTransport(None), &trace, closed(0), &off);
        assert_eq!(none.unwrap_err(), FakeError(None));
    }

    #[test]
    fn more_clients_than_queries_is_fine() {
        let spec = WorkloadSpec::new(closed(7), 3, 0.0, QueryMix::consume(), 2);
        let outcome = run_workload(&small_corpus(), &spec).unwrap();
        assert_eq!(outcome.queries, 3);
        assert_eq!(outcome.per_client.len(), 7);
        assert!(outcome.per_client.iter().skip(3).all(|c| c.queries == 0));
    }
}
