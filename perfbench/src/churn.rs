//! `churn-mix`: nproc client threads in a closed loop over shared
//! `Session::serve_shared` sessions (the `PoolBank` path), in process:
//! every client serves on the one session of each graph. The corpora are
//! `Corpus::build_with_repair` on the random family, four graphs of 169
//! nodes with 8 entries each, served uniformly; the mix is construct 10 /
//! verify 22 / quality 8 / mst 5 / repair 55, so the median query is a
//! repair and the p99 lands in MST.
//!
//! A run is cut into `SEGMENTS` segments of equal length, each preceded
//! by a set-up; the first set-up's corpora and trace are the ones
//! served. So `setup_s` samples the host across the whole run. The
//! segments go in pairs: the odd segment of a pair replays the trace from
//! where the even one started, so a traced run, which records spans in
//! the even segments only, compares the same queries with and without
//! spans for the tracing overhead.
//!
//! Every served digest is checked, as it arrives, against a sequential
//! in-process `serve_shared` replay of the same query; with every digest
//! equal, the digest multisets are equal too.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use lcs_api::{QueryValue, Session, ShortcutStrategy, Strategy};
use lcs_workload::{
    generate_trace, query_of, Corpus, CorpusSpec, Family, Mode, QueryEvent, QueryKind, QueryMix,
    WorkloadSpec,
};

use crate::reference::{self, locate, Reference};
use crate::report::Outcome;
use crate::stats::{describe, median, quantile, sorted};
use crate::trace::{SpanId, SpanLog};
use crate::{vm_hwm_mib, Args, SETUP_REPS};

/// Size knob of the random family: 13² = 169 nodes.
const SIZE: usize = 13;
/// Random graphs per run. The cost of MST and construction queries varies
/// from one 169-node random graph to the next by up to 40%, so a run
/// serves four of them and a seed's throughput does not hinge on one.
const GRAPHS: usize = 4;
/// Entries per graph; the 32 entries are served uniformly, so the median
/// repair is a mix over 32 seeded churn deltas rather than one head
/// entry's.
const ENTRIES: usize = 8;
const THETA: f64 = 0.0;
/// Repairs are 55% of queries and the cheaper verifies 22%, so the
/// median query sits in the middle of the repair costs rather than in
/// their tail; MST's 5% holds the p99.
const MIX: QueryMix = QueryMix {
    construct: 10,
    verify: 22,
    quality: 8,
    mst: 5,
    repair: 55,
};
/// Requests of the trace; the cursor wraps around if a run outlasts them.
const TRACE_LEN: usize = 50_000;

fn corpora(seed: u64) -> Result<Vec<Corpus>, String> {
    (0..GRAPHS)
        .map(|g| {
            Corpus::build_with_repair(&CorpusSpec {
                family: Family::Random,
                size: SIZE,
                entries: ENTRIES,
                seed: seed.wrapping_mul(GRAPHS as u64).wrapping_add(g as u64),
            })
            .map_err(|e| format!("Corpus::build_with_repair: {e}"))
        })
        .collect()
}

/// One warm session per graph.
fn sessions(corpora: &[Corpus], seed: u64) -> Result<Vec<Session<'_>>, String> {
    corpora
        .iter()
        .map(|corpus| reference::session(corpus.graph(), seed))
        .collect()
}

/// The layer each query kind spends its service time in.
fn kind_span(kind: QueryKind) -> &'static str {
    match kind {
        QueryKind::Construct => "core.construct",
        QueryKind::Verify => "core.verify",
        QueryKind::Quality => "core.quality",
        QueryKind::Mst => "mst.boruvka",
        QueryKind::Repair => "core.repair",
    }
}

/// Segments of a run: an even number, and at least `SETUP_REPS`.
const SEGMENTS: usize = 10;
const _: () = assert!(SEGMENTS.is_multiple_of(2) && SEGMENTS as u64 >= SETUP_REPS);

/// One served query, kept small: a run keeps tens of thousands, and
/// their memory counts in the process's peak resident set.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// The segment that served it.
    segment: u32,
    /// The cursor position it was served at; the trace event is this
    /// modulo the trace length.
    pos: u32,
    /// Time of the whole `serve_shared` call, ns.
    call_ns: u32,
    /// `Served::wall_nanos`.
    serve_ns: u32,
}

impl Sample {
    fn call_us(&self) -> f64 {
        f64::from(self.call_ns) / 1e3
    }

    fn serve_us(&self) -> f64 {
        f64::from(self.serve_ns) / 1e3
    }
}

fn saturating_u32(v: u64) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// The replay's digest of every (kind, entry) the trace holds.
type Expected = HashMap<(usize, usize), u64>;

fn expected_digests(reference: &Reference<'_>, trace: &[QueryEvent]) -> Result<Expected, String> {
    let mut expected = Expected::new();
    for event in trace {
        if let Entry::Vacant(slot) = expected.entry((event.kind.index(), event.entry)) {
            slot.insert(reference.digest(event)?);
        }
    }
    Ok(expected)
}

/// One client thread: next event from the shared cursor, served on its
/// graph's shared session and checked against the replay's digest, until
/// `deadline`.
#[allow(clippy::too_many_arguments)]
fn client(
    sessions: &[Session<'_>],
    corpora: &[Corpus],
    trace: &[QueryEvent],
    expected: &Expected,
    cursor: &AtomicUsize,
    deadline: Instant,
    segment: usize,
    mut log: SpanLog,
) -> (Vec<Sample>, Vec<String>, SpanLog) {
    let mut samples = Vec::new();
    let mut errors = Vec::new();
    while Instant::now() < deadline {
        let pos = cursor.fetch_add(1, Ordering::Relaxed);
        let i = pos % trace.len();
        let (graph, local) = locate(&trace[i], ENTRIES);
        let start = Instant::now();
        let served = sessions[graph].serve_shared(query_of(&corpora[graph], &local));
        let end = Instant::now();
        match served {
            Ok(served) => {
                let want = expected.get(&(trace[i].kind.index(), trace[i].entry));
                if want != Some(&served.digest) || !served.all_good {
                    errors.push(format!(
                        "{:?}: served digest {} (all_good {}) != replay {want:?}",
                        trace[i], served.digest, served.all_good
                    ));
                    continue;
                }
                if log.on() {
                    let (s, e) = (log.nanos(start), log.nanos(end));
                    let root = log.record("api.serve_shared", SpanId::NONE, i as u64, s, e);
                    let name = kind_span(trace[i].kind);
                    log.record(name, root, i as u64, s, s + served.wall_nanos);
                }
                samples.push(Sample {
                    segment: segment as u32,
                    pos: pos as u32,
                    call_ns: saturating_u32(end.duration_since(start).as_nanos() as u64),
                    serve_ns: saturating_u32(served.wall_nanos),
                });
            }
            Err(e) => errors.push(format!("{:?}: {e}", trace[i])),
        }
    }
    (samples, errors, log)
}

/// Set-up sub-phase times, ms.
#[derive(Default, Clone, Copy)]
struct SetupTimes {
    corpus: f64,
    build: f64,
    trace: f64,
}

fn trace(seed: u64, clients: usize) -> Result<Vec<QueryEvent>, String> {
    let spec = WorkloadSpec::new(
        Mode::Closed {
            clients,
            think_nanos: 0,
        },
        TRACE_LEN,
        THETA,
        MIX,
        seed,
    );
    generate_trace(&spec, GRAPHS * ENTRIES).map_err(|e| format!("generate_trace: {e}"))
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(args, &mut out) {
        out.check(false, || e);
    }
    out
}

fn run_inner(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let epoch = Instant::now();
    let mut log = SpanLog::new(args.trace, epoch);
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut setup_s = Vec::new();
    let mut setups = Vec::new();
    let mut setup_once =
        |log: &mut SpanLog, rep: u64| -> Result<(Vec<Corpus>, Vec<QueryEvent>), String> {
            let t = Instant::now();
            let mut times = SetupTimes::default();
            let root = log.open("bench.setup", SpanId::NONE, rep);
            let span = log.open("workload.corpus", root, rep);
            let corpora = corpora(args.seed)?;
            times.corpus = t.elapsed().as_secs_f64() * 1e3;
            log.close(span);
            let span = log.open("workload.trace", root, rep);
            let t_trace = Instant::now();
            let trace = trace(args.seed, clients)?;
            times.trace = t_trace.elapsed().as_secs_f64() * 1e3;
            log.close(span);
            let span = log.open("api.build", root, rep);
            let t_build = Instant::now();
            drop(sessions(&corpora, args.seed)?);
            times.build = t_build.elapsed().as_secs_f64() * 1e3;
            log.close(span);
            log.close(root);
            setup_s.push(t.elapsed().as_secs_f64());
            setups.push(times);
            Ok((corpora, trace))
        };
    let (corpora, trace) = setup_once(&mut log, 0)?;
    let sessions = sessions(&corpora, args.seed)?;
    // Correctness: every served digest is checked against the sequential
    // replay as it arrives; with each digest equal, so are the multisets.
    let reference = Reference::new(&corpora, args.seed)?;
    let expected = expected_digests(&reference, &trace)?;

    let segment_len = Duration::from_secs_f64(args.seconds as f64 / SEGMENTS as f64);
    let mut samples = Vec::new();
    let mut wall = 0.0;
    // Cursor positions each segment started and ended at.
    let mut ranges = Vec::with_capacity(SEGMENTS);
    for segment in 0..SEGMENTS {
        if segment > 0 {
            drop(setup_once(&mut log, segment as u64)?);
        }
        let traced = args.trace && segment.is_multiple_of(2);
        let base = match ranges.last() {
            None => 0,
            Some(&(start, _)) if !segment.is_multiple_of(2) => start,
            Some(_) => ranges.iter().map(|&(_, end)| end).max().unwrap_or(0),
        };
        let cursor = AtomicUsize::new(base);
        let start = Instant::now();
        let deadline = start + segment_len;
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let (sessions, corpora, trace, expected, cursor) =
                        (&sessions, &corpora, &trace, &expected, &cursor);
                    let worker_log = SpanLog::new(traced, epoch);
                    scope.spawn(move || {
                        client(
                            sessions, corpora, trace, expected, cursor, deadline, segment,
                            worker_log,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        wall += start.elapsed().as_secs_f64();
        ranges.push((base, cursor.load(Ordering::Relaxed)));
        for (s, errors, worker_log) in results {
            out.attempted += s.len() as u64;
            samples.extend(s);
            for e in errors {
                out.check(false, || e);
            }
            log.absorb(worker_log);
        }
    }

    let calls: Vec<f64> = samples.iter().map(Sample::call_us).collect();
    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mib", vm_hwm_mib(None));
    out.set("p50_us", median(&calls));
    out.set("qps", samples.len() as f64 / wall);
    out.note(format!(
        "churn-mix seed {}: {clients} client threads sharing one session per graph, {GRAPHS} random {SIZE}x{SIZE} graphs ({} nodes) of {ENTRIES} entries, {} queries in {SEGMENTS} segments of {:.2} s",
        args.seed,
        corpora[0].graph().node_count(),
        samples.len(),
        segment_len.as_secs_f64()
    ));
    out.note(describe("setup_s", "s", &setup_s));
    out.note(describe("call_us", "us", &calls));
    let s = sorted(&calls);
    out.note(format!(
        "closed: qps {:.1} 1/s, p50_us {:.3} us, p99_us {:.3} us",
        samples.len() as f64 / wall,
        quantile(&s, 0.5),
        quantile(&s, 0.99)
    ));

    if args.trace {
        per_layer(
            &samples, &ranges, &trace, &corpora, &sessions, &reference, &setups, &mut log, out,
        );
        crate::tcp::probe(args.seed, &mut log, out);
        crate::finish_trace(&log, "churn-mix", args, out);
    }
    Ok(())
}

/// The traced run's layer costs.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    samples: &[Sample],
    ranges: &[(usize, usize)],
    trace: &[QueryEvent],
    corpora: &[Corpus],
    sessions: &[Session<'_>],
    reference: &Reference<'_>,
    setups: &[SetupTimes],
    log: &mut SpanLog,
    out: &mut Outcome,
) {
    out.set(
        "workload.corpus_ms",
        median(&setups.iter().map(|s| s.corpus).collect::<Vec<_>>()),
    );
    out.set(
        "workload.trace_ms",
        median(&setups.iter().map(|s| s.trace).collect::<Vec<_>>()),
    );
    out.set(
        "api.build_ms",
        median(&setups.iter().map(|s| s.build).collect::<Vec<_>>()),
    );

    let mut serve: HashMap<QueryKind, Vec<f64>> = HashMap::new();
    let mut overhead = Vec::new();
    let mut rebuilt = (0usize, 0usize);
    for s in samples {
        let event = &trace[s.pos as usize % trace.len()];
        serve.entry(event.kind).or_default().push(s.serve_us());
        overhead.push(s.call_us() - s.serve_us());
        if let Ok((
            _,
            QueryValue::Repair {
                repaired_parts,
                reused_parts,
                ..
            },
        )) = reference.value(event)
        {
            rebuilt.0 += repaired_parts;
            rebuilt.1 += repaired_parts + reused_parts;
        }
    }
    for kind in QueryKind::ALL {
        let s = sorted(serve.get(&kind).map_or(&[][..], Vec::as_slice));
        out.set(
            &format!("api.serve_us.{}.p50", kind.label()),
            quantile(&s, 0.5),
        );
        out.set(
            &format!("api.serve_us.{}.p99", kind.label()),
            quantile(&s, 0.99),
        );
        if !s.is_empty() {
            out.note(describe(
                &format!("api.serve_us.{}", kind.label()),
                "us",
                &s,
            ));
        }
    }
    out.set("api.call_overhead_us", median(&overhead));
    let repair = serve.get(&QueryKind::Repair).map_or(&[][..], Vec::as_slice);
    out.set("core.repair_us", median(repair));
    out.set(
        "core.repair_rebuilt_frac",
        rebuilt.0 as f64 / rebuilt.1.max(1) as f64,
    );
    let construct = serve
        .get(&QueryKind::Construct)
        .map_or(&[][..], Vec::as_slice);
    out.set("core.construct_ms", median(construct) / 1e3);
    // The two segments of a pair start at the same cursor position, so
    // the positions both reached were served once in each: the traced
    // (even) and untraced (odd) calls over them are the same queries with
    // and without spans.
    let same = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| {
                let (own, other) = (ranges[s.segment as usize], ranges[s.segment as usize ^ 1]);
                s.segment.is_multiple_of(2) == traced && (s.pos as usize) < own.1.min(other.1)
            })
            .map(Sample::call_us)
            .collect()
    };
    out.set(
        "trace.overhead_frac",
        median(&same(true)) / median(&same(false)) - 1.0,
    );

    // Direct probes: doubling attempts per entry, and MST phases.
    let mut attempts = Vec::new();
    let mut mst_ms = Vec::new();
    let mut phases = Vec::new();
    let entries = corpora
        .iter()
        .zip(sessions)
        .flat_map(|(corpus, session)| corpus.entries().iter().map(move |e| (corpus, session, e)));
    for (k, (corpus, session, entry)) in entries.enumerate() {
        let span = log.open("core.construct_probe", SpanId::NONE, k as u64);
        let run = session.shortcut(&entry.partition, Strategy::doubling());
        log.close(span);
        match run {
            Ok(run) => attempts.push(run.report.attempts.len() as f64),
            Err(e) => out.check(false, || format!("entry {k}: construct probe: {e}")),
        }
        let span = log.open("mst.probe", SpanId::NONE, k as u64);
        let t = Instant::now();
        let run = session.mst(&entry.weights, ShortcutStrategy::Doubling);
        mst_ms.push(t.elapsed().as_secs_f64() * 1e3);
        log.close(span);
        match run {
            Ok(run) => {
                let kruskal = lcs_api::graph::mst_weight(corpus.graph(), &entry.weights);
                out.check(run.weight == kruskal, || {
                    format!("entry {k}: MST weight {} != Kruskal {kruskal}", run.weight)
                });
                phases.push(run.phases as f64);
            }
            Err(e) => out.check(false, || format!("entry {k}: mst probe: {e}")),
        }
    }
    out.set("core.construct_attempts", median(&attempts));
    let (ms, ph) = (median(&mst_ms), median(&phases));
    out.set("mst.ms", ms);
    out.set("mst.phases", ph);
    out.set("mst.ms_per_phase", ms / ph.max(1.0));
}
