//! Observability invariants of the round engine: the counters a recording
//! [`lcs_obs::Obs`] collects are *facts* about the execution — byte-identical
//! across shard counts — and the per-shard gauge splits fold back to exactly
//! the `SimStats` the run returned. Every shard count reports through the
//! shared `record_run` helper, so a drift between the stats plane and the
//! metrics plane is a bug this suite pins, as is a one-shard run that
//! reports more than its inline metric set.

use lcs_congest::{FaultPlan, Incoming, NodeContext, NodeProtocol, Outgoing, SimConfig, Simulator};
use lcs_graph::{generators, Graph};
use lcs_obs::Obs;

/// One of the generator families (the same four the determinism suite uses).
fn family_graph(which: usize, size: usize, seed: u64) -> Graph {
    match which % 4 {
        0 => generators::grid(size, size),
        1 => generators::torus(size, size),
        2 => generators::caterpillar(4 * size, 2),
        _ => generators::random_connected(size * size, size * size, seed),
    }
}

/// A small multi-round wave: every node floods a token once, relays the
/// first token it hears with a node-dependent delay. Enough chatter to make
/// the message/bit/poll counters nontrivial on every family.
#[derive(Debug, Clone)]
struct Wave {
    id: usize,
    pending: Option<(u64, u32)>,
    relayed: bool,
}

impl NodeProtocol for Wave {
    type Message = u32;

    fn init(&mut self, ctx: &NodeContext<'_>) -> Vec<Outgoing<u32>> {
        if self.id.is_multiple_of(2) {
            ctx.neighbor_ids()
                .iter()
                .map(|&v| Outgoing::new(v, self.id as u32))
                .collect()
        } else {
            Vec::new()
        }
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext<'_>,
        round: u64,
        incoming: &[Incoming<u32>],
    ) -> Vec<Outgoing<u32>> {
        if !self.relayed && self.pending.is_none() {
            if let Some(msg) = incoming.first() {
                self.pending = Some((round + 1 + (self.id as u64 % 3), msg.msg));
            }
        }
        if let Some((due, token)) = self.pending {
            if round >= due {
                self.pending = None;
                self.relayed = true;
                if ctx.degree() > 0 {
                    let k = self.id % ctx.degree();
                    return vec![Outgoing::new(ctx.neighbor_ids()[k], token)];
                }
            }
        }
        Vec::new()
    }

    fn is_done(&self) -> bool {
        self.pending.is_none()
    }

    fn next_wake(&self, now: u64) -> Option<u64> {
        self.pending.map(|(due, _)| due.max(now + 1))
    }
}

/// Runs the wave with a recording handle and returns `(stats, snapshot)`.
fn run_recorded(
    graph: &Graph,
    threads: usize,
) -> (lcs_congest::SimStats, lcs_obs::MetricsSnapshot) {
    run_recorded_with(SimConfig::for_graph(graph).with_threads(threads), graph)
}

/// [`run_recorded`] under an explicit configuration.
fn run_recorded_with(
    config: SimConfig,
    graph: &Graph,
) -> (lcs_congest::SimStats, lcs_obs::MetricsSnapshot) {
    let obs = Obs::recording();
    let sim = Simulator::new(graph, config).with_recorder(obs.clone());
    let outcome = sim
        .run(|ctx| Wave {
            id: ctx.node.index(),
            pending: None,
            relayed: false,
        })
        .expect("the wave protocol respects the CONGEST constraints");
    (outcome.stats, obs.snapshot())
}

/// The per-shard gauge splits fold to exactly the returned `SimStats` (and
/// the `engine/polls` counter), for every family and shard count.
#[test]
fn shard_gauges_fold_to_sim_stats() {
    for which in 0..4 {
        let graph = family_graph(which, 5, 11 + which as u64);
        for threads in [1usize, 2, 3, 8] {
            let (stats, snap) = run_recorded(&graph, threads);
            let shards = snap.gauge("engine/shards").expect("shard count gauge") as usize;
            assert!(shards >= 1, "family {which} threads {threads}");
            let fold = |what: &str| -> u64 {
                (0..shards)
                    .map(|id| {
                        snap.gauge(&format!("engine/shard/{id}/{what}"))
                            .unwrap_or_else(|| panic!("missing shard {id} gauge {what}"))
                    })
                    .sum()
            };
            assert_eq!(
                fold("messages"),
                stats.messages,
                "family {which} threads {threads}"
            );
            assert_eq!(
                fold("bits"),
                stats.total_bits,
                "family {which} threads {threads}"
            );
            assert_eq!(
                Some(fold("polls")),
                snap.counter("engine/polls"),
                "family {which} threads {threads}"
            );
            assert_eq!(snap.counter("engine/runs"), Some(1));
            assert_eq!(snap.counter("engine/rounds"), Some(stats.rounds));
            assert_eq!(snap.counter("engine/messages"), Some(stats.messages));
            assert_eq!(snap.counter("engine/bits"), Some(stats.total_bits));
            assert_eq!(
                snap.gauge("engine/max_message_bits"),
                Some(stats.max_message_bits as u64)
            );
        }
    }
}

/// The counter half of the snapshot is byte-identical across shard counts:
/// counters record thread-invariant facts, never shard-shape.
#[test]
fn counters_are_byte_identical_across_shard_counts() {
    for which in 0..4 {
        let graph = family_graph(which, 5, 23 + which as u64);
        let (_, reference) = run_recorded(&graph, 1);
        let reference_text = reference.counters_text();
        assert!(!reference_text.is_empty());
        for threads in [2usize, 3, 8] {
            let (_, snap) = run_recorded(&graph, threads);
            assert_eq!(
                snap.counters_text(),
                reference_text,
                "family {which} threads {threads}"
            );
            assert_eq!(snap.counters_digest(), reference.counters_digest());
        }
    }
}

/// The exact metric names of a one-shard recording run, fault-free and
/// faulty: the engine counters, the shard gauges of shard 0, and nothing
/// else. Barrier waits, staging volumes and flush sizes exist only when
/// shards run on worker threads, so the inline one-shard path must not
/// report them.
#[test]
fn one_shard_runs_record_exactly_the_inline_metric_set() {
    let names = |pairs: &[(String, u64)]| -> Vec<String> {
        pairs.iter().map(|(name, _)| name.clone()).collect()
    };
    let graph = family_graph(0, 5, 0);
    let engine_counters = [
        "engine/bits",
        "engine/messages",
        "engine/polls",
        "engine/rounds",
        "engine/runs",
    ];
    let engine_gauges = [
        "engine/max_message_bits",
        "engine/shard/0/bits",
        "engine/shard/0/messages",
        "engine/shard/0/polls",
        "engine/shards",
    ];

    let (_, snap) = run_recorded(&graph, 1);
    assert_eq!(names(&snap.counters), engine_counters);
    assert_eq!(names(&snap.gauges), engine_gauges);
    assert!(snap.timers.is_empty(), "{:?}", snap.timers);
    assert_eq!(snap.gauge("engine/shards"), Some(1));

    let plan = FaultPlan::new(5).with_latency(1).with_loss_ppm(50_000);
    let config = SimConfig::for_graph(&graph)
        .with_threads(1)
        .with_fault(plan);
    let (_, snap) = run_recorded_with(config, &graph);
    let mut counters: Vec<&str> = engine_counters.to_vec();
    counters.extend([
        "fault/crash_drops",
        "fault/delays",
        "fault/drops",
        "fault/dups",
        "fault/restarts",
    ]);
    counters.sort_unstable();
    let mut gauges: Vec<&str> = engine_gauges.to_vec();
    gauges.push("fault/queue_depth");
    gauges.sort_unstable();
    assert_eq!(names(&snap.counters), counters);
    assert_eq!(names(&snap.gauges), gauges);
    assert!(snap.timers.is_empty(), "{:?}", snap.timers);
}
