//! Golden simulation statistics pinning the edge-slot mailbox rewrite.
//!
//! The values were captured by running the identical protocols against the
//! pre-refactor simulator (per-recipient `Vec` mailboxes, every node polled
//! every round; the implementation the edge-slot buffers replaced, so the
//! old code itself is gone). The refactor's contract is *speed, never
//! semantics*: rounds, message counts, bit counts, and per-round traces
//! must all be byte-identical.
//!
//! The fault-mode golden was captured at one shard on the single-threaded
//! reference engine, before the sharded engine's inline one-shard path
//! replaced it; it pins the faulty round loop the same way.

use lcs_congest::primitives::{tree_aggregate, AggregateOp, DistributedBfs};
use lcs_congest::{FaultPlan, Incoming, NodeContext, NodeProtocol, Outgoing, SimConfig, Simulator};
use lcs_graph::{generators, NodeId, RootedTree};
use lcs_obs::Obs;

#[test]
fn golden_bfs_flood_stats() {
    let g = generators::grid(7, 5);
    let outcome = DistributedBfs::run_on(&g, NodeId::new(17)).unwrap();
    assert_eq!(outcome.stats.rounds, 6);
    assert_eq!(outcome.stats.messages, 82);
    assert_eq!(outcome.stats.total_bits, 2624);
    assert_eq!(outcome.stats.max_message_bits, 32);
}

#[test]
fn golden_tree_convergecast_stats() {
    let g = generators::grid(6, 6);
    let t = RootedTree::bfs(&g, NodeId::new(0));
    let values: Vec<u64> = (0..g.node_count() as u64).collect();
    let agg = tree_aggregate(&g, &t, &values, AggregateOp::Sum).unwrap();
    assert_eq!(agg.value, 630);
    assert_eq!(agg.stats.rounds, 10);
    assert_eq!(agg.stats.messages, 35);
    assert_eq!(agg.stats.total_bits, 2240);
    assert_eq!(agg.stats.max_message_bits, 64);
}

/// A level-announcing flood over a path, with per-round tracing enabled:
/// the full trace is pinned, entry by entry.
#[test]
fn golden_traced_flood_on_path() {
    #[derive(Debug)]
    struct Flood {
        root: NodeId,
        level: Option<u32>,
        announce: bool,
    }
    impl NodeProtocol for Flood {
        type Message = u32;
        fn init(&mut self, ctx: &NodeContext<'_>) -> Vec<Outgoing<u32>> {
            if ctx.node == self.root {
                ctx.neighbor_ids()
                    .iter()
                    .map(|&v| Outgoing::new(v, 0))
                    .collect()
            } else {
                Vec::new()
            }
        }
        fn on_round(
            &mut self,
            ctx: &NodeContext<'_>,
            _round: u64,
            incoming: &[Incoming<u32>],
        ) -> Vec<Outgoing<u32>> {
            if self.level.is_none() {
                if let Some(m) = incoming.iter().min_by_key(|m| (m.msg, m.from)) {
                    self.level = Some(m.msg + 1);
                    self.announce = true;
                }
            }
            if self.announce {
                self.announce = false;
                let level = self.level.expect("announcing nodes have joined");
                return ctx
                    .neighbor_ids()
                    .iter()
                    .map(|&v| Outgoing::new(v, level))
                    .collect();
            }
            Vec::new()
        }
        fn is_done(&self) -> bool {
            self.level.is_some() && !self.announce
        }
    }

    let g = generators::path(6);
    let sim = Simulator::new(&g, SimConfig::for_graph(&g).with_trace());
    let root = NodeId::new(0);
    let out = sim
        .run(|ctx| Flood {
            root,
            level: if ctx.node == root { Some(0) } else { None },
            announce: false,
        })
        .unwrap();
    assert_eq!(out.stats.rounds, 6);
    assert_eq!(out.stats.messages, 10);
    assert_eq!(out.stats.total_bits, 320);
    assert_eq!(out.stats.max_message_bits, 32);
    let expected: Vec<(u64, u64, u64)> = vec![
        (1, 1, 32),
        (2, 2, 64),
        (3, 2, 64),
        (4, 2, 64),
        (5, 2, 64),
        (6, 1, 32),
    ];
    let got: Vec<(u64, u64, u64)> = out
        .trace
        .iter()
        .map(|t| (t.round, t.messages, t.bits))
        .collect();
    assert_eq!(got, expected);
}

/// A relay with timed wake-ups: every third node floods its id, and each
/// node forwards the first few tokens it hears to one neighbour after a
/// node-dependent delay. Multi-round chatter, sleeping nodes and wake-ups
/// are exactly what the fault layer reroutes.
#[derive(Debug, Clone)]
struct Relay {
    id: usize,
    relays_left: u32,
    received: u64,
    checksum: u64,
    pending: Option<(u64, u32)>,
}

impl NodeProtocol for Relay {
    type Message = (u32, u32);

    fn init(&mut self, ctx: &NodeContext<'_>) -> Vec<Outgoing<(u32, u32)>> {
        if self.id.is_multiple_of(3) {
            ctx.neighbor_ids()
                .iter()
                .map(|&v| Outgoing::new(v, (self.id as u32, 0)))
                .collect()
        } else {
            Vec::new()
        }
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext<'_>,
        round: u64,
        incoming: &[Incoming<(u32, u32)>],
    ) -> Vec<Outgoing<(u32, u32)>> {
        for msg in incoming {
            self.received += 1;
            self.checksum = self
                .checksum
                .wrapping_mul(31)
                .wrapping_add(u64::from(msg.msg.0) ^ (round << 7) ^ msg.from.index() as u64);
            if self.pending.is_none() && self.relays_left > 0 && msg.msg.1 < 6 {
                self.pending = Some((round + 1 + (self.id as u64 % 4), msg.msg.1 + 1));
            }
        }
        if let Some((due, hops)) = self.pending {
            if round >= due {
                self.pending = None;
                self.relays_left -= 1;
                let k = (self.id + hops as usize) % ctx.degree();
                return vec![Outgoing::new(ctx.neighbor_ids()[k], (self.id as u32, hops))];
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

/// The relay on a 5×5 grid under a plan with every delivery fault live —
/// per-edge latency, loss, duplication, and two nodes that crash at round
/// 3 and restart four rounds later. Stats, the full per-round trace, the
/// fault counters and a fold of the final node states are pinned at one
/// shard, and three shards must reproduce them.
#[test]
fn golden_relay_under_faults() {
    let g = generators::grid(5, 5);
    let plan = FaultPlan::new(42)
        .with_latency(2)
        .with_loss_ppm(100_000)
        .with_dup_ppm(100_000)
        .with_crashes(2, 3, 4);
    for threads in [1usize, 3] {
        let obs = Obs::recording();
        let config = SimConfig::for_graph(&g)
            .with_trace()
            .with_threads(threads)
            .with_fault(plan);
        let out = Simulator::new(&g, config)
            .with_recorder(obs.clone())
            .run(|ctx| Relay {
                id: ctx.node.index(),
                relays_left: 3,
                received: 0,
                checksum: 0,
                pending: None,
            })
            .unwrap();
        let snap = obs.snapshot();
        let faults: Vec<u64> = ["drops", "dups", "delays", "crash_drops", "restarts"]
            .iter()
            .map(|k| snap.counter(&format!("fault/{k}")).unwrap())
            .collect();
        let trace: Vec<(u64, u64, u64)> = out
            .trace
            .iter()
            .map(|t| (t.round, t.messages, t.bits))
            .collect();
        let fold = out.nodes.iter().fold(0u64, |acc, n| {
            acc.wrapping_mul(1_000_003)
                .wrapping_add(n.checksum ^ (n.received << 32) ^ u64::from(n.relays_left))
        });
        assert_eq!(out.stats.rounds, 31, "threads={threads}");
        assert_eq!(out.stats.messages, 74, "threads={threads}");
        assert_eq!(out.stats.total_bits, 4736, "threads={threads}");
        assert_eq!(out.stats.max_message_bits, 64, "threads={threads}");
        assert_eq!(faults, vec![7, 14, 51, 2, 2], "threads={threads}");
        assert_eq!(fold, 5_829_229_647_930_352_835, "threads={threads}");
        let expected: Vec<(u64, u64, u64)> = vec![
            (1, 6, 384),
            (2, 10, 640),
            (3, 12, 768),
            (4, 4, 256),
            (5, 6, 384),
            (6, 2, 128),
            (7, 3, 192),
            (8, 6, 384),
            (9, 5, 320),
            (10, 2, 128),
            (11, 3, 192),
            (12, 2, 128),
            (13, 2, 128),
            (14, 3, 192),
            (15, 1, 64),
            (16, 1, 64),
            (17, 2, 128),
            (18, 1, 64),
            (19, 2, 128),
            (20, 0, 0),
            (21, 1, 64),
            (22, 1, 64),
            (23, 1, 64),
            (24, 1, 64),
            (25, 0, 0),
            (26, 0, 0),
            (27, 0, 0),
            (28, 0, 0),
            (29, 0, 0),
            (30, 1, 64),
            (31, 1, 64),
        ];
        assert_eq!(trace, expected, "threads={threads}");
        // The delivery-queue peak is a per-shard maximum (a gauge, not a
        // counter), so only the single-shard value is a fixed fact.
        if threads == 1 {
            assert_eq!(snap.gauge("fault/queue_depth"), Some(33));
        }
    }
}
