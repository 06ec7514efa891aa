//! Golden simulation statistics for the distributed protocols, pinning the
//! simulator's edge-slot mailbox rewrite and the engine's timed wake-ups.
//!
//! The values were captured by running the identical protocols against the
//! pre-refactor implementation (per-recipient `Vec` mailboxes, every node
//! polled every round), which the rewrite deleted. Rounds, message counts,
//! bit counts, and the computed results must all be byte-identical — the
//! flat-memory hot paths change wall-clock speed, never semantics.
//!
//! The fault-mode golden was captured at one shard on the single-threaded
//! reference engine, before the sharded engine's inline one-shard path
//! replaced it; it pins the faulty round loop the same way.
//!
//! The high-congestion, ready-block-priority and every-fault-kind goldens
//! were captured on the superstep engine that scanned every membership per
//! poll and on the `BinaryHeap` delivery queue, before the ready heap, the
//! mirror list and the delivery calendar replaced them.

use lcs_congest::primitives::AggregateOp;
use lcs_congest::{FaultPlan, SimConfig};
use lcs_core::existential::{ancestor_shortcut, truncated_ancestor_shortcut};
use lcs_dist::{
    block_convergecast, part_flood_min, part_leaders, verification_simulated,
    verification_simulated_obs, BlockFamily,
};
use lcs_graph::{generators, NodeId, RootedTree};
use lcs_obs::Obs;

#[test]
fn golden_part_leaders_on_wheel() {
    let g = generators::wheel(33);
    let t = RootedTree::bfs(&g, NodeId::new(0));
    let part = generators::partitions::wheel_arcs(33, 4);
    let s = ancestor_shortcut(&g, &t, &part);
    let family = BlockFamily::new(&g, &t, &part, &s);
    let (leaders, stats) = part_leaders(&g, &part, &family, None).unwrap();
    let ids: Vec<usize> = leaders.iter().map(|l| l.index()).collect();
    assert_eq!(ids, vec![1, 9, 17, 25]);
    assert_eq!(stats.rounds, 2);
    assert_eq!(stats.messages, 64);
    assert_eq!(stats.total_bits, 768);
    assert_eq!(stats.max_message_bits, 12);
}

#[test]
fn golden_block_convergecast_and_flood_on_grid() {
    let g = generators::grid(5, 5);
    let t = RootedTree::bfs(&g, NodeId::new(0));
    let part = generators::partitions::grid_columns(5, 5);
    let s = ancestor_shortcut(&g, &t, &part);
    let family = BlockFamily::new(&g, &t, &part, &s);

    let values: Vec<Option<u64>> = g.nodes().map(|v| Some(v.index() as u64)).collect();
    let cast = block_convergecast(&g, &family, &values, AggregateOp::Sum, None).unwrap();
    let per_block_sum: u64 = cast.per_block.iter().flatten().sum();
    assert_eq!(per_block_sum, 300);
    assert_eq!(cast.stats.rounds, 8);
    assert_eq!(cast.stats.messages, 30);
    assert_eq!(cast.stats.total_bits, 2100);
    assert_eq!(cast.stats.max_message_bits, 70);

    let vals: Vec<Option<(u64, u64)>> = g
        .nodes()
        .map(|v| {
            part.part_of(v)
                .map(|_| (v.index() as u64, 100 + v.index() as u64))
        })
        .collect();
    let flood = part_flood_min(&g, &part, &family, &vals, 64, None).unwrap();
    assert_eq!(flood.supersteps, 1);
    assert_eq!(flood.stats.rounds, 16);
    assert_eq!(flood.stats.messages, 60);
    assert_eq!(flood.stats.total_bits, 4200);
    assert_eq!(flood.stats.max_message_bits, 70);
}

#[test]
fn golden_verification_on_grid() {
    let g = generators::grid(8, 8);
    let t = RootedTree::bfs(&g, NodeId::new(0));
    let part = generators::partitions::grid_columns(8, 8);
    let s = ancestor_shortcut(&g, &t, &part);
    let b = s.block_parameter(&g, &part).max(1);
    let active = vec![true; part.part_count()];
    let ver = verification_simulated(&g, &t, &part, &s, 3 * b, &active, None).unwrap();
    assert_eq!(ver.supersteps, 11);
    assert!(ver.outcome.good.iter().all(|&good| good));
    assert_eq!(ver.outcome.block_counts, vec![1; part.part_count()]);
    assert_eq!(ver.stats.rounds, 318);
    assert_eq!(ver.stats.messages, 2408);
    assert_eq!(ver.stats.total_bits, 64456);
    assert_eq!(ver.stats.max_message_bits, 27);
}

/// Lemma 3 verification under per-edge latency and 3% loss, traced: the
/// stats, the fault counters, and an FNV fold of the 572-entry round trace
/// are pinned at one shard, and three shards must reproduce them.
#[test]
fn golden_verification_under_loss_and_latency() {
    let g = generators::grid(6, 6);
    let t = RootedTree::bfs(&g, NodeId::new(0));
    let part = generators::partitions::grid_columns(6, 6);
    let s = ancestor_shortcut(&g, &t, &part);
    let active = vec![true; part.part_count()];
    let plan = FaultPlan::new(17).with_latency(1).with_loss_ppm(30_000);
    for threads in [1usize, 3] {
        let obs = Obs::recording();
        let config = SimConfig::for_graph(&g)
            .with_trace()
            .with_threads(threads)
            .with_fault(plan);
        let ver =
            verification_simulated_obs(&g, &t, &part, &s, 3, &active, Some(config), &obs).unwrap();
        let snap = obs.snapshot();
        let faults: Vec<u64> = ["drops", "dups", "delays", "crash_drops", "restarts"]
            .iter()
            .map(|k| snap.counter(&format!("fault/{k}")).unwrap())
            .collect();
        let trace: Vec<(u64, u64, u64)> = ver
            .trace
            .iter()
            .map(|t| (t.round, t.messages, t.bits))
            .collect();
        let digest = trace
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &(r, m, b)| {
                [r, m, b]
                    .iter()
                    .fold(h, |h, &x| (h ^ x).wrapping_mul(0x0100_0000_01b3))
            });
        assert!(ver.decisive, "threads={threads}");
        assert!(ver.outcome.good.iter().all(|&good| good));
        assert_eq!(ver.outcome.block_counts, vec![1; part.part_count()]);
        assert_eq!(ver.supersteps, 11);
        assert_eq!(ver.stats.rounds, 572, "threads={threads}");
        assert_eq!(ver.stats.messages, 27149, "threads={threads}");
        assert_eq!(ver.stats.total_bits, 839_819, "threads={threads}");
        assert_eq!(ver.stats.max_message_bits, 31, "threads={threads}");
        assert_eq!(faults, vec![774, 0, 15141, 0, 0], "threads={threads}");
        assert_eq!(trace.len(), 572, "threads={threads}");
        assert_eq!(digest, 5_180_988_119_709_512_878, "threads={threads}");
        // The delivery-queue peak is a per-shard maximum (a gauge), so
        // only the single-shard value is a fixed fact.
        if threads == 1 {
            assert_eq!(snap.gauge("fault/queue_depth"), Some(110));
        }
    }
}

/// FNV-1a fold of a word sequence, the digest every golden below uses for
/// per-node and per-block results and for round traces.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        (h ^ x).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A high-congestion family: on a 16×16 grid with column parts, the
/// ancestor shortcut puts the nodes near the root on 16 blocks, so every
/// arrival at a hot node looks up one of many memberships. Pins the
/// fault-free superstep engine's lookups, mirror schedule and wake-ups
/// there; every block is rooted at the tree root, so the pick order is
/// left to `golden_ready_block_priority`.
#[test]
fn golden_high_congestion_grid16() {
    let g = generators::grid(16, 16);
    let t = RootedTree::bfs(&g, NodeId::new(0));
    let part = generators::partitions::grid_columns(16, 16);
    let s = ancestor_shortcut(&g, &t, &part);
    let family = BlockFamily::new(&g, &t, &part, &s);
    let hot = g
        .nodes()
        .map(|v| family.info(v).memberships.len())
        .max()
        .unwrap();
    assert_eq!(hot, 16);

    let b = s.block_parameter(&g, &part).max(1);
    let active = vec![true; part.part_count()];
    // Traced: the per-round message counts pin when every up and every
    // mirrored down is delivered.
    let config = SimConfig::for_graph(&g).with_trace();
    let ver = verification_simulated(&g, &t, &part, &s, 3 * b, &active, Some(config)).unwrap();
    let digest = fnv(ver.trace.iter().flat_map(|t| [t.round, t.messages, t.bits]));
    assert_eq!(digest, 5_311_612_694_366_632_146);
    assert_eq!(ver.supersteps, 11);
    assert!(ver.outcome.good.iter().all(|&good| good));
    assert_eq!(ver.outcome.block_counts, vec![1; part.part_count()]);
    assert_eq!(ver.stats.rounds, 670);
    assert_eq!(ver.stats.messages, 10_320);
    assert_eq!(ver.stats.total_bits, 346_080);
    assert_eq!(ver.stats.max_message_bits, 34);

    let values: Vec<Option<u64>> = g.nodes().map(|v| Some(v.index() as u64)).collect();
    let cast = block_convergecast(&g, &family, &values, AggregateOp::Sum, None).unwrap();
    let cast_digest = fnv(cast.per_block.iter().map(|v| v.map_or(u64::MAX, |x| x)));
    assert_eq!(cast_digest, 16_058_099_010_956_600_293);
    assert_eq!(cast.stats.rounds, 30);
    assert_eq!(cast.stats.messages, 360);
    assert_eq!(cast.stats.total_bits, 25_560);
    assert_eq!(cast.stats.max_message_bits, 71);

    let vals: Vec<Option<(u64, u64)>> = g
        .nodes()
        .map(|v| {
            part.part_of(v)
                .map(|_| ((v.index() as u64 * 7919) % 257, 1000 + v.index() as u64))
        })
        .collect();
    let flood = part_flood_min(&g, &part, &family, &vals, 64, None).unwrap();
    let flood_digest = fnv(flood
        .per_node
        .iter()
        .flat_map(|v| v.map_or([u64::MAX, u64::MAX], |(a, b)| [a, b])));
    assert_eq!(flood_digest, 13_557_594_747_233_610_661);
    assert_eq!(flood.supersteps, 1);
    assert_eq!(flood.stats.rounds, 60);
    assert_eq!(flood.stats.messages, 720);
    assert_eq!(flood.stats.total_bits, 51_120);
    assert_eq!(flood.stats.max_message_bits, 71);
}

/// The Lemma 2 pick order — shallowest block root first, ties by block —
/// shows in the round trace only where ready blocks of different root
/// depths, or of equal depth, compete for a parent edge. Truncated
/// ancestor shortcuts over BFS-ball parts make both happen: the grid
/// family's trace changes if deeper roots go first, the random family's if
/// ties go to the larger block.
#[test]
fn golden_ready_block_priority() {
    let cases = [
        (generators::grid(16, 16), 16, 8),
        (generators::random_connected(300, 300, 1), 20, 4),
    ];
    // Per family: b, verdict fold, rounds, messages, bits, max bits, trace.
    let mut facts = Vec::new();
    for (g, parts, levels) in cases {
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let part = generators::partitions::random_bfs_balls(&g, parts, 1);
        let s = truncated_ancestor_shortcut(&g, &t, &part, levels);
        let b = s.block_parameter(&g, &part).max(1);
        let active = vec![true; part.part_count()];
        let config = SimConfig::for_graph(&g).with_trace();
        let ver = verification_simulated(&g, &t, &part, &s, 3 * b, &active, Some(config)).unwrap();
        let digest = fnv(ver.trace.iter().flat_map(|t| [t.round, t.messages, t.bits]));
        let verdicts = fnv(ver
            .outcome
            .good
            .iter()
            .zip(&ver.outcome.block_counts)
            .map(|(&good, &count)| u64::from(good) << 32 | count as u64));
        facts.push([
            b as u64,
            verdicts,
            ver.stats.rounds,
            ver.stats.messages,
            ver.stats.total_bits,
            ver.stats.max_message_bits as u64,
            digest,
        ]);
    }
    assert_eq!(
        facts,
        [
            [
                6,
                5_266_921_811_551_873_488,
                2183,
                88_862,
                3_102_080,
                36,
                17_430_901_035_649_782_975
            ],
            [
                1,
                7_484_860_440_532_225_769,
                472,
                15_004,
                560_912,
                38,
                3_974_845_866_818_335_513
            ],
        ]
    );
}

/// Lemma 3 verification with every fault kind on at once — latency, loss,
/// duplication, stragglers and a crash with restart — so duplicate copies
/// and straggler-aligned dues share delivery rounds. Pins the stats, the
/// fault counters, the trace fold and the one-shard queue-depth gauge;
/// three shards must reproduce every thread-invariant fact.
#[test]
fn golden_verification_under_every_fault_kind() {
    let g = generators::grid(8, 8);
    let t = RootedTree::bfs(&g, NodeId::new(0));
    let part = generators::partitions::grid_columns(8, 8);
    let s = ancestor_shortcut(&g, &t, &part);
    let active = vec![true; part.part_count()];
    let plan = FaultPlan::new(29)
        .with_latency(2)
        .with_loss_ppm(20_000)
        .with_dup_ppm(60_000)
        .with_stragglers(100_000, 2)
        .with_crashes(2, 60, 40);
    for threads in [1usize, 3] {
        let obs = Obs::recording();
        let config = SimConfig::for_graph(&g)
            .with_trace()
            .with_threads(threads)
            .with_fault(plan);
        let ver =
            verification_simulated_obs(&g, &t, &part, &s, 3, &active, Some(config), &obs).unwrap();
        let snap = obs.snapshot();
        let faults: Vec<u64> = ["drops", "dups", "delays", "crash_drops", "restarts"]
            .iter()
            .map(|k| snap.counter(&format!("fault/{k}")).unwrap())
            .collect();
        let digest = fnv(ver.trace.iter().flat_map(|t| [t.round, t.messages, t.bits]));
        assert!(ver.decisive, "threads={threads}");
        assert!(ver.outcome.good.iter().all(|&good| good));
        assert_eq!(ver.outcome.block_counts, vec![1; part.part_count()]);
        assert_eq!(ver.supersteps, 11);
        assert_eq!(ver.stats.rounds, 2245, "threads={threads}");
        assert_eq!(ver.stats.messages, 224_854, "threads={threads}");
        assert_eq!(ver.stats.total_bits, 6_960_664, "threads={threads}");
        assert_eq!(ver.stats.max_message_bits, 31, "threads={threads}");
        assert_eq!(
            faults,
            vec![4581, 13_157, 145_026, 123, 2],
            "threads={threads}"
        );
        assert_eq!(ver.trace.len(), 2245, "threads={threads}");
        assert_eq!(digest, 8_233_429_178_713_754_565, "threads={threads}");
        // The queue peak is a per-shard maximum, so only the one-shard
        // value is a fixed fact.
        if threads == 1 {
            assert_eq!(snap.gauge("fault/queue_depth"), Some(279));
        }
    }
}
