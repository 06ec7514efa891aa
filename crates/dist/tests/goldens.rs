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

use lcs_congest::primitives::AggregateOp;
use lcs_congest::{FaultPlan, SimConfig};
use lcs_core::existential::ancestor_shortcut;
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
