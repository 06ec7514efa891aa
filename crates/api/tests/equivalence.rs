//! API-equivalence suite: every `Session` query must be byte-identical to
//! the reference it replaces — same shortcuts, same statistics, same
//! traces, same quality, same MST edges — across the generator families,
//! engine thread counts {1, 4}, and both execution modes. This is the
//! contract that lets the experiment tables (and any downstream caller)
//! rely on the façade without a single value changing.
//!
//! Construction and MST are pinned against frozen goldens: the outputs of
//! the former standalone entry points (the Appendix A doubling search, the
//! fixed-parameter `FindShortcut` run, and Boruvka MST with a per-call
//! configuration), captured before those entry points were folded into
//! the one doubling loop. Shortcuts are pinned by an FNV digest of their
//! per-part edge lists, MST costs by a digest of the labelled
//! `RoundCost` entries. Verification, quality and the core subroutines
//! are compared against the live lower-layer calls.

use lcs_api::{
    Attempt, CoreKind, DoublingSpec, ExecutionMode, Pipeline, RoundCost, Session, Strategy,
    Threads, TreeShortcut, TreeSpec, ValueDigest,
};
use lcs_congest::SimConfig;
use lcs_core::construction::{core_fast, core_slow, verification, CoreFastConfig};
use lcs_dist::verification_simulated;
use lcs_graph::{
    generators, kruskal_mst, EdgeId, EdgeWeights, Graph, NodeId, PartId, Partition, RootedTree,
};
use lcs_mst::ShortcutStrategy;

/// The instance families the suite sweeps: one representative per
/// generator shape (grid/columns, torus/balls, wheel/arcs, caterpillar,
/// random), sized so the full matrix stays fast.
fn families() -> Vec<(&'static str, Graph, Partition)> {
    let torus = generators::torus(6, 6);
    let torus_balls = generators::partitions::random_bfs_balls(&torus, 6, 2);
    let caterpillar = generators::caterpillar(12, 3);
    let cat_balls = generators::partitions::random_bfs_balls(&caterpillar, 5, 4);
    let random = generators::random_connected(60, 60, 9);
    let random_balls = generators::partitions::random_bfs_balls(&random, 8, 6);
    vec![
        (
            "grid6x6/columns",
            generators::grid(6, 6),
            generators::partitions::grid_columns(6, 6),
        ),
        ("torus6x6/balls", torus, torus_balls),
        (
            "wheel33/arcs",
            generators::wheel(33),
            generators::partitions::wheel_arcs(33, 4),
        ),
        ("caterpillar12x3/balls", caterpillar, cat_balls),
        ("random60/balls", random, random_balls),
    ]
}

fn session(graph: &Graph, threads: usize, mode: ExecutionMode, seed: u64) -> Session<'_> {
    Pipeline::on(graph)
        .threads(Threads::Fixed(threads))
        .execution(mode)
        .seed(seed)
        .build()
        .expect("equivalence families are connected")
}

/// The matrix every check runs over.
const THREADS: [usize; 2] = [1, 4];
const MODES: [ExecutionMode; 2] = [ExecutionMode::Scheduled, ExecutionMode::Simulated];

/// FNV digest of a shortcut: per part, its edge count then its edge ids.
fn shortcut_digest(shortcut: &TreeShortcut) -> u64 {
    let mut d = ValueDigest::new();
    for p in 0..shortcut.part_count() {
        let edges = shortcut.edges_of(PartId::new(p));
        d.push(edges.len() as u64);
        for e in edges {
            d.push(e.index() as u64);
        }
    }
    d.value()
}

fn edges_digest(edges: &[EdgeId]) -> u64 {
    let mut d = ValueDigest::new();
    d.push(edges.len() as u64);
    for e in edges {
        d.push(e.index() as u64);
    }
    d.value()
}

/// FNV digest of a cost breakdown: per entry, the label length, its bytes,
/// then the rounds.
fn cost_digest(cost: &RoundCost) -> u64 {
    let mut d = ValueDigest::new();
    for (label, rounds) in cost.entries() {
        d.push(label.len() as u64);
        for b in label.bytes() {
            d.push(u64::from(b));
        }
        d.push(*rounds);
    }
    d.value()
}

/// `(congestion_guess, block_guess, succeeded, rounds)` of one attempt.
type AttemptGolden = (usize, usize, bool, u64);

fn attempts_of(attempts: &[Attempt]) -> Vec<AttemptGolden> {
    attempts
        .iter()
        .map(|a| (a.congestion_guess, a.block_guess, a.succeeded, a.rounds))
        .collect()
}

/// Checks a doubling run against its golden: the shortcut, every
/// attempt's guesses and verdict, the per-attempt rounds of the run's
/// execution mode, their total, and the winning guess.
fn assert_doubling_run(
    run: &lcs_api::ShortcutRun,
    digest: u64,
    attempts: &[AttemptGolden],
    rounds: &[u64],
    context: &str,
) {
    assert_eq!(shortcut_digest(&run.shortcut), digest, "{context}");
    let expected: Vec<AttemptGolden> = attempts
        .iter()
        .zip(rounds)
        .map(|(&(c, b, ok, _), &r)| (c, b, ok, r))
        .collect();
    assert_eq!(attempts_of(&run.report.attempts), expected, "{context}");
    assert_eq!(run.total_rounds(), rounds.iter().sum::<u64>(), "{context}");
    let &(c, b, _, _) = attempts.last().unwrap();
    assert_eq!(run.winning_guess(), Some((c, b)), "{context}");
}

/// A golden doubling search: digest, attempts with their scheduled
/// rounds, and the per-attempt rounds `Simulated` execution charges.
struct DoublingGolden {
    family: &'static str,
    digest: u64,
    attempts: &'static [AttemptGolden],
    simulated_rounds: &'static [u64],
}

/// The former `doubling_search(.., DoublingConfig::new().with_seed(3))`.
const DOUBLING_SEED3: [DoublingGolden; 5] = [
    DoublingGolden {
        family: "grid6x6/columns",
        digest: 6219582000969003641,
        attempts: &[(1, 1, true, 122)],
        simulated_rounds: &[228],
    },
    DoublingGolden {
        family: "torus6x6/balls",
        digest: 465437225987191348,
        attempts: &[(1, 1, true, 96)],
        simulated_rounds: &[178],
    },
    DoublingGolden {
        family: "wheel33/arcs",
        digest: 9914861807687403941,
        attempts: &[(1, 1, true, 20)],
        simulated_rounds: &[42],
    },
    DoublingGolden {
        family: "caterpillar12x3/balls",
        digest: 3395212273110318013,
        attempts: &[(1, 1, true, 118)],
        simulated_rounds: &[200],
    },
    DoublingGolden {
        family: "random60/balls",
        digest: 6113976246538297910,
        attempts: &[(1, 1, true, 79)],
        simulated_rounds: &[149],
    },
];

/// The former doubling search with defaults (seed 0) on the lower-bound
/// instance (8 paths of 16, tree rooted at connector 0): two failed
/// attempts before `(4, 4)` succeeds.
const DOUBLING_LOWER_BOUND: DoublingGolden = DoublingGolden {
    family: "lower-bound 8x16/paths",
    digest: 17673751214859281925,
    attempts: &[(1, 1, false, 704), (2, 2, false, 896), (4, 4, true, 397)],
    simulated_rounds: &[1248, 1968, 1010],
};

/// The former `FindShortcut::new(FindShortcutConfig::new(c, b)
/// .with_seed(5)).run(..)` with `(c, b) = (max(parts, 2), 2)`.
struct FixedGolden {
    family: &'static str,
    params: (usize, usize),
    digest: u64,
    iterations: usize,
    all_parts_good: bool,
    rounds: u64,
    simulated_rounds: u64,
}

const FIXED_SEED5: [FixedGolden; 5] = [
    FixedGolden {
        family: "grid6x6/columns",
        params: (6, 2),
        digest: 10606614764329928313,
        iterations: 1,
        all_parts_good: true,
        rounds: 208,
        simulated_rounds: 467,
    },
    FixedGolden {
        family: "torus6x6/balls",
        params: (6, 2),
        digest: 16594913802991894516,
        iterations: 1,
        all_parts_good: true,
        rounds: 150,
        simulated_rounds: 337,
    },
    FixedGolden {
        family: "wheel33/arcs",
        params: (4, 2),
        digest: 9914861807687403941,
        iterations: 1,
        all_parts_good: true,
        rounds: 26,
        simulated_rounds: 69,
    },
    FixedGolden {
        family: "caterpillar12x3/balls",
        params: (5, 2),
        digest: 13281430170687350476,
        iterations: 1,
        all_parts_good: true,
        rounds: 274,
        simulated_rounds: 581,
    },
    FixedGolden {
        family: "random60/balls",
        params: (8, 2),
        digest: 3401988486348560434,
        iterations: 1,
        all_parts_good: true,
        rounds: 177,
        simulated_rounds: 412,
    },
];

/// The former slow-core doubling search (seed 1), from `(1, 1)` and from
/// `(2, 2)` (every family succeeds at `(2, 2)` in one attempt).
struct SlowGolden {
    family: &'static str,
    digest: u64,
    attempts: &'static [AttemptGolden],
    from_2_2_digest: u64,
    from_2_2_rounds: u64,
}

const SLOW_CORE_SEED1: [SlowGolden; 5] = [
    SlowGolden {
        family: "grid6x6/columns",
        digest: 18240003186321784912,
        attempts: &[(1, 1, true, 92)],
        from_2_2_digest: 6533300275457541590,
        from_2_2_rounds: 170,
    },
    SlowGolden {
        family: "torus6x6/balls",
        digest: 465437225987191348,
        attempts: &[(1, 1, false, 772), (2, 2, true, 116)],
        from_2_2_digest: 465437225987191348,
        from_2_2_rounds: 116,
    },
    SlowGolden {
        family: "wheel33/arcs",
        digest: 9914861807687403941,
        attempts: &[(1, 1, true, 12)],
        from_2_2_digest: 9914861807687403941,
        from_2_2_rounds: 18,
    },
    SlowGolden {
        family: "caterpillar12x3/balls",
        digest: 6607073904762716423,
        attempts: &[(1, 1, true, 77)],
        from_2_2_digest: 17402467644952645510,
        from_2_2_rounds: 165,
    },
    SlowGolden {
        family: "random60/balls",
        digest: 9785214717640218564,
        attempts: &[(1, 1, true, 115)],
        from_2_2_digest: 6860827200245707634,
        from_2_2_rounds: 97,
    },
];

/// The former doubling search with defaults (seed 0): the shortcut the
/// quality and verification checks measure.
const DOUBLING_SEED0_DIGESTS: [(&str, u64); 5] = [
    ("grid6x6/columns", 6219582000969003641),
    ("torus6x6/balls", 465437225987191348),
    ("wheel33/arcs", 9914861807687403941),
    ("caterpillar12x3/balls", 3395212273110318013),
    ("random60/balls", 6113976246538297910),
];

/// The former `boruvka_mst(.., BoruvkaConfig::new(Doubling).with_seed(7)
/// .with_execution(mode))` on `EdgeWeights::random_permutation(graph, 7)`;
/// `cost` and `rounds` are indexed `[Scheduled, Simulated]`.
struct MstGolden {
    family: &'static str,
    edges: u64,
    weight: u64,
    phases: usize,
    cost_entries: usize,
    cost: [u64; 2],
    rounds: [u64; 2],
}

const MST_SEED7: [MstGolden; 5] = [
    MstGolden {
        family: "grid6x6/columns",
        edges: 17708311767404377201,
        weight: 694,
        phases: 11,
        cost_entries: 56,
        cost: [6599362735472275828, 9334354525409534149],
        rounds: [3232, 2425],
    },
    MstGolden {
        family: "torus6x6/balls",
        edges: 11850732364898575861,
        weight: 715,
        phases: 11,
        cost_entries: 56,
        cost: [6530580814055834477, 15286496095421573399],
        rounds: [2349, 1713],
    },
    MstGolden {
        family: "wheel33/arcs",
        edges: 2414471752682842457,
        weight: 664,
        phases: 10,
        cost_entries: 51,
        cost: [9725106539265663361, 17357594692551224833],
        rounds: [361, 301],
    },
    MstGolden {
        family: "caterpillar12x3/balls",
        edges: 3877146752817641509,
        weight: 1128,
        phases: 11,
        cost_entries: 56,
        cost: [11542002409225701884, 7113205134015163728],
        rounds: [2686, 2080],
    },
    MstGolden {
        family: "random60/balls",
        edges: 6191169032670577235,
        weight: 2091,
        phases: 13,
        cost_entries: 66,
        cost: [16136155452876082577, 8889465688953550002],
        rounds: [2752, 2047],
    },
];

/// Checks that the family sweep and a golden table list the same
/// instances in the same order.
fn paired<G>(
    goldens: &[G],
    family: impl Fn(&G) -> &'static str,
) -> Vec<(&'static str, Graph, Partition, &G)> {
    let families = families();
    assert_eq!(families.len(), goldens.len());
    families
        .into_iter()
        .zip(goldens)
        .map(|((name, graph, partition), golden)| {
            assert_eq!(name, family(golden), "golden table out of order");
            (name, graph, partition, golden)
        })
        .collect()
}

#[test]
fn doubling_strategy_equals_legacy_doubling_search() {
    for (name, graph, partition, golden) in paired(&DOUBLING_SEED3, |g| g.family) {
        let scheduled: Vec<u64> = golden.attempts.iter().map(|a| a.3).collect();
        for threads in THREADS {
            for mode in MODES {
                let s = session(&graph, threads, mode, 3);
                let run = s.shortcut(&partition, Strategy::doubling()).unwrap();
                let rounds = match mode {
                    ExecutionMode::Scheduled => &scheduled[..],
                    ExecutionMode::Simulated => golden.simulated_rounds,
                };
                let context = format!("{name} t={threads} {mode:?}");
                assert_doubling_run(&run, golden.digest, golden.attempts, rounds, &context);
            }
        }
    }
}

#[test]
fn failed_doubling_attempts_equal_the_frozen_lower_bound_search() {
    let golden = &DOUBLING_LOWER_BOUND;
    let (graph, layout) = generators::lower_bound_graph(8, 16);
    let partition = generators::partitions::lower_bound_paths(&layout);
    let scheduled: Vec<u64> = golden.attempts.iter().map(|a| a.3).collect();
    for threads in THREADS {
        for mode in MODES {
            let s = Pipeline::on(&graph)
                .tree(TreeSpec::Bfs(layout.connector(0)))
                .threads(Threads::Fixed(threads))
                .execution(mode)
                .build()
                .unwrap();
            let run = s.shortcut(&partition, Strategy::doubling()).unwrap();
            let rounds = match mode {
                ExecutionMode::Scheduled => &scheduled[..],
                ExecutionMode::Simulated => golden.simulated_rounds,
            };
            let context = format!("{} t={threads} {mode:?}", golden.family);
            assert_doubling_run(&run, golden.digest, golden.attempts, rounds, &context);
        }
    }
}

#[test]
fn fixed_strategy_equals_legacy_find_shortcut_run() {
    for (name, graph, partition, golden) in paired(&FIXED_SEED5, |g| g.family) {
        let (c, b) = (partition.part_count().max(2), 2);
        assert_eq!((c, b), golden.params, "{name}");
        for threads in THREADS {
            for mode in MODES {
                let s = session(&graph, threads, mode, 5);
                let run = s
                    .shortcut(
                        &partition,
                        Strategy::Fixed {
                            congestion: c,
                            block: b,
                        },
                    )
                    .unwrap();
                // The simulated verifier classifies identically (it is a
                // sound and complete drop-in), so the shortcut and the
                // iteration trajectory agree in every mode; each mode
                // charges its own rounds.
                let context = format!("{name} t={threads} {mode:?}");
                assert_eq!(shortcut_digest(&run.shortcut), golden.digest, "{context}");
                assert_eq!(run.report.iterations, golden.iterations, "{context}");
                assert_eq!(
                    run.report.all_parts_good, golden.all_parts_good,
                    "{context}"
                );
                let rounds = match mode {
                    ExecutionMode::Scheduled => golden.rounds,
                    ExecutionMode::Simulated => golden.simulated_rounds,
                };
                assert_eq!(run.total_rounds(), rounds, "{context}");
                assert_eq!(
                    attempts_of(&run.report.attempts),
                    vec![(c, b, golden.all_parts_good, rounds)],
                    "{context}"
                );
            }
        }
    }
}

#[test]
fn slow_core_strategy_equals_legacy_slow_doubling() {
    for (name, graph, partition, golden) in paired(&SLOW_CORE_SEED1, |g| g.family) {
        let scheduled: Vec<u64> = golden.attempts.iter().map(|a| a.3).collect();
        for threads in THREADS {
            let s = session(&graph, threads, ExecutionMode::Scheduled, 1);
            let run = s.shortcut(&partition, Strategy::slow_core()).unwrap();
            let context = format!("{name} t={threads}");
            assert_doubling_run(&run, golden.digest, golden.attempts, &scheduled, &context);
        }

        // Custom starting guesses keep working through the slow-core
        // strategy too.
        let s = session(&graph, 1, ExecutionMode::Scheduled, 1);
        let run = s
            .shortcut(
                &partition,
                Strategy::SlowCore(DoublingSpec {
                    initial_congestion: 2,
                    initial_block: 2,
                    ..DoublingSpec::default()
                }),
            )
            .unwrap();
        assert_eq!(
            shortcut_digest(&run.shortcut),
            golden.from_2_2_digest,
            "{name} slow-core from (2, 2)"
        );
        assert_eq!(run.total_rounds(), golden.from_2_2_rounds, "{name}");
    }
}

/// The seed-0 doubling shortcut of a family, checked against its golden.
fn seed0_shortcut(name: &str, graph: &Graph, partition: &Partition) -> TreeShortcut {
    let &(_, digest) = DOUBLING_SEED0_DIGESTS
        .iter()
        .find(|(family, _)| *family == name)
        .expect("every family has a seed-0 golden");
    let run = session(graph, 1, ExecutionMode::Scheduled, 0)
        .shortcut(partition, Strategy::doubling())
        .unwrap();
    assert_eq!(shortcut_digest(&run.shortcut), digest, "{name}");
    run.shortcut
}

#[test]
fn session_quality_equals_legacy_quality() {
    for (name, graph, partition) in families() {
        let shortcut = seed0_shortcut(name, &graph, &partition);
        let reference = shortcut.quality(&graph, &partition);
        for threads in THREADS {
            let s = session(&graph, threads, ExecutionMode::Scheduled, 0);
            // Quality measured twice through the same pool: warm reuse must
            // not drift.
            for round in 0..2 {
                let q = s.quality(&shortcut, &partition).unwrap();
                assert_eq!(q, reference, "{name} t={threads} round={round}");
            }
        }
    }
}

#[test]
fn session_verify_equals_legacy_verification_in_both_modes() {
    for (name, graph, partition) in families() {
        let tree = RootedTree::bfs(&graph, NodeId::new(0));
        let shortcut = seed0_shortcut(name, &graph, &partition);
        let active = vec![true; partition.part_count()];
        for threshold in [1usize, 3] {
            let scheduled_legacy =
                verification(&graph, &tree, &partition, &shortcut, threshold, &active);
            for threads in THREADS {
                let s = session(&graph, threads, ExecutionMode::Scheduled, 0);
                let run = s.verify(&shortcut, &partition, threshold).unwrap();
                assert_eq!(run.good, scheduled_legacy.good, "{name} th={threshold}");
                assert_eq!(
                    run.block_counts, scheduled_legacy.block_counts,
                    "{name} th={threshold}"
                );
                assert_eq!(
                    run.report.rounds_charged, scheduled_legacy.rounds,
                    "{name} th={threshold}"
                );

                let simulated_legacy = verification_simulated(
                    &graph,
                    &tree,
                    &partition,
                    &shortcut,
                    threshold,
                    &active,
                    Some(SimConfig::for_graph(&graph).with_threads(threads)),
                )
                .unwrap();
                let s = session(&graph, threads, ExecutionMode::Simulated, 0);
                let run = s.verify(&shortcut, &partition, threshold).unwrap();
                assert_eq!(
                    run.good, simulated_legacy.outcome.good,
                    "{name} t={threads} th={threshold}"
                );
                assert_eq!(
                    run.block_counts, simulated_legacy.outcome.block_counts,
                    "{name} t={threads} th={threshold}"
                );
                assert_eq!(
                    run.report.sim,
                    Some(simulated_legacy.stats),
                    "{name} t={threads} th={threshold}"
                );
                assert_eq!(
                    run.report.rounds_charged, simulated_legacy.outcome.rounds,
                    "{name} t={threads} th={threshold}"
                );
            }
        }
    }
}

#[test]
fn session_verify_trace_equals_legacy_trace() {
    let graph = generators::grid(5, 5);
    let partition = generators::partitions::grid_columns(5, 5);
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    let run = Pipeline::on(&graph)
        .build()
        .unwrap()
        .shortcut(&partition, Strategy::doubling())
        .unwrap();
    // The former seed-0 doubling search on grid 5x5 / columns.
    assert_eq!(shortcut_digest(&run.shortcut), 17175958549710617557);
    let shortcut = run.shortcut;
    let active = vec![true; partition.part_count()];
    for threads in THREADS {
        let legacy = verification_simulated(
            &graph,
            &tree,
            &partition,
            &shortcut,
            2,
            &active,
            Some(
                SimConfig::for_graph(&graph)
                    .with_threads(threads)
                    .with_trace(),
            ),
        )
        .unwrap();
        let s = Pipeline::on(&graph)
            .threads(Threads::Fixed(threads))
            .execution(ExecutionMode::Simulated)
            .trace(true)
            .build()
            .unwrap();
        let run = s.verify(&shortcut, &partition, 2).unwrap();
        assert!(!run.trace.is_empty());
        assert_eq!(run.trace, legacy.trace, "t={threads}");
    }
}

#[test]
fn session_core_equals_legacy_core_subroutines() {
    for (name, graph, partition) in families() {
        let tree = RootedTree::bfs(&graph, NodeId::new(0));
        let active = vec![true; partition.part_count()];
        let c = partition.part_count().max(2) / 2 + 1;
        let legacy_slow = core_slow(&graph, &tree, &partition, c, &active);
        let legacy_fast = core_fast(
            &graph,
            &tree,
            &partition,
            &CoreFastConfig::new(c).with_seed(8),
            &active,
        );
        for threads in THREADS {
            let s = session(&graph, threads, ExecutionMode::Scheduled, 8);
            let slow = s.core(&partition, CoreKind::Slow, c).unwrap();
            let fast = s.core(&partition, CoreKind::Fast, c).unwrap();
            assert_eq!(slow.shortcut, legacy_slow.shortcut, "{name} t={threads}");
            assert_eq!(slow.rounds, legacy_slow.rounds, "{name}");
            assert_eq!(fast.shortcut, legacy_fast.shortcut, "{name} t={threads}");
            assert_eq!(fast.rounds, legacy_fast.rounds, "{name}");
        }
    }
}

#[test]
fn session_mst_equals_legacy_boruvka_in_both_modes() {
    for (name, graph, _, golden) in paired(&MST_SEED7, |g| g.family) {
        // MST runs over the whole graph; the family's partition is unused.
        let weights = EdgeWeights::random_permutation(&graph, 7);
        for (m, mode) in MODES.into_iter().enumerate() {
            for threads in THREADS {
                let s = session(&graph, threads, mode, 7);
                let run = s.mst(&weights, ShortcutStrategy::Doubling).unwrap();
                let context = format!("{name} t={threads} {mode:?}");
                assert_eq!(edges_digest(&run.edges), golden.edges, "{context}");
                assert_eq!(run.weight, golden.weight, "{context}");
                assert_eq!(run.phases, golden.phases, "{context}");
                assert_eq!(run.cost.entries().len(), golden.cost_entries, "{context}");
                assert_eq!(cost_digest(&run.cost), golden.cost[m], "{context}");
                assert_eq!(run.cost.total(), golden.rounds[m], "{context}");
            }
        }
    }
}

#[test]
fn provided_tree_equals_bfs_tree_from_the_same_root() {
    let graph = generators::grid(6, 6);
    let partition = generators::partitions::grid_columns(6, 6);
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    let via_bfs = Pipeline::on(&graph).build().unwrap();
    let via_provided = Pipeline::on(&graph)
        .tree(TreeSpec::Provided(tree))
        .build()
        .unwrap();
    let a = via_bfs.shortcut(&partition, Strategy::doubling()).unwrap();
    let b = via_provided
        .shortcut(&partition, Strategy::doubling())
        .unwrap();
    assert_eq!(a.shortcut, b.shortcut);
    assert_eq!(a.total_rounds(), b.total_rounds());
}

#[test]
fn session_mst_routes_over_the_session_tree() {
    let graph = generators::grid(6, 6);
    let weights = EdgeWeights::random_permutation(&graph, 3);
    // A central root gives a shallower tree than the default corner root;
    // the MST charges the session tree's depth, not that of a BFS tree
    // rebuilt from node 0.
    let root = NodeId::new(14);
    let depth = u64::from(RootedTree::bfs(&graph, root).depth_of_tree());
    assert_ne!(
        depth,
        u64::from(RootedTree::bfs(&graph, NodeId::new(0)).depth_of_tree())
    );
    let s = Pipeline::on(&graph)
        .tree(TreeSpec::Bfs(root))
        .build()
        .unwrap();
    for strategy in [ShortcutStrategy::Doubling, ShortcutStrategy::WholeTree] {
        let run = s.mst(&weights, strategy).unwrap();
        assert_eq!(run.cost.entries()[0], ("bfs-tree".to_string(), depth));
        assert_eq!(run.edges, kruskal_mst(&graph, &weights));
    }
}

#[test]
fn fixed_strategy_with_zero_guesses_equals_guess_one() {
    // The doubling loop clamps guesses to at least 1, so a zero parameter
    // runs (and reports) the guess 1.
    let graph = generators::grid(8, 8);
    let partition = generators::partitions::grid_columns(8, 8);
    let s = session(&graph, 1, ExecutionMode::Scheduled, 0);
    for block in [0, 1, 2] {
        let fixed = |congestion| Strategy::Fixed { congestion, block };
        let zero = s.shortcut(&partition, fixed(0)).unwrap();
        let one = s.shortcut(&partition, fixed(1)).unwrap();
        assert_eq!(zero.shortcut, one.shortcut);
        assert_eq!(zero.report.attempts, one.report.attempts);
        let guess = (
            zero.report.attempts[0].congestion_guess,
            zero.report.attempts[0].block_guess,
        );
        assert_eq!(guess, (1, block.max(1)));
    }
}

#[test]
fn doubling_spec_initial_guesses_equal_legacy_starting_at() {
    let graph = generators::grid(6, 6);
    let partition = generators::partitions::grid_columns(6, 6);
    let s = session(&graph, 1, ExecutionMode::Scheduled, 4);
    let run = s
        .shortcut(
            &partition,
            Strategy::Doubling(DoublingSpec {
                initial_congestion: 2,
                initial_block: 2,
                ..DoublingSpec::default()
            }),
        )
        .unwrap();
    // The former doubling search from `(2, 2)` with seed 4.
    assert_eq!(shortcut_digest(&run.shortcut), 10606614764329928313);
    assert_eq!(run.total_rounds(), 211);
    assert_eq!(run.winning_guess(), Some((2, 2)));
}
