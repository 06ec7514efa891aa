//! Cross-crate integration tests: the full pipeline from graph generation
//! through shortcut construction and routing to the MST application,
//! validated against centralized references. Construction and MST run
//! through the `api` session; the core driver is called directly where a
//! test inspects its per-iteration cost breakdown.

use low_congestion_shortcuts::api::{self, Pipeline, Session, Strategy};
use low_congestion_shortcuts::core::construction::{
    run_doubling, scheduled_verifier, DoublingConfig, FindShortcut, FindShortcutConfig,
};
use low_congestion_shortcuts::core::existential::reference_parameters;
use low_congestion_shortcuts::core::routing::PartRouter;
use low_congestion_shortcuts::graph::{
    diameter_exact, generators, kruskal_mst, EdgeWeights, Graph, NodeId, RootedTree,
};
use low_congestion_shortcuts::mst::{part_aggregate, verify, ShortcutStrategy};

/// A default session (BFS tree rooted at node 0, scheduled, seed 0).
fn session(graph: &Graph) -> Session<'_> {
    Pipeline::on(graph)
        .build()
        .expect("test graphs are connected")
}

/// End-to-end pipeline on a planar grid: generate, construct shortcuts with
/// the doubling search, route, and solve MST — everything must agree with
/// the centralized references.
#[test]
fn full_pipeline_on_planar_grid() {
    let graph = generators::grid(10, 10);
    let partition = generators::partitions::grid_columns(10, 10);
    let session = session(&graph);
    let tree = session.tree();

    // Shortcut construction without knowing (c, b).
    let constructed = session.shortcut(&partition, Strategy::doubling()).unwrap();
    let (_, block_guess) = constructed.winning_guess().unwrap();
    let quality = constructed.shortcut.quality(&graph, &partition);
    assert!(quality.block_parameter <= 3 * block_guess);
    assert!(quality.satisfies_lemma1(tree.depth_of_tree()));

    // Routing on the constructed shortcut: per-part member counts.
    let router = PartRouter::new(&graph, tree, &partition, &constructed.shortcut);
    assert!(router.supergraphs_connected());
    let ones: Vec<Option<u64>> = graph
        .nodes()
        .map(|v| partition.part_of(v).map(|_| 1))
        .collect();
    let sums = router.aggregate_to_leaders(&ones, |a, b| a + b);
    for p in partition.parts() {
        assert_eq!(
            sums.values[p.index()],
            Some(partition.members(p).len() as u64)
        );
    }

    // Distributed MST matches Kruskal.
    let weights = EdgeWeights::random_permutation(&graph, 99);
    let outcome = session.mst(&weights, ShortcutStrategy::Doubling).unwrap();
    assert_eq!(outcome.edges, kruskal_mst(&graph, &weights));
    assert!(verify::is_minimum_spanning_tree(
        &graph,
        &weights,
        &outcome.edges
    ));
}

/// The headline separation: on a wheel (network diameter 2, long rim arcs)
/// the shortcut-based MST routing beats the part-internal baseline, and both
/// compute the same (correct) tree.
#[test]
fn shortcut_mst_beats_baseline_routing_on_low_diameter_planar_graphs() {
    let graph = generators::wheel(257);
    assert_eq!(diameter_exact(&graph), 2);
    let weights = EdgeWeights::random_permutation(&graph, 5);

    let session = session(&graph);
    let with_shortcuts = session
        .mst(
            &weights,
            ShortcutStrategy::FindShortcut {
                congestion: 2,
                block: 2,
            },
        )
        .unwrap();
    let baseline = session.mst(&weights, ShortcutStrategy::NoShortcut).unwrap();

    assert_eq!(with_shortcuts.edges, baseline.edges);
    assert_eq!(with_shortcuts.edges, kruskal_mst(&graph, &weights));

    let routing = |outcome: &api::MstRun| -> u64 {
        outcome
            .cost
            .entries()
            .iter()
            .filter(|(label, _)| label.contains("min-outgoing-edge"))
            .map(|(_, rounds)| rounds)
            .sum()
    };
    assert!(
        routing(&with_shortcuts) < routing(&baseline),
        "shortcut routing ({}) must beat the baseline ({})",
        routing(&with_shortcuts),
        routing(&baseline)
    );
}

/// Theorem 3 guarantee, cross-checked through the public API only, on a
/// genus-1 (toroidal) instance.
#[test]
fn theorem3_on_torus_with_reference_parameters() {
    let graph = generators::torus(10, 10);
    let session = session(&graph);
    let partition = generators::partitions::random_bfs_balls(&graph, 10, 1);
    let (_, reference) = reference_parameters(&graph, session.tree(), &partition);

    let result = session
        .shortcut(
            &partition,
            Strategy::Fixed {
                congestion: reference.congestion.max(1),
                block: reference.block_parameter.max(1),
            },
        )
        .unwrap();

    assert!(result.report.all_parts_good);
    let quality = result.shortcut.quality(&graph, &partition);
    assert!(quality.block_parameter <= 3 * reference.block_parameter.max(1));
    assert!(quality.congestion <= 8 * reference.congestion.max(1) * result.report.iterations + 1);
}

/// The lower-bound instance: the framework does not (and should not) help,
/// but everything still runs and produces correct results.
#[test]
fn lower_bound_instance_still_computes_correct_mst() {
    let (graph, _layout) = generators::lower_bound_graph(6, 24);
    let weights = EdgeWeights::random_permutation(&graph, 13);
    let outcome = session(&graph)
        .mst(&weights, ShortcutStrategy::Doubling)
        .unwrap();
    assert_eq!(outcome.edges, kruskal_mst(&graph, &weights));
}

/// Part-wise aggregation through the umbrella API on a genus-g handle graph.
#[test]
fn part_aggregate_on_genus_graph() {
    let graph = generators::genus_handles(10, 10, 3);
    let session = session(&graph);
    let partition = generators::partitions::grid_columns(10, 10);
    let constructed = session.shortcut(&partition, Strategy::doubling()).unwrap();

    // Every member contributes its degree; the per-part sums must match a
    // direct computation.
    let degrees: Vec<Option<u64>> = graph
        .nodes()
        .map(|v| partition.part_of(v).map(|_| graph.degree(v) as u64))
        .collect();
    let outcome = part_aggregate(
        &graph,
        session.tree(),
        &partition,
        &constructed.shortcut,
        &degrees,
        |a, b| a + b,
    );
    for p in partition.parts() {
        let expected: u64 = partition
            .members(p)
            .iter()
            .map(|&v| graph.degree(v) as u64)
            .sum();
        assert_eq!(outcome.values[p.index()], Some(expected));
    }
    assert!(outcome.rounds > 0);
}

/// Round counts reported by the construction are internally consistent: the
/// per-iteration breakdown sums to the total, and more parts cannot make the
/// empty-work case cheaper than the real one.
#[test]
fn round_accounting_is_consistent() {
    let graph = generators::grid(12, 12);
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    let partition = generators::partitions::grid_columns(12, 12);
    let (_, reference) = reference_parameters(&graph, &tree, &partition);
    let all = vec![true; partition.part_count()];
    let result = FindShortcut::new(FindShortcutConfig::new(
        reference.congestion.max(1),
        reference.block_parameter.max(1),
    ))
    .run_on_parts(&graph, &tree, &partition, &all, scheduled_verifier)
    .unwrap();

    let breakdown_sum: u64 = result.cost.entries().iter().map(|(_, r)| r).sum();
    assert_eq!(breakdown_sum, result.total_rounds());
    assert!(result.cost.total_for_prefix("iteration-1/") > 0);
    // Every executed iteration appears in the breakdown.
    for i in 1..=result.iterations {
        assert!(result.cost.total_for_prefix(&format!("iteration-{i}/")) > 0);
    }
}

/// The distributed protocol layer end to end through the umbrella API: the
/// whole pipeline — shortcut construction with simulated verification,
/// cross-checked routing primitives, and Boruvka with simulated per-part
/// communication — agrees with the centralized references.
#[test]
fn simulated_execution_pipeline_agrees_with_centralized_references() {
    use low_congestion_shortcuts::core::routing::ExecutionMode;
    use low_congestion_shortcuts::dist;

    let graph = generators::grid(8, 8);
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    let partition = generators::partitions::random_bfs_balls(&graph, 8, 2);
    let (_, reference) = reference_parameters(&graph, &tree, &partition);
    let fixed = Strategy::Fixed {
        congestion: reference.congestion.max(1),
        block: reference.block_parameter.max(1),
    };

    // FindShortcut with the message-passing verification drop-in.
    let mut session = Pipeline::on(&graph).seed(4).build().unwrap();
    let scheduled = session.shortcut(&partition, fixed).unwrap();
    session.set_execution(ExecutionMode::Simulated);
    let simulated = session.shortcut(&partition, fixed).unwrap();
    assert!(simulated.report.all_parts_good);
    assert_eq!(simulated.shortcut, scheduled.shortcut);

    // Cross-check every routing primitive on the constructed shortcut.
    let check = dist::CrossCheck::new(&graph, &tree, &partition, &simulated.shortcut).unwrap();
    check.leader_election().unwrap();
    let weights = EdgeWeights::random_permutation(&graph, 21);
    let candidates = check.boruvka_candidates(&weights);
    check.min_edge(&candidates).unwrap();
    check
        .block_counts(3 * reference.block_parameter.max(1))
        .unwrap();

    // Boruvka with simulated per-part communication still equals Kruskal.
    session.set_seed(2);
    let outcome = session.mst(&weights, ShortcutStrategy::Doubling).unwrap();
    assert_eq!(outcome.edges, kruskal_mst(&graph, &weights));
}

/// The same full pipeline through the `api` front door: one session serves
/// construction, quality, verification and MST, and every result agrees
/// with the direct core calls.
#[test]
fn full_pipeline_through_the_api_facade() {
    let graph = generators::grid(10, 10);
    let partition = generators::partitions::grid_columns(10, 10);
    let mut session = session(&graph);

    // Construction without knowing (c, b), equal to the core doubling
    // search with the scheduled verifier.
    let run = session
        .shortcut(&partition, api::Strategy::doubling())
        .unwrap();
    let tree = RootedTree::bfs(&graph, NodeId::new(0));
    let all = vec![true; partition.part_count()];
    let (direct, attempts) = run_doubling(
        &graph,
        &tree,
        &partition,
        &all,
        DoublingConfig::default(),
        None,
        scheduled_verifier,
    )
    .unwrap();
    assert_eq!(run.shortcut, direct.shortcut);
    assert_eq!(run.report.attempts, attempts);
    assert!(run.report.all_parts_good);

    // Quality through the session's reusable workspaces.
    let quality = session.quality(&run.shortcut, &partition).unwrap();
    assert_eq!(quality, direct.shortcut.quality(&graph, &partition));
    let (_, b) = run.winning_guess().unwrap();
    assert!(quality.block_parameter <= 3 * b);

    // Verification in both execution modes classifies identically.
    let scheduled = session.verify(&run.shortcut, &partition, 3 * b).unwrap();
    session.set_execution(api::ExecutionMode::Simulated);
    let simulated = session.verify(&run.shortcut, &partition, 3 * b).unwrap();
    assert_eq!(scheduled.good, simulated.good);
    assert!(simulated.report.sim.is_some());
    session.set_execution(api::ExecutionMode::Scheduled);

    // MST through the session equals Kruskal.
    let weights = EdgeWeights::random_permutation(&graph, 99);
    let mst = session
        .mst(&weights, api::ShortcutStrategy::Doubling)
        .unwrap();
    assert_eq!(mst.edges, kruskal_mst(&graph, &weights));

    // The unified report serializes as JSON without external dependencies.
    let json = run.report.to_json();
    assert!(json.starts_with("{\"operation\":\"shortcut\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

/// The unified error type carries every layer's failures through one enum.
#[test]
fn unified_error_spans_the_pipeline_layers() {
    use low_congestion_shortcuts::graph::LcsError;

    // Config: zero threads is rejected at the parse surface.
    let err = low_congestion_shortcuts::graph::Threads::parse("0").unwrap_err();
    assert!(matches!(err, LcsError::Config { .. }));

    // Budget: the lower-bound instance cannot be served at (1, 1).
    let (graph, layout) = generators::lower_bound_graph(6, 16);
    let partition = generators::partitions::lower_bound_paths(&layout);
    let session = api::Pipeline::on(&graph)
        .tree(api::TreeSpec::Bfs(layout.connector(0)))
        .build()
        .unwrap();
    let err = session
        .shortcut(
            &partition,
            api::Strategy::Doubling(api::DoublingSpec {
                max_doublings: 0,
                ..api::DoublingSpec::default()
            }),
        )
        .unwrap_err();
    assert!(matches!(err, LcsError::BudgetExhausted { .. }));

    // Inconsistent inputs: a partition over the wrong node count.
    let other = generators::partitions::grid_columns(3, 3);
    let err = session
        .shortcut(&other, api::Strategy::doubling())
        .unwrap_err();
    assert!(matches!(err, LcsError::InconsistentInputs { .. }));
}
