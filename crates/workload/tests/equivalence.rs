//! The driver is just pacing: a closed loop with one client and zero
//! think-time must produce byte-identical query results (shortcuts,
//! verdicts, quality records, MST edges) to replaying the same trace
//! sequentially through [`Session`] directly — at engine thread counts 1
//! and 4, and in both execution modes.

use lcs_workload::{
    generate_trace, run_workload, Corpus, CorpusSpec, Family, Mode, QueryKind, QueryMix,
    WorkloadSpec,
};

use lcs_api::{ExecutionMode, Pipeline, QueryValue, Strategy, Threads};

fn corpus() -> Corpus {
    Corpus::build_with_repair(&CorpusSpec {
        family: Family::Grid,
        size: 4,
        entries: 3,
        seed: 21,
    })
    .unwrap()
}

/// The mixed preset plus a repair share, so the equivalence sweep also
/// pins the churn path across thread counts and execution modes.
fn churn_mix() -> QueryMix {
    QueryMix {
        construct: 10,
        verify: 55,
        quality: 30,
        mst: 5,
        repair: 10,
    }
}

/// Replays the trace through the dedicated `Session` query methods — not
/// through `serve_shared` — so the test pins the driver against the original
/// API, not against itself.
fn replay_directly(corpus: &Corpus, spec: &WorkloadSpec) -> Vec<QueryValue> {
    let trace = generate_trace(spec, corpus.len()).unwrap();
    let session = Pipeline::on(corpus.graph())
        .seed(spec.seed)
        .execution(spec.execution)
        .threads(spec.threads)
        .build()
        .unwrap();
    trace
        .iter()
        .map(|event| {
            let entry = &corpus.entries()[event.entry];
            match event.kind {
                QueryKind::Construct => {
                    let run = session
                        .shortcut(&entry.partition, Strategy::doubling())
                        .unwrap();
                    QueryValue::Construct(run.shortcut)
                }
                QueryKind::Verify => {
                    let run = session
                        .verify(&entry.shortcut, &entry.partition, entry.threshold)
                        .unwrap();
                    QueryValue::Verify {
                        good: run.good,
                        block_counts: run.block_counts,
                    }
                }
                QueryKind::Quality => {
                    QueryValue::Quality(session.quality(&entry.shortcut, &entry.partition).unwrap())
                }
                QueryKind::Mst => {
                    let run = session
                        .mst(&entry.weights, lcs_api::ShortcutStrategy::Doubling)
                        .unwrap();
                    QueryValue::Mst {
                        edges: run.edges,
                        weight: run.weight,
                    }
                }
                QueryKind::Repair => {
                    let case = entry.repair.as_ref().unwrap();
                    let run = session.repair_from(&case.baseline, &case.delta).unwrap();
                    QueryValue::Repair {
                        shortcut: run.shortcut,
                        quality: run.quality,
                        good: run.good,
                        repaired_parts: run.repaired_parts,
                        reused_parts: run.reused_parts,
                    }
                }
            }
        })
        .collect()
}

fn check_equivalence(execution: ExecutionMode, queries: usize) {
    let corpus = corpus();
    let mut digests = Vec::new();
    for threads in [1usize, 4] {
        let spec = WorkloadSpec::new(
            Mode::Closed {
                clients: 1,
                think_nanos: 0,
            },
            queries,
            1.0,
            churn_mix(),
            13,
        )
        .execution(execution)
        .threads(Threads::Fixed(threads))
        .keep_results(true);

        let outcome = run_workload(&corpus, &spec).unwrap();
        let direct = replay_directly(&corpus, &spec);
        assert_eq!(
            outcome.results.as_deref().unwrap().len(),
            direct.len(),
            "threads={threads}"
        );
        assert_eq!(
            outcome.results.as_deref().unwrap(),
            direct.as_slice(),
            "driver and direct replay disagree at threads={threads}"
        );
        digests.push(outcome.digest);
    }
    // Result values — and therefore the workload digest — are identical
    // across engine thread counts.
    assert_eq!(
        digests[0], digests[1],
        "digest differs across thread counts"
    );
}

#[test]
fn closed_loop_single_client_matches_direct_replay_scheduled() {
    check_equivalence(ExecutionMode::Scheduled, 24);
}

#[test]
fn closed_loop_single_client_matches_direct_replay_simulated() {
    check_equivalence(ExecutionMode::Simulated, 10);
}

#[test]
fn multi_client_and_open_loop_values_match_single_client() {
    let corpus = corpus();
    let base = WorkloadSpec::new(
        Mode::Closed {
            clients: 1,
            think_nanos: 0,
        },
        20,
        0.0,
        QueryMix::consume(),
        99,
    )
    .keep_results(true);
    let single = run_workload(&corpus, &base).unwrap();

    let multi = run_workload(
        &corpus,
        &WorkloadSpec {
            mode: Mode::Closed {
                clients: 4,
                think_nanos: 0,
            },
            ..base
        },
    )
    .unwrap();
    assert_eq!(single.results, multi.results, "client count changed values");

    let open = run_workload(
        &corpus,
        &WorkloadSpec {
            mode: Mode::Open {
                mean_interarrival_nanos: 0,
            },
            ..base
        },
    )
    .unwrap();
    assert_eq!(single.results, open.results, "pacing mode changed values");
    // Open loop and 1-client closed loop serve the identical stream on
    // one session, so even the digest chains coincide.
    assert_eq!(single.digest, open.digest);
}
