//! `sim-scale`: batch CONGEST simulation at engine width 1, no server.
//!
//! One pass runs four calls:
//! * `Session::verify` (`Simulated`) on grid 100×100 with column parts;
//! * the same on `random_connected` n = 2·10⁴ with 100 BFS balls, its
//!   shortcut built with `Strategy::Fixed { 100, 1 }`;
//! * `Session::shortcut(Strategy::doubling())` (`Scheduled`) on torus
//!   64×64 with 64 BFS balls;
//! * a fault-on `verify` on grid 20×20 columns: 1% loss, latency 2, the
//!   default `RetryPolicy`.
//!
//! The end-to-end unit of work is the pass. A timed set-up follows every
//! pass, outside the pass time, so `setup_s` samples the whole run.
//!
//! Checked facts: every verify is all-good, its `SimStats` repeat exactly
//! on every pass (and match the pins for pinned seeds), the `Simulated`
//! verdicts equal the centralized `Scheduled` ones, the fault run heals
//! to the fault-free verdict, and the width-2 engine reproduces the
//! width-1 statistics.

use std::time::{Duration, Instant};

use lcs_api::congest::primitives::DistributedBfs;
use lcs_api::congest::{SimConfig, Simulator};
use lcs_api::graph::{bfs_distances, generators, Graph, NodeId, Partition};
use lcs_api::{
    ExecutionMode, FaultPlan, Pipeline, RetryPolicy, Session, SimStats, Strategy, Threads,
    TreeShortcut, ValueDigest,
};

use crate::pins::{self, SimPins};
use crate::report::Outcome;
use crate::stats::{describe, median};
use crate::trace::{SpanId, SpanLog};
use crate::{vm_hwm_mib, Args, SETUP_REPS};

const GRID_SIDE: usize = 100;
const RANDOM_N: usize = 20_000;
const RANDOM_PARTS: usize = 100;
const TORUS_SIDE: usize = 64;
const TORUS_PARTS: usize = 64;
const FAULT_SIDE: usize = 20;
const FAULT_LOSS_PPM: u32 = 10_000;
const FAULT_LATENCY: u32 = 2;
/// Passes run even when `--seconds` is shorter than they take.
const MIN_PASSES: usize = 3;

/// Every generated input of one setup.
struct Inputs {
    grid: Graph,
    grid_parts: Partition,
    random: Graph,
    random_parts: Partition,
    torus: Graph,
    torus_parts: Partition,
    fault: Graph,
    fault_parts: Partition,
}

fn generate(seed: u64) -> Inputs {
    let grid = generators::grid(GRID_SIDE, GRID_SIDE);
    let random = generators::random_connected(RANDOM_N, RANDOM_N, seed);
    let random_parts = generators::partitions::random_bfs_balls(&random, RANDOM_PARTS, seed);
    let torus = generators::torus(TORUS_SIDE, TORUS_SIDE);
    let torus_parts =
        generators::partitions::random_bfs_balls(&torus, TORUS_PARTS, seed.wrapping_add(1));
    Inputs {
        grid,
        grid_parts: generators::partitions::grid_columns(GRID_SIDE, GRID_SIDE),
        random,
        random_parts,
        torus,
        torus_parts,
        fault: generators::grid(FAULT_SIDE, FAULT_SIDE),
        fault_parts: generators::partitions::grid_columns(FAULT_SIDE, FAULT_SIDE),
    }
}

/// A warm `Simulated` session with a prebuilt shortcut to verify.
struct VerifyCase<'g> {
    session: Session<'g>,
    partition: &'g Partition,
    shortcut: TreeShortcut,
    threshold: usize,
}

struct Prepared<'g> {
    grid: VerifyCase<'g>,
    random: VerifyCase<'g>,
    fault: VerifyCase<'g>,
    torus: Session<'g>,
}

fn pipeline(graph: &Graph, seed: u64, threads: usize) -> Pipeline<'_> {
    Pipeline::on(graph)
        .seed(seed)
        .threads(Threads::Fixed(threads))
        .execution(ExecutionMode::Simulated)
}

/// Builds the case's shortcut with `Strategy::Fixed { c, 1 }` in
/// `Scheduled` mode, then switches the session to `Simulated`.
fn verify_case<'g>(
    mut session: Session<'g>,
    partition: &'g Partition,
    congestion: usize,
) -> Result<VerifyCase<'g>, String> {
    session.set_execution(ExecutionMode::Scheduled);
    let run = session
        .shortcut(
            partition,
            Strategy::Fixed {
                congestion,
                block: 1,
            },
        )
        .map_err(|e| format!("construction failed: {e}"))?;
    if !run.report.all_parts_good {
        return Err(format!("Fixed {{ {congestion}, 1 }} left parts bad"));
    }
    session.set_execution(ExecutionMode::Simulated);
    Ok(VerifyCase {
        session,
        partition,
        shortcut: run.shortcut,
        threshold: 3,
    })
}

/// Sub-phase times of one setup, in milliseconds.
#[derive(Default, Clone, Copy)]
struct SetupTimes {
    generate: f64,
    build: f64,
}

/// Builds the sessions and the verified shortcuts of one set-up, with
/// spans under the set-up's `root`.
fn prepare<'g>(
    inputs: &'g Inputs,
    seed: u64,
    times: &mut SetupTimes,
    log: &mut SpanLog,
    root: SpanId,
) -> Result<Prepared<'g>, String> {
    let span = log.open("api.build", root, 0);
    let t = Instant::now();
    let grid = build(pipeline(&inputs.grid, seed, 1))?;
    let random = build(pipeline(&inputs.random, seed, 1))?;
    let torus = build(pipeline(&inputs.torus, seed, 1).execution(ExecutionMode::Scheduled))?;
    let fault = build(
        pipeline(&inputs.fault, seed, 1)
            .fault(fault_plan(seed))
            .retry(RetryPolicy::default()),
    )?;
    times.build = ms(t.elapsed());
    log.close(span);
    let span = log.open("core.construct.setup", root, 0);
    let prepared = Prepared {
        grid: verify_case(grid, &inputs.grid_parts, GRID_SIDE - 1)?,
        random: verify_case(
            random,
            &inputs.random_parts,
            inputs.random_parts.part_count(),
        )?,
        fault: verify_case(fault, &inputs.fault_parts, FAULT_SIDE - 1)?,
        torus,
    };
    log.close(span);
    Ok(prepared)
}

fn build(pipeline: Pipeline<'_>) -> Result<Session<'_>, String> {
    pipeline
        .build()
        .map_err(|e| format!("Pipeline::build: {e}"))
}

fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_loss_ppm(FAULT_LOSS_PPM)
        .with_latency(FAULT_LATENCY)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The facts one pass produced; every pass must reproduce the first.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PassFacts {
    grid: (u64, u64),
    random: (u64, u64),
    fault: (u64, u64),
    torus_attempts: usize,
    torus_digest: u64,
}

fn stats_pair(stats: Option<SimStats>) -> (u64, u64) {
    stats.map_or((0, 0), |s| (s.rounds, s.messages))
}

fn shortcut_digest(shortcut: &TreeShortcut) -> u64 {
    let mut d = ValueDigest::new();
    for p in 0..shortcut.part_count() {
        let edges = shortcut.edges_of(lcs_api::graph::PartId::new(p));
        d.push(edges.len() as u64);
        for e in edges {
            d.push(e.index() as u64);
        }
    }
    d.value()
}

/// Per-call wall times of the measured passes, in milliseconds.
#[derive(Default)]
struct Timings {
    pass: Vec<f64>,
    traced_pass: Vec<f64>,
    grid: Vec<f64>,
    random: Vec<f64>,
    torus: Vec<f64>,
    fault: Vec<f64>,
}

/// Runs one verify, checks it, and returns its facts.
fn verify_call(
    case: &VerifyCase<'_>,
    name: &str,
    log: &mut SpanLog,
    parent: SpanId,
    pass: u64,
    out: &mut Outcome,
    times: &mut Vec<f64>,
) -> ((u64, u64), Option<u64>) {
    let span = log.open(name, parent, pass);
    let t = Instant::now();
    let result = case
        .session
        .verify(&case.shortcut, case.partition, case.threshold);
    times.push(ms(t.elapsed()));
    log.close(span);
    match result {
        Ok(run) => {
            let good = run.good.iter().all(|&g| g);
            out.check(good, || format!("{name}: a part verified bad"));
            (
                stats_pair(run.report.sim),
                run.report.metric("retry_epochs"),
            )
        }
        Err(e) => {
            out.check(false, || format!("{name}: {e}"));
            ((0, 0), None)
        }
    }
}

/// One pass of the four calls.
fn pass(
    prep: &Prepared<'_>,
    inputs: &Inputs,
    log: &mut SpanLog,
    index: u64,
    out: &mut Outcome,
    timings: &mut Timings,
    retry_epochs: &mut u64,
) -> PassFacts {
    let root = log.open("bench.pass", SpanId::NONE, index);
    let (grid, _) = verify_call(
        &prep.grid,
        "dist.verify.grid",
        log,
        root,
        index,
        out,
        &mut timings.grid,
    );
    let (random, _) = verify_call(
        &prep.random,
        "dist.verify.random",
        log,
        root,
        index,
        out,
        &mut timings.random,
    );
    let span = log.open("core.construct.torus", root, index);
    let t = Instant::now();
    let torus = prep
        .torus
        .shortcut(&inputs.torus_parts, Strategy::doubling());
    timings.torus.push(ms(t.elapsed()));
    log.close(span);
    let (torus_attempts, torus_digest) = match torus {
        Ok(run) => {
            out.check(run.report.all_parts_good, || {
                "torus doubling left parts bad".into()
            });
            (run.report.attempts.len(), shortcut_digest(&run.shortcut))
        }
        Err(e) => {
            out.check(false, || format!("torus construction: {e}"));
            (0, 0)
        }
    };
    let (fault, epochs) = verify_call(
        &prep.fault,
        "dist.verify.fault",
        log,
        root,
        index,
        out,
        &mut timings.fault,
    );
    *retry_epochs = epochs.unwrap_or(0);
    log.close(root);
    PassFacts {
        grid,
        random,
        fault,
        torus_attempts,
        torus_digest,
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut log = SpanLog::new(args.trace, epoch);

    // The first set-up's inputs are measured. The sessions borrow the
    // inputs, so they are built again here, outside the timed set-up.
    let mut setup_s = Vec::new();
    let mut setup_parts = Vec::new();
    let inputs = match setup_once(args.seed, &mut log, 0, &mut setup_s, &mut setup_parts) {
        Ok(inputs) => inputs,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };
    let mut untimed = SetupTimes::default();
    let mut no_log = SpanLog::new(false, epoch);
    let prep = match prepare(&inputs, args.seed, &mut untimed, &mut no_log, SpanId::NONE) {
        Ok(p) => p,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };

    // Measured passes. A traced run records spans on even passes only, so
    // the odd ones measure the same work untraced.
    let mut timings = Timings::default();
    let mut first: Option<PassFacts> = None;
    let mut retry_epochs = 0;
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut index = 0u64;
    let mut setup_wall = Duration::ZERO;
    while (index as usize) < MIN_PASSES || start.elapsed() < budget + setup_wall {
        let traced = args.trace && index.is_multiple_of(2);
        let mut pass_log = if traced {
            log.fork()
        } else {
            SpanLog::new(false, epoch)
        };
        let t = Instant::now();
        let facts = pass(
            &prep,
            &inputs,
            &mut pass_log,
            index,
            &mut out,
            &mut timings,
            &mut retry_epochs,
        );
        let wall = ms(t.elapsed());
        if traced {
            timings.traced_pass.push(wall);
        } else {
            timings.pass.push(wall);
        }
        log.absorb(pass_log);
        match &first {
            None => first = Some(facts),
            Some(f) => out.check(*f == facts, || {
                format!("pass {index} facts {facts:?} differ from pass 0 {f:?}")
            }),
        }
        index += 1;
        // One more set-up after every pass, outside the pass time.
        let t = Instant::now();
        if let Err(e) = setup_once(args.seed, &mut log, index, &mut setup_s, &mut setup_parts) {
            out.check(false, || e);
        }
        setup_wall += t.elapsed();
    }
    let loop_s = (start.elapsed() - setup_wall).as_secs_f64();
    while (setup_s.len() as u64) < SETUP_REPS {
        let rep = setup_s.len() as u64;
        if let Err(e) = setup_once(args.seed, &mut log, rep, &mut setup_s, &mut setup_parts) {
            out.check(false, || e);
            break;
        }
    }
    let facts = first.expect("at least one pass ran");

    check_pins(&facts, args.seed, &mut out);
    let fault_free = check_oracles(&prep, &inputs, args.seed, &facts, &mut out);

    let all_passes: Vec<f64> = timings
        .pass
        .iter()
        .chain(&timings.traced_pass)
        .copied()
        .collect();
    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mib", vm_hwm_mib(None));
    out.set("p50_us", median(&all_passes) * 1e3);
    out.set("qps", index as f64 / loop_s);
    out.note(format!(
        "sim-scale seed {}: {index} passes in {loop_s:.2} s",
        args.seed
    ));
    out.note(describe("setup_s", "s", &setup_s));
    out.note(describe("pass_ms", "ms", &all_passes));
    out.note(describe("grid_verify_ms", "ms", &timings.grid));
    out.note(describe("random_verify_ms", "ms", &timings.random));
    out.note(describe("torus_construct_ms", "ms", &timings.torus));
    out.note(describe("fault_verify_ms", "ms", &timings.fault));
    out.note(format!(
        "facts: grid {:?} random {:?} fault {:?} (rounds, messages); torus attempts {} digest {}",
        facts.grid, facts.random, facts.fault, facts.torus_attempts, facts.torus_digest
    ));

    if args.trace {
        per_layer(
            &prep,
            &inputs,
            &facts,
            &timings,
            &setup_parts,
            retry_epochs,
            fault_free,
            &mut log,
            &mut out,
        );
        crate::finish_trace(&log, "sim-scale", args, &mut out);
        let traced = median(&timings.traced_pass);
        let untraced = median(&timings.pass);
        out.set("trace.overhead_frac", traced / untraced - 1.0);
    }
    out
}

/// One timed set-up: generates the inputs of `seed` and prepares their
/// sessions and shortcuts, recording the time in `setup_s` and its
/// sub-phases in `parts`. Returns the inputs; the prepared sessions,
/// which borrow them, are dropped.
fn setup_once(
    seed: u64,
    log: &mut SpanLog,
    rep: u64,
    setup_s: &mut Vec<f64>,
    parts: &mut Vec<SetupTimes>,
) -> Result<Inputs, String> {
    let t = Instant::now();
    let mut times = SetupTimes::default();
    let root = log.open("bench.setup", SpanId::NONE, rep);
    let span = log.open("graph.generate", root, rep);
    let inputs = generate(seed);
    times.generate = ms(t.elapsed());
    log.close(span);
    drop(prepare(&inputs, seed, &mut times, log, root)?);
    setup_s.push(t.elapsed().as_secs_f64());
    log.close(root);
    parts.push(times);
    Ok(inputs)
}

/// Compares the pass facts with the pinned ones, when the seed is pinned.
fn check_pins(facts: &PassFacts, seed: u64, out: &mut Outcome) {
    match pins::sim_scale(seed) {
        Some(SimPins {
            grid,
            random,
            fault,
            torus_attempts,
        }) => {
            let want = (grid, random, fault, torus_attempts);
            let got = (facts.grid, facts.random, facts.fault, facts.torus_attempts);
            out.check(want == got, || {
                format!("seed {seed}: facts {got:?} differ from pins {want:?}")
            });
        }
        None => out.note(format!(
            "seed {seed} is not pinned; checked repeat and oracle facts only"
        )),
    }
}

/// Checks the simulated verdicts against the centralized schedule, and
/// the fault run against a fault-free run; returns the fault-free
/// (rounds, messages).
fn check_oracles(
    prep: &Prepared<'_>,
    inputs: &Inputs,
    seed: u64,
    facts: &PassFacts,
    out: &mut Outcome,
) -> (u64, u64) {
    for (name, case) in [("grid", &prep.grid), ("random", &prep.random)] {
        let simulated = case
            .session
            .verify(&case.shortcut, case.partition, case.threshold);
        let scheduled = Pipeline::on(case.session.graph())
            .seed(seed)
            .threads(Threads::Fixed(1))
            .build()
            .and_then(|s| s.verify(&case.shortcut, case.partition, case.threshold));
        let agree = match (simulated, scheduled) {
            (Ok(a), Ok(b)) => a.good == b.good && a.block_counts == b.block_counts,
            _ => false,
        };
        out.check(agree, || {
            format!("{name}: Simulated verdict differs from Scheduled")
        });
    }
    let plain = pipeline(&inputs.fault, seed, 1).build().and_then(|s| {
        s.verify(
            &prep.fault.shortcut,
            &inputs.fault_parts,
            prep.fault.threshold,
        )
    });
    let faulty = prep.fault.session.verify(
        &prep.fault.shortcut,
        &inputs.fault_parts,
        prep.fault.threshold,
    );
    match (plain, faulty) {
        (Ok(a), Ok(b)) => {
            out.check(a.good == b.good && a.block_counts == b.block_counts, || {
                "fault run did not heal to the fault-free verdict".into()
            });
            out.check(stats_pair(b.report.sim) == facts.fault, || {
                "fault run facts changed".into()
            });
            stats_pair(a.report.sim)
        }
        (a, b) => {
            out.check(false, || {
                format!("fault oracle failed: {:?} / {:?}", a.err(), b.err())
            });
            (0, 0)
        }
    }
}

/// The traced run's layer costs.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    prep: &Prepared<'_>,
    inputs: &Inputs,
    facts: &PassFacts,
    timings: &Timings,
    setups: &[SetupTimes],
    retry_epochs: u64,
    fault_free: (u64, u64),
    log: &mut SpanLog,
    out: &mut Outcome,
) {
    out.set(
        "graph.generate_ms",
        median(&setups.iter().map(|s| s.generate).collect::<Vec<_>>()),
    );
    out.set(
        "api.build_ms",
        median(&setups.iter().map(|s| s.build).collect::<Vec<_>>()),
    );
    out.set("core.construct_ms", median(&timings.torus));
    out.set("core.construct_attempts", facts.torus_attempts as f64);
    out.set("congest.messages", (facts.grid.1 + facts.random.1) as f64);
    out.set("congest.rounds", (facts.grid.0 + facts.random.0) as f64);
    out.set(
        "dist.verify_ns_per_msg.grid",
        median(&timings.grid) * 1e6 / facts.grid.1.max(1) as f64,
    );
    out.set(
        "dist.verify_ns_per_msg.random",
        median(&timings.random) * 1e6 / facts.random.1.max(1) as f64,
    );
    out.set(
        "dist.fault_msg_ratio",
        facts.fault.1 as f64 / fault_free.1.max(1) as f64,
    );
    out.set("dist.retry_epochs", retry_epochs as f64);

    // The round engine alone: distributed BFS on every sim-scale graph.
    let mut wall = 0.0;
    let mut messages = 0u64;
    for (name, graph) in [
        ("grid", &inputs.grid),
        ("random", &inputs.random),
        ("torus", &inputs.torus),
    ] {
        let sim = Simulator::new(graph, SimConfig::for_graph(graph).with_threads(1));
        let span_name = format!("congest.bfs.{name}");
        let span = log.open(&span_name, SpanId::NONE, 0);
        let t = Instant::now();
        let result = DistributedBfs::run(&sim, NodeId::new(0));
        wall += t.elapsed().as_secs_f64() * 1e9;
        log.close(span);
        match result {
            Ok(bfs) => {
                let oracle = bfs_distances(graph, NodeId::new(0));
                let same = bfs
                    .depths
                    .iter()
                    .zip(&oracle.dist)
                    .all(|(&d, o)| Some(d) == *o);
                out.check(same, || {
                    format!("BFS depths on {name} differ from the centralized BFS")
                });
                messages += bfs.stats.messages;
            }
            Err(e) => out.check(false, || format!("BFS on {name}: {e}")),
        }
    }
    out.set("congest.engine_ns_per_msg", wall / messages.max(1) as f64);

    // The sharded engine at width 2 on the same verifies: the parity
    // witness for the width-1 engine.
    let mut wall = 0.0;
    let mut messages = 0u64;
    for (name, case, want) in [
        ("grid", &prep.grid, facts.grid),
        ("random", &prep.random, facts.random),
    ] {
        let session = pipeline(case.session.graph(), case.session.seed(), 2).build();
        let span = log.open(&format!("dist.verify_s2.{name}"), SpanId::NONE, 0);
        let t = Instant::now();
        let result = session.and_then(|s| s.verify(&case.shortcut, case.partition, case.threshold));
        wall += t.elapsed().as_secs_f64() * 1e9;
        log.close(span);
        match result {
            Ok(run) => {
                let got = stats_pair(run.report.sim);
                out.check(got == want, || {
                    format!("{name}: width-2 facts {got:?} differ from width-1 {want:?}")
                });
                messages += got.1;
            }
            Err(e) => out.check(false, || format!("{name} at width 2: {e}")),
        }
    }
    let s2 = wall / messages.max(1) as f64;
    out.set("congest.s2_ns_per_msg", s2);
    let s1 = (median(&timings.grid) + median(&timings.random)) * 1e6
        / (facts.grid.1 + facts.random.1).max(1) as f64;
    out.note(format!(
        "grid+random verify: {s1:.1} ns/msg at width 1, {s2:.1} ns/msg at width 2 (same SimStats)"
    ));
}
