//! One shard inline vs four shards on worker threads: same protocol, same
//! results, different wall-clock.
//!
//! Runs the Lemma 3 distributed verification protocol (the workspace's
//! longest superstep pipeline) on a 64×64 grid twice — once through a
//! session with one shard, which the round engine runs inline on the
//! calling thread, once through a session with four shards on four worker
//! threads — and asserts that the executed statistics and every per-part
//! verdict are byte-identical. The shard count is a
//! throughput knob, never a semantic one; `Pipeline::threads` (a value —
//! `Threads::Auto` defers to `LCS_THREADS`) selects it per session.
//!
//! Run with: `cargo run --release --example engine_parallel`

use std::time::Instant;

use low_congestion_shortcuts::api::{ExecutionMode, Pipeline, Strategy, Threads};
use low_congestion_shortcuts::graph::generators;

fn main() {
    let (side, (c, b)) = (64usize, (63usize, 1usize));
    let graph = generators::grid(side, side);
    let partition = generators::partitions::grid_columns(side, side);

    let mut inline = Pipeline::on(&graph)
        .threads(Threads::Fixed(1))
        .execution(ExecutionMode::Simulated)
        .seed(42)
        .build()
        .expect("the grid is connected");
    let threaded = Pipeline::on(&graph)
        .threads(Threads::Fixed(4))
        .execution(ExecutionMode::Simulated)
        .seed(42)
        .build()
        .expect("the grid is connected");

    // The shard count is visible on the session before running.
    println!(
        "grid {side}x{side}: inline = {} shard(s), threaded = {} shard(s)",
        inline.shard_map().shard_count(),
        threaded.shard_map().shard_count()
    );

    // Construct once (scheduled construction, identical on both sessions).
    inline.set_execution(ExecutionMode::Scheduled);
    let shortcut = inline
        .shortcut(
            &partition,
            Strategy::Fixed {
                congestion: c,
                block: b,
            },
        )
        .expect("grid columns admit shortcuts")
        .shortcut;
    inline.set_execution(ExecutionMode::Simulated);

    let start = Instant::now();
    let inline_run = inline
        .verify(&shortcut, &partition, 3 * b)
        .expect("verification respects the CONGEST constraints");
    let inline_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let threaded_run = threaded
        .verify(&shortcut, &partition, 3 * b)
        .expect("verification respects the CONGEST constraints");
    let threaded_ms = start.elapsed().as_secs_f64() * 1e3;

    // Determinism is the engine's contract: identical statistics and
    // identical results for every shard count, not merely "close".
    let stats = inline_run.report.sim.expect("simulated runs record stats");
    assert_eq!(inline_run.report.sim, threaded_run.report.sim);
    assert_eq!(inline_run.good, threaded_run.good);
    assert_eq!(inline_run.block_counts, threaded_run.block_counts);

    println!(
        "verification: {} rounds, {} messages, {} bits (identical at both widths)",
        stats.rounds, stats.messages, stats.total_bits
    );
    println!("1 shard, inline:   {inline_ms:.1} ms");
    println!("4 shards threaded: {threaded_ms:.1} ms (4 worker threads)");
    println!(
        "good parts: {}/{}",
        inline_run.good.iter().filter(|&&g| g).count(),
        partition.part_count()
    );
}
