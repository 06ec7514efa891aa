//! Prints every experiment table of the reproduction (see EXPERIMENTS.md).
//!
//! Usage:
//!   experiments                      # run the default set (every table but e10)
//!   experiments --list               # list every table with a one-line description
//!   experiments e1 e4                # run a subset
//!   experiments e10                  # the 10^6-node tier (opt-in: heavy)
//!   experiments --threads 4 e10      # ... on four engine shards
//!   experiments e8 --json out.json   # also write the tables as JSON; E13–E17
//!                                    # embed per-row payloads under "extra"
//!
//! `--threads N` sets the `LCS_THREADS` environment variable before any
//! table runs, which selects the simulator's round engine (and the
//! parallel quality sweeps) for the whole process; the count is recorded in
//! the JSON output. Every table's values are identical for every thread
//! count — only the wall-clock columns move. The flag is parsed by
//! [`lcs_api::Threads::parse`], so zero and non-numeric counts are rejected
//! with a clear error instead of silently defaulting.

use lcs_bench::{render_table, tables_to_json, EXPERIMENTS};

fn main() {
    let mut json_path: Option<String> = None;
    let mut requested: Vec<String> = Vec::new();
    let mut list = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--list" {
            list = true;
        } else if arg == "--json" {
            match args.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json requires a path argument");
                    std::process::exit(2);
                }
            }
        } else if arg == "--threads" {
            let value = args.next().unwrap_or_default();
            match lcs_api::Threads::parse(&value) {
                Ok(threads) => {
                    std::env::set_var("LCS_THREADS", threads.resolve().to_string());
                }
                Err(err) => {
                    eprintln!("--threads: {err}");
                    std::process::exit(2);
                }
            }
        } else {
            requested.push(arg.to_lowercase());
        }
    }

    if list {
        for e in EXPERIMENTS {
            let status = if e.opt_in { "opt-in" } else { "default" };
            println!("{:<5} {:<8} {}", e.id, status, e.summary);
        }
        return;
    }
    // Fail loudly on anything that is not a known experiment id — a typoed
    // flag must not silently produce an empty run (CI consumes the JSON).
    for r in &requested {
        if !EXPERIMENTS.iter().any(|e| e.id == r) {
            eprintln!(
                "unknown argument `{r}`; expected experiment ids {}, --list, --threads <n> or --json <path>",
                EXPERIMENTS.iter().map(|e| e.id).collect::<Vec<_>>().join(", ")
            );
            std::process::exit(2);
        }
    }
    let mut built = Vec::new();
    for experiment in EXPERIMENTS {
        // Opt-in tiers (e10's 10^6-node instances) only run when asked for
        // by name, so the default invocation stays within the CI budget.
        let selected = if requested.is_empty() {
            !experiment.opt_in
        } else {
            requested.iter().any(|r| r == experiment.id)
        };
        if selected {
            eprintln!("running {}...", experiment.id);
            let timed = experiment.run();
            println!("{}", render_table(&timed.table));
            eprintln!("{} built in {:.1} ms", experiment.id, timed.millis);
            built.push(timed);
        }
    }

    if let Some(path) = json_path {
        let json = tables_to_json(&built, lcs_api::graph::configured_threads());
        if let Err(err) = std::fs::write(&path, json) {
            eprintln!("failed to write {path}: {err}");
            std::process::exit(1);
        }
        eprintln!("wrote {} table(s) to {path}", built.len());
    }
}
