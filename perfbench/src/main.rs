//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <sim-scale|churn-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`; the program under test only
//! receives the generated inputs, through its public entry points
//! (`Pipeline`/`Session`, the `lcs_server` line-JSON protocol,
//! `DistributedBfs`). `--trace 0` prints the end-to-end metrics of
//! `BENCHMARK.json`, `--trace 1` the per-layer ones, each run preceded by
//! a human-readable report. The last stdout line is the JSON result; the
//! exit code is nonzero when any output failed its check.
//!
//! `perfbench --serve-child ...` is the server process the TCP probe of a
//! traced `churn-mix` run spawns: this same executable serving over
//! `lcs_server`.

mod churn;
mod design;
mod pins;
mod reference;
mod report;
mod sim;
mod stats;
mod tcp;
mod trace;

use std::process::ExitCode;

use report::Outcome;
use trace::SpanLog;

/// How many times each workload sets up at the least; `setup_s` is the
/// median. The set-ups are spread over the run, between its measured
/// passes or segments, so that the median samples the host over the
/// whole run rather than over one burst at its start.
pub const SETUP_REPS: u64 = 9;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn value<T: std::str::FromStr>(flag: &str, raw: Option<String>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse `{raw}`"))
}

fn parse_args(argv: Vec<String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = Some(value::<String>(&flag, it.next())?),
            "--seed" => seed = Some(value::<u64>(&flag, it.next())?),
            "--seconds" => seconds = Some(value::<u64>(&flag, it.next())?),
            "--trace" => {
                trace = Some(match value::<u8>(&flag, it.next())? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !report::declared_workloads().contains(&workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set (`VmHWM`) of this process, or of `pid`, in MiB.
pub fn vm_hwm_mib(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Layers whose self time the traced run reports as a share of the
/// traced wall time.
const LAYERS: [&str; 9] = [
    "bench", "graph", "api", "core", "congest", "dist", "mst", "workload", "server",
];

/// Ends a traced run: per-layer self-time shares, and the spans written
/// to `perfbench/out/`.
pub fn finish_trace(log: &SpanLog, workload: &str, args: &Args, out: &mut Outcome) {
    let total = log.root_nanos().max(1) as f64;
    let by_layer = log.self_nanos_by_layer();
    for layer in LAYERS {
        let own = by_layer.get(layer).copied().unwrap_or(0) as f64;
        out.set(&format!("self_frac.{layer}"), own / total);
    }
    let shares: Vec<String> = by_layer
        .iter()
        .map(|(layer, ns)| format!("{layer} {:.1}%", *ns as f64 / total * 100.0))
        .collect();
    out.note(format!("self time by layer: {}", shares.join(", ")));
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/trace-{workload}-s{}.jsonl",
        args.seed
    ));
    match log.write_jsonl(&path) {
        Ok(()) => out.note(format!(
            "{} spans written to {}",
            log.spans().len(),
            path.display()
        )),
        Err(e) => out.note(format!("spans not written ({}): {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--serve-child") {
        return tcp::serve_child(argv[1..].to_vec());
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "sim-scale" => sim::run(&args),
        "churn-mix" => churn::run(&args),
        other => unreachable!("workload `{other}` passed validation"),
    };
    let attempted = outcome.attempted.max(1);
    outcome.note(format!(
        "failed_frac: {} ratio ({} of {attempted})",
        outcome.failed as f64 / attempted as f64,
        outcome.failed
    ));
    if report::print(&mut outcome, args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
