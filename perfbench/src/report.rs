//! What a workload hands back, and the result line the benchmark prints.
//!
//! The metric names and units come from `BENCHMARK.json` itself, so the
//! printed set can never drift from the declared one: an untraced run
//! prints every `end_to_end` metric, a traced run every `per_layer`
//! metric. A per-layer metric of a layer that does no work in the
//! workload reads 0; a missing end-to-end metric is an error.

use std::collections::BTreeMap;

use lcs_obs::json::JsonValue;

/// The benchmark declaration, compiled in.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One workload run's results.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, queries or simulation calls).
    pub attempted: u64,
    /// Operations that failed, returned a typed error, or whose output
    /// did not match its check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable report lines, printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Adds a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked operation, failing it with `why` when `ok` is
    /// false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", why()));
        }
    }
}

/// A declared metric: name and unit.
pub struct Declared {
    pub name: String,
    pub unit: String,
}

/// The metrics `BENCHMARK.json` declares under `key` (`end_to_end` or
/// `per_layer`).
pub fn declared(key: &str) -> Vec<Declared> {
    let root = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    root.get(key)
        .and_then(JsonValue::as_array)
        .expect("BENCHMARK.json lists its metrics")
        .iter()
        .map(|m| Declared {
            name: m
                .get("name")
                .and_then(JsonValue::as_str)
                .expect("named")
                .to_string(),
            unit: m
                .get("unit")
                .and_then(JsonValue::as_str)
                .expect("unit")
                .to_string(),
        })
        .collect()
}

/// The workload names `BENCHMARK.json` declares.
pub fn declared_workloads() -> Vec<String> {
    let root = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    root.get("workloads")
        .and_then(JsonValue::as_array)
        .expect("BENCHMARK.json lists its workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

/// Prints the report lines and, last, the result line. Returns whether
/// the run was correct.
pub fn print(outcome: &mut Outcome, traced: bool) -> bool {
    let key = if traced { "per_layer" } else { "end_to_end" };
    let mut cells = Vec::new();
    for m in declared(key) {
        let value = match outcome.metrics.get(&m.name) {
            Some(v) if v.is_finite() => *v,
            _ if traced => 0.0,
            _ => {
                outcome.failed += 1;
                outcome
                    .notes
                    .push(format!("FAILED: end-to-end metric {} missing", m.name));
                0.0
            }
        };
        cells.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            number(value),
            m.unit
        ));
    }
    for line in &outcome.notes {
        println!("{line}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        cells.join(",")
    );
    correct
}

/// A JSON number with all measured digits (`{}` of an f64 is the shortest
/// exact round-trip form).
fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}
