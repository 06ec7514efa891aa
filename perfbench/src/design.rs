//! The frozen design constants of `design.json`: the TCP probe's open-loop
//! rates and p99 limit. They are constants of the benchmark, never derived
//! at run time, so every commit is measured at the same offered load.

use lcs_obs::json::JsonValue;

const DESIGN_JSON: &str = include_str!("../design.json");

/// The TCP probe's load settings.
#[derive(Debug, Clone, Copy)]
pub struct TcpLoad {
    /// Offered rate of the `light` open-loop phase, requests per second.
    pub light_qps: u64,
    /// Offered rate of the `heavy` open-loop phase, requests per second.
    pub heavy_qps: u64,
    /// The p99 latency limit the `heavy` phase is reported against, µs.
    pub p99_limit_us: u64,
    /// How far, in percent, the layer sum may stray from the measured
    /// closed-loop p50 before the sum check reports it outside.
    pub sum_tolerance_pct: u64,
}

/// Reads the TCP probe's load settings.
pub fn tcp_load() -> TcpLoad {
    let root = JsonValue::parse(DESIGN_JSON).expect("design.json is valid JSON");
    let tcp = root
        .get("tcp-probe")
        .expect("design.json has a tcp-probe section");
    let field = |key: &str| {
        tcp.get(key)
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("design.json tcp-probe.{key} is an unsigned integer"))
    };
    TcpLoad {
        light_qps: field("light_qps"),
        heavy_qps: field("heavy_qps"),
        p99_limit_us: field("p99_limit_us"),
        sum_tolerance_pct: field("sum_tolerance_pct"),
    }
}
