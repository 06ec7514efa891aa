//! Facts pinned per seed in `pins.json`: the `SimStats` rounds and
//! messages of the `sim-scale` verifies and the torus doubling attempt
//! count. A pinned seed must reproduce them exactly; an unpinned seed is
//! checked against its own repeats and the oracles only.

use lcs_obs::json::JsonValue;

const PINS_JSON: &str = include_str!("../pins.json");

/// The pinned facts of one `sim-scale` seed: (rounds, messages) per
/// verify and the torus attempt count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimPins {
    pub grid: (u64, u64),
    pub random: (u64, u64),
    pub fault: (u64, u64),
    pub torus_attempts: usize,
}

fn pair(entry: &JsonValue, key: &str) -> Option<(u64, u64)> {
    let items = entry.get(key)?.as_array()?;
    Some((items.first()?.as_u64()?, items.get(1)?.as_u64()?))
}

/// The pins of `seed`, if it is pinned.
pub fn sim_scale(seed: u64) -> Option<SimPins> {
    let root = JsonValue::parse(PINS_JSON).expect("pins.json is valid JSON");
    let entries = root.get("sim-scale")?.as_array()?;
    let entry = entries
        .iter()
        .find(|e| e.get("seed").and_then(JsonValue::as_u64) == Some(seed))?;
    Some(SimPins {
        grid: pair(entry, "grid")?,
        random: pair(entry, "random")?,
        fault: pair(entry, "fault")?,
        torus_attempts: entry.get("torus_attempts")?.as_u64()? as usize,
    })
}
