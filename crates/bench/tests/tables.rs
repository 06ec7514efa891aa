//! Frozen goldens for the experiment tables whose every cell is
//! deterministic: one [`ValueDigest`] per table over its title, headers
//! and cells. E4 (deterministic but slow in the test profile) and the
//! tables with wall-clock columns are not pinned here.
//!
//! The goldens are thread-invariant: they hold at every `LCS_THREADS`.

use lcs_api::ValueDigest;
use lcs_bench::{Table, EXPERIMENTS};

/// Folds a string into the digest: its length, then its bytes in
/// zero-padded little-endian words.
fn push_str(digest: &mut ValueDigest, s: &str) {
    digest.push(s.len() as u64);
    for chunk in s.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        digest.push(u64::from_le_bytes(word));
    }
}

fn table_digest(table: &Table) -> u64 {
    let mut digest = ValueDigest::new();
    push_str(&mut digest, &table.title);
    digest.push(table.headers.len() as u64);
    for header in &table.headers {
        push_str(&mut digest, header);
    }
    digest.push(table.rows.len() as u64);
    for cell in table.rows.iter().flatten() {
        push_str(&mut digest, cell);
    }
    digest.value()
}

fn build(id: &str) -> Table {
    let experiment = EXPERIMENTS
        .iter()
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("no experiment {id}"));
    let table = (experiment.build)();
    let prefix = format!("{}:", id.to_uppercase());
    assert!(
        table.title.starts_with(&prefix),
        "experiment {id} builds a table titled {:?}",
        table.title
    );
    table
}

fn assert_golden(id: &str, expected: u64) {
    let table = build(id);
    assert_eq!(
        table_digest(&table),
        expected,
        "{id} table changed:\n{}",
        lcs_bench::render_table(&table)
    );
}

#[test]
fn e1_quality_golden() {
    assert_golden("e1", 0x0d1a_7acc_4f42_6780);
}

#[test]
fn e2_findshortcut_golden() {
    assert_golden("e2", 0xcf58_62e0_e7f6_da00);
}

#[test]
fn e3_routing_golden() {
    assert_golden("e3", 0x994a_8bd5_7527_141a);
}

#[test]
fn e5_core_golden() {
    assert_golden("e5", 0x1478_ce20_3c3f_04cd);
}

#[test]
fn e6_doubling_golden() {
    assert_golden("e6", 0x5ba2_1f4a_53dd_4550);
}

#[test]
fn e7_guarantees_golden() {
    assert_golden("e7", 0xf7e7_2d3c_0130_f464);
}

#[test]
fn e8_dist_golden() {
    assert_golden("e8", 0xf737_df52_d97c_6977);
}

#[test]
fn e15_faults_golden() {
    assert_golden("e15", 0x7dde_bc04_1370_06ce);
}

#[test]
fn registry_ids_are_unique_and_only_e10_is_opt_in() {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    let mut unique = ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), ids.len(), "duplicate ids in {ids:?}");
    let opt_in: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|e| e.opt_in)
        .map(|e| e.id)
        .collect();
    assert_eq!(opt_in, ["e10"]);
}
