//! Experiment harness for the low-congestion shortcuts reproduction.
//!
//! The paper is a theory paper with no numeric tables, so each experiment
//! here regenerates the quantitative content of one theorem or lemma as a
//! table over a parameter sweep (see `DESIGN.md` §5 and `EXPERIMENTS.md`).
//! [`EXPERIMENTS`] lists every table builder; the `experiments` binary
//! prints them. The Criterion benches time the dominant computation of
//! each table on instances of their own.
//!
//! Every row reports *measured* quantities: round counts come from the
//! exact schedules executed by `lcs-core`/`lcs-mst`, and quality figures are
//! measured on the constructed shortcuts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;

pub use experiments::{render_table, tables_to_json, Experiment, Table, TimedTable, EXPERIMENTS};
