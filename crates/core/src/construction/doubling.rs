//! Appendix A: shortcut construction when `(c, b)` are unknown.
//!
//! The fixed-parameter `FindShortcut` needs upper bounds on the canonical
//! congestion `c` and block parameter `b`. Because the construction
//! inherently detects its own termination (a whole-tree convergecast tells
//! every node whether bad parts remain), the parameters can simply be
//! guessed and doubled on failure: start small, run `FindShortcut` with an
//! `O(log N)` iteration budget, and double both guesses whenever some part
//! remains bad. The extra cost is a `log(bc)` factor, and — as the paper
//! notes — the search frequently finds shortcuts *better* than the
//! theoretical bound because it succeeds as soon as any good-enough
//! parameters work.

use lcs_graph::{Graph, Partition, RootedTree};

use super::find_shortcut::{FindShortcut, FindShortcutConfig, FindShortcutResult, Verifier};
use crate::Result;

/// Configuration of the doubling search — shared by every caller: the
/// session's construction queries, the part-scoped repair path and the
/// per-phase construction of Boruvka MST.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoublingConfig {
    /// Initial guess for the congestion parameter (clamped to ≥ 1,
    /// doubled on failure).
    pub initial_congestion: usize,
    /// Initial guess for the block parameter (clamped to ≥ 1, doubled on
    /// failure).
    pub initial_block: usize,
    /// Use the randomized core subroutine (default) or the deterministic
    /// one.
    pub use_fast_core: bool,
    /// Number of doublings after the initial attempt; `0` makes the search
    /// a single fixed-parameter attempt.
    pub max_doublings: usize,
    /// Base seed: attempt `i` runs `FindShortcut` with seed
    /// `seed + i · 7919`.
    pub seed: u64,
}

impl Default for DoublingConfig {
    /// Start at `(1, 1)` with the fast core, 24 doublings, seed 0.
    fn default() -> Self {
        DoublingConfig {
            initial_congestion: 1,
            initial_block: 1,
            use_fast_core: true,
            max_doublings: 24,
            seed: 0,
        }
    }
}

/// One attempt of the doubling search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoublingAttempt {
    /// Congestion guess used by the attempt.
    pub congestion_guess: usize,
    /// Block-parameter guess used by the attempt.
    pub block_guess: usize,
    /// Whether every active part was verified good.
    pub succeeded: bool,
    /// Rounds spent by the attempt.
    pub rounds: u64,
}

/// Runs the Appendix A doubling search over
/// [`FindShortcut::run_on_parts`]: attempt `i` guesses
/// `(c·2^i, b·2^i)` from the clamped initial guesses, runs the driver on
/// the `active` parts with seed `config.seed + i · 7919` and the given
/// iteration budget (`None` selects the driver default), and stops at the
/// first attempt in which every active part verified good — or after
/// `config.max_doublings` doublings.
///
/// Returns the last attempt's driver result (the successful one when
/// `result.all_parts_good`) and every attempt in order; the rounds of all
/// attempts are genuinely spent, so a caller charges their sum. Running
/// out of doublings is not an error here: each caller decides whether an
/// exhausted search fails its query.
///
/// # Errors
///
/// Propagates verifier and input-consistency errors of
/// [`FindShortcut::run_on_parts`].
pub fn run_doubling<V: Verifier>(
    graph: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    active: &[bool],
    config: DoublingConfig,
    max_iterations: Option<usize>,
    mut verifier: V,
) -> Result<(FindShortcutResult, Vec<DoublingAttempt>)> {
    let mut congestion = config.initial_congestion.max(1);
    let mut block = config.initial_block.max(1);
    let mut attempts = Vec::new();
    loop {
        let fs = FindShortcutConfig {
            use_fast_core: config.use_fast_core,
            max_iterations,
            seed: config.seed.wrapping_add(attempts.len() as u64 * 7919),
            ..FindShortcutConfig::new(congestion, block)
        };
        let result =
            FindShortcut::new(fs).run_on_parts(graph, tree, partition, active, &mut verifier)?;
        attempts.push(DoublingAttempt {
            congestion_guess: congestion,
            block_guess: block,
            succeeded: result.all_parts_good,
            rounds: result.total_rounds(),
        });
        if result.all_parts_good || attempts.len() > config.max_doublings {
            return Ok((result, attempts));
        }
        congestion = congestion.saturating_mul(2);
        block = block.saturating_mul(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::scheduled_verifier;
    use lcs_graph::{generators, NodeId};

    /// A whole-partition search with the scheduled verifier and the driver's
    /// default iteration budget.
    fn search(
        g: &Graph,
        t: &RootedTree,
        p: &Partition,
        config: DoublingConfig,
    ) -> (FindShortcutResult, Vec<DoublingAttempt>) {
        let all = vec![true; p.part_count()];
        run_doubling(g, t, p, &all, config, None, scheduled_verifier).unwrap()
    }

    #[test]
    fn doubling_succeeds_without_knowing_parameters() {
        let g = generators::grid(8, 8);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(8, 8);
        let (result, attempts) = search(&g, &t, &p, DoublingConfig::default());
        let last = *attempts.last().unwrap();
        assert!(last.succeeded && result.all_parts_good);
        let q = result.shortcut.quality(&g, &p);
        assert!(q.block_parameter <= 3 * last.block_guess);
        // The successful guesses are the initial values doubled some number
        // of times.
        assert!(last.congestion_guess.is_power_of_two());
        assert!(last.block_guess.is_power_of_two());
        assert!(result.total_rounds() > 0);
    }

    #[test]
    fn doubling_on_wheel_finds_tiny_parameters_immediately() {
        let g = generators::wheel(41);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::wheel_arcs(41, 5);
        let (_, attempts) = search(&g, &t, &p, DoublingConfig::default());
        assert_eq!(attempts.len(), 1);
        assert_eq!(
            (attempts[0].congestion_guess, attempts[0].block_guess),
            (1, 1)
        );
    }

    #[test]
    fn failed_attempts_are_recorded_and_charged() {
        // The lower-bound instance cannot be served at (1, 1) or (2, 2), so
        // failed attempts are recorded before the successful one.
        let (g, layout) = generators::lower_bound_graph(8, 16);
        let t = RootedTree::bfs(&g, layout.connector(0));
        let p = generators::partitions::lower_bound_paths(&layout);
        let (result, attempts) = search(&g, &t, &p, DoublingConfig::default());
        assert!(attempts.len() > 1);
        let (last, failed) = attempts.split_last().unwrap();
        assert!(failed.iter().all(|a| !a.succeeded && a.rounds > 0));
        assert!(last.succeeded);
        for pair in attempts.windows(2) {
            assert_eq!(pair[1].congestion_guess, 2 * pair[0].congestion_guess);
            assert_eq!(pair[1].block_guess, 2 * pair[0].block_guess);
        }
        // The returned driver result is the last attempt's.
        assert_eq!(last.rounds, result.total_rounds());
    }

    #[test]
    fn exhausting_the_doubling_budget_reports_an_error() {
        // The lower-bound instance with eight contending paths cannot be
        // served at (c, b) = (1, 1): the connector-tree edges are shared by
        // all parts, so with no doublings allowed the search ends with one
        // failed attempt and bad parts left (the caller decides whether
        // that is an error).
        let (g, layout) = generators::lower_bound_graph(8, 16);
        let t = RootedTree::bfs(&g, layout.connector(0));
        let p = generators::partitions::lower_bound_paths(&layout);
        let config = DoublingConfig {
            max_doublings: 0,
            ..DoublingConfig::default()
        };
        let (result, attempts) = search(&g, &t, &p, config);
        assert!(!result.all_parts_good);
        assert_eq!(attempts.len(), 1);
        assert!(!attempts[0].succeeded);
    }

    #[test]
    fn slow_core_doubling_is_deterministic() {
        let g = generators::grid(6, 6);
        let t = RootedTree::bfs(&g, NodeId::new(0));
        let p = generators::partitions::grid_columns(6, 6);
        let config = DoublingConfig {
            use_fast_core: false,
            ..DoublingConfig::default()
        };
        let (a, a_attempts) = search(&g, &t, &p, config);
        let (b, b_attempts) = search(&g, &t, &p, DoublingConfig { seed: 9, ..config });
        assert_eq!(a.shortcut, b.shortcut);
        assert_eq!(a_attempts, b_attempts);
    }
}
