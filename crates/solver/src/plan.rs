//! One entry point over the three solver flavors.
//!
//! Callers pick a [`SolvePlan`] once, from configuration, and run it;
//! every flavor answers with the same [`SolveOutcome`]. The flavor-level
//! functions ([`solve`], [`solve_parallel_with`], [`solve_portfolio`])
//! stay public for the differential oracles that compare flavors
//! against each other.

use crate::bb::{solve, Solution, SolveOptions};
use crate::lns::LnsStats;
use crate::model::CostModel;
use crate::parallel::{solve_parallel_with, ParallelOptions};
use crate::portfolio::{solve_portfolio, Exactness, PortfolioOptions, SolveOutcome, Winner};

/// Which solver runs a model.
///
/// Determinism differs by flavor. Run to exhaustion, all three return
/// the same optimum cost (and, under default value ordering, the same
/// assignment). Under a node budget only [`SolvePlan::Sequential`] is
/// reproducible: the parallel flavors drain one shared atomic budget,
/// so which nodes it covers depends on thread timing.
#[derive(Debug, Clone)]
pub enum SolvePlan {
    /// Depth-first branch & bound on the calling thread ([`solve`]).
    Sequential,
    /// Work-stealing parallel branch & bound ([`solve_parallel_with`]).
    Parallel(ParallelOptions),
    /// Parallel branch & bound raced against LNS ([`solve_portfolio`]).
    Portfolio(PortfolioOptions),
}

impl SolvePlan {
    /// Short human-readable name of the flavor.
    pub fn label(&self) -> &'static str {
        match self {
            SolvePlan::Sequential => "sequential B&B",
            SolvePlan::Parallel(_) => "parallel B&B",
            SolvePlan::Portfolio(_) => "portfolio",
        }
    }

    /// Minimizes `model` with this flavor.
    pub fn run<M: CostModel + Sync>(&self, model: &M, opts: SolveOptions<'_>) -> SolveOutcome {
        match self {
            SolvePlan::Sequential => tree_search(solve(model, opts)),
            SolvePlan::Parallel(par) => tree_search(solve_parallel_with(model, opts, par)),
            SolvePlan::Portfolio(pf) => solve_portfolio(model, opts, pf),
        }
    }
}

/// A pure branch-&-bound [`Solution`] as an outcome. The result came
/// from the tree search unless the search accepted no incumbent at all,
/// in which case it is the caller's unbeaten `initial_incumbent`.
fn tree_search(sol: Solution) -> SolveOutcome {
    let winner = sol.best.as_ref().map(|_| {
        if sol.stats.incumbents == 0 {
            Winner::Seed
        } else {
            Winner::BranchAndBound
        }
    });
    SolveOutcome {
        exactness: if sol.proven_optimal() {
            Exactness::Proven
        } else {
            Exactness::Heuristic
        },
        best: sol.best,
        winner,
        stats: sol.stats,
        lns: LnsStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Assignment;

    /// Three variables over {0, 1, 2}; cost = sum of (value - target)².
    struct Quad;

    impl CostModel for Quad {
        type Scratch = ();
        fn num_vars(&self) -> usize {
            3
        }
        fn domain(&self, _var: usize) -> &[u32] {
            &[0, 1, 2]
        }
        fn cost(&self, a: &Assignment) -> Option<f64> {
            Some(
                a.iter()
                    .zip([2.0, 0.0, 1.0])
                    .map(|(&v, t)| (v as f64 - t).powi(2))
                    .sum(),
            )
        }
    }

    #[test]
    fn every_flavor_finds_the_same_optimum() {
        let plans = [
            SolvePlan::Sequential,
            SolvePlan::Parallel(ParallelOptions {
                threads: 2,
                ..Default::default()
            }),
            SolvePlan::Portfolio(PortfolioOptions {
                bb_threads: 2,
                ..Default::default()
            }),
        ];
        for plan in &plans {
            let out = plan.run(&Quad, SolveOptions::default());
            assert!(out.proven_optimal(), "{}", plan.label());
            assert_eq!(out.best, Some((vec![2, 0, 1], 0.0)), "{}", plan.label());
        }
    }

    #[test]
    fn budgeted_sequential_run_is_heuristic_and_an_unbeaten_seed_wins() {
        // Two nodes reach no leaf, so the seed ([0, 0, 0] costs 5) stands.
        let out = SolvePlan::Sequential.run(
            &Quad,
            SolveOptions {
                node_budget: Some(2),
                initial_incumbent: Some((vec![0, 0, 0], 5.0)),
                ..Default::default()
            },
        );
        assert_eq!(out.exactness, Exactness::Heuristic);
        assert_eq!(out.winner, Some(Winner::Seed));
        assert_eq!(out.best, Some((vec![0, 0, 0], 5.0)));
    }
}
