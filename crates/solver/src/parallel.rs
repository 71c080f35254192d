//! Parallel branch & bound: frontier splitting with work stealing and a
//! lock-free shared incumbent.
//!
//! The search tree is cut at a configurable depth `d`: every assignment
//! of the first `d` variables becomes one *work item* (there are
//! `∏ |domain(0..d)|` of them — far more items than workers, unlike root
//! splitting, so no thread idles because its one subtree happened to be
//! small). Items live in an implicit lock-free injector — a shared atomic
//! cursor over the mixed-radix prefix space — from which workers claim
//! the next prefix whenever they finish one, i.e. work-stealing
//! degenerated to its cheapest form: stealing from a single shared deque
//! whose items never need to be materialized.
//!
//! The incumbent *cost* lives in an `AtomicU64` (bit-cast `f64`) read
//! with `Acquire` on every bound check — the prune hot path takes no
//! lock. The full assignment sits behind a mutex that is only taken when
//! a worker's candidate might actually improve the incumbent (checked
//! against the atomic first), which is rare.
//!
//! Budgets are **global**: one atomic node counter and one deadline are
//! shared by all workers (see [`SolveOptions`]), so `node_budget: 1000`
//! means one thousand nodes total, never per subtree.
//!
//! # Determinism
//!
//! The returned optimum cost is identical to the sequential solver's and
//! the returned assignment does not depend on thread count or timing:
//!
//! * workers accept incumbents *locally* per work item. Each item starts
//!   by adopting the shared incumbent (assignment + cost) with an
//!   acceptance threshold `EPS` *above* the adopted cost, so the set of
//!   candidates that survive `offer`'s lock-free reject depends only on
//!   the model, never on which worker ran which item or when — adoption
//!   only filters out candidates `offer` was guaranteed to reject;
//! * cross-worker pruning against the atomic cost uses a *conservative*
//!   margin (`bound > best + 1e-12`): subtrees whose bound ties the
//!   incumbent are still explored, so an optimal leaf can never be
//!   timing-pruned;
//! * the shared incumbent resolves equal-cost ties toward the
//!   lexicographically smallest assignment — an order-independent
//!   reduction, so any arrival order yields the same winner.
//!
//! With ascending domains and default (domain-order) branching this is
//! exactly the assignment the sequential solver returns. Under
//! `bound_guided_values` only the *cost* is guaranteed to match.
//!
//! # Anytime callbacks
//!
//! Unlike the root-splitting predecessor, `on_incumbent` is supported:
//! workers send strict global improvements through a channel (from inside
//! the incumbent lock, so costs strictly decrease and timestamps are
//! monotone) and the caller's thread delivers them while the workers run.

use crate::bb::{
    flush_solve_telemetry, solve, Engine, SharedState, Solution, SolveOptions, SolveStats,
    Workspace, EPS,
};
use crate::model::{Assignment, CostModel};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Tag for who produced an incumbent (stored in the shared slot so the
/// portfolio can report which strategy won).
pub(crate) const SRC_BB: u8 = 0;
/// The incumbent came from an LNS worker.
pub(crate) const SRC_LNS: u8 = 1;
/// The incumbent is the caller's `initial_incumbent` seed.
pub(crate) const SRC_SEED: u8 = 2;
/// No incumbent yet.
pub(crate) const SRC_NONE: u8 = u8::MAX;

/// Hard cap on frontier size when auto-choosing the split depth.
const MAX_AUTO_ITEMS: usize = 65_536;

/// Work items per worker the auto split depth aims for; >1 so fast
/// workers keep stealing instead of idling behind a slow subtree.
const ITEMS_PER_WORKER: usize = 8;

/// Knobs specific to the parallel solver.
#[derive(Debug, Clone, Default)]
pub struct ParallelOptions {
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// Split the tree at this depth (number of leading variables fixed
    /// per work item). `None` picks the smallest depth yielding at least
    /// [`ITEMS_PER_WORKER`]× the worker count. Any depth produces the
    /// same result — this only shapes load balance.
    pub split_depth: Option<usize>,
}

/// The shared incumbent: lock-free cost in [`SharedState`], full
/// assignment under this mutex (taken only on candidate improvements).
/// Shared by B&B workers and — in the portfolio — LNS workers.
pub(crate) struct SharedIncumbent<'a> {
    slot: Mutex<Option<(Assignment, f64)>>,
    /// Who produced the current slot content (`SRC_*`; written under the
    /// slot lock, read after the solve ends).
    winner: AtomicU8,
    pub(crate) state: &'a SharedState,
    started: Instant,
}

impl<'a> SharedIncumbent<'a> {
    pub(crate) fn new(state: &'a SharedState, started: Instant) -> Self {
        SharedIncumbent {
            slot: Mutex::new(None),
            winner: AtomicU8::new(SRC_NONE),
            state,
            started,
        }
    }

    /// Installs a caller-provided incumbent before any worker starts. The
    /// cost is published so every worker prunes against it from node one.
    pub(crate) fn seed(&self, a: Assignment, c: f64) {
        let mut slot = self.slot.lock().expect("incumbent lock");
        *slot = Some((a, c));
        self.winner.store(SRC_SEED, Ordering::Relaxed);
        self.state.publish_cost(c);
    }

    /// Offers a locally-accepted candidate. Keeps it if strictly better,
    /// or if equal-cost (±1e-12) and lexicographically smaller. Strict
    /// improvements are forwarded to the callback channel from inside the
    /// lock, so the channel sees a strictly-decreasing cost sequence with
    /// monotone timestamps.
    pub(crate) fn offer(
        &self,
        a: &Assignment,
        c: f64,
        src: u8,
        tx: &mpsc::Sender<(Assignment, f64, Duration)>,
    ) {
        // Lock-free fast reject: strictly worse candidates never touch
        // the mutex. Ties (within EPS) fall through for lex comparison.
        if c > self.state.best_cost() + EPS {
            return;
        }
        let mut slot = self.slot.lock().expect("incumbent lock");
        let (better, strict) = match &*slot {
            None => (true, true),
            Some((cur_a, cur_c)) => {
                let strict = c < cur_c - EPS;
                (strict || ((c - cur_c).abs() <= EPS && a < cur_a), strict)
            }
        };
        if better {
            *slot = Some((a.clone(), c));
            self.winner.store(src, Ordering::Relaxed);
            self.state.publish_cost(c);
            if strict {
                // Receiver may have been dropped (no callback): ignore.
                let _ = tx.send((a.clone(), c, self.started.elapsed()));
            }
        }
    }

    /// Clones the current incumbent out of the slot (for adoption by B&B
    /// workers and LNS reseeding). Callers gate on
    /// [`SharedState::best_cost`] first so the lock is only taken when
    /// there is something new to fetch.
    pub(crate) fn snapshot(&self) -> Option<(Assignment, f64)> {
        self.slot.lock().expect("incumbent lock").clone()
    }

    /// Consumes the incumbent at the end of a solve.
    pub(crate) fn into_best(self) -> (Option<(Assignment, f64)>, u8) {
        let winner = self.winner.load(Ordering::Relaxed);
        (self.slot.into_inner().expect("incumbent lock"), winner)
    }
}

/// Smallest depth whose prefix count reaches `target` (capped).
pub(crate) fn choose_depth<M: CostModel>(
    model: &M,
    threads: usize,
    requested: Option<usize>,
) -> usize {
    let n = model.num_vars();
    if let Some(d) = requested {
        return d.min(n);
    }
    let target = threads.saturating_mul(ITEMS_PER_WORKER).max(2);
    let mut depth = 0;
    let mut items = 1usize;
    while depth < n && items < target {
        items = items.saturating_mul(model.domain(depth).len());
        depth += 1;
        if items >= MAX_AUTO_ITEMS {
            break;
        }
    }
    depth
}

/// Per-solve search totals plus one `(items claimed, busy ms)` entry
/// per worker, accumulated under a mutex taken once per worker exit.
#[derive(Default)]
pub(crate) struct PoolStats {
    pub(crate) nodes: u64,
    pub(crate) leaves: u64,
    pub(crate) pruned: u64,
    pub(crate) pruned_infeasible: u64,
    pub(crate) pruned_bound: u64,
    pub(crate) pruned_incumbent: u64,
    pub(crate) incumbents: u64,
    pub(crate) workers: Vec<(u64, f64)>,
}

/// Number of work items at `depth` (saturating).
pub(crate) fn frontier_size<M: CostModel>(model: &M, depth: usize) -> usize {
    (0..depth).fold(1usize, |acc, v| acc.saturating_mul(model.domain(v).len()))
}

/// Decodes work item `k` into the first `depth` slots of `prefix`
/// (mixed radix, variable 0 most significant — so item order is the
/// sequential solver's DFS order over prefixes).
fn decode_prefix<M: CostModel>(model: &M, depth: usize, mut k: usize, prefix: &mut [u32]) {
    for var in (0..depth).rev() {
        let dom = model.domain(var);
        prefix[var] = dom[k % dom.len()];
        k /= dom.len();
    }
}

/// One B&B worker's run: claims prefixes from the shared injector until
/// the frontier drains or the solve stops, accumulating its counters into
/// `stats`. Shared between [`solve_parallel_with`] and the portfolio
/// solver (`crate::portfolio`).
///
/// Each work item starts by *adopting* the shared incumbent — assignment
/// and cost, not just the bound. Adoption keeps the acceptance threshold
/// `EPS` above the adopted cost (see `Engine::local_ub`), so the set of
/// candidates surviving `offer`'s fast reject is exactly what an empty
/// local incumbent would have produced: adoption saves doomed clones and
/// makes the incumbent's assignment available for budget-stopped items,
/// without perturbing the deterministic result.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bb_worker<M: CostModel + Sync>(
    model: &M,
    state: &SharedState,
    incumbent: &SharedIncumbent<'_>,
    injector: &AtomicUsize,
    tx: &mpsc::Sender<(Assignment, f64, Duration)>,
    depth: usize,
    total_items: usize,
    initial_ub: Option<f64>,
    bound_guided: bool,
    stats: &Mutex<PoolStats>,
) {
    let mut ws = Workspace::new(model);
    let mut engine = Engine::new(
        model,
        state,
        &mut ws,
        initial_ub,
        bound_guided,
        |a: &Assignment, c: f64| incumbent.offer(a, c, SRC_BB, tx),
    );
    let mut prefix = vec![0u32; depth];
    // Worker-local cache of the last adopted incumbent, refreshed only
    // when the lock-free shared cost says something better exists.
    let mut adopted: Option<(Assignment, f64)> = None;
    let worker_started = Instant::now();
    let mut items_claimed = 0u64;
    // Per-thread drain: allocation counters are thread-local, so each
    // worker accounts its own search traffic under the solve phase.
    haxconn_telemetry::alloc::phase(haxconn_telemetry::alloc::PHASE_SOLVE, || loop {
        if state.stopped() {
            break;
        }
        let k = injector.fetch_add(1, Ordering::Relaxed);
        if k >= total_items {
            break;
        }
        items_claimed += 1;
        decode_prefix(model, depth, k, &mut prefix);
        // Swap prefixes through assign/unassign so the model's
        // incremental scratch stays in lockstep with `partial`
        // across work items (pops in reverse order keep the
        // LIFO discipline).
        for var in (0..depth).rev() {
            if engine.ws.partial[var].is_some() {
                engine.unassign(var);
            }
        }
        for (var, &v) in prefix.iter().enumerate() {
            engine.assign(var, v);
        }
        // Adopt the shared incumbent for this work item (assignment and
        // cost). Cross-item pruning still flows through the shared atomic
        // cost; adoption additionally short-circuits local acceptance of
        // candidates the shared slot would reject anyway.
        let shared_cost = state.best_cost();
        if shared_cost.is_finite() {
            let stale = match &adopted {
                Some((_, c)) => shared_cost < *c - EPS,
                None => true,
            };
            if stale {
                if let Some(snap) = incumbent.snapshot() {
                    adopted = Some(snap);
                }
            }
        }
        engine.adopt(adopted.clone());
        if engine.dfs(depth, f64::NAN) {
            break; // budget exhausted or solve stopped
        }
    });
    let mut st = stats.lock().expect("stats lock");
    st.nodes += engine.nodes;
    st.leaves += engine.leaves;
    st.pruned += engine.pruned;
    st.pruned_infeasible += engine.pruned_infeasible;
    st.pruned_bound += engine.pruned_bound;
    st.pruned_incumbent += engine.pruned_incumbent;
    st.incumbents += engine.incumbents;
    st.workers
        .push((items_claimed, worker_started.elapsed().as_secs_f64() * 1e3));
}

/// Minimizes `model` with a work-stealing worker pool over a depth-`d`
/// frontier (see the module docs for the execution and determinism
/// model). Budgets in `opts` are global across all workers, and
/// `on_incumbent` is delivered on the calling thread while workers run.
pub fn solve_parallel_with<M: CostModel + Sync>(
    model: &M,
    mut opts: SolveOptions<'_>,
    par: &ParallelOptions,
) -> Solution {
    let n = model.num_vars();
    for v in 0..n {
        assert!(!model.domain(v).is_empty(), "variable {v} has empty domain");
    }
    if n == 0 {
        return solve(model, opts);
    }
    let threads = if par.threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    } else {
        par.threads
    };
    let depth = choose_depth(model, threads, par.split_depth);
    let total_items = frontier_size(model, depth);

    let started = Instant::now();
    let state = SharedState::new(opts.node_budget, opts.time_budget, opts.initial_upper_bound);
    let incumbent = SharedIncumbent::new(&state, started);
    if let Some((a, c)) = opts.initial_incumbent.take() {
        incumbent.seed(a, c);
    }
    let injector = AtomicUsize::new(0);
    let stats = Mutex::new(PoolStats::default());
    let (tx, rx) = mpsc::channel::<(Assignment, f64, Duration)>();

    std::thread::scope(|scope| {
        for _ in 0..threads.min(total_items) {
            let tx = tx.clone();
            let state = &state;
            let incumbent = &incumbent;
            let injector = &injector;
            let stats = &stats;
            let initial_ub = opts.initial_upper_bound;
            let bound_guided = opts.bound_guided_values;
            scope.spawn(move || {
                bb_worker(
                    model,
                    state,
                    incumbent,
                    injector,
                    &tx,
                    depth,
                    total_items,
                    initial_ub,
                    bound_guided,
                    stats,
                );
            });
        }
        // The workers hold the only remaining senders: once they finish,
        // the channel disconnects and this drain loop ends. Meanwhile it
        // delivers strict improvements to the caller as they happen.
        drop(tx);
        match opts.on_incumbent.take() {
            Some(mut cb) => {
                for (a, c, at) in rx {
                    cb(&a, c, at);
                }
            }
            None => drop(rx),
        }
    });

    let pool = stats.into_inner().expect("stats lock");
    let (best, _winner) = incumbent.into_best();
    let stats = SolveStats {
        nodes: pool.nodes,
        leaves: pool.leaves,
        pruned: pool.pruned,
        pruned_infeasible: pool.pruned_infeasible,
        pruned_bound: pool.pruned_bound,
        pruned_incumbent: pool.pruned_incumbent,
        incumbents: pool.incumbents,
        elapsed: started.elapsed(),
        outcome: state.outcome(),
    };
    flush_solve_telemetry("bb.solve_parallel", &stats);
    if haxconn_telemetry::enabled() {
        use haxconn_telemetry as t;
        let elapsed_ms = stats.elapsed.as_secs_f64() * 1e3;
        t::gauge_set("solver.par.workers", pool.workers.len() as f64);
        for &(items, busy_ms) in &pool.workers {
            // Every item after a worker's first is a steal from the
            // shared injector; idle time is the tail a worker spends
            // finished while the slowest worker still runs.
            t::counter_add("solver.par.items", items);
            t::counter_add("solver.par.steals", items.saturating_sub(1));
            t::histogram_record("solver.par.worker_busy_ms", busy_ms);
            t::histogram_record("solver.par.worker_idle_ms", (elapsed_ms - busy_ms).max(0.0));
        }
    }
    Solution { best, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bb::BudgetState;
    use crate::model::{brute_force, PartialAssignment};

    struct Wap {
        weights: Vec<Vec<f64>>,
        diffs: Vec<(usize, usize)>,
    }

    impl CostModel for Wap {
        type Scratch = ();
        fn num_vars(&self) -> usize {
            self.weights.len()
        }
        fn domain(&self, _var: usize) -> &[u32] {
            &[0, 1, 2]
        }
        fn cost(&self, a: &Assignment) -> Option<f64> {
            for &(i, j) in &self.diffs {
                if a[i] == a[j] {
                    return None;
                }
            }
            Some(
                a.iter()
                    .enumerate()
                    .map(|(i, &v)| self.weights[i][v as usize])
                    .sum(),
            )
        }
        fn bound(&self, partial: &PartialAssignment) -> f64 {
            partial
                .iter()
                .enumerate()
                .map(|(i, v)| match v {
                    Some(v) => self.weights[i][*v as usize],
                    None => self.weights[i]
                        .iter()
                        .cloned()
                        .fold(f64::INFINITY, f64::min),
                })
                .sum()
        }
    }

    fn instance(seed: u64, n: usize) -> Wap {
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64 / 100.0
        };
        Wap {
            weights: (0..n).map(|_| (0..3).map(|_| next()).collect()).collect(),
            diffs: (0..n - 1).map(|i| (i, i + 1)).collect(),
        }
    }

    fn with_threads(t: usize) -> ParallelOptions {
        ParallelOptions {
            threads: t,
            split_depth: None,
        }
    }

    #[test]
    fn parallel_matches_sequential_and_brute_force() {
        for seed in 0..10 {
            let m = instance(seed, 8);
            let seq = solve(&m, SolveOptions::default());
            let par = solve_parallel_with(&m, SolveOptions::default(), &ParallelOptions::default());
            let bf = brute_force(&m);
            match (&seq.best, &par.best, &bf) {
                (Some((a_seq, c_seq)), Some((a_par, c_par)), Some((_, c_bf))) => {
                    // Bit-identical cost and identical assignment.
                    assert_eq!(c_seq.to_bits(), c_par.to_bits(), "seed {seed}");
                    assert_eq!(a_seq, a_par, "seed {seed}");
                    assert!((c_seq - c_bf).abs() < 1e-9, "seed {seed}");
                }
                (None, None, None) => {}
                other => panic!("seed {seed}: {other:?}"),
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts_and_depths() {
        let m = instance(77, 9);
        let reference = solve_parallel_with(&m, SolveOptions::default(), &with_threads(1));
        let (ref_a, ref_c) = reference.best.unwrap();
        for threads in [2, 4, 8] {
            for depth in [0, 1, 2, 4] {
                let sol = solve_parallel_with(
                    &m,
                    SolveOptions::default(),
                    &ParallelOptions {
                        threads,
                        split_depth: Some(depth),
                    },
                );
                let (a, c) = sol.best.unwrap();
                assert_eq!(a, ref_a, "threads {threads} depth {depth}");
                assert_eq!(
                    c.to_bits(),
                    ref_c.to_bits(),
                    "threads {threads} depth {depth}"
                );
            }
        }
    }

    #[test]
    fn node_budget_is_global_not_per_subtree() {
        let m = instance(7, 12);
        let sol = solve_parallel_with(
            &m,
            SolveOptions {
                node_budget: Some(500),
                ..Default::default()
            },
            &with_threads(4),
        );
        assert_eq!(sol.stats.outcome, BudgetState::NodesExhausted);
        // The whole pool together never exceeds the budget (the old
        // root-splitting solver spent budget × num_subtrees).
        assert!(sol.stats.nodes <= 500, "spent {}", sol.stats.nodes);
    }

    #[test]
    fn callbacks_are_monotone_and_reach_the_optimum() {
        let m = instance(3, 9);
        let mut seen: Vec<(f64, Duration)> = Vec::new();
        let sol = solve_parallel_with(
            &m,
            SolveOptions {
                on_incumbent: Some(Box::new(|_, c, at| seen.push((c, at)))),
                ..Default::default()
            },
            &with_threads(4),
        );
        assert!(sol.proven_optimal());
        let best = sol.best.unwrap().1;
        assert!(!seen.is_empty());
        for w in seen.windows(2) {
            assert!(w[1].0 < w[0].0 - 1e-12, "costs must strictly decrease");
            assert!(w[1].1 >= w[0].1, "timestamps must be monotone");
        }
        assert_eq!(seen.last().unwrap().0.to_bits(), best.to_bits());
    }

    #[test]
    fn infeasible_instance() {
        let m = Wap {
            weights: vec![vec![1.0; 3], vec![1.0; 3]],
            diffs: vec![(0, 1), (1, 0)],
        };
        // Make it truly infeasible: same-value constraint both ways plus a
        // domain of one shared value.
        struct OneValue(Wap);
        impl CostModel for OneValue {
            type Scratch = ();
            fn num_vars(&self) -> usize {
                self.0.num_vars()
            }
            fn domain(&self, _v: usize) -> &[u32] {
                &[1]
            }
            fn cost(&self, a: &Assignment) -> Option<f64> {
                self.0.cost(a)
            }
        }
        let m = OneValue(m);
        let par = solve_parallel_with(&m, SolveOptions::default(), &ParallelOptions::default());
        assert!(par.best.is_none());
        assert!(par.proven_optimal());
    }

    #[test]
    fn warm_upper_bound_respected() {
        let m = instance(5, 7);
        let opt = solve(&m, SolveOptions::default()).best.unwrap().1;
        // A warm bound below the optimum prunes everything away.
        let par = solve_parallel_with(
            &m,
            SolveOptions {
                initial_upper_bound: Some(opt - 1.0),
                ..Default::default()
            },
            &ParallelOptions::default(),
        );
        assert!(par.best.is_none());
        // At the optimum + epsilon, it finds the optimum.
        let par = solve_parallel_with(
            &m,
            SolveOptions {
                initial_upper_bound: Some(opt + 1e-6),
                ..Default::default()
            },
            &ParallelOptions::default(),
        );
        assert!((par.best.unwrap().1 - opt).abs() < 1e-9);
    }

    /// Regression: a worker that observes a better shared incumbent must
    /// adopt its *assignment*, not just prune on its cost. Before the fix
    /// a budget-stopped solve seeded via `initial_incumbent` returned
    /// `None` — the seed's cost pruned everything, but no worker ever
    /// held the seed's assignment.
    #[test]
    fn seeded_incumbent_assignment_survives_a_starved_search() {
        let m = instance(5, 10);
        let opt = solve(&m, SolveOptions::default()).best.unwrap();
        let sol = solve_parallel_with(
            &m,
            SolveOptions {
                node_budget: Some(1),
                initial_incumbent: Some(opt.clone()),
                ..Default::default()
            },
            &with_threads(2),
        );
        assert_eq!(sol.stats.outcome, BudgetState::NodesExhausted);
        let (a, c) = sol.best.expect("seed must survive");
        assert_eq!(a, opt.0);
        assert_eq!(c.to_bits(), opt.1.to_bits());
    }

    /// Seeding a *suboptimal* incumbent neither changes the final result
    /// nor its determinism.
    #[test]
    fn suboptimal_seed_does_not_perturb_the_optimum() {
        let m = instance(5, 10);
        let opt = solve(&m, SolveOptions::default()).best.unwrap();
        let alt: Assignment = (0..10).map(|i| (i % 2) as u32).collect();
        let alt_c = m.cost(&alt).expect("alternating assignment is feasible");
        assert!(alt_c > opt.1);
        let sol = solve_parallel_with(
            &m,
            SolveOptions {
                initial_incumbent: Some((alt, alt_c)),
                ..Default::default()
            },
            &with_threads(4),
        );
        assert!(sol.proven_optimal());
        let (a, c) = sol.best.unwrap();
        assert_eq!(a, opt.0);
        assert_eq!(c.to_bits(), opt.1.to_bits());
    }

    #[test]
    fn bound_guided_mode_matches_cost() {
        let m = instance(21, 9);
        let seq = solve(&m, SolveOptions::default()).best.unwrap().1;
        let par = solve_parallel_with(
            &m,
            SolveOptions {
                bound_guided_values: true,
                ..Default::default()
            },
            &with_threads(4),
        );
        assert!((par.best.unwrap().1 - seq).abs() < 1e-12);
    }

    #[test]
    fn split_deeper_than_tree_is_fine() {
        let m = instance(2, 3);
        let sol = solve_parallel_with(
            &m,
            SolveOptions::default(),
            &ParallelOptions {
                threads: 4,
                split_depth: Some(10), // clamped to num_vars: items are leaves
            },
        );
        let bf = brute_force(&m).unwrap().1;
        assert!(sol.proven_optimal());
        assert!((sol.best.unwrap().1 - bf).abs() < 1e-9);
    }
}
