//! Encoding of the scheduling problem for the constraint solver
//! (paper Section 3.4 → `haxconn-solver`).
//!
//! Decision variables: one per (task, layer group), domain = the PUs that
//! support every layer in the group (Eq. 1). The objective evaluates the
//! full contention-interval timeline (Eqs. 2–8); the ε constraint (Eq. 9)
//! rejects assignments whose same-PU queuing wait exceeds ε; and a
//! transition budget per task keeps the search space small, mirroring the
//! structure of the paper's optimal schedules (at most a couple of
//! transitions per DNN).

use crate::problem::{Objective, SchedulerConfig, Workload};
use crate::timeline::{TimelineEvaluator, TimelineWorkspace};
use haxconn_contention::ContentionModel;
use haxconn_soc::Platform;
use haxconn_solver::{Assignment, CostModel, PartialAssignment, SymmetrySpec};

/// The scheduling problem as a [`CostModel`].
pub struct ScheduleEncoding<'a> {
    workload: &'a Workload,
    evaluator: TimelineEvaluator<'a>,
    config: SchedulerConfig,
    /// Per variable: allowed PU ids.
    domains: Vec<Vec<u32>>,
    /// Per variable: cheapest standalone time over its domain (admissible
    /// bound ingredient).
    min_time: Vec<f64>,
    /// Per task: (first var, number of groups) of its *representative* —
    /// tied tasks (pipeline frame instances) share their representative's
    /// variables.
    task_spans: Vec<(usize, usize)>,
    /// Per variable: domain is a singleton (forced placement, not a
    /// scheduling decision — exempt from the transition budget).
    pinned: Vec<bool>,
    /// Per variable: the representative task owning it.
    rep_of_var: Vec<usize>,
    /// Per variable: every task whose span contains it (the representative
    /// first, then its tied copies).
    tasks_of_var: Vec<Vec<usize>>,
    /// `time_of_var[var][k][pu]` = standalone time of the group behind
    /// `var` under task `tasks_of_var[var][k]`'s profile when placed on
    /// `pu` (`INFINITY` for unsupported PUs, which domains exclude).
    time_of_var: Vec<Vec<Vec<f64>>>,
    /// Per task: the upstream *closure* as `(task, multiplicity)` terms,
    /// precomputed topologically in `new()` so `task_lower_bound` is a flat
    /// weighted sum over span sums — no per-call recursion over `deps`.
    closure: Vec<Vec<(usize, f64)>>,
    /// Number of PU ids the per-PU occupancy term ranges over.
    n_pus: usize,
}

/// Relative slack on the PU-occupancy bound term. The timeline's
/// `integrate` accumulates an execution piecewise, so a group can end a
/// few ulps short of `start + time_ms`; shaving 1e-9 off the summed
/// standalone times keeps the bound at or below every completion's cost
/// exactly, not just up to rounding.
const OCCUPANCY_SLACK: f64 = 1.0 - 1e-9;

/// Per-worker incremental state for [`ScheduleEncoding`] (the solver's
/// `CostModel::Scratch`). Maintained by `push`/`pop` under the engine's
/// LIFO discipline; see the field docs for the exact invariants.
///
/// `Default` yields an *unsized placeholder* — real instances come from
/// [`CostModel::new_scratch`], which sizes every buffer for the encoding.
#[derive(Default)]
pub struct ScheduleScratch {
    /// Mirror of the engine's partial assignment (`push`/`pop` don't see
    /// it, so the scratch keeps its own copy).
    vals: Vec<u32>,
    assigned: Vec<bool>,
    /// Per task: Σ over its span of (assigned ? standalone time : min
    /// time) — the span term of `task_lower_bound`, delta-maintained.
    span_sum: Vec<f64>,
    /// `saved_span[var][k]`: value of `span_sum[tasks_of_var[var][k]]` at
    /// push time. `pop` restores it verbatim — LIFO guarantees the state
    /// between a push and its matching pop is otherwise unchanged, so the
    /// restore is exact and floating-point drift cannot accumulate.
    saved_span: Vec<Vec<f64>>,
    /// Per representative task: adjacent-pair transition count (pairs of
    /// consecutive assigned vars in the span with differing values,
    /// neither pinned) — exactly what `transitions_in` counts.
    trans: Vec<usize>,
    /// Number of representative tasks currently over the transition
    /// budget; `prune_with` is the O(1) check `violations > 0`.
    violations: usize,
    /// Per PU: Σ standalone time of every assigned `(var, k)` placed on
    /// it — the occupancy term of the `MinMaxLatency` bound.
    pu_load: Vec<f64>,
    /// `saved_load[var]`: value of `pu_load[vals[var]]` at push time,
    /// restored verbatim by `pop` (same LIFO argument as `saved_span`).
    saved_load: Vec<f64>,
    /// Timeline evaluation workspace reused across `cost_with` leaves.
    pub(crate) ws: TimelineWorkspace,
}

impl<'a> ScheduleEncoding<'a> {
    /// Builds the encoding.
    pub fn new(
        workload: &'a Workload,
        model: &'a ContentionModel,
        config: SchedulerConfig,
    ) -> Self {
        let mut evaluator = TimelineEvaluator::new(workload, model);
        evaluator.contention_aware = config.contention_aware;
        let mut domains: Vec<Vec<u32>> = Vec::with_capacity(workload.num_vars());
        let mut min_time = Vec::with_capacity(workload.num_vars());
        let mut task_spans: Vec<(usize, usize)> = Vec::with_capacity(workload.tasks.len());
        for (t, task) in workload.tasks.iter().enumerate() {
            if let Some(rep) = workload.ties[t] {
                // Tied task: reuse the representative's variable span
                // (representatives always precede their copies).
                task_spans.push(task_spans[rep]);
                continue;
            }
            task_spans.push((domains.len(), task.num_groups()));
            for group in &task.profile.groups {
                let pus = group.supported_pus();
                assert!(!pus.is_empty(), "group supported nowhere");
                let best = pus
                    .iter()
                    .map(|&pu| group.cost[pu].unwrap().time_ms)
                    .fold(f64::INFINITY, f64::min);
                domains.push(pus.iter().map(|&p| p as u32).collect());
                min_time.push(best);
            }
        }

        let n_vars = domains.len();
        let n_tasks = workload.tasks.len();
        let pinned: Vec<bool> = domains.iter().map(|d| d.len() == 1).collect();
        let n_pus = domains
            .iter()
            .flatten()
            .map(|&v| v as usize + 1)
            .max()
            .unwrap_or(1);

        let mut tasks_of_var: Vec<Vec<usize>> = vec![Vec::new(); n_vars];
        for (t, &(start, len)) in task_spans.iter().enumerate() {
            for tasks in tasks_of_var.iter_mut().skip(start).take(len) {
                tasks.push(t);
            }
        }
        let rep_of_var: Vec<usize> = tasks_of_var.iter().map(|ts| ts[0]).collect();

        let mut time_of_var: Vec<Vec<Vec<f64>>> = vec![Vec::new(); n_vars];
        for (t, &(start, len)) in task_spans.iter().enumerate() {
            for g in 0..len {
                let var = start + g;
                let mut by_pu = vec![f64::INFINITY; n_pus];
                for (pu, slot) in by_pu.iter_mut().enumerate() {
                    if let Some(c) = workload.tasks[t].profile.groups[g].cost[pu] {
                        *slot = c.time_ms;
                    }
                }
                time_of_var[var].push(by_pu);
            }
        }

        // Upstream closure with path multiplicities: lb(t) expands to
        // Σ multiplicity(t') · span_sum(t') over every task reachable
        // through `deps` (paper Eq. 4's streaming chains).
        let upstream: Vec<Vec<usize>> = (0..n_tasks).map(|t| workload.upstream(t)).collect();
        let mut closure: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n_tasks);
        for t in 0..n_tasks {
            let mut weight = vec![0.0f64; n_tasks];
            let mut stack = vec![(t, 1.0f64)];
            let mut expansions = 0usize;
            while let Some((u, m)) = stack.pop() {
                expansions += 1;
                assert!(expansions <= 1_000_000, "dependency cycle in workload");
                weight[u] += m;
                for &up in &upstream[u] {
                    stack.push((up, m));
                }
            }
            closure.push(
                weight
                    .iter()
                    .enumerate()
                    .filter(|&(_, &w)| w > 0.0)
                    .map(|(i, &w)| (i, w))
                    .collect(),
            );
        }

        ScheduleEncoding {
            workload,
            evaluator,
            config,
            domains,
            min_time,
            task_spans,
            pinned,
            rep_of_var,
            tasks_of_var,
            time_of_var,
            closure,
            n_pus,
        }
    }

    /// Flat variable index behind `(task, group)` (tied tasks resolve to
    /// their representative's span).
    #[inline]
    pub(crate) fn var_of(&self, task: usize, group: usize) -> usize {
        self.task_spans[task].0 + group
    }

    /// Converts a flat solver assignment to per-task PU rows.
    pub fn to_rows(&self, assignment: &Assignment) -> Vec<Vec<usize>> {
        self.task_spans
            .iter()
            .map(|&(start, len)| {
                assignment[start..start + len]
                    .iter()
                    .map(|&v| v as usize)
                    .collect()
            })
            .collect()
    }

    /// Detects this instance's symmetries for the solver's
    /// [`haxconn_solver::Symmetric`] wrapper.
    ///
    /// Only **value classes** are emitted: [`Platform::interchangeable_pus`]
    /// groups PUs with bitwise-identical specs (the dual-DLA Orin's two
    /// NVDLAs), and relabeling such PUs moves whole per-PU queues wholesale
    /// — every queue keeps its dispatch order, so the contention timeline
    /// is preserved exactly. Each candidate class is still re-verified
    /// against this encoding: every variable's domain must contain all or
    /// none of the class, and the standalone times of every
    /// (variable, task) pair must be bitwise equal across the class —
    /// otherwise the class is dropped rather than risking an unsound cut.
    ///
    /// Duplicate DNN *instances* are deliberately **not** emitted as
    /// variable blocks, even though the solver supports them: the timeline
    /// dispatches same-PU overlaps in task-index order, so swapping two
    /// identical instances' assignment vectors changes which instance
    /// dispatches first and with it the cost (measured: ~7% on a dual-DLA
    /// 2×GoogleNet instance). Instance interchangeability is a symmetry of
    /// abstract makespan models, not of this order-sensitive evaluator;
    /// the block rule stays available for models that are block-invariant.
    pub fn symmetry_spec(&self, platform: &Platform) -> SymmetrySpec {
        let mut spec = SymmetrySpec::default();
        'class: for class in platform.interchangeable_pus() {
            if class.len() < 2 {
                continue;
            }
            let vals: Vec<u32> = class.iter().map(|&p| p as u32).collect();
            for dom in &self.domains {
                let present = vals.iter().filter(|v| dom.contains(v)).count();
                if present != 0 && present != vals.len() {
                    continue 'class;
                }
            }
            for rows in &self.time_of_var {
                for row in rows {
                    let t0 = row[vals[0] as usize].to_bits();
                    if vals.iter().any(|&v| row[v as usize].to_bits() != t0) {
                        continue 'class;
                    }
                }
            }
            spec.value_classes.push(vals);
        }
        spec
    }

    /// Σ over `task`'s span of (assigned ? standalone time : cheapest
    /// time) — the per-task term of the lower bound.
    fn span_time_sum(&self, task: usize, partial: &PartialAssignment) -> f64 {
        let (start, len) = self.task_spans[task];
        let mut sum = 0.0;
        for g in 0..len {
            let var = start + g;
            sum += match partial[var] {
                Some(pu) => {
                    self.workload.tasks[task].profile.groups[g].cost[pu as usize]
                        .expect("domain-checked")
                        .time_ms
                }
                None => self.min_time[var],
            };
        }
        sum
    }

    /// Lower bound on a task's completion: sum of cheapest standalone times
    /// of its groups (contention ≥ 1, transitions ≥ 0, waits ≥ 0), plus the
    /// bounds of its streaming upstream chain — expanded over the
    /// precomputed closure instead of recursing over `deps` per call.
    fn task_lower_bound(&self, task: usize, partial: &PartialAssignment) -> f64 {
        self.closure[task]
            .iter()
            .map(|&(t, m)| m * self.span_time_sum(t, partial))
            .sum()
    }

    /// Lower bound of `task` read off delta-maintained span sums.
    #[inline]
    fn task_lower_bound_inc(&self, task: usize, scratch: &ScheduleScratch) -> f64 {
        self.closure[task]
            .iter()
            .map(|&(t, m)| m * scratch.span_sum[t])
            .sum()
    }

    /// Transition-count change caused by assigning (or unassigning — the
    /// LIFO discipline makes both ends see identical neighbour state)
    /// `var = value`: only the two adjacent pairs inside the span can be
    /// affected, and a pair counts iff both ends are assigned, differ, and
    /// neither is pinned.
    #[inline]
    fn transition_delta(&self, scratch: &ScheduleScratch, var: usize, value: u32) -> usize {
        let rep = self.rep_of_var[var];
        let mut delta = 0;
        if var > 0
            && self.rep_of_var[var - 1] == rep
            && scratch.assigned[var - 1]
            && scratch.vals[var - 1] != value
            && !self.pinned[var]
            && !self.pinned[var - 1]
        {
            delta += 1;
        }
        if var + 1 < self.rep_of_var.len()
            && self.rep_of_var[var + 1] == rep
            && scratch.assigned[var + 1]
            && scratch.vals[var + 1] != value
            && !self.pinned[var]
            && !self.pinned[var + 1]
        {
            delta += 1;
        }
        delta
    }

    /// The objective value of an evaluated timeline, shared by `cost` and
    /// `cost_with` so both produce bit-identical results.
    #[inline]
    fn objective_of(&self, max_wait_ms: f64, task_latency_ms: &[f64]) -> Option<f64> {
        // Eq. 9: reject schedules that need more than ε of same-PU overlap
        // absorption.
        if let Some(eps) = self.config.epsilon_ms {
            if max_wait_ms > eps {
                return None;
            }
        }
        Some(match self.config.objective {
            Objective::MinMaxLatency => task_latency_ms.iter().cloned().fold(0.0, f64::max),
            Objective::MaxThroughput => -task_latency_ms.iter().map(|&t| 1000.0 / t).sum::<f64>(),
        })
    }

    /// Counts the *chosen* transitions in a task's (partial) assignment.
    ///
    /// Switches forced by singleton-domain groups (e.g. an LRN group the
    /// DLA cannot run, which TensorRT would silently GPU-fallback) are not
    /// charged against the budget: they are not scheduling decisions.
    fn transitions_in(&self, task: usize, partial: &PartialAssignment) -> (usize, bool) {
        let (start, len) = self.task_spans[task];
        let mut count = 0;
        let mut complete = true;
        let mut prev: Option<(u32, bool)> = None; // (pu, was pinned)
        #[allow(clippy::needless_range_loop)] // var ids span two arrays
        for var in start..start + len {
            let pinned = self.domains[var].len() == 1;
            match partial[var] {
                Some(v) => {
                    if let Some((p, p_pinned)) = prev {
                        if p != v && !pinned && !p_pinned {
                            count += 1;
                        }
                    }
                    prev = Some((v, pinned));
                }
                None => {
                    complete = false;
                    prev = None; // gap: later groups can't extend this run
                }
            }
        }
        (count, complete)
    }

    /// Whether any task's chosen transitions exceed the budget — the
    /// complete-assignment counterpart of [`CostModel::prune`]. `cost`
    /// must reject exactly what `prune` rejects (the engine's contract:
    /// a pruned prefix has no feasible completion), otherwise exhaustive
    /// enumeration and warm-start cost probes accept assignments the
    /// search space excludes.
    fn over_transition_budget(&self, assignment: &Assignment) -> bool {
        (0..self.task_spans.len()).any(|t| {
            if self.workload.ties[t].is_some() {
                return false;
            }
            let (start, len) = self.task_spans[t];
            let mut count = 0usize;
            let mut prev: Option<(u32, bool)> = None;
            #[allow(clippy::needless_range_loop)] // var ids span two arrays
            for var in start..start + len {
                let pinned = self.domains[var].len() == 1;
                let v = assignment[var];
                if let Some((p, p_pinned)) = prev {
                    if p != v && !pinned && !p_pinned {
                        count += 1;
                    }
                }
                prev = Some((v, pinned));
            }
            count > self.config.max_transitions_per_task
        })
    }
}

impl CostModel for ScheduleEncoding<'_> {
    type Scratch = ScheduleScratch;

    fn num_vars(&self) -> usize {
        self.domains.len()
    }

    fn domain(&self, var: usize) -> &[u32] {
        &self.domains[var]
    }

    fn prune(&self, partial: &PartialAssignment) -> bool {
        // Transition budget (prefix transitions only ever grow). Tied tasks
        // share their representative's variables, so checking
        // representatives covers everyone.
        for t in 0..self.task_spans.len() {
            if self.workload.ties[t].is_some() {
                continue;
            }
            let (count, _) = self.transitions_in(t, partial);
            if count > self.config.max_transitions_per_task {
                return true;
            }
        }
        false
    }

    fn bound(&self, partial: &PartialAssignment) -> f64 {
        match self.config.objective {
            Objective::MinMaxLatency => {
                let mut load = vec![0.0f64; self.n_pus];
                for (var, value) in partial.iter().enumerate() {
                    if let Some(pu) = *value {
                        for times in &self.time_of_var[var] {
                            load[pu as usize] += times[pu as usize];
                        }
                    }
                }
                (0..self.task_spans.len())
                    .map(|t| self.task_lower_bound(t, partial))
                    .fold(occupancy_bound(&load), f64::max)
            }
            Objective::MaxThroughput => {
                // cost = -sum 1/T; T >= lb  =>  -sum 1/T >= -sum 1/lb.
                -(0..self.task_spans.len())
                    .map(|t| 1000.0 / self.task_lower_bound(t, partial).max(1e-9))
                    .sum::<f64>()
            }
        }
    }

    fn cost(&self, assignment: &Assignment) -> Option<f64> {
        if self.over_transition_budget(assignment) {
            return None;
        }
        let rows = self.to_rows(assignment);
        let tl = self.evaluator.evaluate(&rows);
        self.objective_of(tl.max_wait_ms, &tl.task_latency_ms)
    }

    fn new_scratch(&self) -> ScheduleScratch {
        let n_vars = self.domains.len();
        let n_tasks = self.task_spans.len();
        let mut span_sum = vec![0.0f64; n_tasks];
        for (t, slot) in span_sum.iter_mut().enumerate() {
            let (start, len) = self.task_spans[t];
            *slot = self.min_time[start..start + len].iter().sum();
        }
        ScheduleScratch {
            vals: vec![0; n_vars],
            assigned: vec![false; n_vars],
            span_sum,
            saved_span: self
                .tasks_of_var
                .iter()
                .map(|ts| vec![0.0; ts.len()])
                .collect(),
            trans: vec![0; n_tasks],
            violations: 0,
            pu_load: vec![0.0; self.n_pus],
            saved_load: vec![0.0; n_vars],
            ws: TimelineWorkspace::default(),
        }
    }

    fn push(&self, scratch: &mut ScheduleScratch, var: usize, value: u32) {
        // Transition delta first: it must see `var` still unassigned.
        let delta = self.transition_delta(scratch, var, value);
        if delta > 0 {
            let rep = self.rep_of_var[var];
            let old = scratch.trans[rep];
            scratch.trans[rep] = old + delta;
            if old <= self.config.max_transitions_per_task
                && scratch.trans[rep] > self.config.max_transitions_per_task
            {
                scratch.violations += 1;
            }
        }
        // Span sums: swap this var's "cheapest" contribution for its actual
        // time under every task sharing the span, saving the old sums so
        // the matching pop restores them exactly.
        for (k, &t) in self.tasks_of_var[var].iter().enumerate() {
            scratch.saved_span[var][k] = scratch.span_sum[t];
            scratch.span_sum[t] += self.time_of_var[var][k][value as usize] - self.min_time[var];
        }
        // Occupancy: every task sharing the span runs this group on
        // `value`, so each adds its standalone time to that PU's load.
        let pu = value as usize;
        scratch.saved_load[var] = scratch.pu_load[pu];
        for times in &self.time_of_var[var] {
            scratch.pu_load[pu] += times[pu];
        }
        scratch.vals[var] = value;
        scratch.assigned[var] = true;
    }

    fn pop(&self, scratch: &mut ScheduleScratch, var: usize) {
        scratch.assigned[var] = false;
        for (k, &t) in self.tasks_of_var[var].iter().enumerate() {
            scratch.span_sum[t] = scratch.saved_span[var][k];
        }
        scratch.pu_load[scratch.vals[var] as usize] = scratch.saved_load[var];
        // LIFO means the neighbour state now matches what the matching
        // push saw, so the recomputed delta is the one that was added.
        let delta = self.transition_delta(scratch, var, scratch.vals[var]);
        if delta > 0 {
            let rep = self.rep_of_var[var];
            let old = scratch.trans[rep];
            scratch.trans[rep] = old - delta;
            if old > self.config.max_transitions_per_task
                && scratch.trans[rep] <= self.config.max_transitions_per_task
            {
                scratch.violations -= 1;
            }
        }
    }

    fn prune_with(&self, scratch: &ScheduleScratch, _partial: &PartialAssignment) -> bool {
        scratch.violations > 0
    }

    fn bound_with(&self, scratch: &ScheduleScratch, _partial: &PartialAssignment) -> f64 {
        match self.config.objective {
            Objective::MinMaxLatency => (0..self.task_spans.len())
                .map(|t| self.task_lower_bound_inc(t, scratch))
                .fold(occupancy_bound(&scratch.pu_load), f64::max),
            Objective::MaxThroughput => -(0..self.task_spans.len())
                .map(|t| 1000.0 / self.task_lower_bound_inc(t, scratch).max(1e-9))
                .sum::<f64>(),
        }
    }

    fn cost_with(&self, scratch: &mut ScheduleScratch, assignment: &Assignment) -> Option<f64> {
        // Same feasibility verdict as `cost`, answered from the
        // delta-maintained transition counters (the contract requires the
        // scratch's push history to match `assignment`, so no rescan).
        if scratch.violations > 0 {
            return None;
        }
        // Flat row-major view straight off the solver assignment — no
        // per-leaf `Vec<Vec<usize>>` — into the reusable workspace. The
        // arithmetic is `evaluate_into`'s either way, so the result is
        // bit-identical to `cost`.
        let summary = self.evaluator.evaluate_into(&mut scratch.ws, |t, g| {
            assignment[self.task_spans[t].0 + g] as usize
        });
        self.objective_of(summary.max_wait_ms, scratch.ws.task_latency_ms())
    }
}

/// The PU-occupancy term of the `MinMaxLatency` lower bound: the
/// busiest PU's summed standalone time, shaved by [`OCCUPANCY_SLACK`].
///
/// Admissible because the timeline serializes each PU: a group starts at
/// or after the PU's previous group ended (`start ≥ pu_free ≥ 0`) and
/// runs at least its standalone time (slowdown ≥ 1, transitions ≥ 0), so
/// the last group on a PU ends no earlier than the PU's summed times —
/// and that group's task, hence the max task latency, ends no earlier.
/// Unassigned variables add nothing, so the root bound is unchanged.
#[inline]
fn occupancy_bound(load: &[f64]) -> f64 {
    load.iter().copied().fold(0.0, f64::max) * OCCUPANCY_SLACK
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::DnnTask;
    use haxconn_dnn::Model;
    use haxconn_profiler::NetworkProfile;
    use haxconn_soc::orin_agx;
    use haxconn_solver::{solve, SolveOptions};

    fn setup(models: &[Model]) -> (haxconn_soc::Platform, Workload, ContentionModel) {
        let p = orin_agx();
        let tasks = models
            .iter()
            .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, 6)))
            .collect();
        let cm = ContentionModel::calibrate(&p);
        (p, Workload::concurrent(tasks), cm)
    }

    #[test]
    fn domains_exclude_unsupported_pus() {
        let (p, w, cm) = setup(&[Model::GoogleNet]);
        let enc = ScheduleEncoding::new(&w, &cm, SchedulerConfig::default());
        // GoogleNet's LRN stem group must be GPU-pinned.
        let pinned = (0..enc.num_vars())
            .filter(|&v| enc.domain(v) == [p.gpu() as u32])
            .count();
        assert!(pinned >= 1);
    }

    /// SplitMix64: seeded, dependency-free randomness for the property
    /// tests below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn profiled(p: &Platform, models: &[Model], groups: usize) -> Vec<DnnTask> {
        models
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                DnnTask::new(
                    format!("{}#{i}", m.name()),
                    NetworkProfile::profile(p, m, groups),
                )
            })
            .collect()
    }

    /// Random partials (any density, any variables), each checked against
    /// random completions: every feasible completion costs at least the
    /// partial's bound, from-scratch and incremental alike. Returns
    /// `(completions checked, partials where the occupancy term is the
    /// binding one)`.
    fn check_admissible(enc: &ScheduleEncoding, rng: &mut Rng, label: &str) -> (usize, usize) {
        let n = enc.num_vars();
        let mut scratch = enc.new_scratch();
        let (mut checked, mut occupancy_binds) = (0, 0);
        for trial in 0..48 {
            let density = rng.below(101);
            // Every fourth partial leans on one PU, where the occupancy
            // term is tightest.
            let lean = (trial % 4 == 0).then(|| rng.below(2));
            let partial: Vec<Option<u32>> = (0..n)
                .map(|v| {
                    (rng.below(100) < density).then(|| {
                        let d = enc.domain(v);
                        match lean {
                            Some(i) => d[i.min(d.len() - 1)],
                            None => d[rng.below(d.len())],
                        }
                    })
                })
                .collect();
            let b = enc.bound(&partial);
            for (v, value) in partial.iter().enumerate() {
                if let Some(x) = *value {
                    enc.push(&mut scratch, v, x);
                }
            }
            let b_inc = enc.bound_with(&scratch, &partial);
            for v in (0..n).rev() {
                if partial[v].is_some() {
                    enc.pop(&mut scratch, v);
                }
            }
            assert!(
                (b - b_inc).abs() <= 1e-9,
                "{label}: bound {b} vs incremental {b_inc}"
            );
            let per_task = (0..enc.task_spans.len())
                .map(|t| enc.task_lower_bound(t, &partial))
                .fold(0.0, f64::max);
            if b > per_task {
                occupancy_binds += 1;
            }
            for _ in 0..4 {
                let full: Assignment = (0..n)
                    .map(|v| {
                        partial[v].unwrap_or_else(|| {
                            let d = enc.domain(v);
                            d[rng.below(d.len())]
                        })
                    })
                    .collect();
                if let Some(c) = enc.cost(&full) {
                    checked += 1;
                    assert!(
                        c >= b && c >= b_inc,
                        "{label}: cost {c} below bound {b} / {b_inc} of {partial:?}"
                    );
                }
            }
        }
        (checked, occupancy_binds)
    }

    #[test]
    fn bound_is_admissible() {
        let orin = orin_agx();
        let xavier = haxconn_soc::xavier_agx();
        let dual = haxconn_soc::orin_agx_dual_dla();
        let concurrent =
            |p: &Platform, models: &[Model]| Workload::concurrent(profiled(p, models, 5));
        // Two-stage pipeline unrolled over two frames: frame 1 is tied to
        // frame 0's mapping, so tied copies load the PUs too.
        let pipelined = {
            let tasks = profiled(
                &orin,
                &[
                    Model::ResNet18,
                    Model::GoogleNet,
                    Model::ResNet18,
                    Model::GoogleNet,
                ],
                4,
            );
            Workload::concurrent(tasks)
                .with_dep(0, 1)
                .with_dep(2, 3)
                .with_tie(2, 0)
                .with_tie(3, 1)
        };
        let cases = [
            (
                "orin_agx",
                &orin,
                concurrent(&orin, &[Model::GoogleNet, Model::ResNet18, Model::ResNet50]),
            ),
            (
                "xavier",
                &xavier,
                concurrent(&xavier, &[Model::Vgg19, Model::ResNet101]),
            ),
            (
                "orin_agx_dual_dla",
                &dual,
                concurrent(
                    &dual,
                    &[Model::GoogleNet, Model::GoogleNet, Model::ResNet18],
                ),
            ),
            ("pipeline+ties", &orin, pipelined),
        ];
        let mut rng = Rng(0x5EED);
        for (name, p, w) in &cases {
            let cm = ContentionModel::calibrate(p);
            for epsilon_ms in [Some(0.35), None] {
                let cfg = SchedulerConfig {
                    epsilon_ms,
                    ..Default::default()
                };
                let enc = ScheduleEncoding::new(w, &cm, cfg);
                let label = format!("{name} eps={epsilon_ms:?}");
                let (checked, binds) = check_admissible(&enc, &mut rng, &label);
                assert!(checked > 0, "{label}: no feasible completion sampled");
                assert!(binds > 0, "{label}: the occupancy term never bound");
                // Unassigned variables add no load: the root bound is the
                // per-task bound alone.
                let empty: Vec<Option<u32>> = vec![None; enc.num_vars()];
                let per_task = (0..enc.task_spans.len())
                    .map(|t| enc.task_lower_bound(t, &empty))
                    .fold(0.0, f64::max);
                assert_eq!(enc.bound(&empty).to_bits(), per_task.to_bits(), "{label}");
            }
        }
    }

    #[test]
    fn three_tenant_mix_solves_to_the_brute_force_optimum() {
        // The arrival engine's largest mixes are three tenants of five
        // groups: the tightened bound must leave the lex-first optimum —
        // cost and assignment — bit for bit where exhaustive enumeration
        // puts it.
        let p = orin_agx();
        let w = Workload::concurrent(profiled(
            &p,
            &[Model::GoogleNet, Model::ResNet18, Model::ResNet50],
            5,
        ));
        let cm = ContentionModel::calibrate(&p);
        assert_eq!(w.num_vars(), 15);
        for epsilon_ms in [Some(0.35), None] {
            let cfg = SchedulerConfig {
                epsilon_ms,
                ..Default::default()
            };
            let enc = ScheduleEncoding::new(&w, &cm, cfg);
            let (a_bf, c_bf) = haxconn_solver::brute_force(&enc).expect("feasible");
            let (a_bb, c_bb) = solve(&enc, SolveOptions::default()).best.expect("feasible");
            assert_eq!(c_bb.to_bits(), c_bf.to_bits(), "eps={epsilon_ms:?}");
            assert_eq!(a_bb, a_bf, "eps={epsilon_ms:?}");
        }
    }

    #[test]
    fn prune_rejects_transition_storms() {
        let (p, w, cm) = setup(&[Model::ResNet50]);
        let cfg = SchedulerConfig {
            max_transitions_per_task: 1,
            ..Default::default()
        };
        let enc = ScheduleEncoding::new(&w, &cm, cfg);
        // Alternating partial assignment exceeds the budget quickly.
        let mut partial: Vec<Option<u32>> = vec![None; enc.num_vars()];
        let mut ok = true;
        for v in 0..enc.num_vars().min(5) {
            let d = enc.domain(v);
            let pu = if v % 2 == 0 {
                p.gpu() as u32
            } else if d.len() > 1 {
                p.dsa() as u32
            } else {
                d[0]
            };
            partial[v] = Some(pu);
            if enc.prune(&partial) {
                ok = false;
                break;
            }
        }
        assert!(!ok, "alternating assignment should be pruned");
    }

    #[test]
    fn solver_finds_schedule_no_worse_than_gpu_only() {
        let (p, w, cm) = setup(&[Model::GoogleNet, Model::ResNet101]);
        let cfg = SchedulerConfig {
            epsilon_ms: None, // relaxed: queuing modeled, not forbidden
            max_transitions_per_task: 1,
            ..Default::default()
        };
        let enc = ScheduleEncoding::new(&w, &cm, cfg);
        let sol = solve(&enc, SolveOptions::default());
        let (best, cost) = sol.best.expect("feasible");
        // Compare against all-GPU in the same cost metric.
        let gpu_only: Vec<u32> = (0..enc.num_vars()).map(|_| p.gpu() as u32).collect();
        let gpu_cost = enc.cost(&gpu_only).unwrap();
        assert!(cost <= gpu_cost + 1e-9, "optimal {cost} vs gpu {gpu_cost}");
        assert_eq!(best.len(), enc.num_vars());
    }

    #[test]
    fn symmetry_spec_detects_the_dual_dla_value_class() {
        let p = haxconn_soc::orin_agx_dual_dla();
        let prof = |m: Model| NetworkProfile::profile(&p, m, 6);
        let w = Workload::concurrent(vec![
            DnnTask::new("GoogleNet#0", prof(Model::GoogleNet)),
            DnnTask::new("GoogleNet#1", prof(Model::GoogleNet)),
            DnnTask::new("ResNet18", prof(Model::ResNet18)),
        ]);
        let cm = ContentionModel::calibrate(&p);
        let enc = ScheduleEncoding::new(&w, &cm, SchedulerConfig::default());
        let spec = enc.symmetry_spec(&p);
        // The two NVDLAs are one value class. Duplicate instances are
        // *not* blocks here (see the next test).
        assert_eq!(spec.value_classes, vec![vec![1, 2]]);
        assert!(spec.var_blocks.is_empty());
        assert_eq!(spec.num_rules(), 1);
        // The single-DLA Orin has no interchangeable PUs at all.
        let single = orin_agx();
        let w1 = Workload::concurrent(vec![DnnTask::new(
            "a",
            NetworkProfile::profile(&single, Model::GoogleNet, 6),
        )]);
        let cm1 = ContentionModel::calibrate(&single);
        let enc1 = ScheduleEncoding::new(&w1, &cm1, SchedulerConfig::default());
        assert!(enc1.symmetry_spec(&single).is_empty());
    }

    #[test]
    fn instance_swap_is_not_a_timeline_symmetry() {
        // Why `symmetry_spec` refuses to emit duplicate-instance variable
        // blocks: the timeline dispatches same-PU overlaps in task-index
        // order, so giving the DLA excursion to instance 0 vs instance 1
        // changes who dispatches first on the GPU — a real cost change,
        // not a relabeling.
        let p = haxconn_soc::orin_agx_dual_dla();
        let prof = || NetworkProfile::profile(&p, Model::GoogleNet, 6);
        let w = Workload::concurrent(vec![
            DnnTask::new("GoogleNet#0", prof()),
            DnnTask::new("GoogleNet#1", prof()),
        ]);
        let cm = ContentionModel::calibrate(&p);
        let cfg = SchedulerConfig {
            epsilon_ms: None,
            max_transitions_per_task: 1,
            ..Default::default()
        };
        let enc = ScheduleEncoding::new(&w, &cm, cfg);
        let n = enc.num_vars();
        let mut a: Vec<u32> = vec![0; n];
        // Instance 0 takes a DLA excursion, instance 1 stays on GPU...
        for v in [2, 3, 4] {
            if enc.domain(v).contains(&1) {
                a[v] = 1;
            }
        }
        let mut swapped = a[n / 2..].to_vec();
        swapped.extend_from_slice(&a[..n / 2]);
        let (ca, cb) = (enc.cost(&a), enc.cost(&swapped));
        let (ca, cb) = (ca.expect("feasible"), cb.expect("feasible"));
        assert!(
            (ca - cb).abs() > 1e-6,
            "expected the swapped twin to cost differently ({ca} vs {cb})"
        );
    }

    #[test]
    fn symmetric_wrapper_preserves_the_schedule_optimum() {
        let p = haxconn_soc::orin_agx_dual_dla();
        let prof = |m: Model| NetworkProfile::profile(&p, m, 4);
        let w = Workload::concurrent(vec![
            DnnTask::new("GoogleNet#0", prof(Model::GoogleNet)),
            DnnTask::new("GoogleNet#1", prof(Model::GoogleNet)),
        ]);
        let cm = ContentionModel::calibrate(&p);
        let cfg = SchedulerConfig {
            epsilon_ms: None,
            max_transitions_per_task: 1,
            ..Default::default()
        };
        let enc = ScheduleEncoding::new(&w, &cm, cfg);
        let plain = solve(&enc, SolveOptions::default());
        let spec = enc.symmetry_spec(&p);
        assert!(!spec.is_empty());
        let sym = haxconn_solver::Symmetric::new(&enc, spec);
        let broken = solve(&sym, SolveOptions::default());
        let (_, c_plain) = plain.best.expect("feasible");
        let (_, c_sym) = broken.best.expect("feasible");
        assert!(
            (c_plain - c_sym).abs() <= 1e-9,
            "symmetry breaking moved the optimum: {c_plain} vs {c_sym}"
        );
        assert!(
            broken.stats.nodes < plain.stats.nodes,
            "expected fewer nodes with symmetry broken ({} vs {})",
            broken.stats.nodes,
            plain.stats.nodes
        );
    }

    #[test]
    fn epsilon_constraint_rejects_colocated_heavyweights() {
        let (p, w, cm) = setup(&[Model::ResNet101, Model::ResNet101]);
        let cfg = SchedulerConfig {
            epsilon_ms: Some(0.01),
            ..Default::default()
        };
        let enc = ScheduleEncoding::new(&w, &cm, cfg);
        // Everything on GPU: the second instance queues for milliseconds.
        let gpu_only: Vec<u32> = (0..enc.num_vars()).map(|_| p.gpu() as u32).collect();
        assert!(enc.cost(&gpu_only).is_none());
    }
}
