//! The solve-path layer replay shared by the traced runs: each spec goes
//! through the profiler, scheduler, solver, timeline, DES, fleet runtime
//! and `Session` public calls, each call inside its own span.

use crate::report::Report;
use crate::trace::Tracer;
use haxconn::contention::ContentionModel;
use haxconn::core::baselines::{Baseline, BaselineKind};
use haxconn::core::encoding::ScheduleEncoding;
use haxconn::core::measure::measure;
use haxconn::core::scheduler::HaxConn;
use haxconn::core::timeline::TimelineEvaluator;
use haxconn::core::WorkloadSpec;
use haxconn::runtime::{evaluate_fleet, FleetOptions, FleetScenario};
use haxconn::session::Session;
use haxconn::solver::{solve, SolveOptions};
use std::collections::BTreeMap;

/// Per-layer counters the spans cannot carry.
#[derive(Default)]
pub struct SolveCounts {
    pub nodes: Vec<f64>,
    pub leaves: u64,
    pub solve_ns: f64,
    pub scenarios: u64,
    pub fleet_s: f64,
}

impl SolveCounts {
    pub fn add_solve(&mut self, nodes: u64, leaves: u64, ns: f64) {
        self.nodes.push(nodes as f64);
        self.leaves += leaves;
        self.solve_ns += ns;
    }

    pub fn emit(&self, r: &mut Report) {
        let total_nodes: f64 = self.nodes.iter().sum();
        if total_nodes > 0.0 {
            r.metric("solver.nodes", crate::load::median(&self.nodes));
            r.metric("solver.ns_per_node", self.solve_ns / total_nodes);
            r.metric("solver.leaf_ratio", self.leaves as f64 / total_nodes);
        }
        if self.fleet_s > 0.0 {
            r.metric(
                "runtime.scenarios_per_s",
                self.scenarios as f64 / self.fleet_s,
            );
        }
    }
}

/// Replays `specs` through the solve-path layers, opening request ids at
/// `req_base`. Checks that `Session` and `HaxConn` agree bit for bit.
pub fn solve_path(
    specs: &[WorkloadSpec],
    t: &mut Tracer,
    req_base: u32,
    counts: &mut SolveCounts,
    r: &mut Report,
) {
    let mut models: BTreeMap<String, ContentionModel> = BTreeMap::new();
    for (i, spec) in specs.iter().enumerate() {
        let req = req_base + i as u32;
        let root = t.begin("solve_path", None, req);
        let resolved = t.leaf("profiler.resolve", Some(root), req, || spec.resolve());
        let Ok((platform, workload)) = resolved else {
            r.check(false, || format!("spec {i} does not resolve"));
            t.end(root);
            continue;
        };
        let cm = models
            .entry(platform.name.clone())
            .or_insert_with(|| ContentionModel::calibrate(&platform))
            .clone();
        let config = spec.effective_config();
        let scheduled = t.leaf("scheduler.schedule", Some(root), req, || {
            HaxConn::try_schedule(&platform, &workload, &cm, config)
        });
        let Ok(schedule) = scheduled else {
            r.check(false, || format!("spec {i}: try_schedule failed"));
            t.end(root);
            continue;
        };
        let baseline = t.leaf("scheduler.baseline", Some(root), req, || {
            HaxConn::best_baseline(&platform, &workload, &cm, config)
        });
        r.check(baseline.is_ok(), || {
            format!("spec {i}: best_baseline failed")
        });
        let started = std::time::Instant::now();
        let sol = t.leaf("solver.solve", Some(root), req, || {
            let enc = ScheduleEncoding::new(&workload, &cm, config);
            solve(&enc, SolveOptions::default())
        });
        counts.add_solve(
            sol.stats.nodes,
            sol.stats.leaves,
            started.elapsed().as_nanos() as f64,
        );
        let predicted = t.leaf("timeline.eval", Some(root), req, || {
            let mut ev = TimelineEvaluator::new(&workload, &cm);
            ev.contention_aware = config.contention_aware;
            ev.evaluate(&schedule.assignment)
        });
        r.check(
            predicted.makespan_ms.to_bits() == schedule.predicted.makespan_ms.to_bits(),
            || format!("spec {i}: timeline re-evaluation differs from the schedule"),
        );
        t.leaf("des.measure", Some(root), req, || {
            measure(&platform, &workload, &schedule.assignment)
        });
        let mut candidates: Vec<Vec<Vec<usize>>> = BaselineKind::all()
            .iter()
            .map(|&k| Baseline::assignment(k, &platform, &workload))
            .collect();
        candidates.push(schedule.assignment.clone());
        let scenarios: Vec<FleetScenario> = candidates
            .into_iter()
            .map(|assignment| FleetScenario {
                workload: &workload,
                assignment,
                iterations: 1,
            })
            .collect();
        let started = std::time::Instant::now();
        t.leaf("runtime.fleet", Some(root), req, || {
            evaluate_fleet(&platform, &scenarios, FleetOptions::default())
        });
        counts.fleet_s += started.elapsed().as_secs_f64();
        counts.scenarios += scenarios.len() as u64;
        let session = t.leaf("session.schedule", Some(root), req, || {
            Session::from_spec(spec).schedule()
        });
        match session {
            Ok(s) => r.check(
                s.schedule.assignment == schedule.assignment
                    && s.schedule.cost.to_bits() == schedule.cost.to_bits(),
                || format!("spec {i}: Session and HaxConn disagree"),
            ),
            Err(e) => r.check(false, || format!("spec {i}: Session failed: {e}")),
        }
        t.end(root);
    }
}

/// The per-layer metrics read off span self times (p50; the scheduler
/// also gets p99).
pub fn emit_spans(t: &Tracer, r: &mut Report) {
    let selfs = t.self_times_us();
    let p = |name: &str, q: f64| {
        selfs
            .get(name)
            .map(|v| crate::load::quantile(&crate::load::sorted(v.clone()), q))
    };
    let us = [
        ("spec.parse", "spec.parse_us"),
        ("spec.canon", "spec.canon_us"),
        ("spec.key", "spec.key_us"),
        ("engine.probe", "engine.probe_us"),
        ("api.serialize", "api.serialize_us"),
        ("timeline.eval", "timeline.eval_us"),
        ("des.measure", "des.measure_us"),
    ];
    for (span, metric) in us {
        if let Some(v) = p(span, 0.5) {
            r.metric(metric, v);
        }
    }
    let ms = [
        ("profiler.resolve", "profiler.resolve_ms"),
        ("scheduler.schedule", "scheduler.schedule_ms"),
        ("scheduler.baseline", "scheduler.baseline_ms"),
        ("solver.solve", "solver.solve_ms"),
        ("runtime.fleet", "runtime.fleet_ms"),
        ("session.schedule", "session.schedule_ms"),
    ];
    for (span, metric) in ms {
        if let Some(v) = p(span, 0.5) {
            r.metric(metric, v / 1e3);
        }
    }
    if let Some(v) = p("scheduler.schedule", 0.99) {
        r.metric("scheduler.schedule_p99_ms", v / 1e3);
    }
}

/// p50 self time of one span name, µs (0 when absent).
pub fn p50_us(t: &Tracer, name: &str) -> f64 {
    t.self_times_us().get(name).map_or(0.0, |v| {
        crate::load::quantile(&crate::load::sorted(v.clone()), 0.5)
    })
}
