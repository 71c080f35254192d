//! Schedule quality on the DES ground truth, and the output checks that
//! compare served schedules with in-process ones.

use crate::report::Report;
use haxconn::api::ScheduleResponse;
use haxconn::contention::ContentionModel;
use haxconn::core::baselines::{Baseline, BaselineKind};
use haxconn::core::measure::measure;
use haxconn::core::problem::Workload;
use haxconn::core::scheduler::{objective_cost, Schedule, ScheduleOrigin};
use haxconn::core::timeline::TimelineEvaluator;
use haxconn::core::validate::validate_schedule;
use haxconn::core::WorkloadSpec;
use haxconn::session::Session;
use haxconn::soc::Platform;

/// DES-measured latency of the best baseline for a workload.
pub fn best_baseline_ms(platform: &Platform, workload: &Workload) -> f64 {
    BaselineKind::all()
        .iter()
        .map(|&k| {
            measure(
                platform,
                workload,
                &Baseline::assignment(k, platform, workload),
            )
            .latency_ms
        })
        .fold(f64::INFINITY, f64::min)
}

pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

pub struct Quality {
    /// Geometric mean of best-baseline over served latency.
    pub speedup: f64,
    /// DES latency of each served schedule, ms.
    pub latency_ms: Vec<f64>,
}

/// Quality of the served `assignments[i]` for `specs[i]`.
pub fn of_specs(specs: &[WorkloadSpec], assignments: &[&[Vec<usize>]]) -> Result<Quality, String> {
    let mut ratios = Vec::with_capacity(specs.len());
    let mut latency_ms = Vec::with_capacity(specs.len());
    for (spec, assignment) in specs.iter().zip(assignments) {
        let (platform, workload) = spec.resolve().map_err(|e| format!("resolve: {e}"))?;
        let served = measure(&platform, &workload, assignment).latency_ms;
        ratios.push(best_baseline_ms(&platform, &workload) / served);
        latency_ms.push(served);
    }
    Ok(Quality {
        speedup: geomean(&ratios),
        latency_ms,
    })
}

/// The served answer must equal a fresh in-process `Session` schedule
/// bit for bit.
pub fn check_session(spec: &WorkloadSpec, answer: &ScheduleResponse, r: &mut Report) {
    match Session::from_spec(spec).schedule() {
        Ok(s) => r.check(
            s.schedule.assignment == answer.assignment
                && s.schedule.cost.to_bits() == answer.cost.to_bits()
                && s.schedule.predicted.makespan_ms.to_bits() == answer.makespan_ms.to_bits()
                && s.schedule.proven_optimal == answer.proven_optimal,
            || format!("served schedule differs from Session for {spec:?}"),
        ),
        Err(e) => r.check(false, || format!("Session failed for {spec:?}: {e}")),
    }
}

fn origin(wire: &str) -> Option<ScheduleOrigin> {
    if wire == "optimal" {
        return Some(ScheduleOrigin::Optimal);
    }
    let name = wire.strip_prefix("fallback:")?;
    BaselineKind::all()
        .iter()
        .find(|k| k.name() == name)
        .map(|&k| ScheduleOrigin::Fallback(k))
}

/// Rebuilds the served schedule on the client side and runs the full
/// invariant suite on it; the timeline re-evaluation must reproduce the
/// served makespan and cost bit for bit.
pub fn validate(
    spec: &WorkloadSpec,
    answer: &ScheduleResponse,
    contention: &ContentionModel,
) -> Result<(), String> {
    let (platform, workload) = spec.resolve().map_err(|e| format!("resolve: {e}"))?;
    let config = spec.effective_config();
    let mut ev = TimelineEvaluator::new(&workload, contention);
    ev.contention_aware = config.contention_aware;
    haxconn::core::validate::check_assignment(&platform, &workload, &answer.assignment)
        .map_err(|e| format!("{e}"))?;
    let predicted = ev.evaluate(&answer.assignment);
    if predicted.makespan_ms.to_bits() != answer.makespan_ms.to_bits()
        || objective_cost(config.objective, &predicted).to_bits() != answer.cost.to_bits()
    {
        return Err("served makespan/cost do not re-evaluate bit for bit".into());
    }
    let schedule = Schedule {
        assignment: answer.assignment.clone(),
        predicted,
        cost: answer.cost,
        origin: origin(&answer.origin).ok_or("unknown origin")?,
        proven_optimal: answer.proven_optimal,
    };
    let report = validate_schedule(&platform, &workload, &config, &schedule);
    if report.is_valid() {
        Ok(())
    } else {
        Err(format!("{report}"))
    }
}
