//! arrival-replay: one in-process `arrival::replay` call per round over a
//! seeded multi-tenant trace — the re-solve path (warm-started ε-relaxed
//! encodings, parallel B&B, the signature-keyed schedule cache) with no
//! HTTP. The replay's own timing of each cache-miss re-solve (its
//! `dynamic.resolve.ms` telemetry) is this workload's request latency.

use crate::layers::{self, SolveCounts};
use crate::load;
use crate::quality;
use crate::report::{int, Report};
use crate::trace::Tracer;
use crate::{Args, Timed};
use haxconn::contention::ContentionModel;
use haxconn::core::arrival::{
    replay, ArrivalTrace, ReplayOptions, ResolveAction, ResolvePolicy, TenantEvent, TenantReport,
};
use haxconn::core::measure::measure;
use haxconn::core::problem::{DnnTask, Workload};
use haxconn::core::{parse_model, WorkloadSpec};
use haxconn::dnn::Model;
use haxconn::profiler::NetworkProfile;
use haxconn::soc::{Platform, PlatformId};
use haxconn::telemetry::{self, Recorder};
use serde::Value;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

const MAX_TENANTS: usize = 3;
/// Trace events per second of `--seconds`, split evenly over the rounds:
/// the replays then take about the run length on a 2-vCPU host.
const EVENTS_PER_SECOND: usize = 850;
/// The warm-up trace: fixed, so every run's set-up does the same work.
const WARMUP_SEED: u64 = 0x3A57;
const WARMUP_EVENTS: usize = 400;
/// Distinct tenant mixes replayed through the solve-path layers when
/// traced.
const TRACE_SOLVE_MIXES: usize = 40;

fn options() -> ReplayOptions {
    ReplayOptions {
        policy: ResolvePolicy::Immediate,
        validate: true,
        workers: load::nproc(),
        ..ReplayOptions::default()
    }
}

/// Keeps every `dynamic.resolve.ms` observation and ignores every other
/// telemetry name.
#[derive(Default)]
struct Resolves(Mutex<Vec<f64>>);

impl Recorder for Resolves {
    fn histogram_record(&self, name: &str, value: f64) {
        if name == "dynamic.resolve.ms" {
            self.0.lock().expect("no recorder panics").push(value);
        }
    }
}

impl Resolves {
    /// The process-wide recorder, installed on first use.
    fn get() -> Result<&'static Arc<Resolves>, String> {
        static RESOLVES: OnceLock<Arc<Resolves>> = OnceLock::new();
        let mut installed = true;
        let rec = RESOLVES.get_or_init(|| {
            let rec = Arc::new(Resolves::default());
            installed = telemetry::install(rec.clone());
            rec
        });
        if installed {
            Ok(rec)
        } else {
            Err("another telemetry recorder is installed".into())
        }
    }

    /// The re-solve times recorded since the last call, ms.
    fn take(&self) -> Vec<f64> {
        std::mem::take(&mut *self.0.lock().expect("no recorder panics"))
    }
}

struct Ctx {
    platform: Platform,
    contention: ContentionModel,
}

/// Build the replay context, then replay a short warm-up trace.
fn setup() -> Result<Ctx, String> {
    let platform = PlatformId::OrinAgx.platform();
    let contention = ContentionModel::calibrate(&platform);
    let warm = ArrivalTrace::generate(WARMUP_SEED, WARMUP_EVENTS, MAX_TENANTS);
    let report = replay(&platform, &contention, &warm, &options()).map_err(|e| format!("{e}"))?;
    if report.violations != 0 {
        return Err(format!("warm-up replay: {} violations", report.violations));
    }
    Ok(Ctx {
        platform,
        contention,
    })
}

/// A tenant mix: (model name, groups) per tenant, in canonical order.
type Shape = Vec<(&'static str, usize)>;

/// Rebuilds the workloads of recorded tenant mixes.
struct Mixes<'a> {
    platform: &'a Platform,
    tenants: BTreeMap<String, (Model, usize)>,
    profiles: BTreeMap<(&'static str, usize), NetworkProfile>,
}

impl<'a> Mixes<'a> {
    fn new(platform: &'a Platform, trace: &ArrivalTrace) -> Result<Mixes<'a>, String> {
        let mut tenants = BTreeMap::new();
        for e in &trace.events {
            if let TenantEvent::Join { tenant } = &e.event {
                let model = parse_model(&tenant.model).map_err(|e| format!("{e}"))?;
                tenants.insert(tenant.name.clone(), (model, tenant.groups));
            }
        }
        Ok(Mixes {
            platform,
            tenants,
            profiles: BTreeMap::new(),
        })
    }

    fn shape(&self, names: &[String]) -> Shape {
        names
            .iter()
            .map(|n| {
                let (model, groups) = self.tenants[n];
                (model.name(), groups)
            })
            .collect()
    }

    fn workload(&mut self, names: &[String]) -> Workload {
        let tasks = names
            .iter()
            .map(|n| {
                let (model, groups) = self.tenants[n];
                let platform = self.platform;
                let profile = self
                    .profiles
                    .entry((model.name(), groups))
                    .or_insert_with(|| NetworkProfile::profile(platform, model, groups))
                    .clone();
                DnnTask::new(n.clone(), profile)
            })
            .collect();
        Workload::concurrent(tasks)
    }
}

/// DES quality of the adopted schedules of one or more replays: mean
/// latency over every adopted schedule, and the geometric-mean speedup
/// over the best baseline of each distinct solved mix.
#[derive(Default)]
struct Quality {
    measured: BTreeMap<(Shape, Vec<Vec<usize>>), f64>,
    ratios: BTreeMap<Shape, f64>,
    sum_ms: f64,
    points: usize,
}

impl Quality {
    fn add(
        &mut self,
        ctx: &Ctx,
        mixes: &mut Mixes,
        report: &TenantReport,
        mut t: Option<&mut Tracer>,
    ) {
        for (i, p) in report.resolve_points.iter().enumerate() {
            let shape = mixes.shape(&p.tenants);
            let key = (shape.clone(), p.assignment.clone());
            let lat = match self.measured.get(&key) {
                Some(&l) => l,
                None => {
                    let workload = mixes.workload(&p.tenants);
                    let id = t.as_mut().map(|t| t.begin("des.measure", None, i as u32));
                    let l = measure(&ctx.platform, &workload, &p.assignment).latency_ms;
                    if let (Some(t), Some(id)) = (t.as_mut(), id) {
                        t.end(id);
                    }
                    if p.action == ResolveAction::Solved && !self.ratios.contains_key(&shape) {
                        self.ratios.insert(
                            shape,
                            quality::best_baseline_ms(&ctx.platform, &workload) / l,
                        );
                    }
                    self.measured.insert(key, l);
                    l
                }
            };
            self.sum_ms += lat;
            self.points += 1;
        }
    }

    /// `(sched_speedup, sim_latency_ms)`.
    fn get(&self) -> (f64, f64) {
        let ratios: Vec<f64> = self.ratios.values().copied().collect();
        (
            quality::geomean(&ratios),
            self.sum_ms / self.points.max(1) as f64,
        )
    }
}

/// One replay: its report, wall time and process CPU time, s.
fn timed_replay(ctx: &Ctx, trace: &ArrivalTrace) -> Result<(TenantReport, f64, f64), String> {
    let cpu_started = load::process_cpu_s();
    let started = Instant::now();
    let report =
        replay(&ctx.platform, &ctx.contention, trace, &options()).map_err(|e| format!("{e}"))?;
    Ok((
        report,
        started.elapsed().as_secs_f64(),
        load::process_cpu_s() - cpu_started,
    ))
}

fn check_report(report: &TenantReport, events: usize, r: &mut Report) {
    r.check(report.violations == 0, || {
        format!(
            "{} invariant violations: {:?}",
            report.violations, report.violation_samples
        )
    });
    r.check(report.events == events, || {
        format!("replayed {} of {events} events", report.events)
    });
}

/// Round `round`'s trace. The generator ignores its seed's lowest bit,
/// so the run seed is hashed first: consecutive run seeds must give
/// different traces.
fn round_trace(args: &Args, round: usize) -> ArrivalTrace {
    let events = EVENTS_PER_SECOND * args.seconds as usize / crate::ROUNDS;
    let seed = crate::gen::mix(args.seed ^ ((round as u64) << 40));
    ArrivalTrace::generate(seed, events, MAX_TENANTS)
}

pub fn run(args: &Args, r: &mut Report) -> Result<(), String> {
    let resolves = Resolves::get()?;
    if args.trace {
        return traced(args, &round_trace(args, 0), resolves, r);
    }
    let mut quality = Quality::default();
    let mut lat_us = Vec::new();
    let (mut events, mut wall_s) = (0, 0.0);
    crate::rounds(
        args,
        r,
        |_| setup(),
        |round, ctx, _, r| {
            let trace = round_trace(args, round);
            resolves.take();
            let (report, wall, cpu_s) = timed_replay(&ctx, &trace)?;
            lat_us.extend(resolves.take().iter().map(|ms| ms * 1e3));
            check_report(&report, trace.len(), r);
            quality.add(&ctx, &mut Mixes::new(&ctx.platform, &trace)?, &report, None);
            events += trace.len();
            wall_s += wall;
            Ok(Timed {
                out: (),
                ops: trace.len(),
                cpu_s,
            })
        },
    )?;
    let lat_us = load::sorted(lat_us);
    r.check(!lat_us.is_empty(), || {
        "no cache-miss re-solve was recorded".into()
    });
    r.count(events as u64, 0);
    crate::latency_info(&lat_us, r);
    r.info("throughput_per_s", Value::Float(events as f64 / wall_s));
    let (speedup, latency) = quality.get();
    r.metric("sched_speedup", speedup);
    r.metric("sim_latency_ms", latency);
    r.info("samples", int(lat_us.len()));
    r.info("events", int(events));
    Ok(())
}

fn traced(
    args: &Args,
    trace: &ArrivalTrace,
    resolves: &Resolves,
    r: &mut Report,
) -> Result<(), String> {
    let events = trace.len();
    let ctx = setup()?;
    resolves.take();
    let (plain, plain_s, _) = timed_replay(&ctx, trace)?;
    let resolve_ms = resolves.take();
    let mut tracer = Tracer::new();
    let root = tracer.begin("arrival.replay", None, u32::MAX);
    let (traced, traced_s, _) = timed_replay(&ctx, trace)?;
    tracer.end(root);
    check_report(&plain, events, r);
    r.check(plain.to_json() == traced.to_json(), || {
        "traced and untraced replays differ in TenantReport::to_json bytes".into()
    });
    r.count(2 * events as u64, 0);
    crate::overhead_metrics(events as f64 / plain_s, events as f64 / traced_s, r);

    let mut mixes = Mixes::new(&ctx.platform, trace)?;
    let solved = plain
        .resolve_points
        .iter()
        .filter(|p| p.action == ResolveAction::Solved)
        .count();
    r.metric("arrival.solved", solved as f64);
    r.metric("arrival.skipped", plain.resolve_skips as f64);
    r.metric(
        "arrival.cache_hit_ratio",
        plain.cache_hits as f64 / plain.resolves.max(1) as f64,
    );
    r.metric(
        "arrival.solve_share",
        resolve_ms.iter().sum::<f64>() / 1e3 / plain_s,
    );
    Quality::default().add(&ctx, &mut mixes, &plain, Some(&mut tracer));

    // The profiler, scheduler, solver, timeline, fleet and Session
    // layers on the first distinct tenant mixes, each expressed as a
    // WorkloadSpec. Emitted first, so the DES spans of the adopted
    // schedules take precedence.
    let mut seen = std::collections::BTreeSet::new();
    let mut specs = Vec::new();
    for p in &plain.resolve_points {
        let shape = mixes.shape(&p.tenants);
        if specs.len() < TRACE_SOLVE_MIXES && seen.insert(shape.clone()) {
            let spec = shape
                .iter()
                .fold(WorkloadSpec::new("orin-agx"), |s, (m, g)| s.task(*m, *g));
            specs.push(spec);
        }
    }
    let mut solve_tracer = Tracer::new();
    let mut solve_counts = SolveCounts::default();
    layers::solve_path(&specs, &mut solve_tracer, 0, &mut solve_counts, r);
    solve_counts.emit(r);
    layers::emit_spans(&solve_tracer, r);
    layers::emit_spans(&tracer, r);
    crate::write_spans(&[("request", &tracer), ("solve", &solve_tracer)], args, r)?;
    Ok(())
}
