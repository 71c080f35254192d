//! cold-mix: a closed loop where every request is a distinct spec, so
//! every request solves and the cache only inserts and evicts.

use crate::gen::{self, COLD_BLOCK};
use crate::layers::{self, SolveCounts};
use crate::load;
use crate::quality;
use crate::report::{int, Report};
use crate::trace::Tracer;
use crate::{Args, Timed};
use haxconn::api::ScheduleResponse;
use haxconn::contention::ContentionModel;
use haxconn::core::engine::{Engine, EngineOptions};
use haxconn::core::WorkloadSpec;
use haxconn::serve::ServerHandle;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const CONNS: usize = 2;
/// Timed answers re-scheduled through `Session`.
const SESSION_SAMPLE: usize = 16;
/// The quality metrics cover the first two whole blocks of the timed
/// phase, whose model/platform composition is the same for every seed.
const QUALITY_SPECS: usize = 2 * COLD_BLOCK;
/// Specs of the traced run's round-trip phase and in-process replay.
const TRACE_SPECS: usize = COLD_BLOCK;
/// Of those, the specs replayed through the solve-path layers.
const TRACE_SOLVE_SPECS: usize = 80;

/// The first [`WARMUP_SPECS`] of the stream: more than the cache holds,
/// so the timed phase starts on a full cache that evicts.
const WARMUP_SPECS: usize = 2 * COLD_BLOCK;

fn setup(bodies: &[String]) -> Result<ServerHandle, String> {
    let server = load::boot()?;
    load::one_pass(
        server.addr(),
        CONNS,
        "/v1/schedule",
        &bodies[..WARMUP_SPECS],
    )?;
    Ok(server)
}

/// Closed loop over the stream from job `from`, each job sent once.
/// Returns the loop accounting and every parsed answer by job.
fn drive(
    addr: SocketAddr,
    conns: usize,
    bodies: &[String],
    from: usize,
    to: usize,
    until: Option<Instant>,
) -> (load::LoopOut, Vec<(usize, String)>) {
    let cursor = AtomicUsize::new(from);
    let answers = Mutex::new(Vec::new());
    let out = load::closed_loop(
        addr,
        conns,
        "/v1/schedule",
        bodies,
        until,
        &|_, _| {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            (i < to).then_some(i)
        },
        &|job, body| {
            answers
                .lock()
                .expect("no loop thread panics")
                .push((job, body.to_string()));
            Ok(())
        },
    );
    let mut answers = answers.into_inner().expect("no loop thread panics");
    answers.sort_by_key(|a| a.0);
    (out, answers)
}

fn parse(body: &str) -> Result<ScheduleResponse, String> {
    serde_json::from_str(body).map_err(|e| format!("answer: {e}"))
}

pub fn run(args: &Args, r: &mut Report) -> Result<(), String> {
    let stream = gen::cold_stream(args.seed);
    let bodies: Vec<String> = stream
        .iter()
        .map(|s| s.to_json().expect("a WorkloadSpec always serializes"))
        .collect();
    if args.trace {
        return traced(args, &stream, &bodies, r);
    }
    // The rounds walk the stream on from one to the next, so no spec is
    // timed twice in a run.
    let mut next = WARMUP_SPECS;
    let (mut degraded, mut evictions) = (0, 0);
    let rounds = crate::rounds(
        args,
        r,
        |_| setup(&bodies),
        |_, server, phase, r| {
            let (out, answers) = drive(
                server.addr(),
                CONNS,
                &bodies,
                next,
                bodies.len(),
                Some(Instant::now() + phase),
            );
            next += out.attempted as usize;
            let health = load::health(server.addr())?;
            r.check(health.engine.cache_hits == 0, || {
                format!(
                    "{} cache hits on never-repeating specs",
                    health.engine.cache_hits
                )
            });
            degraded += health.engine.degraded;
            evictions += health.engine.cache_evictions;
            Ok(Timed {
                ops: out.lat_us.len(),
                cpu_s: out.server_cpu_s,
                out: (out, answers),
            })
        },
    )?;
    let mut out = load::LoopOut::default();
    let mut answers = Vec::new();
    for (o, a) in rounds {
        out.merge(o);
        answers.extend(a);
    }
    if next >= bodies.len() {
        return Err("the spec stream ran out before the timed phase ended".into());
    }
    crate::loop_report(&out, r);
    r.info("degraded", int(degraded as usize));

    // Every served schedule passes the invariant suite.
    let mut models: BTreeMap<String, ContentionModel> = BTreeMap::new();
    let mut parsed = Vec::with_capacity(answers.len());
    for (job, body) in &answers {
        let answer = parse(body)?;
        let spec = &stream[*job];
        let cm = models.entry(spec.platform.clone()).or_insert_with(|| {
            let (platform, _) = spec.resolve().expect("stream specs resolve");
            ContentionModel::calibrate(&platform)
        });
        r.check(!answer.cached, || {
            format!("job {job}: a fresh spec was served cached")
        });
        if let Err(e) = quality::validate(spec, &answer, cm) {
            r.check(false, || format!("job {job}: {e}"));
        }
        parsed.push((*job, answer));
    }

    let mut rng = gen::Rng::new(args.seed ^ 0x5E55);
    for _ in 0..SESSION_SAMPLE.min(parsed.len()) {
        let (job, answer) = &parsed[rng.below(parsed.len())];
        quality::check_session(&stream[*job], answer, r);
    }

    let first: Vec<&(usize, ScheduleResponse)> = parsed
        .iter()
        .filter(|(job, _)| *job < WARMUP_SPECS + QUALITY_SPECS)
        .collect();
    let specs: Vec<WorkloadSpec> = first.iter().map(|(j, _)| stream[*j].clone()).collect();
    let served: Vec<&[Vec<usize>]> = first.iter().map(|(_, a)| &a.assignment[..]).collect();
    let q = quality::of_specs(&specs, &served)?;
    r.metric("sched_speedup", q.speedup);
    r.metric(
        "sim_latency_ms",
        q.latency_ms.iter().sum::<f64>() / q.latency_ms.len().max(1) as f64,
    );
    r.info("quality_specs", int(specs.len()));
    r.info("evictions", int(evictions as usize));
    Ok(())
}

fn traced(
    args: &Args,
    stream: &[WorkloadSpec],
    bodies: &[String],
    r: &mut Report,
) -> Result<(), String> {
    let server = setup(bodies)?;
    let (from, to) = (WARMUP_SPECS, WARMUP_SPECS + TRACE_SPECS);
    let (rtt, answers) = drive(server.addr(), 1, bodies, from, to, None);
    r.count(rtt.attempted, rtt.failed);
    r.check(rtt.failed == 0 && answers.len() == TRACE_SPECS, || {
        format!("round-trip phase: {:?}", rtt.first_error)
    });
    let health = load::health(server.addr())?;
    drop(server);
    crate::engine_metrics(&health, r);
    let rtt_us = load::median(&rtt.lat_us);
    r.metric("serve.rtt_us", rtt_us);

    // In-process replay of the same specs on a fresh engine (so each
    // one solves again): untraced, then traced.
    let replay = |t: &mut Option<&mut Tracer>| -> Result<f64, String> {
        let engine = Engine::new(EngineOptions::default());
        let started = Instant::now();
        for (job, http_body) in &answers {
            let req = *job as u32;
            let root = t.as_mut().map(|t| t.begin("request", None, req));
            let spec = crate::stage(t, "spec.parse", root, req, || {
                serde_json::from_str::<WorkloadSpec>(&bodies[*job])
            })
            .map_err(|e| format!("parse: {e}"))?;
            let canonical = crate::stage(t, "spec.canon", root, req, || spec.canonicalize())
                .map_err(|e| format!("canonicalize: {e}"))?;
            let key = crate::stage(t, "spec.key", root, req, || canonical.to_json())
                .map_err(|e| format!("key: {e}"))?;
            if crate::stage(t, "engine.probe", root, req, || {
                engine.schedule_cached(&key)
            })
            .is_some()
            {
                return Err(format!("job {job}: a fresh spec hit the cache"));
            }
            let solved = crate::stage(t, "engine.solve", root, req, || {
                engine.schedule_canonical(key, &canonical)
            })
            .map_err(|e| format!("solve: {e}"))?;
            let out = crate::stage(t, "api.serialize", root, req, || {
                serde_json::to_string(&ScheduleResponse::from_engine(&solved))
            })
            .map_err(|e| format!("serialize: {e}"))?;
            if &out != http_body {
                return Err(format!("job {job}: in-process answer differs from HTTP"));
            }
            if let (Some(t), Some(root)) = (t.as_mut(), root) {
                t.end(root);
            }
        }
        Ok(answers.len() as f64 / started.elapsed().as_secs_f64())
    };
    let untraced = replay(&mut None)?;
    let mut tracer = Tracer::new();
    let traced = replay(&mut Some(&mut tracer))?;
    crate::overhead_metrics(untraced, traced, r);
    let stages = [
        "spec.parse",
        "spec.canon",
        "spec.key",
        "engine.probe",
        "engine.solve",
        "api.serialize",
    ];
    let in_process: f64 = stages.iter().map(|s| layers::p50_us(&tracer, s)).sum();
    r.metric("serve.overhead_us", rtt_us - in_process);

    let specs: Vec<WorkloadSpec> = stream[from..from + TRACE_SOLVE_SPECS].to_vec();
    let mut counts = SolveCounts::default();
    layers::solve_path(&specs, &mut tracer, to as u32, &mut counts, r);
    counts.emit(r);
    layers::emit_spans(&tracer, r);
    crate::write_spans(&[("request", &tracer)], args, r)?;
    Ok(())
}
