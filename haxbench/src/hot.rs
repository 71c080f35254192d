//! hot-mix: a Zipf closed loop over a catalog that fits the schedule
//! cache, so every timed request is a cache hit and the request path
//! (serve -> spec -> engine probe -> api) is all that runs.

use crate::gen::{self, HotEntry, Zipf};
use crate::layers::{self, SolveCounts};
use crate::load::{self, LoopOut};
use crate::quality;
use crate::report::{int, Report};
use crate::trace::Tracer;
use crate::{Args, Timed};
use haxconn::api::ScheduleResponse;
use haxconn::core::WorkloadSpec;
use haxconn::serve::ServerHandle;
use std::time::Instant;

const CONNS: usize = 2;
/// Catalog specs re-scheduled through `Session` after the timed phase.
const SESSION_SAMPLE: usize = 12;
/// Requests of the traced run's single-connection round-trip phase.
const TRACE_RTT_REQUESTS: u64 = 20_000;
/// Requests of the traced run's in-process request-path replay.
const TRACE_REQUESTS: u64 = 20_000;
/// Catalog specs replayed through the solve-path layers when traced.
const TRACE_SOLVE_SPECS: usize = 60;

struct Setup {
    server: ServerHandle,
    /// Pass-2 (cached) answer per catalog entry: the reference bytes.
    reference: Vec<String>,
}

/// Boot, then warm up: pass 1 solves every catalog spec and fills the
/// cache; pass 2 sends both spellings of every spec and records the
/// cached answer. Checks that both spellings answer the same bytes and
/// that the cached answer only differs from the solved one in `cached`.
fn setup(catalog: &[HotEntry], r: &mut Report) -> Result<Setup, String> {
    let server = load::boot()?;
    let addr = server.addr();
    let canonical: Vec<String> = catalog.iter().map(|e| e.body.clone()).collect();
    let first = load::one_pass(addr, CONNS, "/v1/schedule", &canonical)?;
    let second = load::one_pass(addr, CONNS, "/v1/schedule", &bodies(catalog))?;
    let mut reference = Vec::with_capacity(catalog.len());
    for (i, solved) in first.iter().enumerate() {
        let cached = &second[2 * i];
        r.check(cached == &second[2 * i + 1], || {
            format!("entry {i}: alias spelling answered different bytes")
        });
        let a: Result<ScheduleResponse, _> = serde_json::from_str(solved);
        let b: Result<ScheduleResponse, _> = serde_json::from_str(cached);
        match (a, b) {
            (Ok(a), Ok(b)) => r.check(
                !a.cached && b.cached && ScheduleResponse { cached: false, ..b } == a,
                || format!("entry {i}: cached answer differs from the solved one"),
            ),
            _ => r.check(false, || format!("entry {i}: unparsable answer")),
        }
        reference.push(cached.clone());
    }
    Ok(Setup { server, reference })
}

/// The request stream: Zipf rank by catalog position, alias spelling
/// with probability [`gen::HOT_ALIAS_SHARE`]. Job `2i` is entry `i`'s
/// canonical body, `2i + 1` its alias.
fn job(seed: u64, zipf: &Zipf, conn: usize, k: u64) -> usize {
    let h = gen::mix(seed ^ ((conn as u64) << 56) ^ k.wrapping_mul(0x9E37));
    let rank = zipf.pick(gen::unit(h));
    2 * rank + usize::from(gen::unit(gen::mix(h)) < gen::HOT_ALIAS_SHARE)
}

fn bodies(catalog: &[HotEntry]) -> Vec<String> {
    catalog
        .iter()
        .flat_map(|e| [e.body.clone(), e.alias_body.clone()])
        .collect()
}

fn check_reply<'a>(
    reference: &'a [String],
) -> impl Fn(usize, &str) -> Result<(), String> + Sync + 'a {
    move |job, body| {
        if body == reference[job / 2] {
            Ok(())
        } else {
            Err(format!("job {job}: answer differs from its warm-up bytes"))
        }
    }
}

pub fn run(args: &Args, r: &mut Report) -> Result<(), String> {
    let catalog = gen::hot_catalog();
    let bodies = bodies(&catalog);
    let zipf = Zipf::new(catalog.len());
    if args.trace {
        return traced(args, &catalog, &bodies, &zipf, r);
    }
    let mut degraded = 0;
    let rounds = crate::rounds(
        args,
        r,
        |r| setup(&catalog, r),
        |round, s, phase, r| {
            let seed = args.seed ^ ((round as u64) << 40);
            let out: LoopOut = load::closed_loop(
                s.server.addr(),
                CONNS,
                "/v1/schedule",
                &bodies,
                Some(Instant::now() + phase),
                &|conn, k| Some(job(seed, &zipf, conn, k)),
                &check_reply(&s.reference),
            );
            let health = load::health(s.server.addr())?;
            r.check(health.engine.solves == catalog.len() as u64, || {
                format!(
                    "{} solves for a {}-spec catalog: a timed request missed the cache",
                    health.engine.solves,
                    catalog.len()
                )
            });
            degraded += health.engine.degraded;
            Ok(Timed {
                ops: out.lat_us.len(),
                cpu_s: out.server_cpu_s,
                out: (out, s.reference),
            })
        },
    )?;
    r.info("degraded", int(degraded as usize));
    let (outs, references): (Vec<LoopOut>, Vec<Vec<String>>) = rounds.into_iter().unzip();
    let reference = &references[0];
    r.check(references.iter().all(|b| b == reference), || {
        "two set-ups answered a catalog spec with different bytes".into()
    });
    let mut out = LoopOut::default();
    for o in outs {
        out.merge(o);
    }
    crate::loop_report(&out, r);

    // Schedule quality over the catalog, weighted by how often each
    // schedule was returned.
    let mut counts = vec![0u64; catalog.len()];
    for &j in &out.done {
        counts[j / 2] += 1;
    }
    let specs: Vec<WorkloadSpec> = catalog.iter().map(|e| e.spec.clone()).collect();
    let answers: Vec<ScheduleResponse> = reference
        .iter()
        .map(|b| serde_json::from_str(b).map_err(|e| format!("reference answer: {e}")))
        .collect::<Result<_, _>>()?;
    let assignments: Vec<&[Vec<usize>]> = answers.iter().map(|a| &a.assignment[..]).collect();
    let q = quality::of_specs(&specs, &assignments)?;
    r.metric("sched_speedup", q.speedup);
    let weighted: f64 = counts
        .iter()
        .zip(&q.latency_ms)
        .map(|(&c, &l)| c as f64 * l)
        .sum();
    r.metric(
        "sim_latency_ms",
        weighted / counts.iter().sum::<u64>().max(1) as f64,
    );

    // A seeded sample must match a fresh in-process Session bit for bit.
    let mut rng = gen::Rng::new(args.seed ^ 0x5E55);
    for _ in 0..SESSION_SAMPLE {
        let i = rng.below(catalog.len());
        quality::check_session(&specs[i], &answers[i], r);
    }
    Ok(())
}

fn traced(
    args: &Args,
    catalog: &[HotEntry],
    bodies: &[String],
    zipf: &Zipf,
    r: &mut Report,
) -> Result<(), String> {
    let s = setup(catalog, r)?;
    let addr = s.server.addr();
    let seed = args.seed;
    let rtt = load::closed_loop(
        addr,
        1,
        "/v1/schedule",
        bodies,
        None,
        &|_, k| (k < TRACE_RTT_REQUESTS).then(|| job(seed, zipf, 0, k)),
        &check_reply(&s.reference),
    );
    r.count(rtt.attempted, rtt.failed);
    r.check(rtt.bad == 0 && rtt.failed == 0, || {
        format!("round-trip phase: {:?}", rtt.first_error)
    });
    let health = load::health(addr)?;
    crate::engine_metrics(&health, r);
    let rtt_us = load::median(&rtt.lat_us);
    r.metric("serve.rtt_us", rtt_us);

    // In-process replay of the same request path, against the server's
    // own (warm) engine: untraced for the reference rate, then traced.
    let engine = s.server.engine().clone();
    let jobs: Vec<usize> = (0..TRACE_REQUESTS).map(|k| job(seed, zipf, 0, k)).collect();
    let replay = |t: &mut Option<&mut Tracer>| -> Result<f64, String> {
        let started = Instant::now();
        for (k, &j) in jobs.iter().enumerate() {
            let req = k as u32;
            let root = t.as_mut().map(|t| t.begin("request", None, req));
            let body = crate::stage(t, "spec.parse", root, req, || {
                serde_json::from_str::<WorkloadSpec>(&bodies[j])
            })
            .map_err(|e| format!("parse: {e}"))?;
            let canonical = crate::stage(t, "spec.canon", root, req, || body.canonicalize())
                .map_err(|e| format!("canonicalize: {e}"))?;
            let key = crate::stage(t, "spec.key", root, req, || canonical.to_json())
                .map_err(|e| format!("key: {e}"))?;
            let hit = crate::stage(t, "engine.probe", root, req, || {
                engine.schedule_cached(&key)
            })
            .ok_or("a catalog spec missed the warm cache")?;
            let out = crate::stage(t, "api.serialize", root, req, || {
                serde_json::to_string(&ScheduleResponse::from_engine(&hit))
            })
            .map_err(|e| format!("serialize: {e}"))?;
            if out != s.reference[j / 2] {
                return Err(format!("in-process answer for job {j} differs from HTTP"));
            }
            if let (Some(t), Some(root)) = (t.as_mut(), root) {
                t.end(root);
            }
        }
        Ok(jobs.len() as f64 / started.elapsed().as_secs_f64())
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
        "api.serialize",
    ];
    let in_process: f64 = stages.iter().map(|s| layers::p50_us(&tracer, s)).sum();
    r.metric("serve.overhead_us", rtt_us - in_process);

    let specs: Vec<WorkloadSpec> = catalog
        .iter()
        .take(TRACE_SOLVE_SPECS)
        .map(|e| e.spec.clone())
        .collect();
    let mut counts = SolveCounts::default();
    layers::solve_path(&specs, &mut tracer, TRACE_REQUESTS as u32, &mut counts, r);
    counts.emit(r);
    layers::emit_spans(&tracer, r);
    crate::write_spans(&[("request", &tracer)], args, r)?;
    Ok(())
}
