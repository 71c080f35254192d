//! End-to-end and per-layer benchmark of the haxconn scheduling service.
//!
//! ```text
//! haxbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! haxbench --steadiness <runs> [--workload <name>|all] [--seed <n>] [--seconds <s>]
//! ```
//!
//! A timed run (`--trace 0`) prints every end-to-end metric; a traced run
//! (`--trace 1`) replays the workload's inputs through each layer's
//! public calls inside spans and prints every per-layer metric. The last
//! line of stdout is the result object; the line before it is the `env`
//! block. See README.md in this directory for the workloads and the
//! layer map.

mod arrival;
mod cold;
mod gen;
mod hot;
mod layers;
mod load;
mod quality;
mod report;
mod steady;
mod trace;

use haxconn::api::HealthResponse;
use report::Report;
use serde::Value;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["hot-mix", "cold-mix", "arrival-replay"];

/// Rounds per timed run. Each round sets up from scratch (a fresh
/// server, or replay context, and its warm-up) and then runs a timed
/// phase of `--seconds / ROUNDS`. On a shared 2-vCPU host the same
/// requests cost up to 15 % more or less CPU time from one server boot
/// to the next, even within one process; the median over five boots
/// repeats far better than one long phase on one boot.
pub const ROUNDS: usize = 5;

/// Span lines written per trace file, at most (a seeded sample of
/// requests is kept when a run records more).
const SPAN_FILE_LINES: usize = 20_000;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub steadiness: Option<usize>,
}

const USAGE: &str = "usage: haxbench --workload <hot-mix|cold-mix|arrival-replay> \
--seed <n> --seconds <s> --trace <0|1>\n       haxbench --steadiness <runs> \
[--workload <name>|all] [--seed <n>] [--seconds <s>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        steadiness: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--steadiness" => args.steadiness = Some(number()? as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let known = WORKLOADS.contains(&args.workload.as_str())
        || (args.steadiness.is_some() && (args.workload.is_empty() || args.workload == "all"));
    if !known {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("haxbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steadiness {
        return steady::run(&args, runs);
    }
    let mut r = Report::new(&args.workload, args.trace);
    let ran = match args.workload.as_str() {
        "hot-mix" => hot::run(&args, &mut r),
        "cold-mix" => cold::run(&args, &mut r),
        _ => arrival::run(&args, &mut r),
    };
    let printed = ran.and_then(|()| r.print(env(&args)));
    match printed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("haxbench: an output check failed (see check_errors in the env line)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("haxbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// First line of a command's stdout, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn env(args: &Args) -> Vec<(String, Value)> {
    vec![
        ("workload".into(), Value::String(args.workload.clone())),
        ("seed".into(), Value::Int(args.seed as i64)),
        ("seconds".into(), Value::Int(args.seconds as i64)),
        ("trace".into(), Value::Bool(args.trace)),
        ("nproc".into(), report::int(load::nproc())),
        (
            "rustc".into(),
            Value::String(command_line("rustc", &["-V"])),
        ),
        (
            "git_rev".into(),
            Value::String(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ]
}

/// The timed phase of one round: what the workload keeps, the operations
/// completed, and the CPU time the program spent on them, s.
pub struct Timed<T> {
    pub out: T,
    pub ops: usize,
    pub cpu_s: f64,
}

/// Runs [`ROUNDS`] rounds of `setup` followed by `timed(round, set-up,
/// phase length)`, which owns the set-up and drops it (a server stops)
/// when done. Records the two timing metrics, each a median over rounds:
/// `setup_s`, the CPU time the process spent on a set-up (all threads,
/// server and load alike), and `cpu_us_per_op`, the program's CPU time
/// per operation in a timed phase. Returns each round's output.
pub fn rounds<S, T>(
    args: &Args,
    r: &mut Report,
    mut setup: impl FnMut(&mut Report) -> Result<S, String>,
    mut timed: impl FnMut(usize, S, Duration, &mut Report) -> Result<Timed<T>, String>,
) -> Result<Vec<T>, String> {
    let phase = Duration::from_secs_f64(args.seconds as f64 / ROUNDS as f64);
    let mut setup_cpu = Vec::with_capacity(ROUNDS);
    let mut setup_wall = Vec::with_capacity(ROUNDS);
    let mut per_op = Vec::with_capacity(ROUNDS);
    let mut outs = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let cpu_started = load::process_cpu_s();
        let started = Instant::now();
        let set_up = setup(r)?;
        setup_wall.push(started.elapsed().as_secs_f64());
        setup_cpu.push(load::process_cpu_s() - cpu_started);
        let t = timed(round, set_up, phase, r)?;
        per_op.push(t.cpu_s * 1e6 / t.ops.max(1) as f64);
        outs.push(t.out);
    }
    r.metric("setup_s", load::median(&setup_cpu));
    r.metric("cpu_us_per_op", load::median(&per_op));
    r.info("setup_cpu_s", floats(&setup_cpu));
    r.info("setup_wall_s", floats(&setup_wall));
    r.info("round_cpu_us_per_op", floats(&per_op));
    Ok(outs)
}

fn floats(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::Float(x)).collect())
}

/// Accounting, output check and `env` figures of the timed closed loops
/// of all rounds, pooled. The wall-clock figures a client sees (latency
/// percentiles, requests per second) go to the `env` line only: on a
/// shared host they move with the CPU time the host steals, which CPU
/// time does not count (see README.md).
pub fn loop_report(out: &load::LoopOut, r: &mut Report) {
    r.count(out.attempted, out.failed);
    r.check(out.bad == 0, || {
        format!("{} bad answers: {:?}", out.bad, out.first_error)
    });
    let done = out.lat_us.len();
    latency_info(&load::sorted(out.lat_us.clone()), r);
    r.info("throughput_per_s", Value::Float(done as f64 / out.wall_s));
    r.info(
        "client_cpu_us_per_op",
        Value::Float(out.client_cpu_s * 1e6 / done.max(1) as f64),
    );
    r.info("samples", report::int(done));
    if let Some(e) = &out.first_error {
        r.info("first_error", Value::String(e.clone()));
    }
}

/// The p50, p90 and p99 of ascending latencies, µs, for the `env` line.
pub fn latency_info(sorted_us: &[f64], r: &mut Report) {
    for (name, q) in [
        ("req_p50_us", 0.5),
        ("req_p90_us", 0.9),
        ("req_p99_us", 0.99),
    ] {
        r.info(name, Value::Float(load::quantile(sorted_us, q)));
    }
}

/// Engine counters as reported by `/v1/health`.
pub fn engine_metrics(h: &HealthResponse, r: &mut Report) {
    let e = &h.engine;
    r.metric("engine.requests", e.requests as f64);
    r.metric(
        "engine.hit_ratio",
        e.cache_hits as f64 / e.requests.max(1) as f64,
    );
    r.metric("engine.solves", e.solves as f64);
    r.metric("engine.evictions", e.cache_evictions as f64);
    r.metric("engine.coalesced", e.coalesced as f64);
    r.metric("engine.degraded", e.degraded as f64);
}

/// Tracing overhead of an in-process replay: the same inputs untraced and
/// traced, as operations per second and the share lost.
pub fn overhead_metrics(untraced: f64, traced: f64, r: &mut Report) {
    r.metric("trace.untraced_per_s", untraced);
    r.metric("trace.traced_per_s", traced);
    r.metric("trace.overhead_pct", 100.0 * (untraced - traced) / untraced);
}

/// Runs `f`, inside a leaf span when a tracer is given.
pub fn stage<T>(
    t: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<usize>,
    req: u32,
    f: impl FnOnce() -> T,
) -> T {
    match t {
        Some(t) => t.leaf(name, parent, req, f),
        None => f(),
    }
}

/// Writes each tracer's spans to `haxbench/traces/<workload>-seed<n>-<label>.jsonl`
/// under the working directory, keeping a seeded sample of requests when
/// a tracer holds more than [`SPAN_FILE_LINES`] spans.
pub fn write_spans(tracers: &[(&str, &Tracer)], args: &Args, r: &mut Report) -> Result<(), String> {
    let mut total = 0;
    let mut written = 0;
    for (label, t) in tracers {
        let path = std::path::PathBuf::from(format!(
            "haxbench/traces/{}-seed{}-{label}.jsonl",
            args.workload, args.seed
        ));
        let stride = t.len().div_ceil(SPAN_FILE_LINES).max(1) as u64;
        written += t.write(&path, |req| {
            gen::mix(args.seed ^ u64::from(req)).is_multiple_of(stride)
        })?;
        total += t.len();
    }
    r.metric("trace.spans", total as f64);
    r.metric("trace.spans_written", written as f64);
    Ok(())
}
