//! The in-process server and the closed-loop HTTP load that drives it.

use haxconn::api::HealthResponse;
use haxconn::serve::client::Client;
use haxconn::serve::{serve, ServeOptions, ServerHandle};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time used so far by every thread of this process, s. Unlike wall
/// time it does not grow while the host runs other guests on this
/// machine's virtual CPUs (the kernel charges that to steal time).
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU time used so far by the calling thread, s.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3) // CLOCK_THREAD_CPUTIME_ID
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Boots `haxconn::serve` with default options, except an ephemeral
/// loopback port and one worker per core.
pub fn boot() -> Result<ServerHandle, String> {
    serve(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: nproc(),
        ..ServeOptions::default()
    })
    .map_err(|e| format!("serve: {e}"))
}

pub fn health(addr: SocketAddr) -> Result<HealthResponse, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let (status, body) = c.get("/v1/health").map_err(|e| format!("health: {e}"))?;
    if status != 200 {
        return Err(format!("health answered {status}"));
    }
    serde_json::from_str(&body).map_err(|e| format!("health body: {e}"))
}

/// What a closed loop observed.
#[derive(Default)]
pub struct LoopOut {
    /// Client-side latency of every completed 2xx request, µs.
    pub lat_us: Vec<f64>,
    /// Job index of every completed 2xx request.
    pub done: Vec<usize>,
    /// Requests sent.
    pub attempted: u64,
    /// Transport errors and non-2xx answers.
    pub failed: u64,
    /// 2xx answers whose body failed the caller's output check.
    pub bad: u64,
    /// First failure or bad answer, for the report.
    pub first_error: Option<String>,
    /// Wall time of the loop, s.
    pub wall_s: f64,
    /// CPU time the loop's client threads used, s.
    pub client_cpu_s: f64,
    /// CPU time the rest of the process (the server) used during the
    /// loop, s.
    pub server_cpu_s: f64,
}

impl LoopOut {
    /// Adds `other`'s requests, counts and times to this one.
    pub fn merge(&mut self, other: LoopOut) {
        self.lat_us.extend(other.lat_us);
        self.done.extend(other.done);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.bad += other.bad;
        self.wall_s += other.wall_s;
        self.client_cpu_s += other.client_cpu_s;
        self.server_cpu_s += other.server_cpu_s;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// `conns` keep-alive connections, one client thread each, each sending
/// its next request only after the previous answer arrived, until
/// `next(conn, k)` returns `None` or `until` passes. `next` maps the
/// connection and its request counter to a job index into `bodies`;
/// `check(job, body)` is the output check of a 2xx answer.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    path: &str,
    bodies: &[String],
    until: Option<Instant>,
    next: &(dyn Fn(usize, u64) -> Option<usize> + Sync),
    check: &(dyn Fn(usize, &str) -> Result<(), String> + Sync),
) -> LoopOut {
    let cpu_started = process_cpu_s();
    let started = Instant::now();
    let total = Mutex::new(LoopOut::default());
    std::thread::scope(|s| {
        for conn in 0..conns {
            let total = &total;
            s.spawn(move || {
                let cpu_started = thread_cpu_s();
                let mut out = LoopOut::default();
                let mut client = Client::connect(addr).ok();
                let mut k = 0u64;
                while until.is_none_or(|t| Instant::now() < t) {
                    let Some(job) = next(conn, k) else { break };
                    k += 1;
                    out.attempted += 1;
                    if client.is_none() {
                        client = Client::connect(addr).ok();
                    }
                    let Some(c) = client.as_mut() else {
                        out.failed += 1;
                        out.first_error
                            .get_or_insert_with(|| "connect failed".into());
                        continue;
                    };
                    let t0 = Instant::now();
                    let reply = c.post(path, &bodies[job]);
                    let us = t0.elapsed().as_secs_f64() * 1e6;
                    match reply {
                        Ok((status, body)) if (200..300).contains(&status) => {
                            out.lat_us.push(us);
                            out.done.push(job);
                            if let Err(e) = check(job, &body) {
                                out.bad += 1;
                                out.first_error.get_or_insert(e);
                            }
                        }
                        Ok((status, body)) => {
                            out.failed += 1;
                            out.first_error
                                .get_or_insert_with(|| format!("HTTP {status}: {body}"));
                        }
                        Err(e) => {
                            out.failed += 1;
                            out.first_error
                                .get_or_insert_with(|| format!("transport: {e}"));
                            client = None;
                        }
                    }
                }
                out.client_cpu_s = thread_cpu_s() - cpu_started;
                total.lock().expect("no loop thread panics").merge(out);
            });
        }
    });
    let mut out = total.into_inner().expect("no loop thread panics");
    out.wall_s = started.elapsed().as_secs_f64();
    out.server_cpu_s = process_cpu_s() - cpu_started - out.client_cpu_s;
    out
}

/// Sends every body once over `conns` connections (the warm-up passes)
/// and returns each answer body by job index.
pub fn one_pass(
    addr: SocketAddr,
    conns: usize,
    path: &str,
    bodies: &[String],
) -> Result<Vec<String>, String> {
    let cursor = AtomicU64::new(0);
    let answers: Vec<Mutex<String>> = bodies.iter().map(|_| Mutex::new(String::new())).collect();
    let out = closed_loop(
        addr,
        conns,
        path,
        bodies,
        None,
        &|_, _| {
            let i = cursor.fetch_add(1, Ordering::Relaxed) as usize;
            (i < bodies.len()).then_some(i)
        },
        &|job, body| {
            *answers[job].lock().expect("no loop thread panics") = body.to_string();
            Ok(())
        },
    );
    if out.failed > 0 {
        return Err(format!(
            "warm-up: {} of {} requests failed ({})",
            out.failed,
            out.attempted,
            out.first_error.unwrap_or_default()
        ));
    }
    Ok(answers
        .into_iter()
        .map(|m| m.into_inner().expect("no loop thread panics"))
        .collect())
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs.to_vec()), 0.5)
}
