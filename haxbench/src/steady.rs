//! Steadiness mode: runs each workload N times as child processes, one
//! seed each, and prints every end-to-end metric's median and its
//! quartile spread relative to the median.

use crate::report::{self, END_TO_END};
use crate::Args;
use serde::Value;
use std::process::{Command, ExitCode};

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` computes them
/// (the default "exclusive" method).
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    Some(out)
}

fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let v: Value = serde_json::from_str(last).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); exit {}",
            out.status
        )
    })?;
    if v.field("correct").as_bool() != Some(true) || v.field("failed").as_u64() != Some(0) {
        return Err(format!(
            "{workload} seed {seed}: incorrect or failed run: {last}"
        ));
    }
    Ok(END_TO_END
        .iter()
        .filter_map(|(name, _)| {
            let x = v.field("metrics").field(name).field("value").as_f64()?;
            Some((name.to_string(), x))
        })
        .collect())
}

pub fn run(args: &Args, runs: usize) -> ExitCode {
    let workloads: Vec<&str> = if args.workload.is_empty() || args.workload == "all" {
        crate::WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut summary = Vec::new();
    for w in workloads {
        let mut values: Vec<(String, Vec<f64>)> = END_TO_END
            .iter()
            .map(|(n, _)| (n.to_string(), Vec::new()))
            .collect();
        for i in 0..runs {
            let seed = args.seed + i as u64;
            match one_run(w, seed, args.seconds) {
                Ok(metrics) => {
                    for (name, x) in metrics {
                        if let Some((_, v)) = values.iter_mut().find(|(n, _)| *n == name) {
                            v.push(x);
                        }
                    }
                    eprintln!("{w}: run {}/{runs} (seed {seed}) done", i + 1);
                }
                Err(e) => {
                    eprintln!("haxbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let mut rows = Vec::new();
        for (name, v) in values {
            let Some([q1, q2, q3]) = quartiles(&v) else {
                continue;
            };
            let spread = (q3 - q1) / q2;
            println!("{w:>15} {name:>17}  median {q2:>14.4}  q1 {q1:>14.4}  q3 {q3:>14.4}  spread {:>6.2}%", 100.0 * spread);
            rows.push((
                name,
                Value::Object(vec![
                    ("median".into(), Value::Float(q2)),
                    ("q1".into(), Value::Float(q1)),
                    ("q3".into(), Value::Float(q3)),
                    ("spread".into(), Value::Float(spread)),
                    (
                        "values".into(),
                        Value::Array(v.into_iter().map(Value::Float).collect()),
                    ),
                ]),
            ));
        }
        summary.push((w.to_string(), Value::Object(rows)));
    }
    println!("{}", report::to_json(&Value::Object(summary)));
    ExitCode::SUCCESS
}
