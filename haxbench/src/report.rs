//! The result line, the `env` line, and the metric catalog.

use serde::Value;
use std::collections::BTreeMap;

/// End-to-end metrics: every timed run (`--trace 0`) prints all of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cpu_us_per_op", "us"),
    ("sched_speedup", "x"),
    ("sim_latency_ms", "ms"),
];

/// The workloads a per-layer metric must be measured on.
const ALL: &[&str] = &["hot-mix", "cold-mix", "arrival-replay"];
const HTTP: &[&str] = &["hot-mix", "cold-mix"];
const ARRIVAL: &[&str] = &["arrival-replay"];

/// Per-layer metrics: every traced run (`--trace 1`) prints all of them.
/// A traced run that leaves one of its workload's metrics unset fails;
/// a layer the workload never reaches reads 0.
pub const PER_LAYER: [(&str, &str, &[&str]); 35] = [
    ("serve.rtt_us", "us", HTTP),
    ("serve.overhead_us", "us", HTTP),
    ("spec.parse_us", "us", HTTP),
    ("spec.canon_us", "us", HTTP),
    ("spec.key_us", "us", HTTP),
    ("engine.probe_us", "us", HTTP),
    ("engine.hit_ratio", "ratio", HTTP),
    ("engine.requests", "count", HTTP),
    ("engine.solves", "count", HTTP),
    ("engine.evictions", "count", HTTP),
    ("engine.coalesced", "count", HTTP),
    ("engine.degraded", "count", HTTP),
    ("api.serialize_us", "us", HTTP),
    ("profiler.resolve_ms", "ms", ALL),
    ("scheduler.schedule_ms", "ms", ALL),
    ("scheduler.schedule_p99_ms", "ms", ALL),
    ("scheduler.baseline_ms", "ms", ALL),
    ("solver.solve_ms", "ms", ALL),
    ("solver.nodes", "count", ALL),
    ("solver.ns_per_node", "ns", ALL),
    ("solver.leaf_ratio", "ratio", ALL),
    ("timeline.eval_us", "us", ALL),
    ("arrival.solved", "count", ARRIVAL),
    ("arrival.skipped", "count", ARRIVAL),
    ("arrival.cache_hit_ratio", "ratio", ARRIVAL),
    ("arrival.solve_share", "ratio", ARRIVAL),
    ("des.measure_us", "us", ALL),
    ("runtime.fleet_ms", "ms", ALL),
    ("runtime.scenarios_per_s", "1/s", ALL),
    ("session.schedule_ms", "ms", ALL),
    ("trace.untraced_per_s", "1/s", ALL),
    ("trace.traced_per_s", "1/s", ALL),
    ("trace.overhead_pct", "%", ALL),
    ("trace.spans", "count", ALL),
    ("trace.spans_written", "count", ALL),
];

pub struct Report {
    workload: String,
    trace: bool,
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    failed_checks: u64,
    info: Vec<(String, Value)>,
}

impl Report {
    pub fn new(workload: &str, trace: bool) -> Report {
        Report {
            workload: workload.to_string(),
            trace,
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            failed_checks: 0,
            info: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records an output check; a failure makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed_checks += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
    }

    pub fn info(&mut self, key: &str, value: Value) {
        self.info.push((key.to_string(), value));
    }

    pub fn correct(&self) -> bool {
        self.failed_checks == 0
    }

    /// Adds a closed loop's accounting to the run's totals.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The `env` line followed by the result line (the last line of
    /// stdout). Errors if a metric this mode must print is missing.
    pub fn print(mut self, env: Vec<(String, Value)>) -> Result<bool, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let catalog: Vec<(&str, &str, bool)> = if self.trace {
            PER_LAYER
                .iter()
                .map(|&(n, u, on)| (n, u, on.contains(&self.workload.as_str())))
                .collect()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n, u, true)).collect()
        };
        let mut metrics = Vec::with_capacity(catalog.len());
        for (name, unit, required) in catalog {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric {name} is not finite ({v})")),
                None if !required => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            metrics.push((
                name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::Float(value)),
                    ("unit".into(), Value::String(unit.into())),
                ]),
            ));
        }
        let mut env = env;
        env.append(&mut self.info);
        env.push((
            "checks_failed".into(),
            Value::Int(self.failed_checks as i64),
        ));
        env.push((
            "check_errors".into(),
            Value::Array(self.errors.iter().cloned().map(Value::String).collect()),
        ));
        let env_line = Value::Object(vec![("env".into(), Value::Object(env))]);
        println!("{}", to_json(&env_line));
        let correct = self.correct();
        let result = Value::Object(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::Int(self.attempted as i64)),
            ("failed".into(), Value::Int(self.failed as i64)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        println!("{}", to_json(&result));
        Ok(correct)
    }
}

pub fn to_json(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value always serializes")
}

pub fn int(n: usize) -> Value {
    Value::Int(n as i64)
}
