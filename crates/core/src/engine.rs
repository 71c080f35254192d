//! The thread-shareable scheduling engine behind `haxconn serve`.
//!
//! [`Engine`] wraps the solver behind one `&self` entry point,
//! [`Engine::schedule`], safe to call from any number of threads at
//! once. Production concerns live here, not in the HTTP layer, so every
//! front end (server, CLI, `Session`) gets the same behavior:
//!
//! * **Sharded cache** — solved schedules are cached in a
//!   [`ShardedCache`] keyed by the canonical-spec JSON
//!   ([`WorkloadSpec::cache_key`]); a hit is lock-shard + `Arc` clone.
//! * **Request coalescing** — identical specs solving concurrently are
//!   computed once: the first caller leads the solve, the rest wait on
//!   a condvar and share the leader's `Arc`'d result. The
//!   `duplicate_inflight_solves` counter *measures* (not assumes) that
//!   no two solves for one key ever overlap.
//! * **Admission control** — at most
//!   [`EngineOptions::max_concurrent_solves`] solves run at once;
//!   up to [`EngineOptions::max_pending_solves`] callers queue behind
//!   them (backpressure), and beyond that the engine refuses work.
//! * **Graceful degradation** — refused work returns the cheap
//!   never-absurd [`HaxConn::best_baseline`] schedule (marked
//!   `degraded`) instead of an error, unless
//!   [`EngineOptions::degrade_on_overload`] is off, in which case it is
//!   a typed [`HaxError::Overloaded`].
//!
//! Solves are deterministic, so a cached, coalesced, or freshly solved
//! response for the same canonical spec is bit-identical — the serving
//! bench machine-checks this against a local `Session::schedule`.

use crate::cache::{CacheMetrics, ShardedCache};
use crate::error::{parse_platform, HaxError};
use crate::scheduler::{HaxConn, Schedule, Transition};
use crate::spec::WorkloadSpec;
use haxconn_contention::ContentionModel;
use haxconn_soc::Platform;
use rustc_hash::{FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Engine state stays consistent across a panicking solver thread
    // (counters and maps are updated atomically under short critical
    // sections that call no user code), so serving continues.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A solved cache entry: the schedule plus everything a response needs
/// that would otherwise require re-profiling the workload (transitions
/// carry profile-derived layer ids). Computed once at insert so cache
/// hits never touch the profiler.
#[derive(Debug, Clone)]
pub struct SolvedEntry {
    /// The solved (or baseline-fallback) schedule.
    pub schedule: Schedule,
    /// Its inter-accelerator transitions, precomputed.
    pub transitions: Vec<Transition>,
}

/// Shards of the engine's schedule cache: enough to keep worker threads
/// off each other's locks without fragmenting the LRU meaningfully.
const CACHE_SHARDS: usize = 8;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Total schedule-cache capacity across its 8 shards.
    pub cache_capacity: usize,
    /// Concurrent solve limit (`None` = unlimited; `Some(0)` = never
    /// solve, always degrade/reject — useful as a cached-only mode).
    pub max_concurrent_solves: Option<usize>,
    /// Callers allowed to queue when all solve slots are busy; beyond
    /// this, admission fails.
    pub max_pending_solves: usize,
    /// When admission fails, serve [`HaxConn::best_baseline`] (marked
    /// degraded) instead of returning [`HaxError::Overloaded`].
    pub degrade_on_overload: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            cache_capacity: 1024,
            max_concurrent_solves: None,
            max_pending_solves: 64,
            degrade_on_overload: true,
        }
    }
}

/// The result of [`Engine::schedule`]: the schedule plus how it was
/// obtained, so callers (and wire responses) can report cache/coalesce/
/// degrade provenance honestly.
#[derive(Debug, Clone)]
pub struct EngineSchedule {
    /// The solved entry (shared, never deep-copied).
    pub entry: Arc<SolvedEntry>,
    /// Served from the schedule cache.
    pub cached: bool,
    /// Waited on another caller's identical in-flight solve.
    pub coalesced: bool,
    /// Baseline fallback served under overload (not cached).
    pub degraded: bool,
}

impl EngineSchedule {
    /// The schedule itself.
    pub fn schedule(&self) -> &Schedule {
        &self.entry.schedule
    }
}

/// A point-in-time copy of the engine's counters (serializable — this
/// is what `/v1/health` reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStatsSnapshot {
    /// Schedule requests received.
    pub requests: u64,
    /// Requests served from the sharded cache.
    pub cache_hits: u64,
    /// Cache probes that missed.
    pub cache_misses: u64,
    /// Cache entries evicted (LRU).
    pub cache_evictions: u64,
    /// Full solver runs performed.
    pub solves: u64,
    /// Requests that joined an identical in-flight solve.
    pub coalesced: u64,
    /// Requests answered with the degraded baseline under overload.
    pub degraded: u64,
    /// Requests refused outright (degradation disabled).
    pub rejected: u64,
    /// Solves that started while another solve for the same key was
    /// already running. Coalescing guarantees this stays 0; the counter
    /// measures the guarantee instead of assuming it.
    pub duplicate_inflight_solves: u64,
}

/// A platform model plus its calibrated contention model, cached per
/// platform slug (calibration is the expensive part).
#[derive(Debug, Clone)]
pub struct PlatformCtx {
    /// The platform model.
    pub platform: Platform,
    /// The calibrated shared-memory contention model.
    pub contention: ContentionModel,
}

/// What an in-flight solve resolves to: the solved entry plus whether
/// it was a fresh solve (false once served from cache by the leader).
type InflightOutcome = Result<(Arc<SolvedEntry>, bool), HaxError>;

/// One in-flight solve: waiters block on the condvar until the leader
/// publishes the shared outcome.
struct Inflight {
    result: Mutex<Option<InflightOutcome>>,
    cv: Condvar,
}

impl Inflight {
    fn new() -> Self {
        Inflight {
            result: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, outcome: InflightOutcome) {
        *lock(&self.result) = Some(outcome);
        self.cv.notify_all();
    }

    fn wait(&self) -> InflightOutcome {
        let mut guard = lock(&self.result);
        loop {
            if let Some(outcome) = guard.as_ref() {
                return outcome.clone();
            }
            guard = self
                .cv
                .wait(guard)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// Counting semaphore with a bounded wait queue — the solver pool's
/// admission controller.
struct SolveGate {
    max_active: Option<usize>,
    max_pending: usize,
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    active: usize,
    pending: usize,
}

/// RAII solve slot; dropping releases the slot and wakes one queued
/// caller.
struct SolveTicket<'a> {
    gate: &'a SolveGate,
}

impl Drop for SolveTicket<'_> {
    fn drop(&mut self) {
        let mut s = lock(&self.gate.state);
        s.active = s.active.saturating_sub(1);
        self.gate.cv.notify_one();
    }
}

enum Admission<'a> {
    Admitted(SolveTicket<'a>),
    Rejected { active: usize, pending: usize },
}

impl SolveGate {
    fn new(max_active: Option<usize>, max_pending: usize) -> Self {
        SolveGate {
            max_active,
            max_pending,
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
        }
    }

    fn admit(&self) -> Admission<'_> {
        let mut s = lock(&self.state);
        let max = match self.max_active {
            None => {
                s.active += 1;
                return Admission::Admitted(SolveTicket { gate: self });
            }
            // A zero-slot pool can never drain its queue: reject
            // immediately rather than queue forever.
            Some(0) => {
                return Admission::Rejected {
                    active: s.active,
                    pending: s.pending,
                }
            }
            Some(max) => max,
        };
        if s.active < max {
            s.active += 1;
            return Admission::Admitted(SolveTicket { gate: self });
        }
        if s.pending >= self.max_pending {
            return Admission::Rejected {
                active: s.active,
                pending: s.pending,
            };
        }
        s.pending += 1;
        while s.active >= max {
            s = self
                .cv
                .wait(s)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        s.pending -= 1;
        s.active += 1;
        Admission::Admitted(SolveTicket { gate: self })
    }
}

/// The thread-shareable scheduling engine. See the module docs for the
/// cache / coalescing / admission / degradation design.
pub struct Engine {
    cache: ShardedCache<String, Arc<SolvedEntry>>,
    inflight: Mutex<FxHashMap<String, Arc<Inflight>>>,
    /// Keys with a solver run currently executing — the measurement
    /// behind `duplicate_inflight_solves`.
    solving: Mutex<FxHashSet<String>>,
    gate: SolveGate,
    degrade_on_overload: bool,
    contexts: Mutex<FxHashMap<&'static str, Arc<PlatformCtx>>>,
    requests: AtomicU64,
    solves: AtomicU64,
    coalesced: AtomicU64,
    degraded: AtomicU64,
    rejected: AtomicU64,
    duplicates: AtomicU64,
}

impl Engine {
    /// An engine with the given options.
    pub fn new(options: EngineOptions) -> Self {
        Engine {
            cache: ShardedCache::with_shards(
                CACHE_SHARDS,
                options.cache_capacity,
                CacheMetrics::ENGINE,
            ),
            inflight: Mutex::new(FxHashMap::default()),
            solving: Mutex::new(FxHashSet::default()),
            gate: SolveGate::new(options.max_concurrent_solves, options.max_pending_solves),
            degrade_on_overload: options.degrade_on_overload,
            contexts: Mutex::new(FxHashMap::default()),
            requests: AtomicU64::new(0),
            solves: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
        }
    }

    /// The process-wide shared engine (`Session::schedule` routes
    /// through it). Unlimited solve slots, so library callers see no
    /// queuing — only the cache and coalescing.
    pub fn shared() -> &'static Engine {
        static SHARED: OnceLock<Engine> = OnceLock::new();
        SHARED.get_or_init(|| Engine::new(EngineOptions::default()))
    }

    /// The cached platform + calibrated contention model for a platform
    /// name (any accepted alias). Calibration runs at most once per
    /// platform per engine.
    pub fn context(&self, platform: &str) -> Result<Arc<PlatformCtx>, HaxError> {
        let slug = parse_platform(platform)?.slug();
        if let Some(ctx) = lock(&self.contexts).get(slug) {
            return Ok(Arc::clone(ctx));
        }
        // Build outside the lock; racing builders construct identical
        // values and the first insert wins.
        let p = parse_platform(slug)?.platform();
        let contention = ContentionModel::calibrate(&p);
        let ctx = Arc::new(PlatformCtx {
            platform: p,
            contention,
        });
        let mut map = lock(&self.contexts);
        Ok(Arc::clone(map.entry(slug).or_insert(ctx)))
    }

    /// Schedules `spec`: cache hit, coalesced wait, fresh solve, or
    /// degraded baseline — in that order of preference.
    pub fn schedule(&self, spec: &WorkloadSpec) -> Result<EngineSchedule, HaxError> {
        let canonical = spec.canonicalize()?;
        let key = canonical.to_json()?;
        self.schedule_canonical(key, &canonical)
    }

    /// An opportunistic cache-only lookup: returns the schedule if it
    /// is already cached, `None` otherwise — never solves, never
    /// blocks on the admission gate, O(one shard lock). A hit counts a
    /// request + cache hit exactly as [`schedule_canonical`] would; a
    /// miss counts nothing, so a caller falling through to
    /// [`schedule_canonical`] keeps every counter exactly-once. The
    /// serve reactor uses this to answer hot requests inline without a
    /// thread hop.
    ///
    /// [`schedule_canonical`]: Engine::schedule_canonical
    pub fn schedule_cached(&self, key: &str) -> Option<EngineSchedule> {
        let entry = self.cache.probe(key)?;
        self.requests.fetch_add(1, Ordering::Relaxed);
        haxconn_telemetry::counter_add("engine.requests", 1);
        Some(EngineSchedule {
            entry,
            cached: true,
            coalesced: false,
            degraded: false,
        })
    }

    /// [`Engine::schedule`] for a spec the caller has already
    /// canonicalized (with `key` its canonical JSON) — the hot path for
    /// servers that parse and canonicalize once per request.
    pub fn schedule_canonical(
        &self,
        key: String,
        canonical: &WorkloadSpec,
    ) -> Result<EngineSchedule, HaxError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        haxconn_telemetry::counter_add("engine.requests", 1);
        if let Some(entry) = self.cache.get(&key) {
            return Ok(EngineSchedule {
                entry,
                cached: true,
                coalesced: false,
                degraded: false,
            });
        }
        // Join an identical in-flight solve, or become its leader.
        let waiter = {
            let mut map = lock(&self.inflight);
            match map.get(&key) {
                Some(f) => Some(Arc::clone(f)),
                None => {
                    map.insert(key.clone(), Arc::new(Inflight::new()));
                    None
                }
            }
        };
        if let Some(f) = waiter {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            haxconn_telemetry::counter_add("engine.coalesced", 1);
            let (entry, degraded) = f.wait()?;
            return Ok(EngineSchedule {
                entry,
                cached: false,
                coalesced: true,
                degraded,
            });
        }
        // Leader. The guard guarantees waiters are always released,
        // even if the solver panics.
        struct LeaderGuard<'a> {
            engine: &'a Engine,
            key: &'a str,
            published: bool,
        }
        impl LeaderGuard<'_> {
            fn publish(&mut self, outcome: InflightOutcome) {
                let inflight = lock(&self.engine.inflight).remove(self.key);
                if let Some(f) = inflight {
                    f.publish(outcome);
                }
                self.published = true;
            }
        }
        impl Drop for LeaderGuard<'_> {
            fn drop(&mut self) {
                if !self.published {
                    self.publish(Err(HaxError::ScheduleInvariant(
                        "solve aborted (leader panicked)".into(),
                    )));
                }
            }
        }
        let mut guard = LeaderGuard {
            engine: self,
            key: &key,
            published: false,
        };
        let outcome = self.lead_solve(&key, canonical);
        // Cache before unpublishing the in-flight entry so a request
        // arriving in between finds one of the two (a gap here would
        // show up as a duplicate solve in the telemetry the bench
        // gates on). Degraded results are deliberately not cached: the
        // next uncontended request should get the real optimum.
        if let Ok((entry, degraded)) = &outcome {
            if !degraded {
                self.cache.insert(key.clone(), Arc::clone(entry));
            }
        }
        guard.publish(outcome.clone());
        let (entry, degraded) = outcome?;
        Ok(EngineSchedule {
            entry,
            cached: false,
            coalesced: false,
            degraded,
        })
    }

    /// Admission + solve (or degraded baseline) for the coalescing
    /// leader.
    fn lead_solve(&self, key: &str, canonical: &WorkloadSpec) -> InflightOutcome {
        match self.gate.admit() {
            Admission::Admitted(_ticket) => {
                let entry = self.solve_now(key, canonical)?;
                Ok((entry, false))
            }
            Admission::Rejected { active, pending } => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                haxconn_telemetry::counter_add("engine.rejected", 1);
                if !self.degrade_on_overload {
                    return Err(HaxError::Overloaded(format!(
                        "solver pool saturated ({active} solving, {pending} queued)"
                    )));
                }
                self.degraded.fetch_add(1, Ordering::Relaxed);
                haxconn_telemetry::counter_add("engine.degraded", 1);
                let ctx = self.context(&canonical.platform)?;
                let (_, workload) = canonical.resolve()?;
                let schedule = HaxConn::best_baseline(
                    &ctx.platform,
                    &workload,
                    &ctx.contention,
                    canonical.effective_config(),
                )?;
                let transitions = schedule.transitions(&workload);
                Ok((
                    Arc::new(SolvedEntry {
                        schedule,
                        transitions,
                    }),
                    true,
                ))
            }
        }
    }

    /// One full solver run, bracketed by the duplicate-solve detector.
    fn solve_now(&self, key: &str, canonical: &WorkloadSpec) -> Result<Arc<SolvedEntry>, HaxError> {
        let ctx = self.context(&canonical.platform)?;
        let (_, workload) = canonical.resolve()?;
        if !lock(&self.solving).insert(key.to_string()) {
            self.duplicates.fetch_add(1, Ordering::Relaxed);
            haxconn_telemetry::counter_add("engine.duplicate_inflight_solves", 1);
        }
        let result = HaxConn::try_schedule(
            &ctx.platform,
            &workload,
            &ctx.contention,
            canonical.effective_config(),
        );
        lock(&self.solving).remove(key);
        self.solves.fetch_add(1, Ordering::Relaxed);
        haxconn_telemetry::counter_add("engine.solves", 1);
        let schedule = result?;
        let transitions = schedule.transitions(&workload);
        Ok(Arc::new(SolvedEntry {
            schedule,
            transitions,
        }))
    }

    /// Point-in-time counter snapshot.
    pub fn stats(&self) -> EngineStatsSnapshot {
        let (cache_hits, cache_misses, cache_evictions) = self.cache.stats();
        EngineStatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
            cache_evictions,
            solves: self.solves.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            duplicate_inflight_solves: self.duplicates.load(Ordering::Relaxed),
        }
    }

    /// Number of schedules currently cached.
    pub fn cached_schedules(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ScheduleOrigin;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::new("orin")
            .task("googlenet", 5)
            .task("resnet18", 5)
    }

    #[test]
    fn cache_hit_serves_the_same_arc() {
        let engine = Engine::new(EngineOptions::default());
        let first = engine.schedule(&spec()).unwrap();
        assert!(!first.cached);
        let second = engine.schedule(&spec()).unwrap();
        assert!(second.cached);
        assert!(Arc::ptr_eq(&first.entry, &second.entry));
        let stats = engine.stats();
        assert_eq!(stats.solves, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.duplicate_inflight_solves, 0);
    }

    #[test]
    fn aliases_share_one_cache_entry() {
        let engine = Engine::new(EngineOptions::default());
        engine.schedule(&spec()).unwrap();
        let alias = WorkloadSpec::new("Orin-AGX")
            .task("GoogLeNet", 5)
            .task("ResNet18", 5);
        assert!(engine.schedule(&alias).unwrap().cached);
        assert_eq!(engine.stats().solves, 1);
    }

    #[test]
    fn concurrent_identical_requests_solve_once() {
        let engine = Arc::new(Engine::new(EngineOptions::default()));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                engine.schedule(&spec()).unwrap()
            }));
        }
        let results: Vec<EngineSchedule> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let stats = engine.stats();
        assert_eq!(
            stats.solves, 1,
            "identical concurrent requests must coalesce"
        );
        assert_eq!(stats.duplicate_inflight_solves, 0);
        let bits = results[0].schedule().cost.to_bits();
        for r in &results {
            assert_eq!(r.schedule().cost.to_bits(), bits);
            assert!(!r.degraded);
        }
    }

    #[test]
    fn zero_slot_engine_degrades_to_baseline() {
        let engine = Engine::new(EngineOptions {
            max_concurrent_solves: Some(0),
            max_pending_solves: 0,
            ..Default::default()
        });
        let out = engine.schedule(&spec()).unwrap();
        assert!(out.degraded);
        assert!(matches!(out.schedule().origin, ScheduleOrigin::Fallback(_)));
        // Degraded responses are not cached: the next request tries
        // (and here fails admission) again.
        let again = engine.schedule(&spec()).unwrap();
        assert!(again.degraded && !again.cached);
        let stats = engine.stats();
        assert_eq!(stats.solves, 0);
        assert_eq!(stats.degraded, 2);
    }

    #[test]
    fn zero_slot_engine_rejects_when_degradation_is_off() {
        let engine = Engine::new(EngineOptions {
            max_concurrent_solves: Some(0),
            max_pending_solves: 0,
            degrade_on_overload: false,
            ..Default::default()
        });
        let err = engine.schedule(&spec()).unwrap_err();
        assert!(matches!(err, HaxError::Overloaded(_)), "{err}");
        assert_eq!(engine.stats().rejected, 1);
    }

    #[test]
    fn engine_matches_direct_haxconn_bit_for_bit() {
        let engine = Engine::new(EngineOptions::default());
        let out = engine.schedule(&spec()).unwrap();
        let (_, workload) = spec().resolve().unwrap();
        let ctx = engine.context("orin").unwrap();
        let direct = HaxConn::try_schedule(
            &ctx.platform,
            &workload,
            &ctx.contention,
            SchedulerConfig::default(),
        )
        .unwrap();
        assert_eq!(out.schedule().cost.to_bits(), direct.cost.to_bits());
        assert_eq!(out.schedule().assignment, direct.assignment);
    }

    use crate::problem::SchedulerConfig;

    #[test]
    fn gate_queues_then_rejects() {
        let gate = Arc::new(SolveGate::new(Some(1), 1));
        let t1 = match gate.admit() {
            Admission::Admitted(t) => t,
            Admission::Rejected { .. } => panic!("first slot must admit"),
        };
        // Slot busy, queue empty: a queued caller on another thread
        // blocks until t1 drops.
        let g2 = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || match g2.admit() {
            Admission::Admitted(_t) => true,
            Admission::Rejected { .. } => false,
        });
        // Give the waiter time to enqueue, then overflow the queue.
        while lock(&gate.state).pending == 0 {
            std::thread::yield_now();
        }
        assert!(matches!(gate.admit(), Admission::Rejected { .. }));
        drop(t1);
        assert!(waiter.join().unwrap(), "queued caller must be admitted");
    }
}
