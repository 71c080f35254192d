//! The schedule cache: one sharded LRU for every schedule-reuse site.
//!
//! Two kinds of owner share it:
//!
//! * **CFG toggling (paper Section 3.5).** "Some scenarios, such as a
//!   drone switching between *discovery* or *tracking* modes, might
//!   require unique control flow graphs. Such CFGs and their
//!   corresponding schedules can be predetermined statically and toggled
//!   during the execution." The CLI's `dynamic --phases` loop and the
//!   multi-tenant arrival engine key a single-shard instance
//!   ([`ShardedCache::for_phases`]) by [`WorkloadSignature`], so a phase
//!   or tenant mix seen before reuses its schedule instantly and only
//!   genuinely new ones are solved.
//! * **Serving.** The [`crate::Engine`] keys a multi-shard instance by
//!   canonical-spec JSON. Many worker threads hit it at high rate, so it
//!   is split into independently locked shards (the key hash picks the
//!   shard) and all counters are relaxed atomics: a hit takes one short
//!   shard lock and two atomic increments, and disjoint keys on different
//!   shards never contend.
//!
//! Values are cloned out on hits, so a shared cache stores `Arc`s (the
//! engine stores the solved schedule plus its precomputed transitions)
//! and a hit is a pointer clone, never a deep copy.

use crate::problem::Workload;
use rustc_hash::{FxHashMap, FxHasher};
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A structural signature of a workload: model names, group structure,
/// dependencies and ties. Two workloads with equal signatures accept the
/// same schedules.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkloadSignature {
    tasks: Vec<(String, usize)>,
    deps: Vec<(usize, usize)>,
    ties: Vec<Option<usize>>,
    platform: String,
}

impl WorkloadSignature {
    /// Computes the signature of `workload` (profiled for `platform_name`).
    pub fn of(workload: &Workload) -> WorkloadSignature {
        WorkloadSignature {
            tasks: workload
                .tasks
                .iter()
                .map(|t| (t.profile.grouped.model.name().to_string(), t.num_groups()))
                .collect(),
            deps: workload.deps.iter().map(|d| (d.from, d.to)).collect(),
            ties: workload.ties.clone(),
            platform: workload
                .tasks
                .first()
                .map(|t| t.profile.platform_name.clone())
                .unwrap_or_default(),
        }
    }
}

/// The telemetry counters one cache reports to. Static names, so a
/// probe neither formats nor allocates.
#[derive(Debug, Clone, Copy)]
pub struct CacheMetrics {
    /// Counter bumped on every hit.
    pub hits: &'static str,
    /// Counter bumped on every counted miss.
    pub misses: &'static str,
    /// Counter bumped on every LRU eviction.
    pub evictions: &'static str,
}

impl CacheMetrics {
    /// The serving engine's cache.
    pub const ENGINE: CacheMetrics = CacheMetrics {
        hits: "engine.cache.hits",
        misses: "engine.cache.misses",
        evictions: "engine.cache.evictions",
    };
    /// The phase / tenant-mix caches keyed by [`WorkloadSignature`].
    pub const PHASE: CacheMetrics = CacheMetrics {
        hits: "cache.hits",
        misses: "cache.misses",
        evictions: "cache.evictions",
    };
}

struct Entry<V> {
    value: V,
    last_used: u64,
}

struct Shard<K, V> {
    entries: FxHashMap<K, Entry<V>>,
    /// Monotone per-shard access counter stamping LRU order.
    tick: u64,
}

/// A sharded, mutex-per-shard LRU cache with relaxed atomic counters.
/// `V` is cloned out on hits, so it should be cheap to clone (an `Arc`)
/// wherever hits are frequent.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// Max entries per shard (total capacity = shards × per-shard).
    per_shard: usize,
    metrics: CacheMetrics,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> ShardedCache<WorkloadSignature, V> {
    /// Capacity of a phase cache: far above any realistic CFG mode or
    /// tenant-mix count, low enough to bound a pathological run.
    pub const PHASE_CAPACITY: usize = 64;

    /// The single-owner phase cache: one shard (so LRU order is global),
    /// [`Self::PHASE_CAPACITY`] entries, `cache.*` telemetry.
    pub fn for_phases() -> Self {
        Self::with_shards(1, Self::PHASE_CAPACITY, CacheMetrics::PHASE)
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    /// A cache of `shards` shards holding at most `capacity` entries in
    /// total (each bound is clamped to at least 1 shard / 1 entry per
    /// shard), reporting to the `metrics` counters.
    pub fn with_shards(shards: usize, capacity: usize, metrics: CacheMetrics) -> Self {
        let shards = shards.max(1);
        let per_shard = (capacity.max(1)).div_ceil(shards);
        ShardedCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: FxHashMap::default(),
                        tick: 0,
                    })
                })
                .collect(),
            per_shard,
            metrics,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Total capacity (shards × per-shard bound).
    pub fn capacity(&self) -> usize {
        self.per_shard * self.shards.len()
    }

    fn shard_for<Q: Hash + ?Sized>(&self, key: &Q) -> &Mutex<Shard<K, V>> {
        // `Borrow` guarantees a borrowed key hashes like its owner, so
        // `get("k")` and `insert(String::from("k"), ..)` pick one shard.
        let mut h = FxHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    fn lock(shard: &Mutex<Shard<K, V>>) -> std::sync::MutexGuard<'_, Shard<K, V>> {
        // A panic while holding a shard lock (allocation failure at
        // worst — the critical sections call no user code) only loses
        // cache entries, never corrupts them; serving must not stop.
        shard
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Looks `key` up, stamping LRU order and counting a hit; a miss is
    /// counted only when `count_miss`.
    fn lookup<Q>(&self, key: &Q, count_miss: bool) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut shard = Self::lock(self.shard_for(key));
        shard.tick += 1;
        let tick = shard.tick;
        match shard.entries.get_mut(key) {
            Some(e) => {
                e.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                haxconn_telemetry::counter_add(self.metrics.hits, 1);
                Some(e.value.clone())
            }
            None => {
                if count_miss {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    haxconn_telemetry::counter_add(self.metrics.misses, 1);
                }
                None
            }
        }
    }

    /// Returns a clone of the cached value for `key`, if present.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.lookup(key, true)
    }

    /// Like [`get`](Self::get), but a miss counts *nothing*: the caller
    /// will fall through to the full lookup path, which does the miss
    /// accounting, so per-request hit/miss counters stay exactly-once.
    /// A hit still bumps the LRU stamp and the hit counters. This is
    /// the probe for opportunistic fast paths (the serve reactor
    /// answers cache hits inline and dispatches everything else).
    pub fn probe<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.lookup(key, false)
    }

    /// Stores `value` under `key`, replacing any previous value, and
    /// evicts the shard's least-recently-used entry if a new key finds
    /// the shard full. Capacities are small, so a linear scan beats
    /// maintaining an intrusive list.
    pub fn insert(&self, key: K, value: V) {
        let mut shard = Self::lock(self.shard_for(&key));
        shard.tick += 1;
        let tick = shard.tick;
        if shard.entries.len() >= self.per_shard && !shard.entries.contains_key(&key) {
            let lru = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            if let Some(k) = lru {
                shard.entries.remove(&k);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                haxconn_telemetry::counter_add(self.metrics.evictions, 1);
            }
        }
        shard.entries.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
    }

    /// `(hits, misses, evictions)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| Self::lock(s).entries.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::DnnTask;
    use haxconn_dnn::Model;
    use haxconn_profiler::NetworkProfile;
    use haxconn_soc::orin_agx;
    use std::sync::Arc;

    fn cache(shards: usize, capacity: usize) -> ShardedCache<String, Arc<u32>> {
        ShardedCache::with_shards(shards, capacity, CacheMetrics::ENGINE)
    }

    fn workload(models: &[Model]) -> Workload {
        let p = orin_agx();
        Workload::concurrent(
            models
                .iter()
                .map(|&m| DnnTask::new(m.name(), NetworkProfile::profile(&p, m, 6)))
                .collect(),
        )
    }

    #[test]
    fn get_insert_round_trip_with_counters() {
        let c = cache(8, 1024);
        assert!(c.get("a").is_none());
        c.insert("a".into(), Arc::new(7));
        assert_eq!(*c.get("a").unwrap(), 7);
        assert_eq!(c.stats(), (1, 1, 0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn probe_miss_counts_nothing() {
        let c = cache(8, 1024);
        assert!(c.probe("a").is_none());
        assert_eq!(c.stats(), (0, 0, 0));
        c.insert("a".into(), Arc::new(1));
        assert_eq!(c.probe("a").as_deref(), Some(&1));
        assert_eq!(c.stats(), (1, 0, 0));
    }

    #[test]
    fn single_shard_lru_evicts_in_touch_order() {
        // One shard, so LRU order is global.
        let c = cache(1, 3);
        for (i, k) in ["a", "b", "c"].into_iter().enumerate() {
            c.insert(k.into(), Arc::new(i as u32));
        }
        // Touch order is now b, c, a (oldest first) ...
        assert!(c.get("a").is_some());
        // ... so the next two inserts evict b, then c.
        c.insert("d".into(), Arc::new(3));
        assert!(c.probe("b").is_none());
        c.insert("e".into(), Arc::new(4));
        assert!(c.probe("c").is_none());
        for k in ["a", "d", "e"] {
            assert!(c.probe(k).is_some(), "{k} was evicted");
        }
        assert_eq!((c.len(), c.stats().2), (3, 2));
    }

    #[test]
    fn reinsert_replaces_without_evicting() {
        let c = cache(1, 1);
        c.insert("a".into(), Arc::new(1));
        c.insert("a".into(), Arc::new(2));
        assert_eq!((c.len(), c.stats().2), (1, 0));
        assert_eq!(c.probe("a").as_deref(), Some(&2));
        c.insert("b".into(), Arc::new(3));
        assert_eq!((c.len(), c.stats().2), (1, 1));
    }

    #[test]
    fn shared_across_threads() {
        let c = Arc::new(ShardedCache::<String, Arc<u64>>::with_shards(
            4,
            64,
            CacheMetrics::ENGINE,
        ));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..16u64 {
                    c.insert(format!("k{}", (t * 16 + i) % 32), Arc::new(i));
                    let _ = c.get(&format!("k{}", i % 32));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.len() <= 32);
        let (h, m, _) = c.stats();
        assert_eq!(h + m, 64);
    }

    #[test]
    fn signature_distinguishes_phases() {
        let a = WorkloadSignature::of(&workload(&[Model::GoogleNet, Model::ResNet18]));
        let b = WorkloadSignature::of(&workload(&[Model::GoogleNet, Model::ResNet50]));
        let a2 = WorkloadSignature::of(&workload(&[Model::GoogleNet, Model::ResNet18]));
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn signature_sees_deps_and_ties() {
        let base = workload(&[Model::GoogleNet, Model::GoogleNet]);
        let piped = workload(&[Model::GoogleNet, Model::GoogleNet]).with_dep(0, 1);
        let tied = workload(&[Model::GoogleNet, Model::GoogleNet]).with_tie(1, 0);
        let s0 = WorkloadSignature::of(&base);
        assert_ne!(s0, WorkloadSignature::of(&piped));
        assert_ne!(s0, WorkloadSignature::of(&tied));
    }

    #[test]
    fn phase_cache_keys_by_signature() {
        let c: ShardedCache<WorkloadSignature, u32> = ShardedCache::for_phases();
        assert_eq!(c.capacity(), 64);
        let a = workload(&[Model::GoogleNet, Model::ResNet18]);
        c.insert(WorkloadSignature::of(&a), 1);
        // A separately built workload with the same structure hits.
        let again = workload(&[Model::GoogleNet, Model::ResNet18]);
        assert_eq!(c.get(&WorkloadSignature::of(&again)), Some(1));
        let other = workload(&[Model::GoogleNet, Model::ResNet50]);
        assert!(c.get(&WorkloadSignature::of(&other)).is_none());
        assert_eq!(c.stats(), (1, 1, 0));
    }
}
