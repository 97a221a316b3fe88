//! Bounded LRU caches: the frame cache over rendered frames and the backing
//! store for the plan cache.
//!
//! [`LruCache`] is the shared mechanism: a key→value map plus a recency
//! index (a `BTreeSet` ordered by last-touch tick), so eviction pops the
//! least-recently-used entry in O(log n) instead of scanning every entry
//! under the lock — the service holds these locks on its hot submit path.
//!
//! [`FrameCache`] keys rendered frames by their frame [`RequestKey`], equal
//! iff every rendering input is bit-equal: repeated views — the common case
//! for interactive sessions orbiting a dataset — are answered without
//! touching the queue or the renderer, and never on a hash collision.

use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use mgpu_obs::{Counter, Gauge};

use mgpu_volren::RequestKey;

#[derive(Debug)]
struct CacheInner<K, V> {
    entries: HashMap<K, (V, u64)>,
    /// Recency index: `(last-touch tick, key)`, so the first element is
    /// always the LRU victim. Kept in lockstep with `entries`.
    recency: BTreeSet<(u64, K)>,
    tick: u64,
}

impl<K: Eq + Hash + Ord + Clone, V: Clone> CacheInner<K, V> {
    /// Advance the clock; if `key` is resident, stamp it as used now and
    /// hand back its value.
    fn touch(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let (value, last) = self.entries.get_mut(key)?;
        self.recency.remove(&(*last, key.clone()));
        self.recency.insert((self.tick, key.clone()));
        *last = self.tick;
        Some(value.clone())
    }
}

/// The instruments a cache counts into — its only tallies. A service hands
/// in handles from its own registry; the default is detached ones.
#[derive(Debug, Default)]
pub(crate) struct CacheMeters {
    pub hits: Arc<Counter>,
    pub misses: Arc<Counter>,
    pub evictions: Arc<Counter>,
    pub entries: Arc<Gauge>,
    pub capacity: Arc<Gauge>,
}

/// Point-in-time cache counters. `entries`/`capacity` give the occupancy
/// the shard heat metrics report; the counters are monotonic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    pub entries: usize,
    /// Configured bound in entries (0 = cache disabled).
    pub capacity: usize,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl CacheSnapshot {
    /// Occupied fraction of the configured capacity (0.0 when disabled).
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.entries as f64 / self.capacity as f64
        }
    }

    /// Fraction of counted lookups that hit (0.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const POISON: &str = "cache lock poisoned";

/// A bounded LRU cache from `K` to `V`. `capacity` is in entries; zero
/// disables caching entirely (every `get` misses, `insert` stores nothing).
#[derive(Debug)]
pub(crate) struct LruCache<K, V> {
    capacity: usize,
    meters: CacheMeters,
    inner: Mutex<CacheInner<K, V>>,
}

/// The service's cache of rendered frames (stores [`crate::RenderedFrame`]).
pub(crate) type FrameCache<V> = LruCache<RequestKey, V>;

impl<K: Eq + Hash + Ord + Clone, V: Clone> LruCache<K, V> {
    pub fn new(capacity: usize, meters: CacheMeters) -> LruCache<K, V> {
        meters.capacity.set(capacity as i64);
        LruCache {
            capacity,
            meters,
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                recency: BTreeSet::new(),
                tick: 0,
            }),
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect(POISON).entries.len()
    }

    /// Look up an entry, refreshing its recency on hit.
    pub fn get(&self, key: &K) -> Option<V> {
        self.lookup(key, true)
    }

    /// Like [`LruCache::get`], but a lookup failure does not count as a
    /// miss. This is the worker's in-flight coalescing *re-check* of a key
    /// that already missed at submit time — counting it again would report
    /// every rendered frame as two misses.
    pub fn recheck(&self, key: &K) -> Option<V> {
        self.lookup(key, false)
    }

    fn lookup(&self, key: &K, count_miss: bool) -> Option<V> {
        if self.capacity == 0 {
            return None;
        }
        let hit = self.inner.lock().expect(POISON).touch(key);
        if hit.is_some() {
            self.meters.hits.inc();
        } else if count_miss {
            self.meters.misses.inc();
        }
        hit
    }

    /// Insert an entry unless one is already resident, and hand back the
    /// entry the cache now holds: the resident one (its recency refreshed)
    /// or `value`. Racing inserters of one key thus all end up sharing the
    /// first one's value. Evicts least-recently-used entries past capacity
    /// — O(log n) per eviction via the recency index. A disabled cache
    /// hands `value` straight back.
    pub fn insert(&self, key: K, value: V) -> V {
        if self.capacity == 0 {
            return value;
        }
        let mut inner = self.inner.lock().expect(POISON);
        if let Some(resident) = inner.touch(&key) {
            return resident;
        }
        let inner = &mut *inner;
        let tick = inner.tick;
        inner.entries.insert(key.clone(), (value.clone(), tick));
        inner.recency.insert((tick, key));
        while inner.entries.len() > self.capacity {
            match inner.recency.pop_first() {
                Some((_, victim)) => {
                    inner.entries.remove(&victim);
                    self.meters.evictions.inc();
                }
                None => break,
            }
        }
        self.meters.entries.set(inner.entries.len() as i64);
        value
    }

    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            entries: self.len(),
            capacity: self.capacity,
            hits: self.meters.hits.get(),
            misses: self.meters.misses.get(),
            evictions: self.meters.evictions.get(),
        }
    }

    #[cfg(test)]
    fn contains(&self, key: &K) -> bool {
        self.inner.lock().expect(POISON).entries.contains_key(key)
    }

    /// Invariant check: the recency index mirrors the entry map exactly.
    #[cfg(test)]
    fn assert_consistent(&self) {
        let inner = self.inner.lock().expect(POISON);
        assert_eq!(inner.entries.len(), inner.recency.len());
        for (key, (_, last)) in &inner.entries {
            assert!(
                inner.recency.contains(&(*last, key.clone())),
                "entry tick missing from recency index"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_cluster::ClusterSpec;
    use mgpu_voldata::Volume;
    use mgpu_volren::camera::Scene;
    use mgpu_volren::config::RenderConfig;

    /// A distinct frame key per tag: one volume, one scene, `tag + 1` GPUs.
    fn key(tag: u32) -> RequestKey {
        let volume = Volume::in_memory("cached", [2, 2, 2], vec![0.5; 8]);
        let scene = Scene::orbit(&volume, 0.0, 0.0, mgpu_volren::TransferFunction::bone());
        let spec = ClusterSpec::accelerator_cluster(tag + 1);
        frame_key(&spec, &volume, &scene, &RenderConfig::test_size(8))
    }

    #[test]
    fn hit_refreshes_and_counts() {
        let c: FrameCache<u32> = FrameCache::new(4, CacheMeters::default());
        c.insert(key(1), 11);
        assert!(c.get(&key(2)).is_none());
        assert_eq!(c.get(&key(1)), Some(11));
        let snap = c.snapshot();
        assert_eq!((snap.hits, snap.misses), (1, 1));
    }

    #[test]
    fn eviction_is_strict_lru_order() {
        let c: FrameCache<u32> = FrameCache::new(2, CacheMeters::default());
        c.insert(key(1), 1);
        c.insert(key(2), 2);
        // Touch 1 so 2 becomes the LRU victim.
        c.get(&key(1)).unwrap();
        c.insert(key(3), 3);
        assert!(c.contains(&key(1)));
        assert!(!c.contains(&key(2)), "2 was least recently used");
        assert!(c.contains(&key(3)));
        // Next eviction removes 1 (3 arrived after the touch of 1).
        c.insert(key(4), 4);
        assert!(!c.contains(&key(1)));
        assert!(c.contains(&key(3)));
        assert!(c.contains(&key(4)));
        assert_eq!(c.snapshot().evictions, 2);
    }

    #[test]
    fn recheck_counts_hits_but_not_misses() {
        let c: FrameCache<u32> = FrameCache::new(2, CacheMeters::default());
        assert!(c.recheck(&key(1)).is_none());
        c.insert(key(1), 1);
        assert_eq!(c.recheck(&key(1)), Some(1));
        let snap = c.snapshot();
        assert_eq!((snap.hits, snap.misses), (1, 0));
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let c: FrameCache<u32> = FrameCache::new(2, CacheMeters::default());
        c.insert(key(1), 1);
        c.insert(key(2), 2);
        // Refresh, no eviction: len stays 2 and the resident value stays.
        assert_eq!(c.insert(key(1), 10), 1);
        c.insert(key(3), 3); // victim must be 2, not 1
        assert_eq!(c.get(&key(1)), Some(1));
        assert!(!c.contains(&key(2)));
    }

    /// Insert is insert-if-absent: a second insert of a resident key hands
    /// back the resident `Arc`, so racing plan builders share one plan.
    #[test]
    fn insert_onto_a_resident_key_hands_back_the_resident_value() {
        let c: LruCache<u32, Arc<u32>> = LruCache::new(2, CacheMeters::default());
        let first = Arc::new(7);
        assert!(Arc::ptr_eq(&c.insert(1, Arc::clone(&first)), &first));
        let racer = Arc::new(7);
        let kept = c.insert(1, Arc::clone(&racer));
        assert!(Arc::ptr_eq(&kept, &first), "the resident value wins");
        assert!(!Arc::ptr_eq(&kept, &racer));
        assert!(Arc::ptr_eq(&c.get(&1).unwrap(), &first));
        assert_eq!(c.snapshot().entries, 1);
        // A disabled cache stores nothing and hands the value straight back.
        let off: LruCache<u32, Arc<u32>> = LruCache::new(0, CacheMeters::default());
        assert!(Arc::ptr_eq(&off.insert(1, Arc::clone(&racer)), &racer));
    }

    #[test]
    fn zero_capacity_disables() {
        let c: FrameCache<u32> = FrameCache::new(0, CacheMeters::default());
        c.insert(key(1), 1);
        assert!(c.get(&key(1)).is_none());
        // A disabled cache records no statistics at all.
        assert_eq!(c.snapshot(), CacheSnapshot::default());
    }

    /// Guard for the O(log n) eviction refactor: a large churn of inserts,
    /// touches and evictions keeps the recency index and the entry map in
    /// lockstep, and evicts in exact LRU order throughout.
    #[test]
    fn recency_index_survives_churn() {
        let c: LruCache<u32, u32> = LruCache::new(16, CacheMeters::default());
        for i in 0..2_000u32 {
            c.insert(i, i);
            // Touch a sliding window of survivors in a scrambled order.
            if i >= 16 {
                c.get(&(i - (i % 7) % 16));
                c.recheck(&(i - (i % 13) % 16));
            }
            if i % 97 == 0 {
                c.assert_consistent();
            }
        }
        c.assert_consistent();
        let snap = c.snapshot();
        assert_eq!(snap.entries, 16);
        assert_eq!(snap.evictions, 2_000 - 16);
        // Touches only ever refresh keys already inside the sliding window,
        // so every survivor comes from the most recent window of inserts.
        assert!(c.contains(&1_999), "the newest key always survives");
        for i in 0..1_968 {
            assert!(!c.contains(&i), "stale key {i} must have been evicted");
        }
    }

    /// `len` and the snapshot's occupancy and hit counters track the cache.
    #[test]
    fn occupancy_tracks_the_cache() {
        let c: FrameCache<u32> = FrameCache::new(2, CacheMeters::default());
        assert_eq!(c.len(), 0);
        c.insert(key(1), 1);
        c.insert(key(2), 2);
        assert_eq!(c.len(), 2);
        c.insert(key(3), 3); // evicts: len stays at capacity
        assert_eq!(c.len(), 2);
        c.get(&key(3)).unwrap();
        c.recheck(&key(3)).unwrap();
        let snap = c.snapshot();
        assert_eq!(snap.hits, 2, "get and recheck both count hits");
        assert_eq!((snap.entries, snap.capacity), (2, 2));
        assert_eq!(snap.occupancy(), 1.0);
        assert_eq!(snap.hit_rate(), 1.0, "recheck misses are not counted");
    }

    #[test]
    fn snapshot_rates_have_no_nans() {
        let empty = CacheSnapshot::default();
        assert_eq!(empty.occupancy(), 0.0);
        assert_eq!(empty.hit_rate(), 0.0);
    }

    fn frame_key(
        spec: &ClusterSpec,
        volume: &Volume,
        scene: &Scene,
        cfg: &RenderConfig,
    ) -> RequestKey {
        RequestKey::plan(spec, &volume.meta, cfg).with_scene(scene)
    }

    #[test]
    fn frame_key_separates_every_input() {
        use mgpu_voldata::Dataset;
        use mgpu_volren::TransferFunction;

        let spec = ClusterSpec::accelerator_cluster(2);
        let volume = Dataset::Skull.volume(16);
        let scene = Scene::orbit(&volume, 30.0, 20.0, TransferFunction::bone());
        let cfg = RenderConfig::test_size(32);
        let base = frame_key(&spec, &volume, &scene, &cfg);
        assert_eq!(base, frame_key(&spec, &volume, &scene, &cfg));

        let scene2 = Scene::orbit(&volume, 31.0, 20.0, TransferFunction::bone());
        assert_ne!(base, frame_key(&spec, &volume, &scene2, &cfg));
        let cfg2 = RenderConfig::test_size(64);
        assert_ne!(base, frame_key(&spec, &volume, &scene, &cfg2));
        let spec2 = ClusterSpec::accelerator_cluster(4);
        assert_ne!(base, frame_key(&spec2, &volume, &scene, &cfg));
        let volume2 = Dataset::Supernova.volume(16);
        assert_ne!(base, frame_key(&spec, &volume2, &scene, &cfg));
    }

    /// Same metadata, different voxels: the `content` fingerprint keeps the
    /// keys apart (the frame-cache aliasing regression).
    #[test]
    fn frame_key_separates_same_meta_different_voxels() {
        let spec = ClusterSpec::accelerator_cluster(1);
        let cfg = RenderConfig::test_size(16);
        let dims = [8u32, 8, 8];
        let a = Volume::in_memory("twin", dims, vec![0.25; 512]);
        let b = Volume::in_memory("twin", dims, vec![0.75; 512]);
        let scene = Scene::orbit(&a, 0.0, 0.0, mgpu_volren::TransferFunction::bone());
        assert_ne!(
            frame_key(&spec, &a, &scene, &cfg),
            frame_key(&spec, &b, &scene, &cfg),
            "same-meta volumes with different voxels must not alias"
        );
    }
}
