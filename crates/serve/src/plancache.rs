//! The cross-batch plan cache: a bounded LRU from [`BatchKey`] to shared
//! [`FramePlan`]s.
//!
//! Batching amortizes bricking and staging *within* one batch; this cache
//! amortizes them *across* batches: consecutive batches of the same
//! (cluster, volume, config) reuse the bricking and — more importantly — the
//! warm shared [`mgpu_voldata::BrickStore`] behind it, so a steady stream of
//! same-volume traffic stages each brick once for the lifetime of the cache
//! entry instead of once per batch. This is the service-layer analogue of
//! distributed render front-ends keeping per-partition render state resident
//! across requests (Hassan et al., arXiv:1205.0282; Sahistan et al.,
//! arXiv:2209.14537).
//!
//! Sharing is sound because a [`FramePlan`] is immutable apart from its
//! brick store, whose statistics are interior-mutable atomics and whose
//! per-frame attribution already goes through snapshot deltas
//! (`StoreSnapshot::since`) — `render_planned` stays bit-identical to a
//! direct `render` call no matter which batch, worker or service instance
//! the plan came from (a compile-time assertion below pins `FramePlan:
//! Send + Sync`).

use std::sync::Arc;

use mgpu_volren::renderer::FramePlan;

use crate::batch::BatchKey;
use crate::cache::LruCache;

/// Bounded LRU over shared frame plans. `capacity` is in plans; zero
/// disables cross-batch reuse (every batch builds its own plan). Eviction
/// drops the `Arc`, so plans still in use by an in-flight batch stay alive
/// until that batch finishes. Racing workers may both prepare and insert a
/// plan; last one wins, both render correctly (plans for equal keys are
/// interchangeable).
pub(crate) type PlanCache = LruCache<BatchKey, Arc<FramePlan>>;

// A cached plan is handed to whichever worker thread renders the next batch:
// it must be shareable across threads. `const` so a regression to interior
// non-Sync state inside FramePlan fails the build, not a test.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FramePlan>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheMeters, CacheSnapshot};
    use mgpu_cluster::ClusterSpec;
    use mgpu_voldata::Dataset;
    use mgpu_volren::RenderConfig;

    fn plan_for(gpus: u32) -> (BatchKey, Arc<FramePlan>) {
        let spec = ClusterSpec::accelerator_cluster(gpus);
        let volume = Dataset::Skull.volume(16);
        let cfg = RenderConfig::test_size(16);
        let key = BatchKey::new(&spec, &volume, &cfg);
        let plan = Arc::new(FramePlan::prepare(&spec, &volume, &cfg));
        (key, plan)
    }

    #[test]
    fn caches_and_evicts_plans() {
        let cache = PlanCache::new(1, CacheMeters::default());
        let (k1, p1) = plan_for(1);
        let (k2, p2) = plan_for(2);
        assert!(cache.get(&k1).is_none());
        cache.insert(k1.clone(), Arc::clone(&p1));
        let hit = cache.get(&k1).expect("cached plan");
        assert!(Arc::ptr_eq(&hit, &p1), "must hand back the same plan");
        cache.insert(k2.clone(), p2);
        assert!(cache.get(&k1).is_none(), "capacity 1: k1 evicted");
        let snap = cache.snapshot();
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.hits, 1);
        // p1 is still alive and renderable through our Arc even though the
        // cache dropped it.
        assert!(p1.brick_count() > 0);
    }

    #[test]
    fn zero_capacity_disables_reuse() {
        let cache = PlanCache::new(0, CacheMeters::default());
        let (k, p) = plan_for(1);
        cache.insert(k.clone(), p);
        assert!(cache.get(&k).is_none());
        assert_eq!(cache.snapshot(), CacheSnapshot::default());
    }
}
