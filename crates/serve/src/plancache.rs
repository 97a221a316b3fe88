//! The plan cache: a bounded LRU from plan keys to shared [`FramePlan`]s —
//! the one way frames of a key share bricking and staging.
//!
//! Every frame of the same (cluster, volume, config) reuses the bricking
//! and — more importantly — the warm shared [`mgpu_voldata::BrickStore`]
//! behind it, so a steady stream of same-volume traffic stages each brick
//! once for the lifetime of the cache entry instead of once per frame. This
//! is the service-layer analogue of distributed render front-ends keeping
//! per-partition render state resident across requests (Hassan et al.,
//! arXiv:1205.0282; Sahistan et al., arXiv:2209.14537).
//!
//! Sharing is sound because a [`FramePlan`] is immutable apart from its
//! brick store, whose statistics are interior-mutable atomics and whose
//! per-frame attribution already goes through snapshot deltas
//! (`StoreSnapshot::since`) — `render_planned` stays bit-identical to a
//! direct `render` call no matter which frame, worker or service instance
//! the plan came from (a compile-time assertion below pins `FramePlan:
//! Send + Sync`).

use std::sync::Arc;

use mgpu_volren::renderer::FramePlan;
use mgpu_volren::RequestKey;

use crate::cache::LruCache;
use crate::SceneRequest;

/// Bounded LRU over shared frame plans. `capacity` is in plans; zero
/// disables reuse (every frame builds its own plan). Eviction drops the
/// `Arc`, so plans still in use by an in-flight render stay alive until it
/// finishes.
pub(crate) type PlanCache = LruCache<RequestKey, Arc<FramePlan>>;

impl PlanCache {
    /// The one way to a plan, for the worker and `prewarm` alike: look
    /// `key` up; on a miss, prepare `request`'s plan and insert it unless a
    /// racer got there first, in which case adopt the racer's — so workers
    /// racing on a cold key render on one brick store. Returns the plan and
    /// whether this call prepared one.
    pub fn acquire(&self, key: &RequestKey, request: &SceneRequest) -> (Arc<FramePlan>, bool) {
        if let Some(plan) = self.get(key) {
            return (plan, false);
        }
        let fresh = Arc::new(FramePlan::prepare(
            &request.spec,
            &request.volume,
            &request.config,
        ));
        (self.insert(key.clone(), fresh), true)
    }
}

// A cached plan is handed to whichever worker thread renders the next frame:
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

    fn plan_for(gpus: u32) -> (RequestKey, Arc<FramePlan>) {
        let spec = ClusterSpec::accelerator_cluster(gpus);
        let volume = Dataset::Skull.volume(16);
        let cfg = RenderConfig::test_size(16);
        let key = RequestKey::plan(&spec, &volume.meta, &cfg);
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
    fn acquire_prepares_once_then_shares() {
        use crate::queue::Priority;
        use mgpu_volren::camera::Scene;
        use mgpu_volren::TransferFunction;

        let volume = Dataset::Skull.volume(16);
        let request = SceneRequest {
            spec: ClusterSpec::accelerator_cluster(2),
            scene: Scene::orbit(&volume, 0.0, 0.0, TransferFunction::bone()),
            config: RenderConfig::test_size(16),
            volume,
            priority: Priority::Normal,
        };
        let key = request.plan_key();
        let cache = PlanCache::new(1, CacheMeters::default());
        let (first, built) = cache.acquire(&key, &request);
        assert!(built);
        let (again, built) = cache.acquire(&key, &request);
        assert!(!built, "a resident plan is reused");
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!((cache.snapshot().hits, cache.snapshot().misses), (1, 1));

        // Disabled: every acquisition prepares its own plan.
        let off = PlanCache::new(0, CacheMeters::default());
        let (a, _) = off.acquire(&key, &request);
        let (b, built) = off.acquire(&key, &request);
        assert!(built && !Arc::ptr_eq(&a, &b));
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
