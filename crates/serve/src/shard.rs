//! The shard router: rendezvous-hash plan keys ([`BatchKey`]) over N
//! independent [`RenderService`] instances.
//!
//! One service instance serializes every volume behind one queue and one
//! plan cache; under many-volume traffic the volumes contend. A
//! [`ShardedService`] runs N full services side by side and routes each
//! request by its [`BatchKey`] — the same (cluster, volume, config) always
//! lands on the same shard, so a volume's frames keep hitting the shard
//! whose plan cache (and brick store) is warm, while distinct volumes
//! spread across shards and stop contending.
//!
//! Routing uses rendezvous (highest-random-weight) hashing: every shard
//! gets a deterministic per-key score and the max wins. Growing the fleet
//! from N to N+1 shards only moves the keys whose max moved to the new
//! shard (~1/(N+1) of them) — no global reshuffle that would cold-start
//! every plan cache at once.

use std::time::Duration;

use mgpu_obs::{names, Snapshot};
use mgpu_voldata::volume::{fnv1a, FNV_OFFSET};

use crate::batch::BatchKey;
use crate::cache::CacheSnapshot;
use crate::{
    AdmissionError, FrameTicket, RenderService, Reply, SceneRequest, ServiceConfig, ServiceInner,
    ServiceReport,
};

/// Point-in-time load ("heat") of one shard — what a rebalancer or an
/// operator dashboard watches per shard: queue pressure, throughput, and
/// whether the shard's caches are actually warm for the keys it owns.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardHeat {
    /// Index into [`ShardedService::shard`].
    pub shard: usize,
    /// Queued jobs per class, `[batch, normal, interactive]`.
    pub queue_depths: [usize; 3],
    pub frames_completed: u64,
    pub frames_per_sec: f64,
    /// Frame-cache occupancy and hit counters for this shard.
    pub frame_cache: CacheSnapshot,
    /// Plan-cache occupancy and hit counters for this shard.
    pub plan_cache: CacheSnapshot,
    pub mean_queue_wait: Duration,
    /// Tail queue wait (p90) — rises first when a shard runs hot.
    pub queue_wait_p90: Duration,
}

impl ShardHeat {
    /// The heat view over one shard's snapshot and uptime — the same
    /// snapshot that, merged with its siblings', feeds the node-wide
    /// [`ServiceReport`], so shard counters always sum to the merged ones.
    pub fn from_snapshot(shard: usize, snap: &Snapshot, uptime: Duration) -> ShardHeat {
        let report = ServiceReport::from_snapshot(snap, uptime);
        let depth = |name: &str| usize::try_from(snap.gauge(name).unwrap_or(0)).unwrap_or(0);
        ShardHeat {
            shard,
            queue_depths: [
                depth(names::SERVE_QUEUE_DEPTH_BATCH),
                depth(names::SERVE_QUEUE_DEPTH_NORMAL),
                depth(names::SERVE_QUEUE_DEPTH_INTERACTIVE),
            ],
            frames_completed: report.frames_completed,
            frames_per_sec: report.frames_per_sec(),
            frame_cache: report.frame_cache,
            plan_cache: report.plan_cache,
            mean_queue_wait: report.mean_queue_wait,
            queue_wait_p90: report.queue_wait_p90(),
        }
    }

    /// Total queued jobs on this shard.
    pub fn queue_depth(&self) -> usize {
        self.queue_depths.iter().sum()
    }
}

/// FNV-1a over the key bytes, salted with the shard index — the rendezvous
/// score of (key, shard). Stable across runs and platforms (the same hash
/// voldata uses for content fingerprints).
fn rendezvous_score(key: &BatchKey, shard: u64) -> u64 {
    fnv1a(&shard.to_le_bytes(), fnv1a(key.bytes(), FNV_OFFSET))
}

/// The placement policy: which of `shards` owners a key lands on. This is
/// *the* routing function for the whole stack — [`ShardedService`] routes
/// in-process shards with it, and `mgpu-net`'s node `Directory` routes
/// whole render nodes with it, so a key's shard inside one process and its
/// node across processes are chosen by one consistent rule.
pub fn route(key: &BatchKey, shards: usize) -> usize {
    (0..shards as u64)
        .max_by_key(|i| rendezvous_score(key, *i))
        .expect("at least one shard") as usize
}

/// Every owner in preference order (highest rendezvous score first):
/// `ranked(...)[0] == route(...)`, and the tail is the deterministic
/// failover order a multi-node pool walks when the preferred node is down.
pub fn ranked(key: &BatchKey, shards: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shards).collect();
    order.sort_by_key(|i| std::cmp::Reverse(rendezvous_score(key, *i as u64)));
    order
}

/// N independent render services behind one handle, with rendezvous routing
/// by plan key. Each shard has its own queue, workers, frame cache and
/// plan cache; admission control applies per shard.
pub struct ShardedService {
    shards: Vec<RenderService>,
}

impl ShardedService {
    /// Start `shards` identical services (each with `config.workers`
    /// workers — total worker threads are `shards × workers`).
    pub fn start(shards: usize, config: ServiceConfig) -> ShardedService {
        assert!(shards >= 1, "sharded service needs at least one shard");
        ShardedService {
            shards: (0..shards)
                .map(|_| RenderService::start(config.clone()))
                .collect(),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns this plan key (deterministic).
    pub fn shard_for(&self, key: &BatchKey) -> usize {
        route(key, self.shards.len())
    }

    /// Direct access to one shard (reports, cache snapshots).
    pub fn shard(&self, index: usize) -> &RenderService {
        &self.shards[index]
    }

    /// Pre-warm the owning shard's plan cache for `request`'s plan key:
    /// build its brick grid and an empty brick store (see
    /// [`RenderService::prewarm`]; no brick is staged). Returns the shard
    /// routed to and whether a plan was actually built (`false` = already
    /// warm).
    pub fn prewarm(&self, request: &SceneRequest) -> (usize, bool) {
        let key = BatchKey::of(request);
        let shard = self.shard_for(&key);
        (shard, self.shards[shard].inner.prewarm(&key, request))
    }

    /// The shard that owns `request`, with the key it was routed by — handed
    /// down so the shard never computes it again.
    fn owner(&self, request: &SceneRequest) -> (&ServiceInner, BatchKey) {
        let key = BatchKey::of(request);
        (&self.shards[self.shard_for(&key)].inner, key)
    }

    /// Submit one frame request to its owning shard (blocking form — see
    /// [`RenderService::submit`]).
    pub fn submit(&self, request: SceneRequest) -> FrameTicket {
        let (shard, key) = self.owner(&request);
        shard.submit(key, request)
    }

    /// Submit without blocking; sheds with [`AdmissionError`] when the
    /// owning shard's queue is at this priority's bound.
    pub fn try_submit(&self, request: SceneRequest) -> Result<FrameTicket, AdmissionError> {
        let (shard, key) = self.owner(&request);
        shard.try_submit(key, request)
    }

    /// [`RenderService::try_submit_traced`] routed to the owning shard: the
    /// completion hook runs on that shard's worker (or inline on a cache
    /// hit; never on [`AdmissionError`]), and the caller-provided trace
    /// travels with the job, so the shard's worker and renderer record
    /// their spans onto the request's end-to-end trace.
    pub fn try_submit_traced(
        &self,
        request: SceneRequest,
        trace: std::sync::Arc<mgpu_obs::Trace>,
        on_done: impl FnOnce(crate::FrameResult) + Send + 'static,
    ) -> Result<(), AdmissionError> {
        let (shard, key) = self.owner(&request);
        shard.try_admit(key, request, Reply::hook(on_done), trace)
    }

    /// Resume every shard after [`ServiceConfig::start_paused`].
    pub fn resume(&self) {
        for s in &self.shards {
            s.resume();
        }
    }

    /// Each shard's own `serve.*` snapshot, indexed like
    /// [`ShardedService::shard`] — what a network front-end's `STATS`
    /// reply ships; every other view here is derived from these.
    pub fn shard_snapshots(&self) -> Vec<Snapshot> {
        self.shards.iter().map(RenderService::snapshot).collect()
    }

    /// Real elapsed time since the shards started (shard 0 starts first,
    /// so its uptime is the longest).
    pub fn uptime(&self) -> Duration {
        self.shards[0].uptime()
    }

    /// Accounting across shards: the report over their merged snapshots.
    pub fn report(&self) -> ServiceReport {
        let mut merged = Snapshot::new();
        for snap in self.shard_snapshots() {
            merged.merge(&snap);
        }
        ServiceReport::from_snapshot(&merged, self.uptime())
    }

    /// Shut every shard down (draining their queues) and report the final
    /// totals. Every ticket submitted before the call still resolves.
    pub fn shutdown(mut self) -> ServiceReport {
        for shard in &mut self.shards {
            shard.teardown();
        }
        self.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<BatchKey> {
        (0..n).map(BatchKey::synthetic).collect()
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for key in keys(64) {
            let a = route(&key, 4);
            assert!(a < 4);
            assert_eq!(a, route(&key, 4), "same key, same shard");
        }
        // Single shard: everything routes to it.
        for key in keys(8) {
            assert_eq!(route(&key, 1), 0);
        }
    }

    /// `ranked` is the full preference order behind `route`: same winner,
    /// every shard listed exactly once.
    #[test]
    fn ranked_agrees_with_route_and_is_a_permutation() {
        for key in keys(64) {
            let order = ranked(&key, 5);
            assert_eq!(order[0], route(&key, 5));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn keys_spread_over_shards() {
        let mut used = [false; 4];
        for key in keys(256) {
            used[route(&key, 4)] = true;
        }
        assert!(used.iter().all(|u| *u), "256 keys must touch all 4 shards");
    }

    /// Heat metrics see the load where it actually landed: the shard that
    /// served the traffic reports the frames, the queue depths and a warm
    /// frame cache; idle shards report zeros.
    #[test]
    fn heat_reflects_per_shard_load() {
        use crate::backend::RenderBackend;
        use mgpu_cluster::ClusterSpec;
        use mgpu_voldata::Dataset;
        use mgpu_volren::camera::Scene;
        use mgpu_volren::config::RenderConfig;
        use mgpu_volren::TransferFunction;

        let sharded = ShardedService::start(2, ServiceConfig::default());
        let volume = Dataset::Skull.volume(8);
        let spec = ClusterSpec::accelerator_cluster(1);
        let cfg = RenderConfig::test_size(8);
        let session = sharded.session(spec.clone(), volume.clone(), cfg.clone());
        let owner = sharded.shard_for(&BatchKey::new(&spec, &volume, &cfg));
        for _ in 0..2 {
            // Same scene twice: the second resolves from the frame cache.
            session
                .request(Scene::orbit(&volume, 0.0, 0.0, TransferFunction::bone()))
                .wait();
        }
        let uptime = sharded.uptime();
        let heat: Vec<ShardHeat> = (sharded.shard_snapshots().iter().enumerate())
            .map(|(i, snap)| ShardHeat::from_snapshot(i, snap, uptime))
            .collect();
        assert_eq!(heat.len(), 2);
        assert_eq!(heat[owner].frames_completed, 2);
        assert_eq!(heat[owner].frame_cache.entries, 1);
        assert!(heat[owner].frame_cache.hits >= 1, "repeat view must hit");
        assert_eq!(heat[1 - owner].frames_completed, 0);
        assert_eq!(heat[1 - owner].frame_cache.entries, 0);
        for h in &heat {
            assert_eq!(h.queue_depth(), 0, "drained after wait()");
        }
        // The merged report folds the same occupancy numbers.
        let merged = sharded.report();
        assert_eq!(merged.frame_cache.entries, 1);
        assert_eq!(
            merged.frame_cache.capacity,
            ServiceConfig::default().cache_frames * 2
        );
    }

    /// The rendezvous property: growing the fleet moves a key only if its
    /// new-max score belongs to the added shard — nothing shuffles between
    /// pre-existing shards (their plan caches stay warm).
    #[test]
    fn adding_a_shard_only_moves_keys_to_the_new_shard() {
        let mut moved = 0;
        for key in keys(512) {
            let before = route(&key, 4);
            let after = route(&key, 5);
            if after != before {
                assert_eq!(after, 4, "a moved key may only land on the new shard");
                moved += 1;
            }
        }
        assert!(moved > 0, "some keys should adopt the new shard");
        assert!(
            moved < 512 / 2,
            "rendezvous must not reshuffle wholesale ({moved}/512 moved)"
        );
    }
}
