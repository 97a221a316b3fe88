//! The shard router: rendezvous-hash plan keys ([`SceneRequest::plan_key`])
//! over N independent [`RenderService`] instances.
//!
//! One service instance serializes every volume behind one queue and one
//! plan cache; under many-volume traffic the volumes contend. A
//! [`ShardedService`] runs N full services side by side and routes each
//! request by its plan key — the same (cluster, volume, config) always
//! lands on the same shard, so a volume's frames keep hitting the shard
//! whose plan cache (and brick store) is warm, while distinct volumes
//! spread across shards and stop contending.
//!
//! Routing uses rendezvous (highest-random-weight) hashing: every shard
//! gets a deterministic score ([`RequestKey::score`]) and the max wins.
//! Growing the fleet from N to N+1 shards only moves the keys whose max
//! moved to the new shard (~1/(N+1) of them) — no global reshuffle that
//! would cold-start every plan cache at once. [`route`] places render
//! nodes (`mgpu-net`'s `Directory`) by the same rule; shards score apart
//! from nodes, so a key's shard is independent of the node that owns it.

use std::time::Duration;

use mgpu_obs::Snapshot;
use mgpu_volren::RequestKey;

use crate::{
    AdmissionError, FrameTicket, RenderService, Reply, SceneRequest, ServiceConfig, ServiceInner,
    ServiceReport,
};

/// A shard's score: the rendezvous score run through splitmix64's
/// finalizer, so a key's shard is independent of its node (with one shared
/// score, every key node `i` owns landed on shard `i`).
fn shard_score(key: &RequestKey, shard: u64) -> u64 {
    let z = key.score(shard);
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The node placement policy: the position in `ids` (the owners'
/// rendezvous ids, `0..n` for a directory that never lost a node) of the
/// owner a key lands on.
pub fn route(key: &RequestKey, ids: impl IntoIterator<Item = u64>) -> usize {
    ranked(key, ids)[0]
}

/// Every owner in preference order (highest rendezvous score first), as
/// positions in `ids`: `[0]` is [`route`]'s owner, and the tail is the
/// deterministic failover order a multi-node pool walks when the preferred
/// node is down.
pub fn ranked(key: &RequestKey, ids: impl IntoIterator<Item = u64>) -> Vec<usize> {
    let mut order: Vec<(usize, u64)> = ids
        .into_iter()
        .map(|id| key.score(id))
        .enumerate()
        .collect();
    order.sort_by_key(|&(_, score)| std::cmp::Reverse(score));
    order.into_iter().map(|(pos, _)| pos).collect()
}

/// Which of `shards` in-process shards owns a key.
fn shard_of(key: &RequestKey, shards: usize) -> usize {
    (0..shards as u64)
        .max_by_key(|&shard| shard_score(key, shard))
        .expect("at least one shard") as usize
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
    pub fn shard_for(&self, key: &RequestKey) -> usize {
        shard_of(key, self.shards.len())
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
        let key = request.plan_key();
        let shard = self.shard_for(&key);
        (shard, self.shards[shard].inner.prewarm(&key, request))
    }

    /// The shard that owns `request`, with the key it was routed by — handed
    /// down so the shard never computes it again.
    fn owner(&self, request: &SceneRequest) -> (&ServiceInner, RequestKey) {
        let key = request.plan_key();
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
    use mgpu_cluster::ClusterSpec;
    use mgpu_voldata::VolumeMeta;
    use mgpu_volren::config::RenderConfig;

    /// `n` distinct plan keys: one volume seed each.
    fn keys(n: usize) -> Vec<RequestKey> {
        let spec = ClusterSpec::accelerator_cluster(1);
        let cfg = RenderConfig::default();
        (0..n as u64)
            .map(|seed| {
                let dims = [8; 3];
                let (name, content) = ("routed".to_string(), 0);
                let meta = VolumeMeta {
                    name,
                    dims,
                    seed,
                    content,
                };
                RequestKey::plan(&spec, &meta, &cfg)
            })
            .collect()
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for key in keys(64) {
            let a = route(&key, 0..4);
            assert!(a < 4);
            assert_eq!(a, route(&key, 0..4), "same key, same node");
            let s = shard_of(&key, 4);
            assert!(s < 4);
            assert_eq!(s, shard_of(&key, 4), "same key, same shard");
        }
        // Single owner: everything routes to it.
        for key in keys(8) {
            assert_eq!(route(&key, 0..1), 0);
            assert_eq!(shard_of(&key, 1), 0);
        }
    }

    /// `ranked` is the full preference order behind `route`: same winner,
    /// every shard listed exactly once.
    #[test]
    fn ranked_agrees_with_route_and_is_a_permutation() {
        for key in keys(64) {
            let order = ranked(&key, 0..5);
            assert_eq!(order[0], route(&key, 0..5));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn keys_spread_over_shards() {
        let mut used = [false; 4];
        let mut nodes = [false; 4];
        for key in keys(256) {
            used[shard_of(&key, 4)] = true;
            nodes[route(&key, 0..4)] = true;
        }
        assert!(used.iter().all(|u| *u), "256 keys must touch all 4 shards");
        assert!(nodes.iter().all(|u| *u), "256 keys must touch all 4 nodes");
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
        let owner = sharded.shard_for(&RequestKey::plan(&spec, &volume.meta, &cfg));
        for _ in 0..2 {
            // Same scene twice: the second resolves from the frame cache.
            session
                .request(Scene::orbit(&volume, 0.0, 0.0, TransferFunction::bone()))
                .wait();
        }
        let uptime = sharded.uptime();
        let heat: Vec<ServiceReport> = (sharded.shard_snapshots().iter())
            .map(|snap| ServiceReport::from_snapshot(snap, uptime))
            .collect();
        assert_eq!(heat.len(), 2);
        assert_eq!(heat[owner].frames_completed, 2);
        assert_eq!(heat[owner].frame_cache.entries, 1);
        assert!(heat[owner].frame_cache.hits >= 1, "repeat view must hit");
        assert_eq!(heat[1 - owner].frames_completed, 0);
        assert_eq!(heat[1 - owner].frame_cache.entries, 0);
        for shard in 0..2 {
            let depths = sharded.shard(shard).queue_depths();
            assert_eq!(depths, [0; 3], "drained after wait()");
        }
        // The merged report folds the same occupancy numbers.
        let merged = sharded.report();
        assert_eq!(merged.frame_cache.entries, 1);
        assert_eq!(
            merged.frame_cache.capacity,
            ServiceConfig::default().cache_frames * 2
        );
    }

    /// The rendezvous property, for node and shard scores alike: growing
    /// the fleet moves a key only if its new-max score belongs to the added
    /// shard — nothing shuffles between pre-existing shards (their plan
    /// caches stay warm).
    #[test]
    fn adding_a_shard_only_moves_keys_to_the_new_shard() {
        let policies: [fn(&RequestKey, usize) -> usize; 2] =
            [|key, n| route(key, 0..n as u64), shard_of];
        for grow in policies {
            let mut moved = 0;
            for key in keys(512) {
                let before = grow(&key, 4);
                let after = grow(&key, 5);
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
}
