//! # mgpu-serve — a multi-scene render service over `mgpu-volren`
//!
//! The paper renders one frame at a time; this crate adds the production
//! front-end the ROADMAP's north star asks for: a [`RenderService`] that
//! accepts concurrent frame requests for many scenes and schedules the
//! renderer behind a job queue, in the spirit of distributed GPU render
//! front-ends (cf. Hassan et al., arXiv:1205.0282).
//!
//! Every caller goes through [`RenderBackend`]: the services have no other
//! submit or redeem, and [`BackendFrame`] is the one frame type they
//! deliver. Architecture (one request's path):
//!
//! ```text
//! RenderBackend::submit / try_submit(SceneRequest)
//!        │ plan key (ShardedService routes by it) and frame key, once
//!        ├── frame cache? ──hit──► FrameTicket (resolved at once)
//!        │ miss
//!        ├── admission control: class at its queue bound?
//!        │                          ──► BackendError::Admission
//!        ▼
//!   JobQueue (priority, FIFO within class, per-priority depth bounds)
//!        │ pop one job
//!        ▼
//!   worker: frame cache re-check, plan cache (plan key → Arc<FramePlan>)
//!        │ ──► render_planned (panics caught: job fails, worker survives)
//!        ▼
//!   frame cache ──► ticket ──► RenderBackend::redeem ──► BackendFrame
//! ```
//!
//! * **Queue** — `queue::JobQueue`: interactive requests overtake batch
//!   sweeps, FIFO within a class (no starvation). A worker pops one job at
//!   a time, so nothing lower-priority ever renders ahead of a queued
//!   `Interactive` job.
//! * **Admission** — [`QueueBounds`]: per-priority queue-depth
//!   bounds; under overload [`RenderBackend::try_submit`] sheds `Batch`
//!   first and `Interactive` last, while [`RenderBackend::submit`] blocks
//!   for capacity.
//! * **Plan cache** — `plancache::PlanCache`: frames that agree on
//!   (cluster, volume, config) — one plan key, a [`mgpu_volren::RequestKey`]
//!   — share one
//!   [`mgpu_volren::FramePlan`] and its warm brick store, so sustained
//!   same-volume traffic bricks the volume once and stages each brick once
//!   for the plan's cached lifetime instead of once per frame.
//! * **Cache** — `cache::FrameCache`: bounded LRU over rendered frames;
//!   repeated views skip the renderer entirely.
//! * **Sharding** — [`shard::ShardedService`]: rendezvous-hashes plan keys
//!   over N independent services so distinct volumes stop contending on one
//!   queue and always land where their plan cache is warm.
//! * **Backend contract** — [`backend::RenderBackend`]: the one trait every
//!   front-end implements (`RenderService`, `ShardedService`, and the
//!   remote backends in `mgpu-net`), with a shared error vocabulary
//!   ([`backend::BackendError`]) and frame type ([`backend::BackendFrame`])
//!   — callers written against it move from one GPU to a cluster of render
//!   nodes without a rewrite.
//! * **Accounting** — [`report::ServiceReport`]: queue latency, cache and
//!   plan-cache hit rates, staging reuse, admission rejections, failed
//!   frames, frames/sec — alongside the per-frame
//!   [`mgpu_volren::RenderReport`] each in-process [`BackendFrame`] carries.
//!
//! Determinism: a frame rendered through the service is bit-identical to a
//! direct [`mgpu_volren::render`] call with the same request, regardless of
//! worker count, caching, plan reuse, sharding or interleaving.

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mgpu_obs::names;
use mgpu_obs::{Registry, Snapshot, Trace};
use std::sync::mpsc::{sync_channel, Receiver};

use mgpu_cluster::ClusterSpec;
use mgpu_voldata::Volume;
use mgpu_volren::camera::Scene;
use mgpu_volren::config::RenderConfig;
use mgpu_volren::RequestKey;

pub mod backend;
mod cache;
mod plancache;
mod queue;
pub mod report;
pub mod shard;
mod worker;

pub use backend::{BackendError, BackendFrame, RenderBackend};
pub use cache::CacheSnapshot;
pub use queue::{AdmissionError, Priority, QueueBounds};
pub use report::ServiceReport;
pub use shard::ShardedService;

use cache::{CacheMeters, FrameCache};
use plancache::PlanCache;
use queue::Reply;
use report::ServiceStats;

/// Everything needed to render one frame, as submitted by a client.
#[derive(Debug, Clone)]
pub struct SceneRequest {
    pub spec: ClusterSpec,
    pub volume: Volume,
    pub scene: Scene,
    pub config: RenderConfig,
    pub priority: Priority,
}

impl SceneRequest {
    /// Equal plan keys share one plan and route to one shard and node.
    pub fn plan_key(&self) -> RequestKey {
        RequestKey::plan(&self.spec, &self.volume.meta, &self.config)
    }
}

/// Why a submitted frame could not be delivered: the render panicked (the
/// worker caught the unwind and stayed alive) or the job was lost. The
/// failure is explicit: [`RenderBackend::redeem`] returns it as
/// [`BackendError::Render`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    message: String,
}

impl FrameError {
    /// Build a frame error from its message — the form a network front-end
    /// uses to reconstruct a failure that crossed the wire (the message is
    /// the whole state, so round-tripping preserves equality).
    pub fn new(message: impl Into<String>) -> FrameError {
        FrameError {
            message: message.into(),
        }
    }

    pub(crate) fn from_panic(payload: &(dyn std::any::Any + Send)) -> FrameError {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "render panicked with a non-string payload".to_string()
        };
        FrameError {
            message: format!("render panicked: {message}"),
        }
    }

    pub(crate) fn lost() -> FrameError {
        FrameError {
            message: "render service dropped the job without completing it".to_string(),
        }
    }

    /// Human-readable cause (the panic message for caught render panics).
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for FrameError {}

/// What a job resolves to: the frame, or the explicit failure.
pub type FrameResult = Result<BackendFrame, FrameError>;

/// The in-process backends' ticket for one submitted frame: redeem it with
/// [`RenderBackend::redeem`] on the service that issued it.
#[derive(Debug)]
pub struct FrameTicket {
    rx: Receiver<FrameResult>,
}

impl FrameTicket {
    /// Block until the job resolves; a job dropped unresolved reports the
    /// lost-job error rather than hanging.
    pub(crate) fn resolve(self) -> FrameResult {
        self.rx.recv().unwrap_or_else(|_| Err(FrameError::lost()))
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads rendering frames (each render additionally runs its
    /// mappers and reducers on `mgpu_gpu::exec`'s parked threads, so a few
    /// workers saturate a host).
    pub workers: usize,
    /// Frame-cache capacity in frames; 0 disables the cache.
    pub cache_frames: usize,
    /// Plan-cache capacity in plans; 0 disables plan reuse (every frame
    /// re-bricks and re-stages).
    pub plan_cache_plans: usize,
    /// Per-priority admission bounds on queue depth (default: unbounded).
    /// Must shed lower priorities first: `batch ≤ normal ≤ interactive`.
    pub queue_bounds: QueueBounds,
    /// Start with the queue paused: submissions accumulate until
    /// [`RenderService::resume`], so a test or benchmark can queue a known
    /// burst before any worker pops. Use [`RenderBackend::try_submit`] when
    /// pausing a *bounded* queue — the blocking submit would wait forever.
    pub start_paused: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            cache_frames: 64,
            plan_cache_plans: 8,
            queue_bounds: QueueBounds::default(),
            start_paused: false,
        }
    }
}

/// Shared state behind the service handle (workers hold an `Arc`).
pub(crate) struct ServiceInner {
    pub(crate) config: ServiceConfig,
    pub(crate) queue: queue::JobQueue,
    pub(crate) cache: FrameCache<BackendFrame>,
    pub(crate) plans: PlanCache,
    /// This service's `serve.*` instruments: scoped, so its own snapshot
    /// holds only its events while `mgpu_obs::global()` still sums them in.
    registry: Registry,
    pub(crate) stats: ServiceStats,
    started: Instant,
}

impl ServiceInner {
    /// Fast path: a cached frame resolves the request immediately, without
    /// queueing. (Workers re-check the cache, so duplicates in flight still
    /// coalesce once the first render lands.) The cache counts the hit; a
    /// miss hands back the frame key for the queued job to carry.
    fn cached_hit(&self, key: &RequestKey, scene: &Scene) -> Result<BackendFrame, RequestKey> {
        // Defensive: no public path submits after shutdown (shutdown
        // consumes the service), but an internal caller that raced
        // teardown should fail loudly, cached or not.
        assert!(
            !self.queue.is_closed(),
            "cannot submit to a shut-down render service"
        );
        let frame_key = key.with_scene(scene);
        let frame = self.cache.get(&frame_key).ok_or(frame_key)?;
        self.stats.frames_submitted.inc();
        self.stats.frames_completed.inc();
        Ok(frame.served_from_cache())
    }

    /// The blocking submit behind both services' [`RenderBackend::submit`];
    /// `key` is `request`'s plan key, computed once by the caller (a
    /// sharded caller already routed by it).
    pub(crate) fn submit(&self, key: RequestKey, request: SceneRequest) -> FrameTicket {
        let (tx, rx) = sync_channel(1);
        match self.cached_hit(&key, &request.scene) {
            Ok(frame) => tx.send(Ok(frame)).expect("fresh ticket channel"),
            Err(frame_key) => {
                let reply = Reply::channel(tx);
                self.queue
                    .push(request, key, frame_key, reply, Trace::local());
                self.stats.frames_submitted.inc();
            }
        }
        FrameTicket { rx }
    }

    pub(crate) fn try_submit(
        &self,
        key: RequestKey,
        request: SceneRequest,
    ) -> Result<FrameTicket, AdmissionError> {
        let (tx, rx) = sync_channel(1);
        self.try_admit(key, request, Reply::channel(tx), Trace::local())?;
        Ok(FrameTicket { rx })
    }

    /// The non-blocking admission path behind `try_submit` and
    /// [`ShardedService::try_submit_traced`]: answer from the frame cache,
    /// else enqueue or shed. A network front-end passes the trace it seeded
    /// from the wire `request_id`, so the spans the worker and the renderer
    /// record land on the request's own end-to-end trace.
    pub(crate) fn try_admit(
        &self,
        key: RequestKey,
        request: SceneRequest,
        reply: Reply,
        trace: Arc<Trace>,
    ) -> Result<(), AdmissionError> {
        let frame_key = match self.cached_hit(&key, &request.scene) {
            Ok(frame) => {
                reply.deliver(Ok(frame));
                return Ok(());
            }
            Err(frame_key) => frame_key,
        };
        match self.queue.try_push(request, key, frame_key, reply, trace) {
            Ok(_) => {
                self.stats.frames_submitted.inc();
                Ok(())
            }
            Err((err, reply)) => {
                reply.cancel();
                self.stats.admission_rejected.inc();
                Err(err)
            }
        }
    }

    /// The prewarm behind [`RenderService::prewarm`] and
    /// [`ShardedService::prewarm`]: the worker's plan acquisition, counted
    /// as a prewarm when it built the plan.
    pub(crate) fn prewarm(&self, key: &RequestKey, request: &SceneRequest) -> bool {
        let (_, built) = self.plans.acquire(key, request);
        if built {
            self.stats.plan_prewarms.inc();
        }
        built
    }
}

/// The render service: a worker pool over a prioritized, bounded job queue
/// with a plan cache and a frame cache. See the crate docs for the
/// architecture.
pub struct RenderService {
    pub(crate) inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
}

impl RenderService {
    /// Start the service with `config.workers` worker threads.
    pub fn start(config: ServiceConfig) -> RenderService {
        assert!(config.workers >= 1, "service needs at least one worker");
        config.queue_bounds.validate();
        let registry = Registry::scoped(mgpu_obs::global());
        let inner = Arc::new(ServiceInner {
            queue: queue::JobQueue::metered(
                config.start_paused,
                config.queue_bounds,
                [
                    registry.gauge(names::SERVE_QUEUE_DEPTH_BATCH),
                    registry.gauge(names::SERVE_QUEUE_DEPTH_NORMAL),
                    registry.gauge(names::SERVE_QUEUE_DEPTH_INTERACTIVE),
                ],
            ),
            cache: FrameCache::new(
                config.cache_frames,
                CacheMeters {
                    hits: registry.counter(names::SERVE_FRAME_CACHE_HITS),
                    misses: registry.counter(names::SERVE_FRAME_CACHE_MISSES),
                    evictions: registry.counter(names::SERVE_FRAME_CACHE_EVICTIONS),
                    entries: registry.gauge(names::SERVE_FRAME_CACHE_ENTRIES),
                    capacity: registry.gauge(names::SERVE_FRAME_CACHE_CAPACITY),
                },
            ),
            plans: PlanCache::new(
                config.plan_cache_plans,
                CacheMeters {
                    hits: registry.counter(names::SERVE_PLAN_CACHE_HITS),
                    misses: registry.counter(names::SERVE_PLAN_CACHE_MISSES),
                    evictions: registry.counter(names::SERVE_PLAN_CACHE_EVICTIONS),
                    entries: registry.gauge(names::SERVE_PLAN_CACHE_ENTRIES),
                    capacity: registry.gauge(names::SERVE_PLAN_CACHE_CAPACITY),
                },
            ),
            stats: ServiceStats::register(&registry),
            registry,
            started: Instant::now(),
            config,
        });
        let workers = (0..inner.config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("mgpu-serve-worker-{i}"))
                    .spawn(move || worker::worker_loop(inner))
                    .expect("spawn render worker")
            })
            .collect();
        RenderService { inner, workers }
    }

    /// Resume popping after [`ServiceConfig::start_paused`]; wakes all
    /// workers.
    pub fn resume(&self) {
        self.inner.queue.set_paused(false);
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.inner.queue.len()
    }

    /// Queued jobs per class, `[batch, normal, interactive]`.
    pub fn queue_depths(&self) -> [usize; 3] {
        self.inner.queue.depths()
    }

    /// Point-in-time service accounting: the [`ServiceReport`] view over
    /// [`RenderService::snapshot`] and [`RenderService::uptime`].
    pub fn report(&self) -> ServiceReport {
        ServiceReport::from_snapshot(&self.snapshot(), self.uptime())
    }

    /// This service's own `serve.*` instruments (the process-global
    /// registry reports the same names summed over every service).
    pub fn snapshot(&self) -> Snapshot {
        self.inner.registry.snapshot()
    }

    /// Real elapsed time since the service started.
    pub fn uptime(&self) -> Duration {
        self.inner.started.elapsed()
    }

    /// Plan-cache counters.
    pub fn plan_snapshot(&self) -> CacheSnapshot {
        self.inner.plans.snapshot()
    }

    /// Populate the plan cache for `request`'s plan key now, on the
    /// caller's thread, through the workers' own plan acquisition: build
    /// the shared [`mgpu_volren::FramePlan`] (the brick grid and an empty
    /// brick store; 12–19 µs for Skull 128³, Plume and a shipped 64³ volume
    /// on a 2.6 GHz Xeon) and insert it unless one is already cached. The
    /// first real render of this key after a migration finds the plan
    /// cached, but still stages every brick it needs.
    /// Returns `true` when a plan was built, `false` on a cache hit.
    pub fn prewarm(&self, request: &SceneRequest) -> bool {
        self.inner.prewarm(&request.plan_key(), request)
    }

    /// Drain the queue, stop the workers and return the final report. Every
    /// job admitted before the call still completes and its hook fires; its
    /// ticket cannot be redeemed, since redeeming takes the service this
    /// consumes.
    pub fn shutdown(mut self) -> ServiceReport {
        self.teardown();
        self.report()
    }

    fn teardown(&mut self) {
        self.inner.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for RenderService {
    fn drop(&mut self) {
        self.teardown();
    }
}
