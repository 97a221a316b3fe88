//! # mgpu-serve — a multi-scene render service over `mgpu-volren`
//!
//! The paper renders one frame at a time; this crate adds the production
//! front-end the ROADMAP's north star asks for: a [`RenderService`] that
//! accepts concurrent frame requests for many scenes and schedules the
//! renderer behind a job queue, in the spirit of distributed GPU render
//! front-ends (cf. Hassan et al., arXiv:1205.0282).
//!
//! Architecture (one request's path):
//!
//! ```text
//! submit / try_submit(SceneRequest)
//!        │ (rendezvous-routed by ShardedService when sharded)
//!        ├── frame cache? ──hit──► FrameTicket (immediate)
//!        │ miss
//!        ├── admission control: class at its queue bound? ──► AdmissionError
//!        ▼
//!   JobQueue (priority, FIFO within class, per-priority depth bounds)
//!        │ pop + drain_matching(batch key)
//!        ▼
//!   worker: plan cache (BatchKey → Arc<FramePlan>) ──► render_planned
//!        │ per frame (panics caught: job fails, worker survives)
//!        ▼
//!   frame cache ──► ticket
//! ```
//!
//! * **Queue** — [`queue::JobQueue`]: interactive requests overtake batch
//!   sweeps, FIFO within a class (no starvation).
//! * **Admission** — [`queue::QueueBounds`]: per-priority queue-depth
//!   bounds; under overload [`RenderService::try_submit`] sheds `Batch`
//!   first and `Interactive` last, while [`RenderService::submit`] blocks
//!   for capacity.
//! * **Batching** — [`batch::BatchKey`]: frames that agree on (cluster,
//!   volume, config) share one [`mgpu_volren::FramePlan`], so the volume is
//!   bricked and staged once per batch instead of once per frame.
//! * **Plan cache** — `plancache::PlanCache`: plans survive *across*
//!   batches, so sustained same-volume traffic keeps its brick store warm
//!   instead of re-staging every batch.
//! * **Cache** — `cache::FrameCache`: bounded LRU over rendered frames;
//!   repeated views skip the renderer entirely.
//! * **Sharding** — [`shard::ShardedService`]: rendezvous-hashes batch keys
//!   over N independent services so distinct volumes stop contending on one
//!   queue and always land where their plan cache is warm.
//! * **Backend contract** — [`backend::RenderBackend`]: the one trait every
//!   front-end implements (`RenderService`, `ShardedService`, and the
//!   remote backends in `mgpu-net`), with a shared error vocabulary
//!   ([`backend::BackendError`]) and frame type ([`backend::BackendFrame`])
//!   — callers written against it move from one GPU to a cluster of render
//!   nodes without a rewrite.
//! * **Accounting** — [`report::ServiceReport`]: queue latency, batch
//!   occupancy, cache and plan-cache hit rates, staging reuse, admission
//!   rejections, failed frames, frames/sec — alongside the per-frame
//!   [`mgpu_volren::RenderReport`] each ticket carries.
//!
//! Determinism: a frame rendered through the service is bit-identical to a
//! direct [`mgpu_volren::render`] call with the same request, regardless of
//! worker count, batching, caching, plan reuse, sharding or interleaving.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
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
use mgpu_volren::{Image, RenderReport};

pub mod backend;
pub mod batch;
mod cache;
mod plancache;
pub mod queue;
pub mod report;
pub mod session;
pub mod shard;
mod worker;

pub use backend::{BackendError, BackendFrame, RenderBackend};
pub use batch::BatchKey;
pub use cache::CacheSnapshot;
pub use queue::{AdmissionError, Priority, QueueBounds, Reply};
pub use report::ServiceReport;
pub use session::{SceneSession, SessionTicket};
pub use shard::{ShardHeat, ShardedService};

use cache::{CacheMeters, FrameCache, FrameKey};
use plancache::PlanCache;
use report::ServiceStats;

/// A fresh trace for a request submitted through the local API (no wire
/// `request_id` to inherit). The top bit is set so locally minted ids never
/// collide with client-chosen wire ids in a shared trace ring.
fn local_trace() -> Arc<Trace> {
    static LOCAL_IDS: AtomicU64 = AtomicU64::new(0);
    Trace::start(LOCAL_IDS.fetch_add(1, Ordering::Relaxed) | 1 << 63)
}

/// Everything needed to render one frame, as submitted by a client.
#[derive(Debug, Clone)]
pub struct SceneRequest {
    pub spec: ClusterSpec,
    pub volume: Volume,
    pub scene: Scene,
    pub config: RenderConfig,
    pub priority: Priority,
}

/// A completed frame as delivered by a [`FrameTicket`]. Cheap to clone: the
/// image and report are shared (cache hits hand out the same allocation).
#[derive(Debug, Clone)]
pub struct RenderedFrame {
    pub image: Arc<Image>,
    pub report: Arc<RenderReport>,
    /// Served from the frame cache (no render happened for this request).
    pub from_cache: bool,
}

/// Why a submitted frame could not be delivered: the render panicked (the
/// worker caught the unwind and stayed alive) or the job was lost. The
/// failure is explicit — [`FrameTicket::wait`] panics with this message,
/// [`FrameTicket::wait_result`] returns it.
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

/// What travels down a ticket's channel: the frame, or the explicit failure.
pub type FrameResult = Result<RenderedFrame, FrameError>;

/// Handle to one submitted frame; redeem with [`FrameTicket::wait`] (panics
/// on failure) or [`FrameTicket::wait_result`].
#[derive(Debug)]
pub struct FrameTicket {
    rx: Receiver<FrameResult>,
    seq: Option<u64>,
}

impl FrameTicket {
    /// Block until the frame is rendered (or served from cache).
    ///
    /// Panics with the explicit failure message if the render panicked (see
    /// [`FrameTicket::wait_result`] for the non-panicking form), or if the
    /// service was torn down without completing the job — the latter cannot
    /// happen through the public API: shutdown drains the queue.
    pub fn wait(self) -> RenderedFrame {
        self.wait_result()
            .unwrap_or_else(|err| panic!("render service job failed: {err}"))
    }

    /// Block until the frame resolves, returning the failure instead of
    /// panicking.
    pub fn wait_result(self) -> FrameResult {
        self.rx.recv().unwrap_or_else(|_| Err(FrameError::lost()))
    }

    /// Queue sequence number, if the request went through the queue
    /// (`None` = answered immediately from the frame cache).
    pub fn seq(&self) -> Option<u64> {
        self.seq
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads rendering frames (each render additionally runs its
    /// mappers and reducers on `mgpu_gpu::exec`'s parked threads, so a few
    /// workers saturate a host).
    pub workers: usize,
    /// Max frames per batch; 1 disables batching.
    pub max_batch: usize,
    /// Frame-cache capacity in frames; 0 disables the cache.
    pub cache_frames: usize,
    /// Cross-batch plan-cache capacity in plans; 0 disables cross-batch
    /// reuse (every batch re-bricks and re-stages).
    pub plan_cache_plans: usize,
    /// Per-priority admission bounds on queue depth (default: unbounded).
    /// Must shed lower priorities first: `batch ≤ normal ≤ interactive`.
    pub queue_bounds: QueueBounds,
    /// Start with the queue paused: submissions accumulate until
    /// [`RenderService::resume`], which makes batch formation deterministic
    /// (benchmarks, tests). Use [`RenderService::try_submit`] when pausing a
    /// *bounded* queue — the blocking submit would wait forever.
    pub start_paused: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            max_batch: 8,
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
    pub(crate) cache: FrameCache<RenderedFrame>,
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
    /// coalesce once the first render lands.) The cache counts the hit.
    fn cached_hit(&self, request: &SceneRequest) -> Option<RenderedFrame> {
        let key = FrameKey::new(
            &request.spec,
            &request.volume,
            &request.scene,
            &request.config,
        );
        self.cache.get(&key).map(|mut frame| {
            frame.from_cache = true;
            self.stats.frames_submitted.inc();
            self.stats.frames_completed.inc();
            frame
        })
    }

    fn assert_open(&self) {
        // Defensive: no public path submits after shutdown (sessions borrow
        // the service, shutdown consumes it), but an internal caller that
        // raced teardown should fail loudly, cached or not.
        assert!(
            !self.queue.is_closed(),
            "cannot submit to a shut-down render service"
        );
    }

    pub(crate) fn submit(self: &Arc<Self>, request: SceneRequest) -> FrameTicket {
        self.assert_open();
        let (tx, rx) = sync_channel(1);
        if let Some(frame) = self.cached_hit(&request) {
            tx.send(Ok(frame)).expect("fresh ticket channel");
            return FrameTicket { rx, seq: None };
        }
        let batch_key = BatchKey::of(&request);
        let seq = self
            .queue
            .push(request, batch_key, Reply::channel(tx), local_trace());
        self.stats.frames_submitted.inc();
        FrameTicket { rx, seq: Some(seq) }
    }

    pub(crate) fn try_submit(
        self: &Arc<Self>,
        request: SceneRequest,
    ) -> Result<FrameTicket, AdmissionError> {
        let (tx, rx) = sync_channel(1);
        let seq = self.try_admit(request, Reply::channel(tx), local_trace())?;
        Ok(FrameTicket { rx, seq })
    }

    /// The non-blocking admission path behind every `try_submit*`: answer
    /// from the frame cache, else enqueue or shed. Returns the queue
    /// sequence number (`None` = answered from the cache). A network
    /// front-end passes the trace it seeded from the wire `request_id`, so
    /// the spans the worker and the renderer record land on the request's
    /// own end-to-end trace.
    pub(crate) fn try_admit(
        self: &Arc<Self>,
        request: SceneRequest,
        reply: Reply,
        trace: Arc<Trace>,
    ) -> Result<Option<u64>, AdmissionError> {
        self.assert_open();
        if let Some(frame) = self.cached_hit(&request) {
            reply.deliver(Ok(frame));
            return Ok(None);
        }
        let batch_key = BatchKey::of(&request);
        match self.queue.try_push(request, batch_key, reply, trace) {
            Ok(seq) => {
                self.stats.frames_submitted.inc();
                Ok(Some(seq))
            }
            Err((err, reply)) => {
                reply.cancel();
                self.stats.admission_rejected.inc();
                Err(err)
            }
        }
    }
}

/// The render service: a worker pool over a prioritized, bounded job queue
/// with frame batching, a cross-batch plan cache and a frame cache. See the
/// crate docs for the architecture.
pub struct RenderService {
    pub(crate) inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
}

impl RenderService {
    /// Start the service with `config.workers` worker threads.
    pub fn start(config: ServiceConfig) -> RenderService {
        assert!(config.workers >= 1, "service needs at least one worker");
        assert!(config.max_batch >= 1, "max_batch of 0 would render nothing");
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

    /// Submit one frame request; blocks while this priority class is at its
    /// admission bound, then returns a ticket. With the default unbounded
    /// [`QueueBounds`] it never blocks.
    pub fn submit(&self, request: SceneRequest) -> FrameTicket {
        self.inner.submit(request)
    }

    /// Submit one frame request without blocking: if the request's priority
    /// class is at its queue bound the frame is shed with [`AdmissionError`]
    /// (`Batch` sheds first, `Interactive` last — see [`QueueBounds`]).
    pub fn try_submit(&self, request: SceneRequest) -> Result<FrameTicket, AdmissionError> {
        self.inner.try_submit(request)
    }

    /// [`RenderService::try_submit`] with a completion hook instead of a
    /// ticket: `on_done` runs exactly once with the [`FrameResult`] — on the
    /// resolving worker's thread, or immediately on the caller's for a frame
    /// cache hit. This is the admission path for event-driven front-ends: no
    /// waiter thread parks per frame; completions land wherever the hook
    /// puts them (a completion queue, typically). On [`AdmissionError`] the
    /// hook never runs — the caller reports the shed itself. The
    /// queue/plan/render (and, inside the renderer, stage/kernel/composite)
    /// spans are recorded onto the caller's [`mgpu_obs::Trace`]: a network
    /// front-end seeds it from the wire `request_id` so one request is
    /// followable end to end.
    pub fn try_submit_traced(
        &self,
        request: SceneRequest,
        trace: Arc<Trace>,
        on_done: impl FnOnce(FrameResult) + Send + 'static,
    ) -> Result<(), AdmissionError> {
        self.inner
            .try_admit(request, Reply::hook(on_done), trace)
            .map(|_| ())
    }

    /// Stop popping jobs (submissions still accepted and queued).
    pub fn pause(&self) {
        self.inner.queue.set_paused(true);
    }

    /// Resume popping; wakes all workers.
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

    /// Cross-batch plan-cache counters.
    pub fn plan_snapshot(&self) -> CacheSnapshot {
        self.inner.plans.snapshot()
    }

    /// Populate the plan cache for `request`'s [`BatchKey`] now, on the
    /// caller's thread: build the shared [`mgpu_volren::FramePlan`] (the
    /// brick grid and an empty brick store; 12–19 µs for Skull 128³, Plume
    /// and a shipped 64³ volume on a 2.6 GHz Xeon) and insert it. The first
    /// real render of this key after a migration finds the plan cached, but
    /// still stages every brick it needs.
    /// Returns `true` when a plan was built, `false` on a cache hit.
    pub fn prewarm(&self, request: &SceneRequest) -> bool {
        let key = BatchKey::of(request);
        if self.inner.plans.get(&key).is_some() {
            return false;
        }
        let plan = Arc::new(mgpu_volren::FramePlan::prepare(
            &request.spec,
            &request.volume,
            &request.config,
        ));
        self.inner.plans.insert(key, plan);
        self.inner.stats.plan_prewarms.inc();
        true
    }

    /// Drain the queue, stop the workers and return the final report. Every
    /// ticket submitted before the call still resolves.
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
