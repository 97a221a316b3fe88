//! The metric namespace, as compile-checked constants.
//!
//! Every instrument the stack registers and every name the `obs_top`
//! dashboard reads goes through these consts, so a dashboard/registry
//! drift is a compile error (`names::SERVE_FRAMES_RENDERD` does not
//! build), not a runtime mismatch. The `metric-registry` lint in
//! `mgpu-lint` resolves these consts at call sites, enforces the
//! `namespace.lowercase_dot` convention on the values, and diffs the
//! registered set against the blessed `ci/metrics.txt`.
//!
//! Naming convention: `namespace.rest`, where `namespace` is one of
//! `serve` / `net` / `volren` / `pool` / `gpu` / `core` / `obs` and every
//! dot-separated segment is `[a-z][a-z0-9_]*`. Histogram names end in
//! a unit suffix (`_ns`) or describe a distribution
//! (`samples_per_ray`).

// --- net.* — the wire front-end (per-server registry) -------------------

/// Bytes drained off client sockets by the event loop.
pub const NET_BYTES_READ: &str = "net.bytes_read";
/// Bytes flushed back to client sockets.
pub const NET_BYTES_WRITTEN: &str = "net.bytes_written";
/// Complete request frames parsed off connections.
pub const NET_FRAMES_IN: &str = "net.frames_in";
/// Reply frames queued for write-out.
pub const NET_FRAMES_OUT: &str = "net.frames_out";
/// Open connections (gauge; `Conn` drop decrements).
pub const NET_CONNECTIONS: &str = "net.connections";
/// Event-loop wakeups — the idle-cost regression canary.
pub const NET_LOOP_WAKEUPS: &str = "net.loop_wakeups";
/// Requests refused by the per-session token bucket.
pub const NET_THROTTLED: &str = "net.throttled";
/// PREWARM requests answered on the event loop (plan built or already
/// warm; a plan is a brick grid and an empty brick store — no brick is
/// staged).
pub const NET_PREWARMS: &str = "net.prewarms";
/// GOODBYE seals sent to work-carrying sessions at drain completion.
pub const NET_GOODBYES: &str = "net.goodbyes";
/// RENDER/SUBMIT/PREWARM refused with a typed DRAINING reply.
pub const NET_DRAIN_REFUSED: &str = "net.drain_refused";
/// Idle→draining transitions (idempotent repeats not counted).
pub const NET_DRAINS: &str = "net.drains";
/// Draining→resumed transitions.
pub const NET_RESUMES: &str = "net.resumes";

// --- core.* — the MapReduce runtime (process-global) --------------------

/// Core-time that finished mappers' lent cores sat unused before their
/// job's map phase ended, summed over jobs (counter, ns; one add per job).
pub const CORE_MAP_IDLE_TOTAL_NS: &str = "core.map_idle_total_ns";

// --- pool.* — NodePool cluster operations (process-global) --------------

/// Submissions rerouted off a draining node to the next-ranked one.
pub const POOL_DRAIN_REROUTED: &str = "pool.drain.rerouted";
/// Drains initiated by this pool controller.
pub const POOL_DRAIN_INITIATED: &str = "pool.drain.initiated";
/// Resumes issued by this pool controller.
pub const POOL_DRAIN_RESUMED: &str = "pool.drain.resumed";
/// Tickets redeemed via handoff re-render on a survivor node.
pub const POOL_DRAIN_HANDOFFS: &str = "pool.drain.handoffs";
/// `rebalance_once` passes.
pub const POOL_REBALANCE_TICKS: &str = "pool.rebalance.ticks";
/// Hot-key migrations cut over by the rebalancer.
pub const POOL_REBALANCE_MIGRATIONS: &str = "pool.rebalance.migrations";
/// PREWARMs issued ahead of a migration cutover.
pub const POOL_REBALANCE_PREWARMS: &str = "pool.rebalance.prewarms";

// --- serve.* — the render service (one scoped registry per service, ------
// --- summed under the same names by the process-global one) -------------

/// Frames accepted into the queue (submit or render).
pub const SERVE_FRAMES_SUBMITTED: &str = "serve.frames_submitted";
/// Frames answered (rendered, cache-replayed, or failed).
pub const SERVE_FRAMES_COMPLETED: &str = "serve.frames_completed";
/// Frames that went through a real render (cache misses).
pub const SERVE_FRAMES_RENDERED: &str = "serve.frames_rendered";
/// Frames that returned a `FrameError` ticket.
pub const SERVE_FRAMES_FAILED: &str = "serve.frames_failed";
/// Frame-cache hits (bit-identical replays) — every frame answered from
/// the cache, at submit or at a worker's coalescing re-check.
pub const SERVE_FRAME_CACHE_HITS: &str = "serve.frame_cache_hits";
/// Frame-cache misses (submit-time lookups; a disabled cache counts none).
pub const SERVE_FRAME_CACHE_MISSES: &str = "serve.frame_cache_misses";
/// Frames evicted from the frame cache.
pub const SERVE_FRAME_CACHE_EVICTIONS: &str = "serve.frame_cache_evictions";
/// Frames cached right now (gauge).
pub const SERVE_FRAME_CACHE_ENTRIES: &str = "serve.frame_cache_entries";
/// Configured frame-cache bound in frames (gauge; 0 = disabled).
pub const SERVE_FRAME_CACHE_CAPACITY: &str = "serve.frame_cache_capacity";
/// Cross-batch plan-cache hits (bricking + warm store reused).
pub const SERVE_PLAN_CACHE_HITS: &str = "serve.plan_cache_hits";
/// Plan-cache misses (plan prepared from scratch).
pub const SERVE_PLAN_CACHE_MISSES: &str = "serve.plan_cache_misses";
/// Plans evicted from the plan cache.
pub const SERVE_PLAN_CACHE_EVICTIONS: &str = "serve.plan_cache_evictions";
/// Plans cached right now (gauge).
pub const SERVE_PLAN_CACHE_ENTRIES: &str = "serve.plan_cache_entries";
/// Configured plan-cache bound in plans (gauge; 0 = disabled).
pub const SERVE_PLAN_CACHE_CAPACITY: &str = "serve.plan_cache_capacity";
/// Submissions shed by admission control (queue bounds).
pub const SERVE_ADMISSION_REJECTED: &str = "serve.admission_rejected";
/// Same-key batches executed.
pub const SERVE_BATCHES: &str = "serve.batches";
/// Frames coalesced into those batches.
pub const SERVE_BATCHED_FRAMES: &str = "serve.batched_frames";
/// Bricks staged into a brick store (cold).
pub const SERVE_BRICK_STAGINGS: &str = "serve.brick_stagings";
/// Brick stagings avoided by the shared store (warm).
pub const SERVE_BRICK_REUSES: &str = "serve.brick_reuses";
/// Plans built by a PREWARM: the brick grid and an empty brick store (the
/// first frame rendered against the plan still stages every brick).
pub const SERVE_PLAN_PREWARMS: &str = "serve.plan_prewarms";
/// Queued `Batch` jobs right now (gauge).
pub const SERVE_QUEUE_DEPTH_BATCH: &str = "serve.queue_depth_batch";
/// Queued `Normal` jobs right now (gauge).
pub const SERVE_QUEUE_DEPTH_NORMAL: &str = "serve.queue_depth_normal";
/// Queued `Interactive` jobs right now (gauge).
pub const SERVE_QUEUE_DEPTH_INTERACTIVE: &str = "serve.queue_depth_interactive";
/// Submit → worker-pop wait per popped job, batch leaders and coalesced
/// jobs alike (histogram, ns); its sample count is the jobs-popped total.
pub const SERVE_QUEUE_WAIT_NS: &str = "serve.queue_wait_ns";
/// Sum of those waits, for the exact mean (counter, ns).
pub const SERVE_QUEUE_WAIT_TOTAL_NS: &str = "serve.queue_wait_total_ns";
/// Sum of simulated per-frame runtimes (DES makespans) over rendered
/// frames (counter, ns).
pub const SERVE_SIM_FRAME_TOTAL_NS: &str = "serve.sim_frame_total_ns";
/// Full render call wall time (histogram, ns).
pub const SERVE_RENDER_NS: &str = "serve.render_ns";

// --- volren.* — the renderer's stages (process-global) ------------------

/// Brick staging wall time per frame (histogram, ns).
pub const VOLREN_STAGING_NS: &str = "volren.staging_ns";
/// Frame-plan preparation wall time (histogram, ns).
pub const VOLREN_PLAN_PREPARE_NS: &str = "volren.plan_prepare_ns";
/// Map/ray-cast kernel wall time per frame (histogram, ns).
pub const VOLREN_KERNEL_NS: &str = "volren.kernel_ns";
/// Compositing reduce wall time per frame (histogram, ns).
pub const VOLREN_COMPOSITE_NS: &str = "volren.composite_ns";
/// 16×16 blocks launched through the batched kernel API.
pub const VOLREN_KERNEL_BLOCKS: &str = "volren.kernel.blocks";
/// Samples charged per ray, as the modelled GPU takes them (histogram;
/// early termination shifts it left, empty-space skipping does not).
pub const VOLREN_SAMPLES_PER_RAY: &str = "volren.samples_per_ray";
/// Texture samples the kernel actually fetched: the charged total minus
/// what empty-space skipping jumped over.
pub const VOLREN_SAMPLES_FETCHED: &str = "volren.samples_fetched";
/// Wall time of one brick's kernel launch — ray set-up and march, nothing
/// of the shuffle, sort or reduce `volren.kernel_ns` also spans (histogram,
/// ns; one record per launch).
pub const VOLREN_MARCH_NS: &str = "volren.march_ns";
/// Lane slots the eight-wide march offered to texture fetches: 8 per
/// iteration in which any lane fetched. Zero on a node running the scalar
/// march; `volren.samples_fetched` over this is the fetch occupancy.
pub const VOLREN_LANE_SLOTS: &str = "volren.lane_slots";
