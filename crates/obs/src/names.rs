//! The metric namespace, declared once.
//!
//! The one `metrics!` table below states each metric's instrument kind and
//! name, and makes from them the `pub const` every instrument and every
//! `obs_top` read goes through (so a dashboard/registry drift is a compile
//! error: `names::SERVE_FRAMES_RENDERD` does not build) and the [`ALL`]
//! list. Adding, removing, renaming or re-kinding a metric is an edit to
//! this table, and reviewed as one. The unit tests below hold every name to
//! the convention; the `metric-registry` lint in `mgpu-lint` reads the
//! table's kinds and checks the call sites against it.
//!
//! Naming convention: `namespace.rest`, where `namespace` is one of
//! `serve` / `net` / `volren` / `pool` / `gpu` / `core` / `obs` and every
//! dot-separated segment is `[a-z][a-z0-9_]*`. Histogram names end in
//! a unit suffix (`_ns`) or describe a distribution
//! (`samples_per_ray`).

/// One `pub const` per entry, and [`ALL`].
macro_rules! metrics {
    ($($(#[$doc:meta])* $kind:ident $name:ident = $value:literal;)*) => {
        $($(#[$doc])* pub const $name: &str = $value;)*

        /// Every declared metric as `(kind, name)`, in table order; the kind
        /// is `counter`, `gauge` or `histogram`.
        pub const ALL: &[(&str, &str)] = &[$((stringify!($kind), $value)),*];
    };
}

metrics! {
    // --- net.* — the wire front-end (per-server registry) -------------------

    /// Bytes drained off client sockets by the event loop.
    counter NET_BYTES_READ = "net.bytes_read";
    /// Bytes flushed back to client sockets.
    counter NET_BYTES_WRITTEN = "net.bytes_written";
    /// Complete request frames parsed off connections.
    counter NET_FRAMES_IN = "net.frames_in";
    /// Reply frames queued for write-out.
    counter NET_FRAMES_OUT = "net.frames_out";
    /// Open connections (gauge; `Conn` drop decrements).
    gauge NET_CONNECTIONS = "net.connections";
    /// Event-loop wakeups — the idle-cost regression canary.
    counter NET_LOOP_WAKEUPS = "net.loop_wakeups";
    /// Requests refused by the per-session token bucket.
    counter NET_THROTTLED = "net.throttled";
    /// PREWARM requests answered on the event loop (plan built or already
    /// warm; a plan is a brick grid and an empty brick store — no brick is
    /// staged).
    counter NET_PREWARMS = "net.prewarms";
    /// GOODBYE seals sent to work-carrying sessions at drain completion.
    counter NET_GOODBYES = "net.goodbyes";
    /// RENDER/SUBMIT/PREWARM refused with a typed DRAINING reply.
    counter NET_DRAIN_REFUSED = "net.drain_refused";
    /// Idle→draining transitions (idempotent repeats not counted).
    counter NET_DRAINS = "net.drains";
    /// Draining→resumed transitions.
    counter NET_RESUMES = "net.resumes";

    // --- core.* — the MapReduce runtime (process-global) --------------------

    /// Core-time that finished mappers' lent cores sat unused before their
    /// job's map phase ended, summed over jobs (counter, ns; one add per job).
    counter CORE_MAP_IDLE_TOTAL_NS = "core.map_idle_total_ns";

    // --- pool.* — NodePool cluster operations (process-global) --------------

    /// Submissions rerouted off a draining node to the next-ranked one.
    counter POOL_DRAIN_REROUTED = "pool.drain.rerouted";
    /// Drains initiated by this pool controller.
    counter POOL_DRAIN_INITIATED = "pool.drain.initiated";
    /// Resumes issued by this pool controller.
    counter POOL_DRAIN_RESUMED = "pool.drain.resumed";
    /// Tickets redeemed via handoff re-render on a survivor node.
    counter POOL_DRAIN_HANDOFFS = "pool.drain.handoffs";
    /// `rebalance_once` passes.
    counter POOL_REBALANCE_TICKS = "pool.rebalance.ticks";
    /// Hot-key migrations cut over by the rebalancer.
    counter POOL_REBALANCE_MIGRATIONS = "pool.rebalance.migrations";
    /// PREWARMs issued ahead of a migration cutover.
    counter POOL_REBALANCE_PREWARMS = "pool.rebalance.prewarms";

    // --- serve.* — the render service (one scoped registry per service, ------
    // --- summed under the same names by the process-global one) -------------

    /// Frames accepted into the queue (submit or render).
    counter SERVE_FRAMES_SUBMITTED = "serve.frames_submitted";
    /// Frames answered (rendered, cache-replayed, or failed).
    counter SERVE_FRAMES_COMPLETED = "serve.frames_completed";
    /// Frames that went through a real render (cache misses).
    counter SERVE_FRAMES_RENDERED = "serve.frames_rendered";
    /// Frames that returned a `FrameError` ticket.
    counter SERVE_FRAMES_FAILED = "serve.frames_failed";
    /// Frame-cache hits (bit-identical replays) — every frame answered from
    /// the cache, at submit or at a worker's coalescing re-check.
    counter SERVE_FRAME_CACHE_HITS = "serve.frame_cache_hits";
    /// Frame-cache misses (submit-time lookups; a disabled cache counts none).
    counter SERVE_FRAME_CACHE_MISSES = "serve.frame_cache_misses";
    /// Frames evicted from the frame cache.
    counter SERVE_FRAME_CACHE_EVICTIONS = "serve.frame_cache_evictions";
    /// Frames cached right now (gauge).
    gauge SERVE_FRAME_CACHE_ENTRIES = "serve.frame_cache_entries";
    /// Configured frame-cache bound in frames (gauge; 0 = disabled).
    gauge SERVE_FRAME_CACHE_CAPACITY = "serve.frame_cache_capacity";
    /// Plan-cache hits (bricking + warm store reused).
    counter SERVE_PLAN_CACHE_HITS = "serve.plan_cache_hits";
    /// Plan-cache misses (plan prepared from scratch).
    counter SERVE_PLAN_CACHE_MISSES = "serve.plan_cache_misses";
    /// Plans evicted from the plan cache.
    counter SERVE_PLAN_CACHE_EVICTIONS = "serve.plan_cache_evictions";
    /// Plans cached right now (gauge).
    gauge SERVE_PLAN_CACHE_ENTRIES = "serve.plan_cache_entries";
    /// Configured plan-cache bound in plans (gauge; 0 = disabled).
    gauge SERVE_PLAN_CACHE_CAPACITY = "serve.plan_cache_capacity";
    /// Submissions shed by admission control (queue bounds).
    counter SERVE_ADMISSION_REJECTED = "serve.admission_rejected";
    /// Rendered frames, each counted as a batch of one. The service no longer
    /// co-renders same-key frames (its plan cache shares their plan instead),
    /// but this name and [`SERVE_BATCHED_FRAMES`] stay registered because
    /// benchmark harnesses read them by name: their ratio, the batch
    /// occupancy, reads 1.0.
    counter SERVE_BATCHES = "serve.batches";
    /// Rendered frames, the numerator of the batch occupancy (see
    /// [`SERVE_BATCHES`] for why it remains).
    counter SERVE_BATCHED_FRAMES = "serve.batched_frames";
    /// Bricks staged into a brick store (cold).
    counter SERVE_BRICK_STAGINGS = "serve.brick_stagings";
    /// Brick stagings avoided by the shared store (warm).
    counter SERVE_BRICK_REUSES = "serve.brick_reuses";
    /// Plans built by a PREWARM: the brick grid and an empty brick store (the
    /// first frame rendered against the plan still stages every brick).
    counter SERVE_PLAN_PREWARMS = "serve.plan_prewarms";
    /// Queued `Batch` jobs right now (gauge).
    gauge SERVE_QUEUE_DEPTH_BATCH = "serve.queue_depth_batch";
    /// Queued `Normal` jobs right now (gauge).
    gauge SERVE_QUEUE_DEPTH_NORMAL = "serve.queue_depth_normal";
    /// Queued `Interactive` jobs right now (gauge).
    gauge SERVE_QUEUE_DEPTH_INTERACTIVE = "serve.queue_depth_interactive";
    /// Submit → worker-pop wait per popped job, rendered and coalesced jobs
    /// alike (histogram, ns); its sample count is the jobs-popped total.
    histogram SERVE_QUEUE_WAIT_NS = "serve.queue_wait_ns";
    /// Sum of those waits, for the exact mean (counter, ns).
    counter SERVE_QUEUE_WAIT_TOTAL_NS = "serve.queue_wait_total_ns";
    /// Sum of simulated per-frame runtimes (DES makespans) over rendered
    /// frames (counter, ns).
    counter SERVE_SIM_FRAME_TOTAL_NS = "serve.sim_frame_total_ns";
    /// Full render call wall time (histogram, ns).
    histogram SERVE_RENDER_NS = "serve.render_ns";

    // --- volren.* — the renderer's stages (process-global) ------------------

    /// Brick staging wall time: one sample per brick a mapper stages, the
    /// miss's read (histogram, ns).
    histogram VOLREN_STAGING_NS = "volren.staging_ns";
    /// Frame-plan preparation wall time (histogram, ns).
    histogram VOLREN_PLAN_PREPARE_NS = "volren.plan_prepare_ns";
    /// Map/ray-cast kernel wall time per frame (histogram, ns).
    histogram VOLREN_KERNEL_NS = "volren.kernel_ns";
    /// Compositing reduce wall time per frame (histogram, ns).
    histogram VOLREN_COMPOSITE_NS = "volren.composite_ns";
    /// 16×16 blocks launched through the batched kernel API.
    counter VOLREN_KERNEL_BLOCKS = "volren.kernel.blocks";
    /// Samples charged per ray, as the modelled GPU takes them (histogram;
    /// early termination shifts it left, empty-space skipping does not).
    histogram VOLREN_SAMPLES_PER_RAY = "volren.samples_per_ray";
    /// Texture samples the kernel actually fetched: the charged total minus
    /// what empty-space skipping jumped over.
    counter VOLREN_SAMPLES_FETCHED = "volren.samples_fetched";
    /// Wall time of one brick's kernel launch — ray set-up and march, nothing
    /// of the shuffle, sort or reduce `volren.kernel_ns` also spans (histogram,
    /// ns; one record per launch).
    histogram VOLREN_MARCH_NS = "volren.march_ns";
    /// Lane slots the eight-wide march offered to texture fetches: 8 per
    /// iteration in which any lane fetched. Zero on a node running the scalar
    /// march; `volren.samples_fetched` over this is the fetch occupancy.
    counter VOLREN_LANE_SLOTS = "volren.lane_slots";
}

#[cfg(test)]
mod tests {
    use super::ALL;

    /// The first segment each name may start with: the subsystem that owns
    /// it (`pool.*` is `NodePool`'s, `core.*` the MapReduce runtime's).
    const NAMESPACES: &[&str] = &["serve", "net", "volren", "pool", "gpu", "core", "obs"];

    #[test]
    fn every_name_is_namespace_dot_lowercase_and_every_kind_an_instrument() {
        for &(kind, name) in ALL {
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "{name} is declared as `{kind}`, not an instrument"
            );
            let (namespace, rest) = name.split_once('.').unwrap_or((name, ""));
            assert!(
                NAMESPACES.contains(&namespace),
                "{name:?} must start with one of {NAMESPACES:?} and a dot"
            );
            for segment in rest.split('.') {
                let mut chars = segment.chars();
                let conforms = chars.next().is_some_and(|c| c.is_ascii_lowercase())
                    && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
                assert!(
                    conforms,
                    "{name:?}: segment {segment:?} is not [a-z][a-z0-9_]*"
                );
            }
        }
    }

    #[test]
    fn no_name_is_declared_twice() {
        let mut seen = std::collections::BTreeSet::new();
        for &(_, name) in ALL {
            assert!(seen.insert(name), "{name:?} is declared twice");
        }
    }
}
