//! The worker pool: each worker pops the best queued job, re-checks the
//! frame cache, takes the job's [`mgpu_volren::FramePlan`] from the plan
//! cache (preparing and publishing it on a miss) and renders.
//!
//! Per-frame determinism: pixels depend only on the request itself (volume,
//! scene, config, GPU count), never on worker identity, plan-cache state or
//! interleaving — `render_planned` is bit-identical to a direct `render`
//! call. Only the *timing and staging statistics* benefit from sharing.
//!
//! Fault containment: a panic inside plan preparation or `render_planned`
//! is caught per job. The job resolves to an explicit [`FrameError`] (its
//! ticket reports the panic message instead of a misleading disconnect),
//! and the worker thread survives — the pool never shrinks under
//! poison-pill requests.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mgpu_obs::trace;
use mgpu_volren::renderer::render_planned;

use crate::queue::QueuedJob;
use crate::{BackendFrame, FrameError, ServiceInner};

pub(crate) fn worker_loop(inner: Arc<ServiceInner>) {
    while let Some(job) = inner.queue.pop() {
        let waited = job.enqueued.elapsed().as_nanos() as u64;
        inner.stats.queue_wait_ns.record(waited);
        inner.stats.queue_wait_total_ns.add(waited);
        job.trace.record_since("queue", job.enqueued);
        render_job(&inner, job);
    }
}

/// Render one job over its key's shared plan. A job whose frame landed in
/// the cache since submission is answered without rendering.
fn render_job(inner: &ServiceInner, job: QueuedJob) {
    let stats = &inner.stats;
    let req = &job.request;
    // Coalescing re-check: an identical request may have rendered since
    // this one was queued (recheck: the submit path already counted the
    // miss; the cache counts the hit).
    if let Some(frame) = inner.cache.recheck(&job.frame_key) {
        stats.frames_completed.inc();
        job.reply.deliver(Ok(frame.served_from_cache()));
        return;
    }

    // The scope lets the renderer stamp its staging, kernel and composite
    // spans onto this request's trace.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        trace::scope(&job.trace, || {
            let plan_start = Instant::now();
            let (plan, _) = inner.plans.acquire(&job.plan_key, req);
            job.trace.record_since("plan", plan_start);
            let render_start = Instant::now();
            let outcome = render_planned(&req.spec, &plan, &req.scene, &req.config);
            job.trace.record_since("render", render_start);
            stats.render_ns.record_duration(render_start.elapsed());
            outcome
        })
    }));
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(payload) => {
            // Contain the panic: fail this job explicitly, keep the worker.
            stats.frames_failed.inc();
            job.reply
                .deliver(Err(FrameError::from_panic(payload.as_ref())));
            return;
        }
    };
    // `serve.batches` / `serve.batched_frames` count each frame as a batch
    // of one (see their docs in `mgpu_obs::names`).
    stats.batches.inc();
    stats.batched_frames.inc();
    stats.brick_stagings.add(outcome.report.store.misses);
    stats.brick_reuses.add(outcome.report.store.hits);
    let sim_nanos = outcome.report.runtime().nanos();
    stats.sim_frame_total_ns.add(sim_nanos);
    stats.frames_rendered.inc();
    stats.frames_completed.inc();

    let frame = BackendFrame {
        image: Arc::new(outcome.image),
        from_cache: false,
        sim_frame: Duration::from_nanos(sim_nanos),
        report: Some(Arc::new(outcome.report)),
    };
    inner.cache.insert(job.frame_key, frame.clone());
    // A dropped ticket is fine: the frame is already cached.
    job.reply.deliver(Ok(frame));
}
