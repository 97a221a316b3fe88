//! The worker pool: each worker pops the best queued job, opportunistically
//! drains compatible jobs into a batch, then renders the batch against one
//! shared [`FramePlan`] — taken from the cross-batch plan cache when warm,
//! prepared (and published) on a cache miss.
//!
//! Per-frame determinism: pixels depend only on the request itself (volume,
//! scene, config, GPU count), never on batch composition, worker identity,
//! plan-cache state or interleaving — `render_planned` is bit-identical to a
//! direct `render` call. Only the *timing and staging statistics* benefit
//! from sharing.
//!
//! Fault containment: a panic inside plan preparation or `render_planned`
//! is caught per job. The affected job resolves to an explicit
//! [`FrameError`] (its ticket reports the panic message instead of a
//! misleading disconnect), the remaining jobs of the batch still render, and
//! the worker thread survives — the pool never shrinks under poison-pill
//! requests.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use mgpu_obs::trace;
use mgpu_volren::renderer::{render_planned, FramePlan};

use crate::cache::FrameKey;
use crate::queue::QueuedJob;
use crate::{FrameError, RenderedFrame, ServiceInner};

pub(crate) fn worker_loop(inner: Arc<ServiceInner>) {
    while let Some(first) = inner.queue.pop() {
        let mut jobs = vec![first];
        let extra = inner.config.max_batch.saturating_sub(1);
        if extra > 0 {
            jobs.extend(inner.queue.drain_matching(&jobs[0].batch_key, extra));
        }
        // Every batch member leaves the queue NOW: stamp queue wait here —
        // for rendered *and* coalesced jobs — before any render time
        // accrues, so `mean_queue_wait` measures time queued, not time
        // waiting behind earlier frames of the same batch.
        for job in &jobs {
            let waited = job.enqueued.elapsed().as_nanos() as u64;
            inner.stats.queue_wait_ns.record(waited);
            inner.stats.queue_wait_total_ns.add(waited);
            job.trace.record_since("queue", job.enqueued);
        }
        render_batch(&inner, jobs);
    }
}

/// Render a batch of same-key jobs over one shared plan. Jobs whose frame
/// landed in the cache since submission are answered without rendering; the
/// plan comes from the plan cache (or is built and published) lazily on the
/// first actual render.
fn render_batch(inner: &ServiceInner, jobs: Vec<QueuedJob>) {
    let stats = &inner.stats;
    let mut plan: Option<Arc<FramePlan>> = None;
    let mut batch_counted = false;
    for job in jobs {
        let req = &job.request;
        let key = FrameKey::new(&req.spec, &req.volume, &req.scene, &req.config);
        // Coalescing re-check: an identical request may have rendered since
        // this one was queued (recheck: the submit path already counted the
        // miss; the cache counts the hit).
        if let Some(mut frame) = inner.cache.recheck(&key) {
            frame.from_cache = true;
            stats.frames_completed.inc();
            job.reply.deliver(Ok(frame));
            continue;
        }

        // Acquire the shared plan: once per batch, served from the
        // cross-batch cache when a previous batch of this key already
        // bricked the volume (its warm store then answers stagings).
        let acquired = match &plan {
            Some(shared) => Ok(Arc::clone(shared)),
            None => {
                let plan_start = Instant::now();
                let got =
                    catch_unwind(AssertUnwindSafe(|| match inner.plans.get(&job.batch_key) {
                        Some(shared) => shared,
                        None => {
                            // The scope lets the renderer stamp its staging
                            // span onto this request's trace.
                            let fresh = Arc::new(trace::scope(&job.trace, || {
                                FramePlan::prepare(&req.spec, &req.volume, &req.config)
                            }));
                            inner
                                .plans
                                .insert(job.batch_key.clone(), Arc::clone(&fresh));
                            fresh
                        }
                    }));
                job.trace.record_since("plan", plan_start);
                got
            }
        };
        let outcome = acquired.and_then(|shared| {
            plan = Some(Arc::clone(&shared));
            let render_start = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                trace::scope(&job.trace, || {
                    render_planned(&req.spec, &shared, &req.scene, &req.config)
                })
            }));
            if result.is_ok() {
                job.trace.record_since("render", render_start);
                stats.render_ns.record_duration(render_start.elapsed());
            }
            result
        });
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(payload) => {
                // Contain the panic: fail this job explicitly, keep the
                // worker (and the rest of the batch) alive.
                stats.frames_failed.inc();
                job.reply
                    .deliver(Err(FrameError::from_panic(payload.as_ref())));
                continue;
            }
        };
        if !batch_counted {
            stats.batches.inc();
            batch_counted = true;
        }
        stats.brick_stagings.add(outcome.report.store.misses);
        stats.brick_reuses.add(outcome.report.store.hits);
        stats
            .sim_frame_total_ns
            .add(outcome.report.runtime().nanos());
        stats.batched_frames.inc();
        stats.frames_rendered.inc();
        stats.frames_completed.inc();

        let frame = RenderedFrame {
            image: Arc::new(outcome.image),
            report: Arc::new(outcome.report),
            from_cache: false,
        };
        inner.cache.insert(key, frame.clone());
        // A dropped ticket is fine: the frame is already cached.
        job.reply.deliver(Ok(frame));
    }
}
