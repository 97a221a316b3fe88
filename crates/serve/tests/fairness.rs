//! Starvation/fairness and admission-shedding properties of the job queue,
//! checked against a deterministic single-worker simulation (no real
//! renders: these are pure scheduling properties).
//!
//! * **Fairness**: once an `Interactive` job is queued, the only
//!   lower-priority work that may still render ahead of it is the remainder
//!   of the batch already in flight — at most `max_batch − 1` drained
//!   frames. The next batch a worker forms always pops the interactive job
//!   first.
//! * **Shedding**: a class's submissions are accepted exactly while the
//!   queue is below that class's bound, so a filling queue rejects `Batch`
//!   before `Normal` before `Interactive`.

use proptest::prelude::*;

use mgpu_cluster::ClusterSpec;
use mgpu_serve::queue::{JobQueue, Priority, QueueBounds, QueuedJob, Reply};
use mgpu_serve::{BatchKey, SceneRequest};
use mgpu_voldata::Dataset;
use mgpu_volren::camera::Scene;
use mgpu_volren::{RenderConfig, TransferFunction};

fn request(priority: Priority) -> SceneRequest {
    let volume = Dataset::Skull.volume(8);
    SceneRequest {
        spec: ClusterSpec::accelerator_cluster(1),
        scene: Scene::orbit(&volume, 0.0, 0.0, TransferFunction::bone()),
        config: RenderConfig::test_size(8),
        volume,
        priority,
    }
}

fn push(q: &JobQueue, priority: Priority, key: u32) -> u64 {
    let (tx, _rx) = std::sync::mpsc::sync_channel(1);
    q.push(
        request(priority),
        BatchKey::synthetic(key),
        Reply::channel(tx),
        mgpu_obs::Trace::detached(0),
    )
}

/// One simulated worker: a batch is formed atomically (pop + drain, exactly
/// like `worker_loop`), then renders one frame per step so pushes can
/// interleave mid-batch.
struct SimWorker {
    /// Remaining frames of the in-flight batch, with a "was drained" flag
    /// (the batch leader was popped, the rest drained).
    batch: std::collections::VecDeque<(QueuedJob, bool)>,
    max_batch: usize,
}

impl SimWorker {
    /// Render one frame if any work exists; returns (job, was_drained).
    fn step(&mut self, q: &JobQueue) -> Option<(QueuedJob, bool)> {
        if self.batch.is_empty() {
            if q.is_empty() {
                return None;
            }
            let first = q.pop().expect("non-empty queue");
            let key = first.batch_key.clone();
            self.batch.push_back((first, false));
            for drained in q.drain_matching(&key, self.max_batch.saturating_sub(1)) {
                self.batch.push_back((drained, true));
            }
        }
        self.batch.pop_front()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An interactive job is never delayed by more than `max_batch − 1`
    /// drained lower-priority frames (single worker; one interactive in
    /// flight at a time — the interactive-user story).
    #[test]
    fn interactive_delay_is_bounded_by_one_batch_remainder(
        ops in prop::collection::vec((0u8..5, 0u32..3), 4..64),
        max_batch in 1usize..5,
    ) {
        let q = JobQueue::new(false, QueueBounds::default());
        let mut worker = SimWorker {
            batch: std::collections::VecDeque::new(),
            max_batch,
        };
        // Pending interactive jobs: seq → lower-priority drained frames
        // rendered since its push.
        let mut pending: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::new();

        for (op, key) in ops {
            match op {
                // Push lower-priority work (two flavours).
                0 => {
                    push(&q, Priority::Batch, key);
                }
                1 => {
                    push(&q, Priority::Normal, key);
                }
                // Push interactive — but only one in flight at a time.
                2 if pending.is_empty() => {
                    let seq = push(&q, Priority::Interactive, key);
                    pending.insert(seq, 0);
                }
                // Everything else (incl. a busy interactive slot): render.
                _ => {
                    if let Some((job, was_drained)) = worker.step(&q) {
                        if job.priority == Priority::Interactive {
                            if let Some(delay) = pending.remove(&job.seq) {
                                prop_assert!(
                                    delay < max_batch,
                                    "interactive seq {} delayed by {} drained \
                                     lower-priority frames (max_batch {})",
                                    job.seq, delay, max_batch
                                );
                            }
                        } else if was_drained {
                            for delay in pending.values_mut() {
                                *delay += 1;
                            }
                        } else {
                            // A lower-priority batch LEADER popped while an
                            // interactive was queued would be a priority
                            // inversion — the queue must never do that.
                            prop_assert!(
                                pending.is_empty(),
                                "popped {:?} leader over a queued interactive",
                                job.priority
                            );
                        }
                    }
                }
            }
        }
        // Drain to completion: the bound must hold for stragglers too.
        while let Some((job, was_drained)) = worker.step(&q) {
            if job.priority == Priority::Interactive {
                if let Some(delay) = pending.remove(&job.seq) {
                    prop_assert!(delay < max_batch);
                }
            } else if was_drained {
                for delay in pending.values_mut() {
                    *delay += 1;
                }
            } else {
                prop_assert!(pending.is_empty());
            }
        }
        prop_assert!(pending.is_empty(), "every interactive job rendered");
    }

    /// Admission under a filling queue: a class is accepted exactly while
    /// the queue depth is below its bound — so `Batch` sheds first, then
    /// `Normal`, and `Interactive` holds out the longest.
    #[test]
    fn full_queue_sheds_batch_before_normal_before_interactive(
        ops in prop::collection::vec(0u8..4, 4..64),
        batch_bound in 0usize..4,
        extra_normal in 0usize..4,
        extra_interactive in 0usize..4,
    ) {
        let bounds = QueueBounds {
            batch: batch_bound,
            normal: batch_bound + extra_normal,
            interactive: batch_bound + extra_normal + extra_interactive,
        };
        // Paused: depth only changes through accepted pushes and pops we
        // issue ourselves... except pop blocks on a paused queue, so run
        // unpaused and never step a worker; try_push/pop are the only moves.
        let q = JobQueue::new(false, bounds);
        let mut depth = 0usize;

        for op in ops {
            let priority = match op {
                0 => Priority::Batch,
                1 => Priority::Normal,
                2 => Priority::Interactive,
                _ => {
                    // Pop one job to free capacity (skip when empty).
                    if depth > 0 {
                        q.pop().expect("depth tracked");
                        depth -= 1;
                    }
                    continue;
                }
            };
            let (tx, _rx) = std::sync::mpsc::sync_channel(1);
            let outcome =
                q.try_push(
                request(priority),
                BatchKey::synthetic(0u32),
                Reply::channel(tx),
                mgpu_obs::Trace::detached(0),
            );
            let limit = bounds.limit(priority);
            if depth < limit {
                prop_assert!(outcome.is_ok(), "{priority:?} under its bound must admit");
                depth += 1;
            } else {
                let (err, reply) = outcome.expect_err("at or over the bound must shed");
                reply.cancel();
                prop_assert_eq!(err.priority, priority);
                prop_assert_eq!(err.queued, depth);
                prop_assert_eq!(err.limit, limit);
                // The shed ordering: anything a higher class would still
                // accept, this class's rejection does not contradict —
                // i.e. rejection thresholds are ordered with the classes.
                for higher in Priority::ALL.iter().filter(|p| **p > priority) {
                    prop_assert!(bounds.limit(*higher) >= limit);
                }
            }
        }
    }
}
