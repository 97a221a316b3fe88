//! Priority and admission-shedding properties of the job queue (no real
//! renders: these are pure scheduling properties).
//!
//! * **Strict priority**: a worker pops one job at a time, so once an
//!   `Interactive` job is queued, no lower-priority job is popped before
//!   it; within a class, jobs pop in submission order.
//! * **Shedding**: a class's submissions are accepted exactly while the
//!   queue is below that class's bound, so a filling queue rejects `Batch`
//!   before `Normal` before `Interactive`.

use proptest::prelude::*;

use mgpu_cluster::ClusterSpec;
use mgpu_serve::queue::{JobQueue, Priority, QueueBounds, Reply};
use mgpu_serve::SceneRequest;
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

/// Push a request whose plan key is one of a few (`key` picks the GPU
/// count): keys must not change the pop order.
fn push(q: &JobQueue, priority: Priority, key: u32) -> u64 {
    let (tx, _rx) = std::sync::mpsc::sync_channel(1);
    let mut request = request(priority);
    request.spec = ClusterSpec::accelerator_cluster(1 + key);
    let plan_key = request.plan_key();
    let frame_key = plan_key.with_scene(&request.scene);
    q.push(
        request,
        plan_key,
        frame_key,
        Reply::channel(tx),
        mgpu_obs::Trace::detached(0),
    )
}

/// Pop one job, as a worker does, if the model holds any; fail unless it is
/// the model's choice and no queued interactive job was passed over.
fn pop_checked(q: &JobQueue, queued: &mut Vec<(Priority, u64)>) -> Result<(), String> {
    if queued.is_empty() {
        return Ok(());
    }
    let job = q.pop().expect("a queued job");
    if job.priority != Priority::Interactive {
        prop_assert!(
            queued.iter().all(|(p, _)| *p != Priority::Interactive),
            "popped {:?} seq {} over a queued interactive",
            job.priority,
            job.seq
        );
    }
    let best = *queued
        .iter()
        .max_by_key(|(p, seq)| (*p, std::cmp::Reverse(*seq)))
        .expect("non-empty model");
    prop_assert_eq!((job.priority, job.seq), best);
    queued.retain(|entry| *entry != best);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pushes of every class interleaved with single-job pops, as a worker
    /// makes them: no lower-priority job ever pops while an `Interactive`
    /// job is queued, and every pop is exactly the model's choice — the
    /// highest class present, earliest submission first.
    #[test]
    fn no_lower_priority_job_pops_before_a_queued_interactive(
        ops in prop::collection::vec((0u8..5, 0u32..3), 4..64),
    ) {
        let q = JobQueue::new(false, QueueBounds::default());
        // The model: queued (priority, seq) pairs.
        let mut queued: Vec<(Priority, u64)> = Vec::new();
        for (op, key) in ops {
            let priority = match op {
                0 => Priority::Batch,
                1 => Priority::Normal,
                2 => Priority::Interactive,
                // Everything else: a worker pops one job.
                _ => {
                    pop_checked(&q, &mut queued)?;
                    continue;
                }
            };
            queued.push((priority, push(&q, priority, key)));
        }
        // Drain to completion: the order must hold for stragglers too.
        while !queued.is_empty() {
            pop_checked(&q, &mut queued)?;
        }
        prop_assert!(q.is_empty());
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
            let request = request(priority);
            let plan_key = request.plan_key();
            let frame_key = plan_key.with_scene(&request.scene);
            let outcome =
                q.try_push(
                request,
                plan_key,
                frame_key,
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
