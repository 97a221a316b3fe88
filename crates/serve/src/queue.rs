//! The prioritized, admission-controlled job queue feeding the worker pool.
//!
//! Jobs carry a [`Priority`] and wait in one FIFO per class; workers always
//! pop the front of the highest non-empty class — interactive view changes
//! overtake queued batch sweeps without starving them (everything at one
//! level drains in submission order).
//!
//! **Admission control**: the queue enforces per-priority depth bounds
//! ([`QueueBounds`]). A class's bound caps the *total* queue depth that
//! class may push into, and the bounds are ordered `batch ≤ normal ≤
//! interactive` — so as the queue fills under sustained overload, `Batch`
//! submissions are shed first, `Normal` next, and `Interactive` last.
//! [`JobQueue::try_push`] rejects with [`AdmissionError`];
//! [`JobQueue::push`] blocks until a worker frees capacity.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use mgpu_obs::{Gauge, Trace};
use mgpu_volren::RequestKey;
use std::sync::mpsc::SyncSender;

use crate::{FrameError, FrameResult, SceneRequest};

/// Where a job's [`FrameResult`] goes when a worker resolves it: a
/// completion hook, an arbitrary `FnOnce` invoked on the worker thread. A
/// ticket's channel is one such hook ([`Reply::channel`]); an event-driven
/// front-end hands in its own so render completions land in *its*
/// completion queue instead of parking a waiter thread per frame (see
/// [`crate::ShardedService::try_submit_traced`]).
///
/// If the job is dropped without delivering, `Drop` fires the hook with a
/// lost-job [`FrameError`] so a waiter never hangs.
pub(crate) struct Reply(
    /// `Option` so delivery can move the closure out.
    Option<Box<dyn FnOnce(FrameResult) + Send>>,
);

impl Reply {
    /// Deliver through a one-slot ticket channel. A dropped receiver is fine
    /// (the frame is cached anyway).
    pub fn channel(tx: SyncSender<FrameResult>) -> Reply {
        Reply::hook(move |result| {
            let _ = tx.send(result);
        })
    }

    /// Deliver by invoking `hook` on the resolving worker thread. Keep the
    /// hook cheap and non-blocking-ish (push to a queue, wake a loop): it
    /// runs inside the render worker's loop.
    pub fn hook(hook: impl FnOnce(FrameResult) + Send + 'static) -> Reply {
        Reply(Some(Box::new(hook)))
    }

    /// Discard without delivering: the caller reports the outcome
    /// out-of-band (e.g. a typed admission rejection), so the lost-job
    /// guard must not fire.
    pub fn cancel(mut self) {
        self.0.take();
    }

    /// Resolve the job: the hook runs exactly once.
    pub fn deliver(mut self, result: FrameResult) {
        if let Some(hook) = self.0.take() {
            hook(result);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(hook) = self.0.take() {
            hook(Err(FrameError::lost()));
        }
    }
}

impl std::fmt::Debug for Reply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Reply")
    }
}

/// Scheduling class of a job. Higher pops first; FIFO within a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Offline sweeps, pre-warming: yields to everything else.
    Batch,
    /// The default service class.
    #[default]
    Normal,
    /// Interactive view changes: pops before all other work.
    Interactive,
}

impl Priority {
    /// All classes, lowest first.
    pub const ALL: [Priority; 3] = [Priority::Batch, Priority::Normal, Priority::Interactive];

    /// Dense index (Batch = 0, Normal = 1, Interactive = 2).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Per-priority admission bounds: the maximum total queue depth a class may
/// still submit into. `usize::MAX` (the default) means unbounded.
///
/// Bounds must satisfy `batch ≤ normal ≤ interactive`: under load the queue
/// then sheds the least urgent work first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueBounds {
    pub batch: usize,
    pub normal: usize,
    pub interactive: usize,
}

impl Default for QueueBounds {
    fn default() -> QueueBounds {
        QueueBounds {
            batch: usize::MAX,
            normal: usize::MAX,
            interactive: usize::MAX,
        }
    }
}

impl QueueBounds {
    /// The same bound for every class (no priority shedding, just a cap).
    pub fn uniform(depth: usize) -> QueueBounds {
        QueueBounds {
            batch: depth,
            normal: depth,
            interactive: depth,
        }
    }

    /// The queue depth this class may still push into.
    pub fn limit(&self, priority: Priority) -> usize {
        match priority {
            Priority::Batch => self.batch,
            Priority::Normal => self.normal,
            Priority::Interactive => self.interactive,
        }
    }

    /// Panics unless `batch ≤ normal ≤ interactive`.
    pub fn validate(&self) {
        assert!(
            self.batch <= self.normal && self.normal <= self.interactive,
            "queue bounds must shed lower priorities first \
             (batch ≤ normal ≤ interactive), got {self:?}"
        );
    }
}

/// A submission the queue refused because the caller's priority class is at
/// its depth bound. Retry later, drop the frame, or use the blocking submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionError {
    pub priority: Priority,
    /// Queue depth observed at rejection time.
    pub queued: usize,
    /// The depth bound for this priority class.
    pub limit: usize,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "queue full for {:?} submissions: {} jobs queued, limit {}",
            self.priority, self.queued, self.limit
        )
    }
}

impl std::error::Error for AdmissionError {}

/// One queued frame request with its reply destination and bookkeeping.
#[derive(Debug)]
pub(crate) struct QueuedJob {
    pub priority: Priority,
    pub enqueued: Instant,
    pub request: SceneRequest,
    /// The request's plan and frame keys, built once at admission.
    pub plan_key: RequestKey,
    pub frame_key: RequestKey,
    pub reply: Reply,
    /// The request's end-to-end trace: the worker records the queue/plan/
    /// render spans into it, and the renderer adds stage, map, partition,
    /// sort, reduce, merge, model and stitch via the thread-local
    /// [`mgpu_obs::trace::scope`].
    pub trace: Arc<Trace>,
}

#[derive(Debug, Default)]
struct QueueState {
    /// One FIFO per class, indexed by [`Priority::index`], each in
    /// submission order.
    jobs: [VecDeque<QueuedJob>; 3],
    closed: bool,
    paused: bool,
}

impl QueueState {
    fn len(&self) -> usize {
        self.jobs.iter().map(VecDeque::len).sum()
    }
}

/// A blocking, prioritized, bounded MPMC queue (mutex + condvars; workers
/// block in [`JobQueue::pop`], submitters in [`JobQueue::push`] when their
/// class is at its bound).
#[derive(Debug)]
pub(crate) struct JobQueue {
    state: Mutex<QueueState>,
    /// Signalled when a job arrives (or the queue closes/resumes).
    ready: Condvar,
    /// Signalled when capacity frees up (pop) or the queue closes.
    space: Condvar,
    bounds: QueueBounds,
    /// Queued jobs per priority class (indexed by [`Priority::index`]),
    /// moved under the state lock on enqueue and pop. A service hands
    /// in its `serve.queue_depth_*` gauges ([`JobQueue::metered`]).
    depths: [Arc<Gauge>; 3],
}

impl JobQueue {
    #[cfg(test)]
    fn new(paused: bool, bounds: QueueBounds) -> JobQueue {
        JobQueue::metered(paused, bounds, Default::default())
    }

    pub(crate) fn metered(paused: bool, bounds: QueueBounds, depths: [Arc<Gauge>; 3]) -> JobQueue {
        bounds.validate();
        JobQueue {
            state: Mutex::new(QueueState {
                paused,
                ..QueueState::default()
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            bounds,
            depths,
        }
    }

    /// Enqueue a request, blocking while this priority class is at its
    /// admission bound.
    ///
    /// Panics if the queue is closed (the service is shutting down) — before
    /// or while blocked. Note that a *paused* queue never frees capacity, so
    /// a bounded, paused queue should be fed through [`JobQueue::try_push`].
    pub fn push(
        &self,
        request: SceneRequest,
        plan_key: RequestKey,
        frame_key: RequestKey,
        reply: Reply,
        trace: Arc<Trace>,
    ) {
        let limit = self.bounds.limit(request.priority);
        let mut state = self.state.lock().unwrap();
        loop {
            assert!(!state.closed, "cannot submit to a shut-down render service");
            if state.len() < limit {
                return self.enqueue(&mut state, request, plan_key, frame_key, reply, trace);
            }
            state = self.space.wait(state).unwrap();
        }
    }

    /// Enqueue a request, rejecting immediately with [`AdmissionError`] if
    /// this priority class is at its admission bound. Rejection hands the
    /// reply back so the caller decides how to fail it (a hook must not
    /// fire its lost-job guard for a job that was never accepted).
    ///
    /// Panics if the queue is closed (the service is shutting down).
    pub fn try_push(
        &self,
        request: SceneRequest,
        plan_key: RequestKey,
        frame_key: RequestKey,
        reply: Reply,
        trace: Arc<Trace>,
    ) -> Result<(), (AdmissionError, Reply)> {
        let limit = self.bounds.limit(request.priority);
        let mut state = self.state.lock().unwrap();
        assert!(!state.closed, "cannot submit to a shut-down render service");
        if state.len() >= limit {
            return Err((
                AdmissionError {
                    priority: request.priority,
                    queued: state.len(),
                    limit,
                },
                reply,
            ));
        }
        self.enqueue(&mut state, request, plan_key, frame_key, reply, trace);
        Ok(())
    }

    fn enqueue(
        &self,
        state: &mut QueueState,
        request: SceneRequest,
        plan_key: RequestKey,
        frame_key: RequestKey,
        reply: Reply,
        trace: Arc<Trace>,
    ) {
        let class = request.priority.index();
        self.depths[class].inc();
        state.jobs[class].push_back(QueuedJob {
            priority: request.priority,
            enqueued: Instant::now(),
            request,
            plan_key,
            frame_key,
            reply,
            trace,
        });
        self.ready.notify_one();
    }

    /// Block until a job is available (highest priority, FIFO within equal
    /// priority) or the queue is closed *and* drained — then `None`.
    ///
    /// While paused, pop blocks even if jobs are queued, unless the queue is
    /// closed (shutdown always drains).
    pub fn pop(&self) -> Option<QueuedJob> {
        let mut state = self.state.lock().unwrap();
        loop {
            let runnable = !state.paused || state.closed;
            if runnable {
                if let Some(job) = state.jobs.iter_mut().rev().find_map(VecDeque::pop_front) {
                    self.depths[job.priority.index()].dec();
                    self.space.notify_all();
                    return Some(job);
                }
                if state.closed {
                    return None;
                }
            }
            state = self.ready.wait(state).unwrap();
        }
    }

    /// Pause or resume popping. Resuming wakes all workers.
    pub fn set_paused(&self, paused: bool) {
        self.state.lock().unwrap().paused = paused;
        if !paused {
            self.ready.notify_all();
        }
    }

    /// Close the queue: no further pushes (blocked pushers panic); pops
    /// drain what is left, then return `None`.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    pub fn is_closed(&self) -> bool {
        self.state.lock().unwrap().closed
    }

    pub fn len(&self) -> usize {
        self.state.lock().unwrap().len()
    }

    /// Queued jobs per class, `[batch, normal, interactive]`.
    pub fn depths(&self) -> [usize; 3] {
        let _state = self.state.lock().unwrap(); // gauges move under it
        std::array::from_fn(|class| self.depths[class].get() as usize)
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_cluster::ClusterSpec;
    use mgpu_voldata::Dataset;
    use mgpu_volren::camera::Scene;
    use mgpu_volren::{RenderConfig, TransferFunction};
    use proptest::prelude::*;

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

    /// Push a job traced under `id`, the tests' name for it.
    fn push(q: &JobQueue, priority: Priority, id: u64) {
        // The receiver drops immediately: queue tests never send replies.
        let (tx, _rx) = std::sync::mpsc::sync_channel(1);
        let request = request(priority);
        let key = request.plan_key();
        let frame_key = key.with_scene(&request.scene);
        q.push(
            request,
            key,
            frame_key,
            Reply::channel(tx),
            Trace::detached(id),
        )
    }

    /// The id of the job the next pop returns.
    fn pop_id(q: &JobQueue) -> Option<u64> {
        q.pop().map(|job| job.trace.id())
    }

    fn try_push(q: &JobQueue, priority: Priority) -> Result<(), AdmissionError> {
        let (tx, _rx) = std::sync::mpsc::sync_channel(1);
        let request = request(priority);
        let key = request.plan_key();
        let frame_key = key.with_scene(&request.scene);
        q.try_push(
            request,
            key,
            frame_key,
            Reply::channel(tx),
            Trace::detached(0),
        )
        .map_err(|(err, reply)| {
            reply.cancel();
            err
        })
    }

    fn unbounded(paused: bool) -> JobQueue {
        JobQueue::new(paused, QueueBounds::default())
    }

    #[test]
    fn a_reply_fires_once_unless_cancelled_and_a_dropped_one_reports_lost() {
        use std::sync::mpsc::{sync_channel, TryRecvError};
        // Dropped undelivered: the ticket resolves as lost instead of hanging.
        let (tx, rx) = sync_channel(1);
        drop(Reply::channel(tx));
        let ticket = crate::FrameTicket { rx };
        assert_eq!(ticket.resolve().unwrap_err(), FrameError::lost());

        // Cancelled: nothing is sent, not even the lost-job guard's error.
        let (tx, rx) = sync_channel(1);
        Reply::channel(tx).cancel();
        assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Disconnected);

        // Delivered: the result arrives once, and dropping the spent reply
        // sends nothing more.
        let (tx, rx) = sync_channel(1);
        Reply::channel(tx).deliver(Err(FrameError::new("delivered")));
        assert_eq!(rx.try_recv().unwrap().unwrap_err().message(), "delivered");
        assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Disconnected);
    }

    #[test]
    fn fifo_within_priority_and_priority_wins() {
        let q = unbounded(false);
        push(&q, Priority::Normal, 1);
        push(&q, Priority::Normal, 2);
        push(&q, Priority::Interactive, 3);
        push(&q, Priority::Batch, 4);
        push(&q, Priority::Interactive, 5);
        let order: Vec<u64> = (0..5).map(|_| pop_id(&q).unwrap()).collect();
        // Interactive first (FIFO: 3 before 5), then Normal (1 before 2),
        // then Batch.
        assert_eq!(order, vec![3, 5, 1, 2, 4]);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = unbounded(false);
        push(&q, Priority::Normal, 1);
        q.close();
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }

    #[test]
    fn paused_queue_blocks_until_resumed() {
        let q = std::sync::Arc::new(unbounded(true));
        push(&q, Priority::Normal, 7);
        let q2 = std::sync::Arc::clone(&q);
        let handle = std::thread::spawn(move || pop_id(&q2));
        // Give the popper a moment to block, then release it.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!handle.is_finished(), "pop must block while paused");
        q.set_paused(false);
        assert_eq!(handle.join().unwrap(), Some(7));
    }

    #[test]
    #[should_panic(expected = "shut-down render service")]
    fn push_after_close_panics() {
        let q = unbounded(false);
        q.close();
        push(&q, Priority::Normal, 1);
    }

    #[test]
    fn bounded_queue_sheds_batch_before_normal_before_interactive() {
        let q = JobQueue::new(
            true, // paused: depth only grows
            QueueBounds {
                batch: 1,
                normal: 2,
                interactive: 3,
            },
        );
        assert!(try_push(&q, Priority::Batch).is_ok());
        // Depth 1: batch is at its bound, the others still admit.
        let err = try_push(&q, Priority::Batch).unwrap_err();
        assert_eq!((err.queued, err.limit), (1, 1));
        assert_eq!(err.priority, Priority::Batch);
        assert!(try_push(&q, Priority::Normal).is_ok());
        // Depth 2: normal now sheds too; interactive still admits.
        assert!(try_push(&q, Priority::Normal).is_err());
        assert!(try_push(&q, Priority::Interactive).is_ok());
        // Depth 3: everything sheds.
        let err = try_push(&q, Priority::Interactive).unwrap_err();
        assert_eq!((err.queued, err.limit), (3, 3));
        assert_eq!(q.depths(), [1, 1, 1]);
    }

    #[test]
    fn blocking_push_waits_for_capacity() {
        let q = std::sync::Arc::new(JobQueue::new(false, QueueBounds::uniform(1)));
        push(&q, Priority::Normal, 1);
        let q2 = std::sync::Arc::clone(&q);
        let handle = std::thread::spawn(move || push(&q2, Priority::Normal, 2));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!handle.is_finished(), "push must block at the bound");
        // A pop frees capacity and admits the blocked push.
        assert_eq!(pop_id(&q), Some(1));
        handle.join().unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(pop_id(&q), Some(2));
    }

    #[test]
    #[should_panic(expected = "shed lower priorities first")]
    fn inverted_bounds_are_rejected() {
        JobQueue::new(
            false,
            QueueBounds {
                batch: 4,
                normal: 2,
                interactive: 3,
            },
        );
    }

    /// Push a request traced under `id` whose plan key is one of a few
    /// (`key` picks the GPU count): keys must not change the pop order.
    fn push_keyed(q: &JobQueue, priority: Priority, key: u32, id: u64) {
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
            Trace::detached(id),
        )
    }

    /// Pop one job, as a worker does, if the model holds any; fail unless it
    /// is the model's choice and no queued interactive job was passed over.
    fn pop_checked(q: &JobQueue, queued: &mut Vec<(Priority, u64)>) -> Result<(), String> {
        if queued.is_empty() {
            return Ok(());
        }
        let job = q.pop().expect("a queued job");
        let popped = (job.priority, job.trace.id());
        if job.priority != Priority::Interactive {
            prop_assert!(
                queued.iter().all(|(p, _)| *p != Priority::Interactive),
                "popped {:?} job {} over a queued interactive",
                popped.0,
                popped.1
            );
        }
        let best = *queued
            .iter()
            .max_by_key(|(p, id)| (*p, std::cmp::Reverse(*id)))
            .expect("non-empty model");
        prop_assert_eq!(popped, best);
        queued.retain(|entry| *entry != best);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Strict priority: pushes of every class interleaved with
        /// single-job pops, as a worker makes them: no lower-priority job
        /// ever pops while an `Interactive` job is queued, and every pop is
        /// exactly the model's choice — the highest class present, earliest
        /// submission first.
        #[test]
        fn no_lower_priority_job_pops_before_a_queued_interactive(
            ops in prop::collection::vec((0u8..5, 0u32..3), 4..64),
        ) {
            let q = JobQueue::new(false, QueueBounds::default());
            // The model: queued (priority, trace id) pairs; ids count up in
            // submission order.
            let mut queued: Vec<(Priority, u64)> = Vec::new();
            for (id, (op, key)) in (0u64..).zip(ops) {
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
                push_keyed(&q, priority, key, id);
                queued.push((priority, id));
            }
            // Drain to completion: the order must hold for stragglers too.
            while !queued.is_empty() {
                pop_checked(&q, &mut queued)?;
            }
            prop_assert!(q.is_empty());
        }

        /// Shedding under a filling queue: a class is accepted exactly while
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
            // Unpaused (pop blocks on a paused queue), and no worker steps:
            // try_push and pop are the only moves.
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
                let outcome = q.try_push(
                    request,
                    plan_key,
                    frame_key,
                    Reply::channel(tx),
                    Trace::detached(0),
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
}
