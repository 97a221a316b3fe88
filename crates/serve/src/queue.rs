//! The prioritized, admission-controlled job queue feeding the worker pool.
//!
//! Jobs carry a [`Priority`] and a monotonic sequence number; workers always
//! pop the highest-priority job, FIFO within a priority level — interactive
//! view changes overtake queued batch sweeps without starving them
//! (everything at one level drains in submission order).
//!
//! **Admission control**: the queue enforces per-priority depth bounds
//! ([`QueueBounds`]). A class's bound caps the *total* queue depth that
//! class may push into, and the bounds are ordered `batch ≤ normal ≤
//! interactive` — so as the queue fills under sustained overload, `Batch`
//! submissions are shed first, `Normal` next, and `Interactive` last.
//! [`JobQueue::try_push`] rejects with [`AdmissionError`];
//! [`JobQueue::push`] blocks until a worker frees capacity.
//!
//! The queue also supports *selective* draining: after popping a job, a
//! worker pulls further queued jobs with the same batch key so same-volume
//! frames render as one batch over a shared brick store (see
//! [`crate::batch`]). The job list is kept in submission (sequence) order,
//! so draining is a single order-preserving pass — no quadratic rescans
//! under the lock.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use mgpu_obs::{Gauge, Trace};
use std::sync::mpsc::SyncSender;

use crate::batch::BatchKey;
use crate::{FrameError, FrameResult, SceneRequest};

/// Where a job's [`FrameResult`] goes when a worker resolves it: a
/// completion hook, an arbitrary `FnOnce` invoked on the worker thread. A
/// ticket's channel is one such hook ([`Reply::channel`]); an event-driven
/// front-end hands in its own so render completions land in *its*
/// completion queue instead of parking a waiter thread per frame (see
/// [`crate::RenderService::try_submit_traced`]).
///
/// If the job is dropped without delivering, `Drop` fires the hook with a
/// lost-job [`FrameError`] so a waiter never hangs.
pub struct Reply(
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
pub struct QueuedJob {
    pub seq: u64,
    pub priority: Priority,
    pub enqueued: Instant,
    pub request: SceneRequest,
    pub batch_key: BatchKey,
    pub reply: Reply,
    /// The request's end-to-end trace: the worker records the queue/plan/
    /// render spans into it, and the renderer adds stage/kernel/composite
    /// via the thread-local [`mgpu_obs::trace::scope`].
    pub trace: Arc<Trace>,
}

#[derive(Debug, Default)]
struct QueueState {
    /// Always in ascending `seq` (= submission) order: pops and drains use
    /// order-preserving removal, so FIFO scans never need sorting.
    jobs: Vec<QueuedJob>,
    next_seq: u64,
    closed: bool,
    paused: bool,
}

impl QueueState {
    /// Index of the next job to pop: first (= min seq) job of the highest
    /// priority class present. One forward pass over the seq-ordered list.
    fn best(&self) -> Option<usize> {
        let mut best: Option<(Priority, usize)> = None;
        for (i, job) in self.jobs.iter().enumerate() {
            if best.is_none_or(|(p, _)| job.priority > p) {
                best = Some((job.priority, i));
                if job.priority == Priority::Interactive {
                    break; // nothing outranks it
                }
            }
        }
        best.map(|(_, i)| i)
    }
}

/// A blocking, prioritized, bounded MPMC queue (mutex + condvars; workers
/// block in [`JobQueue::pop`], submitters in [`JobQueue::push`] when their
/// class is at its bound).
#[derive(Debug)]
pub struct JobQueue {
    state: Mutex<QueueState>,
    /// Signalled when a job arrives (or the queue closes/resumes).
    ready: Condvar,
    /// Signalled when capacity frees up (pop/drain) or the queue closes.
    space: Condvar,
    bounds: QueueBounds,
    /// Queued jobs per priority class (indexed by [`Priority::index`]),
    /// moved under the state lock on enqueue and pop/drain. A service hands
    /// in its `serve.queue_depth_*` gauges ([`JobQueue::metered`]).
    depths: [Arc<Gauge>; 3],
}

impl JobQueue {
    pub fn new(paused: bool, bounds: QueueBounds) -> JobQueue {
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

    pub fn bounds(&self) -> QueueBounds {
        self.bounds
    }

    /// Enqueue a request, blocking while this priority class is at its
    /// admission bound; returns the job's sequence number.
    ///
    /// Panics if the queue is closed (the service is shutting down) — before
    /// or while blocked. Note that a *paused* queue never frees capacity, so
    /// a bounded, paused queue should be fed through [`JobQueue::try_push`].
    pub fn push(
        &self,
        request: SceneRequest,
        batch_key: BatchKey,
        reply: Reply,
        trace: Arc<Trace>,
    ) -> u64 {
        let limit = self.bounds.limit(request.priority);
        let mut state = self.state.lock().unwrap();
        loop {
            assert!(!state.closed, "cannot submit to a shut-down render service");
            if state.jobs.len() < limit {
                return self.enqueue(&mut state, request, batch_key, reply, trace);
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
        batch_key: BatchKey,
        reply: Reply,
        trace: Arc<Trace>,
    ) -> Result<u64, (AdmissionError, Reply)> {
        let limit = self.bounds.limit(request.priority);
        let mut state = self.state.lock().unwrap();
        assert!(!state.closed, "cannot submit to a shut-down render service");
        if state.jobs.len() >= limit {
            return Err((
                AdmissionError {
                    priority: request.priority,
                    queued: state.jobs.len(),
                    limit,
                },
                reply,
            ));
        }
        Ok(self.enqueue(&mut state, request, batch_key, reply, trace))
    }

    fn enqueue(
        &self,
        state: &mut QueueState,
        request: SceneRequest,
        batch_key: BatchKey,
        reply: Reply,
        trace: Arc<Trace>,
    ) -> u64 {
        let seq = state.next_seq;
        state.next_seq += 1;
        self.depths[request.priority.index()].inc();
        state.jobs.push(QueuedJob {
            seq,
            priority: request.priority,
            enqueued: Instant::now(),
            request,
            batch_key,
            reply,
            trace,
        });
        self.ready.notify_one();
        seq
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
                if let Some(i) = state.best() {
                    let job = state.jobs.remove(i); // preserves seq order
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

    /// Remove up to `max` further queued jobs with the given batch key, in
    /// submission order (the batch a worker co-renders with a popped job).
    /// Single order-preserving pass over the queue.
    pub fn drain_matching(&self, key: &BatchKey, max: usize) -> Vec<QueuedJob> {
        let mut state = self.state.lock().unwrap();
        let mut picked: Vec<QueuedJob> = Vec::new();
        if max == 0 {
            return picked;
        }
        let mut kept: Vec<QueuedJob> = Vec::with_capacity(state.jobs.len());
        for job in state.jobs.drain(..) {
            if picked.len() < max && job.batch_key == *key {
                picked.push(job);
            } else {
                kept.push(job);
            }
        }
        state.jobs = kept;
        for job in &picked {
            self.depths[job.priority.index()].dec();
        }
        if !picked.is_empty() {
            self.space.notify_all();
        }
        picked
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
        self.state.lock().unwrap().jobs.len()
    }

    /// Queued jobs per class, `[batch, normal, interactive]`.
    pub fn depths(&self) -> [usize; 3] {
        let _state = self.state.lock().unwrap(); // gauges move under it
        std::array::from_fn(|class| self.depths[class].get() as usize)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchKey;
    use mgpu_cluster::ClusterSpec;
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

    fn push(q: &JobQueue, priority: Priority, key: &str) -> u64 {
        // The receiver drops immediately: queue tests never send replies.
        let (tx, _rx) = std::sync::mpsc::sync_channel(1);
        q.push(
            request(priority),
            BatchKey::synthetic(key),
            Reply::channel(tx),
            Trace::detached(0),
        )
    }

    fn try_push(q: &JobQueue, priority: Priority, key: &str) -> Result<u64, AdmissionError> {
        let (tx, _rx) = std::sync::mpsc::sync_channel(1);
        q.try_push(
            request(priority),
            BatchKey::synthetic(key),
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
        let ticket = crate::FrameTicket { rx, seq: None };
        assert_eq!(ticket.wait_result().unwrap_err(), FrameError::lost());

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
        let a = push(&q, Priority::Normal, "k");
        let b = push(&q, Priority::Normal, "k");
        let c = push(&q, Priority::Interactive, "k");
        let d = push(&q, Priority::Batch, "k");
        let e = push(&q, Priority::Interactive, "k");
        let order: Vec<u64> = (0..5).map(|_| q.pop().unwrap().seq).collect();
        // Interactive first (FIFO: c before e), then Normal (a before b),
        // then Batch.
        assert_eq!(order, vec![c, e, a, b, d]);
    }

    #[test]
    fn drain_matching_picks_only_the_key_in_seq_order() {
        let q = unbounded(false);
        let a = push(&q, Priority::Normal, "x");
        let _b = push(&q, Priority::Normal, "y");
        let c = push(&q, Priority::Interactive, "x");
        let d = push(&q, Priority::Batch, "x");
        let drained = q.drain_matching(&BatchKey::synthetic("x"), 2);
        let seqs: Vec<u64> = drained.iter().map(|j| j.seq).collect();
        // Seq order regardless of priority: a then c; d stays queued.
        assert_eq!(seqs, vec![a, c]);
        assert_eq!(q.len(), 2);
        let rest = q.drain_matching(&BatchKey::synthetic("x"), 8);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].seq, d);
    }

    /// Pops in the middle of the queue must not scramble submission order
    /// for later drains (the old swap-remove implementation did).
    #[test]
    fn drain_stays_fifo_after_interleaved_pops() {
        let q = unbounded(false);
        let mut x_seqs = Vec::new();
        for i in 0..12u64 {
            // Interleave an interactive "y" job among normal "x" jobs so the
            // pops below remove from the middle of the list.
            if i % 3 == 1 {
                push(&q, Priority::Interactive, "y");
            } else {
                x_seqs.push(push(&q, Priority::Normal, "x"));
            }
        }
        // Pop the interactive jobs out of the middle.
        for _ in 0..4 {
            assert_eq!(q.pop().unwrap().priority, Priority::Interactive);
        }
        let drained = q.drain_matching(&BatchKey::synthetic("x"), 64);
        let seqs: Vec<u64> = drained.iter().map(|j| j.seq).collect();
        assert_eq!(seqs, x_seqs, "drain must deliver x jobs in submit order");
    }

    #[test]
    fn close_drains_then_ends() {
        let q = unbounded(false);
        push(&q, Priority::Normal, "k");
        q.close();
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }

    #[test]
    fn paused_queue_blocks_until_resumed() {
        let q = std::sync::Arc::new(unbounded(true));
        push(&q, Priority::Normal, "k");
        let q2 = std::sync::Arc::clone(&q);
        let handle = std::thread::spawn(move || q2.pop().map(|j| j.seq));
        // Give the popper a moment to block, then release it.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!handle.is_finished(), "pop must block while paused");
        q.set_paused(false);
        assert_eq!(handle.join().unwrap(), Some(0));
    }

    #[test]
    #[should_panic(expected = "shut-down render service")]
    fn push_after_close_panics() {
        let q = unbounded(false);
        q.close();
        push(&q, Priority::Normal, "k");
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
        assert!(try_push(&q, Priority::Batch, "k").is_ok());
        // Depth 1: batch is at its bound, the others still admit.
        let err = try_push(&q, Priority::Batch, "k").unwrap_err();
        assert_eq!((err.queued, err.limit), (1, 1));
        assert_eq!(err.priority, Priority::Batch);
        assert!(try_push(&q, Priority::Normal, "k").is_ok());
        // Depth 2: normal now sheds too; interactive still admits.
        assert!(try_push(&q, Priority::Normal, "k").is_err());
        assert!(try_push(&q, Priority::Interactive, "k").is_ok());
        // Depth 3: everything sheds.
        let err = try_push(&q, Priority::Interactive, "k").unwrap_err();
        assert_eq!((err.queued, err.limit), (3, 3));
        assert_eq!(q.depths(), [1, 1, 1]);
    }

    #[test]
    fn blocking_push_waits_for_capacity() {
        let q = std::sync::Arc::new(JobQueue::new(false, QueueBounds::uniform(1)));
        push(&q, Priority::Normal, "k");
        let q2 = std::sync::Arc::clone(&q);
        let handle = std::thread::spawn(move || push(&q2, Priority::Normal, "k2"));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!handle.is_finished(), "push must block at the bound");
        // A pop frees capacity and admits the blocked push.
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(handle.join().unwrap(), 1);
        assert_eq!(q.len(), 1);
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
}
