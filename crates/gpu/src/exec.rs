//! The host-thread executor: parked, reused threads behind a
//! [`std::thread::scope`]-shaped API, and the [`Lender`] through which a
//! job's finished mappers lend their cores to its slower launches.
//!
//! A frame is a handful of sub-millisecond roles (mappers, reducers, block
//! workers); creating and joining an OS thread for each costs more than the
//! roles do. [`scope`] runs them on threads that outlive the frame instead:
//!
//! * **Same contract as `thread::scope`.** Spawned closures may borrow from
//!   the caller; `scope` returns only after every one of them has finished,
//!   also when the body or a job panics, and then re-raises the first panic
//!   (the body's, else the first job's) with its original payload.
//! * **Same concurrency as `thread::scope`.** Every `spawn` checks out a
//!   thread of its own — the most recently parked one, or a new one when
//!   none is parked — so a job never queues behind another. Jobs may block
//!   on each other, scopes may nest and run concurrently; none can deadlock
//!   waiting for a worker.
//! * **No size.** A worker parks itself again when its job is done, so the
//!   cache holds the peak number of jobs ever in flight at once and never
//!   shrinks; parked threads are detached and end with the process.
//!
//! **Lent cores.** A job runs its mapper roles under one [`Lender`]
//! ([`Lender::run_mapper`] on the calling thread, [`Scope::spawn_mapper`]
//! on a cached one). A mapper that has mapped its last chunk lends its core
//! to the job until the map phase ends, and a block launch on one of the
//! job's other mappers borrows it between blocks for a helper that claims
//! blocks from the same launch ([`crate::kernel::launch_blocks`]). The lender
//! reaches the launch through a thread-local the mapper role installs, so no
//! launch signature changes and a launch outside a job never borrows. A
//! mapper on a cached thread lends only once that thread is parked again,
//! so the helper it pays for runs on that very thread; only a lend by the
//! caller, whose thread is not the cache's, can need a new one. Lending thus
//! grows the cache by at most one thread.

use std::any::Any;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A job, and the lender its thread's core goes to once the job is done.
type Job = Box<dyn FnOnce() -> Option<Arc<Lender>> + Send>;
type Panic = Box<dyn Any + Send>;

/// Nothing panics while holding one of this module's locks.
const POISON: &str = "executor lock poisoned";

/// Parked workers, most recently parked last.
static PARKED: Mutex<Vec<Arc<Worker>>> = Mutex::new(Vec::new());

/// One cached thread and the one-deep mailbox it sleeps on.
struct Worker {
    mailbox: Mutex<Option<(Job, Arc<Pending>)>>,
    wake: Condvar,
}

impl Worker {
    fn start() -> Arc<Worker> {
        let worker = Arc::new(Worker {
            mailbox: Mutex::new(None),
            wake: Condvar::new(),
        });
        let this = Arc::clone(&worker);
        std::thread::Builder::new()
            .name("mgpu-exec".into())
            .spawn(move || this.run())
            .expect("failed to start an executor thread");
        worker
    }

    fn run(self: Arc<Worker>) -> ! {
        loop {
            let (job, pending) = {
                let mut mailbox = self.mailbox.lock().expect(POISON);
                loop {
                    match mailbox.take() {
                        Some(task) => break task,
                        None => mailbox = self.wake.wait(mailbox).expect(POISON),
                    }
                }
            };
            let outcome = catch_unwind(AssertUnwindSafe(job));
            // Park before reporting: once a scope has returned, every worker
            // it used is already back in the cache for the next one. A
            // mapper's core is lent after parking, so the helper it pays for
            // can check this thread out again; and before reporting, so the
            // job's scope cannot end with the lend still to come.
            PARKED.lock().expect(POISON).push(Arc::clone(&self));
            let panic = match outcome {
                Ok(lender) => {
                    if let Some(lender) = lender {
                        lender.lend();
                    }
                    None
                }
                Err(panic) => Some(panic),
            };
            pending.finished(panic);
        }
    }
}

/// What one scope is still waiting for.
#[derive(Default)]
struct Pending {
    /// Jobs handed out and not yet finished; the first job panic.
    state: Mutex<(usize, Option<Panic>)>,
    idle: Condvar,
}

impl Pending {
    fn finished(&self, panic: Option<Panic>) {
        let mut state = self.state.lock().expect(POISON);
        state.0 -= 1;
        if state.1.is_none() {
            state.1 = panic;
        }
        if state.0 == 0 {
            self.idle.notify_one();
        }
    }

    /// Block until every job has finished; the first job panic, if any.
    fn wait(&self) -> Option<Panic> {
        let mut state = self.state.lock().expect(POISON);
        while state.0 > 0 {
            state = self.idle.wait(state).expect(POISON);
        }
        state.1.take()
    }
}

/// Handle for spawning borrowed jobs; see [`scope`].
pub struct Scope<'scope, 'env: 'scope> {
    pending: Arc<Pending>,
    // Invariant over both lifetimes, as `std::thread::Scope` is.
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

impl<'scope> Scope<'scope, '_> {
    /// Run `job` on a cached thread, concurrently with the caller. There is
    /// no join handle: a job hands its result back through what it borrows.
    pub fn spawn<F>(&'scope self, job: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.submit(Box::new(move || {
            job();
            None
        }));
    }

    /// Run `role`, one of `lender`'s mapper roles, on a cached thread, as
    /// [`Lender::run_mapper`] runs one on the caller — except that the core
    /// is lent only once the thread is parked again.
    pub fn spawn_mapper<F>(&'scope self, lender: &Arc<Lender>, role: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let lender = Arc::clone(lender);
        self.submit(Box::new(move || {
            lender.role(role);
            Some(lender)
        }));
    }

    fn submit(&'scope self, job: Box<dyn FnOnce() -> Option<Arc<Lender>> + Send + 'scope>) {
        // SAFETY: only the lifetime bound changes. `'scope` outlives the
        // call to `scope`, which does not return or unwind before
        // `Pending::wait` has seen this job counted back in, and a worker
        // counts it back in only after the closure has been consumed or
        // dropped — so nothing it borrows is touched after `'scope` ends.
        let job: Job = unsafe { std::mem::transmute(job) };
        let parked = PARKED.lock().expect(POISON).pop();
        let worker = parked.unwrap_or_else(Worker::start);
        self.pending.state.lock().expect(POISON).0 += 1;
        *worker.mailbox.lock().expect(POISON) = Some((job, Arc::clone(&self.pending)));
        worker.wake.notify_one();
    }
}

/// Run `body`, which may [`Scope::spawn`] jobs borrowing from the caller,
/// and return its value once the body and every job have finished. If any
/// of them panicked, the first panic is re-raised here instead.
pub fn scope<'env, F, T>(body: F) -> T
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
{
    let scope = Scope {
        pending: Arc::default(),
        scope: PhantomData,
        env: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| body(&scope)));
    // The wait-guard `Scope::spawn` relies on: reached on every path out of
    // the body, left only when no job is running.
    let job_panic = scope.pending.wait();
    match (result, job_panic) {
        (Err(panic), _) | (Ok(_), Some(panic)) => resume_unwind(panic),
        (Ok(value), None) => value,
    }
}

thread_local! {
    /// The lender of the job whose mapper role this thread is running.
    static LENDER: RefCell<Option<Arc<Lender>>> = const { RefCell::new(None) };
}

/// The lender of the job whose mapper role the calling thread is running;
/// `None` outside a job.
pub(crate) fn lender() -> Option<Arc<Lender>> {
    LENDER.with_borrow(Option::clone)
}

/// One job's lent cores: what its finished mappers offer the block launches
/// of the mappers still at work, until the map phase ends. See the module
/// docs; [`Lender::idle_ns`] is what went unused.
pub struct Lender {
    /// `state.since.len()`, readable between blocks without the lock. A
    /// stale read only delays a borrow to the next block, or finds nothing.
    sitting: AtomicUsize,
    state: Mutex<Lends>,
}

struct Lends {
    /// Mapper roles not yet returned; the map phase ends with the last.
    mapping: usize,
    /// When each lend sitting unused was made.
    since: Vec<Instant>,
    /// Core-time lends sat unused before the map phase ended.
    idle: Duration,
}

impl Lender {
    /// The lender of a job with `mappers` mapper roles.
    pub fn new(mappers: usize) -> Arc<Lender> {
        Arc::new(Lender {
            sitting: AtomicUsize::new(0),
            state: Mutex::new(Lends {
                mapping: mappers,
                since: Vec::new(),
                idle: Duration::ZERO,
            }),
        })
    }

    /// Run `role`, one of the job's mapper roles, on the calling thread:
    /// block launches inside it may borrow the cores the job's finished
    /// mappers lend, and once it returns this thread's core is lent in turn.
    pub fn run_mapper<T>(self: &Arc<Self>, role: impl FnOnce() -> T) -> T {
        let out = self.role(role);
        self.lend();
        out
    }

    /// Core-time, in ns, that lends sat unused before the job's map phase
    /// ended; complete once every mapper role has returned.
    pub fn idle_ns(&self) -> u64 {
        self.state.lock().expect(POISON).idle.as_nanos() as u64
    }

    /// Run `role` with this lender installed for the launches inside it.
    fn role<T>(self: &Arc<Self>, role: impl FnOnce() -> T) -> T {
        struct Restore(Option<Arc<Lender>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                LENDER.set(self.0.take());
            }
        }
        let _restore = Restore(LENDER.replace(Some(Arc::clone(self))));
        let out = role();
        self.returned();
        out
    }

    /// A mapper role returned. After the last, lends still sitting count as
    /// idle up to now and none is lent or borrowed any more.
    fn returned(&self) {
        let mut lends = self.state.lock().expect(POISON);
        lends.mapping -= 1;
        if lends.mapping == 0 {
            let now = Instant::now();
            let sat: Duration = lends.since.drain(..).map(|since| now - since).sum();
            lends.idle += sat;
            self.sitting.store(0, Relaxed);
        }
    }

    /// Offer one core to the job's launches while its map phase lasts.
    fn lend(&self) {
        let mut lends = self.state.lock().expect(POISON);
        if lends.mapping > 0 {
            lends.since.push(Instant::now());
            self.sitting.store(lends.since.len(), Relaxed);
        }
    }

    /// Borrow a lent core, if one is sitting; it is lent again when the
    /// [`Lend`] drops.
    pub(crate) fn take(&self) -> Option<Lend<'_>> {
        if self.sitting.load(Relaxed) == 0 {
            return None;
        }
        let mut lends = self.state.lock().expect(POISON);
        let since = lends.since.pop()?;
        lends.idle += since.elapsed();
        self.sitting.store(lends.since.len(), Relaxed);
        Some(Lend(self))
    }
}

/// A lender with `lends` cores lent and the calling thread's mapper role
/// still to run: what a launch sees in a job whose other mappers are done.
#[cfg(test)]
pub(crate) fn lent(lends: usize) -> Arc<Lender> {
    let lender = Lender::new(lends + 1);
    for _ in 0..lends {
        lender.lend();
    }
    lender
}

/// A borrowed core, handed back to its [`Lender`] on drop.
pub(crate) struct Lend<'a>(&'a Lender);

impl Drop for Lend<'_> {
    fn drop(&mut self) {
        self.0.lend();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn jobs_borrow_and_finish_before_scope_returns() {
        let mut slots = [0usize; 5];
        let base = 10;
        scope(|s| {
            for (i, slot) in slots.iter_mut().enumerate() {
                s.spawn(move || *slot = base + i);
            }
        });
        assert_eq!(slots, [10, 11, 12, 13, 14]);
    }

    #[test]
    fn every_job_gets_its_own_thread() {
        // Each job waits for all the others (and the body): this only
        // returns if all four are running at once.
        let barrier = Barrier::new(4);
        scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    barrier.wait();
                });
            }
            barrier.wait();
        });
    }

    #[test]
    fn nested_scopes_complete() {
        let total = AtomicUsize::new(0);
        scope(|outer| {
            for _ in 0..3 {
                outer.spawn(|| {
                    scope(|inner| {
                        for _ in 0..3 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    })
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn job_panic_is_reraised_after_the_others_finish() {
        let finished = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|| panic!("job went wrong"));
                for _ in 0..2 {
                    s.spawn(|| {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
        }));
        let panic = caught.expect_err("scope must re-raise the job's panic");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"job went wrong"));
        assert_eq!(finished.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn body_panic_still_waits_for_jobs() {
        let finished = AtomicUsize::new(0);
        let barrier = Barrier::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|| {
                    barrier.wait();
                    finished.fetch_add(1, Ordering::Relaxed);
                });
                // The job cannot finish before the body is already unwinding.
                let _release = Release(&barrier);
                panic!("body went wrong");
            })
        }));
        let panic = caught.expect_err("scope must re-raise the body's panic");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"body went wrong"));
        assert_eq!(finished.load(Ordering::Relaxed), 1);
    }

    struct Release<'a>(&'a Barrier);

    impl Drop for Release<'_> {
        fn drop(&mut self) {
            self.0.wait();
        }
    }
}
