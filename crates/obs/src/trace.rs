//! The tracing half: per-request span recording into a bounded,
//! never-blocking ring of completed traces.
//!
//! A [`Trace`] is created when a request enters the stack (its id seeded
//! from the wire `request_id`, or from the service's own sequence number
//! for in-process submits) and carried as an `Arc` alongside the request.
//! Stages stamp themselves in with [`SpanGuard`]s or explicit
//! [`Trace::record`] calls; a thread-local [`scope`] lets lower layers
//! (the renderer) record into the current request's trace without any
//! signature changes. When the last `Arc` drops — after the reply is
//! written — the finished span list lands in the global [`ring`], where
//! the `TRACES` wire request and the `obs_top` dashboard read it back.
//!
//! The ring is bounded and its writers never block: a push that finds its
//! slot contended, or that overwrites an older trace, counts a *drop*.
//! The accounting is exact — `pushed == held + dropped` at every quiescent
//! point — which is what makes "always-on tracing" safe to leave enabled.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Capacity of the process-global [`ring`].
pub(crate) const RING_CAPACITY: usize = 256;

/// One named stage of a request, as nanosecond offsets from the trace
/// start (`end_ns >= start_ns` always; offsets make traces portable
/// across machines and the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A finished request trace: the id plus every recorded span, in record
/// order (completion order — sort by `start_ns` for a timeline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedTrace {
    pub id: u64,
    pub spans: Vec<SpanRecord>,
}

impl CompletedTrace {
    /// The recorded span names, in record order.
    pub fn span_names(&self) -> Vec<&str> {
        self.spans.iter().map(|s| s.name.as_str()).collect()
    }

    /// Find one span by name (first match).
    pub fn span(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }
}

/// One live request's trace. Held as an `Arc` by whoever is currently
/// driving the request; recording takes the trace's own (uncontended)
/// mutex for a `Vec::push`. Dropping the last `Arc` publishes the
/// completed trace into its ring.
#[derive(Debug)]
pub struct Trace {
    id: u64,
    t0: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    ring: Option<&'static TraceRing>,
}

impl Trace {
    /// Start a trace that publishes into the global [`ring`] when done.
    pub fn start(id: u64) -> Arc<Trace> {
        Arc::new(Trace {
            id,
            t0: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(8)),
            ring: Some(ring()),
        })
    }

    /// Start a trace for work this process mints itself (a local submit, a
    /// rebalance pass), numbered from one process-wide counter with bit 63
    /// set, so its id never collides with a client-chosen wire id in the
    /// shared ring.
    pub fn local() -> Arc<Trace> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Trace::start(NEXT.fetch_add(1, Ordering::Relaxed) | 1 << 63)
    }

    /// Start a trace that is never published — for tests and tools that
    /// inspect spans directly without touching the global ring.
    pub fn detached(id: u64) -> Arc<Trace> {
        Arc::new(Trace {
            id,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            ring: None,
        })
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// Record a finished stage from explicit instants. Instants before the
    /// trace start clamp to offset 0 (`saturating_duration_since`), and
    /// `end` is clamped to be no earlier than `start`.
    pub fn record(&self, name: &str, start: Instant, end: Instant) {
        let to_ns = |i: Instant| i.saturating_duration_since(self.t0).as_nanos() as u64;
        let start_ns = to_ns(start);
        let end_ns = to_ns(end).max(start_ns);
        let record = SpanRecord {
            name: name.to_string(),
            start_ns,
            end_ns,
        };
        self.lock().push(record);
    }

    /// Record a stage that ends now.
    pub fn record_since(&self, name: &str, start: Instant) {
        self.record(name, start, Instant::now());
    }

    /// Open a guard that records the named span when dropped.
    pub fn span(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        SpanGuard {
            trace: Arc::clone(self),
            name,
            start: Instant::now(),
        }
    }

    /// Spans recorded so far (clones; the trace keeps recording).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanRecord>> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        if let Some(ring) = self.ring {
            let spans = std::mem::take(self.spans.get_mut().unwrap_or_else(|e| e.into_inner()));
            if !spans.is_empty() {
                ring.push(CompletedTrace { id: self.id, spans });
            }
        }
    }
}

/// Records its span into the owning trace on drop (normal or panic exit).
#[derive(Debug)]
pub struct SpanGuard {
    trace: Arc<Trace>,
    name: &'static str,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.trace.record_since(self.name, self.start);
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Trace>>> = const { RefCell::new(None) };
}

/// Run `f` with `trace` as this thread's current trace (restoring the
/// previous one after — scopes nest). Lower layers reach the trace through
/// [`current`] / [`record_current`] without a handle in their signatures.
pub fn scope<R>(trace: &Arc<Trace>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<Trace>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let previous = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(trace)));
    let _restore = Restore(previous);
    f()
}

/// The current trace established by an enclosing [`scope`], if any.
pub fn current() -> Option<Arc<Trace>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Record a stage ending now on the current trace — a no-op (one TLS read)
/// outside any scope, which is what keeps always-on instrumentation free
/// for direct, unserved render calls.
pub fn record_current(name: &str, start: Instant) {
    if let Some(trace) = current() {
        trace.record_since(name, start);
    }
}

/// A bounded ring of completed traces whose writers never block.
///
/// Push claims a slot by atomic ticket, then *tries* the slot's lock: on
/// contention the incoming trace is dropped (counted), on success it
/// replaces the slot — evicting any older occupant (also counted). So
/// `pushed() == held() + dropped()` exactly, at every quiescent point, no
/// matter how many writers race. Readers ([`TraceRing::recent`]) take the
/// slot locks; they are rare (a stats request, a dashboard tick).
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<Mutex<Option<(u64, CompletedTrace)>>>,
    tickets: AtomicU64,
    pushed: AtomicU64,
    dropped: AtomicU64,
}

impl TraceRing {
    pub fn new(capacity: usize) -> TraceRing {
        assert!(capacity >= 1, "trace ring needs at least one slot");
        TraceRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            tickets: AtomicU64::new(0),
            pushed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Publish one completed trace. Never blocks: contended or displaced
    /// traces are dropped and counted instead.
    pub fn push(&self, trace: CompletedTrace) {
        let ticket = self.tickets.fetch_add(1, Ordering::Relaxed);
        self.pushed.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        match slot.try_lock() {
            Ok(mut held) => {
                if held.replace((ticket, trace)).is_some() {
                    // Evicted an older trace to make room.
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                // Slot contended (or poisoned): drop the incoming trace
                // rather than stall the hot path.
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The most recent completed traces, newest first, at most `max`.
    pub fn recent(&self, max: usize) -> Vec<CompletedTrace> {
        let mut held: Vec<(u64, CompletedTrace)> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        held.sort_by_key(|(ticket, _)| std::cmp::Reverse(*ticket));
        held.truncate(max);
        held.into_iter().map(|(_, trace)| trace).collect()
    }

    /// Traces ever pushed (kept or dropped).
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Traces dropped: evicted by a newer push or discarded on slot
    /// contention. `pushed() - dropped()` traces are currently held.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Traces currently held in the ring (takes the slot locks).
    pub fn held(&self) -> usize {
        self.slots
            .iter()
            .filter(|slot| slot.lock().unwrap_or_else(|e| e.into_inner()).is_some())
            .count()
    }
}

/// The process-global ring (`RING_CAPACITY` traces) that
/// [`Trace::start`] publishes into and the `TRACES` wire request reads.
pub fn ring() -> &'static TraceRing {
    static RING: OnceLock<TraceRing> = OnceLock::new();
    RING.get_or_init(|| TraceRing::new(RING_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_record_with_monotonic_offsets() {
        let trace = Trace::detached(7);
        let t0 = Instant::now();
        {
            let _guard = trace.span("kernel");
            std::thread::sleep(Duration::from_millis(2));
        }
        trace.record("queue", t0, Instant::now());
        let spans = trace.spans();
        assert_eq!(trace.id(), 7);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "kernel");
        assert!(spans[0].end_ns >= spans[0].start_ns);
        assert!(spans[0].nanos() >= 1_000_000, "slept ~2 ms inside the span");
        // An instant before the trace start clamps to offset zero.
        let early = Trace::detached(1);
        early.record("pre", t0 - Duration::from_secs(5), t0);
        assert_eq!(early.spans()[0].start_ns, 0);
    }

    #[test]
    fn scope_carries_the_trace_and_nests() {
        let outer = Trace::detached(1);
        let inner = Trace::detached(2);
        assert!(current().is_none());
        scope(&outer, || {
            assert_eq!(current().unwrap().id(), 1);
            scope(&inner, || {
                let t = Instant::now();
                record_current("stage", t);
                assert_eq!(current().unwrap().id(), 2);
            });
            assert_eq!(current().unwrap().id(), 1, "scope restores");
        });
        assert!(current().is_none());
        assert_eq!(inner.spans().len(), 1, "record_current hit the scope");
        assert_eq!(outer.spans().len(), 0);
        // Outside any scope, record_current is a no-op, not a panic.
        record_current("orphan", Instant::now());
    }

    #[test]
    fn ring_keeps_newest_and_counts_evictions() {
        let ring = TraceRing::new(4);
        let trace = |id: u64| CompletedTrace {
            id,
            spans: vec![SpanRecord {
                name: "s".into(),
                start_ns: 0,
                end_ns: 1,
            }],
        };
        for id in 0..10 {
            ring.push(trace(id));
        }
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.dropped(), 6, "capacity 4: six evicted");
        assert_eq!(ring.held(), 4);
        let recent = ring.recent(3);
        let ids: Vec<u64> = recent.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![9, 8, 7], "newest first");
        assert_eq!(ring.recent(100).len(), 4);
    }

    #[test]
    fn dropping_the_last_arc_publishes_into_the_global_ring() {
        let before = ring().pushed();
        let trace = Trace::start(0xDEAD);
        trace.record_since("only", Instant::now());
        let clone = Arc::clone(&trace);
        drop(trace);
        assert_eq!(ring().pushed(), before, "still one live Arc");
        drop(clone);
        assert!(ring().pushed() > before, "last drop published");
        assert!(ring()
            .recent(RING_CAPACITY)
            .iter()
            .any(|t| t.id == 0xDEAD && t.span("only").is_some()));
        // A span-less trace publishes nothing (cache-probe noise control).
        let quiet_before = ring().pushed();
        drop(Trace::start(0xBEEF));
        assert_eq!(ring().pushed(), quiet_before);
    }
}
