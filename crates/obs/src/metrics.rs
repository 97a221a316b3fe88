//! The metrics half: atomic counter/gauge/histogram primitives, the
//! name → metric [`Registry`], and the mergeable [`Snapshot`] every export
//! surface (`STATS`, the `obs_top` dashboard) is built from.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Duration;

/// Number of log₂ buckets in a [`Histogram`]: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` (nanoseconds, by convention). 64 buckets span the whole
/// `u64` range, so even pathological multi-minute waits land in a bucket
/// whose edge reflects them instead of saturating early.
pub const HIST_BUCKETS: usize = 64;

/// Which bucket a sample lands in: `floor(log2(v))`, with 0 clamped into
/// bucket 0 and the top of the `u64` range into the last bucket.
pub fn bucket_of(value: u64) -> usize {
    (value.max(1).ilog2() as usize).min(HIST_BUCKETS - 1)
}

/// Quantile over loaded histogram buckets: the inclusive upper edge of the
/// bucket holding the q-th sample — conservative, it never under-reports.
/// `q` is clamped to `[0, 1]`; zero while the histogram is empty. Counts
/// may come off the wire, so the running total saturates at `u64::MAX`.
pub fn quantile(buckets: &[u64; HIST_BUCKETS], q: f64) -> Duration {
    let total = buckets.iter().fold(0u64, |sum, &n| sum.saturating_add(n));
    if total == 0 {
        return Duration::ZERO;
    }
    let rank = ((total as f64 * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen = seen.saturating_add(count);
        if seen >= rank {
            return Duration::from_nanos(1u64 << (i + 1).min(63));
        }
    }
    Duration::from_nanos(u64::MAX)
}

/// A monotonic counter. Recording is one relaxed `fetch_add` — safe from
/// any thread, never a lock.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depth, open connections): goes up
/// and down, snapshots read the current level.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub const fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    pub fn add(&self, v: i64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn dec(&self) {
        self.add(-1);
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free log₂ histogram ([`HIST_BUCKETS`] buckets). The mean hides
/// overload tails; percentiles are what dashboards and the bench-trend
/// JSON need, and summing buckets merges *exactly* across shards and
/// nodes (no quantile sketch error).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one sample (nanoseconds by convention).
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Add a caller-side tally — `counts[bucket_of(v)]` bumped once per
    /// sample `v` — in one go: the same buckets as calling
    /// [`Histogram::record`] per sample, with one atomic write per occupied
    /// bucket instead of one per sample. For hot loops that would otherwise
    /// hammer a shared histogram's cache line.
    pub fn record_tally(&self, counts: &[u64; HIST_BUCKETS]) {
        for (bucket, &n) in self.buckets.iter().zip(counts) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Record a duration as nanoseconds (saturating past ~584 years).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Load all buckets (relaxed — a statistics snapshot, not a barrier).
    pub fn load(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.load().iter().sum()
    }

    /// Quantile of the recorded distribution (see [`quantile`]).
    pub fn quantile(&self, q: f64) -> Duration {
        quantile(&self.load(), q)
    }
}

/// A point-in-time copy of every metric in a [`Registry`] (or decoded off
/// the wire): plain data, stable-sorted by name, exactly mergeable.
///
/// Merging sums counters, gauges and histogram buckets — the right
/// semantics for combining shards or pool nodes, where each source counted
/// disjoint events. Merge is associative and commutative with no count
/// loss (pinned by proptests). A snapshot may be decoded off the wire, so
/// every sum saturates — counters and buckets at `u64::MAX`, gauges at the
/// `i64` bounds — instead of overflowing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    histograms: Vec<(String, [u64; HIST_BUCKETS])>,
}

fn upsert<T>(entries: &mut Vec<(String, T)>, name: &str, v: T, add: impl FnOnce(&mut T, T)) {
    match entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
        Ok(i) => add(&mut entries[i].1, v),
        Err(i) => entries.insert(i, (name.to_string(), v)),
    }
}

fn find<'a, T>(entries: &'a [(String, T)], name: &str) -> Option<&'a T> {
    entries
        .binary_search_by(|(n, _)| n.as_str().cmp(name))
        .ok()
        .map(|i| &entries[i].1)
}

impl Snapshot {
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Add `v` into the named counter (creating it at `v`).
    pub fn add_counter(&mut self, name: &str, v: u64) {
        upsert(&mut self.counters, name, v, |acc, v| {
            *acc = acc.saturating_add(v)
        });
    }

    /// Add `v` into the named gauge (creating it at `v`).
    pub fn add_gauge(&mut self, name: &str, v: i64) {
        upsert(&mut self.gauges, name, v, |acc, v| {
            *acc = acc.saturating_add(v)
        });
    }

    /// Add bucket counts into the named histogram (creating it).
    pub fn add_histogram(&mut self, name: &str, buckets: &[u64; HIST_BUCKETS]) {
        upsert(&mut self.histograms, name, *buckets, |acc, v| {
            for (a, b) in acc.iter_mut().zip(v) {
                *a = a.saturating_add(b);
            }
        });
    }

    /// Counters as sorted `(name, value)` pairs.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    pub fn gauges(&self) -> &[(String, i64)] {
        &self.gauges
    }

    pub fn histograms(&self) -> &[(String, [u64; HIST_BUCKETS])] {
        &self.histograms
    }

    pub fn counter(&self, name: &str) -> Option<u64> {
        find(&self.counters, name).copied()
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        find(&self.gauges, name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&[u64; HIST_BUCKETS]> {
        find(&self.histograms, name)
    }

    /// Quantile of a named histogram (`None` if absent; zero if empty).
    pub fn hist_quantile(&self, name: &str, q: f64) -> Option<Duration> {
        self.histogram(name).map(|b| quantile(b, q))
    }

    /// Fold another snapshot into this one: counters, gauges and histogram
    /// buckets add, names union.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            self.add_counter(name, *v);
        }
        for (name, v) in &other.gauges {
            self.add_gauge(name, *v);
        }
        for (name, b) in &other.histograms {
            self.add_histogram(name, b);
        }
    }

    /// True when nothing has been recorded into this snapshot.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Vec<(&'static str, Arc<Counter>)>,
    gauges: Vec<(&'static str, Arc<Gauge>)>,
    histograms: Vec<(&'static str, Arc<Histogram>)>,
    /// Live [`Registry::scoped`] children, summed into every snapshot.
    children: Vec<Weak<Mutex<RegistryInner>>>,
    /// Final counter and histogram totals of dropped children, so a
    /// child's events outlive it (its gauges — levels — leave with it).
    retired: Snapshot,
}

fn get_or_insert<T: Default>(
    entries: &mut Vec<(&'static str, Arc<T>)>,
    name: &'static str,
) -> Arc<T> {
    match entries.binary_search_by(|(n, _)| n.cmp(&name)) {
        Ok(i) => Arc::clone(&entries[i].1),
        Err(i) => {
            let fresh = Arc::new(T::default());
            entries.insert(i, (name, Arc::clone(&fresh)));
            fresh
        }
    }
}

fn lock(inner: &Mutex<RegistryInner>) -> std::sync::MutexGuard<'_, RegistryInner> {
    // A poisoned registry mutex would mean a panic mid-Vec-insert;
    // the data is still sound for reading and re-inserting.
    inner.lock().unwrap_or_else(|e| e.into_inner())
}

/// Own instruments plus retired totals, then every live child. The child
/// list and `retired` are read under one lock, so a child dropping
/// concurrently is counted exactly once — live or retired.
fn snapshot_of(inner: &Mutex<RegistryInner>) -> Snapshot {
    let (mut snap, children) = {
        let inner = lock(inner);
        let mut snap = inner.retired.clone();
        for (name, c) in &inner.counters {
            snap.add_counter(name, c.get());
        }
        for (name, g) in &inner.gauges {
            snap.add_gauge(name, g.get());
        }
        for (name, h) in &inner.histograms {
            snap.add_histogram(name, &h.load());
        }
        let children: Vec<_> = inner.children.iter().filter_map(Weak::upgrade).collect();
        (snap, children)
    };
    for child in children {
        snap.merge(&snapshot_of(&child));
    }
    snap
}

/// A name → metric table. Registration (`counter`/`gauge`/`histogram`) is
/// get-or-create under a short mutex — done once per call site, which then
/// caches the `Arc` and records lock-free. The same name always returns
/// the same metric, so independent call sites share one counter by naming
/// it identically.
///
/// Registries are values: a server owns a private one for metrics that
/// must not mix across instances, and a [`Registry::scoped`] child keeps
/// one component's events apart while its parent still reports them.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
    parent: Option<Arc<Mutex<RegistryInner>>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A child registry: its own [`Registry::snapshot`] holds only what was
    /// recorded through it, while every snapshot of `parent` also sums it
    /// in under the same names — one write per event serves both views.
    /// Dropping the child folds its counter and histogram totals into the
    /// parent, so the parent never moves backwards; an instrument written
    /// after its registry dropped is no longer seen by the parent.
    pub fn scoped(parent: &Registry) -> Registry {
        let child = Registry {
            inner: Arc::default(),
            parent: Some(Arc::clone(&parent.inner)),
        };
        lock(&parent.inner)
            .children
            .push(Arc::downgrade(&child.inner));
        child
    }

    /// Get-or-register the named counter.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        get_or_insert(&mut lock(&self.inner).counters, name)
    }

    /// Get-or-register the named gauge.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        get_or_insert(&mut lock(&self.inner).gauges, name)
    }

    /// Get-or-register the named histogram.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        get_or_insert(&mut lock(&self.inner).histograms, name)
    }

    /// Freeze every registered metric, scoped children included, into a
    /// [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        snapshot_of(&self.inner)
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        let Some(parent) = &self.parent else { return };
        // Retire under the parent's lock: a concurrent parent snapshot
        // sees this child either still listed or already folded in.
        let mut parent = lock(parent);
        parent
            .children
            .retain(|child| !std::ptr::eq(child.as_ptr(), Arc::as_ptr(&self.inner)));
        let mut last = snapshot_of(&self.inner);
        last.gauges.clear();
        parent.retired.merge(&last);
    }
}

/// The process-wide registry: what volren records into directly and what
/// every service's scoped registry reports up to. Metrics here aggregate
/// across every service instance in the process — exactly what a per-node
/// export wants.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.inc();
        g.add(10);
        g.dec();
        assert_eq!(g.get(), 10);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    /// Counts decoded off the wire can be anything: folding them saturates
    /// (counters and buckets at `u64::MAX`, gauges at the `i64` bounds)
    /// instead of overflowing — a debug build panicked here, a release
    /// build wrapped to wrong totals.
    #[test]
    fn sums_saturate_at_the_integer_bounds() {
        let mut a = Snapshot::new();
        a.add_counter("c", u64::MAX);
        a.add_gauge("up", i64::MAX);
        a.add_gauge("down", i64::MIN);
        let mut wide = [0; HIST_BUCKETS];
        wide[3] = u64::MAX;
        wide[9] = 1;
        a.add_histogram("h", &wide);
        let mut b = Snapshot::new();
        b.add_counter("c", 1);
        b.add_gauge("up", 1);
        b.add_gauge("down", -1);
        b.add_histogram("h", &wide);
        a.merge(&b);
        assert_eq!(a.counter("c"), Some(u64::MAX));
        assert_eq!(a.gauge("up"), Some(i64::MAX));
        assert_eq!(a.gauge("down"), Some(i64::MIN));
        let h = a.histogram("h").unwrap();
        assert_eq!((h[3], h[9]), (u64::MAX, 2));
        // One histogram whose buckets alone sum past u64::MAX.
        assert_eq!(quantile(&wide, 0.5), Duration::from_nanos(16));
        assert_eq!(a.hist_quantile("h", 0.9), Some(Duration::from_nanos(16)));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let hist = Histogram::new();
        // 0 clamps into bucket 0; huge values clamp into the last bucket.
        hist.record(0);
        hist.record(1);
        hist.record(u64::MAX);
        let loaded = hist.load();
        assert_eq!(loaded[0], 2);
        assert_eq!(loaded[HIST_BUCKETS - 1], 1);
        assert_eq!(hist.count(), 3);

        let hist = Histogram::new();
        for _ in 0..9 {
            hist.record(1_000); // bucket 9 (512..1024 ns)
        }
        hist.record_duration(Duration::from_secs(1)); // one 1 s outlier
        let p50 = hist.quantile(0.5);
        let p99 = hist.quantile(0.99);
        assert!(p50 <= Duration::from_nanos(2048), "median ignores outlier");
        assert!(p99 >= Duration::from_millis(500), "tail sees the outlier");
        // q = 0 clamps to the first recorded sample's bucket.
        assert_eq!(hist.quantile(0.0), p50);

        // A local tally merged once lands exactly where per-sample
        // recording does, and adds to what is already there.
        let values = [0u64, 1, 2, 3, 900, 1_000, 1 << 40, u64::MAX, 37, 37];
        let (each, bulk) = (Histogram::new(), Histogram::new());
        let mut tally = [0u64; HIST_BUCKETS];
        for round in 0..2 {
            for &v in &values[round..] {
                each.record(v);
                tally[bucket_of(v)] += 1;
            }
            bulk.record_tally(&tally);
            tally = [0; HIST_BUCKETS];
        }
        assert_eq!(each.load(), bulk.load());
        assert_eq!(bulk.count(), 19);
        assert_eq!(Histogram::new().quantile(0.5), Duration::ZERO);
    }

    #[test]
    fn registry_is_idempotent_and_shares_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        a.add(3);
        b.add(4);
        assert_eq!(reg.counter("x.hits").get(), 7, "one counter per name");
        assert!(Arc::ptr_eq(&a, &b));
        reg.gauge("x.depth").set(2);
        reg.histogram("x.wait_ns").record(100);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x.hits"), Some(7));
        assert_eq!(snap.gauge("x.depth"), Some(2));
        assert_eq!(snap.histogram("x.wait_ns").unwrap().iter().sum::<u64>(), 1);
        assert_eq!(snap.counter("absent"), None);
    }

    #[test]
    fn scoped_child_reports_to_its_parent_and_retires_on_drop() {
        let parent = Registry::new();
        parent.counter("x.hits").add(1);
        let child = Registry::scoped(&parent);
        child.counter("x.hits").add(4);
        child.gauge("x.depth").set(3);
        child.histogram("x.wait_ns").record(100);
        assert_eq!(child.snapshot().counter("x.hits"), Some(4), "own events");
        let live = parent.snapshot();
        assert_eq!(live.counter("x.hits"), Some(5));
        assert_eq!(live.gauge("x.depth"), Some(3));
        drop(child);
        let retired = parent.snapshot();
        assert_eq!(retired.counter("x.hits"), Some(5), "events outlive it");
        assert_eq!(retired.histogram("x.wait_ns"), live.histogram("x.wait_ns"));
        assert_eq!(retired.gauge("x.depth"), None, "levels leave with it");
    }

    #[test]
    fn snapshot_merge_sums_and_unions() {
        let mut a = Snapshot::new();
        a.add_counter("frames", 3);
        a.add_gauge("depth", 2);
        let mut hist = [0u64; HIST_BUCKETS];
        hist[4] = 5;
        a.add_histogram("wait", &hist);

        let mut b = Snapshot::new();
        b.add_counter("frames", 7);
        b.add_counter("only_b", 1);
        hist[4] = 2;
        hist[9] = 1;
        b.add_histogram("wait", &hist);

        a.merge(&b);
        assert_eq!(a.counter("frames"), Some(10));
        assert_eq!(a.counter("only_b"), Some(1));
        assert_eq!(a.gauge("depth"), Some(2));
        let merged = a.histogram("wait").unwrap();
        assert_eq!((merged[4], merged[9]), (7, 1));
        // Names stay sorted whatever the insertion order.
        a.add_counter("a.first", 1);
        let names: Vec<&str> = a.counters().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.first", "frames", "only_b"]);
        assert!(!a.is_empty());
        assert!(Snapshot::new().is_empty());
    }
}
