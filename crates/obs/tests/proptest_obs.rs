//! Properties of the metrics snapshot algebra and the histogram
//! quantiles — the guarantees every export surface (STATS, pool-wide
//! merges, the `obs_top` dashboard) silently relies on:
//!
//! * snapshot merge is **associative** and **commutative** with **no count
//!   loss** — shard and node snapshots can fold in any grouping or order
//!   and the totals agree exactly;
//! * histogram quantiles are **monotone** in `q` and **conservative**
//!   (never under-report a recorded sample);
//! * `bucket_of` and `quantile` agree: every sample's bucket upper edge
//!   bounds the sample;
//! * a parent registry's movement is **exactly** the sum of its scoped
//!   children's snapshots under concurrent writers, and dropping a child
//!   never moves the parent backwards.

use proptest::prelude::*;

use mgpu_obs::{bucket_of, quantile, Histogram, Registry, Snapshot, HIST_BUCKETS};

/// Names drawn from a small pool so merges actually collide.
const NAMES: [&str; 5] = ["a.hits", "b.depth", "c.wait", "d.frames", "e.misses"];

/// One randomized snapshot: counters, gauges and single-sample histogram
/// increments, each keyed into the shared name pool.
fn build(ops: &[(usize, u8, u64)]) -> Snapshot {
    let mut snap = Snapshot::new();
    for &(name, kind, value) in ops {
        let name = NAMES[name % NAMES.len()];
        match kind % 3 {
            0 => snap.add_counter(name, value),
            1 => snap.add_gauge(name, value as i64 % 1_000_000 - 500_000),
            _ => {
                let mut buckets = [0u64; HIST_BUCKETS];
                buckets[bucket_of(value)] = 1 + value % 7;
                snap.add_histogram(name, &buckets);
            }
        }
    }
    snap
}

/// Total event mass of a snapshot: counter values plus histogram bucket
/// counts (gauges are levels, not events — they sum too, but separately).
fn mass(snap: &Snapshot) -> (u64, i64, u64) {
    (
        snap.counters().iter().map(|(_, v)| *v).sum(),
        snap.gauges().iter().map(|(_, v)| *v).sum(),
        snap.histograms()
            .iter()
            .map(|(_, b)| b.iter().sum::<u64>())
            .sum(),
    )
}

fn merged(a: &Snapshot, b: &Snapshot) -> Snapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// One write through a scoped child: `(child, name, kind, value)`.
type ScopedOp = (usize, usize, u8, u64);

/// Apply `ops` to `children` (indices taken modulo the slice length),
/// registering each instrument by name at the write — so concurrent
/// writers also race the get-or-create path.
fn apply(children: &[Registry], ops: &[ScopedOp]) {
    for &(child, name, kind, value) in ops {
        let reg = &children[child % children.len()];
        let name = NAMES[name % NAMES.len()];
        match kind % 3 {
            0 => reg.counter(name).add(value),
            1 => reg.gauge(name).add(value as i64 % 1_000 - 500),
            _ => reg.histogram(name).record(value),
        }
    }
}

/// Run one round: all eight writers released together by a barrier, each
/// applying its own op list to the shared children, while `meanwhile` runs
/// on the calling thread from the same barrier.
fn write_concurrently(children: &[Registry], writers: &[Vec<ScopedOp>], meanwhile: impl FnOnce()) {
    let start = std::sync::Barrier::new(writers.len() + 1);
    std::thread::scope(|scope| {
        for ops in writers {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                apply(children, ops);
            });
        }
        start.wait();
        meanwhile();
    });
}

/// Every counter and histogram bucket of `later` is at least `earlier`'s.
fn never_backwards(earlier: &Snapshot, later: &Snapshot) -> bool {
    earlier
        .counters()
        .iter()
        .all(|(name, v)| later.counter(name).is_some_and(|l| l >= *v))
        && earlier.histograms().iter().all(|(name, buckets)| {
            later
                .histogram(name)
                .is_some_and(|l| l.iter().zip(buckets).all(|(l, e)| l >= e))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eight concurrent writers over N scoped children: the parent's
    /// movement is exactly the sum of the child snapshots, while some
    /// children are being dropped under the other children's writers —
    /// their events stay (the parent never moves backwards), only their
    /// gauge levels leave.
    #[test]
    fn scoped_children_sum_to_the_parents_movement(
        n in 2usize..6,
        first in prop::collection::vec(
            prop::collection::vec((0usize..8, 0usize..8, 0u8..3, 0u64..1u64 << 32), 0..24), 8..9),
        second in prop::collection::vec(
            prop::collection::vec((0usize..8, 0usize..8, 0u8..3, 0u64..1u64 << 32), 0..24), 8..9),
    ) {
        let parent = Registry::new();
        parent.counter(NAMES[0]).add(7); // the parent's own, pre-existing events
        let baseline = parent.snapshot();
        let mut children: Vec<Registry> = (0..n).map(|_| Registry::scoped(&parent)).collect();

        write_concurrently(&children, &first, || {});

        // Round two writes only to the survivors while the rest are
        // dropped one by one on this thread.
        let survivors = children.split_off(n / 2);
        let mut expected = baseline.clone();
        let mut watched = parent.snapshot();
        let mut monotone = true;
        write_concurrently(&survivors, &second, || {
            for child in children.drain(..) {
                let last = child.snapshot();
                for (name, v) in last.counters() {
                    expected.add_counter(name, *v);
                }
                for (name, buckets) in last.histograms() {
                    expected.add_histogram(name, buckets);
                }
                drop(child);
                let now = parent.snapshot();
                monotone &= never_backwards(&watched, &now);
                watched = now;
            }
        });
        prop_assert!(monotone, "a dropped child moved the parent backwards");

        for child in &survivors {
            expected.merge(&child.snapshot());
        }
        prop_assert_eq!(parent.snapshot(), expected);
    }

    /// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c): shard snapshots can fold in any
    /// grouping — a pool merging per-node merges equals one flat merge.
    #[test]
    fn merge_is_associative(
        a in prop::collection::vec((0usize..8, 0u8..3, 0u64..1u64 << 32), 0..24),
        b in prop::collection::vec((0usize..8, 0u8..3, 0u64..1u64 << 32), 0..24),
        c in prop::collection::vec((0usize..8, 0u8..3, 0u64..1u64 << 32), 0..24),
    ) {
        let (a, b, c) = (build(&a), build(&b), build(&c));
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    /// a ⊕ b == b ⊕ a, and nothing is lost: every counter value and
    /// histogram bucket count in the merge is the exact sum of the inputs.
    #[test]
    fn merge_commutes_and_loses_nothing(
        a in prop::collection::vec((0usize..8, 0u8..3, 0u64..1u64 << 32), 0..32),
        b in prop::collection::vec((0usize..8, 0u8..3, 0u64..1u64 << 32), 0..32),
    ) {
        let (a, b) = (build(&a), build(&b));
        let ab = merged(&a, &b);
        prop_assert_eq!(&ab, &merged(&b, &a));
        let ((ca, ga, ha), (cb, gb, hb), (cm, gm, hm)) = (mass(&a), mass(&b), mass(&ab));
        prop_assert_eq!(cm, ca + cb, "counter mass conserved");
        prop_assert_eq!(gm, ga + gb, "gauge mass conserved");
        prop_assert_eq!(hm, ha + hb, "histogram count conserved");
        // The empty snapshot is the identity.
        prop_assert_eq!(&merged(&a, &Snapshot::new()), &a);
    }

    /// Quantiles are monotone in q and conservative: q=1 bounds every
    /// recorded sample, and no quantile of a non-empty histogram is zero.
    #[test]
    fn quantiles_are_monotone_and_conservative(
        samples in prop::collection::vec(0u64..u64::MAX, 1..64),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let hist = Histogram::new();
        for &s in &samples {
            hist.record(s);
        }
        prop_assert_eq!(hist.count(), samples.len() as u64);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(hist.quantile(lo) <= hist.quantile(hi),
            "quantile must be monotone: q{lo} > q{hi}");
        // Conservative: the top quantile's bucket edge bounds the max
        // sample (both saturate at the top bucket's edge).
        let max = *samples.iter().max().unwrap();
        let edge = 1u128 << (bucket_of(max) + 1).min(63);
        prop_assert!(hist.quantile(1.0).as_nanos() >= edge.min(max as u128));
        prop_assert!(hist.quantile(0.0).as_nanos() > 0, "non-empty histogram");
    }

    /// Histogram merge (bucket-wise add through snapshots) preserves
    /// quantiles computed over the union of the samples.
    #[test]
    fn merged_histograms_quantile_like_the_union(
        xs in prop::collection::vec(1u64..1u64 << 40, 1..32),
        ys in prop::collection::vec(1u64..1u64 << 40, 1..32),
    ) {
        let (hx, hy, hu) = (Histogram::new(), Histogram::new(), Histogram::new());
        for &x in &xs { hx.record(x); hu.record(x); }
        for &y in &ys { hy.record(y); hu.record(y); }
        let mut a = Snapshot::new();
        a.add_histogram("h", &hx.load());
        let mut b = Snapshot::new();
        b.add_histogram("h", &hy.load());
        a.merge(&b);
        let m = a.histogram("h").unwrap();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(quantile(m, q), hu.quantile(q), "q={}", q);
        }
    }
}
