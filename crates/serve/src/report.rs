//! Service-level accounting: the `serve.*` instruments the submit path and
//! the workers write, and the [`ServiceReport`] view over a snapshot of them.
//!
//! This sits *above* the per-frame [`mgpu_volren::RenderReport`]: the frame
//! report times one frame on the modeled cluster; the service report
//! measures how the front-end behaves under load — queue latency, batch
//! occupancy, cache and plan-cache hit rates, brick staging reuse, admission
//! shedding, failures, wall-clock throughput.

use std::sync::Arc;
use std::time::Duration;

use mgpu_obs::names;
use mgpu_obs::{Counter, Histogram, Registry, Snapshot, HIST_BUCKETS};

use crate::cache::CacheSnapshot;

/// The service's instruments, resolved once per instance from its own
/// scoped registry so hot paths touch only atomics. Each event is written
/// here exactly once: the service's [`ServiceReport`] and the
/// process-global `serve.*` totals are both snapshots of these. (The
/// caches and the queue own their instruments the same way.)
#[derive(Debug)]
pub(crate) struct ServiceStats {
    pub frames_submitted: Arc<Counter>,
    pub frames_completed: Arc<Counter>,
    pub frames_rendered: Arc<Counter>,
    pub frames_failed: Arc<Counter>,
    pub admission_rejected: Arc<Counter>,
    pub batches: Arc<Counter>,
    pub batched_frames: Arc<Counter>,
    pub brick_stagings: Arc<Counter>,
    pub brick_reuses: Arc<Counter>,
    pub plan_prewarms: Arc<Counter>,
    pub queue_wait_ns: Arc<Histogram>,
    pub queue_wait_total_ns: Arc<Counter>,
    pub sim_frame_total_ns: Arc<Counter>,
    pub render_ns: Arc<Histogram>,
}

impl ServiceStats {
    pub fn register(reg: &Registry) -> ServiceStats {
        ServiceStats {
            frames_submitted: reg.counter(names::SERVE_FRAMES_SUBMITTED),
            frames_completed: reg.counter(names::SERVE_FRAMES_COMPLETED),
            frames_rendered: reg.counter(names::SERVE_FRAMES_RENDERED),
            frames_failed: reg.counter(names::SERVE_FRAMES_FAILED),
            admission_rejected: reg.counter(names::SERVE_ADMISSION_REJECTED),
            batches: reg.counter(names::SERVE_BATCHES),
            batched_frames: reg.counter(names::SERVE_BATCHED_FRAMES),
            brick_stagings: reg.counter(names::SERVE_BRICK_STAGINGS),
            brick_reuses: reg.counter(names::SERVE_BRICK_REUSES),
            plan_prewarms: reg.counter(names::SERVE_PLAN_PREWARMS),
            queue_wait_ns: reg.histogram(names::SERVE_QUEUE_WAIT_NS),
            queue_wait_total_ns: reg.counter(names::SERVE_QUEUE_WAIT_TOTAL_NS),
            sim_frame_total_ns: reg.counter(names::SERVE_SIM_FRAME_TOTAL_NS),
            render_ns: reg.histogram(names::SERVE_RENDER_NS),
        }
    }
}

/// A point-in-time summary of service behaviour, alongside the per-frame
/// `RenderReport`s the tickets deliver. A pure view: every field is read
/// from an [`mgpu_obs::Snapshot`] of `serve.*` instruments plus the
/// service's uptime (see [`ServiceReport::from_snapshot`]), so a report of
/// several services is the view over their merged snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    pub frames_submitted: u64,
    pub frames_completed: u64,
    pub frames_rendered: u64,
    /// Frames that resolved to an explicit [`crate::FrameError`] after a
    /// caught render panic (the worker survived).
    pub frames_failed: u64,
    /// Frames answered from the frame cache (submit-side or worker-side).
    pub cache_hits: u64,
    /// Submissions shed by admission control (never queued).
    pub admission_rejected: u64,
    pub batches: u64,
    pub batched_frames: u64,
    /// Jobs that actually left the queue (rendered or coalesced).
    pub jobs_popped: u64,
    pub brick_stagings: u64,
    pub brick_reuses: u64,
    /// Cross-batch plan cache counters (hits = batches that skipped
    /// re-bricking and reused a warm store).
    pub plan_cache: CacheSnapshot,
    /// Frame-cache occupancy and counters (entries and capacities sum
    /// across the services behind the snapshot).
    pub frame_cache: CacheSnapshot,
    /// Mean time a job waited in the queue before a worker picked it up —
    /// averaged over every popped job, coalesced cache hits included.
    pub mean_queue_wait: Duration,
    /// Queue-wait distribution (log₂-bucket counts); see
    /// [`ServiceReport::queue_wait_quantile`].
    pub queue_wait_hist: [u64; HIST_BUCKETS],
    /// Real elapsed time since the service started (the longest uptime
    /// when several services are folded: they run concurrently).
    pub wall_elapsed: Duration,
    /// Sum of simulated per-frame runtimes.
    pub sim_frame_total: Duration,
}

impl Default for ServiceReport {
    /// The report of a service that has seen nothing.
    fn default() -> ServiceReport {
        ServiceReport::from_snapshot(&Snapshot::new(), Duration::ZERO)
    }
}

impl ServiceReport {
    /// The view over one service's snapshot — or, because counters, gauges
    /// and histogram buckets merge by addition, over the
    /// [`Snapshot::merge`] of many (shards, pool nodes).
    pub fn from_snapshot(snap: &Snapshot, wall_elapsed: Duration) -> ServiceReport {
        let count = |name: &str| snap.counter(name).unwrap_or(0);
        let level = |name: &str| usize::try_from(snap.gauge(name).unwrap_or(0)).unwrap_or(0);
        let queue_wait_hist = snap
            .histogram(names::SERVE_QUEUE_WAIT_NS)
            .copied()
            .unwrap_or([0; HIST_BUCKETS]);
        // Every popped job (rendered or coalesced) records one wait sample;
        // cache fast-path frames never enter the queue and are excluded.
        let jobs_popped: u64 = queue_wait_hist.iter().sum();
        let waited = count(names::SERVE_QUEUE_WAIT_TOTAL_NS);
        ServiceReport {
            frames_submitted: count(names::SERVE_FRAMES_SUBMITTED),
            frames_completed: count(names::SERVE_FRAMES_COMPLETED),
            frames_rendered: count(names::SERVE_FRAMES_RENDERED),
            frames_failed: count(names::SERVE_FRAMES_FAILED),
            cache_hits: count(names::SERVE_FRAME_CACHE_HITS),
            admission_rejected: count(names::SERVE_ADMISSION_REJECTED),
            batches: count(names::SERVE_BATCHES),
            batched_frames: count(names::SERVE_BATCHED_FRAMES),
            jobs_popped,
            brick_stagings: count(names::SERVE_BRICK_STAGINGS),
            brick_reuses: count(names::SERVE_BRICK_REUSES),
            plan_cache: CacheSnapshot {
                entries: level(names::SERVE_PLAN_CACHE_ENTRIES),
                capacity: level(names::SERVE_PLAN_CACHE_CAPACITY),
                hits: count(names::SERVE_PLAN_CACHE_HITS),
                misses: count(names::SERVE_PLAN_CACHE_MISSES),
                evictions: count(names::SERVE_PLAN_CACHE_EVICTIONS),
            },
            frame_cache: CacheSnapshot {
                entries: level(names::SERVE_FRAME_CACHE_ENTRIES),
                capacity: level(names::SERVE_FRAME_CACHE_CAPACITY),
                hits: count(names::SERVE_FRAME_CACHE_HITS),
                misses: count(names::SERVE_FRAME_CACHE_MISSES),
                evictions: count(names::SERVE_FRAME_CACHE_EVICTIONS),
            },
            mean_queue_wait: Duration::from_nanos(waited.checked_div(jobs_popped).unwrap_or(0)),
            queue_wait_hist,
            wall_elapsed,
            sim_frame_total: Duration::from_nanos(count(names::SERVE_SIM_FRAME_TOTAL_NS)),
        }
    }

    /// Fraction of completed frames answered from the frame cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.frames_completed == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.frames_completed as f64
        }
    }

    /// Fraction of plan lookups answered by the cross-batch plan cache.
    pub fn plan_cache_hit_rate(&self) -> f64 {
        self.plan_cache.hit_rate()
    }

    /// Mean frames per batch (1.0 = batching bought nothing).
    pub fn batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_frames as f64 / self.batches as f64
        }
    }

    /// Completed frames per wall-clock second since service start.
    pub fn frames_per_sec(&self) -> f64 {
        let s = self.wall_elapsed.as_secs_f64();
        if s > 0.0 {
            self.frames_completed as f64 / s
        } else {
            0.0
        }
    }

    /// Queue-wait quantile from the log₂ histogram: the upper edge of the
    /// bucket holding the q-th popped job, so it never under-reports. Zero
    /// while nothing has been popped.
    pub fn queue_wait_quantile(&self, q: f64) -> Duration {
        mgpu_obs::quantile(&self.queue_wait_hist, q)
    }

    /// Median queue wait (see [`ServiceReport::queue_wait_quantile`]).
    pub fn queue_wait_p50(&self) -> Duration {
        self.queue_wait_quantile(0.5)
    }

    /// 90th-percentile queue wait — the overload-tail number the heat
    /// metrics watch per shard.
    pub fn queue_wait_p90(&self) -> Duration {
        self.queue_wait_quantile(0.9)
    }

    /// Mean simulated frame time across rendered frames.
    pub fn mean_sim_frame(&self) -> Duration {
        // u128 nanoseconds: `Duration / u32` would truncate the divisor
        // (wrong past u32::MAX frames, a division by zero at 1 << 32).
        let nanos = self
            .sim_frame_total
            .as_nanos()
            .checked_div(self.frames_rendered as u128)
            .unwrap_or(0);
        Duration::from_nanos(nanos as u64)
    }
}

impl std::fmt::Display for ServiceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "frames: {} submitted, {} completed ({} rendered, {} cache hits, {:.1}% hit rate)",
            self.frames_submitted,
            self.frames_completed,
            self.frames_rendered,
            self.cache_hits,
            self.cache_hit_rate() * 100.0
        )?;
        if self.frames_failed > 0 || self.admission_rejected > 0 {
            writeln!(
                f,
                "shed/failed: {} rejected at admission, {} frames failed (caught panics)",
                self.admission_rejected, self.frames_failed
            )?;
        }
        writeln!(
            f,
            "batching: {} batches, mean occupancy {:.2} frames/batch",
            self.batches,
            self.batch_occupancy()
        )?;
        writeln!(
            f,
            "plan cache: {} hits, {} misses ({:.1}% hit rate), {} evictions",
            self.plan_cache.hits,
            self.plan_cache.misses,
            self.plan_cache_hit_rate() * 100.0,
            self.plan_cache.evictions
        )?;
        writeln!(
            f,
            "bricks: {} staged, {} reused from shared stores",
            self.brick_stagings, self.brick_reuses
        )?;
        writeln!(
            f,
            "frame cache: {}/{} entries, {} hits, {} misses, {} evictions",
            self.frame_cache.entries,
            self.frame_cache.capacity,
            self.frame_cache.hits,
            self.frame_cache.misses,
            self.frame_cache.evictions
        )?;
        write!(
            f,
            "throughput: {:.1} frames/s wall ({:.3} s elapsed), queue wait mean {:.2} ms \
             / p50 {:.2} ms / p90 {:.2} ms, mean sim frame {:.2} ms",
            self.frames_per_sec(),
            self.wall_elapsed.as_secs_f64(),
            self.mean_queue_wait.as_secs_f64() * 1e3,
            self.queue_wait_p50().as_secs_f64() * 1e3,
            self.queue_wait_p90().as_secs_f64() * 1e3,
            self.mean_sim_frame().as_secs_f64() * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(counters: &[(&str, u64)], gauges: &[(&str, i64)], waits: &[u64]) -> Snapshot {
        let mut snap = Snapshot::new();
        for (name, v) in counters {
            snap.add_counter(name, *v);
        }
        for (name, v) in gauges {
            snap.add_gauge(name, *v);
        }
        let hist = Histogram::new();
        for wait in waits {
            hist.record(*wait);
        }
        snap.add_histogram(names::SERVE_QUEUE_WAIT_NS, &hist.load());
        snap.add_counter(names::SERVE_QUEUE_WAIT_TOTAL_NS, waits.iter().sum());
        snap
    }

    #[test]
    fn derived_rates() {
        // 8 rendered + 2 worker-side coalesced pops: the wait mean divides
        // by popped jobs, not rendered frames.
        let snap = snapshot(
            &[
                (names::SERVE_FRAMES_SUBMITTED, 10),
                (names::SERVE_FRAMES_COMPLETED, 10),
                (names::SERVE_FRAMES_RENDERED, 8),
                (names::SERVE_FRAME_CACHE_HITS, 2),
                (names::SERVE_FRAME_CACHE_MISSES, 8),
                (names::SERVE_BATCHES, 2),
                (names::SERVE_BATCHED_FRAMES, 8),
                (names::SERVE_PLAN_CACHE_HITS, 1),
                (names::SERVE_PLAN_CACHE_MISSES, 1),
            ],
            &[
                (names::SERVE_FRAME_CACHE_ENTRIES, 2),
                (names::SERVE_FRAME_CACHE_CAPACITY, 4),
            ],
            &[1_000_000; 10],
        );
        let r = ServiceReport::from_snapshot(&snap, Duration::from_secs(2));
        assert_eq!(r.cache_hit_rate(), 0.2);
        assert_eq!(r.batch_occupancy(), 4.0);
        assert_eq!(r.frames_per_sec(), 5.0);
        assert_eq!(r.jobs_popped, 10);
        assert_eq!(r.mean_queue_wait, Duration::from_nanos(1_000_000));
        assert_eq!(r.plan_cache_hit_rate(), 0.5);
        assert_eq!(r.frame_cache.occupancy(), 0.5);
    }

    #[test]
    fn empty_report_has_no_nans() {
        let r = ServiceReport::default();
        assert_eq!(r.cache_hit_rate(), 0.0);
        assert_eq!(r.batch_occupancy(), 0.0);
        assert_eq!(r.frames_per_sec(), 0.0);
        assert_eq!(r.plan_cache_hit_rate(), 0.0);
        assert_eq!(r.mean_sim_frame(), Duration::ZERO);
        assert_eq!(r.queue_wait_p50(), Duration::ZERO);
        let text = r.to_string();
        assert!(text.contains("0 submitted"));
    }

    #[test]
    fn merged_snapshots_sum_and_reweight() {
        let mk = |rendered: u64, popped: usize, wait_ms: u64| {
            snapshot(
                &[
                    (names::SERVE_FRAMES_RENDERED, rendered),
                    (names::SERVE_FRAMES_COMPLETED, rendered),
                    (names::SERVE_PLAN_CACHE_HITS, 2),
                    (names::SERVE_FRAME_CACHE_EVICTIONS, 1),
                ],
                &[
                    (names::SERVE_PLAN_CACHE_CAPACITY, 8),
                    (names::SERVE_FRAME_CACHE_ENTRIES, 3),
                    (names::SERVE_FRAME_CACHE_CAPACITY, 16),
                ],
                &vec![wait_ms * 1_000_000; popped],
            )
        };
        let mut both = mk(4, 4, 2);
        both.merge(&mk(8, 12, 6));
        let m = ServiceReport::from_snapshot(&both, Duration::from_secs(5));
        assert_eq!(m.frames_rendered, 12);
        assert_eq!(m.jobs_popped, 16);
        assert_eq!(m.plan_cache.hits, 4);
        assert_eq!(m.plan_cache.capacity, 16);
        assert_eq!(m.frame_cache.entries, 6);
        assert_eq!(m.frame_cache.capacity, 32);
        assert_eq!(m.frame_cache.evictions, 2);
        // Weighted mean: (4·2ms + 12·6ms) / 16 = 5ms.
        assert_eq!(m.mean_queue_wait, Duration::from_millis(5));
        // Histogram buckets add: 16 samples total, p50 falls in the 6 ms
        // bucket's range because 12 of 16 samples sit there.
        assert!(m.queue_wait_p50() >= Duration::from_millis(4));
    }

    #[test]
    fn quantiles_are_thin_views_over_the_snapshot_histogram() {
        // Bucketing and quantile math live in mgpu-obs (tested there); this
        // checks the view plumbing from one histogram and one total.
        let mut waits = vec![1_000; 9]; // ≈ 1 µs
        waits.push(1_000_000_000); // one 1 s outlier
        let r = ServiceReport::from_snapshot(&snapshot(&[], &[], &waits), Duration::from_secs(1));
        assert_eq!(r.queue_wait_hist.iter().sum::<u64>(), 10);
        let p50 = r.queue_wait_p50();
        assert!(p50 <= Duration::from_nanos(2048), "median ignores outlier");
        assert!(
            r.queue_wait_quantile(0.99) >= Duration::from_millis(500),
            "tail sees the outlier"
        );
        assert_eq!(
            r.queue_wait_quantile(0.0),
            p50,
            "q=0 clamps to first bucket"
        );
    }

    /// `Duration / u32` truncated the frame count: wrong past `u32::MAX`
    /// and a division by zero at exact multiples of 2³².
    #[test]
    fn mean_sim_frame_divides_by_the_full_frame_count() {
        let r = ServiceReport {
            frames_rendered: 1 << 32,
            sim_frame_total: Duration::from_nanos(3 << 32),
            ..ServiceReport::default()
        };
        assert_eq!(r.mean_sim_frame(), Duration::from_nanos(3));
    }
}
