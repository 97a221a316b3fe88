//! Stats over the wire: the `STATS` request's payload (v3) is the node's
//! directory epoch, its uptime, one [`mgpu_obs::Snapshot`] per shard and
//! the node's own snapshot — nothing else. The merged [`ServiceReport`],
//! one [`ServiceReport`] per shard and the imbalance arithmetic a
//! rebalancer (or an operator reading a dashboard) starts from are views
//! the client computes over those snapshots.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::time::Duration;

use mgpu_obs::{names, Snapshot, HIST_BUCKETS};
use mgpu_serve::ServiceReport;

use crate::wire::{wire_struct, Reader, Wire, WireError, Writer};

wire_struct! {
    /// What `Stats` returns (`Reply::StatsReport`, STATS v3), in wire order.
    /// Snapshots merge exactly ([`Snapshot::merge`]), so shard, node and
    /// pool totals are all the same fold.
    #[derive(Debug, Clone, PartialEq)]
    pub struct NetStats {
        /// The directory epoch this node last heard about (wire v4). Every
        /// placement change — a node joining or leaving the pool, a
        /// plan-key migration, a drain — bumps the pool's epoch, and the
        /// pool announces it with `DRAIN`/`RESUME`/`PREWARM`. A client whose
        /// directory epoch lags the value echoed here is routing on a stale
        /// placement.
        pub epoch: u64,
        /// Real elapsed time since the node's render service started.
        pub uptime: Duration,
        /// Each shard's own `serve.*` snapshot, indexed by shard: per-service,
        /// so they sum to exactly this node's service totals.
        pub shard_snapshots: Vec<Snapshot>,
        /// The node's snapshot: the server's `net.*` metrics plus the
        /// *process-wide* `serve.*`/`volren.*` registry. Process-wide means two
        /// servers in one process each report both servers' `serve.*` here —
        /// only the per-shard snapshots are per-server.
        pub obs: Snapshot,
    }
}

impl NetStats {
    /// All shard snapshots folded together: this node's `serve.*` totals.
    pub fn service_snapshot(&self) -> Snapshot {
        let mut merged = Snapshot::new();
        for snap in &self.shard_snapshots {
            merged.merge(snap);
        }
        merged
    }

    /// The node-wide service report: the view over the merged shard
    /// snapshots.
    pub fn merged(&self) -> ServiceReport {
        ServiceReport::from_snapshot(&self.service_snapshot(), self.uptime)
    }

    /// Per-shard reports, indexed by shard. Derived from the same snapshots
    /// as [`NetStats::merged`], so shard counters sum to the merged counters
    /// even when the reply was taken under live traffic.
    pub fn shards(&self) -> Vec<ServiceReport> {
        (self.shard_snapshots.iter())
            .map(|snap| ServiceReport::from_snapshot(snap, self.uptime))
            .collect()
    }

    /// Max-over-mean completed frames across shards: 1.0 is a perfectly
    /// even spread; large values say rendezvous routing is fighting a
    /// skewed key distribution and a rebalancer would help.
    pub fn imbalance(&self) -> f64 {
        let frames: Vec<u64> = self.shards().iter().map(|h| h.frames_completed).collect();
        let total = frames.iter().fold(0u64, |sum, &n| sum.saturating_add(n));
        if total == 0 {
            return 1.0;
        }
        let max = frames.iter().copied().max().unwrap_or(0);
        let mean = total as f64 / frames.len() as f64;
        max as f64 / mean
    }
}

impl std::fmt::Display for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "epoch {}", self.epoch)?;
        writeln!(f, "{}", self.merged())?;
        writeln!(
            f,
            "{:>5} {:>7} {:>9} {:>9} {:>11} {:>11} {:>9}",
            "shard", "queued", "frames", "frames/s", "cache", "plans", "p90 wait"
        )?;
        for (shard, snap) in self.shard_snapshots.iter().enumerate() {
            let h = ServiceReport::from_snapshot(snap, self.uptime);
            let depth = |name| snap.gauge(name).unwrap_or(0);
            let queued = depth(names::SERVE_QUEUE_DEPTH_BATCH)
                .saturating_add(depth(names::SERVE_QUEUE_DEPTH_NORMAL))
                .saturating_add(depth(names::SERVE_QUEUE_DEPTH_INTERACTIVE));
            writeln!(
                f,
                "{:>5} {:>7} {:>9} {:>9.2} {:>6}/{:<4} {:>6}/{:<4} {:>7.2}ms",
                shard,
                queued,
                h.frames_completed,
                h.frames_per_sec(),
                h.frame_cache.entries,
                h.frame_cache.capacity,
                h.plan_cache.entries,
                h.plan_cache.capacity,
                h.queue_wait_p90().as_secs_f64() * 1e3,
            )?;
        }
        write!(f, "imbalance (max/mean frames): {:.2}", self.imbalance())
    }
}

/// Three name-keyed sections — counters, gauges (`i64` by bit pattern),
/// histograms — each in the snapshot's sorted name order, so equal
/// snapshots encode to equal bytes. Decode holds the sender to that order:
/// names must strictly ascend, which refuses both a shuffled section and a
/// name given twice, and means every `add_*` below inserts and none sums.
impl Wire for Snapshot {
    const MIN_BYTES: usize = 3 * 4;
    fn put(&self, w: &mut Writer) {
        w.seq(self.counters());
        w.seq(self.gauges());
        w.seq(self.histograms());
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        let counters: Vec<(String, u64)> = r.seq()?;
        let gauges: Vec<(String, i64)> = r.seq()?;
        let histograms: Vec<(String, [u64; HIST_BUCKETS])> = r.seq()?;
        strictly_ascending("counter", &counters)?;
        strictly_ascending("gauge", &gauges)?;
        strictly_ascending("histogram", &histograms)?;
        let mut snap = Snapshot::new();
        for (name, value) in counters {
            snap.add_counter(&name, value);
        }
        for (name, value) in gauges {
            snap.add_gauge(&name, value);
        }
        for (name, buckets) in histograms {
            snap.add_histogram(&name, &buckets);
        }
        Ok(snap)
    }
}

fn strictly_ascending<T>(section: &str, entries: &[(String, T)]) -> Result<(), WireError> {
    match entries
        .iter()
        .zip(entries.iter().skip(1))
        .find(|(a, b)| a.0 >= b.0)
    {
        None => Ok(()),
        Some((a, b)) => Err(WireError::Malformed(format!(
            "{section} {:?} follows {:?}: names must strictly ascend",
            b.0, a.0
        ))),
    }
}

#[cfg(test)]
#[allow(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
mod tests {
    use super::*;
    use crate::wire::tests::{pin, read_frame, wire_contract};
    use crate::wire::{decode, Request, DEFAULT_MAX_PAYLOAD, VERSION};
    use mgpu_obs::{names, Histogram};
    use mgpu_serve::CacheSnapshot;

    /// One shard's recorded `serve.*` snapshot: `rendered` frames plus
    /// `hits` cache replays, every popped job having waited `wait_ns`.
    fn shard_snapshot(rendered: u64, hits: u64, popped: u64, wait_ns: u64) -> Snapshot {
        let mut snap = Snapshot::new();
        snap.add_counter(names::SERVE_FRAMES_SUBMITTED, rendered + hits);
        snap.add_counter(names::SERVE_FRAMES_COMPLETED, rendered + hits);
        snap.add_counter(names::SERVE_FRAMES_RENDERED, rendered);
        snap.add_counter(names::SERVE_BATCHED_FRAMES, rendered);
        snap.add_counter(names::SERVE_BATCHES, rendered / 2);
        snap.add_counter(names::SERVE_FRAME_CACHE_HITS, hits);
        snap.add_counter(names::SERVE_FRAME_CACHE_MISSES, rendered);
        snap.add_counter(names::SERVE_PLAN_CACHE_HITS, rendered / 2 - 1);
        snap.add_counter(names::SERVE_PLAN_CACHE_MISSES, 1);
        snap.add_counter(names::SERVE_BRICK_STAGINGS, 8);
        snap.add_counter(names::SERVE_BRICK_REUSES, 8 * (rendered - 1));
        snap.add_counter(names::SERVE_SIM_FRAME_TOTAL_NS, rendered * 2_500_000);
        snap.add_counter(names::SERVE_QUEUE_WAIT_TOTAL_NS, popped * wait_ns);
        let waits = Histogram::new();
        for _ in 0..popped {
            waits.record(wait_ns);
        }
        snap.add_histogram(names::SERVE_QUEUE_WAIT_NS, &waits.load());
        snap.add_gauge(names::SERVE_FRAME_CACHE_ENTRIES, rendered as i64);
        snap.add_gauge(names::SERVE_FRAME_CACHE_CAPACITY, 64);
        snap.add_gauge(names::SERVE_PLAN_CACHE_ENTRIES, 1);
        snap.add_gauge(names::SERVE_PLAN_CACHE_CAPACITY, 8);
        snap.add_gauge(names::SERVE_QUEUE_DEPTH_BATCH, 1);
        snap.add_gauge(names::SERVE_QUEUE_DEPTH_NORMAL, 2);
        snap
    }

    fn sample_stats() -> NetStats {
        let mut obs = Snapshot::new();
        obs.add_counter(names::NET_FRAMES_IN, 24);
        obs.add_counter(names::SERVE_FRAMES_RENDERED, 20);
        obs.add_gauge(names::NET_CONNECTIONS, -1); // negative survives the cast
        let mut buckets = [0u64; HIST_BUCKETS];
        buckets[12] = 20;
        buckets[HIST_BUCKETS - 1] = 1;
        obs.add_histogram(names::SERVE_QUEUE_WAIT_NS, &buckets);
        NetStats {
            epoch: 7,
            uptime: Duration::from_secs(2),
            shard_snapshots: vec![
                shard_snapshot(14, 4, 16, 2_000_000),
                shard_snapshot(6, 0, 8, 5_000_000),
            ],
            obs,
        }
    }

    /// Golden bytes for a small two-shard reply, then the contract over it
    /// and over the full-size fixture. Stable sorted keys are what make a
    /// decoded reply re-encode byte-equal, so replies compare bit-for-bit.
    #[test]
    fn stats_roundtrip_bit_exact_and_reencode_byte_equal() {
        let mut shard0 = Snapshot::new();
        shard0.add_counter("serve.frames_completed", 18);
        shard0.add_counter("serve.frames_rendered", 14);
        shard0.add_gauge("serve.queue_depth.normal", 2);
        let mut shard1 = Snapshot::new();
        shard1.add_counter("serve.frames_completed", 6);
        let mut buckets = [0u64; HIST_BUCKETS];
        buckets[20] = 16;
        buckets[HIST_BUCKETS - 1] = 1;
        shard1.add_histogram("serve.queue_wait_ns", &buckets);
        let mut obs = Snapshot::new();
        obs.add_counter("net.frames_in", 24);
        obs.add_gauge("net.connections", -1); // negative survives the cast
        let stats = NetStats {
            epoch: 7,
            uptime: Duration::from_millis(2500),
            shard_snapshots: vec![shard0, shard1],
            obs,
        };
        pin("stats", stats);
        wire_contract(&sample_stats());
    }

    /// Regression: a reply naming one counter twice used to be summed into
    /// the snapshot with `+=` — an overflow panic in debug builds, a silent
    /// wrap in release. Names must strictly ascend, so it is refused.
    #[test]
    fn a_counter_named_twice_is_malformed_not_summed() {
        let mut twice = Writer::new();
        (7u64, Duration::ZERO).put(&mut twice); // epoch, uptime
        twice.seq::<Snapshot>(&[]); // no shards; then the node snapshot:
        let max = ("serve.frames_completed".to_string(), u64::MAX);
        twice.seq(&[max.clone(), max]);
        twice.seq::<(String, i64)>(&[]);
        twice.seq::<(String, [u64; HIST_BUCKETS])>(&[]);
        let summed = decode::<NetStats>(&twice.into_bytes());
        assert!(
            matches!(&summed, Err(WireError::Malformed(why)) if why.contains("ascend")),
            "{summed:?}"
        );
        // Out of order is refused the same way.
        let mut shuffled = Writer::new();
        shuffled.seq(&[("b".to_string(), 1u64), ("a".to_string(), 2)]);
        shuffled.seq::<(String, i64)>(&[]);
        shuffled.seq::<(String, [u64; HIST_BUCKETS])>(&[]);
        let unsorted = decode::<Snapshot>(&shuffled.into_bytes());
        assert!(
            matches!(unsorted, Err(WireError::Malformed(_))),
            "{unsorted:?}"
        );
    }

    /// The recorded two-shard fixture, against the totals the old
    /// field-by-field `ServiceReport` merge produced for it: counters and
    /// cache occupancy add, the queue-wait mean re-weights by popped jobs,
    /// wall time is the (shared) uptime.
    #[test]
    fn views_over_merged_snapshots_match_the_recorded_merge() {
        let stats = sample_stats();
        let mut queue_wait_hist = [0u64; HIST_BUCKETS];
        queue_wait_hist[20] = 16; // 2 ms ∈ [2^20, 2^21) ns
        queue_wait_hist[22] = 8; // 5 ms ∈ [2^22, 2^23) ns
        let expected = ServiceReport {
            frames_submitted: 24,
            frames_completed: 24,
            frames_rendered: 20,
            frames_failed: 0,
            cache_hits: 4,
            admission_rejected: 0,
            jobs_popped: 24,
            brick_stagings: 16,
            brick_reuses: 144,
            plan_cache: CacheSnapshot {
                entries: 2,
                capacity: 16,
                hits: 8,
                misses: 2,
                evictions: 0,
            },
            frame_cache: CacheSnapshot {
                entries: 20,
                capacity: 128,
                hits: 4,
                misses: 20,
                evictions: 0,
            },
            // (16 · 2 ms + 8 · 5 ms) / 24 = 3 ms
            mean_queue_wait: Duration::from_millis(3),
            queue_wait_hist,
            wall_elapsed: Duration::from_secs(2),
            sim_frame_total: Duration::from_millis(50),
        };
        assert_eq!(stats.merged(), expected);

        let shards = stats.shards();
        assert_eq!(shards.len(), 2);
        // The table's row for shard 0 reads its queue-depth gauges: 1 + 2.
        let table = format!("{stats}");
        let row = table.lines().find(|l| l.trim_start().starts_with("0 "));
        let row: Vec<&str> = row.expect("shard 0's row").split_whitespace().collect();
        assert_eq!(row[..2], ["0", "3"]);
        assert_eq!(shards[0].frames_completed, 18);
        assert_eq!(shards[0].frames_per_sec(), 9.0);
        assert_eq!(shards[0].mean_queue_wait, Duration::from_millis(2));
        assert_eq!(shards[1].frame_cache.entries, 6);
        let per_shard: u64 = shards.iter().map(|h| h.frames_completed).sum();
        assert_eq!(per_shard, expected.frames_completed);
    }

    #[test]
    fn imbalance_and_hottest() {
        let stats = sample_stats();
        let hottest = |stats: &NetStats| {
            (stats.shards().iter().enumerate())
                .max_by_key(|(_, h)| h.frames_completed)
                .map(|(shard, _)| shard)
        };
        assert_eq!(hottest(&stats), Some(0));
        // max 18, mean 12 → 1.5
        assert!((stats.imbalance() - 1.5).abs() < 1e-12);
        let empty = NetStats {
            epoch: 0,
            uptime: Duration::ZERO,
            shard_snapshots: vec![],
            obs: Snapshot::new(),
        };
        assert_eq!(empty.imbalance(), 1.0);
        assert!(hottest(&empty).is_none());
        assert_eq!(empty.merged(), ServiceReport::default());
        // The display table renders without panicking.
        assert!(format!("{stats}").contains("imbalance"));
    }

    /// STATS v3 changed the `StatsReport` payload incompatibly, so the
    /// wire version moved to 5: a v4 peer's frame is refused by version,
    /// never mis-decoded.
    #[test]
    fn a_v4_frame_is_refused_with_a_typed_version_error() {
        assert_eq!(VERSION, 5);
        let mut frame = Request::Stats.framed(9);
        frame[4..6].copy_from_slice(&4u16.to_le_bytes());
        assert!(matches!(
            read_frame(&mut frame.as_slice(), DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnsupportedVersion { got: 4, want: 5 })
        ));
    }

    /// A STATS reply is outside input: shard snapshots whose counters and
    /// queue-wait buckets sum past `u64::MAX` decode fine, and every view
    /// the client folds from them saturates instead of panicking.
    #[test]
    fn a_stats_reply_past_u64_max_folds_saturated() {
        let shard = |frames: u64, waits: u64| {
            let mut snap = Snapshot::new();
            snap.add_counter(names::SERVE_FRAMES_COMPLETED, frames);
            snap.add_counter(names::SERVE_PLAN_CACHE_HITS, frames);
            snap.add_counter(names::SERVE_PLAN_CACHE_MISSES, 1);
            let mut buckets = [0; HIST_BUCKETS];
            buckets[20] = waits;
            buckets[21] = 1;
            snap.add_histogram(names::SERVE_QUEUE_WAIT_NS, &buckets);
            snap.add_gauge(names::SERVE_QUEUE_DEPTH_BATCH, i64::MAX);
            snap.add_gauge(names::SERVE_QUEUE_DEPTH_NORMAL, 1);
            snap
        };
        let stats = NetStats {
            epoch: 1,
            uptime: Duration::from_secs(1),
            shard_snapshots: vec![shard(u64::MAX, u64::MAX), shard(1, 1)],
            obs: Snapshot::new(),
        };
        let stats: NetStats = decode(&crate::wire::encode(&stats)).unwrap();
        let merged = stats.merged();
        assert_eq!(merged.frames_completed, u64::MAX);
        assert_eq!(merged.jobs_popped, u64::MAX);
        assert_eq!(merged.queue_wait_p90(), Duration::from_nanos(1 << 21));
        assert_eq!(stats.shards()[0].jobs_popped, u64::MAX);
        assert!(stats.imbalance() > 1.0);
        assert!(format!("{stats}").contains("imbalance"));
    }

    /// STATS is bit-exact on the wire: a pool-merged registry snapshot of
    /// two live nodes re-encodes to the same bytes after a decode round
    /// trip (sorted keys make the encoding canonical), and the decode
    /// reproduces the snapshot.
    #[test]
    fn pool_merged_snapshot_roundtrips_bit_exactly() {
        use crate::client::tests::connect;
        use crate::pool::{Directory, NodePool, NodePoolConfig};
        use crate::server::{RenderServer, ServerConfig};
        use mgpu_serve::{Priority, RenderBackend, SceneRequest, ServiceConfig};
        use mgpu_voldata::Dataset;
        use mgpu_volren::camera::Scene;
        use mgpu_volren::{RenderConfig, TransferFunction};

        let server = || {
            RenderServer::start(ServerConfig {
                shards: 2,
                service: ServiceConfig {
                    workers: 2,
                    ..ServiceConfig::default()
                },
                ..ServerConfig::default()
            })
            .expect("bind loopback server")
        };
        let request = |azimuth: f32| {
            let volume = Dataset::Skull.volume(8);
            SceneRequest {
                spec: mgpu_cluster::ClusterSpec::accelerator_cluster(1),
                scene: Scene::orbit(&volume, azimuth, 10.0, TransferFunction::bone()),
                volume,
                config: RenderConfig::test_size(8),
                priority: Priority::Normal,
            }
        };
        let (a, b) = (server(), server());
        let pool = NodePool::new(
            Directory::new(vec![a.addr(), b.addr()]).expect("two-node directory"),
            NodePoolConfig::default(),
        );
        // Touch both nodes so the merged snapshot carries real counters and
        // histograms from each.
        for view in 0..4 {
            RenderBackend::render(&pool, request(100.0 + view as f32 * 23.0)).expect("pool render");
        }
        for addr in [a.addr(), b.addr()] {
            connect(addr).stats().expect("node stats");
        }

        let merged = pool.obs_snapshot().expect("pool-wide snapshot");
        assert!(!merged.is_empty(), "rendering must populate the registry");
        assert!(
            merged.counter(names::SERVE_FRAMES_COMPLETED).unwrap_or(0) >= 4,
            "merged snapshot sums both nodes' counters"
        );
        assert!(
            merged.histogram(names::SERVE_QUEUE_WAIT_NS).is_some(),
            "stage histograms cross the wire"
        );

        // The merged snapshot survives the STATS payload's snapshot codec.
        let bytes = crate::wire::encode(&merged);
        let decoded: Snapshot = decode(&bytes).expect("canonical bytes decode");
        assert_eq!(decoded, merged, "decode reproduces the snapshot");
        assert_eq!(
            crate::wire::encode(&decoded),
            bytes,
            "re-encoding is bit-exact (canonical sorted-key form)"
        );

        a.shutdown();
        b.shutdown();
    }
}
