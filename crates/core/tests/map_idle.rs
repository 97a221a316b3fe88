//! `core.map_idle_total_ns` counts only the map phase: a reduce that spins
//! for 20 ms after an instant map adds well under 20 ms to it. Alone in its
//! file — and so in its process — because the counter is global.

use std::time::{Duration, Instant};

use mgpu_cluster::{ClusterSpec, GpuId};
use mgpu_gpu::LaunchStats;
use mgpu_mapreduce::{run_job, Chunk, GpuMapper, JobConfig, MapOutput, Reducer, RoundRobin};
use mgpu_obs::names;

struct Unit(usize);

impl Chunk for Unit {
    fn id(&self) -> usize {
        self.0
    }
    fn device_bytes(&self) -> u64 {
        0
    }
    fn disk_bytes(&self) -> u64 {
        0
    }
}

/// Emits its chunk id at once.
struct AtOnce;

impl GpuMapper<Unit> for AtOnce {
    type Value = u32;

    fn map_chunk(&self, _gpu: GpuId, chunk: &Unit) -> MapOutput<u32> {
        MapOutput::from_pairs(vec![(chunk.0 as u32, 1)], LaunchStats::default())
    }
}

const SPIN: Duration = Duration::from_millis(20);

/// Busy for [`SPIN`] on every key it reduces.
struct Spin;

impl Reducer for Spin {
    type Value = u32;
    type Out = u32;

    fn reduce(&self, _key: u32, values: &mut Vec<u32>) -> u32 {
        let start = Instant::now();
        while start.elapsed() < SPIN {
            std::hint::spin_loop();
        }
        values.len() as u32
    }
}

#[test]
fn a_slow_reduce_adds_no_map_idle_time() {
    let idle = || {
        mgpu_obs::global()
            .snapshot()
            .counter(names::CORE_MAP_IDLE_TOTAL_NS)
            .unwrap_or(0)
    };
    // One key, so one reduce task spins while the other mapper's lend, if
    // the map phase were still open, would sit idle beside it.
    let units = [Unit(0)];
    let jobs = 5u32;
    let before = idle();
    for _ in 0..jobs {
        let out = run_job(
            &units,
            &AtOnce,
            &Spin,
            &RoundRobin,
            None,
            &ClusterSpec::accelerator_cluster(2),
            &JobConfig::new(2, 2),
        );
        assert_eq!(out.outs, [1]);
    }
    let added = Duration::from_nanos(idle() - before);
    assert!(
        added < SPIN * jobs / 2,
        "{jobs} jobs, each reducing for {SPIN:?}, added {added:?} of map idle time"
    );
}
