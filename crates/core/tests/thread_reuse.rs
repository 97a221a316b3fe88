//! A second `run_job` starts no thread: every role of frame 2 runs on a
//! thread that ran a role of frame 1. Alone in its file — and so in its
//! process — so that no neighbouring test can borrow or add workers.

use std::collections::HashSet;
use std::sync::{Barrier, Mutex};
use std::thread::{self, ThreadId};

use mgpu_cluster::{ClusterSpec, GpuId};
use mgpu_gpu::LaunchStats;
use mgpu_mapreduce::{run_job, Chunk, GpuMapper, JobConfig, MapOutput, Reducer, RoundRobin};

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

/// Both roles note which thread they ran on.
struct Roles {
    seen: Mutex<HashSet<ThreadId>>,
    /// The three mappers meet here in their first chunk. The caller is one of
    /// them and maps only after handing out every other role, so all six
    /// roles hold their threads at once — in both frames alike.
    mappers: Barrier,
}

impl Roles {
    fn note(&self) {
        self.seen.lock().unwrap().insert(thread::current().id());
    }
}

impl GpuMapper<Unit> for Roles {
    type Value = u32;

    fn map_chunk(&self, _gpu: GpuId, chunk: &Unit) -> MapOutput<u32> {
        self.note();
        if chunk.0 < 3 {
            self.mappers.wait(); // round-robin: chunk i is mapper i's first
        }
        // One key for every reducer, so each of them reduces something.
        let pairs = (0..3).map(|key| (key, chunk.0 as u32)).collect();
        MapOutput::from_pairs(pairs, LaunchStats::default())
    }
}

impl Reducer for Roles {
    type Value = u32;
    type Out = usize;

    fn reduce(&self, _key: u32, values: &mut Vec<u32>) -> usize {
        self.note();
        values.len()
    }
}

fn frame() -> HashSet<ThreadId> {
    let units: Vec<Unit> = (0..6).map(Unit).collect();
    let roles = Roles {
        seen: Mutex::default(),
        mappers: Barrier::new(3),
    };
    let out = run_job(
        &units,
        &roles,
        &roles,
        &RoundRobin,
        None,
        &ClusterSpec::accelerator_cluster(3),
        &JobConfig::new(3, 3),
    );
    assert_eq!(out.outs, [6, 6, 6]);
    roles.seen.into_inner().unwrap()
}

#[test]
fn the_second_frame_spawns_nothing() {
    let first = frame();
    // Three mappers (one of them this thread) and three reducers.
    assert_eq!(first.len(), 6, "every role has a thread of its own");
    assert!(first.contains(&thread::current().id()));
    let second = frame();
    assert_eq!(second.len(), 6);
    assert!(
        second.is_subset(&first),
        "frame 2 ran on {second:?}, frame 1 on {first:?}"
    );
}
