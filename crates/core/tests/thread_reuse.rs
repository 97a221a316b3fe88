//! A second `run_job` starts no thread: every role of frame 2 runs on a
//! thread that ran a role of frame 1; and lopsided frames, in which an idle
//! mapper lends its core to the busy one's launch, use at most one thread
//! more than their roles. Alone in their file — and so in their process —
//! and one at a time, so that no other test can borrow or add workers.

use std::collections::HashSet;
use std::sync::{Barrier, Mutex};
use std::thread::{self, ThreadId};

use mgpu_cluster::{ClusterSpec, GpuId};
use mgpu_gpu::{launch_blocks, BlockCtx, BlockKernel, BlockOut, LaunchConfig, LaunchStats};
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

/// The tests here count threads, so they take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

#[test]
fn the_second_frame_spawns_nothing() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
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

/// One key per thread (two reducers' worth), noting the thread every block
/// runs on.
struct Blocks<'a>(&'a Roles);

impl BlockKernel for Blocks<'_> {
    type Key = u32;
    type Value = u32;
    type Launch = ();

    fn prepare(&self) {}

    fn run_block(&self, _: &(), ctx: &BlockCtx, out: BlockOut<'_, u32, u32>) {
        self.0.note();
        let mut spin = 0u64;
        for i in 0..20_000u64 {
            spin = std::hint::black_box(spin.wrapping_mul(31).wrapping_add(i));
        }
        for (i, key) in out.keys.iter_mut().enumerate() {
            *key = (ctx.block.0 + i as u32) % 2;
        }
    }
}

/// Chunk 0 (mapper 0) launches 40 blocks on one thread, chunk 1 (mapper 1)
/// nothing.
struct Lopsided(Roles);

impl GpuMapper<Unit> for Lopsided {
    type Value = u32;

    fn map_chunk(&self, _gpu: GpuId, chunk: &Unit) -> MapOutput<u32> {
        self.0.note();
        if chunk.0 == 1 {
            return MapOutput::from_pairs(vec![(1, 1)], LaunchStats::default());
        }
        let config = LaunchConfig {
            grid: (40, 1),
            block: (4, 4),
        };
        let out = launch_blocks(&Blocks(&self.0), config, 1);
        MapOutput {
            keys: out.keys,
            values: out.values,
            stats: out.stats,
        }
    }
}

#[test]
fn lending_adds_at_most_one_thread() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let units: Vec<Unit> = (0..2).map(Unit).collect();
    let lopsided = Lopsided(Roles {
        seen: Mutex::default(),
        mappers: Barrier::new(1),
    });
    for _ in 0..10 {
        let out = run_job(
            &units,
            &lopsided,
            &lopsided.0,
            &RoundRobin,
            None,
            &ClusterSpec::accelerator_cluster(2),
            &JobConfig::new(2, 2),
        );
        assert_eq!(out.keys, [0, 1]);
    }
    // Two mappers (one of them this thread) and two reducers, plus at most
    // the one thread a lend by this thread can need.
    let seen = lopsided.0.seen.into_inner().unwrap();
    assert!(
        seen.len() <= 4 + 1,
        "10 lopsided frames ran on {} threads",
        seen.len()
    );
}
