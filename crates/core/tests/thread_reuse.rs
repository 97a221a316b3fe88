//! `run_job` starts no thread once the executor's cache holds what a job of
//! its size has at work at once: its mappers run on the caller and on cached
//! threads, and its reduce on the last mapper's thread and at most R − 1
//! cached helpers; and lopsided frames, in which an idle mapper lends its
//! core to the busy one's launch, use at most one thread more than their
//! roles. Alone in their file — and so in their process — and one at a
//! time, so that no other test can borrow or add workers.

use std::collections::HashSet;
use std::sync::{Barrier, Mutex};
use std::thread::{self, ThreadId};

use mgpu_cluster::{ClusterSpec, GpuId};
use mgpu_gpu::{exec, launch_blocks, BlockCtx, BlockKernel, BlockOut, LaunchConfig, LaunchStats};
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

/// Each role notes which thread it ran on.
struct Roles {
    mappers_seen: Mutex<HashSet<ThreadId>>,
    reducers_seen: Mutex<HashSet<ThreadId>>,
    /// The three mappers meet here in their first chunk. The caller is one of
    /// them and maps only after handing out the other two, so every frame
    /// maps on three threads at once.
    mappers: Barrier,
}

impl Roles {
    fn new(mappers: usize) -> Roles {
        Roles {
            mappers_seen: Mutex::default(),
            reducers_seen: Mutex::default(),
            mappers: Barrier::new(mappers),
        }
    }

    fn note(seen: &Mutex<HashSet<ThreadId>>) {
        seen.lock().unwrap().insert(thread::current().id());
    }

    /// Every thread a role ran on.
    fn all(self) -> HashSet<ThreadId> {
        let mut all = self.mappers_seen.into_inner().unwrap();
        all.extend(self.reducers_seen.into_inner().unwrap());
        all
    }
}

impl GpuMapper<Unit> for Roles {
    type Value = u32;

    fn map_chunk(&self, _gpu: GpuId, chunk: &Unit) -> MapOutput<u32> {
        Roles::note(&self.mappers_seen);
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
        Roles::note(&self.reducers_seen);
        values.len()
    }
}

/// One 3-GPU frame: the threads its mappers ran on, and the threads its
/// reduce ran on that mapped nothing.
fn frame() -> (HashSet<ThreadId>, HashSet<ThreadId>) {
    let units: Vec<Unit> = (0..6).map(Unit).collect();
    let roles = Roles::new(3);
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
    let mappers = roles.mappers_seen.into_inner().unwrap();
    let reducers = roles.reducers_seen.into_inner().unwrap();
    let helpers = reducers.difference(&mappers).copied().collect();
    (mappers, helpers)
}

/// The tests here count threads, so they take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

#[test]
fn the_second_frame_spawns_nothing() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // A 3-GPU job has at most four cached threads at work at once: its two
    // spawned mappers (the last mapper may start the reduce before the other
    // has parked again) and its two reduce helpers. Check out four at once:
    // they are then the four most recently parked, and every later frame
    // runs on the caller and on them, for the cache hands out the most
    // recently parked thread first.
    let cached = Mutex::new(HashSet::new());
    let all_four = Barrier::new(5);
    exec::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                Roles::note(&cached);
                all_four.wait();
            });
        }
        all_four.wait();
    });
    let mut cached = cached.into_inner().unwrap();
    assert_eq!(cached.len(), 4);
    cached.insert(thread::current().id());
    for frame_no in 1..=2 {
        let (mappers, helpers) = frame();
        // Three mapper threads, one of them this one, and at most two
        // helpers besides whichever mapper returned last.
        assert_eq!(mappers.len(), 3, "frame {frame_no}: mappers on {mappers:?}");
        assert!(mappers.contains(&thread::current().id()));
        assert!(
            helpers.len() <= 2,
            "frame {frame_no}: reduce helpers on {helpers:?}"
        );
        let seen: HashSet<ThreadId> = mappers.union(&helpers).copied().collect();
        assert!(
            seen.is_subset(&cached),
            "frame {frame_no} ran on {seen:?}, the cache held {cached:?}"
        );
    }
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
        Roles::note(&self.0.mappers_seen);
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
        Roles::note(&self.0.mappers_seen);
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
    let lopsided = Lopsided(Roles::new(1));
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
    // Two mappers (one of them this thread) and one reduce helper, plus at
    // most the one thread a lend by this thread can need.
    let seen = lopsided.0.all();
    assert!(
        seen.len() <= 3 + 1,
        "10 lopsided frames ran on {} threads",
        seen.len()
    );
}
