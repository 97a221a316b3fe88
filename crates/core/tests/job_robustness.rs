//! `run_job` on reused threads: a panic in any role comes out of `run_job`
//! (promptly, with its own message) and leaves the executor fit for the next
//! job; jobs of different sizes running at once, each with a kernel launch
//! nested in its mappers, equal their serial runs; and a lopsided job, whose
//! idle mapper lends its core to the busy one's launches, equals itself run
//! after run.

use std::collections::HashSet;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

use mgpu_cluster::{ClusterSpec, GpuId};
use mgpu_gpu::{launch_blocks, BlockCtx, BlockKernel, BlockOut, LaunchConfig, LaunchStats};
use mgpu_mapreduce::{
    run_job, Chunk, GpuMapper, JobConfig, JobOutput, MapOutput, Reducer, RoundRobin, SENTINEL_KEY,
};

const KEY_SPACE: u32 = 96;

struct Tile(usize);

impl Chunk for Tile {
    fn id(&self) -> usize {
        self.0
    }
    fn device_bytes(&self) -> u64 {
        64
    }
    fn disk_bytes(&self) -> u64 {
        0
    }
}

/// Every third thread sits out; the others emit a key that depends on the
/// tile and a value that depends on the thread.
struct TileKernel(u32);

impl BlockKernel for TileKernel {
    type Key = u32;
    type Value = u32;
    type Launch = ();

    fn prepare(&self) {}

    fn run_block(&self, _: &(), ctx: &BlockCtx, out: BlockOut<'_, u32, u32>) {
        for ty in 0..ctx.dim.1 {
            for tx in 0..ctx.dim.0 {
                let (x, y) = ctx.global(tx, ty);
                let lane = y * 12 + x;
                let i = ctx.index(tx, ty);
                out.samples[i] = (lane % 5) as u64;
                (out.keys[i], out.values[i]) = if lane % 3 == 0 {
                    (SENTINEL_KEY, 0)
                } else {
                    ((lane * 7 + self.0 * 11) % KEY_SPACE, lane ^ self.0)
                };
            }
        }
    }
}

/// Which role, if any, is to blow up.
#[derive(Clone, Copy, PartialEq)]
enum Fault {
    None,
    Mapper(u32),
    Reducer,
}

/// Launches [`TileKernel`] over six blocks on three host threads, so every
/// `map_chunk` opens an executor scope inside the job's own.
struct TileMapper(Fault);

impl GpuMapper<Tile> for TileMapper {
    type Value = u32;

    fn map_chunk(&self, gpu: GpuId, chunk: &Tile) -> MapOutput<u32> {
        if self.0 == Fault::Mapper(gpu.0) {
            panic!("mapper {} blew up", gpu.0);
        }
        let config = LaunchConfig {
            grid: (3, 2),
            block: (4, 4),
        };
        let out = launch_blocks(&TileKernel(chunk.0 as u32), config, 3);
        MapOutput {
            keys: out.keys,
            values: out.values,
            stats: out.stats,
        }
    }
}

/// Order-sensitive fold: equal outputs mean equal `(mapper, seq)` order.
struct FoldReducer(Fault);

impl Reducer for FoldReducer {
    type Value = u32;
    type Out = u64;

    fn reduce(&self, key: u32, values: &mut Vec<u32>) -> u64 {
        if self.0 == Fault::Reducer && key == 1 {
            panic!("reducer blew up");
        }
        values
            .iter()
            .fold(key as u64, |acc, &v| acc * 31 + v as u64)
    }
}

fn job(gpus: u32, fault: Fault) -> JobOutput<u64> {
    let tiles: Vec<Tile> = (0..9).map(Tile).collect();
    let mut config = JobConfig::new(gpus, KEY_SPACE);
    config.batch_bytes = 256; // several batches per mapper and reducer
    run_job(
        &tiles,
        &TileMapper(fault),
        &FoldReducer(fault),
        &RoundRobin,
        None,
        &ClusterSpec::accelerator_cluster(gpus),
        &config,
    )
}

fn assert_same(a: &JobOutput<u64>, b: &JobOutput<u64>) {
    assert_eq!(a.keys, b.keys);
    assert_eq!(a.outs, b.outs);
    assert_eq!(a.record, b.record);
    assert_eq!(a.stats, b.stats);
}

/// The panic message `job(3, fault)` dies with; fails if it returns, or if
/// it is still running (a role left blocked) after 30 s.
fn panic_of(fault: Fault) -> String {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| job(3, fault)));
        let _ = tx.send(outcome.map(|_| ()));
    });
    let panic = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("run_job hung after a role panicked")
        .expect_err("run_job returned although a role panicked");
    match panic.downcast::<String>() {
        Ok(message) => *message,
        Err(other) => other
            .downcast_ref::<&str>()
            .expect("a message payload")
            .to_string(),
    }
}

#[test]
fn a_panic_in_any_role_leaves_run_job_and_the_next_job_is_whole() {
    let whole = job(3, Fault::None);
    assert!(whole.stats.batches > 6, "the job must stream");
    for (fault, message) in [
        (Fault::Mapper(0), "mapper 0 blew up"), // the caller's own role
        (Fault::Mapper(2), "mapper 2 blew up"), // a role on a cached thread
        (Fault::Reducer, "reducer blew up"),
    ] {
        assert_eq!(panic_of(fault), message);
        assert_same(&job(3, Fault::None), &whole);
    }
}

#[test]
fn concurrent_jobs_with_nested_launches_equal_their_serial_runs() {
    let sizes = [1u32, 3, 8];
    let serial: Arc<Vec<JobOutput<u64>>> =
        Arc::new(sizes.iter().map(|&g| job(g, Fault::None)).collect());
    let start = Arc::new(Barrier::new(8));
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let (serial, start) = (Arc::clone(&serial), Arc::clone(&start));
            thread::spawn(move || {
                start.wait();
                for round in 0..6 {
                    let which = (t + round) % sizes.len();
                    assert_same(&job(sizes[which], Fault::None), &serial[which]);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("a concurrent job diverged");
    }
}

/// [`TileKernel`] with some spin work per block, noting the thread every
/// block runs on.
struct Noted<'a> {
    tile: TileKernel,
    threads: &'a Mutex<HashSet<ThreadId>>,
}

impl BlockKernel for Noted<'_> {
    type Key = u32;
    type Value = u32;
    type Launch = ();

    fn prepare(&self) {}

    fn run_block(&self, _: &(), ctx: &BlockCtx, out: BlockOut<'_, u32, u32>) {
        self.threads.lock().unwrap().insert(thread::current().id());
        let mut spin = 0u64;
        for i in 0..20_000u64 {
            spin = black_box(spin.wrapping_mul(31).wrapping_add(i));
        }
        self.tile.run_block(&(), ctx, out);
    }
}

/// Mapper 0's chunks each launch 40 blocks on one host thread; mapper 1's
/// launch none, so mapper 1 is done at once and lends its core.
struct Lopsided {
    threads: Mutex<HashSet<ThreadId>>,
}

impl GpuMapper<Tile> for Lopsided {
    type Value = u32;

    fn map_chunk(&self, gpu: GpuId, chunk: &Tile) -> MapOutput<u32> {
        if gpu.0 == 1 {
            return MapOutput::from_pairs(Vec::new(), LaunchStats::default());
        }
        let kernel = Noted {
            tile: TileKernel(chunk.0 as u32),
            threads: &self.threads,
        };
        let config = LaunchConfig {
            grid: (8, 5),
            block: (4, 4),
        };
        let out = launch_blocks(&kernel, config, 1);
        MapOutput {
            keys: out.keys,
            values: out.values,
            stats: out.stats,
        }
    }
}

/// [`FoldReducer`]'s order-sensitive fold, wrapping: a lopsided job's keys
/// gather hundreds of values.
struct WrappingFold;

impl Reducer for WrappingFold {
    type Value = u32;
    type Out = u64;

    fn reduce(&self, key: u32, values: &mut Vec<u32>) -> u64 {
        values.iter().fold(key as u64, |acc, &v| {
            acc.wrapping_mul(31).wrapping_add(v as u64)
        })
    }
}

#[test]
fn a_lopsided_job_borrows_the_idle_core_and_equals_itself() {
    let tiles: Vec<Tile> = (0..9).map(Tile).collect();
    let mut config = JobConfig::new(2, KEY_SPACE);
    config.batch_bytes = 256;
    let mapper = Lopsided {
        threads: Mutex::default(),
    };
    let run = || {
        run_job(
            &tiles,
            &mapper,
            &WrappingFold,
            &RoundRobin,
            None,
            &ClusterSpec::accelerator_cluster(2),
            &config,
        )
    };
    let first = run();
    assert!(first.stats.kept > 0);
    for _ in 1..20 {
        assert_same(&run(), &first);
    }
    let threads = mapper.threads.into_inner().unwrap();
    assert!(
        threads.len() >= 2,
        "mapper 0's blocks ran on {} thread(s) over 20 jobs",
        threads.len()
    );
}
