//! CUDA-style kernel execution: a 2-D grid of 2-D blocks, real per-thread
//! computation on host threads, and SIMT warp statistics for the cost model.
//!
//! The paper launches its ray caster as "a 2D grid of 2D blocks; each block
//! is 16×16, and the grid is made to match the size of the sub-image onto
//! which the current chunk projects". The executor reproduces those index
//! semantics exactly and additionally tallies per-thread sample counts so
//! the device cost model can charge either flat throughput or
//! divergence-aware (warp-max) time.
//!
//! Two execution models, one SIMT accounting:
//!
//! - **Scalar** ([`Kernel`] + [`launch`]): one virtual call per thread,
//!   returning one `Out` per thread, blocks walked in order on the calling
//!   thread. Simple to write and to read — it is the oracle the batched
//!   path is tested against, and deliberately shares no grid walker with it.
//! - **Batched** ([`BlockKernel`] + [`launch_blocks`]): one call per *block*,
//!   writing keys, values and per-thread sample tallies into caller-provided
//!   structure-of-arrays slices ([`BlockOut`]). This lets a kernel hoist
//!   per-block/per-row invariants out of the pixel loop and is the fast path
//!   for the ray caster. Whatever depends on the launch alone — resolved
//!   samplers, tables classified against the bound textures — is built
//!   *once*, before the first block ([`BlockKernel::prepare`]), and shared
//!   read-only by every block: the software analogue of constant memory.
//!
//! Both paths charge SIMT warp statistics through the same internal
//! accumulator (`WarpAccum`), so the cost model cannot tell them apart.

use std::sync::Mutex;

/// A block runs outside [`launch_blocks`]' locks, so a panicking block
/// poisons none.
const POISON: &str = "launch lock poisoned";

/// Threads per warp (NVIDIA Tesla-era SIMT width).
pub(crate) const WARP_SIZE: usize = 32;

/// A 2-D launch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    pub grid: (u32, u32),
    pub block: (u32, u32),
}

impl LaunchConfig {
    /// The paper's configuration: 16×16 blocks covering (with padding) a
    /// `width × height` sub-image.
    pub fn cover(width: u32, height: u32) -> LaunchConfig {
        LaunchConfig {
            grid: (width.div_ceil(16).max(1), height.div_ceil(16).max(1)),
            block: (16, 16),
        }
    }

    pub fn threads_per_block(&self) -> usize {
        (self.block.0 * self.block.1) as usize
    }

    pub fn blocks(&self) -> usize {
        (self.grid.0 * self.grid.1) as usize
    }

    pub fn total_threads(&self) -> usize {
        self.blocks() * self.threads_per_block()
    }
}

/// Per-thread execution context handed to the kernel body.
#[derive(Debug)]
pub struct ThreadCtx {
    pub block: (u32, u32),
    pub thread: (u32, u32),
    /// Global coordinates: `block * blockDim + thread`.
    pub global: (u32, u32),
    samples: u64,
}

impl ThreadCtx {
    /// Record `n` texture samples / work units for the cost model.
    #[inline]
    pub fn tally(&mut self, n: u64) {
        self.samples += n;
    }

    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// A device kernel. `Out` is the homogeneous per-thread emission — the
/// paper's restriction that "emitted values are homogeneous in size" and
/// "every GPU thread must emit a key-value pair" is encoded right here in
/// the signature: every thread returns exactly one `Out`.
pub trait Kernel: Sync {
    type Out: Send;

    fn thread(&self, ctx: &mut ThreadCtx) -> Self::Out;
}

/// Execution statistics used by the kernel cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaunchStats {
    pub threads: u64,
    pub blocks: u64,
    pub warps: u64,
    /// Total per-thread tallied samples.
    pub total_samples: u64,
    /// SIMT-charged samples: `Σ_warps WARP_SIZE · max(lane samples)` — what a
    /// lockstep machine pays under divergence.
    pub simt_samples: u64,
}

impl LaunchStats {
    /// ≥ 1; how much lockstep execution inflates the sample count.
    pub fn divergence_factor(&self) -> f64 {
        if self.total_samples == 0 {
            return 1.0;
        }
        self.simt_samples as f64 / self.total_samples as f64
    }

    pub fn merge(&mut self, other: &LaunchStats) {
        self.threads += other.threads;
        self.blocks += other.blocks;
        self.warps += other.warps;
        self.total_samples += other.total_samples;
        self.simt_samples += other.simt_samples;
    }
}

/// Incremental SIMT warp accounting, shared by the scalar and batched launch
/// paths so both charge divergence identically: lanes fill 32-wide warps in
/// thread order, each warp costs `WARP_SIZE · max(lane samples)`, and a
/// partial trailing warp still occupies all lanes.
#[derive(Default)]
struct WarpAccum {
    warp_max: u64,
    lane: usize,
    warps: u64,
    simt_samples: u64,
}

impl WarpAccum {
    #[inline]
    fn lane(&mut self, samples: u64) {
        self.warp_max = self.warp_max.max(samples);
        self.lane += 1;
        if self.lane == WARP_SIZE {
            self.warps += 1;
            self.simt_samples += self.warp_max * WARP_SIZE as u64;
            self.warp_max = 0;
            self.lane = 0;
        }
    }

    fn finish(mut self, stats: &mut LaunchStats) {
        if self.lane > 0 {
            self.warps += 1;
            self.simt_samples += self.warp_max * WARP_SIZE as u64;
        }
        stats.warps += self.warps;
        stats.simt_samples += self.simt_samples;
    }
}

/// Result of a launch: outputs in block-major order (block id, then thread
/// row-major within the block) plus statistics.
#[derive(Debug)]
pub struct LaunchOutput<Out> {
    pub outputs: Vec<Out>,
    pub stats: LaunchStats,
}

/// Execute `kernel` over `config`: every block in grid order, every thread
/// row-major within its block, all on the calling thread. This is the
/// reference engine; [`launch_blocks`] is the one that runs blocks in
/// parallel.
pub fn launch<K: Kernel>(kernel: &K, config: LaunchConfig) -> LaunchOutput<K::Out>
where
    K::Out: Default + Clone,
{
    let tpb = config.threads_per_block();
    let mut outputs: Vec<K::Out> = vec![K::Out::default(); config.blocks() * tpb];
    let mut stats = LaunchStats::default();
    for (block_id, out_slice) in outputs.chunks_mut(tpb).enumerate() {
        let bx = (block_id as u32) % config.grid.0;
        let by = (block_id as u32) / config.grid.0;
        let mut acc = WarpAccum::default();
        stats.threads += tpb as u64;
        stats.blocks += 1;
        for ty in 0..config.block.1 {
            for tx in 0..config.block.0 {
                let mut ctx = ThreadCtx {
                    block: (bx, by),
                    thread: (tx, ty),
                    global: (bx * config.block.0 + tx, by * config.block.1 + ty),
                    samples: 0,
                };
                let out = kernel.thread(&mut ctx);
                out_slice[(ty * config.block.0 + tx) as usize] = out;
                stats.total_samples += ctx.samples;
                acc.lane(ctx.samples);
            }
        }
        acc.finish(&mut stats);
    }
    LaunchOutput { outputs, stats }
}

/// Per-block context for a [`BlockKernel`]: which block is running and the
/// block dimensions, from which the kernel derives thread coordinates.
#[derive(Debug, Clone, Copy)]
pub struct BlockCtx {
    /// Block coordinates within the grid.
    pub block: (u32, u32),
    /// Block dimensions (`blockDim`).
    pub dim: (u32, u32),
}

impl BlockCtx {
    /// Global coordinates of thread `(tx, ty)` in this block:
    /// `block * blockDim + thread`.
    #[inline]
    pub fn global(&self, tx: u32, ty: u32) -> (u32, u32) {
        (
            self.block.0 * self.dim.0 + tx,
            self.block.1 * self.dim.1 + ty,
        )
    }

    /// Flat output index of thread `(tx, ty)` (row-major within the block).
    #[inline]
    pub fn index(&self, tx: u32, ty: u32) -> usize {
        (ty * self.dim.0 + tx) as usize
    }
}

/// Caller-provided structure-of-arrays output for one block: one key, one
/// value and one sample tally per thread, row-major within the block. Every
/// slice is exactly `threads_per_block` long and pre-initialized to
/// `Default`/zero, so a kernel only has to write the lanes it has something
/// to say about.
pub struct BlockOut<'a, K, V> {
    pub keys: &'a mut [K],
    pub values: &'a mut [V],
    /// Per-thread work tallies — the batched equivalent of
    /// [`ThreadCtx::tally`]; these feed the same SIMT warp accounting.
    pub samples: &'a mut [u64],
}

/// A batched device kernel: one call per block, writing into
/// structure-of-arrays output slices instead of returning per-thread tuples.
///
/// This is the fast path — a kernel can hoist per-block and per-row
/// invariants out of the inner loop and keep reusable scratch across the
/// block. The homogeneous-emission restriction still holds: every thread
/// owns exactly one `(key, value, samples)` lane in [`BlockOut`].
pub trait BlockKernel: Sync {
    type Key: Send + Copy + Default;
    type Value: Send + Copy + Default;
    /// Per-launch state: whatever every block needs and none changes.
    type Launch: Sync;

    /// Build the per-launch state. [`launch_blocks`] calls this exactly once
    /// per launch, before the first block, and hands every block the result.
    fn prepare(&self) -> Self::Launch;

    fn run_block(
        &self,
        launch: &Self::Launch,
        ctx: &BlockCtx,
        out: BlockOut<'_, Self::Key, Self::Value>,
    );
}

/// Result of [`launch_blocks`]: structure-of-arrays outputs in block-major
/// order (block id, then thread row-major within the block) plus statistics.
/// `keys[i]`, `values[i]` and `samples[i]` describe the same thread.
#[derive(Debug)]
pub struct BlockOutput<K, V> {
    pub keys: Vec<K>,
    pub values: Vec<V>,
    /// Per-thread sample tallies, same order as `keys`/`values`.
    pub samples: Vec<u64>,
    pub stats: LaunchStats,
}

/// Execute a [`BlockKernel`] over `config` on `parallelism` host threads to
/// start with (block-level parallelism, matching how blocks map to SMs): the
/// caller plus `parallelism - 1` cached threads from [`crate::exec`].
///
/// The grid is one queue: each thread claims the next unclaimed block and
/// writes that block's own slices of the output columns, so whichever thread
/// runs a block, the outputs are the same. Inside a job's mapper role the
/// caller also borrows, between blocks and while at least two are still
/// unclaimed, the cores the job's finished mappers lend (see [`crate::exec`]):
/// each borrowed core is a helper claiming from the same queue, handed back
/// when the queue is empty. Outside a job nothing is borrowed.
///
/// Same output order and SIMT accounting as [`launch`]: a block kernel that
/// emits what a scalar kernel emits thread by thread produces the same
/// outputs and the same [`LaunchStats`], whatever `parallelism` is and
/// however many cores were borrowed.
pub fn launch_blocks<B: BlockKernel>(
    kernel: &B,
    config: LaunchConfig,
    parallelism: usize,
) -> BlockOutput<B::Key, B::Value> {
    let tpb = config.threads_per_block();
    let blocks = config.blocks();
    let total = blocks * tpb;
    let mut keys = vec![B::Key::default(); total];
    let mut values = vec![B::Value::default(); total];
    let mut samples = vec![0u64; total];
    let state = kernel.prepare();
    // An empty grid has no block to hand out (`chunks_mut(0)` would panic).
    if blocks == 0 {
        return BlockOutput {
            keys,
            values,
            samples,
            stats: LaunchStats::default(),
        };
    }

    let run_block = |block_id: usize,
                     keys: &mut [B::Key],
                     values: &mut [B::Value],
                     samples: &mut [u64]|
     -> LaunchStats {
        let ctx = BlockCtx {
            block: (
                (block_id as u32) % config.grid.0,
                (block_id as u32) / config.grid.0,
            ),
            dim: config.block,
        };
        kernel.run_block(
            &state,
            &ctx,
            BlockOut {
                keys,
                values,
                samples,
            },
        );
        let mut stats = LaunchStats {
            threads: tpb as u64,
            blocks: 1,
            ..LaunchStats::default()
        };
        let mut acc = WarpAccum::default();
        for &s in samples.iter() {
            stats.total_samples += s;
            acc.lane(s);
        }
        acc.finish(&mut stats);
        stats
    };

    // Every block with its own slices of the columns, in grid order.
    let queue = Mutex::new(
        keys.chunks_mut(tpb)
            .zip(values.chunks_mut(tpb))
            .zip(samples.chunks_mut(tpb))
            .enumerate(),
    );
    let stats = Mutex::new(LaunchStats::default());
    // One thread's part: claim blocks until none is left, telling `claimed`
    // after each claim how many are still unclaimed.
    let work = |claimed: &mut dyn FnMut(usize)| {
        let mut own = LaunchStats::default();
        loop {
            let (block, left) = {
                let mut queue = queue.lock().expect(POISON);
                (queue.next(), queue.len())
            };
            let Some((block_id, ((kb, vb), sb))) = block else {
                break;
            };
            claimed(left);
            own.merge(&run_block(block_id, kb, vb, sb));
        }
        stats.lock().expect(POISON).merge(&own);
    };
    let lender = crate::exec::lender();
    crate::exec::scope(|scope| {
        let work = &work;
        for _ in 1..parallelism.clamp(1, blocks) {
            scope.spawn(|| work(&mut |_| {}));
        }
        // The caller works too; with one thread and no lender nothing is
        // spawned. A helper needs a block besides the caller's next.
        work(&mut |left| {
            if left < 2 {
                return;
            }
            if let Some(lend) = lender.as_deref().and_then(|lender| lender.take()) {
                scope.spawn(move || {
                    let _lend = lend;
                    work(&mut |_| {});
                });
            }
        });
    });

    let stats = stats.into_inner().expect(POISON);
    BlockOutput {
        keys,
        values,
        samples,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Condvar;
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    /// Emits its own global coordinates and tallies `global.0` samples.
    struct ProbeKernel;

    impl Kernel for ProbeKernel {
        type Out = (u32, u32);

        fn thread(&self, ctx: &mut ThreadCtx) -> (u32, u32) {
            ctx.tally(ctx.global.0 as u64);
            ctx.global
        }
    }

    #[test]
    fn cover_pads_to_block_multiples() {
        let c = LaunchConfig::cover(100, 33);
        assert_eq!(c.grid, (7, 3));
        assert_eq!(c.total_threads(), 7 * 3 * 256);
        // Degenerate sub-image still launches one block.
        assert_eq!(LaunchConfig::cover(0, 0).grid, (1, 1));
    }

    #[test]
    fn outputs_are_block_major_and_complete() {
        let c = LaunchConfig {
            grid: (2, 2),
            block: (4, 2),
        };
        let out = launch(&ProbeKernel, c);
        assert_eq!(out.outputs.len(), 32);
        // Block 0 thread (0,0) is global (0,0).
        assert_eq!(out.outputs[0], (0, 0));
        // Block 1 is grid-x=1: its thread (0,0) is global (4,0).
        assert_eq!(out.outputs[8], (4, 0));
        // Block 2 is grid-y=1: its thread (1,1) is global (1,3).
        assert_eq!(out.outputs[16 + 5], (1, 3));
    }

    #[test]
    fn stats_count_threads_and_samples() {
        let c = LaunchConfig {
            grid: (1, 1),
            block: (16, 16),
        };
        let out = launch(&ProbeKernel, c);
        assert_eq!(out.stats.threads, 256);
        assert_eq!(out.stats.blocks, 1);
        assert_eq!(out.stats.warps, 8);
        // Σ global.0 over the block: each row sums 0..15 = 120; 16 rows.
        assert_eq!(out.stats.total_samples, 120 * 16);
    }

    #[test]
    fn divergence_inflates_simt_samples() {
        // One thread per warp does 100 samples, the rest do none.
        struct Spike;
        impl Kernel for Spike {
            type Out = u8;
            fn thread(&self, ctx: &mut ThreadCtx) -> u8 {
                if ctx.global.0.is_multiple_of(32) {
                    ctx.tally(100);
                }
                0
            }
        }
        let c = LaunchConfig {
            grid: (2, 1),
            block: (32, 1),
        };
        let out = launch(&Spike, c);
        assert_eq!(out.stats.total_samples, 200);
        assert_eq!(out.stats.simt_samples, 2 * 100 * 32);
        assert!((out.stats.divergence_factor() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_work_has_no_divergence_penalty() {
        struct Uniform;
        impl Kernel for Uniform {
            type Out = u8;
            fn thread(&self, ctx: &mut ThreadCtx) -> u8 {
                ctx.tally(7);
                0
            }
        }
        let out = launch(
            &Uniform,
            LaunchConfig {
                grid: (4, 4),
                block: (8, 4),
            },
        );
        assert_eq!(out.stats.divergence_factor(), 1.0);
    }

    #[test]
    fn partial_warp_charged_fully() {
        struct One;
        impl Kernel for One {
            type Out = u8;
            fn thread(&self, ctx: &mut ThreadCtx) -> u8 {
                ctx.tally(1);
                0
            }
        }
        // 8-thread block = one partial warp, still charged 32 lanes.
        let out = launch(
            &One,
            LaunchConfig {
                grid: (1, 1),
                block: (8, 1),
            },
        );
        assert_eq!(out.stats.total_samples, 8);
        assert_eq!(out.stats.simt_samples, 32);
    }

    /// Uneven tallies and a value that depends on the block: the same
    /// emissions written per thread and per block agree lane for lane, and
    /// charge the same warps.
    #[test]
    fn scalar_only_kernel_launches_via_compat_adapter() {
        fn emit(global: (u32, u32), block: (u32, u32)) -> (u32, u64, u64) {
            (
                global.1 * 1000 + global.0,
                (block.0 + block.1) as u64,
                (global.0 as u64 * 7 + global.1 as u64) % 13,
            )
        }
        struct PerThread;
        impl Kernel for PerThread {
            type Out = (u32, u64);
            fn thread(&self, ctx: &mut ThreadCtx) -> (u32, u64) {
                let (k, v, samples) = emit(ctx.global, ctx.block);
                ctx.tally(samples);
                (k, v)
            }
        }
        struct PerBlock;
        impl BlockKernel for PerBlock {
            type Key = u32;
            type Value = u64;
            type Launch = ();
            fn prepare(&self) {}
            fn run_block(&self, _: &(), ctx: &BlockCtx, out: BlockOut<'_, u32, u64>) {
                for ty in 0..ctx.dim.1 {
                    for tx in 0..ctx.dim.0 {
                        let i = ctx.index(tx, ty);
                        (out.keys[i], out.values[i], out.samples[i]) =
                            emit(ctx.global(tx, ty), ctx.block);
                    }
                }
            }
        }
        let c = LaunchConfig::cover(40, 17);
        let scalar = launch(&PerThread, c);
        let batched = launch_blocks(&PerBlock, c, 1);
        assert_eq!(batched.keys.len(), scalar.outputs.len());
        for (i, (k, v)) in scalar.outputs.iter().enumerate() {
            assert_eq!(batched.keys[i], *k);
            assert_eq!(batched.values[i], *v);
        }
        assert_eq!(batched.stats, scalar.stats);
    }

    /// Block-wise rewrite of `ProbeKernel`: same emissions, written SoA.
    /// `prepare` hands every block a bias (and lets a test count its calls).
    struct BlockProbe<'a>(&'a AtomicU32);

    impl BlockKernel for BlockProbe<'_> {
        type Key = u32;
        type Value = u32;
        type Launch = u32;
        fn prepare(&self) -> u32 {
            self.0.fetch_add(1, Ordering::Relaxed);
            7
        }
        fn run_block(&self, bias: &u32, ctx: &BlockCtx, out: BlockOut<'_, u32, u32>) {
            for ty in 0..ctx.dim.1 {
                for tx in 0..ctx.dim.0 {
                    let g = ctx.global(tx, ty);
                    let i = ctx.index(tx, ty);
                    out.keys[i] = g.0 + bias - 7;
                    out.values[i] = g.1;
                    out.samples[i] = g.0 as u64;
                }
            }
        }
    }

    #[test]
    fn launch_blocks_serial_and_parallel_agree() {
        let prepared = AtomicU32::new(0);
        let c = LaunchConfig::cover(64, 48);
        let a = launch_blocks(&BlockProbe(&prepared), c, 1);
        let b = launch_blocks(&BlockProbe(&prepared), c, 4);
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.values, b.values);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.stats, b.stats);
        // Borrowed cores change which thread runs a block, nothing else.
        for parallelism in [1, 3] {
            for lends in [0, 1, 2] {
                let got = crate::exec::lent(lends).run_mapper(
                    || launch_blocks(&BlockProbe(&prepared), c, parallelism),
                    || (),
                );
                assert_eq!(got.keys, a.keys, "parallelism {parallelism}, {lends} lends");
                assert_eq!(got.values, a.values);
                assert_eq!(got.samples, a.samples);
                assert_eq!(got.stats, a.stats);
            }
        }
    }

    /// Notes the thread every block runs on, and writes its block id.
    struct Spread {
        caller: ThreadId,
        /// Block 0 waits (at most 10 s) until a block has started on
        /// another thread.
        wait: bool,
        /// Block 1 panics when it runs off the caller.
        fail: bool,
        threads: Mutex<HashSet<ThreadId>>,
        elsewhere: Condvar,
    }

    impl Spread {
        fn new(wait: bool, fail: bool) -> Spread {
            Spread {
                caller: thread::current().id(),
                wait,
                fail,
                threads: Mutex::default(),
                elsewhere: Condvar::new(),
            }
        }

        fn threads(self) -> HashSet<ThreadId> {
            self.threads.into_inner().unwrap()
        }
    }

    impl BlockKernel for Spread {
        type Key = u32;
        type Value = u32;
        type Launch = ();
        fn prepare(&self) {}
        fn run_block(&self, _: &(), ctx: &BlockCtx, out: BlockOut<'_, u32, u32>) {
            let me = thread::current().id();
            let mut threads = self.threads.lock().unwrap();
            threads.insert(me);
            if me != self.caller {
                self.elsewhere.notify_all();
                if self.fail && ctx.block.0 == 1 {
                    drop(threads);
                    panic!("block 1 blew up on a helper");
                }
            }
            if self.wait && ctx.block.0 == 0 {
                let (threads, waited) = self
                    .elsewhere
                    .wait_timeout_while(threads, Duration::from_secs(10), |t| t.len() < 2)
                    .unwrap();
                drop(threads);
                assert!(!waited.timed_out(), "no block ran off the caller in 10 s");
            }
            out.keys.fill(ctx.block.0);
            out.values.fill(ctx.block.0 * 3);
            out.samples.fill(1);
        }
    }

    const EIGHT_BLOCKS: LaunchConfig = LaunchConfig {
        grid: (8, 1),
        block: (4, 4),
    };

    fn serial_spread() -> BlockOutput<u32, u32> {
        launch_blocks(&Spread::new(false, false), EIGHT_BLOCKS, 1)
    }

    #[test]
    fn a_lent_core_runs_blocks_beside_the_caller() {
        // Block 0 cannot finish until a helper has run a block.
        let spread = Spread::new(true, false);
        let got =
            crate::exec::lent(1).run_mapper(|| launch_blocks(&spread, EIGHT_BLOCKS, 1), || ());
        assert_eq!(spread.threads().len(), 2);
        let serial = serial_spread();
        assert_eq!(
            (got.keys, got.values, got.stats),
            (serial.keys, serial.values, serial.stats)
        );
    }

    #[test]
    fn without_a_lend_every_block_runs_on_the_caller() {
        let caller = HashSet::from([thread::current().id()]);
        let spread = Spread::new(false, false);
        crate::exec::lent(0).run_mapper(|| launch_blocks(&spread, EIGHT_BLOCKS, 1), || ());
        assert_eq!(spread.threads(), caller, "no lend");
        // Lends sitting with a lender no mapper role installed: outside a job.
        let _lender = crate::exec::lent(2);
        let spread = Spread::new(false, false);
        launch_blocks(&spread, EIGHT_BLOCKS, 1);
        assert_eq!(spread.threads(), caller, "outside a job");
    }

    #[test]
    fn a_block_panicking_on_a_helper_fails_its_launch_only() {
        let spread = Spread::new(true, true);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::exec::lent(1).run_mapper(|| launch_blocks(&spread, EIGHT_BLOCKS, 1), || ())
        }));
        let panic = caught.expect_err("the helper's block panicked");
        assert_eq!(
            panic.downcast_ref::<&str>(),
            Some(&"block 1 blew up on a helper")
        );
        let spread = Spread::new(true, false);
        let got =
            crate::exec::lent(1).run_mapper(|| launch_blocks(&spread, EIGHT_BLOCKS, 1), || ());
        let serial = serial_spread();
        assert_eq!(
            (got.keys, got.values, got.samples),
            (serial.keys, serial.values, serial.samples)
        );
        assert_eq!(got.stats, serial.stats);
    }

    #[test]
    fn direct_block_kernel_matches_scalar_equivalent() {
        let prepared = AtomicU32::new(0);
        let c = LaunchConfig::cover(100, 33);
        let reference = launch(&ProbeKernel, c);
        for parallelism in [1, 3] {
            let got = launch_blocks(&BlockProbe(&prepared), c, parallelism);
            for (i, (k, v)) in reference.outputs.iter().enumerate() {
                assert_eq!((got.keys[i], got.values[i]), (*k, *v));
            }
            assert_eq!(got.stats, reference.stats);
        }
        // Per-launch state is built once per launch, not per block or worker.
        assert_eq!(prepared.into_inner(), 2);
    }

    #[test]
    fn batched_divergence_accounting_matches_scalar() {
        // Spike pattern written both ways: SIMT charging must be identical
        // (warp max over 32 thread-order lanes, partial trailing warp
        // charged fully).
        struct Spiky;
        impl Kernel for Spiky {
            type Out = (u32, u8);
            fn thread(&self, ctx: &mut ThreadCtx) -> (u32, u8) {
                if ctx.global.0.is_multiple_of(32) {
                    ctx.tally(100);
                }
                (ctx.global.0, 0)
            }
        }
        struct SpikyBlock;
        impl BlockKernel for SpikyBlock {
            type Key = u32;
            type Value = u8;
            type Launch = ();
            fn prepare(&self) {}
            fn run_block(&self, _: &(), ctx: &BlockCtx, out: BlockOut<'_, u32, u8>) {
                for tx in 0..ctx.dim.0 {
                    let g = ctx.global(tx, 0).0;
                    out.keys[tx as usize] = g;
                    if g.is_multiple_of(32) {
                        out.samples[tx as usize] = 100;
                    }
                }
            }
        }
        let c = LaunchConfig {
            grid: (2, 1),
            block: (40, 1), // 40 threads: one full warp + one partial
        };
        let scalar = launch(&Spiky, c);
        let batched = launch_blocks(&SpikyBlock, c, 1);
        assert_eq!(
            batched.keys,
            scalar.outputs.iter().map(|o| o.0).collect::<Vec<_>>()
        );
        assert_eq!(batched.stats, scalar.stats);
        assert_eq!(batched.stats.warps, 4);
    }
}
