//! The out-of-core brick store: materializes bricks on demand and caches
//! them under a host-memory budget with LRU eviction. A brick stores its
//! ghost-padded box clipped to the volume, read straight into place; its
//! texture's clamp supplies the border ghosts (`Texture3D::windowed`).
//! The store holds voxels only, and only voxels count against the budget.
//! What a renderer derives from a brick's voxels — its min/max
//! [`MacroCells`](crate::MacroCells) and the skip grids classified from them
//! — is built and kept by the renderer, per brick, and sits outside the
//! budget: the table is 8 bytes per 4³ cell, ≈ 1/32 of the brick's voxel
//! bytes, and a skip grid one byte per cell.
//!
//! **Rows.** A miss reads only the [`Rows`] its caller asks for: per
//! stored z-slab, one run of y-rows, full x width — the rows a renderer's
//! occupied macrocells can tap ([`MacroCells::rows`](crate::MacroCells::rows)).
//! The other rows of the buffer are left as they are; in debug builds they
//! are filled with `POISON_VOXEL`, so a read of one shows. An entry serves
//! every need its rows contain. One that falls short is a miss: the union
//! of its rows and the need is staged into a fresh buffer and replaces it,
//! and an `Arc` of the old brick keeps its own voxels. [`BrickStore::get`]
//! asks for every row. The budget charges a brick's whole stored box,
//! whatever rows it holds.
//!
//! This is the data side of the paper's out-of-core story: "the library
//! allows for out-of-core algorithms (including rendering)" — bricks stream
//! through host memory; the whole volume never has to be resident.
//!
//! **Poisoned locks.** A lock here propagates a poisoning with `expect`.
//! The exception is a lock taken in a `Drop`, or in what a `Drop` calls:
//! `Reservation`'s, and `Spares::put` and `Spares::clear`, which
//! [`BrickData`] and `Spares` reach when they die. Those can run while a
//! panic unwinds, and a second panic then aborts the process, so they take
//! the guard back with `PoisonError::into_inner`. What they do under it —
//! hand back a reserved count, keep or free a buffer — is right whatever the
//! panicking holder left behind.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::brick::{BrickGrid, BrickInfo};
use crate::volume::Volume;

/// A materialized brick: its ghost-padded box ([`BrickInfo::padded`])
/// clipped to the volume. Trilinear sampling clamped into this window
/// reproduces the global volume exactly, brick boundaries included.
#[derive(Debug)]
pub struct BrickData {
    pub info: BrickInfo,
    /// Ghost layers on each side of the padded box.
    pub ghost: u32,
    /// Origin of the stored array in volume coordinates.
    pub store_origin: [u32; 3],
    /// Dimensions of the stored array.
    pub store_dims: [usize; 3],
    /// Shared so a device texture can reference the same allocation.
    pub voxels: Arc<Vec<f32>>,
    /// The rows of the stored array that were read; the others hold what
    /// the buffer held before (`POISON_VOXEL` in debug builds).
    pub rows: Rows,
    /// Where the voxel allocation goes when the brick dies.
    spares: Arc<Spares>,
}

impl BrickData {
    /// Where the stored array starts inside the ghost-padded box the brick
    /// is sampled over (`info.padded(ghost)`).
    pub fn window(&self) -> [usize; 3] {
        let origin = self.info.padded(self.ghost).0;
        [0, 1, 2].map(|a| (self.store_origin[a] as i64 - origin[a]) as usize)
    }

    /// Host bytes this brick holds: its voxels.
    pub fn bytes(&self) -> u64 {
        (self.voxels.len() * 4) as u64
    }
}

impl Drop for BrickData {
    fn drop(&mut self) {
        // Whoever holds the voxels last — the store evicting, or a mapper
        // done with an evicted brick — hands the allocation back.
        if let Some(voxels) = Arc::get_mut(&mut self.voxels) {
            self.spares.put(std::mem::take(voxels));
        }
    }
}

/// What a debug build's store fills the rows a miss did not read with: far
/// above every dataset's `[0, 1]`, where each preset transfer function
/// clamps to its last point, which is opaque — a sample that taps one shows.
const POISON_VOXEL: f32 = 1.0e4;

/// Which rows of a brick's stored box a miss reads: per stored z-slab, one
/// run of y-rows, each the full x width — in a volume file, one positioned
/// read per slab. A slab whose run is empty is not read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rows {
    /// Rows per slab: the stored box's y extent.
    depth: usize,
    /// Per slab, the run's `[first, end)`; `[0, 0]` when it is empty.
    slabs: Vec<[usize; 2]>,
}

impl Rows {
    /// Every row of a stored box of `dims`.
    pub fn all(dims: [usize; 3]) -> Rows {
        Rows {
            depth: dims[1],
            slabs: vec![[0, dims[1]]; dims[2]],
        }
    }

    /// The run `runs[z]` of each slab `z` of a box `depth` rows deep.
    pub(crate) fn new(depth: usize, runs: impl IntoIterator<Item = Range<usize>>) -> Rows {
        let slabs = runs
            .into_iter()
            .map(|run| {
                assert!(run.end <= depth, "rows {run:?} outside a slab of {depth}");
                if run.is_empty() {
                    [0, 0]
                } else {
                    [run.start, run.end]
                }
            })
            .collect();
        Rows { depth, slabs }
    }

    /// The run of rows read of slab `z`.
    pub fn slab(&self, z: usize) -> Range<usize> {
        let [first, end] = self.slabs[z];
        first..end
    }

    /// Whether every row `other` reads is read here too.
    pub fn contains(&self, other: &Rows) -> bool {
        self.check_shape(other);
        let mut pairs = self.slabs.iter().zip(&other.slabs);
        pairs.all(|(&[a, b], &[c, d])| c == d || (a <= c && d <= b))
    }

    /// The rows of both: per slab, from the first row either reads to the
    /// last.
    pub fn union(&self, other: &Rows) -> Rows {
        self.check_shape(other);
        let runs = self
            .slabs
            .iter()
            .zip(&other.slabs)
            .map(|(&[a, b], &[c, d])| {
                if a == b {
                    c..d
                } else if c == d {
                    a..b
                } else {
                    a.min(c)..b.max(d)
                }
            });
        Rows::new(self.depth, runs)
    }

    /// Whether every row of the box is read.
    pub fn is_all(&self) -> bool {
        self.slabs.iter().all(|&run| run == [0, self.depth])
    }

    /// Rows read, over every slab.
    pub fn count(&self) -> usize {
        self.slabs.iter().map(|[first, end]| end - first).sum()
    }

    fn check_shape(&self, other: &Rows) {
        assert!(
            (self.depth, self.slabs.len()) == (other.depth, other.slabs.len()),
            "rows of boxes of different shapes"
        );
    }
}

const POISON: &str = "brick store lock poisoned";

/// Voxel allocations of dead bricks, kept for the next miss. An out-of-core
/// frame frees and allocates every brick it touches; handed to `malloc`,
/// multi-megabyte buffers alternate between trimmed and re-faulted, at a
/// page fault per 4 KiB. Every buffer is allocated with room for the
/// store's largest brick, so any spare serves any miss however the brick
/// sizes alternate. Holds at most one budget's worth of capacity, and frees
/// every buffer it lets go of with [`release`].
#[derive(Debug)]
struct Spares {
    budget_bytes: u64,
    /// Voxels every buffer has room for.
    capacity: usize,
    buffers: Mutex<Vec<Vec<f32>>>,
}

impl Spares {
    fn put(&self, voxels: Vec<f32>) {
        let mut buffers = self.buffers.lock().unwrap_or_else(PoisonError::into_inner);
        let held: usize = buffers.iter().map(Vec::capacity).sum();
        if ((held + voxels.capacity()) * 4) as u64 <= self.budget_bytes {
            buffers.push(voxels);
        } else {
            drop(buffers);
            release(voxels);
        }
    }

    fn clear(&self) {
        let buffers =
            std::mem::take(&mut *self.buffers.lock().unwrap_or_else(PoisonError::into_inner));
        buffers.into_iter().for_each(release);
    }

    /// A buffer of `len` voxels: a spare with arbitrary contents, or a new
    /// zeroed one.
    fn take(&self, len: usize) -> Vec<f32> {
        let spare = self.buffers.lock().expect(POISON).pop();
        // Allocating happens outside the lock; resizing within the capacity
        // writes at most the tail the last brick did not cover.
        let mut voxels = spare.unwrap_or_else(|| vec![0f32; self.capacity]);
        voxels.resize(len, 0.0);
        voxels
    }
}

impl Drop for Spares {
    fn drop(&mut self) {
        self.clear();
    }
}

/// Free a voxel allocation by shrinking it to one voxel first. glibc maps a
/// brick-sized buffer on its own until the first such mapping is freed, then
/// raises its mmap threshold past it for good: from there on every buffer is
/// carved from the malloc arena of whichever thread ran the miss, and a freed
/// one stays resident there. Which threads had missed — a scheduling accident
/// — then decided the process's resident set, by a brick per arena. A shrink
/// unmaps the pages without counting as such a free (shrinking to zero would
/// be one), so dead buffers go back to the system.
fn release(mut voxels: Vec<f32>) {
    voxels.clear();
    voxels.shrink_to(1);
}

/// Fill every row of `voxels`, a stored array of `dims`, that `rows` does
/// not take with `POISON_VOXEL`.
fn poison_unread(voxels: &mut [f32], dims: [usize; 3], rows: &Rows) {
    for (z, slab) in voxels.chunks_exact_mut(dims[0] * dims[1]).enumerate() {
        let read = rows.slab(z);
        slab[..read.start * dims[0]].fill(POISON_VOXEL);
        slab[read.end * dims[0]..].fill(POISON_VOXEL);
    }
}

/// Cache statistics (monotonic counters).
#[derive(Debug, Default)]
pub(crate) struct StoreStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub evictions: AtomicU64,
    pub bytes_materialized: AtomicU64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreSnapshot {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Voxel bytes the misses read: the rows each asked for, not the
    /// stored box the budget charges.
    pub bytes_materialized: u64,
}

impl StoreSnapshot {
    /// Counter deltas since an `earlier` snapshot of the same store —
    /// attributes staging work to one frame when a store is shared across
    /// frames (the render service's plan cache).
    pub fn since(&self, earlier: &StoreSnapshot) -> StoreSnapshot {
        StoreSnapshot {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            bytes_materialized: self
                .bytes_materialized
                .saturating_sub(earlier.bytes_materialized),
        }
    }
}

/// A resident brick.
struct Entry {
    brick: Arc<BrickData>,
    /// When the brick was last served.
    last: u64,
}

struct CacheInner {
    entries: HashMap<usize, Entry>,
    /// Voxel bytes resident.
    bytes: u64,
    /// Bytes reserved by misses that are still materializing.
    in_flight: u64,
    tick: u64,
}

/// A miss's claim on the budget while it reads. Dropped on its own — the
/// read panicked — it hands the bytes back, so a failed miss does not
/// shrink the budget for good; [`Reservation::settle`] hands them back
/// under the lock the insert then holds.
struct Reservation<'a> {
    inner: &'a Mutex<CacheInner>,
    bytes: u64,
}

impl<'a> Reservation<'a> {
    fn settle(self) -> MutexGuard<'a, CacheInner> {
        let lock = self.inner;
        let mut inner = lock.lock().expect(POISON);
        inner.in_flight -= self.bytes;
        std::mem::forget(self);
        inner
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.in_flight -= self.bytes;
    }
}

/// Thread-safe brick cache over a volume + brick grid.
pub struct BrickStore {
    volume: Volume,
    grid: BrickGrid,
    ghost: u32,
    budget_bytes: u64,
    inner: Mutex<CacheInner>,
    spares: Arc<Spares>,
    stats: StoreStats,
}

impl BrickStore {
    /// `budget_bytes` bounds the resident voxels; eviction takes the least
    /// recently used brick. A single brick larger than the budget is still
    /// materialized (and evicted as soon as another arrives). Voxel buffers
    /// of dead bricks are kept for reuse, up to the same number of bytes of
    /// capacity again. `volume` must not change while the store lives:
    /// resident bricks are never re-validated against it.
    pub fn new(volume: Volume, grid: BrickGrid, ghost: u32, budget_bytes: u64) -> BrickStore {
        assert_eq!(
            volume.dims(),
            grid.vol_dims,
            "grid does not match volume dims"
        );
        let capacity = grid
            .bricks()
            .map(|b| b.stored(ghost, grid.vol_dims).1.iter().product())
            .max()
            .unwrap_or(0);
        BrickStore {
            volume,
            grid,
            ghost,
            budget_bytes,
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                bytes: 0,
                in_flight: 0,
                tick: 0,
            }),
            spares: Arc::new(Spares {
                budget_bytes,
                capacity,
                buffers: Mutex::new(Vec::new()),
            }),
            stats: StoreStats::default(),
        }
    }

    pub fn grid(&self) -> &BrickGrid {
        &self.grid
    }

    pub fn volume(&self) -> &Volume {
        &self.volume
    }

    pub fn ghost(&self) -> u32 {
        self.ghost
    }

    /// Fetch brick `id` with every row read, materializing if absent or
    /// short. The returned `Arc` stays valid even if the entry is evicted
    /// afterwards.
    pub fn get(&self, id: usize) -> Arc<BrickData> {
        self.fetch(id, None).0
    }

    /// Fetch brick `id` holding at least `rows` of its stored box: the
    /// entry if its rows contain them, else a miss that reads them — with
    /// the short entry's rows, which it replaces. Also how long the read
    /// took, when this call read.
    pub fn get_rows(&self, id: usize, rows: &Rows) -> (Arc<BrickData>, Option<Duration>) {
        self.fetch(id, Some(rows))
    }

    /// [`BrickStore::get_rows`], for every row when `need` is `None`.
    fn fetch(&self, id: usize, need: Option<&Rows>) -> (Arc<BrickData>, Option<Duration>) {
        let covered = |rows: &Rows| need.map_or(rows.is_all(), |need| rows.contains(need));
        let mut inner = self.inner.lock().expect(POISON);
        inner.tick += 1;
        let tick = inner.tick;
        let rows = match inner.entries.get_mut(&id) {
            Some(Entry { brick, last }) if covered(&brick.rows) => {
                *last = tick;
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                return (Arc::clone(brick), None);
            }
            Some(Entry { brick, .. }) => need.map(|need| brick.rows.union(need)),
            None => need.cloned(),
        };
        if let Some(short) = inner.entries.remove(&id) {
            inner.bytes -= short.brick.bytes();
        }
        self.stage(id, rows, inner)
    }

    /// The miss path. Reserve, then read: LRU victims go until resident +
    /// in-flight + this brick fits the budget, so the budget also holds
    /// *while* bricks are being read, not only between accesses. It never
    /// waits for room — with nothing left to evict the brick is served anyway.
    /// The budget charges the stored box, whatever `rows` it reads (every
    /// row for `None`).
    fn stage(
        &self,
        id: usize,
        rows: Option<Rows>,
        mut inner: MutexGuard<'_, CacheInner>,
    ) -> (Arc<BrickData>, Option<Duration>) {
        let info = self.grid.brick(id);
        let (store_origin, store_dims) = info.stored(self.ghost, self.grid.vol_dims);
        let rows = rows.unwrap_or_else(|| Rows::all(store_dims));
        let bytes = (store_dims[0] * store_dims[1] * store_dims[2] * 4) as u64;
        self.evict_to_fit(&mut inner, bytes, id);
        inner.in_flight += bytes;
        drop(inner);
        let reservation = Reservation {
            inner: &self.inner,
            bytes,
        };

        // Materialize outside the lock: concurrent misses may duplicate work
        // but never block each other on voxel synthesis.
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let read_start = Instant::now();
        let mut voxels = self.spares.take(store_dims.iter().product());
        self.volume
            .read_rows(store_origin, store_dims, |z| rows.slab(z), &mut voxels);
        let read = read_start.elapsed();
        if cfg!(debug_assertions) {
            poison_unread(&mut voxels, store_dims, &rows);
        }
        self.stats
            .bytes_materialized
            .fetch_add((rows.count() * store_dims[0] * 4) as u64, Ordering::Relaxed);
        let data = Arc::new(BrickData {
            info,
            ghost: self.ghost,
            store_origin,
            store_dims,
            voxels: Arc::new(voxels),
            rows,
            spares: Arc::clone(&self.spares),
        });

        let mut guard = reservation.settle();
        let inner = &mut *guard;
        inner.tick += 1;
        let entry = Entry {
            brick: Arc::clone(&data),
            last: inner.tick,
        };
        inner.bytes += bytes;
        if let Some(twin) = inner.entries.insert(id, entry) {
            inner.bytes -= twin.brick.bytes(); // racing miss: replaced a twin
        }
        // Only misses that could not reserve (more in flight than the budget
        // holds) still have something to trim here.
        self.evict_to_fit(inner, 0, id);
        (data, Some(read))
    }

    /// Evict least-recently-used bricks (never `keep`) until held +
    /// in-flight + `incoming` bytes fit the budget or nothing else is left.
    fn evict_to_fit(&self, inner: &mut CacheInner, incoming: u64, keep: usize) {
        while inner.bytes + inner.in_flight + incoming > self.budget_bytes {
            let Some(k) = inner
                .entries
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, e)| e.last)
                .map(|(k, _)| *k)
            else {
                break;
            };
            let old = inner.entries.remove(&k).expect("victim is held");
            inner.bytes -= old.brick.bytes();
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drop all cached bricks and spare buffers (keeps statistics).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect(POISON);
        inner.entries.clear();
        inner.bytes = 0;
        drop(inner);
        self.spares.clear();
    }

    pub fn cached_bytes(&self) -> u64 {
        self.inner.lock().expect(POISON).bytes
    }

    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            bytes_materialized: self.stats.bytes_materialized.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brick::BrickPolicy;
    use crate::field::{AxisRamp, ScalarField};
    use std::sync::Arc as StdArc;

    fn store(budget: u64) -> BrickStore {
        store_over(StdArc::new(AxisRamp { axis: 0 }), budget)
    }

    /// One staged brick of [`store`]: every brick touches a border on each
    /// axis, so it stores its (8+2)³ padded box clipped to 9³ voxels × 4 B.
    const BRICK_BYTES: u64 = 2916;
    /// Budgets: barely one brick, just under two, and about two and a half.
    const ONE_BRICK: u64 = 3_700;
    const UNDER_TWO: u64 = 5_800;
    const TWO_AND_A_HALF: u64 = 7_400;

    /// 16³ of `field` in eight 8³ bricks with one ghost layer.
    fn store_over(field: StdArc<dyn ScalarField>, budget: u64) -> BrickStore {
        let v = Volume::procedural("ramp", [16, 16, 16], 0, field);
        let grid = BrickGrid::subdivide(
            [16, 16, 16],
            &BrickPolicy {
                min_bricks: 8,
                max_brick_voxels: u64::MAX,
            },
        );
        BrickStore::new(v, grid, 1, budget)
    }

    #[test]
    fn ghost_layers_match_neighbours() {
        let s = store_over(
            StdArc::new(|x: f32, y: f32, z: f32| x + 3.0 * y + 7.0 * z),
            u64::MAX,
        );
        for id in 0..8 {
            let b = s.get(id);
            let ((origin, dims), window, stored) =
                (b.info.padded(b.ghost), b.window(), b.store_dims);
            // Border faces are not stored: the window starts one layer in
            // at a low border and stops one layer short at a high one.
            for a in 0..3 {
                let low = b.info.origin[a] == 0;
                assert_eq!((window[a], stored[a]), (usize::from(low), 9), "brick {id}");
            }
            // A windowed read anywhere in the padded box is the
            // pointwise-clamped volume.
            let expect = s.volume().materialize_clamped(origin, dims);
            let at = |a: usize, i: usize| i.clamp(window[a], window[a] + stored[a] - 1) - window[a];
            for z in 0..dims[2] {
                for y in 0..dims[1] {
                    for x in 0..dims[0] {
                        let got =
                            b.voxels[(at(2, z) * stored[1] + at(1, y)) * stored[0] + at(0, x)];
                        let want = expect[(z * dims[1] + y) * dims[0] + x];
                        assert_eq!(got.to_bits(), want.to_bits(), "brick {id} at ({x},{y},{z})");
                    }
                }
            }
        }
        // Interior faces carry the neighbours' voxels: brick 0's +x ghost
        // layer (global x = 8) is brick 1's first core layer, and brick 1's
        // -x ghost layer (global x = 7) is brick 0's last.
        let (b0, b1) = (s.get(0), s.get(1));
        assert_eq!((b0.store_origin, b1.store_origin), ([0, 0, 0], [7, 0, 0]));
        let d = b0.store_dims;
        for row in 0..d[1] * d[2] {
            assert_eq!(
                b0.voxels[row * d[0] + 8],
                b1.voxels[row * d[0] + 1],
                "row {row}"
            );
            assert_eq!(
                b0.voxels[row * d[0] + 7],
                b1.voxels[row * d[0]],
                "row {row}"
            );
        }
    }

    /// Rows `runs[z]` of each of a stored brick's 9 slabs.
    fn rows(runs: [std::ops::Range<usize>; 9]) -> Rows {
        Rows::new(9, runs)
    }

    /// Rows 2..5 of slabs 3..6: what a brick with one small occupied
    /// region needs.
    fn narrow() -> Rows {
        rows([0..0, 0..0, 0..0, 2..5, 2..5, 2..5, 0..0, 0..0, 0..0])
    }

    #[test]
    fn rows_contain_and_unite_per_slab() {
        let all = Rows::all([9, 9, 9]);
        let wide = rows([0..0, 1..2, 0..0, 1..9, 2..5, 3..4, 0..0, 0..0, 0..0]);
        assert!(all.contains(&narrow()) && all.contains(&wide) && all.is_all());
        assert!(!narrow().contains(&wide) && !wide.contains(&narrow()));
        assert!(narrow().contains(&rows(Default::default())));
        let both = narrow().union(&wide);
        assert_eq!(
            both,
            rows([0..0, 1..2, 0..0, 1..9, 2..5, 2..5, 0..0, 0..0, 0..0])
        );
        assert!(both.contains(&narrow()) && both.contains(&wide) && !both.is_all());
        assert_eq!((narrow().count(), both.count()), (9, 1 + 8 + 3 + 3));
    }

    #[test]
    fn a_miss_reads_only_its_rows() {
        let s = store(u64::MAX);
        let all = s.get(0);
        let (b, read) = s.get_rows(1, &narrow());
        assert!(read.is_some());
        assert_eq!(b.rows, narrow());
        let d = b.store_dims;
        let mut fresh = vec![0f32; b.voxels.len()];
        s.volume().read_region(b.store_origin, d, &mut fresh);
        for (i, (&got, &want)) in b.voxels.iter().zip(&fresh).enumerate() {
            let (y, z) = (i / d[0] % d[1], i / (d[0] * d[1]));
            if narrow().slab(z).contains(&y) {
                assert_eq!(got.to_bits(), want.to_bits(), "voxel {i}");
            } else if cfg!(debug_assertions) {
                assert_eq!(got, POISON_VOXEL, "voxel {i}");
            }
        }
        // The budget charges the stored box; the counter, the rows read.
        assert_eq!(s.cached_bytes(), 2 * BRICK_BYTES);
        let rows_bytes = (narrow().count() * d[0] * 4) as u64;
        assert_eq!(s.snapshot().bytes_materialized, BRICK_BYTES + rows_bytes);
        // A need the entry's rows contain is a hit.
        assert!(all.rows.is_all());
        let (again, read) = s.get_rows(0, &narrow());
        assert!(Arc::ptr_eq(&again, &all) && read.is_none());
    }

    #[test]
    fn a_short_entry_is_a_miss_into_a_fresh_buffer() {
        let s = store(u64::MAX);
        let (short, _) = s.get_rows(2, &narrow());
        let before = short.voxels.to_vec();
        let wide = rows([0..0, 0..0, 0..0, 0..9, 2..5, 2..5, 0..0, 0..0, 1..2]);
        let (widened, read) = s.get_rows(2, &wide);
        assert!(read.is_some(), "a short entry is a miss");
        assert!(!Arc::ptr_eq(&widened.voxels, &short.voxels));
        assert_eq!(widened.rows, narrow().union(&wide));
        // The earlier `Arc` keeps its own voxels and rows.
        assert_eq!(short.rows, narrow());
        assert_eq!(
            short.voxels.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            before.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // The widened entry replaced the short one: one brick resident,
        // nothing evicted; and both its needs are hits now.
        assert_eq!(s.cached_bytes(), BRICK_BYTES);
        let snap = s.snapshot();
        assert_eq!((snap.misses, snap.evictions, snap.hits), (2, 0, 0));
        assert!(s.get_rows(2, &narrow()).1.is_none() && s.get_rows(2, &wide).1.is_none());
        // `get` after a partial stage reads every row.
        let full = s.get(2);
        assert!(full.rows.is_all());
        assert_eq!(full.voxels, store(u64::MAX).get(2).voxels);
        assert_eq!(s.snapshot().misses, 3);
    }

    /// The cells of a brick are built from all of it: in debug builds a
    /// brick that holds only some rows is refused.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "holds only some of its rows")]
    fn cells_refuse_a_brick_with_unread_rows() {
        let s = store(u64::MAX);
        crate::MacroCells::of(&s.get_rows(0, &narrow()).0);
    }

    #[test]
    fn snapshot_since_subtracts_counters() {
        let s = store(u64::MAX);
        s.get(0);
        let before = s.snapshot();
        s.get(0);
        s.get(1);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.hits, 1);
        assert_eq!(delta.misses, 1);
        assert_eq!(delta.since(&delta), StoreSnapshot::default());
    }

    #[test]
    fn hits_and_misses_count() {
        let s = store(u64::MAX);
        s.get(3);
        s.get(3);
        s.get(4);
        let snap = s.snapshot();
        assert_eq!(snap.misses, 2);
        assert_eq!(snap.hits, 1);
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let s = store(TWO_AND_A_HALF);
        s.get(0);
        s.get(1);
        s.get(2); // evicts brick 0 (LRU)
        assert!(s.cached_bytes() <= TWO_AND_A_HALF);
        let before = s.snapshot();
        assert!(before.evictions >= 1);
        // Brick 0 must re-materialize.
        s.get(0);
        assert_eq!(s.snapshot().misses, before.misses + 1);
    }

    /// Ids whose voxels are resident.
    fn held(s: &BrickStore) -> Vec<usize> {
        let mut resident: Vec<usize> = s.inner.lock().unwrap().entries.keys().copied().collect();
        resident.sort_unstable();
        resident
    }

    #[test]
    fn the_budget_counts_voxels_only() {
        // Room for exactly two bricks' voxels: both stay resident.
        let s = store(2 * BRICK_BYTES);
        assert_eq!(s.get(0).bytes(), BRICK_BYTES);
        s.get(1);
        assert_eq!(s.cached_bytes(), 2 * BRICK_BYTES);
        assert_eq!(held(&s), [0, 1]);
        let snap = s.snapshot();
        assert_eq!((snap.misses, snap.evictions), (2, 0));
        assert_eq!(snap.bytes_materialized, 2 * BRICK_BYTES);
        // One byte less, and the second evicts the first.
        let s = store(2 * BRICK_BYTES - 1);
        s.get(0);
        s.get(1);
        assert_eq!(s.cached_bytes(), BRICK_BYTES);
        assert_eq!(held(&s), [1]);
        assert_eq!(s.snapshot().evictions, 1);
    }

    #[test]
    fn a_panicking_miss_returns_its_reservation() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicBool;

        // Once armed, the field's next sample panics: a brick whose read
        // fails, as a truncated volume file's would.
        let armed = StdArc::new(AtomicBool::new(false));
        let field = {
            let armed = StdArc::clone(&armed);
            move |x: f32, _y: f32, _z: f32| {
                assert!(!armed.swap(false, Ordering::Relaxed), "unreadable brick");
                x
            }
        };
        let budget = 3 * BRICK_BYTES;
        let s = store_over(StdArc::new(field), budget);
        let fresh = store(budget);
        for id in [0, 1] {
            s.get(id);
            fresh.get(id);
        }
        let before = s.cached_bytes();

        armed.store(true, Ordering::Relaxed);
        assert!(catch_unwind(AssertUnwindSafe(|| s.get(2))).is_err());
        assert_eq!(s.inner.lock().unwrap().in_flight, 0);
        assert_eq!(s.cached_bytes(), before);
        assert_eq!(held(&s), [0, 1], "no entry for brick 2");

        // Every later miss evicts what the same misses on a store that never
        // failed evict.
        for id in [2, 3, 4, 0, 5] {
            s.get(id);
            fresh.get(id);
            assert_eq!(s.snapshot().evictions, fresh.snapshot().evictions);
            assert_eq!(held(&s), held(&fresh));
            assert_eq!(s.cached_bytes(), fresh.cached_bytes());
        }
    }

    #[test]
    fn evicted_arc_stays_valid() {
        let s = store(ONE_BRICK);
        let b0 = s.get(0);
        let _b1 = s.get(1); // evicts brick 0 from cache
        assert_eq!(b0.info.id, 0);
        assert!(!b0.voxels.is_empty()); // still readable
    }

    #[test]
    fn a_dead_bricks_allocation_serves_the_next_miss() {
        let s = store(ONE_BRICK);
        let held = s.get(0);
        let first = held.voxels.as_ptr();
        s.get(1); // evicts brick 0, which `held` keeps alive: nothing spare
        assert!(s.spares.buffers.lock().unwrap().is_empty());
        drop(held); // the last holder retires the allocation…
        assert_eq!(s.spares.buffers.lock().unwrap().len(), 1);
        let again = s.get(2); // …and the next miss is staged into it,
        assert_eq!(again.voxels.as_ptr(), first);
        // with every stale voxel overwritten.
        assert_eq!(again.voxels, store(u64::MAX).get(2).voxels);
        // Spares hold at most the budget (one brick here), and `clear`
        // releases them with the entries.
        let (a, b) = (s.get(3), s.get(4));
        drop((a, b, again));
        assert_eq!(s.spares.buffers.lock().unwrap().len(), 1);
        s.clear();
        assert!(s.spares.buffers.lock().unwrap().is_empty());
        assert_eq!(s.cached_bytes(), 0);
    }

    #[test]
    fn touching_keeps_entries_warm() {
        let s = store(TWO_AND_A_HALF);
        s.get(0);
        s.get(1);
        s.get(0); // brick 0 now most recent; 1 is the LRU victim
        s.get(2);
        assert_eq!(held(&s), [0, 2]);
    }

    #[test]
    fn budget_holds_while_two_misses_are_in_flight() {
        use std::cell::Cell;
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        thread_local!(static MET: Cell<bool> = const { Cell::new(false) });

        // Once armed, each thread's first sample meets the main thread at the
        // barrier and waits there to be released: both misses are then
        // provably mid-read at the same time.
        let armed = StdArc::new(AtomicBool::new(false));
        let barrier = StdArc::new(Barrier::new(3));
        let field = {
            let (armed, barrier) = (StdArc::clone(&armed), StdArc::clone(&barrier));
            move |x: f32, _y: f32, _z: f32| {
                if armed.load(Ordering::Relaxed) && !MET.with(|m| m.replace(true)) {
                    barrier.wait();
                    barrier.wait();
                }
                x
            }
        };
        let budget = 2 * BRICK_BYTES; // exactly two bricks
        let s = store_over(StdArc::new(field), budget);
        s.get(0);
        s.get(1);
        assert_eq!(s.cached_bytes(), budget);

        armed.store(true, Ordering::Relaxed);
        std::thread::scope(|scope| {
            for id in [2, 3] {
                let s = &s;
                scope.spawn(move || {
                    assert_eq!(s.get(id).info.id, id);
                    assert!(s.cached_bytes() <= budget);
                });
            }
            barrier.wait();
            let mid_read = {
                let inner = s.inner.lock().unwrap();
                (inner.in_flight, inner.bytes)
            };
            // Released before asserting: a failure must not leave both
            // readers parked at the barrier and the scope waiting on them.
            barrier.wait();
            // Both reservations were made before either read began, and
            // made room first: nothing is resident, nothing is over.
            assert_eq!(mid_read, (budget, 0));
        });
        assert_eq!(s.cached_bytes(), budget);
        assert_eq!(s.inner.lock().unwrap().in_flight, 0);
        let snap = s.snapshot();
        assert_eq!((snap.misses, snap.evictions), (4, 2));
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let s = StdArc::new(store(UNDER_TWO));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = StdArc::clone(&s);
                scope.spawn(move || {
                    for i in 0..32 {
                        let id = (i + t) % s.grid().brick_count();
                        let b = s.get(id);
                        assert_eq!(b.info.id, id);
                    }
                });
            }
        });
        assert!(s.cached_bytes() <= UNDER_TWO || held(&s).len() == 1);
    }

    #[test]
    fn spares_serve_bricks_of_every_size() {
        // Three z-bricks of a 4×4×24 column: the end bricks store 9 slabs of
        // their padded box, the middle one 10. Under a budget of two bricks, a
        // cyclic walk misses and evicts every time.
        let v = Volume::procedural("ramp", [4, 4, 24], 0, StdArc::new(AxisRamp { axis: 2 }));
        let grid = BrickGrid {
            vol_dims: [4, 4, 24],
            counts: [1, 1, 3],
        };
        let s = BrickStore::new(v, grid, 1, 2 * 640);
        let mut seen = Vec::new();
        for lap in 0..4 {
            for id in 0..3 {
                let b = s.get(id);
                assert_eq!(b.store_dims, [4, 4, if id == 1 { 10 } else { 9 }]);
                assert_eq!(b.voxels.capacity(), 4 * 4 * 10, "room for the largest");
                let at = b.voxels.as_ptr();
                if lap == 0 {
                    seen.push(at);
                } else {
                    assert!(
                        seen.contains(&at),
                        "lap {lap}, brick {id}: a fresh allocation"
                    );
                }
            }
        }
        assert_eq!(s.snapshot().misses, 12);
        assert_eq!(s.snapshot().evictions, 10);

        // The spares' byte bound counts capacity, not length: three buffers
        // of 4 voxels fit 80 bytes by length but only two by capacity.
        let spares = Spares {
            budget_bytes: 80,
            capacity: 10,
            buffers: Mutex::new(Vec::new()),
        };
        let taken: Vec<Vec<f32>> = (0..3).map(|_| spares.take(4)).collect();
        assert!(taken.iter().all(|b| b.len() == 4 && b.capacity() == 10));
        taken.into_iter().for_each(|b| spares.put(b));
        assert_eq!(spares.buffers.lock().unwrap().len(), 2);
    }
}
