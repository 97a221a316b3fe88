//! The out-of-core brick store: materializes bricks on demand and caches
//! them under a host-memory budget with LRU eviction. A brick stores its
//! ghost-padded box clipped to the volume, read straight into place; its
//! texture's clamp supplies the border ghosts (`Texture3D::windowed`).
//! A brick's first miss also builds its min/max [`MacroCells`]; the store
//! keeps that table after the voxels are evicted, so a later miss of the same
//! brick reads its voxels and nothing else. Voxels and tables both count
//! against the budget.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::brick::{BrickGrid, BrickInfo};
use crate::macrocell::MacroCells;
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
    /// Min/max macrocells over the padded box, keyed by its base indices.
    pub cells: MacroCells,
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

    /// Host bytes this brick holds: voxels plus macrocells.
    pub fn bytes(&self) -> u64 {
        self.voxel_bytes() + self.cells.bytes()
    }

    fn voxel_bytes(&self) -> u64 {
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

/// What a brick stores of its padded box: the part inside a volume of
/// `dims`, as origin and dims.
fn stored(info: &BrickInfo, ghost: u32, dims: [u32; 3]) -> ([u32; 3], [usize; 3]) {
    let lo = info.origin.map(|o| o.saturating_sub(ghost));
    let end = |a: usize| {
        (info.origin[a] + info.size[a])
            .saturating_add(ghost)
            .min(dims[a])
    };
    (lo, [0, 1, 2].map(|a| (end(a) - lo[a]) as usize))
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

/// What the store holds of one staged brick.
struct Entry {
    /// The brick, while its voxels are resident.
    brick: Option<Arc<BrickData>>,
    /// Its min/max table, kept after the voxels are evicted: it is derived
    /// from voxels that do not change for the store's lifetime.
    cells: MacroCells,
    /// When the brick was last served.
    last: u64,
}

struct CacheInner {
    entries: HashMap<usize, Entry>,
    /// Bytes held: every entry's table, plus resident voxels.
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
    /// `budget_bytes` bounds cached brick data: resident voxels, plus one
    /// macrocell table per brick staged so far. Eviction takes least recently
    /// used voxels first and tables of non-resident bricks only once no
    /// voxels are left to take. A single brick larger than the budget is
    /// still materialized (and evicted as soon as another arrives). Voxel
    /// buffers of dead bricks are kept for reuse, up to the same number of
    /// bytes of capacity again. `volume` must not change while the store
    /// lives: resident bricks and kept tables are never re-validated
    /// against it.
    pub fn new(volume: Volume, grid: BrickGrid, ghost: u32, budget_bytes: u64) -> BrickStore {
        assert_eq!(
            volume.dims(),
            grid.vol_dims,
            "grid does not match volume dims"
        );
        let capacity = grid
            .bricks()
            .map(|b| stored(&b, ghost, grid.vol_dims).1.iter().product())
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

    /// Fetch brick `id`, materializing if absent. The returned `Arc` stays
    /// valid even if the entry is evicted afterwards.
    pub fn get(&self, id: usize) -> Arc<BrickData> {
        let mut inner = self.inner.lock().expect(POISON);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(Entry {
            brick: Some(data),
            last,
            ..
        }) = inner.entries.get_mut(&id)
        {
            *last = tick;
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(data);
        }
        self.stage(id, inner)
    }

    /// The miss path. Reserve, then read: LRU victims go until resident +
    /// in-flight + this brick fits the budget, so the budget also holds
    /// *while* bricks are being read, not only between accesses. It never
    /// waits for room — with nothing left to evict the brick is served anyway.
    /// A brick staged before reserves and reads its voxels only, and is
    /// served with the table its first miss built.
    fn stage(&self, id: usize, mut inner: MutexGuard<'_, CacheInner>) -> Arc<BrickData> {
        let info = self.grid.brick(id);
        let (store_origin, store_dims) = stored(&info, self.ghost, self.grid.vol_dims);
        let (origin, dims) = info.padded(self.ghost);
        let window = [0, 1, 2].map(|a| (store_origin[a] as i64 - origin[a]) as usize);
        let voxel_bytes = (store_dims[0] * store_dims[1] * store_dims[2] * 4) as u64;
        let kept = inner.entries.get(&id).map(|e| e.cells.clone());
        let bytes = match kept {
            Some(_) => voxel_bytes,
            None => voxel_bytes + MacroCells::bytes_for(dims),
        };
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
        let mut voxels = self.spares.take(store_dims.iter().product());
        self.volume
            .read_region(store_origin, store_dims, &mut voxels);
        let cells = kept.unwrap_or_else(|| MacroCells::build(&voxels, store_dims, window, dims));
        let data = Arc::new(BrickData {
            info,
            ghost: self.ghost,
            store_origin,
            store_dims,
            voxels: Arc::new(voxels),
            cells,
            spares: Arc::clone(&self.spares),
        });
        debug_assert_eq!(data.cells.bytes(), MacroCells::bytes_for(dims));
        // Voxel bytes only: this counter is the volume data read or
        // synthesized, which the cells are derived from, not part of.
        self.stats
            .bytes_materialized
            .fetch_add(voxel_bytes, Ordering::Relaxed);

        let mut guard = reservation.settle();
        let inner = &mut *guard;
        inner.tick += 1;
        let entry = inner.entries.entry(id).or_insert_with(|| {
            // A first miss, or one whose table went while it read.
            inner.bytes += data.cells.bytes();
            Entry {
                brick: None,
                cells: data.cells.clone(),
                last: 0,
            }
        });
        entry.last = inner.tick;
        inner.bytes += voxel_bytes;
        if let Some(twin) = entry.brick.replace(Arc::clone(&data)) {
            inner.bytes -= twin.voxel_bytes(); // racing miss: replaced a twin
        }
        // Only misses that could not reserve (more in flight than the budget
        // holds) still have something to trim here.
        self.evict_to_fit(inner, 0, id);
        data
    }

    /// Evict (never `keep`) until held + in-flight + `incoming` bytes fit
    /// the budget or nothing else is left: least-recently-used voxels first,
    /// then, with no voxels left to take, the tables of non-resident bricks
    /// in the same order.
    fn evict_to_fit(&self, inner: &mut CacheInner, incoming: u64, keep: usize) {
        while inner.bytes + inner.in_flight + incoming > self.budget_bytes {
            let lru = |resident: bool| {
                inner
                    .entries
                    .iter()
                    .filter(|(k, e)| **k != keep && e.brick.is_some() == resident)
                    .min_by_key(|(_, e)| e.last)
                    .map(|(k, _)| *k)
            };
            let Some(k) = lru(true).or_else(|| lru(false)) else {
                break;
            };
            let entry = inner.entries.get_mut(&k).expect("victim is held");
            match entry.brick.take() {
                Some(old) => {
                    inner.bytes -= old.voxel_bytes();
                    self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    inner.bytes -= entry.cells.bytes();
                    inner.entries.remove(&k);
                }
            }
        }
    }

    /// Drop all cached bricks, kept tables and spare buffers (keeps
    /// statistics).
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
    /// axis, so it stores its (8+2)³ padded box clipped to 9³ voxels × 4 B,
    /// plus the 2³ macrocells × 8 B keyed over the padded box.
    const VOXEL_BYTES: u64 = 2916;
    const BRICK_BYTES: u64 = VOXEL_BYTES + 64;
    /// Budgets: barely one brick, just under two, and about two and a half.
    const ONE_BRICK: u64 = 3_700;
    const UNDER_TWO: u64 = 5_900;
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

    /// Ids whose voxels are resident, and ids whose table is kept.
    fn held(s: &BrickStore) -> (Vec<usize>, Vec<usize>) {
        let inner = s.inner.lock().unwrap();
        let mut resident: Vec<usize> = inner
            .entries
            .iter()
            .filter(|(_, e)| e.brick.is_some())
            .map(|(k, _)| *k)
            .collect();
        let mut tables: Vec<usize> = inner.entries.keys().copied().collect();
        resident.sort_unstable();
        tables.sort_unstable();
        (resident, tables)
    }

    fn bits(cells: &MacroCells) -> Vec<[u32; 2]> {
        cells.ranges.iter().map(|r| r.map(f32::to_bits)).collect()
    }

    #[test]
    fn macrocells_count_against_the_budget() {
        // Room for exactly two bricks' voxels: before cells were budgeted
        // both stayed resident; now the second evicts the first — whose
        // table stays, and is still paid for.
        let s = store(2 * VOXEL_BYTES);
        assert_eq!(s.get(0).bytes(), BRICK_BYTES);
        s.get(1);
        assert_eq!(s.cached_bytes(), BRICK_BYTES + 64);
        assert_eq!(held(&s), (vec![1], vec![0, 1]));
        let snap = s.snapshot();
        assert_eq!((snap.misses, snap.evictions), (2, 1));
        // The materialization counter keeps counting volume data only.
        assert_eq!(snap.bytes_materialized, 2 * VOXEL_BYTES);
        // With the cells paid for, both fit.
        let s = store(2 * BRICK_BYTES);
        s.get(0);
        s.get(1);
        assert_eq!(s.cached_bytes(), 2 * BRICK_BYTES);
        assert_eq!(s.snapshot().evictions, 0);
    }

    #[test]
    fn a_re_missed_brick_reuses_its_table() {
        let s = store(ONE_BRICK);
        let table = Arc::clone(&s.get(0).cells.ranges);
        s.get(1); // evicts brick 0's voxels, keeps its table
        let before = s.snapshot();
        let again = s.get(0);
        let after = s.snapshot().since(&before);
        assert_eq!((after.misses, after.evictions), (1, 1));
        assert_eq!(after.bytes_materialized, VOXEL_BYTES);
        // The same table, and the one the re-read voxels would build.
        assert!(Arc::ptr_eq(&again.cells.ranges, &table));
        let rebuilt = MacroCells::build(
            &again.voxels,
            again.store_dims,
            again.window(),
            again.info.padded(again.ghost).1,
        );
        assert_eq!(bits(&again.cells), bits(&rebuilt));
        // `clear` forgets it: the next miss builds a table of its own.
        s.clear();
        let fresh = s.get(0);
        assert!(!Arc::ptr_eq(&fresh.cells.ranges, &table));
        assert_eq!(bits(&fresh.cells), bits(&rebuilt));
    }

    #[test]
    fn voxels_go_before_tables_and_tables_go_lru() {
        // Two bricks and one spare table fit. Brick 3's miss needs 64 bytes
        // more than evicting brick 1 frees; dropping table 0 would free
        // them, but brick 2's voxels go first.
        let s = store(2 * BRICK_BYTES + 64);
        for id in [0, 1, 2] {
            s.get(id);
        }
        assert_eq!(held(&s), (vec![1, 2], vec![0, 1, 2]));
        s.get(3);
        assert_eq!(held(&s), (vec![3], vec![0, 1, 2, 3]));
        assert_eq!(s.snapshot().evictions, 3);

        // One brick and two more tables: too small for all of them.
        let s = store(BRICK_BYTES + 2 * 64);
        for id in [0, 1, 2] {
            s.get(id);
        }
        assert_eq!(held(&s), (vec![2], vec![0, 1, 2]));
        // A known brick's miss reserves voxels only: no table goes.
        s.get(0);
        assert_eq!(held(&s), (vec![0], vec![0, 1, 2]));
        // A new one's needs a table more than evicting brick 0 frees. Table
        // 1 goes: least recently used, since brick 0 was used after it.
        s.get(3);
        assert_eq!(held(&s), (vec![3], vec![0, 2, 3]));
        s.get(4);
        assert_eq!(held(&s), (vec![4], vec![0, 3, 4]));
        assert_eq!(s.cached_bytes(), BRICK_BYTES + 2 * 64);
        // Dropping a table is not an eviction: those count voxels.
        assert_eq!(s.snapshot().evictions, 5);
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
        assert_eq!(held(&s), (vec![0, 1], vec![0, 1]), "no table for brick 2");

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
        assert_eq!(held(&s).0, [0, 2]);
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
        assert!(s.cached_bytes() <= UNDER_TWO || held(&s).0.len() == 1);
    }

    #[test]
    fn spares_serve_bricks_of_every_size() {
        // Three z-bricks of a 4×4×24 column: the end bricks store 9 slabs of
        // their padded box, the middle one 10. Under a budget of two bricks
        // and their tables, a cyclic walk misses and evicts every time.
        let v = Volume::procedural("ramp", [4, 4, 24], 0, StdArc::new(AxisRamp { axis: 2 }));
        let grid = BrickGrid {
            vol_dims: [4, 4, 24],
            counts: [1, 1, 3],
        };
        let s = BrickStore::new(v, grid, 1, 2 * 640 + 3 * 16);
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
