//! The out-of-core brick store: materializes bricks (with ghost layers) on
//! demand and caches them under a host-memory budget with LRU eviction.
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

/// A materialized brick: voxels including `ghost` extra layers on every side
/// (clamped at volume borders), so trilinear sampling at brick boundaries
/// reproduces the global volume exactly.
#[derive(Debug)]
pub struct BrickData {
    pub info: BrickInfo,
    /// Ghost layers on each side.
    pub ghost: u32,
    /// Origin of the stored array in (possibly negative) volume coordinates.
    pub store_origin: [i64; 3],
    /// Dimensions of the stored array (= size + 2·ghost).
    pub store_dims: [usize; 3],
    /// Shared so a device texture can reference the same allocation.
    pub voxels: Arc<Vec<f32>>,
    /// Min/max macrocells over `voxels`, shared the same way.
    pub cells: MacroCells,
    /// Where the voxel allocation goes when the brick dies.
    spares: Arc<Spares>,
}

impl BrickData {
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

const POISON: &str = "brick store lock poisoned";

/// Voxel allocations of dead bricks, kept for the next miss. An out-of-core
/// frame frees and allocates every brick it touches; handed to `malloc`,
/// multi-megabyte buffers alternate between trimmed and re-faulted, at a
/// page fault per 4 KiB. Holds at most one budget's worth of bytes, and frees
/// every buffer it lets go of with [`release`].
#[derive(Debug)]
struct Spares {
    budget_bytes: u64,
    buffers: Mutex<Vec<Vec<f32>>>,
}

impl Spares {
    fn put(&self, voxels: Vec<f32>) {
        let mut buffers = self.buffers.lock().unwrap_or_else(PoisonError::into_inner);
        let held: usize = buffers.iter().map(Vec::len).sum();
        if ((held + voxels.len()) * 4) as u64 <= self.budget_bytes {
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

    /// A buffer of exactly `len` voxels: a spare with arbitrary contents, or
    /// a zeroed new one — and then a spare of another size goes, so a pool of
    /// the wrong sizes drains instead of staying full.
    fn take(&self, len: usize) -> Vec<f32> {
        let spare = {
            let mut buffers = self.buffers.lock().expect(POISON);
            match buffers.iter().position(|b| b.len() == len) {
                Some(i) => buffers.swap_remove(i),
                None => buffers.pop().unwrap_or_default(),
            }
        };
        // Allocating, and freeing the misfit, happen outside the lock.
        if spare.len() == len {
            spare
        } else {
            release(spare);
            vec![0f32; len]
        }
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
    /// bytes again. `volume` must not change while the store lives: resident
    /// bricks and kept tables are never re-validated against it.
    pub fn new(volume: Volume, grid: BrickGrid, ghost: u32, budget_bytes: u64) -> BrickStore {
        assert_eq!(
            volume.dims(),
            grid.vol_dims,
            "grid does not match volume dims"
        );
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
        let g = self.ghost;
        let store_origin = info.origin.map(|o| o as i64 - g as i64);
        let store_dims = info.size.map(|s| (s + 2 * g) as usize);
        let voxel_bytes = (store_dims[0] * store_dims[1] * store_dims[2] * 4) as u64;
        let kept = inner.entries.get(&id).map(|e| e.cells.clone());
        let bytes = match kept {
            Some(_) => voxel_bytes,
            None => voxel_bytes + MacroCells::bytes_for(store_dims),
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
            .materialize_clamped_into(store_origin, store_dims, &mut voxels);
        let cells = kept.unwrap_or_else(|| MacroCells::build(&voxels, store_dims));
        let data = Arc::new(BrickData {
            info,
            ghost: g,
            store_origin,
            store_dims,
            voxels: Arc::new(voxels),
            cells,
            spares: Arc::clone(&self.spares),
        });
        debug_assert_eq!(data.cells.bytes(), MacroCells::bytes_for(store_dims));
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

    /// One staged brick of [`store`]: (8+2)³ voxels × 4 B, plus its 2³
    /// macrocells × 8 B.
    const VOXEL_BYTES: u64 = 4000;
    const BRICK_BYTES: u64 = VOXEL_BYTES + 64;

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
        let s = store(u64::MAX);
        // Brick 0 is at origin; its +x ghost layer must equal brick 1's first
        // interior layer of voxels.
        let b0 = s.get(0);
        let b1 = s.get(1);
        assert_eq!(b0.info.origin, [0, 0, 0]);
        assert_eq!(b1.info.origin, [8, 0, 0]);
        let d0 = b0.store_dims;
        // Ghost voxel at store x = size+ghost (global x = 8) in brick 0…
        let x_ghost = b0.info.size[0] as usize + 1; // ghost=1 shifts by one
                                                    // …equals brick 1's first interior voxel (store x = 1, global x = 8).
        for z in 1..d0[2] - 1 {
            for y in 1..d0[1] - 1 {
                let v0 = b0.voxels[(z * d0[1] + y) * d0[0] + x_ghost];
                let v1 = b1.voxels[(z * b1.store_dims[1] + y) * b1.store_dims[0] + 1];
                assert_eq!(v0, v1, "ghost mismatch at y={y} z={z}");
            }
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
        // Budget of ~2.5 bricks.
        let s = store(10_000);
        s.get(0);
        s.get(1);
        s.get(2); // evicts brick 0 (LRU)
        assert!(s.cached_bytes() <= 10_000);
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
        let s = store(5_000); // barely one brick
        let table = Arc::clone(&s.get(0).cells.ranges);
        s.get(1); // evicts brick 0's voxels, keeps its table
        let before = s.snapshot();
        let again = s.get(0);
        let after = s.snapshot().since(&before);
        assert_eq!((after.misses, after.evictions), (1, 1));
        assert_eq!(after.bytes_materialized, VOXEL_BYTES);
        // The same table, and the one the re-read voxels would build.
        assert!(Arc::ptr_eq(&again.cells.ranges, &table));
        let rebuilt = MacroCells::build(&again.voxels, again.store_dims);
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
        let s = store(5_000); // barely one brick
        let b0 = s.get(0);
        let _b1 = s.get(1); // evicts brick 0 from cache
        assert_eq!(b0.info.id, 0);
        assert!(!b0.voxels.is_empty()); // still readable
    }

    #[test]
    fn a_dead_bricks_allocation_serves_the_next_miss() {
        let s = store(5_000); // barely one brick
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
        let s = store(10_000);
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
        let budget = 2 * BRICK_BYTES; // exactly two ghosted bricks
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
            {
                // Both reservations were made before either read began, and
                // made room first: nothing is resident, nothing is over.
                let inner = s.inner.lock().unwrap();
                assert_eq!(inner.in_flight, budget);
                assert_eq!(inner.bytes, 0);
            }
            barrier.wait();
        });
        assert_eq!(s.cached_bytes(), budget);
        assert_eq!(s.inner.lock().unwrap().in_flight, 0);
        let snap = s.snapshot();
        assert_eq!((snap.misses, snap.evictions), (4, 2));
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let s = StdArc::new(store(8_000));
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
        assert!(s.cached_bytes() <= 8_000 || held(&s).0.len() == 1);
    }
}
