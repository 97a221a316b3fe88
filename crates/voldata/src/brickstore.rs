//! The out-of-core brick store: materializes bricks (with ghost layers) on
//! demand and caches them under a host-memory budget with LRU eviction.
//! The same miss that materializes a brick's voxels builds its min/max
//! [`MacroCells`], and both count against the budget.
//!
//! This is the data side of the paper's out-of-core story: "the library
//! allows for out-of-core algorithms (including rendering)" — bricks stream
//! through host memory; the whole volume never has to be resident.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

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
        (self.voxels.len() * 4) as u64 + self.cells.bytes()
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

/// Voxel allocations of dead bricks, kept for the next miss. An out-of-core
/// frame frees and allocates every brick it touches; handed to `malloc`,
/// multi-megabyte buffers alternate between trimmed and re-faulted, at a
/// page fault per 4 KiB. Holds at most one budget's worth of bytes.
#[derive(Debug)]
struct Spares {
    budget_bytes: u64,
    buffers: Mutex<Vec<Vec<f32>>>,
}

impl Spares {
    fn put(&self, voxels: Vec<f32>) {
        let mut buffers = self.buffers.lock();
        let held: usize = buffers.iter().map(Vec::len).sum();
        if ((held + voxels.len()) * 4) as u64 <= self.budget_bytes {
            buffers.push(voxels);
        }
    }

    /// A buffer of exactly `len` voxels: a spare with arbitrary contents, or
    /// a zeroed new one — and then a spare of another size goes, so a pool of
    /// the wrong sizes drains instead of staying full.
    fn take(&self, len: usize) -> Vec<f32> {
        let spare = {
            let mut buffers = self.buffers.lock();
            match buffers.iter().position(|b| b.len() == len) {
                Some(i) => buffers.swap_remove(i),
                None => buffers.pop().unwrap_or_default(),
            }
        };
        // Allocating, and freeing the misfit, happen outside the lock.
        if spare.len() == len {
            spare
        } else {
            vec![0f32; len]
        }
    }
}

/// Cache statistics (monotonic counters).
#[derive(Debug, Default)]
pub struct StoreStats {
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
    /// frames (the render service's batching path).
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

struct CacheInner {
    entries: HashMap<usize, (Arc<BrickData>, u64)>,
    /// Bytes of resident entries.
    bytes: u64,
    /// Bytes reserved by misses that are still materializing.
    in_flight: u64,
    tick: u64,
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
    /// `budget_bytes` bounds cached brick data (voxels and macrocells); a
    /// single brick larger than the budget is still materialized (and evicted
    /// as soon as another arrives). Voxel buffers of dead bricks are kept for
    /// reuse, up to the same number of bytes again.
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
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((data, last)) = inner.entries.get_mut(&id) {
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
    fn stage(&self, id: usize, mut inner: MutexGuard<'_, CacheInner>) -> Arc<BrickData> {
        let info = self.grid.brick(id);
        let g = self.ghost;
        let store_origin = info.origin.map(|o| o as i64 - g as i64);
        let store_dims = info.size.map(|s| (s + 2 * g) as usize);
        let voxel_bytes = (store_dims[0] * store_dims[1] * store_dims[2] * 4) as u64;
        let bytes = voxel_bytes + MacroCells::bytes_for(store_dims);
        self.evict_to_fit(&mut inner, bytes, id);
        inner.in_flight += bytes;
        drop(inner);

        // Materialize outside the lock: concurrent misses may duplicate work
        // but never block each other on voxel synthesis. (A panic in here
        // leaks the reservation, which only makes later misses evict more.)
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let mut voxels = self.spares.take(store_dims.iter().product());
        self.volume
            .materialize_clamped_into(store_origin, store_dims, &mut voxels);
        let cells = MacroCells::build(&voxels, store_dims);
        let data = Arc::new(BrickData {
            info,
            ghost: g,
            store_origin,
            store_dims,
            voxels: Arc::new(voxels),
            cells,
            spares: Arc::clone(&self.spares),
        });
        debug_assert_eq!(data.bytes(), bytes);
        // Voxel bytes only: this counter is the volume data read or
        // synthesized, which the cells are derived from, not part of.
        self.stats
            .bytes_materialized
            .fetch_add(voxel_bytes, Ordering::Relaxed);

        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.in_flight -= bytes;
        inner.bytes += bytes;
        if let Some((twin, _)) = inner.entries.insert(id, (Arc::clone(&data), tick)) {
            inner.bytes -= twin.bytes(); // racing miss: replaced a twin entry
        }
        // Only misses that could not reserve (more in flight than the budget
        // holds) still have something to trim here.
        self.evict_to_fit(&mut inner, 0, id);
        data
    }

    /// Evict least-recently-used entries (never `keep`) until resident +
    /// in-flight + `incoming` bytes fit the budget or nothing else is left.
    fn evict_to_fit(&self, inner: &mut CacheInner, incoming: u64, keep: usize) {
        while inner.bytes + inner.in_flight + incoming > self.budget_bytes {
            let victim = inner
                .entries
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, (_, last))| *last)
                .map(|(k, _)| *k);
            let Some(k) = victim else { break };
            let (old, _) = inner.entries.remove(&k).expect("victim is resident");
            inner.bytes -= old.bytes();
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drop all cached bricks and spare buffers (keeps statistics).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.bytes = 0;
        drop(inner);
        self.spares.buffers.lock().clear();
    }

    pub fn cached_bytes(&self) -> u64 {
        self.inner.lock().bytes
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

    #[test]
    fn macrocells_count_against_the_budget() {
        // Room for exactly two bricks' voxels: before cells were budgeted
        // both stayed resident; now the second evicts the first.
        let s = store(2 * VOXEL_BYTES);
        assert_eq!(s.get(0).bytes(), BRICK_BYTES);
        s.get(1);
        assert_eq!(s.cached_bytes(), BRICK_BYTES);
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
        assert!(s.spares.buffers.lock().is_empty());
        drop(held); // the last holder retires the allocation…
        assert_eq!(s.spares.buffers.lock().len(), 1);
        let again = s.get(2); // …and the next miss is staged into it,
        assert_eq!(again.voxels.as_ptr(), first);
        // with every stale voxel overwritten.
        assert_eq!(again.voxels, store(u64::MAX).get(2).voxels);
        // Spares hold at most the budget (one brick here), and `clear`
        // releases them with the entries.
        let (a, b) = (s.get(3), s.get(4));
        drop((a, b, again));
        assert_eq!(s.spares.buffers.lock().len(), 1);
        s.clear();
        assert!(s.spares.buffers.lock().is_empty());
        assert_eq!(s.cached_bytes(), 0);
    }

    #[test]
    fn touching_keeps_entries_warm() {
        let s = store(10_000);
        s.get(0);
        s.get(1);
        s.get(0); // brick 0 now most recent; 1 is the LRU victim
        s.get(2);
        let inner_has = |id: usize| s.inner.lock().entries.contains_key(&id);
        assert!(inner_has(0));
        assert!(inner_has(2));
        assert!(!inner_has(1));
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
                let inner = s.inner.lock();
                assert_eq!(inner.in_flight, budget);
                assert_eq!(inner.bytes, 0);
            }
            barrier.wait();
        });
        assert_eq!(s.cached_bytes(), budget);
        assert_eq!(s.inner.lock().in_flight, 0);
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
        assert!(s.cached_bytes() <= 8_000 || s.inner.lock().entries.len() == 1);
    }
}
