//! Min/max macrocells over a brick's ghost-padded box — the data half of
//! empty-space skipping. The renderer classifies each cell's value range
//! against the transfer function and jumps rays over the cells that cannot
//! contribute; this module only records the ranges. The renderer builds a
//! brick's table from its resident voxels once, and keeps it beside the
//! brick with the grids it classifies from it; the
//! [`BrickStore`](crate::BrickStore) holds voxels only.
//!
//! A cell is a cube of `edge` trilinear **base indices** per axis, not of
//! voxels. A sample at stored position `p` blends the voxels `b` and `b + 1`
//! per axis, where the base `b = floor(p − ½)`; clamp addressing makes every
//! base below 0 tap what base 0 also taps (voxel 0) and every base above
//! `dim − 2` what base `dim − 2` also taps (voxel `dim − 1`), so an axis has
//! `max(dim − 1, 1)` distinguishable bases. Cell `c` therefore covers bases
//! `c·edge .. min((c+1)·edge, dim−1)` and its range spans voxels
//! `c·edge ..= min((c+1)·edge, dim−1)`: every voxel any sample based in the
//! cell can tap, clamped borders included, one voxel layer shared with the
//! next cell. (`mgpu_gpu::Texture3D::with_cells` states the same contract
//! from the sampling side.)
//!
//! A brick stores only the part of its padded box inside the volume, its
//! *window*; its texture clamps every tap into the window. The cells stay
//! keyed by the padded base index, which is what the kernel looks up, and
//! a cell's range is that of the window voxels its padded span clamps onto.
//!
//! The same spans name what a launch can read: given which cells a skip
//! grid calls occupied, [`MacroCells::rows`] gives per stored z-slab the run
//! of rows their spans reach, and a miss reads only those.

use std::ops::RangeInclusive;
use std::sync::Arc;

use crate::brickstore::{BrickData, Rows};

/// Cell edge in base indices (a power of two: the kernel shifts by it).
///
/// Chosen by measurement — `mgpu-perf`, 8 s untraced runs at seeds 1 and 2 on
/// the 2-vCPU box, frames/s, the median of three alternated rounds:
///
/// | cells | `orbit_incore` | `plume_outofcore` |
/// |-------|----------------|-------------------|
/// | edge 8, classified on every launch | 83.9 / 88.8 | 372 / 395 |
/// | edge 8, classified per brick and transfer function | 87.6 / 89.2 | 435 / 430 |
/// | edge 4, classified per brick and transfer function | 98.3 / 97.3 | 440 / 425 |
///
/// Smaller cells hug the data more tightly, and the in-core march gains a
/// tenth. They were too dear while every launch classified and
/// distance-transformed its cells — eight times as many at edge 4, 2.6 K →
/// 18.5 K for a 130×130×66 brick — and the out-of-core frame lost more than
/// the march gained. The renderer now does that once per brick and transfer
/// function (`RenderBrick::stage`): traced `volren.map_ms` on
/// `plume_outofcore` reads 2.4 ms at edge 4 and 2.5 at edge 8, against 3.4
/// when every launch classified at edge 8 (medians of four runs). The brick
/// keeps its table and the grids of its last four transfer functions, so
/// frames that alternate two cost what frames under one do
/// (`plume_outofcore`-shaped frames, 2.9–3.2 ms either way on the same box).
/// The cost moves to a transfer function the brick has not kept: its
/// classification, ≈ 0.46 ms a 4 MiB brick at edge 4, so frames under a
/// new function each time took 5.0–6.1 ms (3.1–3.3 ms while every launch
/// classified at edge 8).
const CELL_EDGE: usize = 4;

/// The `[min, max]` table of one brick. Plain shared data, like the voxels.
#[derive(Debug, Clone)]
pub struct MacroCells {
    /// Base indices per cell along each axis.
    pub edge: usize,
    /// `[min, max]` per cell, x fastest, `ceil(max(dim − 1, 1) / edge)`
    /// cells per axis. NaN voxels are skipped by the comparisons (a sample
    /// that taps one is NaN whatever its other taps hold, and contributes
    /// nothing); a cell holding nothing else keeps `[+∞, −∞]`.
    pub ranges: Arc<Vec<[f32; 2]>>,
    /// The brick the table was built over: its stored array's dims, where
    /// that sits in the padded index space, and that space's dims.
    stored: [usize; 3],
    window: [usize; 3],
    padded: [usize; 3],
}

/// Inclusive stored span of cell `c` along axis `a`, for a `stored` array at
/// `window` in a padded index space of `dims`: the cell's padded span
/// `c·edge ..= min((c+1)·edge, dim−1)`, clamped into the window as the
/// texture clamps a tap.
fn span(
    c: usize,
    a: usize,
    stored: [usize; 3],
    window: [usize; 3],
    dims: [usize; 3],
) -> RangeInclusive<usize> {
    let at = |i: usize| i.clamp(window[a], window[a] + stored[a] - 1) - window[a];
    at(c * CELL_EDGE)..=at(((c + 1) * CELL_EDGE).min(dims[a] - 1))
}

impl MacroCells {
    /// Cells per axis over a padded index space of `dims`.
    fn per_axis(dims: [usize; 3]) -> [usize; 3] {
        dims.map(|d| d.saturating_sub(1).max(1).div_ceil(CELL_EDGE))
    }

    /// Cells per axis.
    pub fn dims(&self) -> [usize; 3] {
        Self::per_axis(self.padded)
    }

    /// The table of `brick`, which must hold every row of its stored box:
    /// [`MacroCells::build`] over its voxels, window and padded box.
    pub fn of(brick: &BrickData) -> MacroCells {
        debug_assert!(
            brick.rows.is_all(),
            "cells built from a brick that holds only some of its rows"
        );
        let (_, dims) = brick.info.padded(brick.ghost);
        MacroCells::build(&brick.voxels, brick.store_dims, brick.window(), dims)
    }

    /// The rows of the stored array that a sample based in an `occupied`
    /// cell (by cell coordinates) can tap: per z-slab, from the first to
    /// the last row that the spans of the occupied cells over it reach.
    pub fn rows(&self, occupied: impl Fn([usize; 3]) -> bool) -> Rows {
        let n = self.dims();
        let span = |c: usize, a: usize| span(c, a, self.stored, self.window, self.padded);
        // Per slab, `[first, end)` of the rows reached; none while first > end.
        let mut runs = vec![[usize::MAX, 0]; self.stored[2]];
        for cz in 0..n[2] {
            for cy in 0..n[1] {
                if !(0..n[0]).any(|cx| occupied([cx, cy, cz])) {
                    continue;
                }
                let ys = span(cy, 1);
                for [first, end] in &mut runs[span(cz, 2)] {
                    (*first, *end) = ((*first).min(*ys.start()), (*end).max(ys.end() + 1));
                }
            }
        }
        Rows::new(
            self.stored[1],
            runs.into_iter().map(|[first, end]| first..end),
        )
    }

    /// One pass over `voxels`, the `stored` array (x fastest) at `window` in
    /// the padded index space of `dims` the table is keyed over. A cell
    /// row's voxel rows are folded element-wise into one row of running
    /// minima and maxima — branch-free compares over contiguous floats,
    /// which vectorize, three rows to a pass over the accumulators (a full
    /// cell spans nine) — and only that one row is then reduced along x.
    /// The candidate is always the *first* operand of the compare, so a NaN
    /// candidate loses and the accumulator survives.
    pub fn build(
        voxels: &[f32],
        stored: [usize; 3],
        window: [usize; 3],
        dims: [usize; 3],
    ) -> MacroCells {
        let [dx, dy, dz] = stored;
        assert_eq!(voxels.len(), dx * dy * dz, "voxels do not match dims");
        assert!(dx > 0 && dy > 0 && dz > 0, "degenerate brick dims");
        let n = Self::per_axis(dims);
        let span = |c: usize, a: usize| span(c, a, stored, window, dims);
        let min = |v: f32, acc: f32| if v < acc { v } else { acc };
        let max = |v: f32, acc: f32| if v > acc { v } else { acc };

        let mut ranges = Vec::with_capacity(n[0] * n[1] * n[2]);
        let mut lo = vec![0f32; dx];
        let mut hi = vec![0f32; dx];
        for cz in 0..n[2] {
            for cy in 0..n[1] {
                lo.fill(f32::INFINITY);
                hi.fill(f32::NEG_INFINITY);
                let ys = span(cy, 1);
                for z in span(cz, 2) {
                    // The cell row's voxel rows in one plane are contiguous.
                    let rows = &voxels[(z * dy + ys.start()) * dx..(z * dy + ys.end() + 1) * dx];
                    let mut triples = rows.chunks_exact(3 * dx);
                    for triple in &mut triples {
                        let (a, rest) = triple.split_at(dx);
                        let (b, c) = rest.split_at(dx);
                        let accs = lo.iter_mut().zip(hi.iter_mut());
                        for ((((l, h), &a), &b), &c) in accs.zip(a).zip(b).zip(c) {
                            *l = min(c, min(b, min(a, *l)));
                            *h = max(c, max(b, max(a, *h)));
                        }
                    }
                    for row in triples.remainder().chunks_exact(dx) {
                        for ((l, h), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(row) {
                            *l = min(v, *l);
                            *h = max(v, *h);
                        }
                    }
                }
                for cx in 0..n[0] {
                    let (mut a, mut b) = (f32::INFINITY, f32::NEG_INFINITY);
                    for x in span(cx, 0) {
                        a = a.min(lo[x]);
                        b = b.max(hi[x]);
                    }
                    ranges.push([a, b]);
                }
            }
        }
        MacroCells {
            edge: CELL_EDGE,
            ranges: Arc::new(ranges),
            stored,
            window,
            padded: dims,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute force straight from the definition.
    fn brute(voxels: &[f32], dims: [usize; 3]) -> Vec<[f32; 2]> {
        let n = MacroCells::per_axis(dims);
        let mut out = Vec::new();
        for cz in 0..n[2] {
            for cy in 0..n[1] {
                for cx in 0..n[0] {
                    let c = [cx, cy, cz];
                    let (mut a, mut b) = (f32::INFINITY, f32::NEG_INFINITY);
                    for z in 0..dims[2] {
                        for y in 0..dims[1] {
                            for x in 0..dims[0] {
                                let p = [x, y, z];
                                let inside = (0..3).all(|i| {
                                    p[i] >= c[i] * CELL_EDGE && p[i] <= (c[i] + 1) * CELL_EDGE
                                });
                                let v = voxels[(z * dims[1] + y) * dims[0] + x];
                                if inside && !v.is_nan() {
                                    a = a.min(v);
                                    b = b.max(v);
                                }
                            }
                        }
                    }
                    out.push([a, b]);
                }
            }
        }
        out
    }

    fn noise(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 2654435761) % 1009) as f32 / 1008.0 - 0.25)
            .collect()
    }

    #[test]
    fn table_matches_brute_force_over_awkward_dims() {
        for dims in [
            [1, 1, 1],
            [2, 1, 3],
            [9, 9, 9],
            [10, 10, 10],
            [17, 8, 18],
            [26, 3, 11],
        ] {
            let mut voxels = noise(dims[0] * dims[1] * dims[2]);
            // Specials: NaN is ignored — in every row of a three-row fold and
            // in a leftover row — infinities are kept.
            for row in [0, 1, 2, 5, 9] {
                if let Some(v) = voxels.get_mut(row * dims[0] + row % dims[0]) {
                    *v = f32::NAN;
                }
            }
            if voxels.len() > 40 {
                voxels[17] = f32::INFINITY;
                voxels[33] = f32::NEG_INFINITY;
                voxels[40] = -1e6;
            }
            let cells = MacroCells::build(&voxels, dims, [0; 3], dims);
            let want = brute(&voxels, dims);
            assert_eq!(cells.ranges.len(), want.len(), "{dims:?}");
            for (i, (got, want)) in cells.ranges.iter().zip(&want).enumerate() {
                assert_eq!(
                    got.map(f32::to_bits),
                    want.map(f32::to_bits),
                    "cell {i} of {dims:?}"
                );
            }
        }
    }

    #[test]
    fn a_windowed_table_is_the_table_of_the_clamped_padded_box() {
        // (stored, window, dims): clipped on no side, on the low side, on
        // the high side, on both, and windows a cell edge or more inside.
        for (stored, window, dims) in [
            ([9, 9, 9], [0, 0, 0], [9, 9, 9]),
            ([9, 10, 3], [1, 0, 1], [10, 12, 5]),
            ([17, 8, 16], [1, 1, 0], [19, 10, 18]),
            ([5, 26, 11], [12, 0, 3], [19, 27, 14]),
            ([1, 1, 2], [2, 0, 1], [3, 2, 4]),
        ] {
            let voxels = noise(stored[0] * stored[1] * stored[2]);
            let at = |a: usize, i: usize| i.clamp(window[a], window[a] + stored[a] - 1) - window[a];
            let mut padded = Vec::new();
            for z in 0..dims[2] {
                for y in 0..dims[1] {
                    for x in 0..dims[0] {
                        padded
                            .push(voxels[(at(2, z) * stored[1] + at(1, y)) * stored[0] + at(0, x)]);
                    }
                }
            }
            let cells = MacroCells::build(&voxels, stored, window, dims);
            let want = MacroCells::build(&padded, dims, [0; 3], dims);
            assert_eq!(
                cells.ranges.len(),
                MacroCells::per_axis(dims).iter().product()
            );
            let bits = |c: &MacroCells| {
                c.ranges
                    .iter()
                    .map(|r| r.map(f32::to_bits))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                bits(&cells),
                bits(&want),
                "{stored:?} at {window:?} in {dims:?}"
            );
        }
    }

    /// Per slab, the hull of every stored row a sample based in an occupied
    /// cell taps — voxel by voxel, from the definition — is what `rows`
    /// reads; with every cell occupied that is every row.
    #[test]
    fn rows_hull_what_the_occupied_cells_tap() {
        for (stored, window, dims) in [
            ([9, 9, 9], [0, 0, 0], [9, 9, 9]),
            ([9, 10, 3], [1, 0, 1], [10, 12, 5]),
            ([17, 8, 16], [1, 1, 0], [19, 10, 18]),
            ([5, 26, 11], [12, 0, 3], [19, 27, 14]),
            ([1, 1, 2], [2, 0, 1], [3, 2, 4]),
        ] {
            let cells = MacroCells::build(
                &noise(stored[0] * stored[1] * stored[2]),
                stored,
                window,
                dims,
            );
            let n = cells.dims();
            assert!(cells.rows(|_| true).is_all());
            for seed in 0..8usize {
                let occupied = |c: [usize; 3]| {
                    (c[0] * 7 + c[1] * 13 + c[2] * 29 + seed * 5).is_multiple_of(seed + 2)
                };
                let at =
                    |a: usize, i: usize| i.clamp(window[a], window[a] + stored[a] - 1) - window[a];
                let mut want = vec![[usize::MAX, 0]; stored[2]];
                for c in
                    (0..n[0] * n[1] * n[2]).map(|i| [i % n[0], i / n[0] % n[1], i / (n[0] * n[1])])
                {
                    if !occupied(c) {
                        continue;
                    }
                    let taps =
                        |a: usize| c[a] * CELL_EDGE..=((c[a] + 1) * CELL_EDGE).min(dims[a] - 1);
                    for z in taps(2) {
                        for y in taps(1) {
                            let [first, end] = &mut want[at(2, z)];
                            (*first, *end) = ((*first).min(at(1, y)), (*end).max(at(1, y) + 1));
                        }
                    }
                }
                assert_eq!(
                    cells.rows(occupied),
                    Rows::new(stored[1], want.into_iter().map(|[first, end]| first..end)),
                    "seed {seed}: {stored:?} at {window:?} in {dims:?}"
                );
            }
        }
    }

    #[test]
    fn all_nan_cell_keeps_the_empty_range() {
        let cells = MacroCells::build(&[f32::NAN; 27], [3, 3, 3], [0; 3], [3, 3, 3]);
        assert_eq!(*cells.ranges, vec![[f32::INFINITY, f32::NEG_INFINITY]]);
    }
}
