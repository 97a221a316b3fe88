//! Min/max macrocells over a brick's ghost-padded box — the data half of
//! empty-space skipping. The renderer classifies each cell's value range
//! against the transfer function and jumps rays over the cells that cannot
//! contribute; this module only records the ranges, once per brick per
//! [`BrickStore`](crate::BrickStore): its first miss builds the table, and
//! the store keeps it across eviction for every later miss of that brick.
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

use std::sync::Arc;

/// Cell edge in base indices (a power of two: the kernel shifts by it).
///
/// Chosen by measurement — `mgpu-perf`, 8 s untraced runs at seeds 1 and 2 on
/// the 2-vCPU box, frames/s (the parent commit, without cells: 10.3 and 75):
///
/// | edge | `orbit_incore` | `plume_outofcore` |
/// |------|----------------|-------------------|
/// | 8    | 29.0 / 28.7    | 102.8 / 111.3     |
/// | 4    | 35.4 / 35.2    | 86.7 / 86.4       |
///
/// Smaller cells hug the data more tightly — the in-core march gains another
/// fifth — but every launch classifies and distance-transforms eight times
/// as many (2.6 K → 18.5 K for a 130×130×66 brick; traced `volren.map_ms`
/// on the out-of-core workload, whose eight launches a frame each pay for
/// it, 3.1 → 5.4 ms against the parent's 17.1), the miss builds a finer
/// table (`voldata.brick_get_miss_ms` 1.0 → 1.2–1.3 at edge 8, 1.4–1.5 at
/// edge 4) and the table is 4 % of the brick instead of 0.5 %. Edge 4 hands
/// back to the staging-bound workload most of what skipping earned it; 8
/// keeps both gains.
const CELL_EDGE: usize = 8;

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
}

impl MacroCells {
    /// Cells per axis over a padded index space of `dims`.
    fn dims(dims: [usize; 3]) -> [usize; 3] {
        dims.map(|d| d.saturating_sub(1).max(1).div_ceil(CELL_EDGE))
    }

    /// Bytes a table over `dims` will occupy (known before it is built, so
    /// a miss can reserve for it).
    pub fn bytes_for(dims: [usize; 3]) -> u64 {
        (Self::dims(dims).iter().product::<usize>() * 8) as u64
    }

    pub fn bytes(&self) -> u64 {
        (self.ranges.len() * 8) as u64
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
        let n = Self::dims(dims);
        // Inclusive stored span of cell `c` along axis `a`: its padded span,
        // clamped into the window as the texture clamps a tap.
        let span = |c: usize, a: usize| {
            let at = |i: usize| i.clamp(window[a], window[a] + stored[a] - 1) - window[a];
            at(c * CELL_EDGE)..=at(((c + 1) * CELL_EDGE).min(dims[a] - 1))
        };
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute force straight from the definition.
    fn brute(voxels: &[f32], dims: [usize; 3]) -> Vec<[f32; 2]> {
        let n = MacroCells::dims(dims);
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
            assert_eq!(cells.bytes(), MacroCells::bytes_for(dims));
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
            assert_eq!(cells.bytes(), MacroCells::bytes_for(dims));
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

    #[test]
    fn all_nan_cell_keeps_the_empty_range() {
        let cells = MacroCells::build(&[f32::NAN; 27], [3, 3, 3], [0; 3], [3, 3, 3]);
        assert_eq!(*cells.ranges, vec![[f32::INFINITY, f32::NEG_INFINITY]]);
    }
}
