//! The renderer's half of empty-space skipping: a brick's min/max
//! macrocells classified against the transfer function, turned into a grid
//! of distances to the nearest cell that can contribute — built once per
//! brick and transfer function (`RenderBrick::stage`), before the brick's
//! voxels are staged, or per launch for a texture that carries its own
//! cells. The grid's occupied cells also name the rows a launch can tap,
//! which are all a miss stages. The march rule that
//! reads it — and the argument that skipping is bit-exact — is in
//! [`crate::kernel`].

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

use mgpu_gpu::{MacroCells, Texture1D};

#[cfg(target_arch = "x86_64")]
use crate::kernel::{epi32, i32s};

/// How far outside its taps' `[min, max]` an f32 trilinear sample can land,
/// relative to the taps' magnitude `M`. In f32, `a + (b − a)·t` with
/// `t ∈ [0, 1]` is *not* bounded by `a` and `b`: taps −1e6 and 0.1 give
/// 0.125 at `t = 1`. (The sampler's `t = fx − floor(fx)` does reach 1.0, for
/// `fx = −1e-9`; clamp addressing makes both taps one voxel there, and
/// between distinct taps `t` stops at `1 − 2⁻²³`, which may well rule an
/// overshoot out — nothing here leans on that.) The blend's three roundings
/// leave it within `|b − a|·2u + M·u ≤ 5u·M` of the exact one (`u = 2⁻²⁴`),
/// which lies inside the range; the sampler nests three such blends, so a
/// sample is within `15u·M·(1 + O(u))` of `[min, max]`. `2⁻¹⁸ = 64u` leaves
/// a factor of four; `f32::MIN_POSITIVE` on top covers results that
/// underflow, where relative bounds stop holding.
const LERP_SLACK: f32 = 1.0 / (1 << 18) as f32;

/// Distance stored for "no occupied cell within reach" (and in the padding).
const FAR: u8 = u8::MAX;

/// Can no sample based in a cell with value range `[lo, hi]` contribute?
/// True iff the transfer function's alpha is exactly zero over the range
/// widened by the lerp slack. NaN voxels never reach `lo`/`hi` (the table's
/// comparisons skip them) and need not: a sample that taps one is NaN, and
/// a NaN sample classifies to a NaN alpha, which `a > 0.0` rejects. A cell
/// of nothing but NaN has the inverted range `[+∞, −∞]` and is empty. An
/// infinite voxel keeps its cell occupied.
fn is_empty(lut: &Texture1D, [lo, hi]: [f32; 2]) -> bool {
    if lo > hi {
        return true;
    }
    let magnitude = lo.abs().max(hi.abs());
    if !magnitude.is_finite() {
        return false;
    }
    let slack = magnitude * LERP_SLACK + f32::MIN_POSITIVE;
    lut.zero_alpha(lo - slack, hi + slack)
}

/// Per cell, the chessboard distance (in cells, saturating at 255) to the
/// nearest occupied cell; 0 marks an occupied cell. Every cell at chessboard
/// distance `< D` from a cell of distance `D` is empty: a cube of `2D − 1`
/// cells a side, whose faces [`SkipGrid::room`] measures.
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct SkipGrid {
    /// Padded by one [`FAR`] cell on every side, so the transform's
    /// neighbourhoods need no edge cases.
    dist: Vec<u8>,
    /// Last cell along each axis.
    last: [i32; 3],
    /// Padded strides of y and z (x is 1).
    stride: [usize; 2],
    /// `log2` of the cell edge.
    shift: u32,
    /// Cell edge in voxels.
    edge: f32,
}

impl SkipGrid {
    /// Classify `cells` against `lut`. `None` when no cell is empty: a
    /// dense volume or an everywhere-opaque transfer function pays for the
    /// classification pass and nothing after it.
    pub(crate) fn classify(cells: MacroCells<'_>, lut: &Texture1D) -> Option<SkipGrid> {
        let [nx, ny, nz] = cells.dims;
        let stride = [nx + 2, (nx + 2) * (ny + 2)];
        let mut dist = vec![FAR; stride[1] * (nz + 2)];
        let mut any_empty = false;
        let mut ranges = cells.ranges.iter();
        // Neighbouring cells of open air share one range: ask once per run.
        let mut last = ([f32::NAN; 2], false);
        for z in 1..=nz {
            for y in 1..=ny {
                let row = z * stride[1] + y * stride[0] + 1;
                for (d, range) in dist[row..row + nx].iter_mut().zip(&mut ranges) {
                    if *range != last.0 {
                        last = (*range, is_empty(lut, *range));
                    }
                    if last.1 {
                        any_empty = true;
                    } else {
                        *d = 0;
                    }
                }
            }
        }
        if !any_empty {
            return None;
        }
        chessboard_transform(&mut dist, [nx, ny, nz]);
        Some(SkipGrid {
            dist,
            last: [nx as i32 - 1, ny as i32 - 1, nz as i32 - 1],
            stride,
            shift: cells.edge.trailing_zeros(),
            edge: cells.edge as f32,
        })
    }

    /// Whether the cell at `cell` (cells per axis, unpadded) is occupied:
    /// a sample based in it may contribute.
    pub(crate) fn occupied(&self, [x, y, z]: [usize; 3]) -> bool {
        self.dist[(z + 1) * self.stride[1] + (y + 1) * self.stride[0] + x + 1] == 0
    }

    /// The longest stretch, in voxels, a stored distance can vouch for: no
    /// [`SkipGrid::room`] from inside its cell exceeds it.
    pub(crate) fn longest_clear(&self) -> f32 {
        FAR as f32 * self.edge
    }

    /// The cell holding base index `base` along `axis`, unpadded. Cells are
    /// keyed by the base clamped into `[0, max(dim − 2, 0)]`; clamping the
    /// *cell* index instead is the same thing, the shift being monotone and
    /// the last cell the one that holds the last base.
    #[inline(always)]
    fn cell(&self, base: [i32; 3], axis: usize) -> i32 {
        (base[axis] >> self.shift).clamp(0, self.last[axis])
    }

    /// Distance of the cell holding base index `base` (as
    /// `mgpu_gpu::Site::base_index` reports it).
    #[inline(always)]
    pub(crate) fn distance(&self, base: [i32; 3]) -> u8 {
        let cell = |axis: usize| (self.cell(base, axis) + 1) as usize;
        self.dist[cell(2) * self.stride[1] + cell(1) * self.stride[0] + cell(0)]
    }

    /// Per axis, how far `at` — the sampler's own `p − ½`, whose floor is
    /// `base` — lies from the face a ray along `dir` leaves through, of the
    /// cube of cells within `distance − 1` of `base`'s cell: every cell of it
    /// is empty, and a later `p − ½` less than `room` further along every
    /// axis still floors into it. The low face where `dir`'s sign bit is set
    /// (−0.0 included), the high one otherwise. Inside its cell `at` is at
    /// most `distance` cell edges from either face; in the clamp fringe,
    /// past the grid's ends, it may be further, and a ray moving away from
    /// the grid there may get a negative room.
    #[inline(always)]
    pub(crate) fn room(
        &self,
        base: [i32; 3],
        distance: u8,
        at: [f32; 3],
        dir: [f32; 3],
    ) -> [f32; 3] {
        let d = i32::from(distance);
        [0, 1, 2].map(|axis| {
            let cell = self.cell(base, axis);
            if dir[axis].is_sign_negative() {
                at[axis] - (cell + 1 - d) as f32 * self.edge
            } else {
                (cell + d) as f32 * self.edge - at[axis]
            }
        })
    }

    /// Whether [`SkipGrid::distance_x8`] serves this grid: the padded table's
    /// indices fit an `i32` lane.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn fits_lanes(&self) -> bool {
        self.dist.len() <= i32::MAX as usize
    }

    /// [`SkipGrid::cell`] for eight base indices.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2")]
    fn cell_x8(&self, base: [__m256i; 3], axis: usize) -> __m256i {
        let c = _mm256_sra_epi32(base[axis], _mm_cvtsi32_si128(self.shift as i32));
        let c = _mm256_max_epi32(c, _mm256_setzero_si256());
        _mm256_min_epi32(c, _mm256_set1_epi32(self.last[axis]))
    }

    /// [`SkipGrid::distance`] for eight base indices (x, y and z as three
    /// registers, as `mgpu_gpu::texture::SiteX8::base_index` reports them):
    /// the same shift, clamp and strides per lane, then eight indexed byte
    /// loads — the table is `u8`, and a 32-bit gather over it would be this
    /// crate's second `unsafe` for little: with a grid that skips nothing
    /// (`micro_ops`' `bypass` launch) the whole lookup costs the lane march
    /// the same +9 % over `no_cells` it costs the scalar one.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn distance_x8(&self, base: [__m256i; 3]) -> __m256i {
        let cell = |axis: usize| _mm256_add_epi32(self.cell_x8(base, axis), _mm256_set1_epi32(1));
        let stride = |of: usize| _mm256_set1_epi32(self.stride[of] as i32);
        let at = _mm256_add_epi32(
            _mm256_add_epi32(
                _mm256_mullo_epi32(cell(2), stride(1)),
                _mm256_mullo_epi32(cell(1), stride(0)),
            ),
            cell(0),
        );
        epi32(&i32s(at).map(|cell| self.dist[cell as usize] as i32))
    }

    /// [`SkipGrid::room`] for eight lanes, `distance` as
    /// [`SkipGrid::distance_x8`] returns it: the same integers, converted
    /// and scaled by the same operations, and the face picked by `dir`'s
    /// sign bit.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) fn room_x8(
        &self,
        base: [__m256i; 3],
        distance: __m256i,
        at: [__m256; 3],
        dir: [__m256; 3],
    ) -> [__m256; 3] {
        let edge = _mm256_set1_ps(self.edge);
        let face = |cells: __m256i| _mm256_mul_ps(_mm256_cvtepi32_ps(cells), edge);
        [0, 1, 2].map(|axis| {
            let cell = self.cell_x8(base, axis);
            let low = face(_mm256_sub_epi32(
                _mm256_add_epi32(cell, _mm256_set1_epi32(1)),
                distance,
            ));
            let high = face(_mm256_add_epi32(cell, distance));
            _mm256_blendv_ps(
                _mm256_sub_ps(high, at[axis]),
                _mm256_sub_ps(at[axis], low),
                dir[axis],
            )
        })
    }
}

/// Two-pass chessboard (L∞) distance transform over the `dims` interior of a
/// grid padded by one cell: 0 stays 0, every other cell becomes its
/// chessboard distance to the nearest 0, saturating at [`FAR`]. The forward
/// raster scan relaxes each cell against the 13 neighbours that precede it,
/// the backward scan against the 13 that follow — exact for a metric whose
/// unit ball is the 26-neighbourhood itself. Reversing the padded array is a
/// point reflection of the grid, which turns successors into predecessors,
/// so the backward scan is the forward scan run on the reversed array.
fn chessboard_transform(dist: &mut [u8], dims: [usize; 3]) {
    forward_scan(dist, dims);
    dist.reverse();
    forward_scan(dist, dims);
    dist.reverse();
}

/// Relax every interior cell against its 13 raster-order predecessors. Twelve
/// of them sit in four earlier rows — three in each of `(z−1, y−1)`,
/// `(z−1, y)`, `(z−1, y+1)` and `(z, y−1)` — whose values are already final
/// for this scan, so their minimum is taken a whole row at a time; only the
/// thirteenth, the cell just before in the same row, is a serial dependence.
fn forward_scan(dist: &mut [u8], [nx, ny, nz]: [usize; 3]) {
    let (sy, sz) = (nx + 2, (nx + 2) * (ny + 2));
    let mut near = vec![FAR; nx];
    for z in 1..=nz {
        for y in 1..=ny {
            let row = z * sz + y * sy;
            near.fill(FAR);
            for earlier in [row - sz - sy, row - sz, row - sz + sy, row - sy] {
                let window = dist[earlier..earlier + sy].windows(3);
                for (n, w) in near.iter_mut().zip(window) {
                    *n = (*n).min(w[0]).min(w[1]).min(w[2]);
                }
            }
            let cells = &mut dist[row..row + sy];
            for x in 1..=nx {
                let nearest = near[x - 1].min(cells[x - 1]);
                cells[x] = cells[x].min(nearest.saturating_add(1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::TransferFunction;
    use mgpu_gpu::Texture3D;
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        #[test]
        fn transform_matches_brute_force_chessboard_distance(
            nx in 1usize..7,
            ny in 1usize..7,
            nz in 1usize..7,
            density in 0u64..6,
            seed in 0u64..u64::MAX,
        ) {
            let mut state = seed | 1;
            let mut occupied = Vec::new();
            let (sy, sz) = (nx + 2, (nx + 2) * (ny + 2));
            let mut dist = vec![FAR; sz * (nz + 2)];
            for z in 0..nz {
                for y in 0..ny {
                    for x in 0..nx {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        if (state >> 33) % 6 < density {
                            occupied.push([x, y, z]);
                            dist[(z + 1) * sz + (y + 1) * sy + x + 1] = 0;
                        }
                    }
                }
            }
            chessboard_transform(&mut dist, [nx, ny, nz]);
            for z in 0..nz {
                for y in 0..ny {
                    for x in 0..nx {
                        let want = occupied
                            .iter()
                            .map(|o| {
                                [x.abs_diff(o[0]), y.abs_diff(o[1]), z.abs_diff(o[2])]
                                    .into_iter()
                                    .max()
                                    .unwrap() as u8
                            })
                            .min()
                            .unwrap_or(FAR);
                        prop_assert_eq!(dist[(z + 1) * sz + (y + 1) * sy + x + 1], want);
                    }
                }
            }
            // The padding is never written.
            prop_assert!(dist[..sz].iter().all(|&d| d == FAR));
        }
    }

    proptest! {
        /// The contract between `MacroCells::build` (voldata), the sampler's
        /// base index (gpu) and the lerp slack (here): wherever a sample
        /// lands — interior, clamp fringe, far outside — its value lies in
        /// its cell's range widened by the slack, or is NaN.
        #[test]
        fn samples_stay_inside_their_cells_widened_range(
            dx in 1usize..21,
            dy in 1usize..21,
            dz in 1usize..21,
            seed in 0u64..u64::MAX,
            big in 0u32..3,
            flat in 0u32..2,
        ) {
            let mut state = seed | 1;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 40) as f32 / (1u64 << 24) as f32
            };
            let dims = [dx, dy, dz];
            // Magnitudes from 1 to 1e6 next to each other: the overshoot case,
            // which only shows where the small taps are also the cell's
            // extreme — so half the cases make them all equal.
            let voxels: Vec<f32> = (0..dx * dy * dz)
                .map(|_| match (next() * 16.0) as u32 {
                    0 if big > 0 => -1e6 * next(),
                    1 if big > 1 => 3e4,
                    2 => f32::NAN,
                    _ if flat == 1 => 0.076,
                    _ => next(),
                })
                .collect();
            let built = mgpu_voldata::MacroCells::build(&voxels, dims, [0; 3], dims);
            let tex = Texture3D::new(dims, voxels).with_cells(built.edge, built.ranges);
            let cells = tex.cells().unwrap();
            let smp = tex.sampler();
            for i in 0..600 {
                // Mostly inside, some on texel centres and faces, some out.
                let mut coord = |d: usize| match i % 5 {
                    0 => (next() * (d + 1) as f32).floor() + 0.5 - 1e-7 * (i % 3) as f32,
                    1 => next() * (d as f32 + 6.0) - 3.0,
                    _ => next() * d as f32,
                };
                let p = [coord(dx), coord(dy), coord(dz)];
                let site = smp.locate(p[0], p[1], p[2]);
                let value = smp.sample_at(&site);
                let base = site.base_index();
                let shift = cells.edge.trailing_zeros();
                let c = [0, 1, 2].map(|a| ((base[a] >> shift).clamp(0, cells.dims[a] as i32 - 1)) as usize);
                let [lo, hi] = cells.ranges[(c[2] * cells.dims[1] + c[1]) * cells.dims[0] + c[0]];
                let slack = lo.abs().max(hi.abs()) * LERP_SLACK + f32::MIN_POSITIVE;
                prop_assert!(
                    value.is_nan() || (value >= lo - slack && value <= hi + slack),
                    "sample {} at {:?} outside [{}, {}] ± {}", value, p, lo, hi, slack
                );
            }
        }
    }

    #[test]
    fn long_grids_saturate_instead_of_wrapping() {
        let n = 300;
        let mut dist = vec![FAR; (n + 2) * 9];
        dist[(n + 2) * 4 + 1] = 0; // cell (0, 0, 0)
        chessboard_transform(&mut dist, [n, 1, 1]);
        for x in 0..n {
            assert_eq!(dist[(n + 2) * 4 + x + 1], x.min(255) as u8, "cell {x}");
        }
    }

    fn one_cell(range: [f32; 2]) -> Texture3D {
        Texture3D::new([2, 2, 2], vec![0.0; 8]).with_cells(8, Arc::new(vec![range]))
    }

    #[test]
    fn classification_widens_ranges_and_respects_specials() {
        // bone: alpha is zero up to 0.08, positive after.
        let lut = TransferFunction::bone().bake();
        let empty = |range| SkipGrid::classify(one_cell(range).cells().unwrap(), &lut).is_some();
        assert!(empty([0.0, 0.05]));
        assert!(empty([-3.0, 0.0]));
        assert!(!empty([0.0, 0.2]));
        assert!(!empty([0.5, 0.9]));
        // Only NaN voxels: the table's inverted range.
        assert!(empty([f32::INFINITY, f32::NEG_INFINITY]));
        // Infinities keep a cell occupied, whatever the other bound.
        assert!(!empty([f32::NEG_INFINITY, 0.01]));
        assert!(!empty([0.0, f32::INFINITY]));
        assert!(!empty([f32::INFINITY, f32::INFINITY]));
        // The overshoot case: blending −1e6 with a just-transparent tap can
        // land above both, so the slack scales with the magnitude.
        assert!(empty([-1.0, 0.076]));
        assert!(!empty([-1e6, 0.076]));
        // A texture without cells has nothing to classify.
        assert!(Texture3D::new([2, 2, 2], vec![0.0; 8]).cells().is_none());
    }

    #[test]
    fn lookups_clamp_bases_into_the_grid() {
        let lut = TransferFunction::bone().bake();
        // 20 voxels → 19 bases → 3 cells along x; 1 cell along y and z.
        let ranges = vec![[0.0, 0.01], [0.0, 0.01], [0.5, 0.6]];
        let tex = Texture3D::new([20, 2, 2], vec![0.0; 80]).with_cells(8, Arc::new(ranges));
        let grid = SkipGrid::classify(tex.cells().unwrap(), &lut).expect("two empty cells");
        for (base, want) in [
            (i32::MIN, 2),
            (-1, 2),
            (0, 2),
            (7, 2),
            (8, 1),
            (15, 1),
            (16, 0),
            (18, 0),
            (19, 0),
            (i32::MAX, 0),
        ] {
            assert_eq!(grid.distance([base, -5, 99]), want, "base {base}");
        }
    }
}
