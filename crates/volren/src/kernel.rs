//! The ray-casting map kernel (§3.2), executed for real by the software GPU.
//!
//! Per thread: one pixel of the brick's sub-image. The ray is intersected
//! against the brick's bounding box; surviving rays march the brick at fixed
//! increments on a **global** sample grid (`t_k = (k + 0.5)·step`, identical
//! for every brick), sampling the 3-D texture trilinearly, classifying
//! through the 1-D transfer-function texture, accumulating front-to-back
//! with early ray termination. Threads with nothing to contribute emit the
//! sentinel placeholder — the paper's "every GPU thread must emit" rule.
//!
//! Two details make bricked rendering bit-compatible with unbricked:
//! * the global `t` grid means sample *positions* do not depend on how the
//!   volume was bricked;
//! * half-open segment ownership (`t ∈ [t_enter, t_exit)`) means each sample
//!   belongs to exactly one brick along the ray.
//!
//! The kernel implements **both** execution APIs of `mgpu-gpu`:
//! [`Kernel`] is the retained scalar reference path (one virtual call per
//! pixel, used by the equivalence oracles), and [`BlockKernel`] is the
//! production path — per *launch* it resolves the texture/LUT samplers, the
//! camera-eye slab invariants ([`SlabTest`]) and the classified macrocell
//! grid once ([`Launch`]); per row it hoists the image-plane coordinate; it
//! marches with the interior fast-path samplers, classifies alpha before
//! color, tallies once per ray, and interleaves each row's rays two at a
//! time to hide the sample chain's latency. Every value a ray computes is
//! produced by the same float operations in the same order as the scalar
//! path, so the `(Key, Fragment)` output and launch statistics are
//! bit-identical (pinned by `tests/batched_equivalence.rs` and
//! `tests/skip_equivalence.rs`).
//!
//! # Empty-space skipping
//!
//! Early ray termination leaves a ray at its *back*; the batched path also
//! leaves out what cannot contribute at its *front* and in between. A
//! brick staged by `mgpu_voldata::BrickStore` carries a min/max
//! **macrocell** table (attached with `Texture3D::with_cells`): per cube of
//! 8³ trilinear base indices, the range of every voxel a sample based there
//! can tap.
//!
//! * **Per launch**, each cell is classified *empty* iff the transfer
//!   function's alpha is exactly `0.0` over the cell's range, widened by a
//!   slack that covers f32 interpolation landing outside its taps
//!   (`Texture1D::zero_alpha`, an O(1) conservative query). A two-pass
//!   chessboard distance transform then gives every cell its distance `D`,
//!   in cells, to the nearest occupied one. If no cell is empty there is no
//!   grid, and the march below runs as if the texture had no cells.
//! * **Per sample**, the march computes the sample's position and base
//!   index as always, and looks up `D` for the cell holding that base. If
//!   `D = 0` it fetches. If `D ≥ 1` the cell is empty: the sample is not
//!   fetched and `k` advances by `1 + n`, `n` the largest count with
//!   `n·step·‖dir‖∞ ≤ (D − 1)·edge − margin` — every cell within `D − 1`
//!   of this one is empty, and a sample less than `D − 1` cell edges away
//!   along every axis is still inside one of them — clipped to the lattice
//!   points the ray has left. The sample it lands on tests its own cell
//!   again.
//!
//! **Why this is bit-exact.** The lattice `t_k = (k + ½)·step` is fixed, so
//! a jump changes which samples are *visited*, never where one is. A skipped
//! sample's value would have been inside its cell's widened range (or NaN),
//! so its alpha would have been exactly `0.0` (or NaN): the scalar loop's
//! `a > 0.0` test rejects it, and all it does is `samples += 1; k += 1` —
//! which is what a jump does `n` times at once. The margin
//! (`SKIP_MARGIN`) is an absolute distance that dominates the rounding
//! between "`n` steps further along the ray" and the base index the sampler
//! would compute there, so the guarantee also holds for a ray grazing a cell
//! face; a sample whose own cell is empty may always be skipped alone,
//! whatever the margin. The ray's last lattice point is found with the
//! scalar loop's own predicate (`lattice_end`), so a clipped jump charges
//! exactly the samples the scalar loop would have taken.
//!
//! **The modelled GPU does not skip.** The simulated 2010 device has no
//! macrocells: `BlockOut::samples` keeps charging every lattice point in
//! `[t₀, t₁)` up to termination, fetched or not, so `LaunchStats`, the DES
//! replay, `RenderReport` and every figure derived from them are
//! bit-identical to the scalar oracle's, and the scalar [`Kernel`] path
//! stays an independent oracle that shares no skipping code with its
//! subject. The consequence: the benchmark's `gpu.samples_per_frame` (a
//! *charged* count) does not drop. What the kernel really fetched is the
//! `volren.samples_fetched` counter.

use std::sync::{Arc, OnceLock};

use mgpu_gpu::{BlockCtx, BlockKernel, BlockOut, Kernel, Texture1D, Texture3D, ThreadCtx};
use mgpu_mapreduce::{Key, SENTINEL_KEY};
use mgpu_obs::{names, Counter};

use crate::camera::Camera;
use crate::composite::accumulate;
use crate::fragment::Fragment;
use crate::math::Vec3;
use crate::ray::{Ray, SlabTest};
use crate::skip::SkipGrid;

/// Alpha below which a fragment is considered empty and discarded.
pub const EMPTY_ALPHA: f32 = 1e-5;

/// The ray-cast kernel for one brick.
pub struct RayCastKernel<'a> {
    pub camera: &'a Camera,
    pub lut: &'a Texture1D,
    pub texture: &'a Texture3D,
    /// World coordinate of the stored array's origin (core origin − ghost).
    pub store_origin: Vec3,
    /// Brick core box in world (voxel) coordinates.
    pub core_lo: Vec3,
    pub core_hi: Vec3,
    /// Full image dimensions.
    pub image: (u32, u32),
    /// Sub-image (footprint) origin this launch covers.
    pub offset: (u32, u32),
    /// Step along the ray in voxel units (the global sample grid).
    pub step: f32,
    /// Early-ray-termination opacity threshold (≥ 1.0 disables).
    pub early_term: f32,
}

impl RayCastKernel<'_> {
    /// Whether opacity correction is needed (`step ≠ 1`).
    #[inline]
    fn needs_correction(&self) -> bool {
        (self.step - 1.0).abs() > 1e-6
    }
}

impl Kernel for RayCastKernel<'_> {
    type Out = (Key, Fragment);

    fn thread(&self, ctx: &mut ThreadCtx) -> (Key, Fragment) {
        let px = self.offset.0 + ctx.global.0;
        let py = self.offset.1 + ctx.global.1;
        // Padding threads outside the image emit placeholders.
        if px >= self.image.0 || py >= self.image.1 {
            return (SENTINEL_KEY, Fragment::default());
        }

        let ray = self.camera.ray(px, py, self.image.0, self.image.1);
        let Some((t0, t1)) = ray.intersect_aabb(self.core_lo, self.core_hi) else {
            return (SENTINEL_KEY, Fragment::default());
        };

        // First global sample index with t_k = (k + 0.5)·step ≥ t0.
        let mut k = (t0 / self.step - 0.5).ceil().max(0.0) as u64;
        let correct = self.needs_correction();
        let mut acc = [0f32; 4];
        let mut samples = 0u64;
        loop {
            let t = (k as f32 + 0.5) * self.step;
            if t >= t1 {
                break; // half-open ownership: t1 belongs to the next brick
            }
            let p = ray.at(t);
            let v = self.texture.sample(
                p.x - self.store_origin.x,
                p.y - self.store_origin.y,
                p.z - self.store_origin.z,
            );
            samples += 1;
            let rgba = self.lut.sample(v);
            let mut a = rgba[3];
            if correct && a > 0.0 {
                a = 1.0 - (1.0 - a).powf(self.step);
            }
            if a > 0.0 {
                accumulate(&mut acc, [rgba[0], rgba[1], rgba[2]], a);
                if acc[3] >= self.early_term {
                    break;
                }
            }
            k += 1;
        }
        // One tally per ray (not per sample): same LaunchStats totals, far
        // fewer context touches on the hot path.
        ctx.tally(samples);

        if acc[3] <= EMPTY_ALPHA {
            // "Ray fragments with no contributions are discarded."
            return (SENTINEL_KEY, Fragment::default());
        }
        let key = py * self.image.0 + px;
        (
            key,
            Fragment {
                color: acc,
                depth: t0,
                exit: t1,
            },
        )
    }
}

/// The batched production path: same rays, same lattice, same float ops per
/// fetched sample as the scalar impl above — restructured so per-launch
/// state ([`Launch`]) is resolved once per launch and the per-row image-plane
/// coordinate once per row. Rays are marched **two at a time**: a single
/// march is one serial dependency chain (position → fetch → classify →
/// blend), so interleaving two independent chains hides most of each other's
/// latency — the one-core analog of the warp-level latency hiding the paper
/// gets from the hardware scheduler. Interleaving reorders nothing within a
/// ray, so output stays bit-identical. Emits straight into the launch's SoA
/// buffers; sample counts are tallied once per ray.
impl<'a> BlockKernel for RayCastKernel<'a> {
    type Key = Key;
    type Value = Fragment;
    type Launch = Launch<'a>;

    fn prepare(&self) -> Launch<'a> {
        let grid = SkipGrid::classify(self.texture, self.lut);
        // Bounds the magnitude of every coordinate any position on any ray
        // of this launch is computed from (see `SKIP_MARGIN`). A sum, so
        // that a NaN or infinite input poisons it instead of being skipped.
        let reach: f32 = [
            self.camera.eye,
            self.store_origin,
            self.core_lo,
            self.core_hi,
        ]
        .iter()
        .map(|v| v.x.abs() + v.y.abs() + v.z.abs())
        .sum();
        let longest_clear = grid.as_ref().map_or(0.0, SkipGrid::longest_clear);
        Launch {
            smp: self.texture.sampler(),
            lut: self.lut.sampler(),
            slabs: SlabTest::new(self.camera.eye, self.core_lo, self.core_hi),
            step: self.step,
            correct: self.needs_correction(),
            early_term: self.early_term,
            ox: self.store_origin.x,
            oy: self.store_origin.y,
            oz: self.store_origin.z,
            grid,
            margin: SKIP_MARGIN * (reach + longest_clear),
        }
    }

    fn run_block(&self, launch: &Launch<'a>, ctx: &BlockCtx, out: BlockOut<'_, Key, Fragment>) {
        let (w, h) = self.image;
        let step = self.step;
        let mut rowq: Vec<March> = Vec::with_capacity(ctx.dim.0 as usize);
        let mut fetched = 0u64;

        for ty in 0..ctx.dim.1 {
            let row = ctx.index(0, ty);
            let py = self.offset.1 + ctx.block.1 * ctx.dim.1 + ty;
            if py >= h {
                // Whole row is padding below the image.
                for tx in 0..ctx.dim.0 {
                    out.keys[row + tx as usize] = SENTINEL_KEY;
                }
                continue;
            }
            let v = self.camera.ndc_v(py, h);

            // Pass 1: intersect the row's rays, queue the survivors.
            rowq.clear();
            for tx in 0..ctx.dim.0 {
                let i = row + tx as usize;
                out.keys[i] = SENTINEL_KEY;
                let px = self.offset.0 + ctx.block.0 * ctx.dim.0 + tx;
                if px >= w {
                    continue; // padding column; value/samples stay default
                }
                let ray = self.camera.ray_from_ndc(self.camera.ndc_u(px, w, h), v);
                let Some((t0, t1)) = launch.slabs.intersect(ray.dir) else {
                    continue;
                };
                rowq.push(March::new(i, py * w + px, ray, (t0, t1), step));
            }

            // Pass 2: march the survivors, paired for latency hiding.
            let mut pairs = rowq.chunks_exact_mut(2);
            for pair in &mut pairs {
                let (a, b) = pair.split_at_mut(1);
                launch.march_pair(&mut a[0], &mut b[0]);
            }
            if let [last] = pairs.into_remainder() {
                launch.march_solo(last);
            }

            for m in &rowq {
                out.samples[m.lane] = m.samples;
                fetched += m.fetched;
                if m.acc[3] > EMPTY_ALPHA {
                    out.keys[m.lane] = m.key;
                    out.values[m.lane] = Fragment {
                        color: m.acc,
                        depth: m.t0,
                        exit: m.t1,
                    };
                }
            }
        }
        if fetched > 0 {
            samples_fetched().add(fetched);
        }
    }
}

/// What the kernel really did, as opposed to what the modelled GPU is
/// charged: texture samples fetched, one add per block.
fn samples_fetched() -> &'static Counter {
    static FETCHED: OnceLock<Arc<Counter>> = OnceLock::new();
    FETCHED.get_or_init(|| mgpu_obs::global().counter(names::VOLREN_SAMPLES_FETCHED))
}

/// First lattice index `k ≥ k0` whose sample is at or past `t1`, decided by
/// the scalar loop's own predicate `(k as f32 + 0.5)·step >= t1` — which is
/// monotone in `k`, every operation in it being monotone under rounding — so
/// the lattice points a ray owns are exactly `k0 .. end`, and a jump clipped
/// to `end` charges exactly the samples the scalar loop would have taken.
fn lattice_end(k0: u64, t1: f32, step: f32) -> u64 {
    let past = |k: u64| (k as f32 + 0.5) * step >= t1;
    // An estimate at most a rounding error away, then the predicate decides.
    let mut k = ((t1 / step) as u64).max(k0);
    while !past(k) {
        k += 1;
    }
    while k > k0 && past(k - 1) {
        k -= 1;
    }
    k
}

/// One ray in flight through the batched march (`run_block` pass 2).
struct March {
    lane: usize,
    key: Key,
    ray: Ray,
    t0: f32,
    t1: f32,
    /// Next global sample index.
    k: u64,
    /// One past the last lattice index still to visit: [`lattice_end`] at
    /// first, pulled in to `k` when early ray termination fires.
    end: u64,
    /// Lattice samples per voxel of travel along the ray's dominant axis,
    /// `1 / (step · ‖dir‖∞)`: converts a skip distance into a sample count.
    samples_per_voxel: f32,
    acc: [f32; 4],
    /// Samples charged to the modelled GPU: every lattice point visited,
    /// fetched or skipped.
    samples: u64,
    /// Samples whose texture fetch actually ran.
    fetched: u64,
}

impl March {
    /// A ray about to take its first sample in `[t0, t1)`.
    fn new(lane: usize, key: Key, ray: Ray, (t0, t1): (f32, f32), step: f32) -> March {
        // First global sample index with t_k = (k + 0.5)·step ≥ t0.
        let k = (t0 / step - 0.5).ceil().max(0.0) as u64;
        let d = ray.dir;
        March {
            lane,
            key,
            ray,
            t0,
            t1,
            k,
            end: lattice_end(k, t1, step),
            samples_per_voxel: 1.0 / (step * d.x.abs().max(d.y.abs()).max(d.z.abs())),
            acc: [0.0; 4],
            samples: 0,
            fetched: 0,
        }
    }
}

/// Relative size of the skip margin: the margin is `SKIP_MARGIN · (reach +
/// longest jump)`, an absolute distance per launch. It has to dominate
/// every f32 rounding between "sample `k + n` lies `n·step·‖d‖∞` further
/// along the dominant axis than sample `k`" and the base indices the sampler
/// computes for the two. A stored position is `(eye + d·t) − origin` with
/// `t = (k + ½)·step`: four roundings, on `t`, `d·t`, the world position and
/// the stored one, none of a magnitude above `t ≤ √3·reach` or `reach` (the
/// sum of every `|coordinate|` of the eye, the array origin and the box
/// corners), so one position is within `(2√3 + 2)u·reach < 6u·reach` of the
/// exact ray (`u = 2⁻²⁴`) and two within `12u`; `p − ½` adds `u·reach` each.
/// The jump length — at most 255 cell edges, where distances saturate — goes
/// through four more
/// roundings. `2⁻¹⁸ = 64u` on the sum of both scales covers all of that four
/// times over, and being absolute it holds for a ray nearly parallel to a
/// cell face, where a bound relative to the distance from that face would
/// vanish. Non-finite geometry makes the margin non-finite, and every jump a
/// single step.
const SKIP_MARGIN: f32 = 1.0 / (1 << 18) as f32;

/// Per-launch march state — the software analogue of constant memory: the
/// resolved samplers, the slab invariants, the scalar config the inner loop
/// reads every sample, and the classified macrocell grid. Built once per
/// launch by [`BlockKernel::prepare`], shared read-only by every block.
pub struct Launch<'a> {
    smp: mgpu_gpu::Sampler3D<'a>,
    lut: mgpu_gpu::Sampler1D<'a>,
    slabs: SlabTest,
    step: f32,
    correct: bool,
    early_term: f32,
    ox: f32,
    oy: f32,
    oz: f32,
    /// `None`: no cells on the texture, or nothing skippable in them.
    grid: Option<SkipGrid>,
    /// See [`SKIP_MARGIN`].
    margin: f32,
}

impl Launch<'_> {
    /// Visit lattice point `m.k` (caller has checked `m.k < m.end`). If its
    /// macrocell is empty, charge it — and as many following points as
    /// provably lie in empty cells too — without fetching. Otherwise take
    /// the sample: exactly the per-sample float ops of the scalar
    /// [`Kernel::thread`] path, in the same order. The color lerps only run
    /// for samples that contribute — identical expressions when they do.
    #[inline(always)]
    fn sample_step(&self, m: &mut March) {
        let t = (m.k as f32 + 0.5) * self.step;
        let p = m.ray.at(t);
        let site = self.smp.locate(p.x - self.ox, p.y - self.oy, p.z - self.oz);
        if let Some(grid) = &self.grid {
            let distance = grid.distance(site.base_index());
            if distance != 0 {
                // Every cell within `distance − 1` of this one is empty, so
                // any sample whose base index is less than that many cell
                // edges away along every axis is too. (NaN compares false.)
                let clear = (distance - 1) as f32 * grid.edge - self.margin;
                let more = clear * m.samples_per_voxel;
                let more = if more > 0.0 { more as u64 } else { 0 };
                let n = more.saturating_add(1).min(m.end - m.k);
                m.samples += n;
                m.k += n;
                return;
            }
        }
        let val = self.smp.sample_at(&site);
        m.samples += 1;
        m.fetched += 1;
        let (c0, c1, f) = self.lut.taps(val);
        let mut a = c0[3] + (c1[3] - c0[3]) * f;
        if self.correct && a > 0.0 {
            a = 1.0 - (1.0 - a).powf(self.step);
        }
        if a > 0.0 {
            let rgb = [
                c0[0] + (c1[0] - c0[0]) * f,
                c0[1] + (c1[1] - c0[1]) * f,
                c0[2] + (c1[2] - c0[2]) * f,
            ];
            accumulate(&mut m.acc, rgb, a);
            if m.acc[3] >= self.early_term {
                m.end = m.k; // terminated: this sample was the ray's last
                return;
            }
        }
        m.k += 1;
    }

    /// March one ray to its exit (or early termination). Half-open
    /// ownership: the lattice point at `t1` belongs to the next brick.
    #[inline(always)]
    fn march_solo(&self, m: &mut March) {
        while m.k < m.end {
            self.sample_step(m);
        }
    }

    /// March two rays interleaved while both are active — two independent
    /// dependency chains in flight — then finish the survivor alone. Each
    /// ray still visits its own lattice points in its own order, so the
    /// result is bit-identical to two solo marches.
    #[inline(always)]
    fn march_pair(&self, a: &mut March, b: &mut March) {
        while a.k < a.end && b.k < b.end {
            self.sample_step(a);
            self.sample_step(b);
        }
        self.march_solo(a);
        self.march_solo(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::Scene;
    use crate::math::vec3;
    use crate::transfer::TransferFunction;
    use mgpu_gpu::{launch, LaunchConfig};
    use mgpu_voldata::Dataset;

    /// A uniform 8³ texture (with ghost padding) of constant density.
    fn flat_texture(value: f32) -> Texture3D {
        Texture3D::new([10, 10, 10], vec![value; 1000])
    }

    fn test_scene() -> Scene {
        let v = Dataset::Skull.volume(8);
        Scene::orbit(&v, 30.0, 20.0, TransferFunction::grayscale())
    }

    fn run_kernel(kernel: &RayCastKernel<'_>, w: u32, h: u32) -> Vec<(Key, Fragment)> {
        let out = launch(kernel, LaunchConfig::cover(w, h), 1);
        out.outputs
    }

    #[test]
    fn every_thread_emits_and_misses_are_sentinels() {
        let tex = flat_texture(0.5);
        let lut = TransferFunction::grayscale().bake();
        let scene = test_scene();
        let kernel = RayCastKernel {
            camera: &scene.camera,
            lut: &lut,
            texture: &tex,
            store_origin: vec3(-1.0, -1.0, -1.0),
            core_lo: Vec3::ZERO,
            core_hi: vec3(8.0, 8.0, 8.0),
            image: (64, 64),
            offset: (0, 0),
            step: 1.0,
            early_term: 1.1,
        };
        let outs = run_kernel(&kernel, 64, 64);
        assert_eq!(outs.len(), 64 * 64);
        let hits = outs.iter().filter(|(k, _)| *k != SENTINEL_KEY).count();
        let sentinels = outs.len() - hits;
        assert!(hits > 0, "no ray hit the box");
        assert!(sentinels > 0, "some padding/missing rays expected");
        for (k, f) in &outs {
            if *k != SENTINEL_KEY {
                assert!(*k < 64 * 64);
                assert!(f.color[3] > 0.0);
                assert!(f.depth >= 0.0);
            }
        }
    }

    #[test]
    fn denser_volume_yields_higher_alpha() {
        let lut = TransferFunction::grayscale().bake();
        let scene = test_scene();
        let mut alphas = Vec::new();
        for density in [0.2f32, 0.6] {
            let tex = flat_texture(density);
            let kernel = RayCastKernel {
                camera: &scene.camera,
                lut: &lut,
                texture: &tex,
                store_origin: vec3(-1.0, -1.0, -1.0),
                core_lo: Vec3::ZERO,
                core_hi: vec3(8.0, 8.0, 8.0),
                image: (32, 32),
                offset: (0, 0),
                step: 1.0,
                early_term: 1.1,
            };
            let outs = run_kernel(&kernel, 32, 32);
            let best = outs
                .iter()
                .filter(|(k, _)| *k != SENTINEL_KEY)
                .map(|(_, f)| f.color[3])
                .fold(0f32, f32::max);
            alphas.push(best);
        }
        assert!(alphas[1] > alphas[0]);
    }

    #[test]
    fn early_termination_reduces_samples() {
        let tex = flat_texture(1.0); // fully opaque everywhere
        let lut = TransferFunction::grayscale().bake();
        let scene = test_scene();
        let base = RayCastKernel {
            camera: &scene.camera,
            lut: &lut,
            texture: &tex,
            store_origin: vec3(-1.0, -1.0, -1.0),
            core_lo: Vec3::ZERO,
            core_hi: vec3(8.0, 8.0, 8.0),
            image: (32, 32),
            offset: (0, 0),
            step: 1.0,
            early_term: 1.1,
        };
        let no_et = launch(&base, LaunchConfig::cover(32, 32), 1).stats;
        let with_et = RayCastKernel {
            early_term: 0.95,
            ..base
        };
        let et = launch(&with_et, LaunchConfig::cover(32, 32), 1).stats;
        assert!(
            et.total_samples < no_et.total_samples,
            "ET must cut samples: {} vs {}",
            et.total_samples,
            no_et.total_samples
        );
    }

    #[test]
    fn offset_launch_covers_sub_image() {
        let tex = flat_texture(0.5);
        let lut = TransferFunction::grayscale().bake();
        let scene = test_scene();
        let kernel = RayCastKernel {
            camera: &scene.camera,
            lut: &lut,
            texture: &tex,
            store_origin: vec3(-1.0, -1.0, -1.0),
            core_lo: Vec3::ZERO,
            core_hi: vec3(8.0, 8.0, 8.0),
            image: (64, 64),
            offset: (16, 16),
            step: 1.0,
            early_term: 1.1,
        };
        let outs = run_kernel(&kernel, 32, 32);
        for (k, _) in outs.iter().filter(|(k, _)| *k != SENTINEL_KEY) {
            let x = k % 64;
            let y = k / 64;
            assert!((16..48).contains(&x), "x {x} outside sub-image");
            assert!((16..48).contains(&y), "y {y} outside sub-image");
        }
    }

    #[test]
    fn empty_volume_emits_only_sentinels() {
        let tex = flat_texture(0.0);
        let lut = TransferFunction::bone().bake(); // air is transparent
        let scene = test_scene();
        let kernel = RayCastKernel {
            camera: &scene.camera,
            lut: &lut,
            texture: &tex,
            store_origin: vec3(-1.0, -1.0, -1.0),
            core_lo: Vec3::ZERO,
            core_hi: vec3(8.0, 8.0, 8.0),
            image: (32, 32),
            offset: (0, 0),
            step: 1.0,
            early_term: 1.1,
        };
        let outs = run_kernel(&kernel, 32, 32);
        assert!(outs.iter().all(|(k, _)| *k == SENTINEL_KEY));
    }

    /// A staged 40³ Skull as one brick, with its cells attached.
    fn celled_skull() -> (Texture3D, Vec3) {
        let volume = Dataset::Skull.volume(40);
        let voxels = volume.materialize_clamped([-1, -1, -1], [42, 42, 42]);
        let cells = mgpu_voldata::MacroCells::build(&voxels, [42, 42, 42]);
        let texture = Texture3D::new([42, 42, 42], voxels).with_cells(cells.edge, cells.ranges);
        (texture, vec3(40.0, 40.0, 40.0))
    }

    /// The invariant behind bit-exactness, checked where it is made rather
    /// than through pixels (a wrongly skipped sample only shows if it also
    /// happens to be visible): every lattice sample a jump passes over has
    /// a base index — computed exactly as the sampler would — in a cell the
    /// grid calls empty, and every jump stays on the ray's own lattice span.
    #[test]
    fn every_skipped_sample_lies_in_an_empty_cell() {
        let (texture, hi) = celled_skull();
        let lut = TransferFunction::bone().bake();
        // Orbit views, plus eyes placed on cell faces in base-index space
        // (stored p − ½ a multiple of 8) looking along them.
        let mut cameras: Vec<Camera> = [(0.0, 0.0), (30.0, 20.0), (271.0, -48.0), (90.0, 89.0)]
            .iter()
            .map(|&(az, el)| {
                let v = Dataset::Skull.volume(40);
                Scene::orbit(&v, az, el, TransferFunction::bone()).camera
            })
            .collect();
        for (eye, target) in [
            (vec3(-70.0, 7.5, 15.5), vec3(40.0, 7.5, 15.5)),
            (vec3(15.5, 23.5, 150.0), vec3(15.5, 23.5, 0.0)),
            (vec3(-0.5, -90.0, 31.5), vec3(20.0, 20.0, 31.5)),
        ] {
            cameras.push(Camera::look_at(eye, target, vec3(0.2, 0.3, 0.9), 30.0));
        }
        let (mut jumps, mut skipped, mut longest) = (0u64, 0u64, 0u64);
        for camera in &cameras {
            for step in [1.0f32, 0.37, 1.0 / 16.0, 2.3] {
                let kernel = RayCastKernel {
                    camera,
                    lut: &lut,
                    texture: &texture,
                    store_origin: vec3(-1.0, -1.0, -1.0),
                    core_lo: Vec3::ZERO,
                    core_hi: hi,
                    image: (48, 48),
                    offset: (0, 0),
                    step,
                    early_term: 0.98,
                };
                let launch = kernel.prepare();
                let grid = launch.grid.as_ref().expect("air around the skull");
                for py in 0..48 {
                    for px in 0..48 {
                        let ray = camera.ray(px, py, 48, 48);
                        let Some((t0, t1)) = launch.slabs.intersect(ray.dir) else {
                            continue;
                        };
                        let mut m = March::new(0, 0, ray, (t0, t1), step);
                        let k = m.k;
                        let end = m.end;
                        assert!(k == end || ((end - 1) as f32 + 0.5) * step < t1);
                        assert!((end as f32 + 0.5) * step >= t1);
                        while m.k < m.end {
                            let (from, fetched) = (m.k, m.fetched);
                            launch.sample_step(&mut m);
                            if m.fetched != fetched {
                                continue;
                            }
                            assert!(m.k > from && m.k <= end, "jump left the lattice span");
                            jumps += 1;
                            skipped += m.k - from;
                            longest = longest.max(m.k - from);
                            for j in from..m.k {
                                let p = m.ray.at((j as f32 + 0.5) * step);
                                let site = launch.smp.locate(
                                    p.x - launch.ox,
                                    p.y - launch.oy,
                                    p.z - launch.oz,
                                );
                                assert_ne!(
                                    grid.distance(site.base_index()),
                                    0,
                                    "sample {j} of a jump {from}..{} at step {step} is in an \
                                     occupied cell",
                                    m.k
                                );
                            }
                        }
                        assert_eq!(m.samples, m.k - k + u64::from(m.end < end));
                    }
                }
            }
        }
        assert!(
            jumps > 10_000 && skipped > jumps,
            "{jumps} jumps, {skipped} skipped"
        );
        assert!(longest > 100, "longest jump {longest}");
    }

    #[test]
    fn no_grid_without_cells_or_without_empty_cells() {
        let (texture, hi) = celled_skull();
        let scene = test_scene();
        let fog = TransferFunction::from_points(
            "fog",
            vec![
                crate::transfer::ControlPoint {
                    value: 0.0,
                    rgba: [1.0, 1.0, 1.0, 0.01],
                },
                crate::transfer::ControlPoint {
                    value: 1.0,
                    rgba: [1.0, 1.0, 1.0, 0.5],
                },
            ],
        )
        .bake();
        let bone = TransferFunction::bone().bake();
        let bare = flat_texture(0.0);
        for (texture, lut, expect) in [
            (&texture, &bone, true),
            (&texture, &fog, false),
            (&bare, &bone, false),
        ] {
            let kernel = RayCastKernel {
                camera: &scene.camera,
                lut,
                texture,
                store_origin: vec3(-1.0, -1.0, -1.0),
                core_lo: Vec3::ZERO,
                core_hi: hi,
                image: (32, 32),
                offset: (0, 0),
                step: 1.0,
                early_term: 0.98,
            };
            assert_eq!(kernel.prepare().grid.is_some(), expect);
        }
    }
}
