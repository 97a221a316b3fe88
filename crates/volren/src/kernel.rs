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
//! camera basis, the eye's slab invariants against the brick box, the
//! classified macrocell grid and which march to run, once ([`Launch`]); per
//! block it sets its rays up eight pixels at a time, queues every surviving
//! ray and hands the queue to one of two marches, both of which use the
//! borrowing samplers, classify alpha before color and tally once per ray.
//!
//! # Ray setup
//!
//! Pass 1 of a block — per pixel: the direction `Camera::ray` would give,
//! the slab test of `Ray::intersect_aabb`, the first lattice index
//! `k₀ = ⌈t₀/step − ½⌉` and `lattice_end` — runs over chunks of eight
//! consecutive pixels of a block row (`Launch::setup_rays`): one loop over
//! structure-of-arrays lanes with no branch in its body, which LLVM
//! vectorises at the baseline target, on every CPU, without an intrinsic.
//! The slab test's early exits become selects (`t₀` only grows and `t₁`
//! only shrinks, and neither is ever NaN, so a ray misses iff an axis it
//! is parallel to misses or `t₀ > t₁` after all three). `k₀` and the
//! lattice end are `i32`s: SSE2 has no vector `ceil` and Rust's saturating
//! `as i32` does not vectorise, so `⌈x⌉` is the nearest integer read off
//! `x + 2²³`'s bits, plus one where that fell short. **Guard:** a ray whose
//! `t₁/step` is not below 2²³ (where that rounding is exact), or whose
//! `lattice_end` loops would not each stop within one step of their
//! estimate, is set up by `March::new`, the scalar code. **Why the bits
//! cannot change:** every value is computed by the scalar path's float
//! operations in its order — no fused multiply-add, `f32::max`/`min` with
//! the accumulator first, as `intersect_aabb` has them, which fixes the
//! sign of `max(0.0, −0.0)` that reaches `Fragment::depth` — integers
//! replace `u64`s only where both are exact, and the survivors are queued
//! in row-major order, so pass 2 sees the queue it always did.
//!
//! # Two marches
//!
//! * **Lanes** (`march_lanes`; `x86_64` with AVX2, detected at run time):
//!   the paper's kernel is SIMT — a warp marches in lockstep, masks the
//!   lanes that are done, and the texture units filter for all of it at
//!   once. Here eight rays advance per iteration in 256-bit registers: all
//!   lanes compute `t`, position, `floor`, base index and cell distance;
//!   lanes in an empty cell jump under a mask; the rest gather their taps
//!   (`mgpu_gpu::Sampler3D::sample_at_x8`), classify, and blend under a
//!   mask. **A lane is refilled from the block's queue in the iteration its
//!   ray ends** — early termination and skipping make ray lengths uneven,
//!   and a lane left idle until its seven neighbours finish would waste most
//!   of the width.
//! * **Solo** (`march_solo` over `sample_step`): scalar code, one ray at a
//!   time. The path for every other CPU, for launches the guards below turn
//!   away and for single rays the lanes hand off, and the in-crate reference
//!   the lane march is tested against.
//!
//! **Guards.** Lanes keep lattice, cell and texel indices as `i32` and find
//! a base index with a truncating convert, which is Rust's saturating cast
//! only in range. So a launch takes the solo march unless `reach` — the sum
//! of every `|coordinate|` of eye, array origin and box corners, which
//! bounds every position any ray computes — is below 2²⁸ (a comparison a
//! non-finite camera fails), `step ≥ 2⁻¹⁰` (jump counts stay far inside
//! `i32`; the wire admits ≥ 1/16), and texture, LUT and grid are small
//! enough to index (< 2³⁰ texels); within a lane launch, a single ray whose
//! lattice reaches index 2³⁰ is marched by `march_solo`. All of it is read
//! off the launch's inputs; there is no switch.
//!
//! **Why lane order cannot change a ray's result.** A ray's state is its
//! own: `k`, `end`, the accumulated color, its direction. No operation in
//! either march reads another ray's state, every value a ray computes is
//! produced by the float operations of the scalar [`Kernel`] path in that
//! path's order (a multiply then an add, never a fused one; `powf` stays a
//! scalar call per lane), and what a masked-off lane computes is discarded.
//! So which rays share an iteration, which lane one sits in and when it
//! entered decide only *when* a value is computed, never what it is: the
//! `(Key, Fragment)` output, `out.samples` and the launch statistics are
//! bit-identical across both marches and the scalar path (pinned by
//! `tests/batched_equivalence.rs`, `tests/skip_equivalence.rs` and this
//! module's three-way proptest).
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

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::sync::{Arc, OnceLock};

use mgpu_gpu::{BlockCtx, BlockKernel, BlockOut, Kernel, Texture1D, Texture3D, ThreadCtx};
use mgpu_mapreduce::{Key, SENTINEL_KEY};
use mgpu_obs::{names, Counter};

use crate::camera::Camera;
use crate::composite::accumulate;
use crate::fragment::Fragment;
use crate::math::{vec3, Vec3};
use crate::skip::SkipGrid;

/// Alpha below which a fragment is considered empty and discarded.
pub(crate) const EMPTY_ALPHA: f32 = 1e-5;

/// The ray-cast kernel for one brick.
pub struct RayCastKernel<'a> {
    pub camera: &'a Camera,
    pub lut: &'a Texture1D,
    pub texture: &'a Texture3D,
    /// World coordinate of the texture's index origin: the ghost-padded
    /// brick's corner (core origin − ghost).
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
/// coordinate once per row. A block sets its rays up, queues the survivors,
/// and marches the whole queue eight rays wide or one at a time (see the
/// module docs); neither reorders anything within a ray, so output stays
/// bit-identical. Emits straight into the launch's SoA buffers; sample
/// counts are tallied once per ray.
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
        let (eye, forward, right, up, tan_half_fov) = self.camera.raw_parts();
        let (lo, hi) = (self.core_lo, self.core_hi);
        let mut launch = Launch {
            smp: self.texture.sampler(),
            lut: self.lut.sampler(),
            eye: self.camera.eye,
            forward,
            right,
            up,
            tan_half_fov,
            aspect: self.image.0 as f32 / self.image.1 as f32,
            lo_m_eye: [0, 1, 2].map(|a| lo.get(a) - eye[a]),
            hi_m_eye: [0, 1, 2].map(|a| hi.get(a) - eye[a]),
            inside: [0, 1, 2].map(|a| !(eye[a] < lo.get(a) || eye[a] > hi.get(a))),
            step: self.step,
            correct: self.needs_correction(),
            early_term: self.early_term,
            ox: self.store_origin.x,
            oy: self.store_origin.y,
            oz: self.store_origin.z,
            grid,
            margin: SKIP_MARGIN * (reach + longest_clear),
            lanes: false,
        };
        launch.lanes = launch.fits_lanes(reach);
        launch
    }

    fn run_block(&self, launch: &Launch<'a>, ctx: &BlockCtx, out: BlockOut<'_, Key, Fragment>) {
        let (fetched, lane_slots) = self.march_block(launch, ctx, out);
        if fetched > 0 {
            obs().samples_fetched.add(fetched);
        }
        if lane_slots > 0 {
            obs().lane_slots.add(lane_slots);
        }
    }
}

impl RayCastKernel<'_> {
    /// [`BlockKernel::run_block`] short of its telemetry: returns what the
    /// block adds to `volren.samples_fetched` and `volren.lane_slots`.
    fn march_block(
        &self,
        launch: &Launch<'_>,
        ctx: &BlockCtx,
        out: BlockOut<'_, Key, Fragment>,
    ) -> (u64, u64) {
        let (w, h) = self.image;
        let mut queue: Vec<March> = Vec::with_capacity((ctx.dim.0 * ctx.dim.1) as usize);

        // Pass 1: set the block's rays up a chunk at a time, queue the
        // survivors. Padding threads keep their default value and samples.
        let px0 = self.offset.0 + ctx.block.0 * ctx.dim.0;
        let columns = ctx.dim.0.min(w.saturating_sub(px0));
        for ty in 0..ctx.dim.1 {
            let row = ctx.index(0, ty);
            out.keys[row..row + ctx.dim.0 as usize].fill(SENTINEL_KEY);
            let py = self.offset.1 + ctx.block.1 * ctx.dim.1 + ty;
            if py >= h {
                continue; // the whole row is padding below the image
            }
            for tx in (0..columns).step_by(CHUNK) {
                let n = (columns - tx).min(CHUNK as u32) as usize;
                launch.setup_rays(self.image, (px0 + tx, py), n, row + tx as usize, &mut queue);
            }
        }

        // Pass 2: march the survivors.
        let lane_slots = launch.march(&mut queue);

        let mut fetched = 0u64;
        for m in &queue {
            out.samples[m.thread] = m.samples;
            fetched += m.fetched;
            if m.acc[3] > EMPTY_ALPHA {
                out.keys[m.thread] = m.key;
                out.values[m.thread] = Fragment {
                    color: m.acc,
                    depth: m.t0,
                    exit: m.t1,
                };
            }
        }
        (fetched, lane_slots)
    }
}

/// What the kernel really did, as opposed to what the modelled GPU is
/// charged — one add per block each.
struct KernelObs {
    /// Texture samples fetched.
    samples_fetched: Arc<Counter>,
    /// Lane slots offered to fetches: 8 × the lane march's fetch iterations
    /// (zero from the solo march). `samples_fetched ÷ lane_slots` is the
    /// fetch occupancy.
    lane_slots: Arc<Counter>,
}

fn obs() -> &'static KernelObs {
    static OBS: OnceLock<KernelObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = mgpu_obs::global();
        KernelObs {
            samples_fetched: reg.counter(names::VOLREN_SAMPLES_FETCHED),
            lane_slots: reg.counter(names::VOLREN_LANE_SLOTS),
        }
    })
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

/// One ray of a block's queue (`run_block` pass 2). Every ray of a launch
/// starts at the camera eye, which the [`Launch`] holds once.
struct March {
    /// The block thread this ray belongs to: its index into [`BlockOut`].
    thread: usize,
    key: Key,
    dir: Vec3,
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
    fn new(thread: usize, key: Key, dir: Vec3, (t0, t1): (f32, f32), step: f32) -> March {
        // First global sample index with t_k = (k + 0.5)·step ≥ t0.
        let k = (t0 / step - 0.5).ceil().max(0.0) as u64;
        March {
            thread,
            key,
            dir,
            t0,
            t1,
            k,
            end: lattice_end(k, t1, step),
            samples_per_voxel: 1.0 / (step * dir.x.abs().max(dir.y.abs()).max(dir.z.abs())),
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
/// resolved samplers, what ray setup reads for every pixel, the scalar
/// config the inner loop reads every sample, the classified macrocell grid,
/// and which march the launch's blocks run. Built once per launch by
/// [`BlockKernel::prepare`], shared read-only by every block.
pub struct Launch<'a> {
    smp: mgpu_gpu::Sampler3D<'a>,
    lut: mgpu_gpu::Sampler1D<'a>,
    /// Every ray's origin.
    eye: Vec3,
    /// The camera's basis and field of view, and the image's `width /
    /// height`: what `Camera::ray` turns a pixel into a direction with.
    forward: [f32; 3],
    right: [f32; 3],
    up: [f32; 3],
    tan_half_fov: f32,
    aspect: f32,
    /// Per axis, the brick box's `lo − eye` and `hi − eye`, and whether the
    /// eye lies inside the axis slab (which decides a ray parallel to it).
    lo_m_eye: [f32; 3],
    hi_m_eye: [f32; 3],
    inside: [bool; 3],
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
    /// Whether blocks run the lane march: AVX2 was detected and the
    /// launch's inputs pass the guards (module docs).
    lanes: bool,
}

/// Rays the lane march keeps in flight: the 32-bit lanes of a 256-bit
/// register.
#[cfg(target_arch = "x86_64")]
const LANES: usize = 8;

/// A ray enters a lane only if its whole lattice span indexes below this,
/// so `k`, `end`, `end − k` and a clipped jump all fit an `i32` lane with
/// room to add.
#[cfg(target_arch = "x86_64")]
const LANE_END_MAX: u64 = 1 << 30;

/// Ray setup finds a ray's lattice span itself only if its `t₁/step` is
/// below this (2²³), where [`nearest`] is exact.
const SETUP_END_MAX: f32 = 8_388_608.0;

/// Pixels ray setup takes at once: a chunk of one block row.
const CHUNK: usize = 8;

/// The integer nearest `x` (ties to even), for `0 ≤ x < 2²³`: adding 2²³
/// leaves the sum no bits below the unit, so its mantissa is the integer.
/// A bit cast where `x as i32` would be a saturating convert, which LLVM
/// does not vectorise.
#[inline(always)]
fn nearest(x: f32) -> i32 {
    ((x + SETUP_END_MAX).to_bits() - SETUP_END_MAX.to_bits()) as i32
}

impl Launch<'_> {
    /// Pass 1 for the `n ≤ CHUNK` pixels `(px0 + i, py)` of one block row,
    /// the first of them block thread `thread0` (module docs, *Ray setup*):
    /// queues, in column order, each ray that hits the brick box. The first
    /// loop computes every lane, padding included, and branches nowhere.
    fn setup_rays(
        &self,
        (w, h): (u32, u32),
        (px0, py): (u32, u32),
        n: usize,
        thread0: usize,
        queue: &mut Vec<March>,
    ) {
        let step = self.step;
        // `Camera::ndc_v`, and the row's `up · v`.
        let v = (1.0 - (py as f32 + 0.5) / h as f32 * 2.0) * self.tan_half_fov;
        let up_v = self.up.map(|c| c * v);
        let mut dir = [[0.0f32; CHUNK]; 3];
        let (mut t0, mut t1) = ([0.0f32; CHUNK], [0.0f32; CHUNK]);
        let (mut k, mut end) = ([0i32; CHUNK], [0i32; CHUNK]);
        let mut samples_per_voxel = [0.0f32; CHUNK];
        // Whether the direction normalises, the ray hits the box, and `k`
        // and `end` are its lattice span (if not, `March::new` finds it).
        let (mut normal, mut hit, mut spanned) = ([false; CHUNK], [false; CHUNK], [false; CHUNK]);
        for i in 0..CHUNK {
            // `Camera::ndc_u`, then `(forward + right·u + up·v).normalized()`.
            let px = px0.wrapping_add(i as u32);
            let u = ((px as f32 + 0.5) / w as f32 * 2.0 - 1.0) * self.tan_half_fov * self.aspect;
            let d = [0, 1, 2].map(|a| self.forward[a] + self.right[a] * u + up_v[a]);
            let length = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            normal[i] = length > 0.0;
            let d = d.map(|c| c / length);

            // `Ray::intersect_aabb`, its branches as selects.
            let (mut near, mut far, mut miss) = (0.0f32, f32::INFINITY, false);
            for (a, &da) in d.iter().enumerate() {
                // The slab's entry and exit, in order.
                let (s0, s1) = (self.lo_m_eye[a] / da, self.hi_m_eye[a] / da);
                let (s0, s1) = if s0 > s1 { (s1, s0) } else { (s0, s1) };
                let parallel = da.abs() < 1e-12;
                miss |= parallel & !self.inside[a];
                near = if parallel { near } else { near.max(s0) };
                far = if parallel { far } else { far.min(s1) };
            }
            hit[i] = !(miss | (near > far));

            // `March::new`'s `k₀` and `lattice_end` from its estimate `e`,
            // each of whose loops may step once. What either rounds to 0 (a
            // negative or NaN quotient), or what the guard turns away, is 0.
            let fits = far / step < SETUP_END_MAX;
            let (x, y) = (near / step - 0.5, far / step);
            let x = if fits & (x > 0.0) { x } else { 0.0 };
            let y = if fits & (y > 0.0) { y } else { 0.0 };
            let (rx, ry) = (nearest(x), nearest(y));
            let k0 = rx + i32::from((rx as f32) < x);
            let e = (ry - i32::from((ry as f32) > y)).max(k0);
            let past = |k: i32| (k as f32 + 0.5) * step >= far;
            let rise = !past(e);
            let fall = !rise & (e > k0) & past(e - 1);
            // Whether either loop would step a second time.
            let walks_on = (rise & !past(e + 1)) | (fall & (e - 1 > k0) & past(e - 2));
            spanned[i] = fits & !walks_on;
            (k[i], end[i]) = (k0, e + i32::from(rise) - i32::from(fall));
            samples_per_voxel[i] = 1.0 / (step * d[0].abs().max(d[1].abs()).max(d[2].abs()));
            (t0[i], t1[i]) = (near, far);
            for a in 0..3 {
                dir[a][i] = d[a];
            }
        }
        assert!(normal[..n].iter().all(|&ok| ok), "normalizing zero vector");
        for i in (0..n).filter(|&i| hit[i]) {
            let (thread, key) = (thread0 + i, py * w + px0 + i as u32);
            let dir = vec3(dir[0][i], dir[1][i], dir[2][i]);
            queue.push(if spanned[i] {
                March {
                    thread,
                    key,
                    dir,
                    t0: t0[i],
                    t1: t1[i],
                    k: k[i] as u64,
                    end: end[i] as u64,
                    samples_per_voxel: samples_per_voxel[i],
                    acc: [0.0; 4],
                    samples: 0,
                    fetched: 0,
                }
            } else {
                March::new(thread, key, dir, (t0[i], t1[i]), step)
            });
        }
    }

    /// The march decision (module docs, *Guards*). `reach` as `prepare`
    /// computes it; every comparison is written so that a NaN fails it.
    #[cfg(target_arch = "x86_64")]
    fn fits_lanes(&self, reach: f32) -> bool {
        std::arch::is_x86_feature_detected!("avx2")
            && reach < (1u32 << 28) as f32
            && self.step >= 1.0 / (1u32 << 10) as f32
            && self.smp.fits_lanes()
            && self.lut.fits_lanes()
            && self.grid.as_ref().is_none_or(SkipGrid::fits_lanes)
    }

    /// No lane march on this architecture.
    #[cfg(not(target_arch = "x86_64"))]
    fn fits_lanes(&self, _reach: f32) -> bool {
        false
    }

    /// March every ray of a block's queue to its exit (or early
    /// termination), by the march this launch decided on. Returns the lane
    /// slots offered to fetches (0 from the solo march).
    fn march(&self, queue: &mut [March]) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if self.lanes {
            #[allow(unsafe_code)] // the crate's one exception, see lib.rs
            // SAFETY: `lanes` is private and only ever set by `prepare`,
            // from `fits_lanes`, which is false unless
            // `is_x86_feature_detected!("avx2")` said this CPU runs AVX2 —
            // the one feature `march_lanes` is compiled for.
            return unsafe { self.march_lanes(queue) };
        }
        for m in queue {
            self.march_solo(m);
        }
        0
    }

    /// Visit lattice point `m.k` (caller has checked `m.k < m.end`). If its
    /// macrocell is empty, charge it — and as many following points as
    /// provably lie in empty cells too — without fetching. Otherwise take
    /// the sample: exactly the per-sample float ops of the scalar
    /// [`Kernel::thread`] path, in the same order. The color lerps only run
    /// for samples that contribute — identical expressions when they do.
    #[inline(always)]
    fn sample_step(&self, m: &mut March) {
        let t = (m.k as f32 + 0.5) * self.step;
        let p = self.eye + m.dir * t;
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

    /// March one ray to its exit (or early termination): the scalar march
    /// (module docs, *Two marches*). Half-open ownership: the lattice point
    /// at `t1` belongs to the next brick.
    #[inline(always)]
    fn march_solo(&self, m: &mut March) {
        while m.k < m.end {
            self.sample_step(m);
        }
    }
}

/// The lanes' state while it is out of registers: the lane march spills
/// here when a ray ends, [`Launch::refill`] swaps rays in and out, and the
/// march loads it back.
#[cfg(target_arch = "x86_64")]
struct LaneFile {
    /// Per lane, its ray's index in the queue; [`VACANT`] for none.
    ray: [usize; LANES],
    dir: [[f32; LANES]; 3],
    samples_per_voxel: [f32; LANES],
    /// `k` and `end` of a vacant lane are both 0: never live.
    k: [i32; LANES],
    end: [i32; LANES],
    acc: [[f32; LANES]; 4],
    fetched: [i32; LANES],
}

/// [`LaneFile::ray`] of a lane without a ray.
#[cfg(target_arch = "x86_64")]
const VACANT: usize = usize::MAX;

/// A register's lanes as an array, lane 0 first (a vector store, once
/// optimised).
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
pub(crate) fn i32s(v: __m256i) -> [i32; LANES] {
    [
        _mm256_extract_epi32::<0>(v),
        _mm256_extract_epi32::<1>(v),
        _mm256_extract_epi32::<2>(v),
        _mm256_extract_epi32::<3>(v),
        _mm256_extract_epi32::<4>(v),
        _mm256_extract_epi32::<5>(v),
        _mm256_extract_epi32::<6>(v),
        _mm256_extract_epi32::<7>(v),
    ]
}

#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn f32s(v: __m256) -> [f32; LANES] {
    i32s(_mm256_castps_si256(v)).map(|bits| f32::from_bits(bits as u32))
}

/// An array as a register's lanes (a vector load, once optimised).
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
pub(crate) fn epi32(a: &[i32; LANES]) -> __m256i {
    _mm256_setr_epi32(a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7])
}

#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn ps(a: &[f32; LANES]) -> __m256 {
    _mm256_setr_ps(a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7])
}

#[cfg(target_arch = "x86_64")]
impl Launch<'_> {
    /// March the queue's rays eight at a time (module docs, *Two marches*).
    /// Each iteration is `sample_step` for every live lane at once — the
    /// same expressions in the same order, a branch of it taken under a mask
    /// where the scalar code takes it with a jump — followed, when a lane's
    /// ray has ended, by a refill from the queue. Returns the lane slots
    /// offered to fetches: 8 per iteration in which some lane fetched.
    #[target_feature(enable = "avx2")]
    fn march_lanes(&self, queue: &mut [March]) -> u64 {
        let (zero, half, one) = (
            _mm256_setzero_ps(),
            _mm256_set1_ps(0.5),
            _mm256_set1_ps(1.0),
        );
        let (zero_i, one_i) = (_mm256_setzero_si256(), _mm256_set1_epi32(1));
        let step = _mm256_set1_ps(self.step);
        let early_term = _mm256_set1_ps(self.early_term);
        let margin = _mm256_set1_ps(self.margin);
        let eye = [self.eye.x, self.eye.y, self.eye.z].map(|c| _mm256_set1_ps(c));
        let origin = [self.ox, self.oy, self.oz].map(|c| _mm256_set1_ps(c));
        let bits = |mask: __m256i| _mm256_movemask_ps(_mm256_castsi256_ps(mask)) as u32;

        let mut file = LaneFile {
            ray: [VACANT; LANES],
            dir: [[0.0; LANES]; 3],
            samples_per_voxel: [0.0; LANES],
            k: [0; LANES],
            end: [0; LANES],
            acc: [[0.0; LANES]; 4],
            fetched: [0; LANES],
        };
        // Queue cursor, and which lanes hold a ray.
        let (mut next, mut occupied) = (0usize, 0u32);
        let mut slots = 0u64;

        let mut dir = [zero; 3];
        let mut samples_per_voxel = zero;
        let (mut k, mut end) = (zero_i, zero_i);
        let mut acc = [zero; 4];
        let mut fetched = zero_i;
        loop {
            // Half-open ownership: a lane is live while `k < end`.
            let mut live = _mm256_cmpgt_epi32(end, k);
            let idle = !bits(live) & 0xff;
            if idle & occupied != 0 || (idle != 0 && next < queue.len()) {
                file.k = i32s(k);
                file.end = i32s(end);
                file.acc = [f32s(acc[0]), f32s(acc[1]), f32s(acc[2]), f32s(acc[3])];
                file.fetched = i32s(fetched);
                for lane in (0..LANES).filter(|lane| idle >> lane & 1 == 1) {
                    self.refill(&mut file, lane, queue, &mut next);
                }
                occupied = (0..LANES).fold(0, |m, l| m | u32::from(file.ray[l] != VACANT) << l);
                dir = [ps(&file.dir[0]), ps(&file.dir[1]), ps(&file.dir[2])];
                samples_per_voxel = ps(&file.samples_per_voxel);
                k = epi32(&file.k);
                end = epi32(&file.end);
                acc = [
                    ps(&file.acc[0]),
                    ps(&file.acc[1]),
                    ps(&file.acc[2]),
                    ps(&file.acc[3]),
                ];
                fetched = epi32(&file.fetched);
                live = _mm256_cmpgt_epi32(end, k);
            }
            if occupied == 0 {
                return slots;
            }

            let t = _mm256_mul_ps(_mm256_add_ps(_mm256_cvtepi32_ps(k), half), step);
            let stored = |axis: usize| {
                let world = _mm256_add_ps(eye[axis], _mm256_mul_ps(dir[axis], t));
                _mm256_sub_ps(world, origin[axis])
            };
            let site = self.smp.locate_x8(stored(0), stored(1), stored(2));

            // Lanes in an empty cell jump; the others fetch.
            let mut fetch = live;
            if let Some(grid) = &self.grid {
                let distance = grid.distance_x8(site.base_index());
                let empty = _mm256_and_si256(live, _mm256_cmpgt_epi32(distance, zero_i));
                if bits(empty) != 0 {
                    let clear = _mm256_sub_ps(
                        _mm256_mul_ps(
                            _mm256_cvtepi32_ps(_mm256_sub_epi32(distance, one_i)),
                            _mm256_set1_ps(grid.edge),
                        ),
                        margin,
                    );
                    let more = _mm256_mul_ps(clear, samples_per_voxel);
                    // `if more > 0.0 { more as u64 } else { 0 }`: `max`
                    // returns its second operand for a NaN or a negative
                    // first, and saturating at 2³⁰ is as good as at 2⁶⁴ — no
                    // lane has that many samples left.
                    let more = _mm256_max_ps(more, zero);
                    let more = _mm256_min_ps(more, _mm256_set1_ps(LANE_END_MAX as f32));
                    let n = _mm256_add_epi32(_mm256_cvttps_epi32(more), one_i);
                    let n = _mm256_min_epi32(n, _mm256_sub_epi32(end, k));
                    k = _mm256_add_epi32(k, _mm256_and_si256(n, empty));
                    fetch = _mm256_andnot_si256(empty, live);
                }
            }
            if bits(fetch) == 0 {
                continue;
            }
            slots += LANES as u64;

            let val = self.smp.sample_at_x8(&site);
            fetched = _mm256_sub_epi32(fetched, fetch);
            let taps = self.lut.taps_x8(val);
            let f = taps.frac();
            let lerp = |(c0, c1): (__m256, __m256)| {
                _mm256_add_ps(c0, _mm256_mul_ps(_mm256_sub_ps(c1, c0), f))
            };
            let mut a = lerp(taps.channel::<3>());
            // Lanes whose sample contributes: fetched, and `a > 0.0`.
            let visible = |a: __m256| {
                _mm256_and_ps(
                    _mm256_castsi256_ps(fetch),
                    _mm256_cmp_ps::<_CMP_GT_OQ>(a, zero),
                )
            };
            let mut hit = visible(a);
            if self.correct && _mm256_movemask_ps(hit) != 0 {
                let mut corrected = f32s(a);
                let hits = _mm256_movemask_ps(hit);
                for lane in (0..LANES).filter(|lane| hits >> lane & 1 == 1) {
                    corrected[lane] = 1.0 - (1.0 - corrected[lane]).powf(self.step);
                }
                a = ps(&corrected);
                hit = visible(a);
            }

            // Lanes whose ray this sample terminates.
            let mut done = zero_i;
            if _mm256_movemask_ps(hit) != 0 {
                let rgb = [
                    lerp(taps.channel::<0>()),
                    lerp(taps.channel::<1>()),
                    lerp(taps.channel::<2>()),
                ];
                // `accumulate`, under the mask.
                let w = _mm256_mul_ps(_mm256_sub_ps(one, acc[3]), a);
                for c in 0..3 {
                    let blended = _mm256_add_ps(acc[c], _mm256_mul_ps(rgb[c], w));
                    acc[c] = _mm256_blendv_ps(acc[c], blended, hit);
                }
                acc[3] = _mm256_blendv_ps(acc[3], _mm256_add_ps(acc[3], w), hit);
                let opaque = _mm256_cmp_ps::<_CMP_GE_OQ>(acc[3], early_term);
                done = _mm256_castps_si256(_mm256_and_ps(hit, opaque));
            }
            // Terminated: this sample was the ray's last. Otherwise step on.
            end = _mm256_blendv_epi8(end, k, done);
            k = _mm256_sub_epi32(k, _mm256_andnot_si256(done, fetch));
        }
    }

    /// `lane`'s ray has ended (or it never had one): write the ray's result
    /// back to the queue, then give the lane the queue's next ray that has
    /// anything to sample, or leave it vacant.
    fn refill(&self, file: &mut LaneFile, lane: usize, queue: &mut [March], next: &mut usize) {
        if let Some(m) = queue.get_mut(file.ray[lane]) {
            let (k, end) = (file.k[lane] as u64, file.end[lane] as u64);
            // Every visit but a terminating fetch moved `k`, by what it
            // charged; termination pulled `end` in.
            m.samples = k - m.k + u64::from(end < m.end);
            m.fetched = file.fetched[lane] as u64;
            m.acc = [0, 1, 2, 3].map(|c| file.acc[c][lane]);
            (m.k, m.end) = (k, end);
        }
        file.ray[lane] = VACANT;
        (file.k[lane], file.end[lane]) = (0, 0);
        while let Some(m) = queue.get_mut(*next) {
            *next += 1;
            if m.end >= LANE_END_MAX {
                self.march_solo(m);
            } else if m.k < m.end {
                file.ray[lane] = *next - 1;
                for axis in 0..3 {
                    file.dir[axis][lane] = m.dir.get(axis);
                }
                file.samples_per_voxel[lane] = m.samples_per_voxel;
                (file.k[lane], file.end[lane]) = (m.k as i32, m.end as i32);
                for c in 0..4 {
                    file.acc[c][lane] = 0.0;
                }
                file.fetched[lane] = 0;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::Scene;
    use crate::transfer::TransferFunction;
    use mgpu_gpu::{launch, LaunchConfig};
    use mgpu_voldata::Dataset;
    use proptest::prelude::*;

    /// A uniform 8³ texture (with ghost padding) of constant density.
    fn flat_texture(value: f32) -> Texture3D {
        Texture3D::new([10, 10, 10], vec![value; 1000])
    }

    fn test_scene() -> Scene {
        let v = Dataset::Skull.volume(8);
        Scene::orbit(&v, 30.0, 20.0, TransferFunction::grayscale())
    }

    fn run_kernel(kernel: &RayCastKernel<'_>, w: u32, h: u32) -> Vec<(Key, Fragment)> {
        let out = launch(kernel, LaunchConfig::cover(w, h));
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
        let no_et = launch(&base, LaunchConfig::cover(32, 32)).stats;
        let with_et = RayCastKernel {
            early_term: 0.95,
            ..base
        };
        let et = launch(&with_et, LaunchConfig::cover(32, 32)).stats;
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

    /// A 40³ Skull as one brick, its ghost shell written out, with its
    /// cells attached.
    fn celled_skull() -> (Texture3D, Vec3) {
        let volume = Dataset::Skull.volume(40);
        let voxels = volume.materialize_clamped([-1, -1, -1], [42, 42, 42]);
        let cells = mgpu_voldata::MacroCells::build(&voxels, [42; 3], [0; 3], [42; 3]);
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
                        let Some((t0, t1)) = ray.intersect_aabb(Vec3::ZERO, hi) else {
                            continue;
                        };
                        let mut m = March::new(0, 0, ray.dir, (t0, t1), step);
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
                                let p = ray.at((j as f32 + 0.5) * step);
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

    /// What `SKIP_MARGIN` is for, on one ray along +x (step 1, so one
    /// sample per voxel): sample 0's base is the last voxel of empty cell 0,
    /// two cells short of an occupied one, and sample 8 — exactly one cell
    /// edge further, so analytically still in empty cell 1 — rounds onto
    /// cell 2's first base (its stored `x = 16.5 − 2⁻²⁰` is a tie, broken to
    /// the even 16.5). Without the margin the jump from sample 0 would be
    /// 1 + 8 steps and pass over sample 8.
    #[test]
    fn the_skip_margin_stops_a_jump_short_of_a_rounded_sample() {
        // Stored x ≥ 17 dense: bases 0..=15 tap only zeros, so cells 0 and 1
        // are empty and cell 0 is at distance 2 from occupied cell 2.
        let dims = [34, 10, 10];
        let voxels = (0..dims[0] * dims[1] * dims[2])
            .map(|i| if i % dims[0] >= 17 { 1.0 } else { 0.0 })
            .collect();
        let texture = with_built_cells(dims, voxels);
        let lut = TransferFunction::bone().bake();
        let eye = vec3(7.0 - 2f32.powi(-20), 4.0, 4.0);
        let camera = Camera::look_at(eye, vec3(30.0, 4.0, 4.0), vec3(0.0, 0.0, 1.0), 30.0);
        let kernel = RayCastKernel {
            camera: &camera,
            lut: &lut,
            texture: &texture,
            store_origin: vec3(-1.0, -1.0, -1.0),
            core_lo: Vec3::ZERO,
            core_hi: vec3(32.0, 8.0, 8.0),
            image: (1, 1),
            offset: (0, 0),
            step: 1.0,
            early_term: 0.98,
        };
        let launch = kernel.prepare();
        let ray = camera.ray(0, 0, 1, 1);
        assert_eq!(ray.dir, vec3(1.0, 0.0, 0.0));
        let base = |k: u64| {
            let p = ray.at(k as f32 + 0.5) - vec3(launch.ox, launch.oy, launch.oz);
            launch.smp.locate(p.x, p.y, p.z).base_index()
        };
        assert_eq!((base(0), base(8)), ([7, 4, 4], [16, 4, 4]));
        let grid = launch.grid.as_ref().expect("empty cells");
        assert_eq!((grid.distance(base(0)), grid.distance(base(8))), (2, 0));

        let (t0, t1) = ray.intersect_aabb(Vec3::ZERO, kernel.core_hi).unwrap();
        let mut m = March::new(0, 0, ray.dir, (t0, t1), 1.0);
        assert_eq!(m.k, 0);
        launch.sample_step(&mut m);
        assert_eq!((m.k, m.fetched), (8, 0), "the jump must stop at sample 8");
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

    /// What one run of a launch's blocks produced: the SoA columns, and what
    /// the blocks would add to `volren.samples_fetched` / `.lane_slots`.
    struct Columns {
        keys: Vec<Key>,
        values: Vec<Fragment>,
        samples: Vec<u64>,
        fetched: u64,
        lane_slots: u64,
    }

    /// `launch_blocks`' serial loop, with the march `launch` says.
    fn run_blocks(kernel: &RayCastKernel<'_>, launch: &Launch<'_>, cfg: LaunchConfig) -> Columns {
        let tpb = cfg.threads_per_block();
        let mut c = Columns {
            keys: vec![Key::default(); cfg.total_threads()],
            values: vec![Fragment::default(); cfg.total_threads()],
            samples: vec![0; cfg.total_threads()],
            fetched: 0,
            lane_slots: 0,
        };
        for block in 0..cfg.blocks() {
            let span = block * tpb..(block + 1) * tpb;
            let ctx = BlockCtx {
                block: (block as u32 % cfg.grid.0, block as u32 / cfg.grid.0),
                dim: cfg.block,
            };
            let out = BlockOut {
                keys: &mut c.keys[span.clone()],
                values: &mut c.values[span.clone()],
                samples: &mut c.samples[span],
            };
            let (fetched, lane_slots) = kernel.march_block(launch, &ctx, out);
            c.fetched += fetched;
            c.lane_slots += lane_slots;
        }
        c
    }

    fn bits(f: &Fragment) -> [u32; 6] {
        let [r, g, b, a] = f.color.map(f32::to_bits);
        [r, g, b, a, f.depth.to_bits(), f.exit.to_bits()]
    }

    /// One launch three ways — the march `prepare` decides on (lanes, on an
    /// AVX2 host), the solo march, the scalar `launch` oracle — agreeing on
    /// keys, fragment *bits* (−0.0 is not +0.0, NaN payloads count), the
    /// samples charged per thread and the samples fetched. Returns the
    /// decided march's columns.
    fn three_way(kernel: &RayCastKernel<'_>, cfg: LaunchConfig) -> Result<Columns, String> {
        let decided = kernel.prepare();
        let mut solo = kernel.prepare();
        solo.lanes = false;
        let wide = run_blocks(kernel, &decided, cfg);
        let narrow = run_blocks(kernel, &solo, cfg);
        let oracle = launch(kernel, cfg);

        for (i, (key, frag)) in oracle.outputs.iter().enumerate() {
            if wide.keys[i] != *key || narrow.keys[i] != *key {
                return Err(format!(
                    "key at thread {i}: oracle {key}, solo {}, decided {}",
                    narrow.keys[i], wide.keys[i]
                ));
            }
            // All three leave a sentinel's value at its default.
            if bits(&wide.values[i]) != bits(frag) || bits(&narrow.values[i]) != bits(frag) {
                return Err(format!(
                    "fragment at thread {i}: oracle {frag:?}, solo {:?}, decided {:?}",
                    narrow.values[i], wide.values[i]
                ));
            }
            if wide.samples[i] != narrow.samples[i] {
                return Err(format!(
                    "samples at thread {i}: solo {}, decided {}",
                    narrow.samples[i], wide.samples[i]
                ));
            }
        }
        let charged: u64 = wide.samples.iter().sum();
        if charged != oracle.stats.total_samples {
            return Err(format!(
                "charged {charged}, oracle {}",
                oracle.stats.total_samples
            ));
        }
        if wide.fetched != narrow.fetched {
            return Err(format!(
                "fetched: solo {}, decided {}",
                narrow.fetched, wide.fetched
            ));
        }
        // Slots are offered by the lane march only, eight at a time.
        if narrow.lane_slots != 0
            || (wide.lane_slots > 0 && !(decided.lanes && wide.fetched > 0))
            || !wide.lane_slots.is_multiple_of(8)
        {
            return Err(format!(
                "lane slots {} / {} for {} fetches",
                wide.lane_slots, narrow.lane_slots, wide.fetched
            ));
        }
        Ok(wide)
    }

    fn lcg(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed | 1;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) as f32 / (1u64 << 24) as f32
        }
    }

    fn with_built_cells(dims: [usize; 3], voxels: Vec<f32>) -> Texture3D {
        let cells = mgpu_voldata::MacroCells::build(&voxels, dims, [0; 3], dims);
        Texture3D::new(dims, voxels).with_cells(cells.edge, cells.ranges)
    }

    /// The textures the lane march has to agree on, each with the transfer
    /// function that makes it what it is and its core box's far corner (the
    /// stored array starts at −1, one ghost voxel, except along a
    /// one-voxel-thick axis, which starts at 0).
    fn subject(kind: usize, seed: u64) -> (Texture3D, TransferFunction, Vec3, Vec3) {
        let ghost = vec3(-1.0, -1.0, -1.0);
        let noise = |dims: [usize; 3]| {
            let mut next = lcg(seed);
            (0..dims[0] * dims[1] * dims[2])
                .map(|_| next())
                .collect::<Vec<f32>>()
        };
        match kind {
            // No cells at all: every lattice sample fetched.
            0 => (
                Texture3D::new([14, 14, 14], noise([14, 14, 14])),
                TransferFunction::grayscale(),
                ghost,
                vec3(12.0, 12.0, 12.0),
            ),
            // A staged brick: air around bone, long jumps and single steps.
            1 => {
                let (texture, hi) = celled_skull();
                (texture, TransferFunction::bone(), ghost, hi)
            }
            // A brick as the store keeps it: stored without its border
            // ghosts, which the window's clamp supplies — on both x sides,
            // the high y side and the low z side of a 20³ Skull.
            5 => {
                let voxels = Dataset::Skull.volume(20).materialize_full();
                let (dims, window) = ([22, 21, 21], [1, 0, 1]);
                let cells = mgpu_voldata::MacroCells::build(&voxels, [20; 3], window, dims);
                let texture = Texture3D::windowed(dims, window, [20; 3], Arc::new(voxels))
                    .with_cells(cells.edge, cells.ranges);
                let origin = vec3(-1.0, 0.0, -1.0);
                (
                    texture,
                    TransferFunction::bone(),
                    origin,
                    vec3(20.0, 20.0, 20.0),
                )
            }
            // Cells, none of them empty: the grid is dropped per launch.
            2 => (
                with_built_cells([20, 14, 11], noise([20, 14, 11])),
                TransferFunction::grayscale(),
                ghost,
                vec3(18.0, 12.0, 9.0),
            ),
            // Nothing but air: every sample skipped, every sample charged.
            3 => (
                with_built_cells([26, 26, 26], vec![0.0; 26 * 26 * 26]),
                TransferFunction::bone(),
                ghost,
                vec3(24.0, 24.0, 24.0),
            ),
            // NaN, ±∞ and −1e6 next to just-transparent voxels (bone is
            // transparent below ≈ 0.0762): cells that are empty only thanks
            // to NaN being left out, cells the infinities keep occupied, and
            // the lerp that overshoots above both its taps.
            4 => {
                let dims = [28usize, 28, 28];
                let at = |x: usize, y: usize, z: usize| (z * dims[1] + y) * dims[0] + x;
                let mut data = vec![0.076f32; 28 * 28 * 28];
                let mut next = lcg(seed);
                for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -1e6, -1e6, 0.9] {
                    let mut c = || 1 + (next() * 26.0) as usize;
                    data[at(c(), c(), c())] = special;
                }
                for z in 10..14 {
                    for y in 10..14 {
                        data[at(11, y, z)] = f32::NAN;
                        data[at(12, y, z)] = 0.8;
                    }
                }
                (
                    with_built_cells(dims, data),
                    TransferFunction::bone(),
                    ghost,
                    vec3(26.0, 26.0, 26.0),
                )
            }
            // Alpha exactly 0.5 whatever the sample: at `step = 1` a ray's
            // opacity runs 0.5, 0.75, … in exact arithmetic, so it *equals*
            // an `early_term` of 0.5 after one sample — `≥`, not `>`.
            6 => (
                Texture3D::new([14, 14, 14], noise([14, 14, 14])),
                TransferFunction::from_points(
                    "half",
                    [0.0, 1.0]
                        .map(|value| crate::transfer::ControlPoint {
                            value,
                            rgba: [0.9, 0.6, 0.3, 0.5],
                        })
                        .to_vec(),
                ),
                ghost,
                vec3(12.0, 12.0, 12.0),
            ),
            // A box that overhangs its stored array by 6 voxels below and 8
            // above: samples in the clamp fringe, base indices past both
            // ends of the grid. The low corner is air, the rest is not.
            7 => {
                let mut next = lcg(seed);
                let voxel = |i: usize| {
                    let (x, y, z) = (i % 12, i / 12 % 12, i / 144);
                    let v = next();
                    if x.max(y).max(z) < 9 {
                        0.0
                    } else {
                        v
                    }
                };
                (
                    with_built_cells([12, 12, 12], (0..12 * 12 * 12).map(voxel).collect()),
                    TransferFunction::bone(),
                    vec3(6.0, 6.0, 6.0),
                    vec3(26.0, 26.0, 26.0),
                )
            }
            // One voxel thick along y, no ghost there: both y taps clamp
            // onto the one texel for every sample. Air in the low-x half.
            _ => (
                with_built_cells(
                    [18, 1, 12],
                    (noise([18, 1, 12]).iter().enumerate())
                        .map(|(i, v)| if i % 18 < 9 { 0.0 } else { *v })
                        .collect(),
                ),
                TransferFunction::bone(),
                vec3(-1.0, 0.0, -1.0),
                vec3(16.0, 1.0, 10.0),
            ),
        }
    }

    const STEPS: [f32; 4] = [1.0, 0.37, 1.0 / 16.0, 2.3];
    /// The default, never, early, and at once — on the first sample with
    /// `a > 0`, not the first sample.
    const EARLY_TERMS: [f32; 4] = [0.98, 1.1, 0.5, 0.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn lanes_solo_and_oracle_agree_bit_for_bit(
            kind in 0usize..9,
            seed in 0u64..1_000_000_000_000,
            az in 0f32..360.0,
            el in -89f32..89.0,
            // Half the eyes orbit the box, half sit inside it (`t0 = 0`).
            inside in 0u32..2,
            step in 0usize..4,
            early_term in 0usize..4,
            image_w in 8u32..72,
            image_h in 8u32..72,
            off_x in 0u32..40,
            off_y in 0u32..40,
            // Windows that overhang the image exercise padding threads.
            launch_w in 1u32..60,
            launch_h in 1u32..60,
        ) {
            let (texture, transfer, origin, hi) = subject(kind, seed);
            let lut = transfer.bake();
            let centre = hi * 0.5;
            let mut next = lcg(seed ^ 0x9e37);
            let eye = if inside == 1 {
                vec3(hi.x * next(), hi.y * next(), hi.z * next())
            } else {
                let (az, el) = (az.to_radians(), el.to_radians());
                let radius = 2.2 * hi.x.max(hi.y).max(hi.z);
                centre + vec3(el.cos() * az.cos(), el.cos() * az.sin(), el.sin()) * radius
            };
            let target = if inside == 1 { centre + vec3(0.3, 0.2, 0.1) } else { centre };
            let camera = Camera::look_at(eye, target, vec3(0.1, 0.2, 0.95), 40.0);
            let kernel = RayCastKernel {
                camera: &camera,
                lut: &lut,
                texture: &texture,
                store_origin: origin,
                core_lo: Vec3::ZERO,
                core_hi: hi,
                image: (image_w, image_h),
                offset: (off_x.min(image_w - 1), off_y.min(image_h - 1)),
                step: STEPS[step],
                early_term: EARLY_TERMS[early_term],
            };
            let result = three_way(&kernel, LaunchConfig::cover(launch_w, launch_h));
            prop_assert!(result.is_ok(), "{}", result.err().unwrap());
        }
    }

    /// Every subject under every march setting from fixed views — the sweep
    /// the proptest samples from, so a regression does not wait for its seed
    /// — and proof that the sweep is not all sentinels or all skips.
    #[test]
    fn every_subject_and_march_setting_agrees_three_ways() {
        for kind in 0..9 {
            let (texture, transfer, origin, hi) = subject(kind, 7 + kind as u64);
            let lut = transfer.bake();
            let centre = hi * 0.5;
            let eyes = [
                centre + vec3(1.9, 0.4, 0.7) * hi.x.max(hi.z),
                centre + vec3(-0.2, -0.3, 2.1) * hi.x.max(hi.z),
                vec3(hi.x * 0.3, hi.y * 0.5, hi.z * 0.6), // inside: t0 = 0
            ];
            let (mut kept, mut fetched, mut charged, mut slots) = (0usize, 0u64, 0u64, 0u64);
            for eye in eyes {
                let camera = Camera::look_at(eye, centre, vec3(0.1, 0.2, 0.95), 45.0);
                for step in STEPS {
                    for early_term in EARLY_TERMS {
                        let kernel = RayCastKernel {
                            camera: &camera,
                            lut: &lut,
                            texture: &texture,
                            store_origin: origin,
                            core_lo: Vec3::ZERO,
                            core_hi: hi,
                            image: (40, 36),
                            offset: (0, 0),
                            step,
                            early_term,
                        };
                        let c =
                            three_way(&kernel, LaunchConfig::cover(40, 36)).unwrap_or_else(|e| {
                                panic!("kind {kind}, eye {eye:?}, step {step}, {early_term}: {e}")
                            });
                        kept += c.keys.iter().filter(|&&k| k != SENTINEL_KEY).count();
                        fetched += c.fetched;
                        slots += c.lane_slots;
                        charged += c.samples.iter().sum::<u64>();
                    }
                }
            }
            assert!(charged > 10_000, "kind {kind}: {charged} samples charged");
            if kernel_has_lanes() {
                // Every one of these launches fits the lanes, and every fetch
                // took one of the slots an iteration offered.
                assert!(slots >= fetched && (slots > 0) == (fetched > 0));
            }
            match kind {
                3 => assert_eq!((kept, fetched), (0, 0), "air: nothing to fetch or keep"),
                0 | 2 | 6 => assert_eq!(fetched, charged, "kind {kind}: nothing to skip"),
                _ => assert!(kept > 500 && fetched < charged, "kind {kind}: {kept} kept"),
            }
        }
    }

    /// Ray setup's edge cases (module docs, *Ray setup*) through the same
    /// three-way comparison, on a box every sample of which is visible.
    #[test]
    fn ray_setup_edge_cases_agree_three_ways() {
        let (texture, transfer, origin, hi) = subject(0, 11);
        let lut = transfer.bake();
        let centre = hi * 0.5;
        let run = |camera: &Camera, core_lo: Vec3, (image, offset), cfg: LaunchConfig, step| {
            let kernel = RayCastKernel {
                camera,
                lut: &lut,
                texture: &texture,
                store_origin: origin,
                core_lo,
                core_hi: hi,
                image,
                offset,
                step,
                early_term: 1.1,
            };
            three_way(&kernel, cfg).unwrap_or_else(|e| {
                panic!("{camera:?}, lo {core_lo:?}, {image:?}, {cfg:?}, step {step}: {e}")
            })
        };
        let along = |eye: Vec3, axis: Vec3, up| Camera::look_at(eye, eye + axis, up, 30.0);
        let (x, y, z) = (
            vec3(1.0, 0.0, 0.0),
            vec3(0.0, 1.0, 0.0),
            vec3(0.0, 0.0, 1.0),
        );

        // An eye on a face plane (or three), looking along it: `lo − eye` or
        // `hi − eye` is a signed zero, rays of both signs cross that axis,
        // and the sign `max` picks for `max(0.0, −0.0)` is the depth of the
        // rays that enter. `lo` also as −0.0, so that `lo − eye` is −0.0.
        let mut zero_depths = 0;
        for lo in [Vec3::ZERO, vec3(-0.0, -0.0, -0.0)] {
            for (axis, face) in [
                (x, 0.0),
                (x, hi.x),
                (y, 0.0),
                (y, hi.y),
                (z, 0.0),
                (z, hi.z),
            ] {
                let eye = centre + axis * (face - centre.dot(axis));
                // Forward and up within the plane; right along the axis.
                let forward = vec3(axis.z, axis.x, axis.y);
                let camera = along(eye, forward, vec3(axis.y, axis.z, axis.x));
                for step in [1.0, 0.37] {
                    let c = run(
                        &camera,
                        lo,
                        ((9, 9), (0, 0)),
                        LaunchConfig::cover(9, 9),
                        step,
                    );
                    zero_depths += (c.keys.iter().zip(&c.values))
                        .filter(|(&k, f)| k != SENTINEL_KEY && f.depth == 0.0)
                        .count();
                }
            }
            let corner = Camera::look_at(hi, centre, z, 50.0);
            run(
                &corner,
                lo,
                ((9, 9), (0, 0)),
                LaunchConfig::cover(9, 9),
                1.0,
            );
        }
        assert!(zero_depths > 100, "{zero_depths} fragments at depth ±0");

        // Axis-parallel rays (the middle column and row of an odd image),
        // from inside, outside and on the face of their slabs; and a ray
        // whose x is exactly 1e-12, not parallel, from just outside x's.
        for eye in [
            vec3(6.0, 6.0, -5.0),
            vec3(-3.0, 6.0, -5.0),
            vec3(6.0, 15.0, -5.0),
        ] {
            for eye in [eye, vec3(0.0, eye.y, eye.z)] {
                run(
                    &along(eye, z, y),
                    Vec3::ZERO,
                    ((9, 7), (0, 0)),
                    LaunchConfig::cover(9, 7),
                    1.0,
                );
            }
        }
        let threshold = Camera::from_raw_parts(
            [-1e-11, 6.0, -5.0],
            [1e-12, 0.0, 1.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            0.3,
        );
        let c = run(
            &threshold,
            Vec3::ZERO,
            ((3, 3), (0, 0)),
            LaunchConfig::cover(3, 3),
            1.0,
        );
        assert_ne!(c.keys[17], SENTINEL_KEY, "the 1e-12 ray enters at x");

        // Block widths 1, 7, 9 and 40 over a 37-pixel footprint that starts
        // 3 pixels into the image: rows end mid-chunk, blocks overhang.
        for camera in [
            Camera::look_at(centre + vec3(20.0, -9.0, 7.0), centre, z, 40.0),
            Camera::look_at(vec3(3.0, 4.0, 5.0), centre, z, 70.0),
        ] {
            for width in [1, 7, 9, 40] {
                let cfg = LaunchConfig {
                    grid: (37u32.div_ceil(width), 3),
                    block: (width, 5),
                };
                run(&camera, Vec3::ZERO, ((40, 14), (3, 0)), cfg, 0.37);
            }
        }

        // The middle ray of a 3×3 image down z at lattice points exactly at
        // `t₀` (`t₀/step − ½` an integer) or at `t₁`, or with `t₁/step` an
        // integer, from outside and from inside the box.
        for (eye_z, step) in [
            (-2.5, 1.0),
            (-2.0, 1.0),
            (-2.25, 0.5),
            (-3.0, 0.25),
            (0.5, 1.0),
        ] {
            let camera = along(vec3(6.0, 6.0, eye_z), z, y);
            run(
                &camera,
                Vec3::ZERO,
                ((3, 3), (0, 0)),
                LaunchConfig::cover(3, 3),
                step,
            );
        }

        // Spans near the guard: `t₁/step` in [2²², 2²³), where `lattice_end`
        // may walk further than one step, and past 2²³, where `March::new`
        // sets every ray up (lanes still take them).
        for distance in [5e3, 1e4] {
            let camera = Camera::look_at(vec3(-distance, 6.0, 6.0), centre, z, 0.05);
            run(
                &camera,
                Vec3::ZERO,
                ((4, 4), (0, 0)),
                LaunchConfig::cover(4, 4),
                1.0 / 1024.0,
            );
        }
    }

    /// Blocks whose queue holds 0, 1, 7, 8, 9 and 256 rays: fewer rays than
    /// lanes, exactly a register, one refill, and sixteen rows' worth. The
    /// eye sits inside the box, so every thread inside the image is a ray.
    #[test]
    fn queues_shorter_than_equal_to_and_longer_than_the_lanes() {
        let (texture, hi) = celled_skull();
        let lut = TransferFunction::bone().bake();
        let inside = Camera::look_at(
            vec3(14.0, 22.0, 9.0),
            vec3(21.0, 19.0, 22.0),
            vec3(0.0, 0.2, 0.9),
            35.0,
        );
        let away = Camera::look_at(
            vec3(-50.0, 20.0, 20.0),
            vec3(-90.0, 20.0, 20.0),
            vec3(0.0, 0.0, 1.0),
            35.0,
        );
        for (camera, image, rays) in [
            (&away, (16, 16), 0),
            (&inside, (1, 1), 1),
            (&inside, (7, 1), 7),
            (&inside, (8, 1), 8),
            (&inside, (3, 3), 9),
            (&inside, (16, 16), 256),
        ] {
            for (step, early_term) in [(1.0, 0.98), (0.37, 1.1), (2.3, 0.5)] {
                let kernel = RayCastKernel {
                    camera,
                    lut: &lut,
                    texture: &texture,
                    store_origin: vec3(-1.0, -1.0, -1.0),
                    core_lo: Vec3::ZERO,
                    core_hi: hi,
                    image,
                    offset: (0, 0),
                    step,
                    early_term,
                };
                // One block, padded out to 16×16 threads.
                let c = three_way(&kernel, LaunchConfig::cover(image.0, image.1))
                    .unwrap_or_else(|e| panic!("{rays} rays, step {step}: {e}"));
                assert_eq!(c.keys.len(), 256);
                assert_eq!(c.samples.iter().filter(|&&n| n > 0).count(), rays);
            }
        }
    }

    /// A launch whose inputs do not fit `i32` lanes takes the solo march, and
    /// so does a single ray whose lattice does not — each still bit-identical
    /// to the oracle, each saying which march it took.
    #[test]
    fn guards_turn_away_what_lanes_cannot_index() {
        let (texture, hi) = celled_skull();
        let lut = TransferFunction::bone().bake();
        let base = |camera, core_hi, image, step| RayCastKernel {
            camera,
            lut: &lut,
            texture: &texture,
            store_origin: vec3(-1.0, -1.0, -1.0),
            core_lo: Vec3::ZERO,
            core_hi,
            image,
            offset: (0, 0),
            step,
            early_term: 0.98,
        };
        let avx2 = kernel_has_lanes();

        // Reach: an eye 10⁹ voxels out (≥ 2²⁸). Its positions lose all
        // precision, so the frame is nothing to look at — but the same
        // nothing three ways.
        let far = Camera::look_at(vec3(1e9, 3e8, 2e8), hi * 0.5, vec3(0.0, 0.0, 1.0), 1e-6);
        let kernel = base(&far, hi, (24, 24), 1.0);
        assert!(!kernel.prepare().lanes);
        three_way(&kernel, LaunchConfig::cover(24, 24)).unwrap();

        // Step: 2⁻¹¹ (below 2⁻¹⁰), on an image small enough to march.
        let near = Camera::look_at(vec3(60.0, -35.0, 50.0), hi * 0.5, vec3(0.0, 0.0, 1.0), 4.0);
        let kernel = base(&near, hi, (3, 3), 1.0 / 2048.0);
        assert!(!kernel.prepare().lanes);
        let c = three_way(&kernel, LaunchConfig::cover(3, 3)).unwrap();
        assert!(c.samples.iter().sum::<u64>() > 100_000);

        // A ray whose lattice reaches index 2³⁰ without being long: the box
        // is 2.5·10⁶ voxels from the eye and the step the smallest lanes
        // take, so every ray's first sample is past index 2³¹. The launch
        // stays wide (where the CPU is); each ray is turned away at the lane
        // and marched by `march_solo`, offering no slots.
        let eye = vec3(-2.5e6, 20.0, 20.0);
        let distant = Camera::look_at(eye, hi * 0.5, vec3(0.0, 0.0, 1.0), 4e-4);
        let kernel = base(&distant, hi, (2, 2), 1.0 / 1024.0);
        let launch = kernel.prepare();
        assert_eq!(launch.lanes, avx2);
        let ray = distant.ray(0, 0, 2, 2);
        let span = ray
            .intersect_aabb(Vec3::ZERO, hi)
            .expect("the box fills the view");
        assert!(March::new(0, 0, ray.dir, span, kernel.step).end >= 1 << 31);
        let c = three_way(&kernel, LaunchConfig::cover(2, 2)).unwrap();
        assert!(
            c.fetched > 1000 && c.lane_slots == 0,
            "{} fetched",
            c.fetched
        );
    }

    /// Whether this CPU runs the lane march at all.
    fn kernel_has_lanes() -> bool {
        #[cfg(target_arch = "x86_64")]
        return std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    /// A typo in a guard must fail a test, not quietly return the frame rate
    /// to the solo march's: `micro_ops`' Skull-128 brick at 256² — the
    /// benchmark's kernel-bound launch — goes wide wherever AVX2 is.
    #[test]
    fn ordinary_launch_takes_the_lane_path() {
        use mgpu_voldata::{BrickGrid, BrickPolicy, BrickStore};
        let volume = Dataset::Skull.volume(128);
        let scene = Scene::orbit(&volume, 30.0, 20.0, TransferFunction::bone());
        let grid = BrickGrid::subdivide(
            volume.dims(),
            &BrickPolicy {
                min_bricks: 2,
                max_brick_voxels: u64::MAX,
            },
        );
        let store = Arc::new(BrickStore::new(volume, grid, 1, u64::MAX));
        let brick = crate::RenderBrick::new(Arc::clone(&store), 0, crate::Staging::HostResident);
        let data = brick.voxels();
        let (texture, store_origin) = crate::RenderBrick::texture(&data);
        let lut = scene.transfer.bake();
        let (core_lo, core_hi) = brick.core_box();
        let kernel = RayCastKernel {
            camera: &scene.camera,
            lut: &lut,
            texture: &texture,
            store_origin,
            core_lo,
            core_hi,
            image: (256, 256),
            offset: (0, 0),
            step: 1.0,
            early_term: 0.98,
        };
        assert_eq!(kernel.prepare().lanes, kernel_has_lanes());
        // And the smallest step the wire admits, without cells.
        let (origin, dims) = data.info.padded(data.ghost);
        let bare = Texture3D::windowed(
            dims,
            data.window(),
            data.store_dims,
            Arc::clone(&data.voxels),
        );
        assert_eq!(store_origin.x, origin[0] as f32);
        let kernel = RayCastKernel {
            texture: &bare,
            step: 1.0 / 16.0,
            ..kernel
        };
        assert_eq!(kernel.prepare().lanes, kernel_has_lanes());
    }
}
