//! Software 3-D and 1-D textures with hardware-style filtering.
//!
//! The paper stores volume bricks in CUDA 3-D textures "to enable the
//! hardware texture caches and filtering units". [`Texture3D`] reproduces
//! the sampling semantics exactly: unnormalized coordinates, voxel centers at
//! `i + 0.5`, trilinear filtering, clamp-to-edge addressing. [`Texture1D`]
//! plays the transfer-function LUT role.
//!
//! A [`Texture3D`] may store only a **window** of its index space
//! ([`Texture3D::windowed`]): taps clamp into the window, so a texel outside
//! it reads as the nearest stored one — a brick's border ghosts, unstored.
//!
//! Both textures also answer the two questions empty-space skipping asks
//! (the ray caster in `mgpu-volren` combines them): a [`Texture3D`] may
//! carry a **min/max macrocell table** ([`Texture3D::with_cells`]) bounding
//! every value a trilinear sample based in a cell can tap, and a
//! [`Texture1D`] knows its runs of exactly-zero alpha
//! ([`Texture1D::zero_alpha`]). Neither changes what a sample returns.
//!
//! # Lane samplers
//!
//! On `x86_64` the two resolved views also filter for **eight samples at
//! once** in AVX2 registers — the software analogue of a texture unit
//! serving a whole warp: [`Sampler3D::locate_x8`] / [`Sampler3D::sample_at_x8`]
//! and [`Sampler1D::taps_x8`] are the lane forms of `locate` / `sample_at` /
//! `taps`. Per lane they perform the scalar methods' float operations in the
//! scalar methods' order (a multiply and an add, never a fused one), so for
//! every finite coordinate of magnitude below 2³⁰ a lane's result has the
//! scalar result's bits. They are safe `#[target_feature(enable = "avx2")]`
//! functions: a caller must itself be compiled for AVX2 (or assert, in an
//! `unsafe` block, that it detected it). Their own `unsafe` is the gathers,
//! beside the scalar paths' `get_unchecked` loads, and rests on the same
//! thing: every coordinate is clamped into the window before it becomes an
//! address — with clamp addressing the clamped taps *are* the interior fast
//! path's taps when the sample is interior, so one code path serves both —
//! and a view whose indices would not fit an `i32` lane refuses
//! (`fits_lanes`).

use std::sync::Arc;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// `floor` by truncation, for the two hot samplers. `f32::floor` is an
/// out-of-line `floorf` call on baseline x86-64 (no `roundss` before
/// SSE4.1), spilling every live register around it four times per sample.
/// Exact for every finite input; returns `x` itself for `|x| ≥ 2²³` (already
/// integral), NaN and ±∞, like `f32::floor`. The second value is the same
/// floor as an integer (saturated past the `i32` range, 0 for NaN), which
/// the truncation has in hand anyway. The one difference is
/// `-0.0 → +0.0`, which no caller can feed it: both pass `a − 0.5`, which
/// is a zero only for `a = 0.5`, and that zero is `+0.0`.
#[inline(always)]
fn floor_trunc(x: f32) -> (f32, i32) {
    if x.abs() < 8_388_608.0 {
        // SAFETY: |x| < 2²³ (a comparison NaN and ±∞ fail), so the truncated
        // value is representable as an i32.
        let i = unsafe { x.to_int_unchecked::<i32>() };
        let t = i as f32;
        if t > x {
            (t - 1.0, i - 1)
        } else {
            (t, i)
        }
    } else {
        (x, x as i32)
    }
}

/// Macrocells per axis for a texture of `dims` at `edge` base indices per
/// cell. A trilinear sample's *base index* along an axis is
/// `floor(p − ½)` clamped into `[0, max(dim − 2, 0)]` — clamping changes no
/// tap, it only names the border taps `(0, 0)` and `(dim−1, dim−1)` by the
/// base whose taps contain them — so there are `max(dim − 1, 1)` bases.
fn cell_dims(dims: [usize; 3], edge: usize) -> [usize; 3] {
    dims.map(|d| d.saturating_sub(1).max(1).div_ceil(edge))
}

/// A texture's macrocell table, as [`Texture3D::cells`] lends it out.
#[derive(Debug, Clone, Copy)]
pub struct MacroCells<'a> {
    /// Base indices per cell along each axis (a power of two).
    pub edge: usize,
    /// Cells per axis.
    pub dims: [usize; 3],
    /// `[min, max]` per cell, x fastest. NaN voxels are left out (a sample
    /// that taps one is NaN whatever the others hold); a cell of nothing
    /// but NaN keeps the empty range `[+∞, −∞]`.
    pub ranges: &'a [[f32; 2]],
}

/// What a texture's texels may live in: anything that lends them out as
/// one slice — a `Vec`, or a brick's voxels, which may be a mapping of the
/// volume file.
trait Texels: AsRef<[f32]> + Send + Sync + std::fmt::Debug {}

impl<T: AsRef<[f32]> + Send + Sync + std::fmt::Debug> Texels for T {}

/// A 3-D single-channel float texture (a volume brick on the device).
/// Voxel data is shared: the texture holds an `Arc` of whatever owns the
/// texels, so "uploading" a brick never copies it — only the simulated
/// PCIe transfer is charged — and the owner lives as long as the last
/// texture or brick holding it.
#[derive(Debug, Clone)]
pub struct Texture3D {
    dims: [usize; 3],
    /// The window: its lowest and highest index per axis, inclusive.
    lo: [i32; 3],
    hi: [i32; 3],
    data: Arc<dyn Texels>,
    /// `(edge, ranges)` of the macrocell table, when one was attached.
    cells: Option<(usize, Arc<Vec<[f32; 2]>>)>,
}

impl Texture3D {
    pub fn new(dims: [usize; 3], data: Vec<f32>) -> Texture3D {
        Texture3D::from_shared(dims, Arc::new(data))
    }

    pub fn from_shared<T>(dims: [usize; 3], data: Arc<T>) -> Texture3D
    where
        T: AsRef<[f32]> + Send + Sync + std::fmt::Debug + 'static,
    {
        Texture3D::windowed(dims, [0; 3], dims, data)
    }

    /// A texture over the index space `dims` that stores only the box of
    /// `stored` texels at `window` (`data`, x fastest): each tap is clamped
    /// into that box, so a texel outside it reads as its nearest edge texel.
    pub fn windowed<T>(
        dims: [usize; 3],
        window: [usize; 3],
        stored: [usize; 3],
        data: Arc<T>,
    ) -> Texture3D
    where
        T: AsRef<[f32]> + Send + Sync + std::fmt::Debug + 'static,
    {
        assert_eq!(
            (*data).as_ref().len(),
            stored[0] * stored[1] * stored[2],
            "texture data does not match dims"
        );
        assert!(
            (0..3).all(|a| stored[a] > 0 && window[a] + stored[a] <= dims[a]),
            "degenerate texture dims, or window {window:?} + {stored:?} outside {dims:?}"
        );
        assert!(
            dims.iter().all(|&d| d <= i32::MAX as usize),
            "texture too large for i32 texel indices"
        );
        let lo = window.map(|w| w as i32);
        Texture3D {
            dims,
            lo,
            hi: [0, 1, 2].map(|a| lo[a] + stored[a] as i32 - 1),
            data,
            cells: None,
        }
    }

    /// Attach a min/max macrocell table (shared, like the voxels): cell
    /// `(cx, cy, cz)` — x fastest, `edge` base indices per axis — holds the
    /// `[min, max]` of every voxel a trilinear sample whose base index falls
    /// in it can tap, i.e. voxels `c·edge ..= min((c+1)·edge, dim−1)` per
    /// axis (neighbouring cells share one voxel layer) as the window clamps
    /// them; cells span the whole index space, not the window. Sampling is
    /// unaffected; the table only lets a kernel prove a region empty.
    pub fn with_cells(mut self, edge: usize, ranges: Arc<Vec<[f32; 2]>>) -> Texture3D {
        assert!(
            edge.is_power_of_two(),
            "macrocell edge must be a power of two"
        );
        let n: usize = cell_dims(self.dims, edge).iter().product();
        assert_eq!(ranges.len(), n, "macrocell table does not match dims");
        self.cells = Some((edge, ranges));
        self
    }

    /// The attached macrocell table, if any.
    pub fn cells(&self) -> Option<MacroCells<'_>> {
        self.cells.as_ref().map(|(edge, ranges)| MacroCells {
            edge: *edge,
            dims: cell_dims(self.dims, *edge),
            ranges,
        })
    }

    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Bytes of the stored voxel data (the modelled 2010 GPU holds no
    /// macrocells, so they are not counted).
    pub fn bytes(&self) -> u64 {
        (self.texels().len() * 4) as u64
    }

    fn texels(&self) -> &[f32] {
        (*self.data).as_ref()
    }

    /// Nearest texel fetch, clamped into the window (integer coordinates).
    #[inline]
    pub fn fetch(&self, x: i64, y: i64, z: i64) -> f32 {
        self.sampler().fetch(x, y, z)
    }

    /// Trilinear sample at unnormalized coordinates: texel `i`'s center is at
    /// `i + 0.5`, exactly the CUDA `tex3D` convention with linear filtering
    /// and clamp addressing.
    #[inline]
    pub fn sample(&self, x: f32, y: f32, z: f32) -> f32 {
        let fx = x - 0.5;
        let fy = y - 0.5;
        let fz = z - 0.5;
        let x0 = fx.floor();
        let y0 = fy.floor();
        let z0 = fz.floor();
        let tx = fx - x0;
        let ty = fy - y0;
        let tz = fz - z0;
        let (ix, iy, iz) = (x0 as i64, y0 as i64, z0 as i64);

        let c000 = self.fetch(ix, iy, iz);
        let c100 = self.fetch(ix + 1, iy, iz);
        let c010 = self.fetch(ix, iy + 1, iz);
        let c110 = self.fetch(ix + 1, iy + 1, iz);
        let c001 = self.fetch(ix, iy, iz + 1);
        let c101 = self.fetch(ix + 1, iy, iz + 1);
        let c011 = self.fetch(ix, iy + 1, iz + 1);
        let c111 = self.fetch(ix + 1, iy + 1, iz + 1);

        let x00 = c000 + (c100 - c000) * tx;
        let x10 = c010 + (c110 - c010) * tx;
        let x01 = c001 + (c101 - c001) * tx;
        let x11 = c011 + (c111 - c011) * tx;
        let y0v = x00 + (x10 - x00) * ty;
        let y1v = x01 + (x11 - x01) * ty;
        y0v + (y1v - y0v) * tz
    }

    /// A resolved sampling view for hot loops: same filtering semantics as
    /// [`Texture3D::sample`] (bit-identical results), without per-sample
    /// `Arc` indirection, and with a bounds-check-free interior fast path.
    pub fn sampler(&self) -> Sampler3D<'_> {
        let (lo, hi) = (self.lo, self.hi);
        let sx = (hi[0] - lo[0] + 1) as usize;
        let sy = sx * (hi[1] - lo[1] + 1) as usize;
        let data = self.texels();
        Sampler3D {
            data,
            lo,
            hi,
            sx,
            sy,
        }
    }
}

/// A borrowed, resolved view over a [`Texture3D`] for per-sample inner loops.
///
/// Construction ([`Texture3D::sampler`]) resolves the voxel slice and the
/// window once; a sample is [`Sampler3D::locate`] then
/// [`Sampler3D::sample_at`], which takes an interior fast path (single base
/// index, eight unchecked loads) whenever all eight taps are in the window,
/// falling back to the clamped fetch at its borders. Every float operation
/// and its order matches [`Texture3D::sample`] exactly, so results are
/// bit-identical everywhere.
#[derive(Debug, Clone, Copy)]
pub struct Sampler3D<'a> {
    data: &'a [f32],
    /// The window's lowest and highest index per axis, inclusive.
    lo: [i32; 3],
    hi: [i32; 3],
    /// Row stride (the stored x extent).
    sx: usize,
    /// Slice stride (the stored x·y extent).
    sy: usize,
}

impl Sampler3D<'_> {
    /// Nearest texel fetch with clamp addressing into the window — same as
    /// [`Texture3D::fetch`].
    #[inline]
    fn fetch(&self, x: i64, y: i64, z: i64) -> f32 {
        let ([lx, ly, lz], [hx, hy, hz]) = (self.lo, self.hi);
        let cx = (x.clamp(lx as i64, hx as i64) - lx as i64) as usize;
        let cy = (y.clamp(ly as i64, hy as i64) - ly as i64) as usize;
        let cz = (z.clamp(lz as i64, hz as i64) - lz as i64) as usize;
        self.data[cz * self.sy + cy * self.sx + cx]
    }

    /// The first half of a trilinear sample: where a sample at
    /// `(x, y, z)` falls on the texel lattice. A kernel that may decide not
    /// to fetch (empty-space skipping) looks at [`Site::base_index`] first
    /// and only then pays for [`Sampler3D::sample_at`].
    #[inline(always)]
    pub fn locate(&self, x: f32, y: f32, z: f32) -> Site {
        let fx = x - 0.5;
        let fy = y - 0.5;
        let fz = z - 0.5;
        let (x0, ix) = floor_trunc(fx);
        let (y0, iy) = floor_trunc(fy);
        let (z0, iz) = floor_trunc(fz);
        Site {
            index: [ix, iy, iz],
            frac: [fx - x0, fy - y0, fz - z0],
        }
    }

    /// The second half of a trilinear sample: fetch the eight taps around
    /// `site` and blend them. `sample_at(&locate(x, y, z))` is bit-identical
    /// to [`Texture3D::sample`]`(x, y, z)`.
    #[inline(always)]
    pub fn sample_at(&self, site: &Site) -> f32 {
        let [ix, iy, iz] = site.index;
        let [tx, ty, tz] = site.frac;

        let (c000, c100, c010, c110, c001, c101, c011, c111);
        // Interior fast path: all 8 taps in the window from one base index.
        // Relative to the window's low corner and as unsigned, an index below
        // it is a huge one, so each compare checks both ends.
        let ([lx, ly, lz], [hx, hy, hz]) = (self.lo, self.hi);
        let jx = ix.wrapping_sub(lx) as u32;
        let jy = iy.wrapping_sub(ly) as u32;
        let jz = iz.wrapping_sub(lz) as u32;
        if jx < (hx - lx) as u32 && jy < (hy - ly) as u32 && jz < (hz - lz) as u32 {
            let sx = self.sx;
            let sy = self.sy;
            let base = jz as usize * sy + jy as usize * sx + jx as usize;
            // SAFETY: 0 ≤ j ≤ stored − 2 per axis (from the comparisons
            // above), so base + sy + sx + 1 < data.len().
            unsafe {
                c000 = *self.data.get_unchecked(base);
                c100 = *self.data.get_unchecked(base + 1);
                c010 = *self.data.get_unchecked(base + sx);
                c110 = *self.data.get_unchecked(base + sx + 1);
                c001 = *self.data.get_unchecked(base + sy);
                c101 = *self.data.get_unchecked(base + sy + 1);
                c011 = *self.data.get_unchecked(base + sy + sx);
                c111 = *self.data.get_unchecked(base + sy + sx + 1);
            }
        } else {
            let (ix, iy, iz) = (ix as i64, iy as i64, iz as i64);
            c000 = self.fetch(ix, iy, iz);
            c100 = self.fetch(ix + 1, iy, iz);
            c010 = self.fetch(ix, iy + 1, iz);
            c110 = self.fetch(ix + 1, iy + 1, iz);
            c001 = self.fetch(ix, iy, iz + 1);
            c101 = self.fetch(ix + 1, iy, iz + 1);
            c011 = self.fetch(ix, iy + 1, iz + 1);
            c111 = self.fetch(ix + 1, iy + 1, iz + 1);
        }

        let x00 = c000 + (c100 - c000) * tx;
        let x10 = c010 + (c110 - c010) * tx;
        let x01 = c001 + (c101 - c001) * tx;
        let x11 = c011 + (c111 - c011) * tx;
        let y0v = x00 + (x10 - x00) * ty;
        let y1v = x01 + (x11 - x01) * ty;
        y0v + (y1v - y0v) * tz
    }
}

/// `v` clamped into `[lo, hi]`, per lane.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn clamp_epi32(v: __m256i, lo: __m256i, hi: __m256i) -> __m256i {
    _mm256_min_epi32(_mm256_max_epi32(v, lo), hi)
}

/// `a + (b − a)·t` per lane: the scalar samplers' lerp, unfused.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn lerp_ps(a: __m256, b: __m256, t: __m256) -> __m256 {
    _mm256_add_ps(a, _mm256_mul_ps(_mm256_sub_ps(b, a), t))
}

/// The lane forms of [`Sampler3D::locate`] and [`Sampler3D::sample_at`]:
/// eight samples per call, one per 32-bit lane.
#[cfg(target_arch = "x86_64")]
impl Sampler3D<'_> {
    /// Whether [`Sampler3D::sample_at_x8`] serves this texture: fewer than
    /// 2³⁰ texels up to the window's far corner, so a flat texel index, and
    /// every product it is built from, fits an `i32` lane.
    pub fn fits_lanes(&self) -> bool {
        self.hi.iter().map(|&h| h as u64 + 1).product::<u64>() < 1 << 30
    }

    /// [`Sampler3D::locate`] for eight positions. `_mm256_floor_ps` is
    /// `floor_trunc`'s float (they differ at `−0.0` only, which `a − 0.5`
    /// cannot produce); the integer is a truncating convert, which equals
    /// `floor_trunc`'s saturating one for finite coordinates of magnitude
    /// below 2³¹ and is `i32::MIN` for anything else.
    ///
    /// # Safety
    ///
    /// A safe call from code compiled for AVX2. From anywhere else the call
    /// is `unsafe`, and sound once the caller has detected AVX2 on this CPU
    /// (`is_x86_feature_detected!("avx2")`).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn locate_x8(&self, x: __m256, y: __m256, z: __m256) -> SiteX8 {
        let half = _mm256_set1_ps(0.5);
        let (fx, fy, fz) = (
            _mm256_sub_ps(x, half),
            _mm256_sub_ps(y, half),
            _mm256_sub_ps(z, half),
        );
        let (x0, y0, z0) = (
            _mm256_floor_ps(fx),
            _mm256_floor_ps(fy),
            _mm256_floor_ps(fz),
        );
        SiteX8 {
            index: [
                _mm256_cvttps_epi32(x0),
                _mm256_cvttps_epi32(y0),
                _mm256_cvttps_epi32(z0),
            ],
            frac: [
                _mm256_sub_ps(fx, x0),
                _mm256_sub_ps(fy, y0),
                _mm256_sub_ps(fz, z0),
            ],
        }
    }

    /// [`Sampler3D::sample_at`] for eight sites: gather the eight taps of
    /// each clamped into the window, blend them with the same seven lerps.
    /// Bit-identical per lane to the scalar method for every base index
    /// below `i32::MAX`. Lanes a caller has masked off may hold anything —
    /// their taps are clamped like any other's.
    ///
    /// # Panics
    ///
    /// If the texture does not fit ([`Sampler3D::fits_lanes`]).
    ///
    /// # Safety
    ///
    /// A safe call from code compiled for AVX2. From anywhere else the call
    /// is `unsafe`, and sound once the caller has detected AVX2 on this CPU
    /// (`is_x86_feature_detected!("avx2")`).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn sample_at_x8(&self, site: &SiteX8) -> __m256 {
        assert!(self.fits_lanes(), "texture too large for i32 lane indices");
        let one = _mm256_set1_epi32(1);
        let [ix, iy, iz] = site.index;
        let [tx, ty, tz] = site.frac;
        // `fits_lanes`: `hi`, both strides and every sum below fit.
        let ([lx, ly, lz], [hx, hy, hz]) = (self.lo, self.hi);
        let (lx, ly, lz) = (
            _mm256_set1_epi32(lx),
            _mm256_set1_epi32(ly),
            _mm256_set1_epi32(lz),
        );
        let (hx, hy, hz) = (
            _mm256_set1_epi32(hx),
            _mm256_set1_epi32(hy),
            _mm256_set1_epi32(hz),
        );
        let (sx, sy) = (self.sx as i32, self.sy as i32);

        // The two clamped taps per axis, the y and z ones as row and slice
        // offsets. The second offset is the first plus one stride unless the
        // clamp folded both taps onto one texel.
        let x0 = clamp_epi32(ix, lx, hx);
        let x1 = clamp_epi32(_mm256_add_epi32(ix, one), lx, hx);
        let second = |i: __m256i, lo: __m256i, hi: __m256i, stride: i32| {
            let c0 = clamp_epi32(i, lo, hi);
            let c1 = clamp_epi32(_mm256_add_epi32(i, one), lo, hi);
            let o0 = _mm256_mullo_epi32(c0, _mm256_set1_epi32(stride));
            let step = _mm256_and_si256(_mm256_cmpgt_epi32(c1, c0), _mm256_set1_epi32(stride));
            (o0, _mm256_add_epi32(o0, step))
        };
        let (y0, y1) = second(iy, ly, hy, sx);
        let (z0, z1) = second(iz, lz, hz, sy);
        let (r00, r10, r01, r11) = (
            _mm256_add_epi32(z0, y0),
            _mm256_add_epi32(z0, y1),
            _mm256_add_epi32(z1, y0),
            _mm256_add_epi32(z1, y1),
        );

        // Indices count from index 0, the data from the window's low
        // corner: the gathers start that many texels before the data.
        let corner =
            self.lo[2] as usize * self.sy + self.lo[1] as usize * self.sx + self.lo[0] as usize;
        let texels = self.data.as_ptr().wrapping_sub(corner);
        let tap = |row: __m256i, x: __m256i| {
            // SAFETY: per lane, `row + x − corner = (cz−lz)·sy + (cy−ly)·sx
            // + (cx−lx)` with each coordinate clamped into the window just
            // above, computed without overflow (`fits_lanes`, asserted on
            // entry): an index below `data.len()`, so every lane reads inside
            // the data.
            unsafe { _mm256_i32gather_ps::<4>(texels, _mm256_add_epi32(row, x)) }
        };
        let x00 = lerp_ps(tap(r00, x0), tap(r00, x1), tx);
        let x10 = lerp_ps(tap(r10, x0), tap(r10, x1), tx);
        let x01 = lerp_ps(tap(r01, x0), tap(r01, x1), tx);
        let x11 = lerp_ps(tap(r11, x0), tap(r11, x1), tx);
        let y0v = lerp_ps(x00, x10, ty);
        let y1v = lerp_ps(x01, x11, ty);
        lerp_ps(y0v, y1v, tz)
    }
}

/// Where a trilinear sample falls on the texel lattice
/// ([`Sampler3D::locate`]): the unclamped base texel `floor(p − ½)` per axis
/// and the interpolation fractions.
#[derive(Debug, Clone, Copy)]
pub struct Site {
    index: [i32; 3],
    frac: [f32; 3],
}

impl Site {
    /// `floor(p − ½)` per axis as integers, saturated at the `i32` range and
    /// 0 for a NaN position. Clamped into `[0, max(dim − 2, 0)]` this is the
    /// base index macrocells are keyed by (see [`Texture3D::with_cells`]),
    /// over the whole index space whatever the window.
    #[inline(always)]
    pub fn base_index(&self) -> [i32; 3] {
        self.index
    }
}

/// Eight [`Site`]s, one per lane ([`Sampler3D::locate_x8`]).
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct SiteX8 {
    index: [__m256i; 3],
    frac: [__m256; 3],
}

#[cfg(target_arch = "x86_64")]
impl SiteX8 {
    /// [`Site::base_index`] per lane: x, y and z as three registers.
    #[inline(always)]
    pub fn base_index(&self) -> [__m256i; 3] {
        self.index
    }
}

/// A 1-D RGBA texture: the transfer-function lookup table.
#[derive(Debug, Clone)]
pub struct Texture1D {
    texels: Vec<[f32; 4]>,
    /// `next_opaque[i]`: the first texel at or after `i` whose alpha is not
    /// exactly `0.0` (`len` if there is none).
    next_opaque: Vec<u32>,
}

impl Texture1D {
    pub fn new(texels: Vec<[f32; 4]>) -> Texture1D {
        assert!(!texels.is_empty(), "empty 1-D texture");
        assert!(texels.len() <= i32::MAX as usize, "1-D texture too large");
        let mut next = texels.len() as u32;
        let mut next_opaque = vec![0; texels.len()];
        for (i, texel) in texels.iter().enumerate().rev() {
            if texel[3] != 0.0 {
                next = i as u32; // NaN alpha lands here too: not provably zero
            }
            next_opaque[i] = next;
        }
        Texture1D {
            texels,
            next_opaque,
        }
    }

    /// Does every filtered lookup with `u ∈ [lo, hi]` blend two texels whose
    /// alpha is exactly `0.0` (so its alpha is exactly `0.0` too)? O(1) and
    /// conservative: the texel index [`Sampler1D::taps`] computes is a
    /// monotone function of `u` — clamp, multiply by a positive constant,
    /// subtract a constant, floor, each monotone under f32 rounding — so
    /// every lookup in the interval reads texels between the first tap of
    /// `lo` and the second tap of `hi`, found here with that same
    /// expression. An inverted interval holds no lookups (true); a NaN
    /// bound proves nothing (false).
    pub fn zero_alpha(&self, lo: f32, hi: f32) -> bool {
        if lo > hi {
            return true;
        }
        if lo.is_nan() || hi.is_nan() {
            return false;
        }
        let sampler = self.sampler();
        let (first, _, _) = sampler.indices(lo);
        let (_, last, _) = sampler.indices(hi);
        self.next_opaque[first] as usize > last
    }

    pub fn len(&self) -> usize {
        self.texels.len()
    }

    pub fn is_empty(&self) -> bool {
        false // construction rejects empty tables
    }

    pub fn bytes(&self) -> u64 {
        (self.texels.len() * 16) as u64
    }

    /// Linearly filtered lookup with normalized coordinate `u ∈ [0,1]`
    /// (clamped), texel centers at `(i + 0.5) / len`.
    #[inline]
    pub fn sample(&self, u: f32) -> [f32; 4] {
        let n = self.texels.len();
        let x = u.clamp(0.0, 1.0) * n as f32 - 0.5;
        let x0 = x.floor();
        let t = x - x0;
        let i0 = (x0 as i64).clamp(0, n as i64 - 1) as usize;
        let i1 = (x0 as i64 + 1).clamp(0, n as i64 - 1) as usize;
        let a = self.texels[i0];
        let b = self.texels[i1];
        [
            a[0] + (b[0] - a[0]) * t,
            a[1] + (b[1] - a[1]) * t,
            a[2] + (b[2] - a[2]) * t,
            a[3] + (b[3] - a[3]) * t,
        ]
    }

    /// A resolved sampling view for hot loops — bit-identical lookups without
    /// the out-of-line `floorf` or the checked indexing.
    pub fn sampler(&self) -> Sampler1D<'_> {
        Sampler1D {
            texels: &self.texels,
            nf: self.texels.len() as f32,
            last: self.texels.len() as i32 - 1,
        }
    }
}

/// A borrowed, resolved view over a [`Texture1D`] for per-sample inner loops
/// (the transfer-function LUT lookup). Its taps, lerped per channel, are
/// bit-identical to [`Texture1D::sample`]; the texel indices are clamped as
/// integers.
#[derive(Debug, Clone, Copy)]
pub struct Sampler1D<'a> {
    texels: &'a [[f32; 4]],
    nf: f32,
    /// Index of the last texel.
    last: i32,
}

impl Sampler1D<'_> {
    /// The two texels and interpolation fraction [`Texture1D::sample`] would
    /// blend for `u`. Hot loops use this to lerp the alpha channel first and
    /// skip the color lerps when the sample is fully transparent — the color
    /// expressions are unchanged when they do run, so results stay
    /// bit-identical to [`Texture1D::sample`].
    #[inline(always)]
    pub fn taps(&self, u: f32) -> (&[f32; 4], &[f32; 4], f32) {
        let (i0, i1, t) = self.indices(u);
        // SAFETY: `indices` clamps i0 and i1 into 0..texels.len().
        let (a, b) = unsafe { (self.texels.get_unchecked(i0), self.texels.get_unchecked(i1)) };
        (a, b, t)
    }

    /// The two texel indices (both `< len`, nondecreasing in `u`) and the
    /// fraction a lookup at `u` blends with.
    #[inline(always)]
    fn indices(&self, u: f32) -> (usize, usize, f32) {
        let x = u.clamp(0.0, 1.0) * self.nf - 0.5;
        let (x0, i) = floor_trunc(x);
        let t = x - x0;
        // The clamps only bite at the end texels (and for a NaN `u`, whose
        // integer floor is 0).
        let i0 = i.clamp(0, self.last) as usize;
        let i1 = i.saturating_add(1).clamp(0, self.last) as usize;
        (i0, i1, t)
    }
}

/// The lane form of [`Sampler1D::taps`].
#[cfg(target_arch = "x86_64")]
impl<'a> Sampler1D<'a> {
    /// Whether [`Sampler1D::taps_x8`] serves this table: fewer than 2²⁸
    /// texels, so the index of any channel in the flat `f32` view fits an
    /// `i32` lane.
    pub fn fits_lanes(&self) -> bool {
        self.last < (1 << 28)
    }

    /// [`Sampler1D::taps`] for eight lookups: which two texels each blends,
    /// and with what fraction. `min(1, max(0, u))` in this operand order is
    /// `f32::clamp` bit for bit — a NaN `u` stays NaN, `−0.0` stays `−0.0` —
    /// and the texel indices are the scalar ones except for a NaN `u`, whose
    /// second tap is texel 0 instead of texel 1: its fraction is NaN, so
    /// whatever is blended with it is NaN either way.
    ///
    /// # Panics
    ///
    /// If the table does not fit ([`Sampler1D::fits_lanes`]).
    ///
    /// # Safety
    ///
    /// A safe call from code compiled for AVX2. From anywhere else the call
    /// is `unsafe`, and sound once the caller has detected AVX2 on this CPU
    /// (`is_x86_feature_detected!("avx2")`).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn taps_x8(&self, u: __m256) -> TapsX8<'a> {
        assert!(self.fits_lanes(), "1-D texture too large for i32 lanes");
        let unit = _mm256_min_ps(_mm256_set1_ps(1.0), _mm256_max_ps(_mm256_set1_ps(0.0), u));
        let x = _mm256_sub_ps(
            _mm256_mul_ps(unit, _mm256_set1_ps(self.nf)),
            _mm256_set1_ps(0.5),
        );
        let x0 = _mm256_floor_ps(x);
        let i = _mm256_cvttps_epi32(x0);
        let last = _mm256_set1_epi32(self.last);
        let i1 = _mm256_add_epi32(i, _mm256_set1_epi32(1));
        TapsX8 {
            texels: self.texels,
            // Four floats a texel; `last < 2²⁸` keeps the shift in range.
            first: _mm256_slli_epi32::<2>(clamp_epi32(i, _mm256_setzero_si256(), last)),
            second: _mm256_slli_epi32::<2>(clamp_epi32(i1, _mm256_setzero_si256(), last)),
            frac: _mm256_sub_ps(x, x0),
        }
    }
}

/// Eight transfer-function lookups located but not yet fetched
/// ([`Sampler1D::taps_x8`]): a kernel gathers alpha first and the colour
/// channels only if some lane turns out to contribute.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct TapsX8<'a> {
    texels: &'a [[f32; 4]],
    /// Per lane, the flat `f32` index of the first tap's channel 0 …
    first: __m256i,
    /// … and of the second tap's: both `4·i` with `i < texels.len()`.
    second: __m256i,
    frac: __m256,
}

#[cfg(target_arch = "x86_64")]
impl TapsX8<'_> {
    /// The interpolation fraction, per lane.
    #[inline(always)]
    pub fn frac(&self) -> __m256 {
        self.frac
    }

    /// Channel `C` (0–2 colour, 3 alpha) of every lane's two taps.
    ///
    /// # Safety
    ///
    /// A safe call from code compiled for AVX2. From anywhere else the call
    /// is `unsafe`, and sound once the caller has detected AVX2 on this CPU
    /// (`is_x86_feature_detected!("avx2")`).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn channel<const C: usize>(&self) -> (__m256, __m256) {
        const { assert!(C < 4, "an RGBA texel has four channels") };
        let base = self.texels.as_ptr().cast::<f32>();
        // SAFETY: `first` and `second` are private and only built by
        // `taps_x8`, from indices clamped into `0..texels.len()` of this
        // very slice and scaled by a texel's four floats, so with `C < 4`
        // every lane reads a float inside the slice.
        unsafe {
            (
                _mm256_i32gather_ps::<4>(base.add(C), self.first),
                _mm256_i32gather_ps::<4>(base.add(C), self.second),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_tex(dims: [usize; 3]) -> Texture3D {
        // value = x + 10y + 100z (trilinear in all axes → exact reconstruction)
        let mut data = Vec::with_capacity(dims[0] * dims[1] * dims[2]);
        for z in 0..dims[2] {
            for y in 0..dims[1] {
                for x in 0..dims[0] {
                    data.push(x as f32 + 10.0 * y as f32 + 100.0 * z as f32);
                }
            }
        }
        Texture3D::new(dims, data)
    }

    #[test]
    fn sample_at_texel_centers_is_exact() {
        let t = ramp_tex([4, 4, 4]);
        for z in 0..4 {
            for y in 0..4 {
                for x in 0..4 {
                    let v = t.sample(x as f32 + 0.5, y as f32 + 0.5, z as f32 + 0.5);
                    let expect = x as f32 + 10.0 * y as f32 + 100.0 * z as f32;
                    assert!((v - expect).abs() < 1e-4, "({x},{y},{z}): {v} vs {expect}");
                }
            }
        }
    }

    #[test]
    fn trilinear_reconstructs_linear_fields_exactly() {
        let t = ramp_tex([8, 8, 8]);
        // Interior continuous positions: value must equal the linear field.
        for &(x, y, z) in &[(1.25f32, 2.75f32, 3.5f32), (4.1, 5.9, 6.3), (2.0, 2.0, 2.0)] {
            let v = t.sample(x, y, z);
            let expect = (x - 0.5) + 10.0 * (y - 0.5) + 100.0 * (z - 0.5);
            assert!(
                (v - expect).abs() < 1e-3,
                "at ({x},{y},{z}): {v} vs {expect}"
            );
        }
    }

    #[test]
    fn clamp_addressing_at_borders() {
        let t = ramp_tex([4, 4, 4]);
        // Far outside: clamps to corner texel value 3 + 30 + 300.
        assert_eq!(t.sample(100.0, 100.0, 100.0), 333.0);
        assert_eq!(t.sample(-100.0, -100.0, -100.0), 0.0);
    }

    #[test]
    fn fetch_is_nearest() {
        let t = ramp_tex([4, 4, 4]);
        assert_eq!(t.fetch(2, 1, 3), 2.0 + 10.0 + 300.0);
        assert_eq!(t.fetch(-5, 0, 0), 0.0);
        assert_eq!(t.fetch(9, 3, 3), 333.0);
    }

    #[test]
    fn tex1d_interpolates_and_clamps() {
        let t = Texture1D::new(vec![[0.0; 4], [1.0, 2.0, 3.0, 4.0]]);
        // u=0.5 lands exactly between the two texel centers (0.25, 0.75).
        let mid = t.sample(0.5);
        assert!((mid[0] - 0.5).abs() < 1e-6);
        assert!((mid[3] - 2.0).abs() < 1e-6);
        // Beyond the ends: clamp to end texels.
        assert_eq!(t.sample(-1.0), [0.0; 4]);
        assert_eq!(t.sample(2.0), [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn tex1d_single_texel_is_constant() {
        let t = Texture1D::new(vec![[0.5, 0.25, 0.125, 1.0]]);
        for i in 0..10 {
            assert_eq!(t.sample(i as f32 / 9.0), [0.5, 0.25, 0.125, 1.0]);
        }
    }

    #[test]
    #[should_panic(expected = "does not match dims")]
    fn rejects_mismatched_data() {
        Texture3D::new([2, 2, 2], vec![0.0; 7]);
    }

    #[test]
    fn sampler3d_bit_identical_to_texture_everywhere() {
        // Non-linear data so any interpolation difference shows up.
        let dims = [5usize, 4, 3];
        let data: Vec<f32> = (0..dims[0] * dims[1] * dims[2])
            .map(|i| ((i * 2654435761) % 1000) as f32 / 999.0)
            .collect();
        let t = Texture3D::new(dims, data);
        let s = t.sampler();
        // Sweep interior, borders, outside, and sub-texel positions.
        let mut coords = vec![-2.0f32, -0.49, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5];
        // Past the truncating floor's range, past the i32 range, not a number.
        coords.extend([9e6, -9e6, 3e9, -3e9, f32::NAN]);
        for i in 0..20 {
            coords.push(i as f32 * 0.3);
        }
        for &x in &coords {
            for &y in &coords {
                for &z in &coords {
                    assert_eq!(
                        t.sample(x, y, z).to_bits(),
                        s.sample_at(&s.locate(x, y, z)).to_bits(),
                        "diverged at ({x},{y},{z})"
                    );
                }
            }
        }
        for f in [-3i64, 0, 2, 7] {
            assert_eq!(t.fetch(f, f, f).to_bits(), s.fetch(f, f, f).to_bits());
        }
    }

    #[test]
    fn floor_trunc_is_floor_except_at_negative_zero() {
        let mut inputs = vec![
            0.0f32,
            0.5,
            -0.5,
            1.0,
            -1.0,
            -1e-9,
            1e-9,
            -1e-45,
            0.999_999_94,
            -0.999_999_94,
            8_388_607.5,
            -8_388_607.5,
            8_388_608.0,
            -8_388_608.0,
            1e10,
            -1e10,
            3e9,
            -3e9,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for i in -2000..2000 {
            inputs.push(i as f32 * 0.137);
            inputs.push(i as f32 * 0.5);
            inputs.push(i as f32 * 4099.3);
        }
        for x in inputs {
            let (f, i) = floor_trunc(x);
            assert_eq!(f.to_bits(), x.floor().to_bits(), "floor of {x}");
            assert_eq!(i, x.floor() as i32, "integer floor of {x}");
        }
        // The one difference, which `a − 0.5` cannot produce.
        assert_eq!(floor_trunc(-0.0).0.to_bits(), 0.0f32.to_bits());
        assert_eq!((-0.0f32).floor().to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn zero_alpha_agrees_with_an_exhaustive_sweep_of_taps() {
        // Zero runs at the start, in the middle and at the end, one
        // single-texel run, a NaN and a negative-zero alpha.
        let alpha = |i: usize| match i {
            0..=9 | 20..=29 | 40 | 57..=63 => 0.0,
            33 => f32::NAN,
            50 => -0.0,
            _ => 0.25,
        };
        let lut = Texture1D::new((0..64).map(|i| [1.0, 1.0, 1.0, alpha(i)]).collect());
        let smp = lut.sampler();
        let grid: Vec<f32> = (-40..=680).map(|i| i as f32 / 640.0).collect();
        let (mut proven, mut refuted) = (0, 0);
        for (a, &lo) in grid.iter().enumerate() {
            for &hi in grid[a..].iter().step_by(7) {
                // Every lookup the sweep can make inside [lo, hi] …
                let all_zero = (0..=200)
                    .map(|s| lo + (hi - lo) * (s as f32 / 200.0))
                    .chain([lo, hi])
                    .all(|u| {
                        let (c0, c1, t) = smp.taps(u);
                        let blended = c0[3] + (c1[3] - c0[3]) * t;
                        c0[3] == 0.0 && c1[3] == 0.0 && blended == 0.0
                    });
                // … is zero whenever the O(1) query says so (conservative).
                if lut.zero_alpha(lo, hi) {
                    assert!(all_zero, "[{lo}, {hi}] claimed transparent");
                    proven += 1;
                } else {
                    refuted += 1;
                }
            }
        }
        assert!(proven > 1000 && refuted > 1000, "{proven} / {refuted}");
        // And it is exact at the ends of a run: texel 10 is the first opaque
        // one, and the last lookup that does not blend it has x0 = 8.
        assert!(lut.zero_alpha(-5.0, 9.49 / 64.0));
        assert!(!lut.zero_alpha(-5.0, 9.51 / 64.0));
        assert!(lut.zero_alpha(57.5 / 64.0, f32::INFINITY));
        assert!(!lut.zero_alpha(56.4 / 64.0, 2.0));
        // Inverted intervals hold no lookups; NaN bounds prove nothing.
        assert!(lut.zero_alpha(0.7, 0.2));
        assert!(!lut.zero_alpha(f32::NAN, 0.1));
        assert!(!lut.zero_alpha(0.0, f32::NAN));
        // A single-texel table is all clamp path.
        assert!(Texture1D::new(vec![[1.0, 1.0, 1.0, 0.0]]).zero_alpha(-1.0, 2.0));
        assert!(!Texture1D::new(vec![[0.0, 0.0, 0.0, 0.5]]).zero_alpha(0.3, 0.3));
    }

    #[test]
    fn cells_attach_without_changing_samples() {
        let dims = [20usize, 9, 2];
        let data: Vec<f32> = (0..360).map(|i| (i % 7) as f32).collect();
        let plain = Texture3D::new(dims, data);
        assert!(plain.cells().is_none());
        // 19, 8 and 1 bases: 3 × 1 × 1 cells of edge 8.
        let with = plain.clone().with_cells(8, Arc::new(vec![[0.0, 6.0]; 3]));
        let cells = with.cells().expect("attached");
        assert_eq!((cells.edge, cells.dims), (8, [3, 1, 1]));
        assert_eq!(cells.ranges.len(), 3);
        assert_eq!(with.bytes(), plain.bytes());
        for p in [[0.3f32, 0.3, 0.3], [7.7, 4.2, 1.1], [25.0, -3.0, 0.5]] {
            let site = with.sampler().locate(p[0], p[1], p[2]);
            assert_eq!(
                with.sampler().sample_at(&site).to_bits(),
                plain.sample(p[0], p[1], p[2]).to_bits()
            );
            let want = p.map(|c| (c - 0.5).floor() as i32);
            assert_eq!(site.base_index(), want);
        }
    }

    #[test]
    #[should_panic(expected = "macrocell table does not match dims")]
    fn rejects_mismatched_cells() {
        Texture3D::new([20, 9, 2], vec![0.0; 360]).with_cells(8, Arc::new(vec![[0.0, 0.0]; 4]));
    }

    #[test]
    fn sampler1d_bit_identical_to_texture_everywhere() {
        let texels: Vec<[f32; 4]> = (0..256)
            .map(|i| {
                let v = i as f32 / 255.0;
                [v, v * v, 1.0 - v, (v * 7.3).sin().abs()]
            })
            .collect();
        // The taps and the per-channel lerp the kernel runs on them.
        let lerped = |t: &Texture1D, u: f32| {
            let s = t.sampler();
            let (a, b, f) = s.taps(u);
            [0, 1, 2, 3].map(|c| (a[c] + (b[c] - a[c]) * f).to_bits())
        };
        let t = Texture1D::new(texels);
        for i in -50..1050 {
            let u = i as f32 / 1000.0;
            assert_eq!(
                t.sample(u).map(f32::to_bits),
                lerped(&t, u),
                "diverged at {u}"
            );
        }
        // Single-texel LUT exercises the clamp path exclusively.
        let one = Texture1D::new(vec![[0.5, 0.25, 0.125, 1.0]]);
        for i in 0..10 {
            let u = i as f32 / 9.0;
            assert_eq!(one.sample(u).map(f32::to_bits), lerped(&one, u));
        }
    }

    /// Run `check` if this CPU has AVX2 (every x86-64 CI runner does; a
    /// machine without it has nothing to check the lane samplers on).
    #[cfg(target_arch = "x86_64")]
    // `check` is an `unsafe fn` pointer: the only pointer type a safe
    // `#[target_feature]` function coerces to.
    fn with_avx2(check: unsafe fn()) {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: every `check` handed in is a safe function compiled
            // for AVX2 alone, which was detected on the line above.
            unsafe { check() }
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn lanes_f32(v: __m256) -> [f32; 8] {
        // SAFETY: both are 32 bytes of plain floats.
        unsafe { std::mem::transmute(v) }
    }

    #[cfg(target_arch = "x86_64")]
    fn lanes_i32(v: __m256i) -> [i32; 8] {
        // SAFETY: both are 32 bytes of plain integers.
        unsafe { std::mem::transmute(v) }
    }

    #[cfg(target_arch = "x86_64")]
    fn splat8(a: [f32; 8]) -> __m256 {
        // SAFETY: both are 32 bytes of plain floats.
        unsafe { std::mem::transmute(a) }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_sampler3d_bit_identical_to_scalar_sampler() {
        #[target_feature(enable = "avx2")]
        fn check() {
            // Interior, borders, outside, past the truncating floor's 2²³,
            // sub-texel positions; textures one voxel thick along each axis
            // (both taps of that axis clamp onto one texel everywhere).
            let mut coords = vec![-2.0f32, -0.49, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 4.5];
            coords.extend([9e6, -9e6, 5e8, -5e8, 8_388_608.5, -1e-9]);
            coords.extend((0..20).map(|i| i as f32 * 0.3));
            let mut lanes_seen = 0;
            for dims in [[5usize, 4, 3], [1, 6, 2], [7, 1, 1], [2, 2, 1]] {
                let data: Vec<f32> = (0..dims[0] * dims[1] * dims[2])
                    .map(|i| ((i * 2654435761) % 1000) as f32 / 999.0)
                    .collect();
                let t = Texture3D::new(dims, data);
                let s = t.sampler();
                assert!(s.fits_lanes());
                for &y in &coords {
                    for &z in &coords {
                        for xs in coords.chunks(8) {
                            let mut x = [xs[0]; 8];
                            x[..xs.len()].copy_from_slice(xs);
                            // y and z vary across lanes too.
                            let ys: [f32; 8] = std::array::from_fn(|l| y + l as f32 * 0.37);
                            let zs: [f32; 8] = std::array::from_fn(|l| z - l as f32 * 0.21);
                            let site = s.locate_x8(splat8(x), splat8(ys), splat8(zs));
                            let got = lanes_f32(s.sample_at_x8(&site));
                            let base = site.base_index().map(lanes_i32);
                            for l in 0..8 {
                                let want = s.locate(x[l], ys[l], zs[l]);
                                assert_eq!(
                                    [base[0][l], base[1][l], base[2][l]],
                                    want.base_index(),
                                    "base of ({}, {}, {})",
                                    x[l],
                                    ys[l],
                                    zs[l]
                                );
                                assert_eq!(
                                    got[l].to_bits(),
                                    t.sample(x[l], ys[l], zs[l]).to_bits(),
                                    "sample at ({}, {}, {}) of {dims:?}",
                                    x[l],
                                    ys[l],
                                    zs[l]
                                );
                                lanes_seen += 1;
                            }
                        }
                    }
                }
                // Outside the contract (no bit-equality promised) the clamps
                // still keep every tap inside the texture, and a NaN
                // coordinate still yields a NaN sample.
                let wild = [
                    3e9,
                    -3e9,
                    f32::NAN,
                    f32::INFINITY,
                    f32::NEG_INFINITY,
                    1e30,
                    0.5,
                    1.0,
                ];
                let site = s.locate_x8(splat8(wild), splat8([0.5; 8]), splat8(wild));
                let got = lanes_f32(s.sample_at_x8(&site));
                assert!(got[2].is_nan());
                assert_eq!(got[6].to_bits(), t.sample(0.5, 0.5, 0.5).to_bits());
            }
            assert!(lanes_seen > 100_000);
        }
        with_avx2(check);
    }

    /// `(dims, window, stored)`: a window clipped on no side, on the low
    /// side of every axis, on the high side, on both, one texel thick, and
    /// a brick's: a 10³ ghost-padded box at a volume's corner.
    const WINDOWS: [([usize; 3], [usize; 3], [usize; 3]); 6] = [
        ([5, 4, 3], [0, 0, 0], [5, 4, 3]),
        ([7, 6, 5], [1, 1, 1], [6, 5, 4]),
        ([7, 6, 5], [0, 0, 0], [6, 5, 4]),
        ([9, 6, 5], [1, 2, 1], [7, 2, 3]),
        ([3, 4, 5], [1, 0, 4], [1, 4, 1]),
        ([10, 10, 10], [1, 1, 0], [9, 9, 9]),
    ];

    /// A windowed texture, and the texture over its whole index space with
    /// every texel outside the window written out as the window clamps it.
    fn window_pair(
        (dims, window, stored): ([usize; 3], [usize; 3], [usize; 3]),
    ) -> (Texture3D, Texture3D) {
        let data: Vec<f32> = (0..stored[0] * stored[1] * stored[2])
            .map(|i| ((i * 2654435761) % 1000) as f32 / 999.0)
            .collect();
        let at = |a: usize, i: usize| i.clamp(window[a], window[a] + stored[a] - 1) - window[a];
        let mut full = Vec::new();
        for z in 0..dims[2] {
            for y in 0..dims[1] {
                for x in 0..dims[0] {
                    full.push(data[(at(2, z) * stored[1] + at(1, y)) * stored[0] + at(0, x)]);
                }
            }
        }
        let win = Texture3D::windowed(dims, window, stored, Arc::new(data));
        (win, Texture3D::new(dims, full))
    }

    #[test]
    fn a_window_samples_as_its_clamped_box() {
        let mut coords = vec![-2.0f32, -0.49, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5];
        coords.extend([9e6, -9e6, 3e9, -3e9, f32::NAN]);
        coords.extend((0..36).map(|i| i as f32 * 0.3));
        for shape in WINDOWS {
            let (win, full) = window_pair(shape);
            assert_eq!(win.dims(), full.dims());
            let s = win.sampler();
            for &x in &coords {
                for &y in &coords {
                    for &z in &coords {
                        let want = full.sample(x, y, z).to_bits();
                        assert_eq!(
                            win.sample(x, y, z).to_bits(),
                            want,
                            "{shape:?} at ({x},{y},{z})"
                        );
                        let site = s.locate(x, y, z);
                        assert_eq!(
                            site.base_index(),
                            full.sampler().locate(x, y, z).base_index()
                        );
                        assert_eq!(
                            s.sample_at(&site).to_bits(),
                            want,
                            "{shape:?} at ({x},{y},{z})"
                        );
                    }
                }
            }
            for f in [-3i64, 0, 1, 2, 7, 12] {
                assert_eq!(win.fetch(f, f + 1, f - 1), full.fetch(f, f + 1, f - 1));
            }
            // Cells are keyed over the whole index space.
            let n: usize = cell_dims(shape.0, 8).iter().product();
            let cells = win.with_cells(8, Arc::new(vec![[0.0, 1.0]; n]));
            assert_eq!(cells.cells().unwrap().dims, cell_dims(shape.0, 8));
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_a_window_past_the_index_space() {
        Texture3D::windowed([4, 4, 4], [1, 0, 0], [4, 4, 4], Arc::new(vec![0.0; 64]));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_sampler3d_clamps_into_the_window() {
        #[target_feature(enable = "avx2")]
        fn check() {
            let mut coords = vec![-2.0f32, -0.49, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5];
            coords.extend([9e6, -9e6, 5e8, -5e8, 8_388_608.5, -1e-9]);
            coords.extend((0..36).map(|i| i as f32 * 0.3));
            for shape in WINDOWS {
                let (win, full) = window_pair(shape);
                let s = win.sampler();
                assert!(s.fits_lanes());
                for &y in &coords {
                    for &z in &coords {
                        for xs in coords.chunks(8) {
                            let mut x = [xs[0]; 8];
                            x[..xs.len()].copy_from_slice(xs);
                            let ys: [f32; 8] = std::array::from_fn(|l| y + l as f32 * 0.37);
                            let zs: [f32; 8] = std::array::from_fn(|l| z - l as f32 * 0.21);
                            let got = lanes_f32(s.sample_at_x8(&s.locate_x8(
                                splat8(x),
                                splat8(ys),
                                splat8(zs),
                            )));
                            for l in 0..8 {
                                assert_eq!(
                                    got[l].to_bits(),
                                    full.sample(x[l], ys[l], zs[l]).to_bits(),
                                    "{shape:?} at ({}, {}, {})",
                                    x[l],
                                    ys[l],
                                    zs[l]
                                );
                            }
                        }
                    }
                }
            }
        }
        with_avx2(check);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_sampler1d_bit_identical_to_scalar_taps() {
        #[target_feature(enable = "avx2")]
        fn check() {
            let texels: Vec<[f32; 4]> = (0..256)
                .map(|i| {
                    let v = i as f32 / 255.0;
                    [v, v * v, 1.0 - v, (v * 7.3).sin().abs()]
                })
                .collect();
            let mut us: Vec<f32> = (-50..1050).map(|i| i as f32 / 1000.0).collect();
            us.extend([-0.0, f32::INFINITY, f32::NEG_INFINITY, 1e-30, f32::NAN]);
            us.extend([0.5 / 256.0, 1.5 / 256.0, 255.5 / 256.0, 254.5 / 256.0]);
            for lut in [
                Texture1D::new(texels),
                // All clamp path.
                Texture1D::new(vec![[0.5, 0.25, 0.125, 1.0]]),
                Texture1D::new(vec![[0.0; 4], [1.0, 2.0, 3.0, 4.0]]),
            ] {
                let s = lut.sampler();
                assert!(s.fits_lanes());
                for chunk in us.chunks(8) {
                    let mut u = [chunk[0]; 8];
                    u[..chunk.len()].copy_from_slice(chunk);
                    let taps = s.taps_x8(splat8(u));
                    let frac = lanes_f32(taps.frac());
                    let channels = [
                        taps.channel::<0>(),
                        taps.channel::<1>(),
                        taps.channel::<2>(),
                        taps.channel::<3>(),
                    ]
                    .map(|(a, b)| (lanes_f32(a), lanes_f32(b)));
                    for l in 0..8 {
                        let (c0, c1, t) = s.taps(u[l]);
                        if u[l].is_nan() {
                            // The one documented difference: which texel a
                            // NaN lookup's NaN fraction multiplies.
                            assert!(t.is_nan() && frac[l].is_nan());
                            continue;
                        }
                        assert_eq!(frac[l].to_bits(), t.to_bits(), "fraction at {}", u[l]);
                        for (c, (first, second)) in channels.iter().enumerate() {
                            assert_eq!(first[l].to_bits(), c0[c].to_bits(), "tap 0 at {}", u[l]);
                            assert_eq!(second[l].to_bits(), c1[c].to_bits(), "tap 1 at {}", u[l]);
                        }
                    }
                }
            }
        }
        with_avx2(check);
    }
}
