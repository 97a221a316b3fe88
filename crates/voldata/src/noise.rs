//! Deterministic value noise and fractal Brownian motion for procedural
//! volume synthesis.
//!
//! The paper's datasets (Skull, Supernova, Plume) are not redistributable;
//! the procedural stand-ins built on this module have the same resolutions
//! and qualitatively similar structure. Everything here is seeded and pure —
//! two processes with the same seed produce bit-identical volumes.
//!
//! The datasets evaluate noise a row at a time, through crate-private row
//! evaluators that hold what depends only on `(y, z)` and the current
//! lattice cell. The per-point functions here are their reference: each
//! row value has exactly the bits of the matching per-point call.

/// A fast integer hash (SplitMix64 finalizer) turning a lattice point and a
/// seed into well-mixed bits.
#[inline]
pub(crate) fn hash3(ix: i64, iy: i64, iz: i64, seed: u64) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for v in [ix as u64, iy as u64, iz as u64] {
        h ^= v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = h.rotate_left(31).wrapping_mul(0x94D0_49BB_1331_11EB);
    }
    h ^= h >> 31;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^= h >> 27;
    h
}

/// Uniform value in [0, 1) at a lattice point.
#[inline]
pub fn lattice(ix: i64, iy: i64, iz: i64, seed: u64) -> f32 {
    // Take the top 24 bits for an exact f32 in [0,1).
    ((hash3(ix, iy, iz, seed) >> 40) as f32) * (1.0 / 16_777_216.0)
}

/// Quintic smoothstep (C² continuous), the classic Perlin fade curve.
#[inline]
fn fade(t: f32) -> f32 {
    t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
}

#[inline]
fn lerp(a: f32, b: f32, t: f32) -> f32 {
    a + (b - a) * t
}

/// Trilinearly interpolated value noise in [0, 1).
///
/// Coordinates are in lattice units: features are ~1 unit across.
pub fn value_noise(x: f32, y: f32, z: f32, seed: u64) -> f32 {
    let fx = x.floor();
    let fy = y.floor();
    let fz = z.floor();
    let ix = fx as i64;
    let iy = fy as i64;
    let iz = fz as i64;
    let tx = fade(x - fx);
    let ty = fade(y - fy);
    let tz = fade(z - fz);

    let c000 = lattice(ix, iy, iz, seed);
    let c100 = lattice(ix + 1, iy, iz, seed);
    let c010 = lattice(ix, iy + 1, iz, seed);
    let c110 = lattice(ix + 1, iy + 1, iz, seed);
    let c001 = lattice(ix, iy, iz + 1, seed);
    let c101 = lattice(ix + 1, iy, iz + 1, seed);
    let c011 = lattice(ix, iy + 1, iz + 1, seed);
    let c111 = lattice(ix + 1, iy + 1, iz + 1, seed);

    let x00 = lerp(c000, c100, tx);
    let x10 = lerp(c010, c110, tx);
    let x01 = lerp(c001, c101, tx);
    let x11 = lerp(c011, c111, tx);
    let y0 = lerp(x00, x10, ty);
    let y1 = lerp(x01, x11, ty);
    lerp(y0, y1, tz)
}

/// Fractal Brownian motion: `octaves` layers of value noise, each `lacunarity`
/// times finer and `gain` times weaker. Output normalized to [0, 1).
pub fn fbm(x: f32, y: f32, z: f32, octaves: u32, lacunarity: f32, gain: f32, seed: u64) -> f32 {
    let mut sum = 0.0f32;
    let mut amp = 1.0f32;
    let mut norm = 0.0f32;
    let mut fx = x;
    let mut fy = y;
    let mut fz = z;
    for o in 0..octaves {
        sum += amp * value_noise(fx, fy, fz, seed.wrapping_add(o as u64 * 0x9E3779B9));
        norm += amp;
        amp *= gain;
        fx *= lacunarity;
        fy *= lacunarity;
        fz *= lacunarity;
    }
    if norm > 0.0 {
        sum / norm
    } else {
        0.0
    }
}

/// One octave of [`value_noise`] along a row: `x` varies, `(y, z, seed)` are
/// fixed. The y/z lattice indices and fade weights are computed once, and
/// the eight corners of the current x cell are kept while consecutive
/// samples stay in it. Every value is bit-identical to `value_noise`: the
/// same corners, the same fade, and the same lerps in the same order.
#[derive(Clone, Copy)]
pub(crate) struct NoiseRow {
    iy: i64,
    iz: i64,
    ty: f32,
    tz: f32,
    seed: u64,
    /// `floor(x)` of the x cell `corners` belong to; NaN before the first
    /// sample.
    cell: f32,
    /// `c000, c100, c010, c110, c001, c101, c011, c111`, as in `value_noise`.
    corners: [f32; 8],
}

impl NoiseRow {
    pub(crate) fn new(y: f32, z: f32, seed: u64) -> NoiseRow {
        let fy = y.floor();
        let fz = z.floor();
        NoiseRow {
            iy: fy as i64,
            iz: fz as i64,
            ty: fade(y - fy),
            tz: fade(z - fz),
            seed,
            cell: f32::NAN,
            corners: [0.0; 8],
        }
    }

    /// `value_noise(x, y, z, seed)`.
    ///
    /// While `x` stays in the kept cell, `cell` is its floor (the cell's
    /// bounds are exact integers, and the upper one is a strict bound even
    /// where `cell + 1.0` rounds), so neither `floor` nor a hash runs. A
    /// zero of the other sign than `floor(x)` only flips the sign of
    /// `tx = 0`, which no lerp of the non-negative corners can see.
    #[inline]
    pub(crate) fn at(&mut self, x: f32) -> f32 {
        if !(x >= self.cell && x < self.cell + 1.0) {
            let fx = x.floor();
            let ix = fx as i64;
            let (iy, iz, seed) = (self.iy, self.iz, self.seed);
            self.corners = [
                lattice(ix, iy, iz, seed),
                lattice(ix + 1, iy, iz, seed),
                lattice(ix, iy + 1, iz, seed),
                lattice(ix + 1, iy + 1, iz, seed),
                lattice(ix, iy, iz + 1, seed),
                lattice(ix + 1, iy, iz + 1, seed),
                lattice(ix, iy + 1, iz + 1, seed),
                lattice(ix + 1, iy + 1, iz + 1, seed),
            ];
            self.cell = fx;
        }
        let tx = fade(x - self.cell);
        let [c000, c100, c010, c110, c001, c101, c011, c111] = self.corners;
        let x00 = lerp(c000, c100, tx);
        let x10 = lerp(c010, c110, tx);
        let x01 = lerp(c001, c101, tx);
        let x11 = lerp(c011, c111, tx);
        let y0 = lerp(x00, x10, self.ty);
        let y1 = lerp(x01, x11, self.ty);
        lerp(y0, y1, self.tz)
    }
}

/// [`fbm`] or `turbulence` of `N` octaves along a row at fixed `(y, z)`:
/// one [`NoiseRow`] per octave, each at that octave's y and z, and the
/// amplitudes and their sum taken once. Bit-identical to the per-point
/// functions: each octave's coordinates are multiplied by the lacunarity
/// octave by octave, and the terms are summed in octave order.
pub(crate) struct FractalRow<const N: usize> {
    octaves: [NoiseRow; N],
    amps: [f32; N],
    norm: f32,
    lacunarity: f32,
    turbulent: bool,
}

impl<const N: usize> FractalRow<N> {
    /// The row of `fbm(·, y, z, N, lacunarity, gain, seed)`.
    pub(crate) fn fbm(y: f32, z: f32, lacunarity: f32, gain: f32, seed: u64) -> Self {
        Self::new(y, z, lacunarity, gain, seed, 0x9E3779B9, false)
    }

    /// The row of `turbulence(·, y, z, N, lacunarity, gain, seed)`.
    pub(crate) fn turbulence(y: f32, z: f32, lacunarity: f32, gain: f32, seed: u64) -> Self {
        Self::new(y, z, lacunarity, gain, seed, 0x517C_C1B7, true)
    }

    fn new(
        y: f32,
        z: f32,
        lacunarity: f32,
        gain: f32,
        seed: u64,
        seed_step: u64,
        turbulent: bool,
    ) -> Self {
        let mut octaves = [NoiseRow::new(y, z, seed); N];
        let mut amps = [0.0f32; N];
        let mut norm = 0.0f32;
        let mut amp = 1.0f32;
        let mut fy = y;
        let mut fz = z;
        for (o, (row, row_amp)) in octaves.iter_mut().zip(&mut amps).enumerate() {
            *row = NoiseRow::new(fy, fz, seed.wrapping_add(o as u64 * seed_step));
            *row_amp = amp;
            norm += amp;
            amp *= gain;
            fy *= lacunarity;
            fz *= lacunarity;
        }
        FractalRow {
            octaves,
            amps,
            norm,
            lacunarity,
            turbulent,
        }
    }

    /// The fractal sum at `x`.
    #[inline]
    pub(crate) fn at(&mut self, x: f32) -> f32 {
        let mut sum = 0.0f32;
        let mut fx = x;
        for (row, amp) in self.octaves.iter_mut().zip(self.amps) {
            let n = row.at(fx);
            sum += amp
                * if self.turbulent {
                    (2.0 * n - 1.0).abs()
                } else {
                    n
                };
            fx *= self.lacunarity;
        }
        if self.norm > 0.0 {
            sum / self.norm
        } else {
            0.0
        }
    }
}

/// Turbulence: fBm over |2n−1|, giving billowy ridged structure (used for the
/// supernova shock shell). The datasets evaluate it a row at a time through
/// [`FractalRow::turbulence`]; this per-point form is its reference.
#[cfg(test)]
pub(crate) fn turbulence(
    x: f32,
    y: f32,
    z: f32,
    octaves: u32,
    lacunarity: f32,
    gain: f32,
    seed: u64,
) -> f32 {
    let mut sum = 0.0f32;
    let mut amp = 1.0f32;
    let mut norm = 0.0f32;
    let mut fx = x;
    let mut fy = y;
    let mut fz = z;
    for o in 0..octaves {
        let n = value_noise(fx, fy, fz, seed.wrapping_add(o as u64 * 0x517C_C1B7));
        sum += amp * (2.0 * n - 1.0).abs();
        norm += amp;
        amp *= gain;
        fx *= lacunarity;
        fy *= lacunarity;
        fz *= lacunarity;
    }
    if norm > 0.0 {
        sum / norm
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every sample of `xs` from the row evaluators against the per-point
    /// reference, bit for bit: `value_noise` for one octave, `fbm` and
    /// `turbulence` for `N`.
    fn rows_match_points<const N: usize>(
        xs: &[f32],
        (y, z): (f32, f32),
        lacunarity: f32,
        gain: f32,
        seed: u64,
    ) -> Result<(), String> {
        let mut noise = NoiseRow::new(y, z, seed);
        let mut fbm_row = FractalRow::<N>::fbm(y, z, lacunarity, gain, seed);
        let mut turbulence_row = FractalRow::<N>::turbulence(y, z, lacunarity, gain, seed);
        for &x in xs {
            let octaves = N as u32;
            for (what, row, point) in [
                ("value_noise", noise.at(x), value_noise(x, y, z, seed)),
                (
                    "fbm",
                    fbm_row.at(x),
                    fbm(x, y, z, octaves, lacunarity, gain, seed),
                ),
                (
                    "turbulence",
                    turbulence_row.at(x),
                    turbulence(x, y, z, octaves, lacunarity, gain, seed),
                ),
            ] {
                prop_assert_eq!(
                    row.to_bits(),
                    point.to_bits(),
                    "{what} at ({x}, {y}, {z}), {N} octaves × {lacunarity}, seed {seed}"
                );
            }
        }
        Ok(())
    }

    fn rows_match_points_at(
        octaves: u32,
        xs: &[f32],
        yz: (f32, f32),
        lacunarity: f32,
        gain: f32,
        seed: u64,
    ) -> Result<(), String> {
        match octaves {
            1 => rows_match_points::<1>(xs, yz, lacunarity, gain, seed),
            2 => rows_match_points::<2>(xs, yz, lacunarity, gain, seed),
            3 => rows_match_points::<3>(xs, yz, lacunarity, gain, seed),
            _ => rows_match_points::<4>(xs, yz, lacunarity, gain, seed),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Rows as synthesis makes them (evenly spaced, rising) with a step
        /// that stays inside one cell for the whole row or crosses a cell
        /// every few samples, and rows that jump back and forth; negative
        /// coordinates, octaves 1–4, the datasets' lacunarities and any seed.
        #[test]
        fn row_evaluators_equal_the_per_point_noise(
            (kind, x0, step, len) in (0u32..4, -40.0f32..40.0, 0.0f32..1.0, 1usize..48),
            (y, z) in (-40.0f32..40.0, -40.0f32..40.0),
            jumps in prop::collection::vec(-40.0f32..40.0, 1..48),
            (octaves, lacunarity, gain, seed) in (1u32..5, 0usize..3, 0.3f32..0.8, 0u64..u64::MAX),
        ) {
            let step = match kind {
                0 => step * 1e-3,
                1 => step * 0.05,
                _ => 0.2 + 2.0 * step,
            };
            let xs: Vec<f32> = if kind == 3 {
                jumps
            } else {
                (0..len).map(|i| x0 + i as f32 * step).collect()
            };
            let lacunarity = [2.0, 2.1, 2.2][lacunarity];
            rows_match_points_at(octaves, &xs, (y, z), lacunarity, gain, seed)?;
        }
    }

    #[test]
    fn row_evaluators_equal_the_per_point_noise_at_cell_edges() {
        // Signed zeros, exact lattice points and the last float below one,
        // cells where `cell + 1.0` rounds (2²⁴ and up), and a jump back.
        let below_one = 1.0f32 - f32::EPSILON / 2.0;
        let xs = [
            -0.0,
            0.0,
            -0.0,
            below_one,
            1.0,
            -1.0,
            -below_one,
            -0.0,
            16_777_216.0,
            16_777_218.0,
            16_777_216.0,
            33_554_436.0,
            -16_777_216.0,
            1e10,
            -1e10,
            0.5,
        ];
        for (octaves, yz) in [(1, (0.0, -0.0)), (4, (-3.5, 16_777_216.0))] {
            rows_match_points_at(octaves, &xs, yz, 2.0, 0.5, 0x5C11).unwrap();
        }
    }

    #[test]
    fn lattice_values_in_unit_interval() {
        for i in -50i64..50 {
            let v = lattice(i, i * 3, -i, 42);
            assert!((0.0..1.0).contains(&v), "lattice out of range: {v}");
        }
    }

    #[test]
    fn hash_is_seed_sensitive() {
        assert_ne!(hash3(1, 2, 3, 1), hash3(1, 2, 3, 2));
        assert_ne!(hash3(1, 2, 3, 1), hash3(3, 2, 1, 1));
    }

    #[test]
    fn value_noise_matches_lattice_at_integers() {
        for (ix, iy, iz) in [(0i64, 0i64, 0i64), (5, -3, 2), (100, 7, -9)] {
            let expect = lattice(ix, iy, iz, 7);
            let got = value_noise(ix as f32, iy as f32, iz as f32, 7);
            assert!(
                (expect - got).abs() < 1e-6,
                "noise at lattice point should equal lattice value"
            );
        }
    }

    #[test]
    fn value_noise_is_continuous() {
        // Sample along a line crossing a lattice boundary; steps must be tiny.
        let mut prev = value_noise(0.95, 0.5, 0.5, 9);
        let mut x = 0.95f32;
        while x < 1.05 {
            x += 0.001;
            let v = value_noise(x, 0.5, 0.5, 9);
            assert!((v - prev).abs() < 0.02, "discontinuity at x={x}");
            prev = v;
        }
    }

    #[test]
    fn fbm_in_unit_interval_and_deterministic() {
        for p in 0..100 {
            let x = p as f32 * 0.37;
            let a = fbm(x, 1.3, -2.1, 4, 2.0, 0.5, 11);
            let b = fbm(x, 1.3, -2.1, 4, 2.0, 0.5, 11);
            assert_eq!(a, b);
            assert!((0.0..=1.0).contains(&a));
        }
    }

    #[test]
    fn turbulence_in_unit_interval() {
        for p in 0..100 {
            let v = turbulence(p as f32 * 0.21, 0.5, 9.1, 4, 2.0, 0.5, 3);
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn zero_octaves_is_zero() {
        assert_eq!(fbm(1.0, 2.0, 3.0, 0, 2.0, 0.5, 1), 0.0);
        assert_eq!(turbulence(1.0, 2.0, 3.0, 0, 2.0, 0.5, 1), 0.0);
    }
}
