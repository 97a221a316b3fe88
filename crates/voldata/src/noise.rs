//! Deterministic value noise and fractal Brownian motion for procedural
//! volume synthesis.
//!
//! The paper's datasets (Skull, Supernova, Plume) are not redistributable;
//! the procedural stand-ins built on this module have the same resolutions
//! and qualitatively similar structure. Everything here is seeded and pure —
//! two processes with the same seed produce bit-identical volumes.

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

/// Turbulence: fBm over |2n−1|, giving billowy ridged structure (used for the
/// supernova shock shell).
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
