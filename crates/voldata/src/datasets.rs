//! Procedural stand-ins for the paper's three datasets.
//!
//! The paper evaluates on **Skull** (CT head), **Supernova** (astrophysics
//! simulation) and **Plume** (512×512×2048 buoyant plume). Those files are
//! not redistributable, so we synthesize fields with the same resolutions and
//! qualitatively similar density structure: a hard shell with cavities and
//! soft interior (Skull), a turbulent spherical shock with filamentary core
//! (Supernova), and a rising, widening column (Plume). Rendering cost is
//! governed by resolution, ray coverage and opacity distribution, all of
//! which these preserve; only the pictures' subject differs.

use std::sync::Arc;

use crate::field::ScalarField;
use crate::noise::{FractalRow, NoiseRow};
use crate::volume::Volume;

/// The paper's three evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    Skull,
    Supernova,
    Plume,
}

impl Dataset {
    pub const ALL: [Dataset; 3] = [Dataset::Skull, Dataset::Supernova, Dataset::Plume];

    pub fn name(self) -> &'static str {
        match self {
            Dataset::Skull => "skull",
            Dataset::Supernova => "supernova",
            Dataset::Plume => "plume",
        }
    }

    /// Inverse of [`Dataset::name`] — how a wire protocol resolves a dataset
    /// reference back to the procedural volume on the receiving side.
    pub fn from_name(name: &str) -> Option<Dataset> {
        Dataset::ALL.into_iter().find(|d| d.name() == name)
    }

    /// Default seed per dataset (stable across the whole reproduction).
    pub fn seed(self) -> u64 {
        match self {
            Dataset::Skull => 0x5C11,
            Dataset::Supernova => 0x50BA,
            Dataset::Plume => 0x9127,
        }
    }

    /// Volume dimensions for a given base size: cubes for Skull/Supernova
    /// (the paper uses 128³…1024³), a 1:1:4 column for Plume (512×512×2048).
    pub fn dims(self, base: u32) -> [u32; 3] {
        match self {
            Dataset::Skull | Dataset::Supernova => [base, base, base],
            Dataset::Plume => [base, base, base * 4],
        }
    }

    pub fn field(self) -> Arc<dyn ScalarField> {
        let seed = self.seed();
        match self {
            Dataset::Skull => Arc::new(SkullField { seed }),
            Dataset::Supernova => Arc::new(SupernovaField { seed }),
            Dataset::Plume => Arc::new(PlumeField { seed }),
        }
    }

    /// Build the procedural volume at `base` resolution.
    pub fn volume(self, base: u32) -> Volume {
        Volume::procedural(self.name(), self.dims(base), self.seed(), self.field())
    }
}

#[inline]
fn smooth_band(x: f32, center: f32, width: f32) -> f32 {
    let d = (x - center).abs() / width;
    if d >= 1.0 {
        0.0
    } else {
        let t = 1.0 - d;
        t * t * (3.0 - 2.0 * t)
    }
}

#[inline]
fn clamp01(v: f32) -> f32 {
    v.clamp(0.0, 1.0)
}

/// `sample` of a field whose one formula is its `sample_row`: the row of one.
fn sample_one(field: &impl ScalarField, x: f32, y: f32, z: f32) -> f32 {
    let mut out = [0.0];
    field.sample_row(&[x], y, z, &mut out);
    out[0]
}

/// CT-head stand-in: hard cranial shell with eye-socket cavities, soft brain
/// interior, faint skin layer.
struct SkullField {
    seed: u64,
}

impl ScalarField for SkullField {
    fn sample(&self, x: f32, y: f32, z: f32) -> f32 {
        sample_one(self, x, y, z)
    }

    fn sample_row(&self, xs: &[f32], y: f32, z: f32, out: &mut [f32]) {
        // Head-shaped ellipsoid: slightly narrow in x, tall in z.
        let py = (y - 0.5) / 0.95;
        let pz = (z - 0.52) / 1.02;
        let mut lump_noise = NoiseRow::new(y * 9.0, z * 9.0, self.seed);
        let mut folds_fbm = FractalRow::<3>::fbm(y * 14.0, z * 14.0, 2.1, 0.5, self.seed ^ 0xB4A1);
        for (out, &x) in out.iter_mut().zip(xs) {
            let px = (x - 0.5) / 0.88;
            let r = (px * px + py * py + pz * pz).sqrt();

            // Lumpy cranial radius.
            let lump = lump_noise.at(x * 9.0) - 0.5;
            let shell_r = 0.335 + 0.02 * lump;

            // Bone: a hard, bright shell.
            let mut v = 0.92 * smooth_band(r, shell_r, 0.035);

            // Eye sockets carve two notches out of the front of the shell.
            for sx in [-1.0f32, 1.0] {
                let ex = px - sx * 0.14;
                let ey = py + 0.30;
                let ez = pz - 0.05;
                let er = (ex * ex + ey * ey + ez * ez).sqrt();
                if er < 0.09 {
                    let t = 1.0 - er / 0.09;
                    v *= 1.0 - t * t;
                }
            }

            // Brain: mid-density convoluted interior.
            if r < shell_r - 0.03 {
                let folds = folds_fbm.at(x * 14.0);
                v = v.max(0.30 + 0.18 * folds);
            }

            // Skin: faint thin layer outside the bone.
            v = v.max(0.12 * smooth_band(r, 0.40, 0.015));

            *out = clamp01(v);
        }
    }
}

/// Core-collapse supernova stand-in: turbulent spherical shock shell with
/// filamentary ejecta inside and a small hot core.
struct SupernovaField {
    seed: u64,
}

impl ScalarField for SupernovaField {
    fn sample(&self, x: f32, y: f32, z: f32) -> f32 {
        sample_one(self, x, y, z)
    }

    fn sample_row(&self, xs: &[f32], y: f32, z: f32, out: &mut [f32]) {
        let py = y - 0.5;
        let pz = z - 0.5;
        let mut wob_turbulence = FractalRow::<3>::turbulence(y * 5.0, z * 5.0, 2.0, 0.5, self.seed);
        let mut fil_turbulence =
            FractalRow::<3>::turbulence(y * 11.0, z * 11.0, 2.2, 0.55, self.seed ^ 0xE);
        for (out, &x) in out.iter_mut().zip(xs) {
            let px = x - 0.5;
            let r = (px * px + py * py + pz * pz).sqrt();
            if r > 0.48 {
                *out = 0.0;
                continue;
            }

            // Direction-dependent shock radius: the blast wave is aspherical.
            let wob = wob_turbulence.at(x * 5.0);
            let shock_r = 0.36 + 0.05 * (wob - 0.5);

            let mut v = 0.85 * smooth_band(r, shock_r, 0.045);

            // Filamentary ejecta fill the interior, fading towards the shock.
            if r < shock_r {
                let fil = fil_turbulence.at(x * 11.0);
                let radial = 1.0 - (r / shock_r);
                v = v.max(clamp01(0.65 * fil * (0.35 + 0.65 * radial)));
            }

            // Hot compact core.
            if r < 0.06 {
                let t = 1.0 - r / 0.06;
                v = v.max(0.95 * t * t);
            }

            *out = clamp01(v);
        }
    }
}

/// Buoyant-plume stand-in: a rising column that widens, sways and turns
/// turbulent with height (tall axis = z, matching 512×512×2048).
struct PlumeField {
    seed: u64,
}

impl ScalarField for PlumeField {
    fn sample(&self, x: f32, y: f32, z: f32) -> f32 {
        sample_one(self, x, y, z)
    }

    fn sample_row(&self, xs: &[f32], y: f32, z: f32, out: &mut [f32]) {
        let h = z; // height fraction along the tall axis

        // The plume axis drifts with height (noise-driven sway, no trig):
        // `value_noise(h * 4.0, 0.31, 7.7)` and `value_noise(9.2, h * 4.0, 1.3)`.
        let sway_x = 0.18 * (NoiseRow::new(0.31, 7.7, self.seed).at(h * 4.0) - 0.5) * h;
        let sway_y = 0.18 * (NoiseRow::new(h * 4.0, 1.3, self.seed ^ 0x77).at(9.2) - 0.5) * h;
        let dy = y - (0.5 + sway_y);

        // Column radius grows with height; density thins as it rises.
        let radius = 0.055 + 0.22 * h;

        // Turbulent mixing intensifies with height.
        let mut turb_fbm = FractalRow::<3>::fbm(y * 7.0, z * 21.0, 2.0, 0.5, self.seed ^ 0xF00D);
        for (out, &x) in out.iter_mut().zip(xs) {
            let dx = x - (0.5 + sway_x);
            let d = (dx * dx + dy * dy).sqrt();
            let core = (-3.0 * (d / radius) * (d / radius)).exp();
            let turb = turb_fbm.at(x * 7.0);
            let mixed = core * (0.55 + 0.45 * turb) * (1.0 - 0.55 * h);

            // Hot source pool at the base.
            let base = if h < 0.04 && d < 0.12 {
                (1.0 - h / 0.04) * (1.0 - d / 0.12) * 0.9
            } else {
                0.0
            };

            *out = clamp01((1.35 * mixed).max(base));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::VolumeStats;

    #[test]
    fn dims_match_paper() {
        assert_eq!(Dataset::Skull.dims(1024), [1024, 1024, 1024]);
        assert_eq!(Dataset::Plume.dims(512), [512, 512, 2048]);
    }

    #[test]
    fn volumes_are_deterministic() {
        let a = Dataset::Supernova.volume(16).materialize_full();
        let b = Dataset::Supernova.volume(16).materialize_full();
        assert_eq!(a, b);
    }

    #[test]
    fn fields_stay_in_unit_range_and_are_nontrivial() {
        for ds in Dataset::ALL {
            let v = ds.volume(32);
            let stats = VolumeStats::compute(&v, 64);
            assert!(stats.min >= 0.0, "{ds:?} has negative samples");
            assert!(stats.max <= 1.0, "{ds:?} exceeds 1.0");
            assert!(
                stats.max - stats.min > 0.3,
                "{ds:?} looks degenerate: {stats:?}"
            );
            // Plenty of empty space (rays must be able to terminate early)…
            assert!(stats.fraction_below(0.05) > 0.2, "{ds:?}: {stats:?}");
            // …but also real structure.
            assert!(stats.fraction_above(0.3) > 0.005, "{ds:?}: {stats:?}");
        }
    }

    #[test]
    fn skull_has_bright_shell() {
        let v = Dataset::Skull.volume(64);
        let stats = VolumeStats::compute(&v, 16);
        assert!(stats.max > 0.8, "no bone-density voxels: {stats:?}");
    }

    #[test]
    fn plume_density_concentrated_near_axis() {
        let f = Dataset::Plume.field();
        // Near the axis at low height: dense. Far corner: empty.
        assert!(f.sample(0.5, 0.5, 0.1) > 0.3);
        assert!(f.sample(0.05, 0.05, 0.5) < 0.05);
    }

    #[test]
    fn supernova_empty_outside_blast() {
        let f = Dataset::Supernova.field();
        assert_eq!(f.sample(0.01, 0.01, 0.01), 0.0);
        // Somewhere on the shock shell radius there is material.
        let mut found = false;
        for i in 0..64 {
            let t = i as f32 / 63.0;
            if f.sample(0.5 + 0.36 * t, 0.5, 0.5) > 0.4 {
                found = true;
            }
        }
        assert!(found, "no shock shell material found");
    }
}
