//! 1-D transfer functions: scalar value → color and opacity.
//!
//! The paper uses "a texture-based 1D transfer function to obtain the final
//! color and opacity of each ray fragment" (§3.2). A [`TransferFunction`] is
//! a set of control points baked into a 256-texel RGBA LUT served as an
//! [`mgpu_gpu::Texture1D`] on the device.

use mgpu_gpu::Texture1D;

/// LUT resolution (texels).
pub(crate) const LUT_SIZE: usize = 256;

/// A control point: scalar position in `[0,1]` → straight-alpha RGBA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlPoint {
    pub value: f32,
    pub rgba: [f32; 4],
}

/// A piecewise-linear transfer function.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferFunction {
    name: &'static str,
    points: Vec<ControlPoint>,
}

impl TransferFunction {
    /// Build from control points (sorted by `value`; clamped outside).
    pub fn from_points(name: &'static str, mut points: Vec<ControlPoint>) -> TransferFunction {
        assert!(!points.is_empty(), "transfer function needs control points");
        points.sort_by(|a, b| a.value.total_cmp(&b.value));
        TransferFunction { name, points }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The sorted control points (wire encoders serialize these; decoding
    /// through [`TransferFunction::from_points`] reconstructs an equal
    /// function as the points are already in canonical order).
    pub fn points(&self) -> &[ControlPoint] {
        &self.points
    }

    /// Look up a built-in preset by its [`TransferFunction::name`]. `None`
    /// for custom point sets — those travel over the wire as explicit
    /// points instead of a name.
    pub fn preset(name: &str) -> Option<TransferFunction> {
        match name {
            "bone" => Some(TransferFunction::bone()),
            "fire" => Some(TransferFunction::fire()),
            "smoke" => Some(TransferFunction::smoke()),
            "grayscale" => Some(TransferFunction::grayscale()),
            _ => None,
        }
    }

    /// Evaluate at scalar `v` (piecewise linear, clamped).
    pub fn eval(&self, v: f32) -> [f32; 4] {
        let pts = &self.points;
        if v <= pts[0].value {
            return pts[0].rgba;
        }
        if v >= pts[pts.len() - 1].value {
            return pts[pts.len() - 1].rgba;
        }
        let i = pts.partition_point(|p| p.value <= v).min(pts.len() - 1);
        let (a, b) = (&pts[i - 1], &pts[i]);
        let span = (b.value - a.value).max(1e-12);
        let t = (v - a.value) / span;
        let mut out = [0f32; 4];
        for (c, o) in out.iter_mut().enumerate() {
            *o = a.rgba[c] + (b.rgba[c] - a.rgba[c]) * t;
        }
        out
    }

    /// Bake into the 256-texel device LUT.
    pub fn bake(&self) -> Texture1D {
        let texels = (0..LUT_SIZE)
            .map(|i| self.eval((i as f32 + 0.5) / LUT_SIZE as f32))
            .collect();
        Texture1D::new(texels)
    }

    /// Device bytes of the baked LUT (static mapper state).
    pub fn device_bytes(&self) -> u64 {
        (LUT_SIZE * 16) as u64
    }

    /// CT-bone preset for the Skull: soft tissue faint and warm, bone bright
    /// and opaque.
    pub fn bone() -> TransferFunction {
        TransferFunction::from_points(
            "bone",
            vec![
                ControlPoint {
                    value: 0.00,
                    rgba: [0.0, 0.0, 0.0, 0.0],
                },
                ControlPoint {
                    value: 0.08,
                    rgba: [0.0, 0.0, 0.0, 0.0],
                },
                ControlPoint {
                    value: 0.18,
                    rgba: [0.55, 0.25, 0.15, 0.02],
                },
                ControlPoint {
                    value: 0.40,
                    rgba: [0.80, 0.55, 0.40, 0.08],
                },
                ControlPoint {
                    value: 0.65,
                    rgba: [0.95, 0.90, 0.80, 0.55],
                },
                ControlPoint {
                    value: 1.00,
                    rgba: [1.0, 1.0, 0.95, 0.95],
                },
            ],
        )
    }

    /// Fire preset for the Supernova: black→red→orange→white with rising
    /// opacity.
    pub fn fire() -> TransferFunction {
        TransferFunction::from_points(
            "fire",
            vec![
                ControlPoint {
                    value: 0.00,
                    rgba: [0.0, 0.0, 0.0, 0.0],
                },
                ControlPoint {
                    value: 0.10,
                    rgba: [0.1, 0.0, 0.0, 0.0],
                },
                ControlPoint {
                    value: 0.30,
                    rgba: [0.6, 0.05, 0.0, 0.08],
                },
                ControlPoint {
                    value: 0.55,
                    rgba: [0.9, 0.45, 0.05, 0.25],
                },
                ControlPoint {
                    value: 0.80,
                    rgba: [1.0, 0.8, 0.3, 0.6],
                },
                ControlPoint {
                    value: 1.00,
                    rgba: [1.0, 1.0, 0.9, 0.9],
                },
            ],
        )
    }

    /// Cool smoke preset for the Plume.
    pub fn smoke() -> TransferFunction {
        TransferFunction::from_points(
            "smoke",
            vec![
                ControlPoint {
                    value: 0.00,
                    rgba: [0.0, 0.0, 0.0, 0.0],
                },
                ControlPoint {
                    value: 0.05,
                    rgba: [0.1, 0.1, 0.2, 0.0],
                },
                ControlPoint {
                    value: 0.25,
                    rgba: [0.3, 0.4, 0.7, 0.06],
                },
                ControlPoint {
                    value: 0.55,
                    rgba: [0.55, 0.7, 0.9, 0.25],
                },
                ControlPoint {
                    value: 0.85,
                    rgba: [0.9, 0.95, 1.0, 0.7],
                },
                ControlPoint {
                    value: 1.00,
                    rgba: [1.0, 1.0, 1.0, 0.9],
                },
            ],
        )
    }

    /// Opacity-ramp grayscale (tests and debugging).
    pub fn grayscale() -> TransferFunction {
        TransferFunction::from_points(
            "grayscale",
            vec![
                ControlPoint {
                    value: 0.0,
                    rgba: [0.0, 0.0, 0.0, 0.0],
                },
                ControlPoint {
                    value: 1.0,
                    rgba: [1.0, 1.0, 1.0, 1.0],
                },
            ],
        )
    }

    /// Default preset per dataset name.
    pub fn for_dataset(name: &str) -> TransferFunction {
        match name {
            "skull" => TransferFunction::bone(),
            "supernova" => TransferFunction::fire(),
            "plume" => TransferFunction::smoke(),
            _ => TransferFunction::grayscale(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_interpolates_and_clamps() {
        let tf = TransferFunction::grayscale();
        assert_eq!(tf.eval(-1.0), [0.0; 4]);
        assert_eq!(tf.eval(2.0), [1.0; 4]);
        let mid = tf.eval(0.5);
        for c in mid {
            assert!((c - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn bake_matches_eval_at_texel_centers() {
        let tf = TransferFunction::fire();
        let lut = tf.bake();
        for i in [0usize, 17, 128, 255] {
            let u = (i as f32 + 0.5) / 256.0;
            let a = tf.eval(u);
            let b = lut.sample(u);
            for c in 0..4 {
                assert!((a[c] - b[c]).abs() < 1e-5, "texel {i} channel {c}");
            }
        }
    }

    #[test]
    fn presets_have_transparent_air() {
        for tf in [
            TransferFunction::bone(),
            TransferFunction::fire(),
            TransferFunction::smoke(),
        ] {
            assert_eq!(tf.eval(0.0)[3], 0.0, "{} air must be clear", tf.name());
            assert!(
                tf.eval(0.95)[3] > 0.4,
                "{} dense must be visible",
                tf.name()
            );
        }
    }

    #[test]
    fn for_dataset_mapping() {
        assert_eq!(TransferFunction::for_dataset("skull").name(), "bone");
        assert_eq!(TransferFunction::for_dataset("supernova").name(), "fire");
        assert_eq!(TransferFunction::for_dataset("plume").name(), "smoke");
        assert_eq!(TransferFunction::for_dataset("other").name(), "grayscale");
    }

    #[test]
    fn unsorted_points_get_sorted() {
        let tf = TransferFunction::from_points(
            "t",
            vec![
                ControlPoint {
                    value: 1.0,
                    rgba: [1.0; 4],
                },
                ControlPoint {
                    value: 0.0,
                    rgba: [0.0; 4],
                },
            ],
        );
        assert!(tf.eval(0.25)[0] < tf.eval(0.75)[0]);
    }
}
