//! Scalar fields: continuous functions over the unit cube that procedural
//! volumes are sampled from, a row of voxels at a time.

/// A continuous scalar field over normalized volume coordinates `[0,1]³`.
///
/// Implementations must be pure (same input → same output) so that brick
/// materialization is deterministic and order-independent.
///
/// A row of voxels along x is the unit of synthesis: materializing a region
/// makes one [`ScalarField::sample_row`] call per row, so a field can take
/// what depends only on `(y, z)` once per row and reuse work between
/// neighbouring samples. A row must hold exactly the values `sample` gives.
pub trait ScalarField: Send + Sync {
    /// Sample the field; callers pass voxel-center coordinates. Outputs
    /// should be in `[0, 1]` (the transfer functions assume this domain).
    fn sample(&self, x: f32, y: f32, z: f32) -> f32;

    /// `out[i] = self.sample(xs[i], y, z)` for every `i`; `xs` and `out`
    /// have the same length. The default samples point by point.
    fn sample_row(&self, xs: &[f32], y: f32, z: f32, out: &mut [f32]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = self.sample(x, y, z);
        }
    }
}

impl<F> ScalarField for F
where
    F: Fn(f32, f32, f32) -> f32 + Send + Sync,
{
    fn sample(&self, x: f32, y: f32, z: f32) -> f32 {
        self(x, y, z)
    }
}

/// A constant field.
#[cfg(test)]
pub(crate) struct Constant(pub f32);

#[cfg(test)]
impl ScalarField for Constant {
    fn sample(&self, _x: f32, _y: f32, _z: f32) -> f32 {
        self.0
    }
}

/// A linear ramp along one axis (trilinear sampling reconstructs it
/// exactly).
#[cfg(test)]
pub(crate) struct AxisRamp {
    pub axis: usize,
}

#[cfg(test)]
impl ScalarField for AxisRamp {
    fn sample(&self, x: f32, y: f32, z: f32) -> f32 {
        [x, y, z][self.axis]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_is_a_field() {
        let f = |x: f32, _y: f32, _z: f32| x * 0.5;
        assert_eq!(f.sample(0.5, 0.0, 0.0), 0.25);
    }

    #[test]
    fn a_row_defaults_to_one_sample_per_point() {
        let f = |x: f32, y: f32, z: f32| x * y - z;
        let xs = [0.1, 0.5, 0.9];
        let mut out = [0.0; 3];
        f.sample_row(&xs, 0.25, 0.75, &mut out);
        assert_eq!(out, xs.map(|x| f.sample(x, 0.25, 0.75)));
    }

    #[test]
    fn constant_and_ramp() {
        assert_eq!(Constant(0.7).sample(0.1, 0.2, 0.3), 0.7);
        assert_eq!(AxisRamp { axis: 2 }.sample(0.1, 0.2, 0.3), 0.3);
    }
}
