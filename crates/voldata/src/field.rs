//! Scalar fields: continuous functions over the unit cube that procedural
//! volumes are sampled from.

/// A continuous scalar field over normalized volume coordinates `[0,1]³`.
///
/// Implementations must be pure (same input → same output) so that brick
/// materialization is deterministic and order-independent.
pub trait ScalarField: Send + Sync {
    /// Sample the field; callers pass voxel-center coordinates. Outputs
    /// should be in `[0, 1]` (the transfer functions assume this domain).
    fn sample(&self, x: f32, y: f32, z: f32) -> f32;
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
    fn constant_and_ramp() {
        assert_eq!(Constant(0.7).sample(0.1, 0.2, 0.3), 0.7);
        assert_eq!(AxisRamp { axis: 2 }.sample(0.1, 0.2, 0.3), 0.3);
    }
}
