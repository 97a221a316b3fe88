//! Rays and slab-method AABB intersection ("All rays are intersected against
//! a bounding box and any non-intersecting rays are immediately discarded",
//! §3.2).

use crate::math::Vec3;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    pub origin: Vec3,
    pub dir: Vec3,
}

impl Ray {
    #[inline]
    pub fn at(&self, t: f32) -> Vec3 {
        self.origin + self.dir * t
    }

    /// Slab intersection with the box `[lo, hi]`; returns the parametric
    /// entry/exit `(t0, t1)` with `t0 ≤ t1`, clipped to `t ≥ 0` (the ray
    /// starts at its origin). `None` when the ray misses or the box is
    /// entirely behind.
    #[inline]
    pub fn intersect_aabb(&self, lo: Vec3, hi: Vec3) -> Option<(f32, f32)> {
        let mut t0 = 0.0f32;
        let mut t1 = f32::INFINITY;
        for axis in 0..3 {
            let o = self.origin.get(axis);
            let d = self.dir.get(axis);
            if d.abs() < 1e-12 {
                // Parallel to the slab: inside or miss.
                if o < lo.get(axis) || o > hi.get(axis) {
                    return None;
                }
                continue;
            }
            let mut near = (lo.get(axis) - o) / d;
            let mut far = (hi.get(axis) - o) / d;
            if near > far {
                std::mem::swap(&mut near, &mut far);
            }
            t0 = t0.max(near);
            t1 = t1.min(far);
            if t0 > t1 {
                return None;
            }
        }
        Some((t0, t1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::vec3;

    fn unit_box() -> (Vec3, Vec3) {
        (vec3(0.0, 0.0, 0.0), vec3(1.0, 1.0, 1.0))
    }

    #[test]
    fn straight_hit() {
        let (lo, hi) = unit_box();
        let r = Ray {
            origin: vec3(0.5, 0.5, -2.0),
            dir: vec3(0.0, 0.0, 1.0),
        };
        let (t0, t1) = r.intersect_aabb(lo, hi).unwrap();
        assert!((t0 - 2.0).abs() < 1e-6);
        assert!((t1 - 3.0).abs() < 1e-6);
    }

    #[test]
    fn miss() {
        let (lo, hi) = unit_box();
        let r = Ray {
            origin: vec3(2.0, 2.0, -2.0),
            dir: vec3(0.0, 0.0, 1.0),
        };
        assert!(r.intersect_aabb(lo, hi).is_none());
    }

    #[test]
    fn behind_camera_is_clipped() {
        let (lo, hi) = unit_box();
        let r = Ray {
            origin: vec3(0.5, 0.5, 5.0),
            dir: vec3(0.0, 0.0, 1.0),
        };
        assert!(r.intersect_aabb(lo, hi).is_none());
    }

    #[test]
    fn origin_inside_starts_at_zero() {
        let (lo, hi) = unit_box();
        let r = Ray {
            origin: vec3(0.5, 0.5, 0.5),
            dir: vec3(0.0, 0.0, 1.0),
        };
        let (t0, t1) = r.intersect_aabb(lo, hi).unwrap();
        assert_eq!(t0, 0.0);
        assert!((t1 - 0.5).abs() < 1e-6);
    }

    #[test]
    fn diagonal_hit() {
        let (lo, hi) = unit_box();
        let r = Ray {
            origin: vec3(-1.0, -1.0, -1.0),
            dir: vec3(1.0, 1.0, 1.0).normalized(),
        };
        let (t0, t1) = r.intersect_aabb(lo, hi).unwrap();
        let sqrt3 = 3f32.sqrt();
        assert!((t0 - sqrt3).abs() < 1e-5);
        assert!((t1 - 2.0 * sqrt3).abs() < 1e-5);
    }

    #[test]
    fn parallel_inside_slab() {
        let (lo, hi) = unit_box();
        let r = Ray {
            origin: vec3(0.5, 0.5, -1.0),
            dir: vec3(0.0, 0.0, 1.0),
        };
        // x and y components are zero but the origin is inside those slabs.
        assert!(r.intersect_aabb(lo, hi).is_some());
        let outside = Ray {
            origin: vec3(1.5, 0.5, -1.0),
            dir: vec3(0.0, 0.0, 1.0),
        };
        assert!(outside.intersect_aabb(lo, hi).is_none());
    }
}
