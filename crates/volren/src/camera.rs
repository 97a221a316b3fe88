//! Pinhole camera, orbiting scene setup, and screen-space projection (used
//! both for ray generation and for computing a brick's screen footprint —
//! "the grid is made to match the size of the sub-image onto which the
//! current chunk projects", §3.2).

use mgpu_voldata::Volume;

use crate::math::{vec3, Vec3};
use crate::ray::Ray;
use crate::transfer::TransferFunction;

/// A perspective pinhole camera in volume (voxel) coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct Camera {
    pub eye: Vec3,
    forward: Vec3,
    right: Vec3,
    up: Vec3,
    tan_half_fov: f32,
}

impl Camera {
    pub fn look_at(eye: Vec3, target: Vec3, up_hint: Vec3, fov_y_deg: f32) -> Camera {
        let forward = (target - eye).normalized();
        let mut right = forward.cross(up_hint);
        if right.length() < 1e-6 {
            // Degenerate up hint: pick any perpendicular axis.
            right = forward.cross(vec3(0.0, 1.0, 0.0));
            if right.length() < 1e-6 {
                right = forward.cross(vec3(1.0, 0.0, 0.0));
            }
        }
        let right = right.normalized();
        let up = right.cross(forward);
        Camera {
            eye,
            forward,
            right,
            up,
            tan_half_fov: (fov_y_deg.to_radians() * 0.5).tan(),
        }
    }

    /// The camera's exact internal state as plain floats, in field order
    /// `(eye, forward, right, up, tan_half_fov)` — what a wire protocol
    /// ships so [`Camera::from_raw_parts`] reconstructs this camera
    /// bit-identically on the other side (floats travel by bit pattern; no
    /// re-derivation, no rounding).
    #[allow(clippy::type_complexity)]
    pub fn raw_parts(&self) -> ([f32; 3], [f32; 3], [f32; 3], [f32; 3], f32) {
        let v = |v: Vec3| [v.x, v.y, v.z];
        (
            v(self.eye),
            v(self.forward),
            v(self.right),
            v(self.up),
            self.tan_half_fov,
        )
    }

    /// Rebuild a camera from [`Camera::raw_parts`] output, bit-identically.
    /// The basis is trusted as-is (no re-orthonormalization): this is a
    /// transport constructor, not a modeling one — use
    /// [`Camera::look_at`] to build cameras from scene intent.
    pub fn from_raw_parts(
        eye: [f32; 3],
        forward: [f32; 3],
        right: [f32; 3],
        up: [f32; 3],
        tan_half_fov: f32,
    ) -> Camera {
        let v = |a: [f32; 3]| vec3(a[0], a[1], a[2]);
        Camera {
            eye: v(eye),
            forward: v(forward),
            right: v(right),
            up: v(up),
            tan_half_fov,
        }
    }

    /// The ray through pixel `(px, py)` of a `width × height` image
    /// (pixel centers, y growing downward). The batched kernel's ray setup
    /// repeats these float operations eight pixels at a time
    /// (`kernel`'s module docs, *Ray setup*).
    #[inline]
    pub fn ray(&self, px: u32, py: u32, width: u32, height: u32) -> Ray {
        self.ray_from_ndc(self.ndc_u(px, width, height), self.ndc_v(py, height))
    }

    /// Horizontal image-plane coordinate of pixel column `px` (scaled by the
    /// FOV and aspect ratio). Depends only on the column.
    #[inline]
    pub(crate) fn ndc_u(&self, px: u32, width: u32, height: u32) -> f32 {
        let aspect = width as f32 / height as f32;
        ((px as f32 + 0.5) / width as f32 * 2.0 - 1.0) * self.tan_half_fov * aspect
    }

    /// Vertical image-plane coordinate of pixel row `py` (y growing
    /// downward). Depends only on the row.
    #[inline]
    pub(crate) fn ndc_v(&self, py: u32, height: u32) -> f32 {
        (1.0 - (py as f32 + 0.5) / height as f32 * 2.0) * self.tan_half_fov
    }

    /// The ray through image-plane coordinates `(u, v)` as produced by
    /// [`Camera::ndc_u`]/[`Camera::ndc_v`].
    #[inline]
    pub(crate) fn ray_from_ndc(&self, u: f32, v: f32) -> Ray {
        let dir = (self.forward + self.right * u + self.up * v).normalized();
        Ray {
            origin: self.eye,
            dir,
        }
    }

    /// Project a world point to continuous pixel coordinates; `None` when
    /// behind the camera.
    pub fn project(&self, p: Vec3, width: u32, height: u32) -> Option<(f32, f32)> {
        let d = p - self.eye;
        let z = d.dot(self.forward);
        if z <= 1e-6 {
            return None;
        }
        let aspect = width as f32 / height as f32;
        let x = d.dot(self.right) / (z * self.tan_half_fov * aspect);
        let y = d.dot(self.up) / (z * self.tan_half_fov);
        Some((
            (x + 1.0) * 0.5 * width as f32,
            (1.0 - y) * 0.5 * height as f32,
        ))
    }
}

/// A renderable scene: camera + transfer function + background.
#[derive(Debug, Clone)]
pub struct Scene {
    pub camera: Camera,
    pub transfer: TransferFunction,
    /// Straight-alpha background color fragments blend against.
    pub background: [f32; 4],
}

impl Scene {
    /// Orbit the volume: `azimuth`/`elevation` in degrees around the volume
    /// center at a distance framing the whole volume, 40° vertical FOV.
    pub fn orbit(
        volume: &Volume,
        azimuth_deg: f32,
        elevation_deg: f32,
        transfer: TransferFunction,
    ) -> Scene {
        let d = volume.dims();
        let dims = vec3(d[0] as f32, d[1] as f32, d[2] as f32);
        let center = dims * 0.5;
        let radius = dims.length() * 0.5;
        let az = azimuth_deg.to_radians();
        let el = elevation_deg.to_radians();
        let dir = vec3(el.cos() * az.cos(), el.cos() * az.sin(), el.sin());
        // The paper's renders fill the frame (Figure 2), so the orbit sits
        // inside the strict bounding-sphere distance (radius/tan20° ≈ 2.75 r)
        // and lets the volume's far corners crop slightly.
        let eye = center + dir * (radius * 2.4);
        let up = if el.abs() > 80f32.to_radians() {
            vec3(0.0, 1.0, 0.0)
        } else {
            vec3(0.0, 0.0, 1.0)
        };
        Scene {
            camera: Camera::look_at(eye, center, up, 40.0),
            transfer,
            background: [0.0, 0.0, 0.0, 0.0],
        }
    }

    pub fn with_background(mut self, background: [f32; 4]) -> Scene {
        self.background = background;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_voldata::Dataset;

    fn test_camera() -> Camera {
        Camera::look_at(vec3(0.0, 0.0, 10.0), Vec3::ZERO, vec3(0.0, 1.0, 0.0), 45.0)
    }

    #[test]
    fn center_pixel_looks_forward() {
        let c = test_camera();
        let r = c.ray(256, 256, 512, 512);
        assert!((r.dir.z + 1.0).abs() < 1e-3, "center ray should be -z");
    }

    #[test]
    fn project_inverts_ray() {
        let c = test_camera();
        for (px, py) in [(10u32, 20u32), (256, 256), (500, 40)] {
            let r = c.ray(px, py, 512, 512);
            let p = r.origin + r.dir * 7.3;
            let (qx, qy) = c.project(p, 512, 512).unwrap();
            assert!((qx - (px as f32 + 0.5)).abs() < 1e-2, "{qx} vs {px}");
            assert!((qy - (py as f32 + 0.5)).abs() < 1e-2, "{qy} vs {py}");
        }
    }

    #[test]
    fn behind_camera_does_not_project() {
        let c = test_camera();
        assert!(c.project(vec3(0.0, 0.0, 20.0), 512, 512).is_none());
    }

    #[test]
    fn orbit_frames_the_volume() {
        let v = Dataset::Skull.volume(32);
        let scene = Scene::orbit(&v, 30.0, 20.0, TransferFunction::bone());
        // Paper-style tight framing: every corner projects in front of the
        // camera and within ~20% beyond the 512² frame; the volume center
        // lands well inside it.
        for zc in [0.0f32, 32.0] {
            for yc in [0.0f32, 32.0] {
                for xc in [0.0f32, 32.0] {
                    let (px, py) = scene
                        .camera
                        .project(vec3(xc, yc, zc), 512, 512)
                        .expect("corner behind camera");
                    assert!(px > -110.0 && px < 622.0, "x {px}");
                    assert!(py > -110.0 && py < 622.0, "y {py}");
                }
            }
        }
        let (cx, cy) = scene
            .camera
            .project(vec3(16.0, 16.0, 16.0), 512, 512)
            .unwrap();
        assert!((cx - 256.0).abs() < 64.0 && (cy - 256.0).abs() < 64.0);
    }

    /// The transport constructor round-trips the camera bit-for-bit — the
    /// foundation of shipping arbitrary (non-orbit) scenes over the wire.
    #[test]
    fn raw_parts_roundtrip_bit_exact() {
        let c = Camera::look_at(
            vec3(3.7, -2.1, 9.3),
            vec3(0.4, 0.2, -0.6),
            vec3(0.1, 1.0, 0.05),
            37.5,
        );
        let (eye, forward, right, up, tan) = c.raw_parts();
        let back = Camera::from_raw_parts(eye, forward, right, up, tan);
        assert_eq!(back, c);
        // Same rays, bit for bit.
        for (px, py) in [(0, 0), (17, 211), (511, 511)] {
            let a = c.ray(px, py, 512, 512);
            let b = back.ray(px, py, 512, 512);
            assert_eq!(a.origin, b.origin);
            assert_eq!(a.dir.x.to_bits(), b.dir.x.to_bits());
            assert_eq!(a.dir.y.to_bits(), b.dir.y.to_bits());
            assert_eq!(a.dir.z.to_bits(), b.dir.z.to_bits());
        }
    }

    #[test]
    fn straight_down_view_is_well_defined() {
        let v = Dataset::Skull.volume(16);
        let scene = Scene::orbit(&v, 0.0, 89.9, TransferFunction::bone());
        let r = scene.camera.ray(100, 100, 512, 512);
        assert!(r.dir.length() > 0.99);
    }
}
