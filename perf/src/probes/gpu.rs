//! Layer `gpu`: the ray-march kernel alone. `launch_blocks(&RayCastKernel,
//! …, 1)` on every resident brick of the target volume, one after the
//! other on the calling thread — what `VolumeMapper::map_chunk` launches,
//! minus the texture wrap and footprint it does around the launch.

use std::sync::Arc;

use mgpu_gpu::{launch_blocks, LaunchConfig, LaunchStats, Texture1D, Texture3D};
use mgpu_volren::kernel::RayCastKernel;
use mgpu_volren::math::vec3;
use mgpu_volren::Scene;

use super::Target;
use crate::span::Recorder;

/// Launch the kernel for one frame (all bricks, serially) and return the
/// merged launch statistics. One `launch_blocks` span per on-screen brick.
pub fn launch_frame(rec: &mut Recorder, frame: u64, target: &Target, scene: &Scene) -> LaunchStats {
    let image = target.config.image;
    let lut: Texture1D = scene.transfer.bake();
    let mut total = LaunchStats::default();
    for brick in &target.warm {
        let Some((x0, y0, x1, y1)) = brick.footprint(&scene.camera, image.0, image.1) else {
            continue;
        };
        let data = brick.voxels();
        let texture = Texture3D::from_shared(data.store_dims, Arc::clone(&data.voxels));
        let (core_lo, core_hi) = brick.core_box();
        let kernel = RayCastKernel {
            camera: &scene.camera,
            lut: &lut,
            texture: &texture,
            store_origin: vec3(
                data.store_origin[0] as f32,
                data.store_origin[1] as f32,
                data.store_origin[2] as f32,
            ),
            core_lo,
            core_hi,
            image,
            offset: (x0, y0),
            step: target.config.step_voxels,
            early_term: target.config.early_term,
        };
        let out = rec.span("launch_blocks", "gpu", frame, |_| {
            launch_blocks(&kernel, LaunchConfig::cover(x1 - x0, y1 - y0), 1)
        });
        total.merge(&out.stats);
    }
    total
}
