//! Baselines: an independent reference ray caster (correctness oracle) and a
//! ParaView-class CPU-cluster model (the paper's footnote-1 comparison).

use mgpu_gpu::{launch, LaunchConfig, Texture3D};
use mgpu_voldata::Volume;

use crate::camera::Scene;
use crate::composite::composite_sorted;
use crate::config::RenderConfig;
use crate::image::Image;
use crate::kernel::RayCastKernel;
use crate::math::vec3;

/// Render the whole volume as a single unbricked texture on one simulated
/// GPU — the correctness oracle every multi-GPU configuration must match.
///
/// Materializes the entire volume (plus a ghost shell for identical border
/// filtering), so use at test scales.
pub fn reference_render(volume: &Volume, scene: &Scene, cfg: &RenderConfig) -> Image {
    let d = volume.dims();
    let ghost = 1i64;
    let store_dims = [d[0] as usize + 2, d[1] as usize + 2, d[2] as usize + 2];
    let voxels = volume.materialize_clamped([-ghost, -ghost, -ghost], store_dims);
    let texture = Texture3D::new(store_dims, voxels);
    let lut = scene.transfer.bake();
    let (width, height) = cfg.image;

    let kernel = RayCastKernel {
        camera: &scene.camera,
        lut: &lut,
        texture: &texture,
        store_origin: vec3(-1.0, -1.0, -1.0),
        core_lo: vec3(0.0, 0.0, 0.0),
        core_hi: vec3(d[0] as f32, d[1] as f32, d[2] as f32),
        image: cfg.image,
        offset: (0, 0),
        step: cfg.step_voxels,
        early_term: cfg.early_term,
    };
    let out = launch(&kernel, LaunchConfig::cover(width, height));

    let mut img = Image::filled(width, height, composite_sorted(&[], scene.background));
    for (key, frag) in out.outputs {
        if key == mgpu_mapreduce::SENTINEL_KEY {
            continue;
        }
        let color = composite_sorted(std::slice::from_ref(&frag), scene.background);
        img.set_linear(key, color);
    }
    img
}

/// The paper's footnote-1 comparator: "Moreland et al. show that ParaView
/// can render 346M VPS using 512 processes on 256 nodes."
#[derive(Debug, Clone, Copy)]
pub struct ParaViewClassBaseline {
    pub processes: u32,
    /// Aggregate voxels/second at `processes` processes.
    pub total_vps: f64,
}

impl ParaViewClassBaseline {
    /// The configuration cited in the paper's footnote.
    pub fn moreland_cray_xt3() -> ParaViewClassBaseline {
        ParaViewClassBaseline {
            processes: 512,
            total_vps: 346.0e6,
        }
    }

    pub fn vps_per_process(&self) -> f64 {
        self.total_vps / self.processes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::TransferFunction;
    use mgpu_voldata::Dataset;

    #[test]
    fn reference_renders_visible_image() {
        let v = Dataset::Supernova.volume(32);
        let scene = Scene::orbit(&v, 20.0, 15.0, TransferFunction::fire());
        let cfg = RenderConfig::test_size(64);
        let img = reference_render(&v, &scene, &cfg);
        assert!(img.coverage(0.05) > 0.05);
    }

    #[test]
    fn paraview_numbers_match_footnote() {
        let pv = ParaViewClassBaseline::moreland_cray_xt3();
        assert_eq!(pv.processes, 512);
        assert!((pv.vps_per_process() - 675_781.25).abs() < 1.0);
    }
}
