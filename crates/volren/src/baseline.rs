//! Baselines: an independent reference ray caster (correctness oracle) and a
//! ParaView-class CPU-cluster model (the paper's footnote-1 comparison).

use mgpu_cluster::ClusterSpec;
use mgpu_gpu::{launch, LaunchConfig, Texture3D};
use mgpu_sim::SimDuration;
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
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let out = launch(&kernel, LaunchConfig::cover(width, height), parallelism);

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

    /// Modeled frame time for a volume, assuming linear process scaling.
    pub fn frame_time(&self, voxels: u64, processes: u32) -> SimDuration {
        let vps = self.vps_per_process() * processes as f64;
        SimDuration::from_secs_f64(voxels as f64 / vps)
    }
}

/// Convenience: VPS of a cluster spec rendering `voxels` in `runtime`.
pub fn vps(voxels: u64, runtime: SimDuration) -> f64 {
    let s = runtime.as_secs_f64();
    if s > 0.0 {
        voxels as f64 / s
    } else {
        f64::INFINITY
    }
}

/// The footnote's headline check: does `spec` with a measured `runtime` beat
/// the ParaView baseline by the paper's ">2×" margin?
pub fn beats_paraview_2x(voxels: u64, runtime: SimDuration) -> bool {
    vps(voxels, runtime) > 2.0 * ParaViewClassBaseline::moreland_cray_xt3().total_vps
}

/// Unused import guard (ClusterSpec appears in doc examples).
const _: fn(&ClusterSpec) -> u32 = |s| s.gpus;

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
        // A 1024³ volume at 512 processes: ~3.1 s.
        let t = pv.frame_time(1 << 30, 512).as_secs_f64();
        assert!((t - 3.103).abs() < 0.01, "{t}");
    }

    #[test]
    fn two_x_margin_check() {
        // 1.07 G voxels in 1 s ≈ 1.07 G VPS > 2 × 346 M ✓
        assert!(beats_paraview_2x(1 << 30, SimDuration::from_millis(1000)));
        // …but not in 4 s.
        assert!(!beats_paraview_2x(1 << 30, SimDuration::from_millis(4000)));
    }
}
