//! `volren.samples_fetched` — the one number that says what empty-space
//! skipping did. It lives in the process-global registry, so this file holds
//! a single test: nothing else in the process touches the counter.

use std::sync::Arc;

use mgpu_cluster::GpuId;
use mgpu_gpu::{launch, LaunchConfig, LaunchStats, Texture3D};
use mgpu_mapreduce::GpuMapper;
use mgpu_obs::names;
use mgpu_voldata::{BrickGrid, BrickPolicy, BrickStore, Dataset};
use mgpu_volren::kernel::RayCastKernel;
use mgpu_volren::mapper::VolumeMapper;
use mgpu_volren::math::vec3;
use mgpu_volren::{RenderBrick, Scene, Staging, TransferFunction};

const IMAGE: (u32, u32) = (96, 96);
const STEP: f32 = 1.0;
const EARLY_TERM: f32 = 0.98;

fn fetched() -> u64 {
    mgpu_obs::global()
        .snapshot()
        .counter(names::VOLREN_SAMPLES_FETCHED)
        .unwrap_or(0)
}

#[test]
fn fetched_samples_repeat_exactly_and_undercut_the_charged_total() {
    let volume = Dataset::Skull.volume(64);
    let scene = Scene::orbit(&volume, 30.0, 20.0, TransferFunction::bone());
    let grid = BrickGrid::subdivide(
        volume.dims(),
        &BrickPolicy {
            min_bricks: 4,
            max_brick_voxels: u64::MAX,
        },
    );
    let store = Arc::new(BrickStore::new(volume, grid, 1, u64::MAX));
    let bricks: Vec<RenderBrick> = (0..store.grid().brick_count())
        .map(|id| RenderBrick::new(Arc::clone(&store), id, Staging::HostResident))
        .collect();

    // The production path, through the mapper: stats are what the modelled
    // GPU is charged, the counter is what the kernel really fetched.
    let mut runs = Vec::new();
    for kernel_parallelism in [1, 1, 3] {
        let mapper = VolumeMapper::new(scene.clone(), IMAGE, STEP, EARLY_TERM, kernel_parallelism);
        let before = fetched();
        let mut charged = LaunchStats::default();
        for brick in &bricks {
            charged.merge(&mapper.map_chunk(GpuId(0), brick).stats);
        }
        runs.push((fetched() - before, charged));
    }
    // Same count run to run, and however blocks are spread over threads.
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);

    // The oracle: the scalar path over the same bricks, no cells attached.
    let lut = scene.transfer.bake();
    let before = fetched();
    let mut oracle = LaunchStats::default();
    for brick in &bricks {
        let Some((x0, y0, x1, y1)) = brick.footprint(&scene.camera, IMAGE.0, IMAGE.1) else {
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
            image: IMAGE,
            offset: (x0, y0),
            step: STEP,
            early_term: EARLY_TERM,
        };
        oracle.merge(&launch(&kernel, LaunchConfig::cover(x1 - x0, y1 - y0)).stats);
    }
    assert_eq!(fetched(), before, "the scalar path does not count");

    // Charged exactly what a kernel that never skips takes; fetched well
    // under half of it.
    let (fetched, charged) = runs[0];
    assert_eq!(charged, oracle);
    assert!(fetched > 0);
    assert!(
        (fetched as f64) < 0.4 * charged.total_samples as f64,
        "fetched {fetched} of {} charged samples",
        charged.total_samples
    );
}
