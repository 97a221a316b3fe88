//! The rendering Mapper: wires [`RenderBrick`]s through the ray-cast kernel.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use mgpu_cluster::GpuId;
use mgpu_gpu::{
    launch_blocks, BlockCtx, BlockKernel, BlockOut, LaunchConfig, LaunchStats, Texture1D,
};
use mgpu_mapreduce::{GpuMapper, Key, MapOutput};
use mgpu_obs::names;
use mgpu_obs::{bucket_of, Counter, Histogram, HIST_BUCKETS};

use crate::brick::RenderBrick;
use crate::camera::Scene;
use crate::fragment::Fragment;
use crate::kernel::{Launch, RayCastKernel};
use crate::skip::SkipGrid;

/// Kernel-level observability: how many blocks each launch dispatched and
/// the per-ray sample-count distribution (the quantity the paper's cost
/// model charges for). Registered once in the global registry so `obs_top`
/// and STATS surface them alongside the renderer stage timings.
struct MapperObs {
    kernel_blocks: Arc<Counter>,
    samples_per_ray: Arc<Histogram>,
    march_ns: Arc<Histogram>,
}

fn obs() -> &'static MapperObs {
    static OBS: OnceLock<MapperObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = mgpu_obs::global();
        MapperObs {
            kernel_blocks: reg.counter(names::VOLREN_KERNEL_BLOCKS),
            samples_per_ray: reg.histogram(names::VOLREN_SAMPLES_PER_RAY),
            march_ns: reg.histogram(names::VOLREN_MARCH_NS),
        }
    })
}

/// A brick's launch with the skip grid its memo holds. The brick's texture
/// carries no cells, so the kernel's own `prepare` would launch without
/// skipping.
struct MemoLaunch<'a> {
    kernel: RayCastKernel<'a>,
    grid: Option<Arc<SkipGrid>>,
}

impl<'a> BlockKernel for MemoLaunch<'a> {
    type Key = Key;
    type Value = Fragment;
    type Launch = Launch<'a>;

    fn prepare(&self) -> Launch<'a> {
        self.kernel.prepare_with(self.grid.clone())
    }

    fn run_block(&self, launch: &Launch<'a>, ctx: &BlockCtx, out: BlockOut<'_, Key, Fragment>) {
        self.kernel.run_block(launch, ctx, out);
    }
}

/// Maps bricks to ray fragments. One instance is shared by all mapper
/// threads (it is stateless per GPU beyond the scene constants, which is
/// what the paper's Mapper `initialize` uploads: view matrix + TF LUT).
/// What the LUT makes of a brick — its skip grid — is set up once per
/// brick and transfer function too, and kept on the brick, which outlives
/// the frame's mapper (`RenderBrick::stage`).
pub struct VolumeMapper {
    scene: Scene,
    lut: Texture1D,
    image: (u32, u32),
    step: f32,
    early_term: f32,
    /// Host threads each kernel launch starts with, besides the cores the
    /// job's finished mappers lend it (wall-clock only; no effect on results
    /// or simulated time).
    kernel_parallelism: usize,
}

impl VolumeMapper {
    pub fn new(
        scene: Scene,
        image: (u32, u32),
        step: f32,
        early_term: f32,
        kernel_parallelism: usize,
    ) -> VolumeMapper {
        assert!(step > 0.0, "step must be positive");
        let lut = scene.transfer.bake();
        VolumeMapper {
            scene,
            lut,
            image,
            step,
            early_term,
            kernel_parallelism: kernel_parallelism.max(1),
        }
    }

    pub fn image(&self) -> (u32, u32) {
        self.image
    }
}

impl GpuMapper<RenderBrick> for VolumeMapper {
    type Value = Fragment;

    fn init(&self, _gpu: GpuId) -> u64 {
        // Static per-GPU state: the transfer-function LUT and the camera
        // constants (comfortably one 4 KiB page).
        self.scene.transfer.device_bytes() + 256
    }

    fn map_chunk(&self, _gpu: GpuId, brick: &RenderBrick) -> MapOutput<Fragment> {
        let Some((x0, y0, x1, y1)) =
            brick.footprint(&self.scene.camera, self.image.0, self.image.1)
        else {
            // Off-screen brick: nothing to launch, nothing emitted.
            return MapOutput {
                keys: Vec::new(),
                values: Vec::new(),
                stats: LaunchStats::default(),
            };
        };

        let (data, grid) = brick.stage(&self.scene.transfer, &self.lut);
        let (texture, store_origin) = RenderBrick::texture(&data);
        let (core_lo, core_hi) = brick.core_box();
        let kernel = RayCastKernel {
            camera: &self.scene.camera,
            lut: &self.lut,
            texture: &texture,
            store_origin,
            core_lo,
            core_hi,
            image: self.image,
            offset: (x0, y0),
            step: self.step,
            early_term: self.early_term,
        };
        let o = obs();
        let march_start = Instant::now();
        let out = launch_blocks(
            &MemoLaunch { kernel, grid },
            LaunchConfig::cover(x1 - x0, y1 - y0),
            self.kernel_parallelism,
        );
        o.march_ns.record_duration(march_start.elapsed());

        // Tallied locally, merged once per launch: a record per ray would be
        // ~100 K atomic writes a frame into one cache line every mapper
        // thread shares.
        o.kernel_blocks.add(out.stats.blocks);
        let mut tally = [0u64; HIST_BUCKETS];
        for &n in &out.samples {
            if n > 0 {
                tally[bucket_of(n)] += 1;
            }
        }
        o.samples_per_ray.record_tally(&tally);

        // SoA columns move straight into the MapReduce pipeline — no tuple
        // re-materialization between kernel and partitioner.
        MapOutput {
            keys: out.keys,
            values: out.values,
            stats: out.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brick::Staging;
    use crate::transfer::TransferFunction;
    use mgpu_mapreduce::{Chunk, SENTINEL_KEY};
    use mgpu_voldata::{BrickGrid, BrickPolicy, BrickStore, Dataset};
    use std::sync::Arc;

    fn setup(bricks: u32) -> (Vec<RenderBrick>, VolumeMapper) {
        let v = Dataset::Skull.volume(32);
        let grid = BrickGrid::subdivide(
            v.dims(),
            &BrickPolicy {
                min_bricks: bricks,
                max_brick_voxels: u64::MAX,
            },
        );
        let scene = Scene::orbit(&v, 30.0, 20.0, TransferFunction::bone());
        let store = Arc::new(BrickStore::new(v, grid, 1, u64::MAX));
        let n = store.grid().brick_count();
        let bricks = (0..n)
            .map(|i| RenderBrick::new(Arc::clone(&store), i, Staging::HostResident))
            .collect();
        let mapper = VolumeMapper::new(scene, (128, 128), 1.0, 0.98, 1);
        (bricks, mapper)
    }

    #[test]
    fn mapping_emits_fragments_with_valid_keys() {
        let (bricks, mapper) = setup(8);
        let mut total_kept = 0usize;
        for b in &bricks {
            let out = mapper.map_chunk(GpuId(0), b);
            assert_eq!(out.len() as u64, out.stats.threads);
            for (k, f) in out.iter() {
                if k != SENTINEL_KEY {
                    assert!(k < 128 * 128);
                    assert!(f.color[3] > 0.0);
                    total_kept += 1;
                }
            }
        }
        assert!(total_kept > 100, "the skull should produce fragments");
    }

    #[test]
    fn footprint_launch_is_smaller_than_full_image() {
        let (bricks, mapper) = setup(27);
        // At least one small brick launches fewer threads than 128².
        let smaller = bricks.iter().any(|b| {
            let out = mapper.map_chunk(GpuId(0), b);
            out.stats.threads > 0 && out.stats.threads < 128 * 128
        });
        assert!(smaller, "footprint clipping is not happening");
    }

    #[test]
    fn init_reports_static_bytes() {
        let (_, mapper) = setup(1);
        assert!(mapper.init(GpuId(0)) >= 4096);
    }

    #[test]
    fn chunk_trait_wiring() {
        let (bricks, _) = setup(8);
        assert_eq!(bricks[3].id(), 3);
        assert!(bricks[3].device_bytes() > 0);
    }
}
