//! The traced run's probes: one module per layer, one entry point each, so
//! an issue that removes a product entry point can name the single probe to
//! drop. Each probe times calls into *public* functions of its layer from
//! outside — nothing here instruments the product.
//!
//! | module | calls into | entry point |
//! |---|---|---|
//! | [`gpu`] | `launch_blocks(&RayCastKernel, …)` | [`gpu::launch_frame`] |
//! | [`volren`] | `FramePlan::prepare`, `render_planned`, `VolumeMapper::map_chunk`, `stitch` | one function each |
//! | [`mapreduce`] (layer `core`) | `run_job`, `counting_sort_groups` | [`mapreduce::run_frame`], [`mapreduce::plumbing`], [`mapreduce::sort`] |
//! | [`sim`] | `build_trace` → `simulate` → `account` | [`sim::replay`] |
//! | [`voldata`] | `BrickStore::get` | [`voldata::cycle`] |
//! | [`wire`] | `wire::encode_*` / `decode_*` | [`wire::codec`] |
//! | [`ladder`] | `RenderService`, `ShardedService`, `RemoteBackend`, `NodePool` | [`ladder::walk`], one rung per function |
//! | [`obs`] | `Histogram::record`, `Counter::inc` | [`obs::instruments`] |

pub mod gpu;
pub mod ladder;
pub mod mapreduce;
pub mod obs;
pub mod sim;
pub mod voldata;
pub mod volren;
pub mod wire;

use std::sync::Arc;

use mgpu_cluster::ClusterSpec;
use mgpu_voldata::{BrickStore, Volume};
use mgpu_volren::{FramePlan, RenderBrick, RenderConfig, Scene};

/// Views of session 0 the probes visit: every k-th view of the lap, so they
/// still span the full circle, capped to keep the traced run short.
pub const PROBE_VIEWS: usize = 12;

/// What the per-frame probes share: the workload's first session, a plan
/// prepared like the workload's, and the same bricks over two stores.
pub struct Target {
    pub spec: ClusterSpec,
    pub config: RenderConfig,
    pub volume: Volume,
    pub scenes: Vec<Scene>,
    /// Prepared exactly as the workload prepares its own.
    pub plan: FramePlan,
    /// Bricks over the plan's store: staged under the workload's budget, so
    /// an out-of-core frame misses here as it does in the workload.
    pub staged: Vec<RenderBrick>,
    /// The same bricks over an unbudgeted store, touched once: the kernel
    /// and mapper probes time marching, not staging.
    pub warm: Vec<RenderBrick>,
}

impl Target {
    /// `plan` must have been prepared from `(spec, volume, config)`.
    pub fn new(
        spec: ClusterSpec,
        volume: Volume,
        config: RenderConfig,
        scenes: Vec<Scene>,
        plan: FramePlan,
    ) -> Target {
        let bricks = |store: &Arc<BrickStore>| -> Vec<RenderBrick> {
            (0..plan.brick_count())
                .map(|id| RenderBrick::new(Arc::clone(store), id, plan.staging))
                .collect()
        };
        let ghost = plan.store().ghost();
        let warm_store = Arc::new(BrickStore::new(
            volume.clone(),
            plan.grid.clone(),
            ghost,
            u64::MAX,
        ));
        let warm = bricks(&warm_store);
        for brick in &warm {
            brick.voxels();
        }
        Target {
            staged: bricks(plan.store()),
            warm,
            spec,
            config,
            volume,
            scenes,
            plan,
        }
    }
}
