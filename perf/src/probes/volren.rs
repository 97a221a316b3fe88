//! Layer `volren`: plan preparation, the whole-frame call, the mapper
//! around the kernel, and the stitch after the job.

use mgpu_cluster::{ClusterSpec, GpuId};
use mgpu_mapreduce::{GpuMapper, JobOutput, MapOutput};
use mgpu_voldata::Volume;
use mgpu_volren::mapper::VolumeMapper;
use mgpu_volren::stitch::stitch;
use mgpu_volren::{render_planned, Fragment, FramePlan, Image, RenderConfig, RenderOutcome, Scene};

use super::Target;
use crate::span::Recorder;

/// `FramePlan::prepare`: bricking plus store construction (no staging).
pub fn prepare(
    rec: &mut Recorder,
    spec: &ClusterSpec,
    volume: &Volume,
    config: &RenderConfig,
) -> FramePlan {
    rec.span("FramePlan::prepare", "volren", 0, |_| {
        FramePlan::prepare(spec, volume, config)
    })
}

/// `render_planned` on the target's plan: the reference frame every
/// disassembled frame must reproduce bit for bit.
pub fn render_frame(
    rec: &mut Recorder,
    frame: u64,
    target: &Target,
    scene: &Scene,
) -> RenderOutcome {
    rec.span("render_planned", "volren", frame, |_| {
        render_planned(&target.spec, &target.plan, scene, &target.config)
    })
}

/// The mapper the renderer would build for this scene.
pub fn mapper(target: &Target, scene: &Scene) -> VolumeMapper {
    VolumeMapper::new(
        scene.clone(),
        target.config.image,
        target.config.step_voxels,
        target.config.early_term,
        1,
    )
}

/// Σ `VolumeMapper::map_chunk` over the plan's bricks, serially, on the
/// warm store. Returns each brick's output, indexed by brick id — what the
/// plumbing probe replays.
pub fn map_frame(
    rec: &mut Recorder,
    frame: u64,
    target: &Target,
    scene: &Scene,
) -> Vec<MapOutput<Fragment>> {
    let mapper = mapper(target, scene);
    target
        .warm
        .iter()
        .map(|brick| {
            rec.span("map_chunk", "volren", frame, |_| {
                mapper.map_chunk(GpuId(0), brick)
            })
        })
        .collect()
}

/// `stitch` on a job's output columns.
pub fn stitch_frame(
    rec: &mut Recorder,
    frame: u64,
    target: &Target,
    scene: &Scene,
    job: &JobOutput<[f32; 4]>,
) -> Image {
    let (width, height) = target.config.image;
    rec.span("stitch", "volren", frame, |_| {
        stitch(&job.keys, &job.outs, width, height, scene.background)
    })
}
