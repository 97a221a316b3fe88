//! Layer `core` (the `mgpu-mapreduce` crate): the job around the kernel.
//! `run_job` with the real mapper is the frame's MapReduce; `run_job` with
//! a mapper that replays recorded outputs is everything *but* the kernel —
//! partition, shuffle, sort, reduce, merge, and four thread spawns.

use mgpu_cluster::GpuId;
use mgpu_mapreduce::{
    counting_sort_groups, run_job, GpuMapper, JobConfig, JobOutput, MapOutput, SENTINEL_KEY,
};
use mgpu_volren::reduce::CompositeReducer;
use mgpu_volren::{Fragment, RenderBrick, Scene};

use super::Target;
use crate::span::Recorder;

/// A harness mapper that hands back a frame's recorded kernel outputs.
struct Replay<'a> {
    outputs: &'a [MapOutput<Fragment>],
}

impl GpuMapper<RenderBrick> for Replay<'_> {
    type Value = Fragment;

    fn map_chunk(&self, _gpu: GpuId, chunk: &RenderBrick) -> MapOutput<Fragment> {
        self.outputs[chunk.info().id].clone()
    }
}

fn job<M: GpuMapper<RenderBrick, Value = Fragment>>(
    target: &Target,
    scene: &Scene,
    bricks: &[RenderBrick],
    mapper: &M,
) -> JobOutput<[f32; 4]> {
    // The job `render_planned` runs, spelled out (combiner off, as in every
    // workload's config).
    let (width, height) = target.config.image;
    let config = JobConfig {
        batch_bytes: target.config.batch_bytes,
        assignment: target.config.assignment,
        ..JobConfig::new(target.spec.gpus, width * height)
    };
    run_job(
        bricks,
        mapper,
        &CompositeReducer {
            background: scene.background,
        },
        target.config.partition.build(width).as_ref(),
        None,
        &target.spec,
        &config,
    )
}

/// `run_job` with the renderer's own mapper over the staged bricks: the
/// first stage of the disassembled frame.
pub fn run_frame(
    rec: &mut Recorder,
    frame: u64,
    target: &Target,
    scene: &Scene,
) -> JobOutput<[f32; 4]> {
    let mapper = super::volren::mapper(target, scene);
    rec.span("run_job", "core", frame, |_| {
        job(target, scene, &target.staged, &mapper)
    })
}

/// `run_job` with the replaying mapper: the job's plumbing, zero kernel.
pub fn plumbing(
    rec: &mut Recorder,
    frame: u64,
    target: &Target,
    scene: &Scene,
    outputs: &[MapOutput<Fragment>],
) -> JobOutput<[f32; 4]> {
    let mapper = Replay { outputs };
    rec.span("run_job.replayed", "core", frame, |_| {
        job(target, scene, &target.warm, &mapper)
    })
}

/// `counting_sort_groups` over the frame's kept fragments in one pass.
pub fn sort(
    rec: &mut Recorder,
    frame: u64,
    target: &Target,
    outputs: &[MapOutput<Fragment>],
) -> usize {
    let (mut keys, mut values) = (Vec::new(), Vec::new());
    for out in outputs {
        for (key, value) in out.iter().filter(|(key, _)| *key != SENTINEL_KEY) {
            keys.push(key);
            values.push(*value);
        }
    }
    let (width, height) = target.config.image;
    rec.span("counting_sort_groups", "core", frame, |_| {
        counting_sort_groups(&keys, &values, width * height).num_groups()
    })
}
