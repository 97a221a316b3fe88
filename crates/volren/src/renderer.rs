//! The high-level renderer: brick the volume, run the MapReduce job for
//! real, replay its trace on the modeled cluster, stitch the image.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use mgpu_cluster::ClusterSpec;
use mgpu_mapreduce::{
    build_swap_trace, build_trace, run_job, CostBook, JobConfig, JobRecord, JobStats, JobTimes,
};
use mgpu_obs::names;
use mgpu_obs::{trace, Histogram};
use mgpu_sim::{account, simulate, PhaseBreakdown, RunAccounting, SimDuration};
use mgpu_voldata::{BrickGrid, BrickPolicy, BrickStore, StoreSnapshot, Volume};

use crate::brick::{RenderBrick, Staging};
use crate::camera::Scene;
use crate::combine::AdjacentFragmentCombiner;
use crate::config::{Compositor, RenderConfig, Residency};
use crate::image::Image;
use crate::key::RequestKey;
use crate::mapper::VolumeMapper;
use crate::reduce::CompositeReducer;
use crate::stitch::stitch;

/// Modeled host memory per node (the Accelerator Cluster's 8 GB), used by
/// the automatic residency decision.
const HOST_BYTES_PER_NODE: u64 = 8 << 30;

/// Handles into the process-global [`mgpu_obs`] registry for the renderer's
/// stage timings, resolved once so the per-frame cost is a clock read and an
/// atomic increment. Wall-clock here, not DES time: these measure what the
/// host actually spends bricking, ray-casting and compositing, feeding the
/// `STATS` snapshot and the `obs_top` dashboard. (The *modeled* cluster
/// times stay in [`RenderReport::accounting`].)
struct RendererObs {
    plan_prepare_ns: Arc<Histogram>,
    kernel_ns: Arc<Histogram>,
    composite_ns: Arc<Histogram>,
}

fn obs() -> &'static RendererObs {
    static OBS: OnceLock<RendererObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = mgpu_obs::global();
        RendererObs {
            plan_prepare_ns: reg.histogram(names::VOLREN_PLAN_PREPARE_NS),
            kernel_ns: reg.histogram(names::VOLREN_KERNEL_NS),
            composite_ns: reg.histogram(names::VOLREN_COMPOSITE_NS),
        }
    })
}

/// A job's stages as spans on the current trace, each from its first task's
/// start to its last task's end: `map` (the launches), `partition`, `sort`,
/// `reduce` and `merge`. One TLS read outside a trace.
fn trace_job(times: &JobTimes) {
    let Some(trace) = trace::current() else {
        return;
    };
    let stage = |name, tasks: &[([u64; 3], u32)], from: usize, to: usize| {
        let first = tasks.iter().map(|(t, _)| t[from]).min();
        let last = tasks.iter().map(|(t, _)| t[to]).max();
        if let (Some(first), Some(last)) = (first, last) {
            trace.record(name, times.at(first), times.at(last));
        }
    };
    stage("map", &times.chunks, 0, 1);
    stage("partition", &times.chunks, 1, 2);
    stage("sort", &times.reduces, 0, 1);
    stage("reduce", &times.reduces, 1, 2);
    let [begun, ended] = times.merge;
    trace.record("merge", times.at(begun), times.at(ended));
}

/// Everything measured about one rendered frame.
#[derive(Debug, Clone)]
pub struct RenderReport {
    pub volume_label: String,
    pub volume_voxels: u64,
    pub gpus: u32,
    pub bricks: usize,
    pub grid_counts: [u32; 3],
    /// Bricked volume fits aggregate VRAM (the paper's in-core condition).
    pub in_core: bool,
    /// Bricks were staged from disk (out-of-core w.r.t. host RAM).
    pub from_disk: bool,
    pub accounting: RunAccounting,
    pub job: JobStats,
    pub store: StoreSnapshot,
}

impl RenderReport {
    /// Virtual wall-clock of the frame (the paper's "runtime").
    pub fn runtime(&self) -> SimDuration {
        self.accounting.makespan
    }

    pub fn breakdown(&self) -> &PhaseBreakdown {
        &self.accounting.breakdown
    }

    /// Frames per second (Figure 4, left).
    pub fn fps(&self) -> f64 {
        let s = self.runtime().as_secs_f64();
        if s > 0.0 {
            1.0 / s
        } else {
            f64::INFINITY
        }
    }

    /// Voxels per second (Figure 4, right): volume voxels over runtime.
    pub fn vps(&self) -> f64 {
        let s = self.runtime().as_secs_f64();
        if s > 0.0 {
            self.volume_voxels as f64 / s
        } else {
            f64::INFINITY
        }
    }
}

/// A rendered frame plus its report.
#[derive(Debug)]
pub struct RenderOutcome {
    pub image: Image,
    pub report: RenderReport,
    /// What the frame's MapReduce job did: the record `report.accounting`
    /// was replayed from, to rebuild its trace task by task.
    pub record: JobRecord,
}

/// Per-(cluster, volume, config) render state that is scene-independent and
/// can be shared across frames: the brick grid, the staging decision, the
/// brick store and the chunk handles. [`render`] builds one per call; the
/// render service shares one through its plan cache across every frame of
/// the same (cluster, volume, config), so same-volume frames stage bricks
/// once for the plan's lifetime instead of once per frame.
///
/// A plan is immutable apart from the brick store's interior-mutable cache
/// and atomic statistics, so it is `Send + Sync`: an `Arc<FramePlan>` may be
/// rendered from any thread (or several at once). Per-frame staging
/// attribution goes through [`StoreSnapshot::since`] deltas; when two
/// threads render against the same plan *concurrently*, each frame's
/// `store` delta may attribute the other's stagings to itself — the pixels
/// are unaffected, only the staging statistics interleave.
pub struct FramePlan {
    pub grid: BrickGrid,
    pub staging: Staging,
    /// Bricked volume fits aggregate VRAM (the paper's in-core condition).
    pub in_core: bool,
    store: Arc<BrickStore>,
    bricks: Vec<RenderBrick>,
    /// The key of the (spec, volume, cfg) this plan was prepared for;
    /// guards [`render_planned`] against mismatched reuse.
    key: RequestKey,
}

impl FramePlan {
    /// Brick `volume` for `spec` under `cfg` and build the shared store.
    /// [`render_planned`] insists on this exact `spec` and `cfg`: a mismatch
    /// would silently break its bit-identical guarantee.
    pub fn prepare(spec: &ClusterSpec, volume: &Volume, cfg: &RenderConfig) -> FramePlan {
        let prepare_start = Instant::now();
        let gpus = spec.gpus;

        // Brick the volume: ~2 bricks per GPU, capped so a brick (with
        // ghost) fits comfortably in VRAM.
        let vram_voxel_cap = spec.device.vram_bytes / 4 / 4; // ≤ quarter of VRAM
        let policy = BrickPolicy {
            min_bricks: cfg.bricks_per_gpu.max(1) * gpus,
            max_brick_voxels: cfg.max_brick_voxels.min(vram_voxel_cap),
        };
        let grid = BrickGrid::subdivide(volume.dims(), &policy);

        // The paper's restriction #1: every map task must fit in GPU memory.
        let ghost = 1u32;
        let max_brick_bytes: u64 = grid
            .bricks()
            .map(|b| {
                (0..3)
                    .map(|a| b.size[a] as u64 + 2 * ghost as u64)
                    .product::<u64>()
                    * 4
            })
            .max()
            .unwrap_or(0);
        assert!(
            max_brick_bytes <= spec.device.vram_bytes,
            "brick of {max_brick_bytes} bytes cannot fit device VRAM"
        );

        let in_core = volume.meta.bytes() <= spec.total_vram_bytes();
        let from_disk = match cfg.residency {
            Residency::HostResident => false,
            Residency::Disk => true,
            Residency::Auto => volume.meta.bytes() > HOST_BYTES_PER_NODE * spec.nodes() as u64,
        };
        let staging = if from_disk {
            Staging::Disk
        } else {
            Staging::HostResident
        };

        // Build the shared store and chunk handles — the staging setup this
        // plan amortizes across every frame rendered against it. Bricks are
        // staged by the mappers, which time each read (`volren.staging_ns`).
        let stage_start = Instant::now();
        let store = Arc::new(BrickStore::new(
            volume.clone(),
            grid.clone(),
            ghost,
            cfg.host_cache_bytes,
        ));
        let bricks: Vec<RenderBrick> = (0..grid.brick_count())
            .map(|i| RenderBrick::new(Arc::clone(&store), i, staging))
            .collect();
        trace::record_current("stage", stage_start);

        obs()
            .plan_prepare_ns
            .record_duration(prepare_start.elapsed());
        FramePlan {
            grid,
            staging,
            in_core,
            store,
            bricks,
            key: RequestKey::plan(spec, &volume.meta, cfg),
        }
    }

    /// The shared brick store (cache counters accumulate across frames).
    pub fn store(&self) -> &Arc<BrickStore> {
        &self.store
    }

    pub fn brick_count(&self) -> usize {
        self.bricks.len()
    }

    /// The volume this plan bricks.
    pub fn volume(&self) -> &Volume {
        self.store.volume()
    }
}

/// Render one frame of `volume` on the modeled `spec` cluster.
///
/// The computation (every texture sample, every blend) runs for real on host
/// threads; the report's times come from the DES replay of the recorded
/// trace against the cluster's hardware models.
pub fn render(
    spec: &ClusterSpec,
    volume: &Volume,
    scene: &Scene,
    cfg: &RenderConfig,
) -> RenderOutcome {
    let plan = FramePlan::prepare(spec, volume, cfg);
    render_planned(spec, &plan, scene, cfg)
}

/// Render one frame against a prebuilt [`FramePlan`].
///
/// Pixels depend only on `(volume, scene, cfg, spec.gpus)` — a frame
/// rendered through a shared plan is bit-identical to a direct [`render`]
/// call. The report's `store` counters are the *delta* this frame caused on
/// the shared store, so a warm store shows up as fewer misses (stagings).
///
/// Panics if `spec`/`cfg` differ from the ones the plan was prepared with:
/// the plan's bricking was sized and VRAM-checked for exactly that pair, and
/// a silent mismatch would break the bit-identical guarantee.
pub fn render_planned(
    spec: &ClusterSpec,
    plan: &FramePlan,
    scene: &Scene,
    cfg: &RenderConfig,
) -> RenderOutcome {
    let volume = plan.store.volume();
    assert!(
        RequestKey::plan(spec, &volume.meta, cfg) == plan.key,
        "render_planned requires the exact ClusterSpec and RenderConfig the \
         FramePlan was prepared with"
    );
    let gpus = spec.gpus;
    let (width, height) = cfg.image;
    assert!(width > 0 && height > 0, "degenerate image");
    let store_before = plan.store.snapshot();

    let mapper = VolumeMapper::new(
        scene.clone(),
        cfg.image,
        cfg.step_voxels,
        cfg.early_term,
        cfg.resolved_kernel_parallelism(gpus),
    );
    let reducer = CompositeReducer {
        background: scene.background,
    };
    let partitioner = cfg.partition.build(width);
    let combiner = AdjacentFragmentCombiner::default();
    let job_cfg = JobConfig {
        batch_bytes: cfg.batch_bytes,
        assignment: cfg.assignment,
        ..JobConfig::new(gpus, width * height)
    };

    // Kernel phase: the real map/sort/reduce execution (every texture
    // sample and blend), staged brick reads included; traced stage by stage.
    let kernel_start = Instant::now();
    let output = run_job(
        &plan.bricks,
        &mapper,
        &reducer,
        partitioner.as_ref(),
        cfg.combiner
            .then_some(&combiner as &dyn mgpu_mapreduce::Combiner<_>),
        spec,
        &job_cfg,
    );
    obs().kernel_ns.record_duration(kernel_start.elapsed());
    trace_job(&output.times);
    debug_assert!(output.stats.conserved(), "fragment conservation violated");

    // Composite phase: DES accounting of the modeled compositing (`model`)
    // plus the actual stitch into the final image.
    let composite_start = Instant::now();
    let book = CostBook::from_cluster(spec);
    let trace = match cfg.compositor {
        Compositor::DirectSend => build_trace(&output.record, spec, &book, &cfg.trace),
        Compositor::BinarySwap => build_swap_trace(
            &output.record,
            spec,
            &book,
            &cfg.trace,
            width as u64 * height as u64,
        ),
    };
    let accounting = account(&trace, &simulate(&trace));
    trace::record_current("model", composite_start);

    let stitch_start = Instant::now();
    let image = stitch(&output.keys, &output.outs, width, height, scene.background);
    obs()
        .composite_ns
        .record_duration(composite_start.elapsed());
    trace::record_current("stitch", stitch_start);

    let report = RenderReport {
        volume_label: volume.meta.label(),
        volume_voxels: volume.meta.voxel_count(),
        gpus,
        bricks: plan.grid.brick_count(),
        grid_counts: plan.grid.counts,
        in_core: plan.in_core,
        from_disk: plan.staging == Staging::Disk,
        accounting,
        job: output.stats,
        store: plan.store.snapshot().since(&store_before),
    };

    RenderOutcome {
        image,
        report,
        record: output.record,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::TransferFunction;
    use mgpu_voldata::Dataset;

    fn quick_render(gpus: u32, size: u32, image: u32) -> RenderOutcome {
        let volume = Dataset::Skull.volume(size);
        let spec = ClusterSpec::accelerator_cluster(gpus);
        let scene = Scene::orbit(&volume, 30.0, 20.0, TransferFunction::bone());
        let cfg = RenderConfig::test_size(image);
        render(&spec, &volume, &scene, &cfg)
    }

    #[test]
    fn renders_something_visible() {
        let out = quick_render(2, 32, 64);
        assert!(out.image.coverage(0.05) > 0.05, "skull should be visible");
        assert!(out.report.runtime().nanos() > 0);
        assert!(out.report.job.conserved());
        assert_eq!(out.report.gpus, 2);
        assert!(out.report.bricks >= 4);
    }

    /// The paper's restriction #1, where it is enforced: a device too small
    /// for even a one-voxel brick's ghost shell (3³ · 4 = 108 bytes) refuses
    /// the plan instead of staging a brick that could not be resident.
    #[test]
    #[should_panic(expected = "cannot fit device VRAM")]
    fn a_brick_that_cannot_fit_vram_refuses_the_plan() {
        let volume = Dataset::Skull.volume(8);
        let mut spec = ClusterSpec::accelerator_cluster(1);
        spec.device.vram_bytes = 64;
        FramePlan::prepare(&spec, &volume, &RenderConfig::test_size(8));
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick_render(4, 32, 64);
        let b = quick_render(4, 32, 64);
        assert_eq!(a.image, b.image);
        assert_eq!(a.report.runtime(), b.report.runtime());
        assert_eq!(a.report.job, b.report.job);
    }

    #[test]
    fn gpu_count_does_not_change_pixels_without_early_termination() {
        // With ET disabled the sample set is bricking-invariant, so any GPU
        // count must reproduce the same image up to f32 rounding.
        let volume = Dataset::Skull.volume(32);
        let scene = Scene::orbit(&volume, 30.0, 20.0, TransferFunction::bone());
        let mut cfg = RenderConfig::test_size(64);
        cfg.early_term = 1.1;
        let render_g = |g: u32| {
            let spec = ClusterSpec::accelerator_cluster(g);
            render(&spec, &volume, &scene, &cfg).image
        };
        let one = render_g(1);
        let eight = render_g(8);
        let diff = one.max_abs_diff(&eight);
        assert!(diff < 1e-4, "bricked render must match: diff {diff}");
    }

    #[test]
    fn early_termination_error_is_bounded_by_threshold() {
        // ET truncates per brick, so brickings may differ — but never by
        // more than the transmittance left when termination fires (1 − τ).
        let one = quick_render(1, 32, 64);
        let eight = quick_render(8, 32, 64);
        let diff = one.image.max_abs_diff(&eight.image);
        let bound = 1.0 - RenderConfig::default().early_term + 0.01;
        assert!(diff <= bound, "ET divergence {diff} exceeds bound {bound}");
    }

    #[test]
    fn report_metrics_sane() {
        let out = quick_render(2, 32, 64);
        let r = &out.report;
        assert!(r.fps() > 0.0);
        assert!(r.vps() > 0.0);
        assert_eq!(r.volume_voxels, 32 * 32 * 32);
        assert_eq!(r.breakdown().total(), r.accounting.makespan);
        assert!(r.in_core);
        assert!(!r.from_disk);
    }

    #[test]
    fn shared_plan_matches_direct_render_and_stages_once() {
        let volume = Dataset::Skull.volume(32);
        let spec = ClusterSpec::accelerator_cluster(2);
        let cfg = RenderConfig::test_size(64);
        let plan = FramePlan::prepare(&spec, &volume, &cfg);
        let scenes: Vec<Scene> = [10.0f32, 40.0, 70.0]
            .iter()
            .map(|az| Scene::orbit(&volume, *az, 20.0, TransferFunction::bone()))
            .collect();
        let mut planned_misses = 0;
        for scene in &scenes {
            let planned = render_planned(&spec, &plan, scene, &cfg);
            let direct = render(&spec, &volume, scene, &cfg);
            assert_eq!(planned.image, direct.image, "plan must not change pixels");
            planned_misses += planned.report.store.misses;
        }
        // The shared store materializes each brick once across all frames;
        // direct renders would pay `bricks` misses per frame.
        assert_eq!(planned_misses as usize, plan.brick_count());
    }

    /// A plan's bricks keep their cells and one skip grid per transfer
    /// function: the cells are built once, a frame under a function seen
    /// before reuses every grid built for it, a new function builds new
    /// ones, and every frame is a fresh plan's frame, pixels, simulated
    /// runtime and job record alike.
    #[test]
    fn a_plan_reuses_each_bricks_skip_grid_until_the_transfer_function_changes() {
        let volume = Dataset::Skull.volume(32);
        let spec = ClusterSpec::accelerator_cluster(2);
        let cfg = RenderConfig::test_size(64);
        let plan = FramePlan::prepare(&spec, &volume, &cfg);
        let (bone, grayscale) = (TransferFunction::bone(), TransferFunction::grayscale());
        let mut cells = Vec::new();
        let mut built: Vec<(&TransferFunction, Vec<_>)> = Vec::new();
        for (frame, transfer) in [&bone, &bone, &grayscale, &grayscale, &bone]
            .into_iter()
            .enumerate()
        {
            let scene = Scene::orbit(&volume, 10.0 + 25.0 * frame as f32, 20.0, transfer.clone());
            let planned = render_planned(&spec, &plan, &scene, &cfg);
            let fresh = render(&spec, &volume, &scene, &cfg);
            assert_eq!(planned.image, fresh.image, "frame {frame}");
            assert_eq!(planned.report.runtime(), fresh.report.runtime());
            assert_eq!(planned.record, fresh.record);

            let (now_cells, grids): (Vec<_>, Vec<_>) = plan
                .bricks
                .iter()
                .map(|brick| {
                    let (cells, grid) = brick.kept(transfer);
                    let cells = cells.expect("every brick mapped").ranges;
                    (cells, grid.expect("a grid for this frame's function"))
                })
                .unzip();
            if cells.is_empty() {
                cells = now_cells;
            } else {
                for (now, then) in now_cells.iter().zip(&cells) {
                    assert!(Arc::ptr_eq(now, then), "frame {frame}: cells rebuilt");
                }
            }
            // `grayscale` shows every voxel above 0.0, so it may leave no
            // brick anything to skip; `bone` leaves air around the skull.
            if transfer == &bone {
                assert!(grids.iter().any(Option::is_some), "frame {frame}");
            }
            for (before, kept) in &built {
                let same = *before == transfer;
                for (now, then) in grids.iter().zip(kept) {
                    match (now, then) {
                        (Some(now), Some(then)) => {
                            assert_eq!(Arc::ptr_eq(now, then), same, "frame {frame}")
                        }
                        (None, None) => {}
                        _ => assert!(!same, "frame {frame}: a grid came or went"),
                    }
                }
            }
            if built.iter().all(|(before, _)| *before != transfer) {
                built.push((transfer, grids));
            }
        }
        assert_eq!(built.len(), 2);
    }

    /// Plume 16 bricked for out-of-core frames — eight 16×16×8 bricks
    /// along z, each storing at most 16×16×10 voxels, under a budget of
    /// three — and six frames through it: frames alternate a function
    /// opaque only at high values with `smoke`, which shows more of the
    /// plume, and the fourth is a close-up of the top two bricks under
    /// `smoke`. Returns the spec, the config, the frames and a brick's
    /// largest stored box in bytes.
    fn out_of_core_frames(volume: &Volume) -> (ClusterSpec, RenderConfig, [Scene; 6], u64) {
        use crate::camera::Camera;
        use crate::math::vec3;
        use crate::transfer::ControlPoint;

        let spec = ClusterSpec::accelerator_cluster(1);
        let brick_bytes = 16 * 16 * 10 * 4;
        let cfg = RenderConfig {
            residency: Residency::Disk,
            bricks_per_gpu: 8,
            host_cache_bytes: 3 * brick_bytes,
            ..RenderConfig::test_size(32)
        };
        let point = |value, rgba| ControlPoint { value, rgba };
        let dense = TransferFunction::from_points(
            "dense",
            vec![
                point(0.45, [0.0; 4]),
                point(0.6, [1.0, 0.5, 0.2, 0.6]),
                point(1.0, [1.0, 1.0, 1.0, 0.9]),
            ],
        );
        let smoke = TransferFunction::smoke();
        let orbit = |az: f32, tf: &TransferFunction| Scene::orbit(volume, az, 20.0, tf.clone());
        // Bricks 6 and 7 fill the view; brick 5 projects off-screen.
        let top = Scene {
            camera: Camera::look_at(
                vec3(56.0, 8.0, 58.0),
                vec3(8.0, 8.0, 58.0),
                vec3(0.0, 0.0, 1.0),
                10.0,
            ),
            ..orbit(0.0, &smoke)
        };
        let frames = [
            orbit(10.0, &dense),
            orbit(40.0, &smoke),
            orbit(70.0, &dense),
            top,
            orbit(100.0, &smoke),
            orbit(130.0, &dense),
        ];
        (spec, cfg, frames, brick_bytes)
    }

    /// Out-of-core frames through one plan read only the rows their
    /// occupied cells can tap, and equal fresh renders bit for bit. The
    /// plume is procedural, staged as if from disk, and every frame misses;
    /// the close-up finds the top two bricks resident with the other
    /// function's rows and widens them. Both functions are opaque at the
    /// debug store's poison (far above 1), so a tap of a row no miss read
    /// shows in the pixels.
    #[test]
    fn out_of_core_frames_read_only_their_rows_and_match_fresh_renders() {
        let volume = Dataset::Plume.volume(16);
        let (spec, cfg, frames, brick_bytes) = out_of_core_frames(&volume);
        let plan = FramePlan::prepare(&spec, &volume, &cfg);
        assert_eq!(plan.grid.counts, [1, 1, 8]);
        let mut partial = 0;
        for (i, scene) in frames.iter().enumerate() {
            let planned = render_planned(&spec, &plan, scene, &cfg);
            let fresh = render(&spec, &volume, scene, &cfg);
            assert_eq!(planned.image, fresh.image, "frame {i}");
            assert_eq!(
                planned.report.runtime(),
                fresh.report.runtime(),
                "frame {i}"
            );
            assert_eq!(planned.record, fresh.record, "frame {i}");
            let store = planned.report.store;
            assert!(store.misses > 0, "frame {i} missed nothing");
            if i == 3 {
                // With the budget full, a miss that evicts nothing replaced
                // its own short entry.
                assert_eq!(store.evictions, 0, "the close-up widened nothing");
            }
            partial += usize::from(store.bytes_materialized < store.misses * brick_bytes);
        }
        assert!(
            partial >= 4,
            "only {partial} frames read fewer rows than their boxes"
        );
    }

    /// The same frames over the plume baked to a file: each brick's stored
    /// box is one contiguous range of the file, so every miss maps its box
    /// — every row readable, no buffer taken — and the frames still equal
    /// fresh renders bit for bit. Every frame but the close-up misses; the
    /// close-up finds its two bricks resident whole.
    #[test]
    fn out_of_core_file_frames_map_their_bricks_and_match_fresh_renders() {
        use mgpu_voldata::{io, VolumeSource};

        let procedural = Dataset::Plume.volume(16);
        let path =
            std::env::temp_dir().join(format!("mgpu_volren_mapped_{}.vol", std::process::id()));
        io::write_volume(&path, procedural.dims(), &procedural.materialize_full()).unwrap();
        let volume = Volume {
            meta: procedural.meta.clone(),
            source: VolumeSource::File(path.clone()),
        };
        let (spec, cfg, frames, _) = out_of_core_frames(&volume);
        let plan = FramePlan::prepare(&spec, &volume, &cfg);
        assert_eq!(plan.grid.counts, [1, 1, 8]);
        // The end bricks' stored boxes are the smallest: 16×16×9.
        let smallest_box = 16 * 16 * 9 * 4;
        for (i, scene) in frames.iter().enumerate() {
            let planned = render_planned(&spec, &plan, scene, &cfg);
            let fresh = render(&spec, &volume, scene, &cfg);
            assert_eq!(planned.image, fresh.image, "frame {i}");
            assert_eq!(
                planned.report.runtime(),
                fresh.report.runtime(),
                "frame {i}"
            );
            assert_eq!(planned.record, fresh.record, "frame {i}");
            let store = planned.report.store;
            if i == 3 {
                // The top two bricks are resident, and a view holds every
                // row: the close-up widens nothing and misses nothing.
                assert_eq!((store.misses, store.hits), (0, 2), "frame {i}");
            } else {
                assert!(store.misses > 0, "frame {i} missed nothing");
            }
            assert!(
                store.bytes_materialized >= store.misses * smallest_box,
                "frame {i}: a miss made only some rows readable"
            );
        }
        for id in 0..plan.brick_count() {
            let data = plan.store().get(id);
            assert!(data.voxels.is_mapped(), "brick {id} took a buffer");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "FramePlan was prepared with")]
    fn mismatched_plan_is_rejected() {
        let volume = Dataset::Skull.volume(16);
        let cfg = RenderConfig::test_size(32);
        let scene = Scene::orbit(&volume, 30.0, 20.0, TransferFunction::bone());
        let plan = FramePlan::prepare(&ClusterSpec::accelerator_cluster(2), &volume, &cfg);
        render_planned(&ClusterSpec::accelerator_cluster(8), &plan, &scene, &cfg);
    }

    #[test]
    fn forced_disk_staging_slows_the_frame() {
        let volume = Dataset::Skull.volume(32);
        let spec = ClusterSpec::accelerator_cluster(2);
        let scene = Scene::orbit(&volume, 30.0, 20.0, TransferFunction::bone());
        let mut cfg = RenderConfig::test_size(64);
        let resident = render(&spec, &volume, &scene, &cfg);
        cfg.residency = Residency::Disk;
        let disk = render(&spec, &volume, &scene, &cfg);
        assert_eq!(resident.image, disk.image, "staging must not change pixels");
        assert!(disk.report.runtime() > resident.report.runtime());
        assert!(disk.report.from_disk);
    }
}
