//! # mgpu-bench — the experiment harness
//!
//! Regenerates every figure and inline result of the paper's evaluation,
//! one `paper` subcommand each
//! (`cargo run --release -p mgpu-bench --bin paper -- <subcommand>`):
//!
//! | subcommand | reproduces |
//! |---|---|
//! | `fig3` | Figure 3: phase breakdown over volumes × GPUs |
//! | `fig4` | Figure 4: FPS and VPS curves |
//! | `micro` | §3 disk / H2D / D2H anchors |
//! | `bottlenecks`, `speed-of-light` | §6.3 comm-vs-compute split, hardware bounds |
//! | `paraview` | footnote 1 (ParaView 346 M VPS) |
//! | `timeline [size] [gpus]` | the overlap of communication and computation, as a Gantt chart |
//! | `ablate <combiner\|compositing\|partition\|reduce-device\|warp>`, `oocore` | §3.1/§6 design-decision ablations |
//! | `all` | every row above |
//!
//! The other two targets: the `obs_top` bin is the live dashboard over
//! STATS/TRACES, and `cargo bench -p mgpu-bench` runs `micro_ops`, where
//! the §3.1.2 counting-sort-vs-comparison-sort claim is measured.
//! Wall-clock throughput is measured by `perf/` (`mgpu-perf`), not here.
//!
//! Scale: set `MGPU_BENCH_SCALE` (default `1.0` = paper scale: volumes up to
//! 1024³, 512² images). `0.25` gives a laptop-quick pass with the same
//! shapes. Large volumes are baked to raw files under `MGPU_BENCH_CACHE`
//! (default: target/mgpu-bench-cache) once, so repeated sweep points pay
//! file reads instead of procedural synthesis.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

use mgpu_cluster::ClusterSpec;
use mgpu_sim::Fig3Bucket;
use mgpu_voldata::{io as volio, Dataset, Volume, VolumeSource};
use mgpu_volren::camera::Scene;
use mgpu_volren::renderer::{render, RenderOutcome};
use mgpu_volren::{RenderConfig, TransferFunction};

pub mod figures;
pub mod report;

pub use report::{ascii_bar, print_table, write_csv, Table};

/// Global bench scale, read from `MGPU_BENCH_SCALE`.
#[derive(Debug, Clone, Copy)]
pub struct BenchScale {
    pub factor: f64,
}

impl BenchScale {
    pub fn from_env() -> BenchScale {
        let factor = std::env::var("MGPU_BENCH_SCALE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(1.0)
            .clamp(0.05, 1.0);
        BenchScale { factor }
    }

    /// Scale a volume edge length, snapping to multiples of 16 (≥ 32).
    pub fn size(&self, base: u32) -> u32 {
        let s = (base as f64 * self.factor).round() as u32;
        (s / 16 * 16).max(32)
    }

    /// Scale the image edge (the paper uses 512²).
    pub fn image(&self) -> u32 {
        let s = (512.0 * self.factor).round() as u32;
        (s / 16 * 16).max(64)
    }
}

/// The paper's standard view for all figure runs.
pub fn standard_scene(volume: &Volume) -> Scene {
    let tf = TransferFunction::for_dataset(&volume.meta.name);
    Scene::orbit(volume, 30.0, 20.0, tf)
}

/// The paper's sweep: volume sizes × GPU counts (1024³ starts at 2 GPUs, as
/// in Figure 3).
pub fn fig3_sweep(scale: &BenchScale) -> Vec<(u32, Vec<u32>)> {
    let gpus_all = vec![1u32, 2, 4, 8, 16, 32];
    let gpus_big = vec![2u32, 4, 8, 16, 32];
    vec![
        (scale.size(128), gpus_all.clone()),
        (scale.size(256), gpus_all.clone()),
        (scale.size(512), gpus_all),
        (scale.size(1024), gpus_big),
    ]
}

/// One measured sweep point (one Figure-3 bar / one Figure-4 sample).
#[derive(Debug, Clone)]
pub struct FigRow {
    pub dataset: String,
    pub size: u32,
    pub gpus: u32,
    pub bricks: usize,
    pub map_ms: f64,
    pub partition_io_ms: f64,
    pub sort_ms: f64,
    pub reduce_ms: f64,
    pub total_ms: f64,
    pub fps: f64,
    pub vps_millions: f64,
    pub comm_demand_ms: f64,
    pub compute_demand_ms: f64,
    pub kernel_demand_ms: f64,
    pub fragments: u64,
    pub wire_mb: f64,
}

impl FigRow {
    pub fn from_outcome(dataset: &str, size: u32, out: &RenderOutcome) -> FigRow {
        let r = &out.report;
        let b = r.breakdown();
        FigRow {
            dataset: dataset.to_string(),
            size,
            gpus: r.gpus,
            bricks: r.bricks,
            map_ms: b.get(Fig3Bucket::Map).as_millis_f64(),
            partition_io_ms: b.get(Fig3Bucket::PartitionIo).as_millis_f64(),
            sort_ms: b.get(Fig3Bucket::Sort).as_millis_f64(),
            reduce_ms: b.get(Fig3Bucket::Reduce).as_millis_f64(),
            total_ms: r.runtime().as_millis_f64(),
            fps: r.fps(),
            vps_millions: r.vps() / 1e6,
            comm_demand_ms: r.accounting.communication_demand.as_millis_f64(),
            compute_demand_ms: r.accounting.computation_demand.as_millis_f64(),
            kernel_demand_ms: r.accounting.kernel_demand.as_millis_f64(),
            fragments: r.job.reduced_items,
            wire_mb: r.job.wire_bytes_sent as f64 / (1 << 20) as f64,
        }
    }

    pub const CSV_HEADERS: [&'static str; 16] = [
        "dataset",
        "size",
        "gpus",
        "bricks",
        "map_ms",
        "partition_io_ms",
        "sort_ms",
        "reduce_ms",
        "total_ms",
        "fps",
        "vps_millions",
        "comm_demand_ms",
        "compute_demand_ms",
        "kernel_demand_ms",
        "fragments",
        "wire_mb",
    ];

    pub fn csv_cells(&self) -> Vec<String> {
        vec![
            self.dataset.clone(),
            self.size.to_string(),
            self.gpus.to_string(),
            self.bricks.to_string(),
            format!("{:.3}", self.map_ms),
            format!("{:.3}", self.partition_io_ms),
            format!("{:.3}", self.sort_ms),
            format!("{:.3}", self.reduce_ms),
            format!("{:.3}", self.total_ms),
            format!("{:.4}", self.fps),
            format!("{:.2}", self.vps_millions),
            format!("{:.3}", self.comm_demand_ms),
            format!("{:.3}", self.compute_demand_ms),
            format!("{:.3}", self.kernel_demand_ms),
            self.fragments.to_string(),
            format!("{:.3}", self.wire_mb),
        ]
    }
}

static VOLUME_CACHE: Mutex<Option<HashMap<(&'static str, u32), Volume>>> = Mutex::new(None);

fn cache_dir() -> PathBuf {
    std::env::var("MGPU_BENCH_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|_| workspace_target().join("mgpu-bench-cache"))
}

/// Anchor artifact paths at the workspace target dir so `cargo test`
/// (CWD = crates/bench) and `cargo run` (CWD = workspace root) share caches.
pub fn workspace_target() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("target"))
}

/// Where the figure CSVs land.
pub fn results_dir() -> PathBuf {
    workspace_target().join("results")
}

/// Get (and cache) a bench volume. Volumes with ≥ 256³ voxels are baked to a
/// raw file once so subsequent sweep points read instead of re-synthesizing.
pub fn bench_volume(dataset: Dataset, base: u32) -> Volume {
    let mut guard = VOLUME_CACHE.lock().unwrap();
    let cache = guard.get_or_insert_with(HashMap::new);
    if let Some(v) = cache.get(&(dataset.name(), base)) {
        return v.clone();
    }
    let procedural = dataset.volume(base);
    let volume = if procedural.meta.voxel_count() >= 256 * 256 * 256 {
        bake_to_file(&procedural)
    } else {
        procedural
    };
    cache.insert((dataset.name(), base), volume.clone());
    volume
}

fn bake_to_file(volume: &Volume) -> Volume {
    let dir = cache_dir();
    std::fs::create_dir_all(&dir).expect("creating bench cache dir");
    let path = dir.join(format!("{}.vol", volume.meta.label()));
    let dims = volume.dims();
    if volio::read_header(&path)
        .map(|d| d == dims)
        .unwrap_or(false)
    {
        // Already baked by an earlier run.
    } else {
        eprintln!(
            "[bench] baking {} to {}",
            volume.meta.label(),
            path.display()
        );
        // Stream slabs to disk to bound memory.
        let tmp = path.with_extension("vol.partial");
        let mut w = volio::VolumeWriter::create(&tmp, dims).unwrap();
        let slab_z = (((64 << 20) / (dims[0] as usize * dims[1] as usize * 4)) as u32).max(1);
        let mut slab = Vec::new();
        for z in (0..dims[2]).step_by(slab_z as usize) {
            let dz = slab_z.min(dims[2] - z) as usize;
            slab.resize(dims[0] as usize * dims[1] as usize * dz, 0f32);
            volume.read_region(
                [0, 0, z],
                [dims[0] as usize, dims[1] as usize, dz],
                &mut slab,
            );
            w.append(&slab).unwrap();
        }
        w.finish();
        std::fs::rename(&tmp, &path).unwrap();
    }
    Volume {
        meta: volume.meta.clone(),
        source: VolumeSource::File(path),
    }
}

/// Run one sweep point with the standard scene.
pub fn run_point(dataset: Dataset, size: u32, gpus: u32, cfg: &RenderConfig) -> FigRow {
    let volume = bench_volume(dataset, size);
    let scene = standard_scene(&volume);
    let spec = ClusterSpec::accelerator_cluster(gpus);
    let out = render(&spec, &volume, &scene, cfg);
    FigRow::from_outcome(dataset.name(), size, &out)
}

/// Default render config for figure runs at the current scale.
pub fn figure_config(scale: &BenchScale) -> RenderConfig {
    let img = scale.image();
    RenderConfig {
        image: (img, img),
        ..RenderConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_snaps_sizes() {
        let s = BenchScale { factor: 0.25 };
        assert_eq!(s.size(128), 32);
        assert_eq!(s.size(1024), 256);
        assert_eq!(s.image(), 128);
        let full = BenchScale { factor: 1.0 };
        assert_eq!(full.size(1024), 1024);
        assert_eq!(full.image(), 512);
    }

    #[test]
    fn sweep_matches_paper_axes() {
        let sweep = fig3_sweep(&BenchScale { factor: 1.0 });
        assert_eq!(sweep.len(), 4);
        assert_eq!(sweep[0].1, vec![1, 2, 4, 8, 16, 32]);
        // 1024³ starts at 2 GPUs, as in Figure 3.
        assert_eq!(sweep[3].1, vec![2, 4, 8, 16, 32]);
    }

    #[test]
    fn run_point_produces_consistent_row() {
        let cfg = RenderConfig::test_size(64);
        let row = run_point(Dataset::Skull, 32, 2, &cfg);
        assert_eq!(row.gpus, 2);
        let stacked = row.map_ms + row.partition_io_ms + row.sort_ms + row.reduce_ms;
        assert!((stacked - row.total_ms).abs() < 1e-6);
        assert!(row.fps > 0.0);
        assert!(row.fragments > 0);
    }

    #[test]
    fn bench_volume_caches() {
        let a = bench_volume(Dataset::Skull, 32);
        let b = bench_volume(Dataset::Skull, 32);
        assert_eq!(a.meta, b.meta);
    }
}
