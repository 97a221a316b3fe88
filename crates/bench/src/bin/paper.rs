//! `paper` — regenerates the paper's evaluation: every figure, inline
//! result and design-decision ablation, one subcommand each (the table in
//! the crate docs says which reproduces what). The timings come from the
//! DES replay, so a subcommand prints the same bytes on every run.
//!
//!     cargo run --release -p mgpu-bench --bin paper -- <subcommand>
//!
//! `MGPU_BENCH_SCALE=0.25` gives a laptop-quick pass with the same shapes.

use std::cell::OnceCell;
use std::process::ExitCode;

use mgpu_bench::figures::{
    bottleneck_report, fig3_report, fig4_report, micro_report, paraview_report, run_sweep,
    speed_of_light_report,
};
use mgpu_bench::{
    bench_volume, figure_config, print_table, run_point, standard_scene, BenchScale, FigRow, Table,
};
use mgpu_cluster::{ClusterSpec, ResourceMap};
use mgpu_gpu::KernelTimingMode;
use mgpu_mapreduce::{build_trace, CostBook};
use mgpu_sim::{ascii_timeline, resource_use, simulate};
use mgpu_voldata::Dataset;
use mgpu_volren::renderer::render;
use mgpu_volren::{Compositor, PartitionStrategy, RenderConfig, Residency};

const USAGE: &str =
    "usage: paper <fig3 | fig4 | micro | bottlenecks | paraview | speed-of-light | \
     timeline [size] [gpus] | oocore | \
     ablate <combiner|compositing|partition|reduce-device|warp> | all>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    // fig3 and fig4 read the same sweep; `all` renders it once.
    let sweep = OnceCell::new();
    if run(&args, &BenchScale::from_env(), &sweep) {
        ExitCode::SUCCESS
    } else {
        eprintln!("{USAGE}");
        ExitCode::from(2)
    }
}

/// Run one subcommand; `false` when `args` does not name one.
fn run(args: &[&str], scale: &BenchScale, sweep: &OnceCell<Vec<FigRow>>) -> bool {
    let rows = || sweep.get_or_init(|| run_sweep(scale));
    match args {
        ["fig3"] => {
            println!(
                "Figure 3 — runtime breakdown by phase (scale {:.2})",
                scale.factor
            );
            fig3_report(rows());
        }
        ["fig4"] => {
            println!("Figure 4 — FPS and VPS (scale {:.2})", scale.factor);
            fig4_report(rows(), scale);
        }
        ["micro"] => micro_report(),
        ["bottlenecks"] => bottleneck_report(scale),
        ["paraview"] => paraview_report(scale),
        ["speed-of-light"] => speed_of_light_report(scale),
        ["timeline", dims @ ..] if dims.len() <= 2 => {
            let Ok(dims) = dims
                .iter()
                .map(|d| d.parse())
                .collect::<Result<Vec<u32>, _>>()
            else {
                return false;
            };
            let dim = |i: usize, default| dims.get(i).copied().unwrap_or(default);
            timeline(dim(0, 128), dim(1, 4), scale);
        }
        ["oocore"] => oocore(scale),
        ["ablate", which] => match ABLATIONS.iter().find(|a| a.name == *which) {
            Some(ablation) => ablate(ablation, scale),
            None => return false,
        },
        ["all"] => {
            for sub in [
                "fig3",
                "fig4",
                "micro",
                "bottlenecks",
                "paraview",
                "speed-of-light",
                "timeline",
                "oocore",
            ] {
                run(&[sub], scale, sweep);
            }
            for ablation in &ABLATIONS {
                ablate(ablation, scale);
            }
        }
        _ => return false,
    }
    true
}

/// Pipeline inspector: ASCII Gantt timeline + per-resource utilization for
/// one rendering configuration — makes the overlap the paper relies on
/// ("hiding communication requirements behind computation") visible.
fn timeline(size: u32, gpus: u32, scale: &BenchScale) {
    let cfg = figure_config(scale);
    let volume = bench_volume(Dataset::Skull, size);
    let scene = standard_scene(&volume);
    let spec = ClusterSpec::accelerator_cluster(gpus);

    // Render the frame, then rebuild the trace its report replayed.
    let out = render(&spec, &volume, &scene, &cfg);
    let book = CostBook::from_cluster(&spec);
    let trace = build_trace(&out.record, &spec, &book, &cfg.trace);
    let schedule = simulate(&trace);

    println!(
        "skull {size}^3 on {gpus} GPUs — {} tasks, makespan {:.1} ms\n",
        trace.len(),
        schedule.makespan().as_secs_f64() * 1e3
    );
    println!("resource legend (per cluster::ResourceMap order): GPUs, PCIe links,");
    println!("host cores, disks, NICs-out, NICs-in. K=kernel H=h2d D=d2h/disk");
    println!("P=partition N=net-send/recv L=local-copy S=sort R=reduce\n");
    println!("{}", ascii_timeline(&trace, &schedule, 100));

    let mut t = Table::new(&["resource", "class", "busy ms", "tasks", "utilization"]);
    let mut tr_probe = mgpu_sim::Trace::new();
    let rm = ResourceMap::build(&spec, &mut tr_probe);
    let classes = [
        (&rm.gpu, "gpu"),
        (&rm.pcie, "pcie"),
        (&rm.core, "core"),
        (&rm.disk, "disk"),
        (&rm.nic_out, "nic-out"),
    ];
    let class_of = |r: u32| {
        let r = mgpu_sim::ResourceId(r);
        let owner = classes.iter().find(|(ids, _)| ids.contains(&r));
        owner.map_or("nic-in", |(_, class)| class)
    };
    for u in resource_use(&trace, &schedule) {
        if u.tasks == 0 {
            continue;
        }
        t.row(&[
            format!("r{:02}", u.resource),
            class_of(u.resource).to_string(),
            format!("{:.2}", u.busy.as_millis_f64()),
            u.tasks.to_string(),
            format!("{:.0}%", u.utilization * 100.0),
        ]);
    }
    print_table("resource utilization", &t);
}

/// §6 out-of-core operation: stream bricks from disk under a small host
/// cache vs fully resident data. "We can run the renderer in either an
/// in-core or out-of-core manner and reduce bottlenecks as much as possible
/// in both cases."
fn oocore(scale: &BenchScale) {
    let size = scale.size(512);
    let gpus = 8;
    let volume = bench_volume(Dataset::Skull, size);
    let scene = standard_scene(&volume);
    let spec = ClusterSpec::accelerator_cluster(gpus);
    println!("out-of-core ablation at {size}^3, {gpus} GPUs");

    let mut t = Table::new(&[
        "mode",
        "total ms",
        "part+io ms",
        "cache evictions",
        "bytes materialized MB",
    ]);
    let mut images = Vec::new();
    for (label, residency, cache) in [
        ("in-core (resident)", Residency::HostResident, u64::MAX),
        ("out-of-core (disk)", Residency::Disk, 256 << 20),
    ] {
        let mut cfg = figure_config(scale);
        cfg.residency = residency;
        cfg.host_cache_bytes = cache;
        let out = render(&spec, &volume, &scene, &cfg);
        t.row(&[
            label.to_string(),
            format!("{:.1}", out.report.runtime().as_millis_f64()),
            format!("{:.1}", out.report.breakdown().partition_io.as_millis_f64()),
            out.report.store.evictions.to_string(),
            format!(
                "{:.1}",
                out.report.store.bytes_materialized as f64 / (1 << 20) as f64
            ),
        ]);
        images.push(out.image);
    }
    print_table("in-core vs out-of-core", &t);
    let diff = images[0].max_abs_diff(&images[1]);
    println!("pixel difference between modes: {diff} (must be 0 — same data, same math)");
    assert_eq!(diff, 0.0);
}

/// One §3.1/§6 design-decision ablation on the 256³ skull: a banner, one
/// table, and a closing remark setting the result against the paper's.
struct Ablation {
    /// `paper ablate <name>`.
    name: &'static str,
    banner: fn(u32) -> String,
    columns: &'static [&'static str],
    title: &'static str,
    /// Fill the table at `size`³ and return the closing remark (may be empty).
    rows: fn(&BenchScale, u32, &mut Table) -> String,
}

/// The ablations that hold the cluster fixed run on this many GPUs.
const FIXED_GPUS: u32 = 8;

const ABLATIONS: [Ablation; 5] = [
    Ablation {
        name: "combiner",
        banner: |size| format!("combiner ablation at {size}^3, {FIXED_GPUS} GPUs"),
        columns: &["combiner", "fragments reduced", "wire MB", "total ms"],
        title: "combine stage on/off",
        rows: combiner_rows,
    },
    Ablation {
        name: "compositing",
        banner: |size| format!("compositing ablation at {size}^3"),
        columns: &["gpus", "direct-send ms", "binary-swap ms", "winner"],
        title: "direct-send vs binary-swap",
        rows: |scale, size, t| {
            let set = |cfg: &mut RenderConfig, swap| {
                cfg.compositor = if swap {
                    Compositor::BinarySwap
                } else {
                    Compositor::DirectSend
                }
            };
            let names = ["direct-send", "binary-swap"];
            duel(scale, size, &[2, 4, 8, 16, 32], names, set, t);
            "(identical pixels either way — over is associative; only the schedule differs)".into()
        },
    },
    Ablation {
        name: "partition",
        banner: |size| format!("partition ablation at {size}^3, {FIXED_GPUS} GPUs"),
        columns: &[
            "strategy",
            "total ms",
            "sort ms",
            "reduce ms",
            "per-brick max/mean load",
        ],
        title: "partition strategies",
        rows: partition_rows,
    },
    Ablation {
        name: "reduce-device",
        banner: |size| format!("reduce-device ablation at {size}^3"),
        columns: &["gpus", "cpu reduce ms", "gpu reduce ms", "winner"],
        title: "reduce on CPU vs GPU",
        rows: |scale, size, t| {
            let set = |cfg: &mut RenderConfig, on_gpu| cfg.trace.reduce_on_gpu = on_gpu;
            duel(scale, size, &[4, 8, 16], ["cpu", "gpu"], set, t);
            "paper: CPU wins at this scale; GPU pays upload + many small kernels.".into()
        },
    },
    Ablation {
        name: "warp",
        banner: |size| format!("kernel-timing ablation at {size}^3"),
        columns: &["gpus", "flat ms", "warp-accurate ms", "divergence tax"],
        title: "flat vs warp-accurate kernel model",
        rows: warp_rows,
    },
];

/// The table driver every ablation shares.
fn ablate(ablation: &Ablation, scale: &BenchScale) {
    let size = scale.size(256);
    println!("{}", (ablation.banner)(size));
    let mut t = Table::new(ablation.columns);
    let remark = (ablation.rows)(scale, size, &mut t);
    print_table(ablation.title, &t);
    if !remark.is_empty() {
        println!("{remark}");
    }
}

/// One row per GPU count: the same point with one `RenderConfig` switch off
/// (`names[0]`) and on (`names[1]`), and the side the replay favours.
fn duel(
    scale: &BenchScale,
    size: u32,
    gpu_counts: &[u32],
    names: [&str; 2],
    set: fn(&mut RenderConfig, bool),
    t: &mut Table,
) {
    for &gpus in gpu_counts {
        let mut cfg = figure_config(scale);
        let [off, on] = [false, true].map(|switch| {
            set(&mut cfg, switch);
            run_point(Dataset::Skull, size, gpus, &cfg).total_ms
        });
        t.row(&[
            gpus.to_string(),
            format!("{off:.1}"),
            format!("{on:.1}"),
            names[usize::from(on < off)].to_string(),
        ]);
    }
}

/// §3.1: "we specifically omitted partial reduce/combine because it didn't
/// increase performance for our volume renderer." The combiner merges only
/// provably depth-adjacent fragments, so it is correct — it just rarely
/// finds anything to merge under round-robin brick assignment.
fn combiner_rows(scale: &BenchScale, size: u32, t: &mut Table) -> String {
    let mut base_ms = 0.0;
    for on in [false, true] {
        let mut cfg = figure_config(scale);
        cfg.combiner = on;
        let row = run_point(Dataset::Skull, size, FIXED_GPUS, &cfg);
        t.row(&[
            if on { "on" } else { "off" }.to_string(),
            row.fragments.to_string(),
            format!("{:.2}", row.wire_mb),
            format!("{:.1}", row.total_ms),
        ]);
        if on {
            let delta = (row.total_ms - base_ms) / base_ms * 100.0;
            println!("runtime delta with combiner: {delta:+.2}% (paper: no benefit)");
        } else {
            base_ms = row.total_ms;
        }
    }
    String::new()
}

/// §3.1.1: "Partitioning is done in a per-pixel round-robin fashion. This
/// is, empirically, the highest-performing method." Load imbalance shows
/// through the slowest reducer: the sort + reduce milestones stretch with it.
fn partition_rows(scale: &BenchScale, size: u32, t: &mut Table) -> String {
    // Screen-space imbalance is taken over one brick's footprint — the
    // granularity at which fragments arrive, and where striped/tiled
    // schemes skew: an eighth of the image, off-center.
    let img = scale.image();
    let (x0, y0, side) = (img / 3, img / 2, img / 8);
    let mut fastest = ("", f64::INFINITY);
    for strategy in [
        PartitionStrategy::RoundRobin,
        PartitionStrategy::Striped {
            rows_per_stripe: 32,
        },
        PartitionStrategy::Tiled { tile: 64 },
        PartitionStrategy::Checkerboard { cell: 64 },
    ] {
        let mut cfg = figure_config(scale);
        cfg.partition = strategy;
        let row = run_point(Dataset::Skull, size, FIXED_GPUS, &cfg);
        if row.total_ms < fastest.1 {
            fastest = (strategy.label(), row.total_ms);
        }
        let keys = (y0..y0 + side).flat_map(|y| (x0..x0 + side).map(move |x| y * img + x));
        let imbalance =
            mgpu_mapreduce::partition::imbalance(strategy.build(img).as_ref(), keys, FIXED_GPUS);
        t.row(&[
            strategy.label().to_string(),
            format!("{:.1}", row.total_ms),
            format!("{:.1}", row.sort_ms),
            format!("{:.1}", row.reduce_ms),
            format!("{imbalance:.3}"),
        ]);
    }
    format!(
        "fastest: {} ({:.1} ms) — paper picked round-robin",
        fastest.0, fastest.1
    )
}

/// GPU-model ablation: ray casting diverges at silhouettes (lockstep lanes
/// wait for the longest ray in the warp), so the warp-accurate model charges
/// more than flat throughput — how much paper-era SIMT lost to divergence.
fn warp_rows(scale: &BenchScale, size: u32, t: &mut Table) -> String {
    let volume = bench_volume(Dataset::Skull, size);
    let scene = standard_scene(&volume);
    let cfg = figure_config(scale);
    for gpus in [4u32, 8, 16] {
        let mut spec = ClusterSpec::accelerator_cluster(gpus);
        spec.device.kernel.mode = KernelTimingMode::FlatThroughput;
        let flat = render(&spec, &volume, &scene, &cfg);
        spec.device.kernel.mode = KernelTimingMode::WarpAccurate;
        let warp = render(&spec, &volume, &scene, &cfg);
        assert_eq!(flat.image, warp.image, "timing mode must not change pixels");
        let f = flat.report.runtime().as_millis_f64();
        let w = warp.report.runtime().as_millis_f64();
        t.row(&[
            gpus.to_string(),
            format!("{f:.1}"),
            format!("{w:.1}"),
            format!("{:+.1}%", (w - f) / f * 100.0),
        ]);
    }
    String::new()
}
