//! The reports behind `paper`'s figure and analysis subcommands: each
//! regenerates one of the paper's figures / analyses.

use mgpu_cluster::ClusterSpec;
use mgpu_voldata::Dataset;
use mgpu_volren::baseline::ParaViewClassBaseline;

use crate::{
    fig3_sweep, figure_config, print_table, run_point, write_csv, BenchScale, FigRow, Table,
};

/// Run the full Figure-3/4 sweep, returning one row per (size, gpus) point.
pub fn run_sweep(scale: &BenchScale) -> Vec<FigRow> {
    let cfg = figure_config(scale);
    let mut rows = Vec::new();
    for (size, gpu_counts) in fig3_sweep(scale) {
        for gpus in gpu_counts {
            let row = run_point(Dataset::Skull, size, gpus, &cfg);
            eprintln!(
                "[sweep] {:>4}^3 x {:>2} GPUs -> {:>8.1} ms",
                size, gpus, row.total_ms
            );
            rows.push(row);
        }
    }
    rows
}

/// Figure 3: the stacked phase-breakdown table + ASCII bars.
pub fn fig3_report(rows: &[FigRow]) {
    let mut t = Table::new(&[
        "volume",
        "gpus",
        "bricks",
        "map ms",
        "part+io ms",
        "sort ms",
        "reduce ms",
        "total ms",
    ]);
    for r in rows {
        t.row(&[
            format!("{}^3", r.size),
            r.gpus.to_string(),
            r.bricks.to_string(),
            format!("{:.1}", r.map_ms),
            format!("{:.1}", r.partition_io_ms),
            format!("{:.1}", r.sort_ms),
            format!("{:.1}", r.reduce_ms),
            format!("{:.1}", r.total_ms),
        ]);
    }
    print_table("Figure 3: phase breakdown (skull dataset)", &t);

    let max_total = rows.iter().map(|r| r.total_ms).fold(0.0, f64::max);
    let mut size_seen = Vec::new();
    for r in rows {
        if !size_seen.contains(&r.size) {
            size_seen.push(r.size);
            println!(
                "\n{}^3 volume ('M' map, 'P' partition+io, 'S' sort, 'R' reduce):",
                r.size
            );
        }
        let w = 64.0 / max_total;
        let seg = |v: f64, c: char| c.to_string().repeat((v * w).round() as usize);
        println!(
            "  {:>2} GPUs |{}{}{}{}| {:.0} ms",
            r.gpus,
            seg(r.map_ms, 'M'),
            seg(r.partition_io_ms, 'P'),
            seg(r.sort_ms, 'S'),
            seg(r.reduce_ms, 'R'),
            r.total_ms
        );
    }

    println!("\nwrote {}", write_rows_csv("fig3.csv", rows).display());
}

/// Write the sweep to `name` under the results dir; returns the path.
fn write_rows_csv(name: &str, rows: &[FigRow]) -> std::path::PathBuf {
    let dir = crate::results_dir();
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join(name);
    let cells = rows.iter().map(|r| r.csv_cells());
    write_csv(&path, &FigRow::CSV_HEADERS, cells).expect("writing the sweep CSV");
    path
}

/// Figure 4: FPS and VPS tables + the abstract's headline check.
pub fn fig4_report(rows: &[FigRow], scale: &BenchScale) {
    let mut fps = Table::new(&["volume", "gpus", "FPS", "runtime ms"]);
    let mut vps = Table::new(&["volume", "gpus", "VPS (millions)"]);
    for r in rows {
        fps.row(&[
            format!("{}^3", r.size),
            r.gpus.to_string(),
            format!("{:.3}", r.fps),
            format!("{:.1}", r.total_ms),
        ]);
        vps.row(&[
            format!("{}^3", r.size),
            r.gpus.to_string(),
            format!("{:.0}", r.vps_millions),
        ]);
    }
    print_table("Figure 4 (left): frames per second", &fps);
    print_table("Figure 4 (right): voxels per second", &vps);

    if let Some(h) = rows
        .iter()
        .find(|r| r.size == scale.size(1024) && r.gpus == 8)
    {
        println!(
            "\nheadline: {}^3 on 8 GPUs renders in {:.0} ms ({})",
            h.size,
            h.total_ms,
            if scale.factor >= 1.0 {
                if h.total_ms < 1000.0 {
                    "PASS — paper: < 1 s at 1024^3 on 8 GPUs"
                } else {
                    "MISS vs the paper's < 1 s claim"
                }
            } else {
                "scaled run; see EXPERIMENTS.md for paper scale"
            }
        );
    }

    println!("wrote {}", write_rows_csv("fig4.csv", rows).display());
}

/// §6.3: the communication-vs-computation table for the largest volume.
pub fn bottleneck_report(scale: &BenchScale) {
    let cfg = figure_config(scale);
    let size = scale.size(1024);
    let mut t = Table::new(&[
        "gpus",
        "comm/GPU ms",
        "compute/GPU ms",
        "kernel/GPU ms",
        "comm/compute",
        "total ms",
    ]);
    let mut measured = Vec::new();
    for gpus in [8u32, 16, 32] {
        let r = run_point(Dataset::Skull, size, gpus, &cfg);
        let g = gpus as f64;
        measured.push((r.comm_demand_ms / g, r.compute_demand_ms / g));
        t.row(&[
            gpus.to_string(),
            format!("{:.0}", r.comm_demand_ms / g),
            format!("{:.0}", r.compute_demand_ms / g),
            format!("{:.0}", r.kernel_demand_ms / g),
            format!("{:.2}", r.comm_demand_ms / r.compute_demand_ms.max(1e-9)),
            format!("{:.0}", r.total_ms),
        ]);
    }
    print_table(
        &format!("§6.3 bottleneck analysis at {size}^3 (per-GPU service demand)"),
        &t,
    );
    println!(
        "paper: 8 GPUs ≈ 515 ms comm vs 503 ms compute per GPU; at 16 GPUs comm grows\n\
         while compute halves — computation stops being the bottleneck."
    );
    // Aggregate communication grows with the GPU count while each GPU's
    // compute share halves — the §6.3 direction.
    let agg_comm_growth = (measured[1].0 * 16.0) / (measured[0].0 * 8.0).max(1e-9);
    let compute_shrink = measured[0].1 / measured[1].1.max(1e-9);
    println!(
        "measured: aggregate comm x{agg_comm_growth:.2}, per-GPU compute /{compute_shrink:.2} going 8 -> 16 GPUs"
    );
}

/// §3 micro anchors table (disk / H2D / D2H).
pub fn micro_report() {
    let spec = ClusterSpec::accelerator_cluster(1);
    let brick = 64u64 * 64 * 64 * 4;
    let frag_buffer = 512 * 512 * 28;
    let disk = spec.disk.time(brick);
    let h2d = spec.device.h2d_time(brick);
    let d2h = spec.device.d2h_time(frag_buffer);

    let mut t = Table::new(&["transfer", "bytes", "modeled", "paper anchor", "ok"]);
    t.row(&[
        "disk -> host (64^3 brick)".to_string(),
        brick.to_string(),
        format!("{disk}"),
        "~20 ms".to_string(),
        ((disk.as_millis_f64() - 20.0).abs() < 2.0).to_string(),
    ]);
    t.row(&[
        "host -> GPU (64^3 brick)".to_string(),
        brick.to_string(),
        format!("{h2d}"),
        "< 0.2 ms".to_string(),
        (h2d.as_millis_f64() < 0.2).to_string(),
    ]);
    t.row(&[
        "GPU -> host (512^2 fragments)".to_string(),
        frag_buffer.to_string(),
        format!("{d2h}"),
        "< 2 ms".to_string(),
        (d2h.as_millis_f64() < 2.0).to_string(),
    ]);
    print_table("§3 transfer anchors", &t);
    println!(
        "H2D is {:.2}% of the disk load (paper: '< 1% overhead'); network send of the\n\
         same fragments: {} — the paper's 'orders of magnitude' gap vs PCIe.",
        h2d.as_secs_f64() / disk.as_secs_f64() * 100.0,
        spec.network.send_time(frag_buffer)
    );
}

/// Footnote 1: the ParaView comparison at 16 GPUs.
pub fn paraview_report(scale: &BenchScale) {
    let cfg = figure_config(scale);
    let size = scale.size(1024);
    let row = run_point(Dataset::Skull, size, 16, &cfg);
    let pv = ParaViewClassBaseline::moreland_cray_xt3();
    let mut t = Table::new(&["system", "resources", "VPS (millions)"]);
    t.row(&[
        "ParaView (Moreland et al.)".to_string(),
        "512 procs / 256 nodes".to_string(),
        format!("{:.0}", pv.total_vps / 1e6),
    ]);
    t.row(&[
        "this system".to_string(),
        "16 GPUs / 4 nodes".to_string(),
        format!("{:.0}", row.vps_millions),
    ]);
    print_table("footnote 1: VPS comparison", &t);
    let ratio = row.vps_millions / (pv.total_vps / 1e6);
    println!("ratio: {ratio:.2}x (paper: 'more than double')");
}

/// §6.3 "speed of light": hardware lower bounds vs the achieved makespan.
///
/// The paper argues its runtime sits close to the realistic peak of the
/// hardware once computation stops dominating. The bound here is the busiest
/// single resource class: kernels spread over G GPUs, PCIe traffic over G
/// links, network traffic over the node NICs, CPU stages over G cores.
pub fn speed_of_light_report(scale: &BenchScale) {
    use mgpu_sim::Activity;
    let cfg = figure_config(scale);
    let size = scale.size(1024);
    let volume = crate::bench_volume(Dataset::Skull, size);
    let scene = crate::standard_scene(&volume);

    let mut t = Table::new(&[
        "gpus",
        "compute LB ms",
        "pcie LB ms",
        "network LB ms",
        "bound ms",
        "achieved ms",
        "efficiency",
    ]);
    for gpus in [8u32, 16, 32] {
        let spec = ClusterSpec::accelerator_cluster(gpus);
        let out = mgpu_volren::renderer::render(&spec, &volume, &scene, &cfg);
        let acc = &out.report.accounting;
        let g = gpus as f64;
        let nodes = spec.nodes() as f64;
        let busy = |a: Activity| acc.totals(a).busy.as_secs_f64();
        let compute_lb = busy(Activity::Kernel) / g;
        let pcie_lb = (busy(Activity::HostToDevice) + busy(Activity::DeviceToHost)) / g;
        let net_lb = busy(Activity::NetSend) / nodes;
        let cpu_lb =
            (busy(Activity::PartitionCpu) + busy(Activity::SortCpu) + busy(Activity::ReduceCpu))
                / g;
        let bound = compute_lb.max(pcie_lb).max(net_lb).max(cpu_lb);
        let achieved = acc.makespan.as_secs_f64();
        t.row(&[
            gpus.to_string(),
            format!("{:.0}", compute_lb * 1e3),
            format!("{:.0}", pcie_lb * 1e3),
            format!("{:.0}", net_lb * 1e3),
            format!("{:.0}", bound * 1e3),
            format!("{:.0}", achieved * 1e3),
            format!("{:.0}%", bound / achieved * 100.0),
        ]);
    }
    print_table(&format!("§6.3 speed-of-light analysis at {size}^3"), &t);
    println!("paper: 'the combination of our library and renderer are as efficient as\n       possible' — achieved times should sit near the busiest-resource bound.");
}
