//! Raw ray-march throughput: the batched `BlockKernel` production path
//! head-to-head against the retained scalar `Kernel` path on one resident
//! 256³ brick, plus an end-to-end out-of-core render of the paper-shaped
//! plume (1:1:4 column, 512×512×2048 at full scale).
//!
//!     cargo run --release -p mgpu-bench --bin render_throughput [-- --smoke]
//!
//! Smoke mode writes `BENCH_volren.json` — the CI trend artifact whose
//! `frames_per_sec` field (batched kernel frames over the full image) is
//! gated by `ci/bench_delta.sh`. The run also asserts the two paths agree
//! bit-for-bit, so the perf gate doubles as an equivalence check at scale.

use std::time::Instant;

use mgpu_bench::{bench_volume, standard_scene, JsonObject};
use mgpu_cluster::ClusterSpec;
use mgpu_gpu::{launch, launch_blocks, LaunchConfig, Texture3D};
use mgpu_voldata::Dataset;
use mgpu_volren::kernel::RayCastKernel;
use mgpu_volren::math::vec3;
use mgpu_volren::renderer::render;
use mgpu_volren::{RenderConfig, Residency};

struct HeadToHead {
    pixels: f64,
    scalar_px_s: f64,
    batched_px_s: f64,
    samples_per_sec: f64,
    total_samples: u64,
    p50_kernel_ms: f64,
}

/// One resident brick, full-image launch: the paper's map kernel with the
/// MapReduce plumbing stripped away, so the number is pure ray-march speed.
fn head_to_head(volume_size: u32, image: u32, reps: usize) -> HeadToHead {
    let volume = Dataset::Skull.volume(volume_size);
    let scene = standard_scene(&volume);
    let d = volume.dims();
    let ghost = 1i64;
    let store_dims = [d[0] as usize + 2, d[1] as usize + 2, d[2] as usize + 2];
    let voxels = volume.materialize_clamped([-ghost, -ghost, -ghost], store_dims);
    let texture = Texture3D::new(store_dims, voxels);
    let lut = scene.transfer.bake();
    let cfg = RenderConfig::default();
    let kernel = RayCastKernel {
        camera: &scene.camera,
        lut: &lut,
        texture: &texture,
        store_origin: vec3(-1.0, -1.0, -1.0),
        core_lo: vec3(0.0, 0.0, 0.0),
        core_hi: vec3(d[0] as f32, d[1] as f32, d[2] as f32),
        image: (image, image),
        offset: (0, 0),
        step: cfg.step_voxels,
        early_term: cfg.early_term,
    };
    let config = LaunchConfig::cover(image, image);
    let pixels = image as f64 * image as f64;

    let mut scalar_best = f64::INFINITY;
    let mut scalar_out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let out = launch(&kernel, config, 1);
        scalar_best = scalar_best.min(t.elapsed().as_secs_f64());
        scalar_out = Some(out);
    }
    let scalar_out = scalar_out.unwrap();

    let mut batched_times = Vec::with_capacity(reps);
    let mut batched_out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let out = launch_blocks(&kernel, config, 1);
        batched_times.push(t.elapsed().as_secs_f64());
        batched_out = Some(out);
    }
    let batched_out = batched_out.unwrap();
    let batched_best = batched_times.iter().cloned().fold(f64::INFINITY, f64::min);
    batched_times.sort_by(f64::total_cmp);
    let p50_kernel_ms = batched_times[batched_times.len() / 2] * 1e3;

    // The perf gate is only meaningful if the fast path is the same math.
    assert_eq!(scalar_out.stats, batched_out.stats, "launch stats diverged");
    for (i, (k, f)) in scalar_out.outputs.iter().enumerate() {
        assert_eq!(*k, batched_out.keys[i], "key mismatch at lane {i}");
        let b = &batched_out.values[i];
        assert_eq!(
            f.color.map(f32::to_bits),
            b.color.map(f32::to_bits),
            "color mismatch at lane {i}"
        );
        assert_eq!(f.depth.to_bits(), b.depth.to_bits());
        assert_eq!(f.exit.to_bits(), b.exit.to_bits());
    }

    HeadToHead {
        pixels,
        scalar_px_s: pixels / scalar_best,
        batched_px_s: pixels / batched_best,
        samples_per_sec: batched_out.stats.total_samples as f64 / batched_best,
        total_samples: batched_out.stats.total_samples,
        p50_kernel_ms,
    }
}

struct Oocore {
    wall_px_s: f64,
    wall_ms: f64,
    evictions: u64,
    materialized_mb: f64,
}

/// End-to-end out-of-core render of the plume column through the whole
/// MapReduce pipeline (staging from disk under a small host cache). The
/// cache holds about a third of the volume (at most 128 MiB), so at every
/// scale the frame has to evict — a leg that never leaves core measures
/// nothing out-of-core.
fn plume_out_of_core(base: u32, image: u32) -> Oocore {
    let volume = bench_volume(Dataset::Plume, base);
    let scene = standard_scene(&volume);
    let spec = ClusterSpec::accelerator_cluster(4);
    let cfg = RenderConfig {
        image: (image, image),
        residency: Residency::Disk,
        host_cache_bytes: (volume.meta.bytes() / 3).min(128 << 20),
        ..RenderConfig::default()
    };
    let t = Instant::now();
    let out = render(&spec, &volume, &scene, &cfg);
    let wall = t.elapsed().as_secs_f64();
    assert!(
        out.report.store.evictions > 0,
        "the out-of-core leg never evicted: its cache holds the whole volume"
    );
    let pixels = image as f64 * image as f64;
    Oocore {
        wall_px_s: pixels / wall,
        wall_ms: wall * 1e3,
        evictions: out.report.store.evictions,
        materialized_mb: out.report.store.bytes_materialized as f64 / (1 << 20) as f64,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // The head-to-head always runs at 256³ — the scale the ≥1.5× batched
    // speedup is asserted and trended at. Smoke trims repetitions and the
    // plume, not the workload shape.
    let (reps, plume_base, plume_image) = if smoke { (3, 64, 128) } else { (5, 512, 512) };
    let image = 512u32;

    println!("ray-march throughput — 256^3 resident brick, {image}^2 image, best of {reps}");
    let hh = head_to_head(256, image, reps);
    let speedup = hh.batched_px_s / hh.scalar_px_s;
    println!("  scalar : {:>8.3} Mpx/s", hh.scalar_px_s / 1e6);
    println!(
        "  batched: {:>8.3} Mpx/s  ({speedup:.2}x)  {:>8.1} Msamples/s  p50 {:.1} ms",
        hh.batched_px_s / 1e6,
        hh.samples_per_sec / 1e6,
        hh.p50_kernel_ms
    );
    println!("  bit-identity: OK ({} samples)", hh.total_samples);

    let plume_dims = Dataset::Plume.dims(plume_base);
    println!(
        "\nout-of-core plume — {}x{}x{} from disk, {plume_image}^2 image, 4 GPUs",
        plume_dims[0], plume_dims[1], plume_dims[2]
    );
    let oo = plume_out_of_core(plume_base, plume_image);
    println!(
        "  {:>8.3} Mpx/s wall ({:.0} ms), {} evictions, {:.1} MB materialized",
        oo.wall_px_s / 1e6,
        oo.wall_ms,
        oo.evictions,
        oo.materialized_mb
    );

    if smoke {
        JsonObject::new()
            .str("bench", "render_throughput")
            .int("image", image as u64)
            .int("volume", 256)
            // The gated metric: batched kernel frames over the full image.
            .num("frames_per_sec", hh.batched_px_s / hh.pixels)
            .num("pixels_per_sec", hh.batched_px_s)
            .num("pixels_per_sec_scalar", hh.scalar_px_s)
            .num("speedup_vs_scalar", speedup)
            .num("samples_per_sec", hh.samples_per_sec)
            .int("total_samples", hh.total_samples)
            .num("p50_kernel_ms", hh.p50_kernel_ms)
            .num("oocore_pixels_per_sec", oo.wall_px_s)
            .num("oocore_total_ms", oo.wall_ms)
            .int("oocore_evictions", oo.evictions)
            .write("BENCH_volren.json")
            .expect("write BENCH_volren.json");
    }
}
