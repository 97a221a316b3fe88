//! Shape assertions against the paper's claims, at test-friendly scale.
//! (The full-scale figures come from `mgpu-bench`'s `paper` CLI; these
//! tests pin the qualitative structure so a regression cannot slip in.)
//!
//! The sweep is computed **once** for the whole binary (the tests only read
//! it), and the largest GPU counts — the expensive points that exist to pin
//! the communication crossover — run in release builds only. Debug builds
//! keep the 1–8 GPU band, which is where every remaining debug assertion
//! lives; `cargo test --release` still checks the full curve.

use std::sync::OnceLock;

use gpumr::cluster::ClusterSpec;
use gpumr::voldata::Dataset;
use gpumr::volren::camera::Scene;
use gpumr::volren::renderer::{render, RenderReport};
use gpumr::volren::{RenderConfig, TransferFunction};

/// GPU counts under test: the full paper band in release, the cheap 1–8
/// prefix in debug (the 16/32-GPU points dominate debug wall-clock).
fn gpu_counts() -> &'static [u32] {
    if cfg!(debug_assertions) {
        &[1, 2, 4, 8]
    } else {
        &[1, 2, 4, 8, 16, 32]
    }
}

/// Render skull-128³ at the paper's 512² image across GPU counts — shared
/// across every test in this binary via a lazy static.
fn sweep() -> &'static [(u32, RenderReport)] {
    static SWEEP: OnceLock<Vec<(u32, RenderReport)>> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let volume = Dataset::Skull.volume(128);
        let scene = Scene::orbit(&volume, 30.0, 20.0, TransferFunction::bone());
        let cfg = RenderConfig::default(); // 512², the paper's image size
        gpu_counts()
            .iter()
            .map(|&gpus| {
                let spec = ClusterSpec::accelerator_cluster(gpus);
                (gpus, render(&spec, &volume, &scene, &cfg).report)
            })
            .collect()
    })
}

fn report_at(gpus: u32) -> &'static RenderReport {
    &sweep().iter().find(|(g, _)| *g == gpus).unwrap().1
}

#[test]
fn figure3_shapes_hold() {
    let reports = sweep();

    // 1. Map (kernel side) time shrinks monotonically with more GPUs.
    for w in reports.windows(2) {
        assert!(
            w[1].1.breakdown().map < w[0].1.breakdown().map,
            "map must shrink: {} GPUs {} vs {} GPUs {}",
            w[0].0,
            w[0].1.breakdown().map,
            w[1].0,
            w[1].1.breakdown().map
        );
    }

    // 2. Communication grows once the cluster spans nodes (8+ GPUs).
    //    The 16/32-GPU points are release-only.
    let part = |g: u32| report_at(g).breakdown().partition_io;
    if !cfg!(debug_assertions) {
        assert!(part(16) > part(8));
        assert!(part(32) > part(16));
    }

    // 3. The paper's crossover: a middling GPU count wins; 32 GPUs is worse
    //    ("with more than 8 GPUs, there is too much communication").
    let total = |g: u32| report_at(g).runtime();
    let best = gpu_counts()
        .iter()
        .copied()
        .min_by_key(|g| total(*g))
        .unwrap();
    assert!(
        best == 4 || best == 8,
        "best config must sit in the paper's 4–8 band, got {best}"
    );
    assert!(total(1) > total(best));
    if !cfg!(debug_assertions) {
        assert!(total(32) > total(best));
    }
}

#[test]
fn section63_comm_overtakes_compute() {
    if cfg!(debug_assertions) {
        // Needs the 32-GPU point, which only the release sweep renders.
        return;
    }
    let r8 = report_at(8);
    let r32 = report_at(32);
    let ratio8 = r8.accounting.communication_demand.as_secs_f64()
        / r8.accounting.computation_demand.as_secs_f64();
    let ratio32 = r32.accounting.communication_demand.as_secs_f64()
        / r32.accounting.computation_demand.as_secs_f64();
    // "As the number of GPUs grows large, the communication time for
    // fragments is the dominant part of the algorithm."
    assert!(
        ratio32 > ratio8,
        "comm/compute must grow: {ratio8} -> {ratio32}"
    );
    assert!(
        ratio32 > 1.0,
        "at 32 GPUs communication must dominate: {ratio32}"
    );
}

#[test]
fn more_gpus_more_fragments() {
    // §5/Figure 3 caption: "As more GPUs are added, more ray fragments
    // generated" (bricks scale with GPUs for small volumes).
    let frags: Vec<u64> = sweep().iter().map(|(_, r)| r.job.reduced_items).collect();
    assert!(frags.windows(2).all(|w| w[1] >= w[0]), "{frags:?}");
    assert!(
        frags.last().unwrap() > frags.first().unwrap(),
        "the largest GPU count must emit more fragments than 1"
    );
}

#[test]
fn footnote_paraview_comparison_shape() {
    // At test scale we check the *machinery*: VPS computed, baseline wired.
    let r8 = report_at(8);
    let pv = gpumr::volren::baseline::ParaViewClassBaseline::moreland_cray_xt3();
    assert!(r8.vps() > 0.0);
    assert!((pv.total_vps - 346e6).abs() < 1.0);
}
