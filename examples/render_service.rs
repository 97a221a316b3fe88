//! The render service in action: two clients orbit two different datasets
//! concurrently, each queueing a dozen frames; the service renders each
//! volume's frames over one cached plan and its shared brick store, caches
//! repeated views, and reports queue/cache behaviour. Every delivered frame
//! is verified bit-identical to a direct `render` call. A final vignette
//! shows admission control shedding low-priority work from a full queue.
//!
//!     cargo run --release --example render_service

use gpumr::prelude::*;
use gpumr::voldata::Volume;

/// One frame of `volume`, orbited at (`azimuth`, `elevation`) degrees.
fn orbit(
    spec: &ClusterSpec,
    volume: &Volume,
    config: &RenderConfig,
    (azimuth, elevation): (f32, f32),
    transfer: TransferFunction,
    priority: Priority,
) -> SceneRequest {
    SceneRequest {
        spec: spec.clone(),
        volume: volume.clone(),
        scene: Scene::orbit(volume, azimuth, elevation, transfer),
        config: config.clone(),
        priority,
    }
}

fn main() {
    let spec = ClusterSpec::accelerator_cluster(4);
    let cfg = RenderConfig::test_size(128);
    let skull = Dataset::Skull.volume(32);
    let supernova = Dataset::Supernova.volume(32);
    let frames_per_client = 12;

    let service = RenderService::start(ServiceConfig {
        workers: 2,
        cache_frames: 64,
        start_paused: true, // queue everything first, then release the workers
        ..ServiceConfig::default()
    });
    // The skull client's frames at `Normal` priority; the supernova
    // client's are a `Batch` sweep.
    let skull_at = |az: f32| {
        let bone = TransferFunction::bone();
        orbit(&spec, &skull, &cfg, (az, 20.0), bone, Priority::Normal)
    };
    let nova_at = |az: f32| {
        let fire = TransferFunction::fire();
        orbit(&spec, &supernova, &cfg, (az, -15.0), fire, Priority::Batch)
    };
    let submit = |request| service.submit(request).expect("blocking submit");

    // Two concurrent scenes, ≥8 queued frames each, interleaved arrivals.
    let mut tickets = Vec::new();
    for i in 0..frames_per_client {
        let az = i as f32 * (360.0 / frames_per_client as f32);
        tickets.push(("skull", az, submit(skull_at(az))));
        tickets.push(("supernova", az, submit(nova_at(az))));
    }
    println!(
        "queued {} frames across 2 clients ({} each); releasing workers…\n",
        tickets.len(),
        frames_per_client
    );
    service.resume();

    // Redeem every ticket and verify against the blocking single-frame path.
    let mut verified = 0;
    for (label, az, ticket) in tickets {
        let frame = service.redeem(ticket).expect("redeem");
        let (volume, transfer, elevation) = match label {
            "skull" => (&skull, TransferFunction::bone(), 20.0),
            _ => (&supernova, TransferFunction::fire(), -15.0),
        };
        let scene = Scene::orbit(volume, az, elevation, transfer);
        let direct = render(&spec, volume, &scene, &cfg);
        assert_eq!(
            *frame.image, direct.image,
            "{label} az {az}: service frame must be bit-identical to direct render"
        );
        verified += 1;
    }
    println!("verified {verified}/{verified} frames bit-identical to direct renders");

    // Repeat a view: the frame cache answers without rendering.
    let replay = service.render(skull_at(0.0)).expect("replay");
    assert!(replay.from_cache, "repeated view must come from the cache");
    println!("replayed skull az 0 from the frame cache (no render)");

    // A NEW wave of skull views: the plan cache already holds the skull's
    // plan — its warm brick store answers every staging.
    let wave: Vec<_> = (0..3)
        .map(|i| submit(skull_at(7.0 + i as f32 * 11.0)))
        .collect();
    for t in wave {
        let frame = service.redeem(t).expect("redeem");
        assert!(!frame.from_cache, "new views render fresh");
    }
    let plans = service.plan_snapshot();
    assert!(plans.hits > 0, "the new wave must reuse a cached plan");
    println!(
        "second skull wave reused the cached plan ({} plan-cache hits)\n",
        plans.hits
    );

    let report = service.shutdown();
    println!("service report:\n{report}");

    // Plan-cache effect: each brick staged once per cached plan, not once
    // per frame.
    let saved = report.brick_reuses;
    println!(
        "\nbrick sharing: {} stagings paid, {} avoided by shared stores",
        report.brick_stagings, saved
    );
    assert!(saved > 0, "shared stores should have been reused");

    // Admission control: a paused service with a 2-deep queue bound for
    // Batch (4 for Normal, 6 for Interactive) sheds the sweep's overflow
    // instead of queueing without limit.
    let bounded = RenderService::start(ServiceConfig {
        workers: 1,
        queue_bounds: QueueBounds {
            batch: 2,
            normal: 4,
            interactive: 6,
        },
        start_paused: true,
        ..ServiceConfig::default()
    });
    let tiny = Dataset::Skull.volume(8);
    let tiny_spec = ClusterSpec::accelerator_cluster(1);
    let tiny_cfg = RenderConfig::test_size(16);
    let mut admitted = Vec::new();
    let mut shed = 0;
    for i in 0..5 {
        let view = (i as f32 * 30.0, 15.0);
        let bone = TransferFunction::bone();
        let request = orbit(&tiny_spec, &tiny, &tiny_cfg, view, bone, Priority::Batch);
        match bounded.try_submit(request) {
            Ok(t) => admitted.push(t),
            Err(err) => {
                shed += 1;
                if shed == 1 {
                    println!("\nadmission control: {err}");
                }
            }
        }
    }
    assert_eq!((admitted.len(), shed), (2, 3), "batch bound is 2");
    bounded.resume();
    for t in admitted {
        bounded.redeem(t).expect("redeem");
    }
    let bounded_report = bounded.shutdown();
    println!(
        "admitted {} batch frames, shed {} at the bound",
        bounded_report.frames_submitted, bounded_report.admission_rejected
    );
}
