//! The render service in action: two clients orbit two different datasets
//! concurrently, each queueing a dozen frames; the service renders each
//! volume's frames over one cached plan and its shared brick store, caches
//! repeated views, and reports queue/cache behaviour. Every delivered frame
//! is verified bit-identical to a direct `render` call. A final vignette
//! shows admission control shedding low-priority work from a full queue.
//!
//!     cargo run --release --example render_service

use gpumr::prelude::*;

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
    let skull_client = service.session(spec.clone(), skull.clone(), cfg.clone());
    let nova_client = service
        .session(spec.clone(), supernova.clone(), cfg.clone())
        .with_priority(Priority::Batch);

    // Two concurrent scenes, ≥8 queued frames each, interleaved arrivals.
    let mut tickets = Vec::new();
    for i in 0..frames_per_client {
        let az = i as f32 * (360.0 / frames_per_client as f32);
        tickets.push((
            "skull",
            az,
            skull_client.request_orbit(az, 20.0, TransferFunction::bone()),
        ));
        tickets.push((
            "supernova",
            az,
            nova_client.request_orbit(az, -15.0, TransferFunction::fire()),
        ));
    }
    println!(
        "queued {} frames across 2 sessions ({} each); releasing workers…\n",
        tickets.len(),
        frames_per_client
    );
    service.resume();

    // Redeem every ticket and verify against the blocking single-frame path.
    let mut verified = 0;
    for (label, az, ticket) in tickets {
        let frame = ticket.wait();
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
    let replay = skull_client
        .request_orbit(0.0, 20.0, TransferFunction::bone())
        .wait();
    assert!(replay.from_cache, "repeated view must come from the cache");
    println!("replayed skull az 0 from the frame cache (no render)");

    // A NEW wave of skull views: the plan cache already holds the skull's
    // plan — its warm brick store answers every staging.
    let wave: Vec<_> = (0..3)
        .map(|i| skull_client.request_orbit(7.0 + i as f32 * 11.0, 20.0, TransferFunction::bone()))
        .collect();
    for t in wave {
        assert!(!t.wait().from_cache, "new views render fresh");
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
    let sweep = bounded
        .session(
            ClusterSpec::accelerator_cluster(1),
            tiny,
            RenderConfig::test_size(16),
        )
        .with_priority(Priority::Batch);
    let mut admitted = Vec::new();
    let mut shed = 0;
    for i in 0..5 {
        let scene = Scene::orbit(
            sweep.volume(),
            i as f32 * 30.0,
            15.0,
            TransferFunction::bone(),
        );
        match sweep.try_request(scene) {
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
        t.wait();
    }
    let bounded_report = bounded.shutdown();
    println!(
        "admitted {} batch frames, shed {} at the bound",
        bounded_report.frames_submitted, bounded_report.admission_rejected
    );
}
