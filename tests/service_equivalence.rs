//! Facade-level checks of the in-process service that go beyond the
//! four-backend harness in `backend_equivalence.rs`: cross-wave plan-cache
//! reuse under sharding must not change a single pixel. Everything here is
//! written against the `RenderBackend` trait.

use gpumr::prelude::*;

/// Plan-cache reuse across separate waves must not change a single pixel,
/// and the sharded front-end must agree with direct renders throughout.
#[test]
fn sharded_and_plan_cached_frames_equal_direct_renders() {
    let sharded = ShardedService::start(
        2,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let spec = ClusterSpec::accelerator_cluster(2);
    let cfg = RenderConfig::test_size(24);
    let skull = Dataset::Skull.volume(16);
    let plume = Dataset::Plume.volume(8);

    // Two waves: the second reuses whatever plans the first warmed.
    for wave in 0..2 {
        let scenes: Vec<(Scene, &gpumr::voldata::Volume)> = (0..3)
            .flat_map(|i| {
                let az = (wave * 3 + i) as f32 * 40.0;
                [
                    (
                        Scene::orbit(&skull, az, 20.0, TransferFunction::bone()),
                        &skull,
                    ),
                    (
                        Scene::orbit(&plume, az, 5.0, TransferFunction::smoke()),
                        &plume,
                    ),
                ]
            })
            .collect();
        let tickets: Vec<_> = scenes
            .iter()
            .map(|(scene, volume)| {
                let request = SceneRequest {
                    spec: spec.clone(),
                    volume: (*volume).clone(),
                    scene: scene.clone(),
                    config: cfg.clone(),
                    priority: Priority::Normal,
                };
                sharded.submit(request).expect("blocking submit")
            })
            .collect();
        for ((scene, volume), ticket) in scenes.iter().zip(tickets) {
            let frame = sharded.redeem(ticket).expect("redeem");
            let direct = render(&spec, volume, scene, &cfg);
            assert_eq!(
                *frame.image, direct.image,
                "wave {wave}: sharded + plan-cached frame must stay bit-identical"
            );
        }
    }
    let report = sharded.shutdown();
    assert_eq!(report.frames_completed, 12);
    assert_eq!(report.frames_failed, 0);
}

/// The trait's synchronous `render` agrees with the ticketed path and the
/// service accounting, through the facade prelude alone.
#[test]
fn trait_render_matches_ticketed_session_requests() {
    let service = RenderService::start(ServiceConfig::default());
    let spec = ClusterSpec::accelerator_cluster(2);
    let cfg = RenderConfig::test_size(24);
    let volume = Dataset::Supernova.volume(16);

    let scene = Scene::orbit(&volume, 85.0, -10.0, TransferFunction::fire());
    let request = SceneRequest {
        spec: spec.clone(),
        volume: volume.clone(),
        scene: scene.clone(),
        config: cfg.clone(),
        priority: Priority::Normal,
    };
    let via_render = service.render(request.clone()).expect("trait render");

    let ticket = service.submit(request).expect("blocking submit");
    let via_ticket = service.redeem(ticket).expect("redeem");
    assert_eq!(via_ticket.image, via_render.image, "same allocation reused");
    assert!(
        via_ticket.from_cache,
        "second identical view hits the cache"
    );

    let direct = render(&spec, &volume, &scene, &cfg);
    assert_eq!(*via_render.image, direct.image);

    let report: ServiceReport = service.shutdown();
    assert_eq!(report.frames_completed, 2);
    assert_eq!(report.frames_rendered, 1);
    assert_eq!(report.cache_hits, 1);
    assert_eq!(report.frames_failed, 0);
}
