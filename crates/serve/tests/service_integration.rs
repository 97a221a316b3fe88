//! End-to-end tests of the render service: per-frame bit-equivalence with
//! direct renders, staging savings from plan reuse, cache behaviour, admission control, worker fault containment, sharding,
//! and clean shutdown semantics.

use mgpu_cluster::ClusterSpec;
use mgpu_serve::{
    BackendError, Priority, QueueBounds, RenderBackend, RenderService, SceneRequest, ServiceConfig,
    ShardedService,
};
use mgpu_voldata::Dataset;
use mgpu_volren::camera::Scene;
use mgpu_volren::renderer::render;
use mgpu_volren::{RenderConfig, TransferFunction};

fn scene_for(volume: &mgpu_voldata::Volume, azimuth: f32) -> Scene {
    Scene::orbit(volume, azimuth, 20.0, TransferFunction::bone())
}

/// The acceptance scenario: two concurrent sessions, ≥8 queued frames each,
/// every service frame bit-identical to a direct `render` call.
#[test]
fn two_sessions_eight_frames_each_match_direct_renders() {
    let service = RenderService::start(ServiceConfig {
        workers: 2,
        cache_frames: 32,
        ..ServiceConfig::default()
    });
    let spec = ClusterSpec::accelerator_cluster(2);
    let cfg = RenderConfig::test_size(32);
    let skull = Dataset::Skull.volume(16);
    let supernova = Dataset::Supernova.volume(16);

    let s1 = service.session(spec.clone(), skull.clone(), cfg.clone());
    let s2 = service.session(spec.clone(), supernova.clone(), cfg.clone());

    let azimuths: Vec<f32> = (0..8).map(|i| i as f32 * 36.0).collect();
    let t1: Vec<_> = azimuths
        .iter()
        .map(|az| s1.request(scene_for(&skull, *az)))
        .collect();
    let t2: Vec<_> = azimuths
        .iter()
        .map(|az| s2.request(scene_for(&supernova, *az)))
        .collect();
    assert_eq!(s1.frames_submitted(), 8);
    assert_eq!(s2.frames_submitted(), 8);

    for (az, ticket) in azimuths.iter().zip(t1) {
        let frame = ticket.wait();
        let direct = render(&spec, &skull, &scene_for(&skull, *az), &cfg);
        assert_eq!(*frame.image, direct.image, "skull az {az}");
    }
    for (az, ticket) in azimuths.iter().zip(t2) {
        let frame = ticket.wait();
        let direct = render(&spec, &supernova, &scene_for(&supernova, *az), &cfg);
        assert_eq!(*frame.image, direct.image, "supernova az {az}");
    }

    let report = service.shutdown();
    assert_eq!(report.frames_submitted, 16);
    assert_eq!(report.frames_completed, 16);
    assert_eq!(report.frames_rendered + report.cache_hits, 16);
    assert_eq!(report.frames_failed, 0);
}

/// A paused same-key burst renders over one cached plan: each brick is
/// staged once for the whole burst. With the plan cache off, every frame
/// prepares its own plan and pays the full staging cost.
#[test]
fn plan_cache_stages_each_brick_once_per_burst() {
    let frames = 6;
    let run = |plan_cache_plans: usize| {
        let service = RenderService::start(ServiceConfig {
            workers: 1,
            cache_frames: 0, // isolate plan reuse from frame caching
            plan_cache_plans,
            start_paused: true,
            ..ServiceConfig::default()
        });
        let spec = ClusterSpec::accelerator_cluster(2);
        let cfg = RenderConfig::test_size(32);
        let volume = Dataset::Skull.volume(16);
        let session = service.session(spec, volume.clone(), cfg);
        let tickets: Vec<_> = (0..frames)
            .map(|i| session.request(scene_for(&volume, i as f32 * 30.0)))
            .collect();
        service.resume();
        let bricks = tickets
            .into_iter()
            .map(|t| {
                t.wait()
                    .report
                    .expect("local frame carries the report")
                    .bricks as u64
            })
            .max()
            .unwrap();
        (service.shutdown(), bricks)
    };

    let (warm, bricks) = run(8);
    let (cold, _) = run(0);

    // One plan for the burst: every brick staged exactly once.
    assert_eq!(warm.frames_rendered, frames as u64);
    assert_eq!(
        (warm.plan_cache.misses, warm.plan_cache.hits),
        (1, frames as u64 - 1)
    );
    assert_eq!(warm.brick_stagings, bricks);

    // No plan cache: one plan per frame, full staging cost each time.
    assert_eq!(cold.frames_rendered, frames as u64);
    assert_eq!(cold.brick_stagings, bricks * frames as u64);
}

/// With the plan cache on, *separate* waves of the same (cluster, volume,
/// config) reuse one plan and its warm brick store — every brick is staged
/// exactly once across all waves, not once per wave. With the cache off,
/// every frame re-stages.
#[test]
fn plan_cache_reuses_staging_across_batches() {
    let waves = 3;
    let frames_per_wave = 2;
    let run = |plan_cache_plans: usize| {
        let service = RenderService::start(ServiceConfig {
            workers: 1,
            cache_frames: 0, // isolate plan reuse from frame caching
            plan_cache_plans,
            ..ServiceConfig::default()
        });
        let spec = ClusterSpec::accelerator_cluster(2);
        let cfg = RenderConfig::test_size(32);
        let volume = Dataset::Skull.volume(16);
        let session = service.session(spec.clone(), volume.clone(), cfg.clone());
        let mut bricks = 0u64;
        let mut az = 0.0f32;
        // Waiting out each wave empties the queue before the next starts.
        for _ in 0..waves {
            let tickets: Vec<_> = (0..frames_per_wave)
                .map(|_| {
                    az += 25.0;
                    session.request(scene_for(&volume, az))
                })
                .collect();
            for (t, a) in tickets.into_iter().zip([az - 50.0, az - 25.0]) {
                let frame = t.wait();
                bricks = bricks.max(frame.report.as_ref().expect("local report").bricks as u64);
                let direct = render(&spec, &volume, &scene_for(&volume, a + 25.0), &cfg);
                assert_eq!(
                    *frame.image, direct.image,
                    "plan reuse must not change pixels"
                );
            }
        }
        (service.shutdown(), bricks)
    };

    let (warm, bricks) = run(8);
    let (cold, _) = run(0);

    let frames = (waves * frames_per_wave) as u64;
    assert_eq!(warm.frames_rendered, frames);
    // Warm: only the first frame stages bricks; all later frames reuse the
    // warm store, so total stagings never exceed the brick count.
    assert!(
        warm.brick_stagings <= bricks,
        "warm stagings {} must not exceed the brick count {bricks}",
        warm.brick_stagings
    );
    assert_eq!(warm.plan_cache.misses, 1, "one cold plan build");
    assert_eq!(
        warm.plan_cache.hits,
        frames - 1,
        "later frames must hit the plan cache"
    );
    assert!(warm.plan_cache_hit_rate() > 0.0);

    // Cold: every frame rebuilds the plan and re-stages its bricks.
    assert_eq!(cold.plan_cache.hits, 0);
    assert!(
        cold.brick_stagings > bricks,
        "every cold frame re-stages: {} stagings for {bricks} bricks",
        cold.brick_stagings
    );
    assert!(
        warm.brick_stagings < cold.brick_stagings,
        "plan reuse across waves must cut stagings: {} vs {}",
        warm.brick_stagings,
        cold.brick_stagings
    );
    assert!(
        warm.brick_reuses > cold.brick_reuses,
        "warm stores must answer more brick fetches: {} vs {}",
        warm.brick_reuses,
        cold.brick_reuses
    );
}

/// Repeated views hit the frame cache and share the rendered allocation.
#[test]
fn repeated_view_hits_the_cache() {
    let service = RenderService::start(ServiceConfig::default());
    let spec = ClusterSpec::accelerator_cluster(1);
    let cfg = RenderConfig::test_size(24);
    let volume = Dataset::Plume.volume(8);
    let session = service.session(spec, volume.clone(), cfg);

    let scene = Scene::orbit(&volume, 45.0, 10.0, TransferFunction::smoke());
    let first = session.request(scene.clone()).wait();
    assert!(!first.from_cache);
    let second = session.request(scene.clone()).wait();
    assert!(second.from_cache, "identical request must hit the cache");
    assert_eq!(first.image, second.image);

    // A different view renders fresh.
    let third = session
        .request(Scene::orbit(&volume, 46.0, 10.0, TransferFunction::smoke()))
        .wait();
    assert!(!third.from_cache);

    let report = service.shutdown();
    assert_eq!(report.cache_hits, 1);
    assert_eq!(report.frames_rendered, 2);
    assert!((report.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
}

/// Interactive requests overtake queued batch work. Pop order is observed
/// through the cache: both jobs request the SAME scene, so whichever the
/// single worker renders first populates the cache and the other coalesces
/// onto it — the interactive frame must be the rendered one even though the
/// batch job was submitted first.
#[test]
fn interactive_requests_overtake_batch_work() {
    let service = RenderService::start(ServiceConfig {
        workers: 1,
        cache_frames: 4,
        start_paused: true,
        ..ServiceConfig::default()
    });
    let spec = ClusterSpec::accelerator_cluster(1);
    let cfg = RenderConfig::test_size(16);
    let volume = Dataset::Skull.volume(8);
    let session = service.session(spec, volume.clone(), cfg);

    let scene = scene_for(&volume, 10.0);
    let batch_ticket = session.request_with_priority(scene.clone(), Priority::Batch);
    let interactive_ticket = session.request_with_priority(scene, Priority::Interactive);
    service.resume();

    let b = batch_ticket.wait();
    let i = interactive_ticket.wait();
    assert!(
        !i.from_cache,
        "the interactive job must have been popped (and rendered) first"
    );
    assert!(
        b.from_cache,
        "the earlier-submitted batch job must have coalesced onto the \
         interactive render"
    );
    assert_eq!(*b.image, *i.image);
    let report = service.shutdown();
    assert_eq!(report.frames_completed, 2);
    assert_eq!(report.frames_rendered, 1);
    // The coalesced batch job still counts toward queue-wait accounting.
    assert_eq!(report.jobs_popped, 2);
}

/// A panic inside the render (here: a degenerate 0×0 image config) fails
/// only the affected job — with an explicit error, not a dropped channel —
/// and the worker thread survives to render subsequent frames.
#[test]
fn render_panic_fails_the_job_but_not_the_worker() {
    let service = RenderService::start(ServiceConfig {
        workers: 1, // a single worker: if it died, nothing would render
        cache_frames: 8,
        ..ServiceConfig::default()
    });
    let spec = ClusterSpec::accelerator_cluster(1);
    let volume = Dataset::Skull.volume(8);

    let poisoned = service
        .submit(SceneRequest {
            spec: spec.clone(),
            volume: volume.clone(),
            scene: scene_for(&volume, 0.0),
            config: RenderConfig::test_size(0), // 0×0 image: render panics
            priority: Priority::Normal,
        })
        .wait_result();
    let err = poisoned.expect_err("degenerate config must fail the job");
    assert!(
        err.message().contains("degenerate image"),
        "error must carry the panic message, got: {err}"
    );

    // The same worker must still be alive and rendering.
    let cfg = RenderConfig::test_size(16);
    let frame = service
        .submit(SceneRequest {
            spec: spec.clone(),
            volume: volume.clone(),
            scene: scene_for(&volume, 30.0),
            config: cfg.clone(),
            priority: Priority::Normal,
        })
        .wait_result()
        .expect("worker survived the poisoned job");
    let direct = render(&spec, &volume, &scene_for(&volume, 30.0), &cfg);
    assert_eq!(*frame.image, direct.image);

    let report = service.shutdown();
    assert_eq!(report.frames_failed, 1);
    assert_eq!(report.frames_rendered, 1);
}

/// `FrameTicket::wait` (the panicking form) reports the explicit render
/// failure, not a misleading channel disconnect.
#[test]
#[should_panic(expected = "render service job failed")]
fn wait_panics_with_the_explicit_failure() {
    let service = RenderService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let spec = ClusterSpec::accelerator_cluster(1);
    let volume = Dataset::Skull.volume(8);
    let ticket = service.submit(SceneRequest {
        spec,
        scene: scene_for(&volume, 0.0),
        volume,
        config: RenderConfig::test_size(0),
        priority: Priority::Normal,
    });
    let _ = ticket.wait();
}

/// Two in-memory volumes with identical metadata but different voxels must
/// not alias in the frame cache or share a plan (the `content`
/// fingerprint regression).
#[test]
fn same_meta_volumes_with_different_voxels_do_not_alias() {
    let service = RenderService::start(ServiceConfig {
        workers: 1,
        cache_frames: 16,
        ..ServiceConfig::default()
    });
    let spec = ClusterSpec::accelerator_cluster(1);
    let cfg = RenderConfig::test_size(24);
    let dims = [8u32, 8, 8];
    let lo = mgpu_voldata::Volume::in_memory("twin", dims, vec![0.1; 512]);
    let hi = mgpu_voldata::Volume::in_memory("twin", dims, vec![0.9; 512]);
    assert_eq!(lo.meta.name, hi.meta.name);
    assert_eq!(lo.meta.dims, hi.meta.dims);

    let submit = |volume: &mgpu_voldata::Volume| {
        service
            .submit(SceneRequest {
                spec: spec.clone(),
                volume: volume.clone(),
                scene: Scene::orbit(volume, 15.0, 10.0, TransferFunction::bone()),
                config: cfg.clone(),
                priority: Priority::Normal,
            })
            .wait()
    };
    let first = submit(&lo);
    let second = submit(&hi);
    assert!(
        !second.from_cache,
        "same-meta volume with different voxels must not hit the cache"
    );
    // Each frame matches ITS OWN volume's direct render.
    for (volume, frame) in [(&lo, &first), (&hi, &second)] {
        let scene = Scene::orbit(volume, 15.0, 10.0, TransferFunction::bone());
        let direct = render(&spec, volume, &scene, &cfg);
        assert_eq!(*frame.image, direct.image);
    }
    let report = service.shutdown();
    assert_eq!(report.frames_rendered, 2);
    assert_eq!(report.cache_hits, 0);
}

/// Under a full queue, `try_submit` sheds `Batch` first, `Normal` next and
/// `Interactive` last, with descriptive errors; accepted work still renders.
#[test]
fn admission_control_sheds_lowest_priority_first() {
    let service = RenderService::start(ServiceConfig {
        workers: 1,
        cache_frames: 0,
        queue_bounds: QueueBounds {
            batch: 1,
            normal: 2,
            interactive: 3,
        },
        start_paused: true, // depth only grows until we resume
        ..ServiceConfig::default()
    });
    let spec = ClusterSpec::accelerator_cluster(1);
    let cfg = RenderConfig::test_size(16);
    let volume = Dataset::Skull.volume(8);
    let session = service.session(spec, volume.clone(), cfg);

    let mut az = 0.0f32;
    let mut req = |priority| {
        az += 20.0;
        session.try_request_with_priority(scene_for(&volume, az), priority)
    };

    let t_batch = req(Priority::Batch).expect("first batch job admitted");
    let shed = match req(Priority::Batch) {
        Err(BackendError::Admission(err)) => err,
        Ok(_) => panic!("batch bound should shed"),
        Err(other) => panic!("expected admission shedding, got {other}"),
    };
    assert_eq!((shed.queued, shed.limit), (1, 1));
    assert_eq!(shed.priority, Priority::Batch);
    assert!(shed.to_string().contains("queue full"));

    let t_normal = req(Priority::Normal).expect("normal still admitted");
    assert!(req(Priority::Normal).is_err(), "normal bound reached");
    let t_inter = req(Priority::Interactive).expect("interactive admitted last");
    assert!(req(Priority::Interactive).is_err(), "queue entirely full");

    assert_eq!(service.queue_depths(), [1, 1, 1]);
    service.resume();
    for t in [t_batch, t_normal, t_inter] {
        t.wait();
    }
    let report = service.shutdown();
    assert_eq!(report.admission_rejected, 3);
    assert_eq!(report.frames_rendered, 3);
    assert_eq!(
        report.frames_submitted, 3,
        "shed frames are not submissions"
    );
}

// (A session can no longer outlive its service at all: `SceneSession`
// borrows the backend, so submitting through a session after `shutdown`
// consumed the service is now a compile error rather than the runtime
// panic the pre-`RenderBackend` API produced.)

/// Shutdown drains every queued job; all tickets resolve.
#[test]
fn shutdown_resolves_all_pending_tickets() {
    let service = RenderService::start(ServiceConfig {
        workers: 1,
        cache_frames: 4,
        start_paused: true, // jobs pile up before any worker runs
        ..ServiceConfig::default()
    });
    let spec = ClusterSpec::accelerator_cluster(1);
    let cfg = RenderConfig::test_size(16);
    let volume = Dataset::Skull.volume(8);
    // Raw (non-borrowing) tickets: shutdown must resolve them even though
    // they are redeemed only afterwards.
    let tickets: Vec<_> = (0..5)
        .map(|i| {
            service.submit(SceneRequest {
                spec: spec.clone(),
                volume: volume.clone(),
                scene: scene_for(&volume, i as f32 * 20.0),
                config: cfg.clone(),
                priority: Priority::Normal,
            })
        })
        .collect();
    assert_eq!(service.queue_len(), 5);
    // Shutdown (queue close) drains even a paused queue.
    let report = service.shutdown();
    assert_eq!(report.frames_completed, 5);
    for t in tickets {
        let _ = t.wait(); // already resolved
    }
}

/// Direct submit (no session) with an explicit request.
#[test]
fn raw_submit_roundtrip() {
    let service = RenderService::start(ServiceConfig::default());
    let spec = ClusterSpec::accelerator_cluster(1);
    let cfg = RenderConfig::test_size(16);
    let volume = Dataset::Skull.volume(8);
    let scene = scene_for(&volume, 0.0);
    let frame = service
        .submit(SceneRequest {
            spec: spec.clone(),
            volume: volume.clone(),
            scene: scene.clone(),
            config: cfg.clone(),
            priority: Priority::Normal,
        })
        .wait();
    let direct = render(&spec, &volume, &scene, &cfg);
    assert_eq!(*frame.image, direct.image);
    assert_eq!(frame.report.job, direct.report.job);
}

/// The shard router: sessions for distinct volumes land on their rendezvous
/// shard, frames stay bit-identical to direct renders, and one volume's
/// frames never spread across shards (its plan cache stays warm).
#[test]
fn sharded_service_routes_by_volume_and_stays_bit_identical() {
    let sharded = ShardedService::start(
        2,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let spec = ClusterSpec::accelerator_cluster(2);
    let cfg = RenderConfig::test_size(24);
    // A handful of distinct volumes: with rendezvous routing some land on
    // each shard (16 keys on 2 shards — all on one side is 2^-15).
    let volumes: Vec<_> = (0..16)
        .map(|i| {
            mgpu_voldata::Volume::in_memory(
                format!("shard-vol-{i}"),
                [8, 8, 8],
                vec![0.05 * (i + 1) as f32; 512],
            )
        })
        .collect();

    let mut tickets = Vec::new();
    for volume in &volumes {
        let session = sharded.session(spec.clone(), volume.clone(), cfg.clone());
        tickets.push((volume, session.request(scene_for(volume, 40.0))));
    }
    for (volume, ticket) in tickets {
        let frame = ticket.wait();
        let direct = render(&spec, volume, &scene_for(volume, 40.0), &cfg);
        assert_eq!(*frame.image, direct.image, "{}", volume.meta.name);
    }

    let per_shard: Vec<_> = (0..sharded.shard_count())
        .map(|i| sharded.shard(i).report())
        .collect();
    assert_eq!(per_shard.len(), 2);
    assert!(
        per_shard.iter().all(|r| r.frames_rendered > 0),
        "16 volumes must spread over both shards: {:?}",
        per_shard
            .iter()
            .map(|r| r.frames_rendered)
            .collect::<Vec<_>>()
    );
    let merged = sharded.shutdown();
    assert_eq!(merged.frames_completed, 16);
    assert_eq!(merged.frames_rendered, 16);
}
