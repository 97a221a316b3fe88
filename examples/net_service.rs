//! The render service on the wire, driven through the same `RenderBackend`
//! trait as the in-process services: a [`RenderServer`] (2 shards,
//! per-session rate limiting) serves two [`RemoteBackend`] clients over
//! localhost — one orbiting the skull, one the supernova — plus a repeated
//! view that comes back from the frame cache without a render. Every
//! delivered frame is verified bit-identical to a direct `render` call; the
//! `STATS` round-trip shows the per-shard heat the routing produced; a
//! final vignette shows the token bucket throttling a client that submits
//! faster than its budget (visible through a [`NodePool`] with the default
//! budget, whose 5 s single wait is shorter than the retry-after —
//! `RemoteBackend` would politely sleep the throttle out).
//!
//!     cargo run --release --example net_service

use gpumr::prelude::*;
use gpumr::voldata::Volume;

fn main() {
    let server = RenderServer::start(ServerConfig {
        shards: 2,
        service: ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        // Generous per-session budget: the demo clients stay under it.
        rate_limit: Some(RateLimitConfig::new(200.0, 64)),
        ..ServerConfig::default()
    })
    .expect("bind a loopback port");
    println!("render server listening on {} (2 shards)\n", server.addr());

    let cfg = RenderConfig::test_size(64);
    let frames_per_client = 8;

    // Two backends = two connections (sessions), each a one-node NodePool;
    // the SAME calls would run over a local RenderService — that is the
    // point of the trait. Explicit timeouts: a dead node fails the call
    // instead of hanging it.
    let client_cfg = ClientConfig {
        connect_timeout: Some(std::time::Duration::from_secs(5)),
        read_timeout: Some(std::time::Duration::from_secs(120)),
        ..ClientConfig::default()
    };
    let skull_backend =
        RemoteBackend::connect_with(server.addr(), client_cfg).expect("connect skull client");
    let nova_backend =
        RemoteBackend::connect_with(server.addr(), client_cfg).expect("connect nova client");
    // A one-node pool's only node is node 0.
    let node = &skull_backend.node_stats()[0];
    println!(
        "clients connected (server reports {} shards)\n",
        node.as_ref().expect("stats over the socket").shards().len()
    );

    let skull = Dataset::Skull.volume(32);
    let nova = Dataset::Supernova.volume(32);
    // Distinct (volume, cluster) keys that rendezvous-route to distinct
    // shards (routing is deterministic, so this split is stable).
    let orbit = |gpus: u32, volume: &Volume, az: f32, transfer: TransferFunction| SceneRequest {
        spec: ClusterSpec::accelerator_cluster(gpus),
        volume: volume.clone(),
        scene: Scene::orbit(volume, az, 20.0, transfer),
        config: cfg.clone(),
        priority: Priority::Normal,
    };

    let mut rendered = 0u32;
    let mut cache_hits = 0u32;
    for i in 0..frames_per_client {
        let az = i as f32 * (360.0 / frames_per_client as f32);
        for (backend, volume, gpus, transfer) in [
            (&skull_backend, &skull, 4, TransferFunction::bone()),
            (&nova_backend, &nova, 1, TransferFunction::fire()),
        ] {
            let frame = backend
                .render(orbit(gpus, volume, az, transfer.clone()))
                .expect("render over the socket");

            // The ground truth, built locally without the wire types.
            let spec = ClusterSpec::accelerator_cluster(gpus);
            let scene = Scene::orbit(volume, az, 20.0, transfer);
            let direct = gpumr::volren::render(&spec, volume, &scene, &cfg);
            assert_eq!(
                *frame.image, direct.image,
                "socket frame must be bit-identical to a direct render"
            );
            rendered += 1;
            cache_hits += frame.from_cache as u32;
        }
    }
    println!("{rendered} frames fetched over TCP, all bit-identical to direct renders");

    // The same view again: answered from the frame cache, no render.
    let frame = skull_backend
        .render(orbit(4, &skull, 0.0, TransferFunction::bone()))
        .expect("repeat view");
    assert!(frame.from_cache, "repeated view must hit the frame cache");
    assert_eq!(frame.sim_frame, std::time::Duration::ZERO);
    println!("repeated view served from the frame cache (no render, sim time zero)\n");
    cache_hits += 1;

    // Trait-level accounting plus the wire-only heat view.
    let merged = skull_backend.report().expect("report over the socket");
    assert_eq!(merged.frames_completed, (rendered + 1) as u64);
    assert_eq!(merged.cache_hits, cache_hits as u64);
    let stats = nova_backend.node_stats().remove(0);
    let stats = stats.expect("stats over the socket");
    println!("server stats as seen over the wire:\n{stats}\n");
    assert!(
        stats.shards().iter().all(|h| h.frames_completed > 0),
        "both shards served traffic"
    );

    let last_seen = RenderBackend::shutdown(skull_backend);
    assert_eq!(last_seen.frames_completed, (rendered + 1) as u64);
    let report = server.shutdown();
    println!(
        "main server drained: {} frames completed, {:.1} frames/s wall\n",
        report.frames_completed,
        report.frames_per_sec()
    );

    // Rate-limit vignette: 2 frames of budget, then typed throttling with
    // an exact retry-after. A token every 10 s is a retry-after longer than
    // the default pool's 5 s single wait, so the throttle surfaces at once.
    // (RemoteBackend would sleep the retry_after out instead.)
    let throttled_server = RenderServer::start(ServerConfig {
        shards: 1,
        rate_limit: Some(RateLimitConfig::new(0.1, 2)),
        ..ServerConfig::default()
    })
    .expect("bind throttle demo server");
    let hasty = NodePool::try_new(vec![throttled_server.addr()], NodePoolConfig::default())
        .expect("one-node pool");
    let tiny_volume = Dataset::Skull.volume(16);
    let tiny = |az: f32| SceneRequest {
        spec: ClusterSpec::accelerator_cluster(1),
        scene: Scene::orbit(&tiny_volume, az, 0.0, TransferFunction::bone()),
        volume: tiny_volume.clone(),
        config: RenderConfig::test_size(32),
        priority: Priority::Normal,
    };
    let mut throttled = 0;
    for i in 0..4 {
        match hasty.render(tiny(i as f32 * 10.0)) {
            Ok(_) => println!("hasty client: frame {i} admitted"),
            Err(BackendError::Throttled { retry_after }) => {
                throttled += 1;
                println!(
                    "hasty client: frame {i} throttled, retry in {:.1} s",
                    retry_after.as_secs_f64()
                );
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(throttled, 2, "burst of 2, then the token bucket says no");
    let report = throttled_server.shutdown();
    assert_eq!(report.frames_completed, 2, "the burst of 2 was admitted");
    println!(
        "\nthrottle demo: {} admitted, {} throttled at the door (never queued)",
        report.frames_completed, throttled
    );
}
