//! End-to-end proof of the wire protocol's headline guarantee: a frame
//! requested through a one-node [`NodePool`] over a real localhost socket —
//! through the per-session rate limiter and a ≥2-shard server — is
//! **bit-identical** to a direct `mgpu_volren::render` call whose inputs
//! are constructed independently on the client side. Also locks the
//! fire-and-forget submit/redeem path, the cache provenance flag, the
//! `STATS` round-trip and the typed error round-trips (throttle,
//! admission, render failure).

use std::time::Duration;

use gpumr::net::{TransferSpec, VolumeSpec};
use gpumr::prelude::*;
use gpumr::voldata::Volume;
use gpumr::volren::transfer::ControlPoint;

fn test_server(shards: usize, rate: Option<RateLimitConfig>) -> RenderServer {
    RenderServer::start(ServerConfig {
        shards,
        service: ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        rate_limit: rate,
        ..ServerConfig::default()
    })
    .expect("bind loopback server")
}

/// `server` as a pool of one with the pool's default budget: a throttle
/// longer than its 5 s single wait surfaces at once instead of being
/// slept out.
fn one_node(server: &RenderServer) -> NodePool {
    NodePool::try_new(vec![server.addr()], NodePoolConfig::default()).expect("one-node pool")
}

/// The request `orbit_dataset` describes, built in-process.
fn orbit(
    dataset: Dataset,
    base: u32,
    gpus: u32,
    azimuth: f32,
    elevation: f32,
    transfer: TransferFunction,
    config: &RenderConfig,
) -> SceneRequest {
    let volume = dataset.volume(base);
    SceneRequest {
        spec: ClusterSpec::accelerator_cluster(gpus),
        scene: Scene::orbit(&volume, azimuth, elevation, transfer),
        volume,
        config: config.clone(),
        priority: Priority::Normal,
    }
}

/// The canonical request mix: two procedural datasets on different cluster
/// sizes (distinct batch keys spread over the shards), plus one repeated
/// view to exercise the frame cache across the wire.
#[test]
fn socket_frames_are_bit_identical_to_direct_renders() {
    // Rate limiter ON (generous): every frame below passes through it.
    let server = test_server(2, Some(RateLimitConfig::new(500.0, 64)));
    let pool = one_node(&server);

    let cfg = RenderConfig::test_size(24);
    let cases: Vec<(Dataset, u32, u32, f32)> = vec![
        (Dataset::Skull, 16, 2, 0.0),
        (Dataset::Skull, 16, 2, 72.0),
        (Dataset::Supernova, 16, 1, 144.0),
        (Dataset::Plume, 8, 2, 216.0),
        (Dataset::Skull, 16, 2, 0.0), // repeat: must come from the cache
    ];
    let mut cache_hits = 0;
    for (dataset, base, gpus, az) in &cases {
        let transfer = TransferFunction::for_dataset(dataset.name());
        let request = orbit(*dataset, *base, *gpus, *az, 20.0, transfer.clone(), &cfg);
        let frame = pool.render(request).expect("render over socket");

        // The ground truth is built independently of the request: if any
        // field were lost or re-encoded lossily in transit, the pixels
        // diverge.
        let spec = ClusterSpec::accelerator_cluster(*gpus);
        let volume = dataset.volume(*base);
        let scene = Scene::orbit(&volume, *az, 20.0, transfer);
        let direct = gpumr::volren::render(&spec, &volume, &scene, &cfg);
        assert_eq!(
            *frame.image, direct.image,
            "socket frame diverged for {dataset:?} az {az}"
        );
        if frame.from_cache {
            cache_hits += 1;
        }
    }
    assert_eq!(cache_hits, 1, "exactly the repeated view is a cache hit");

    // STATS round-trips and accounts for everything the client sent.
    let stats = pool.node_stats().remove(0).expect("stats");
    assert_eq!(stats.shards().len(), 2, "the server reports its 2 shards");
    assert_eq!(stats.merged().frames_completed, cases.len() as u64);
    let per_shard: u64 = stats.shards().iter().map(|h| h.frames_completed).sum();
    assert_eq!(per_shard, stats.merged().frames_completed);
    // Distinct (volume, cluster) keys must actually use both shards.
    assert!(
        stats.shards().iter().all(|h| h.frames_completed > 0),
        "rendezvous routing left a shard idle: {stats}"
    );
    // The local view agrees with what crossed the socket.
    assert_eq!(server.stats().merged().frames_completed, cases.len() as u64);

    let report = server.shutdown();
    assert_eq!(report.frames_completed, cases.len() as u64);
    assert_eq!(report.frames_failed, 0);
}

/// In-memory volumes and custom transfer functions ship their full content
/// over the wire and still render bit-identically.
#[test]
fn shipped_voxels_and_custom_transfers_render_bit_identically() {
    let server = test_server(2, None);
    let pool = one_node(&server);

    let dims = [6u32, 6, 6];
    let voxels: Vec<f32> = (0..216).map(|i| (i as f32) / 215.0).collect();
    let points = vec![
        ControlPoint {
            value: 0.0,
            rgba: [0.0, 0.0, 0.1, 0.0],
        },
        ControlPoint {
            value: 0.6,
            rgba: [0.9, 0.4, 0.2, 0.5],
        },
        ControlPoint {
            value: 1.0,
            rgba: [1.0, 1.0, 1.0, 1.0],
        },
    ];
    let cfg = RenderConfig::test_size(16);
    let volume = Volume::in_memory("shipped", dims, voxels.clone());
    let transfer = TransferFunction::from_points("custom", points.clone());
    let request = SceneRequest {
        spec: ClusterSpec::accelerator_cluster(1),
        scene: Scene::orbit(&volume, 30.0, -15.0, transfer).with_background([0.05, 0.1, 0.2, 1.0]),
        volume,
        config: cfg.clone(),
        priority: Priority::Normal,
    };
    // What crosses the wire: the voxels and the points themselves.
    let net = NetSceneRequest::from_request(&request).expect("portable");
    assert_eq!(
        net.volume,
        VolumeSpec::InMemory {
            name: "shipped".into(),
            dims,
            voxels: voxels.clone(),
        }
    );
    assert_eq!(net.transfer, TransferSpec::Points(points.clone()));

    let frame = pool.render(request).expect("render shipped volume");

    let spec = ClusterSpec::accelerator_cluster(1);
    let volume = Volume::in_memory("shipped", dims, voxels);
    let transfer = TransferFunction::from_points("wire", points);
    let scene = Scene::orbit(&volume, 30.0, -15.0, transfer).with_background([0.05, 0.1, 0.2, 1.0]);
    let direct = gpumr::volren::render(&spec, &volume, &scene, &cfg);
    assert_eq!(*frame.image, direct.image, "shipped-voxel frame diverged");
    assert!(!frame.from_cache);
    server.shutdown();
}

/// Fire-and-forget submit mirrors `try_submit`: tickets redeem in any
/// order, each exactly as the direct render.
#[test]
fn submit_and_redeem_out_of_order() {
    let server = test_server(2, None);
    let pool = one_node(&server);
    let cfg = RenderConfig::test_size(16);
    let azimuths = [10.0f32, 100.0, 250.0];

    let tickets: Vec<PoolTicket> = azimuths
        .iter()
        .map(|az| {
            let req = orbit(
                Dataset::Supernova,
                16,
                2,
                *az,
                5.0,
                TransferFunction::fire(),
                &cfg,
            );
            pool.try_submit(req).expect("fire-and-forget submit")
        })
        .collect();

    // Redeem newest-first: ticket order must not matter.
    for (az, ticket) in azimuths.iter().zip(tickets.iter()).rev() {
        let frame = pool.redeem(*ticket).expect("redeem");
        let spec = ClusterSpec::accelerator_cluster(2);
        let volume = Dataset::Supernova.volume(16);
        let scene = Scene::orbit(&volume, *az, 5.0, TransferFunction::fire());
        let direct = gpumr::volren::render(&spec, &volume, &scene, &cfg);
        assert_eq!(*frame.image, direct.image, "redeemed frame az {az}");
    }

    // A ticket redeems exactly once. (The server's own refusal of a
    // ticket it no longer holds is `client::tests` in `mgpu-net`.)
    let err = pool.redeem(tickets[0]).expect_err("double redeem");
    match err {
        BackendError::Transport(msg) => {
            assert!(msg.contains("unknown or already redeemed"), "{msg}")
        }
        other => panic!("expected a refused redemption, got {other:?}"),
    }
    server.shutdown();
}

/// The typed errors cross the socket intact: throttling carries a usable
/// retry-after, admission shedding restores the same `AdmissionError`, and
/// a render panic comes back as the same `FrameError` message an
/// in-process `redeem` would return.
#[test]
fn typed_errors_round_trip() {
    // 1 frame burst, 1 frame/min steady: the second render throttles, for
    // longer than the pool waits on one throttle.
    let server = test_server(1, Some(RateLimitConfig::new(1.0 / 60.0, 1)));
    let pool = one_node(&server);
    let cfg = RenderConfig::test_size(8);
    let ok = |az: f32| {
        orbit(
            Dataset::Skull,
            8,
            1,
            az,
            0.0,
            TransferFunction::bone(),
            &cfg,
        )
    };
    pool.render(ok(0.0)).expect("first frame in the burst");
    match pool.render(ok(90.0)) {
        Err(BackendError::Throttled { retry_after }) => {
            assert!(retry_after > Duration::ZERO);
            assert!(retry_after <= Duration::from_secs(61));
        }
        other => panic!("expected throttle, got {other:?}"),
    }
    // PING/STATS bypass the limiter (they are not render submissions).
    pool.node_stats().remove(0).expect("stats while throttled");
    assert_eq!(server.shutdown().frames_completed, 1);

    // Admission: a paused 1-shard server with a bound of 1 sheds the second
    // fire-and-forget submit with the server-side AdmissionError.
    let server = RenderServer::start(ServerConfig {
        shards: 1,
        service: ServiceConfig {
            workers: 1,
            start_paused: true,
            queue_bounds: QueueBounds {
                batch: 1,
                normal: 1,
                interactive: 1,
            },
            ..ServiceConfig::default()
        },
        rate_limit: None,
        ..ServerConfig::default()
    })
    .expect("bind");
    let pool = one_node(&server);
    pool.try_submit(ok(0.0))
        .expect("first submit fills the queue");
    match pool.try_submit(ok(45.0)) {
        Err(BackendError::Admission(err)) => {
            assert_eq!(err.priority, Priority::Normal);
            assert_eq!((err.queued, err.limit), (1, 1));
        }
        other => panic!("expected admission error, got {other:?}"),
    }
    // Shutdown drains the paused queue; the un-redeemed ticket still renders.
    assert_eq!(server.shutdown().frames_completed, 1);

    // Render failure: a zero-pixel tile makes the partitioner divide by
    // zero server-side; the worker catches the panic and the message
    // crosses the wire as a FrameError.
    let server = test_server(1, None);
    let pool = one_node(&server);
    let mut poison = ok(0.0);
    poison.config = RenderConfig {
        partition: gpumr::volren::PartitionStrategy::Tiled { tile: 0 },
        ..RenderConfig::test_size(8)
    };
    match pool.render(poison) {
        Err(BackendError::Render(err)) => {
            assert!(
                err.message().contains("render panicked"),
                "unexpected message: {}",
                err.message()
            );
        }
        other => panic!("expected render failure, got {other:?}"),
    }
    // The connection — and the server — survive the failure.
    let frame = pool.render(ok(0.0)).expect("render after failure");
    assert!(!frame.image.pixels().is_empty());
    let report = server.shutdown();
    assert_eq!(report.frames_failed, 1);
    assert_eq!(report.frames_completed, 1);
}
