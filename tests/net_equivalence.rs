//! End-to-end proof of the wire protocol's headline guarantee: a frame
//! requested through [`RenderClient`] over a real localhost socket — through
//! the per-session rate limiter and a ≥2-shard server — is **bit-identical**
//! to a direct `mgpu_volren::render` call whose inputs are constructed
//! independently on the client side. Also locks the fire-and-forget
//! submit/redeem path, the cache provenance flag, the `STATS` round-trip
//! and the typed error round-trips (throttle, admission, render failure).

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

/// The canonical request mix: two procedural datasets on different cluster
/// sizes (distinct batch keys spread over the shards), plus one repeated
/// view to exercise the frame cache across the wire.
#[test]
fn socket_frames_are_bit_identical_to_direct_renders() {
    // Rate limiter ON (generous): every frame below passes through it.
    let server = test_server(2, Some(RateLimitConfig::new(500.0, 64)));
    let client = RenderClient::connect(server.addr()).expect("connect");
    assert_eq!(client.shards(), 2);

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
        let request = NetSceneRequest::orbit_dataset(*dataset, *base, *gpus, *az, 20.0, &transfer)
            .with_config(cfg.clone());
        let frame = client.render(&request).expect("render over socket");

        // The ground truth is built WITHOUT the wire types: if any field
        // were lost or re-encoded lossily in transit, the pixels diverge.
        let spec = ClusterSpec::accelerator_cluster(*gpus);
        let volume = dataset.volume(*base);
        let scene = Scene::orbit(&volume, *az, 20.0, transfer);
        let direct = gpumr::volren::render(&spec, &volume, &scene, &cfg);
        assert_eq!(
            frame.image, direct.image,
            "socket frame diverged for {dataset:?} az {az}"
        );
        if frame.from_cache {
            cache_hits += 1;
        }
    }
    assert_eq!(cache_hits, 1, "exactly the repeated view is a cache hit");

    // STATS round-trips and accounts for everything the client sent.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.shards().len(), 2);
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
    let client = RenderClient::connect(server.addr()).expect("connect");

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
    let mut request = NetSceneRequest::orbit_dataset(
        Dataset::Skull, // placeholder, replaced below
        8,
        1,
        30.0,
        -15.0,
        &TransferFunction::bone(),
    )
    .with_config(cfg.clone())
    .with_background([0.05, 0.1, 0.2, 1.0]);
    request.volume = VolumeSpec::InMemory {
        name: "shipped".into(),
        dims,
        voxels: voxels.clone(),
    };
    request.transfer = TransferSpec::Points(points.clone());

    let frame = client.render(&request).expect("render shipped volume");

    let spec = ClusterSpec::accelerator_cluster(1);
    let volume = Volume::in_memory("shipped", dims, voxels);
    let transfer = TransferFunction::from_points("wire", points);
    let scene = Scene::orbit(&volume, 30.0, -15.0, transfer).with_background([0.05, 0.1, 0.2, 1.0]);
    let direct = gpumr::volren::render(&spec, &volume, &scene, &cfg);
    assert_eq!(frame.image, direct.image, "shipped-voxel frame diverged");
    assert!(!frame.from_cache);
    server.shutdown();
}

/// Fire-and-forget submit mirrors `try_submit`: tickets redeem in any
/// order, each exactly as the direct render.
#[test]
fn submit_and_redeem_out_of_order() {
    let server = test_server(2, None);
    let client = RenderClient::connect(server.addr()).expect("connect");
    let cfg = RenderConfig::test_size(16);
    let azimuths = [10.0f32, 100.0, 250.0];

    let tickets: Vec<NetTicket> = azimuths
        .iter()
        .map(|az| {
            let req = NetSceneRequest::orbit_dataset(
                Dataset::Supernova,
                16,
                2,
                *az,
                5.0,
                &TransferFunction::fire(),
            )
            .with_config(cfg.clone());
            client.submit(&req).expect("fire-and-forget submit")
        })
        .collect();

    // Redeem newest-first: ticket order must not matter.
    for (az, ticket) in azimuths.iter().zip(tickets.iter()).rev() {
        let frame = client.redeem(*ticket).expect("redeem");
        let spec = ClusterSpec::accelerator_cluster(2);
        let volume = Dataset::Supernova.volume(16);
        let scene = Scene::orbit(&volume, *az, 5.0, TransferFunction::fire());
        let direct = gpumr::volren::render(&spec, &volume, &scene, &cfg);
        assert_eq!(frame.image, direct.image, "redeemed frame az {az}");
    }

    // A ticket redeems exactly once.
    let err = client.redeem(tickets[0]).expect_err("double redeem");
    match err {
        ClientError::BadRequest(msg) => assert!(msg.contains("unknown ticket"), "{msg}"),
        other => panic!("expected a refused request, got {other:?}"),
    }
    server.shutdown();
}

/// The typed errors cross the socket intact: throttling carries a usable
/// retry-after, admission shedding restores the same `AdmissionError`, and
/// a render panic comes back as the same `FrameError` message an
/// in-process `redeem` would return.
#[test]
fn typed_errors_round_trip() {
    // 1 frame burst, 1 frame/min steady: the second render throttles.
    let server = test_server(1, Some(RateLimitConfig::new(1.0 / 60.0, 1)));
    let client = RenderClient::connect(server.addr()).expect("connect");
    let ok =
        NetSceneRequest::orbit_dataset(Dataset::Skull, 8, 1, 0.0, 0.0, &TransferFunction::bone())
            .with_config(RenderConfig::test_size(8));
    client.render(&ok).expect("first frame in the burst");
    match client.render(&ok.clone().with_azimuth(90.0)) {
        Err(ClientError::Throttled { retry_after }) => {
            assert!(retry_after > Duration::ZERO);
            assert!(retry_after <= Duration::from_secs(61));
        }
        other => panic!("expected throttle, got {other:?}"),
    }
    // PING/STATS bypass the limiter (they are not render submissions).
    client.ping().expect("ping while throttled");
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
    let client = RenderClient::connect(server.addr()).expect("connect");
    client.submit(&ok).expect("first submit fills the queue");
    match client.submit(&ok.clone().with_azimuth(45.0)) {
        Err(ClientError::Admission(err)) => {
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
    let client = RenderClient::connect(server.addr()).expect("connect");
    let poison = ok.clone().with_config(RenderConfig {
        partition: gpumr::volren::PartitionStrategy::Tiled { tile: 0 },
        ..RenderConfig::test_size(8)
    });
    match client.render(&poison) {
        Err(ClientError::Render(err)) => {
            assert!(
                err.message().contains("render panicked"),
                "unexpected message: {}",
                err.message()
            );
        }
        other => panic!("expected render failure, got {other:?}"),
    }
    // The connection — and the server — survive the failure.
    let frame = client.render(&ok).expect("render after failure");
    assert!(!frame.image.pixels().is_empty());
    let report = server.shutdown();
    assert_eq!(report.frames_failed, 1);
    assert_eq!(report.frames_completed, 1);
}
