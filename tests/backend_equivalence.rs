//! THE acceptance test of the `RenderBackend` redesign: one generic
//! harness, written once against the trait, drives every backend —
//! [`RenderService`] (one process), [`ShardedService`] (in-process shards),
//! [`RemoteBackend`] (one TCP server) and [`NodePool`] (N TCP servers
//! behind a placement directory) — through the same mixed workload and
//! proves every delivered frame **bit-identical** to a direct
//! `mgpu_volren::render` call with the same request. Plus the multi-node
//! specifics: failover within the retry budget when a node dies mid-run,
//! and the ticket-redemption edge cases (double redemption, unknown
//! tickets, redemption after the issuing connection failed over).

use std::time::Duration;

use gpumr::prelude::*;
use gpumr::voldata::Volume;
use gpumr::volren::render;
use gpumr::volren::transfer::ControlPoint;

/// One deterministic mixed workload: three procedural datasets on two
/// cluster sizes (distinct batch keys — shards/nodes both get traffic), a
/// shipped in-memory volume with a custom transfer function, a non-orbit
/// camera, and one repeated view (must come from a frame cache).
fn workload() -> Vec<SceneRequest> {
    let cfg = RenderConfig::test_size(16);
    let mut requests: Vec<SceneRequest> = [
        (Dataset::Skull, 16u32, 2u32, 0.0f32),
        (Dataset::Skull, 16, 2, 72.0),
        (Dataset::Supernova, 16, 1, 144.0),
        (Dataset::Plume, 8, 2, 216.0),
    ]
    .into_iter()
    .map(|(dataset, base, gpus, az)| {
        let volume = dataset.volume(base);
        let scene = Scene::orbit(
            &volume,
            az,
            20.0,
            TransferFunction::for_dataset(dataset.name()),
        );
        SceneRequest {
            spec: ClusterSpec::accelerator_cluster(gpus),
            volume,
            scene,
            config: cfg.clone(),
            priority: Priority::Normal,
        }
    })
    .collect();

    // A shipped volume + custom transfer points + custom background: the
    // parts of a request that must cross a wire by value, not by name.
    let voxels: Vec<f32> = (0..125).map(|i| (i as f32) / 124.0).collect();
    let custom = Volume::in_memory("shipped", [5, 5, 5], voxels);
    let scene = Scene::orbit(
        &custom,
        30.0,
        -15.0,
        TransferFunction::from_points(
            "harness",
            vec![
                ControlPoint {
                    value: 0.0,
                    rgba: [0.0, 0.0, 0.1, 0.0],
                },
                ControlPoint {
                    value: 1.0,
                    rgba: [1.0, 0.9, 0.8, 1.0],
                },
            ],
        ),
    )
    .with_background([0.05, 0.1, 0.2, 1.0]);
    requests.push(SceneRequest {
        spec: ClusterSpec::accelerator_cluster(1),
        volume: custom,
        scene,
        config: cfg.clone(),
        priority: Priority::Normal,
    });

    // A non-orbit camera (hand-built look-at): only representable on the
    // wire through the raw CameraSpec — exercises the v2 protocol arm.
    let skull = Dataset::Skull.volume(16);
    let mut tilted = Scene::orbit(&skull, 10.0, 35.0, TransferFunction::bone());
    tilted.camera = gpumr::volren::Camera::look_at(
        gpumr::volren::math::vec3(40.0, -22.0, 31.0),
        gpumr::volren::math::vec3(8.0, 8.0, 8.0),
        gpumr::volren::math::vec3(0.2, 0.1, 1.0),
        35.0,
    );
    requests.push(SceneRequest {
        spec: ClusterSpec::accelerator_cluster(2),
        volume: skull,
        scene: tilted,
        config: cfg,
        priority: Priority::Normal,
    });

    // The repeat: identical to the first request — a frame cache somewhere
    // behind the backend must answer it without rendering.
    requests.push(requests[0].clone());
    requests
}

/// The generic harness. Everything here is written against the trait —
/// no backend-specific code — and every delivered pixel is compared
/// bit-for-bit against an independently constructed direct render.
fn prove_frames_bit_identical<B: RenderBackend>(backend: &B, label: &str) -> u64 {
    let requests = workload();
    let mut completed = 0u64;
    let mut cache_hits = 0u64;

    // Blocking render path.
    for (i, request) in requests.iter().enumerate() {
        let frame = backend
            .render(request.clone())
            .unwrap_or_else(|err| panic!("{label}: request {i} failed: {err}"));
        let direct = render(
            &request.spec,
            &request.volume,
            &request.scene,
            &request.config,
        );
        assert_eq!(
            *frame.image, direct.image,
            "{label}: request {i} diverged from the direct render"
        );
        completed += 1;
        cache_hits += frame.from_cache as u64;
        if frame.from_cache {
            assert_eq!(
                frame.sim_frame,
                Duration::ZERO,
                "{label}: cache hits re-deliver, they don't re-render"
            );
        }
    }
    assert!(
        cache_hits >= 1,
        "{label}: the repeated view must hit a frame cache"
    );

    // Fire-and-forget path: submit all, redeem newest-first — ticket order
    // must not matter, and every redeemed frame matches its direct render.
    let nova = Dataset::Supernova.volume(16);
    let cfg = RenderConfig::test_size(16);
    let ticketed: Vec<SceneRequest> = [10.0f32, 100.0, 250.0]
        .into_iter()
        .map(|az| SceneRequest {
            spec: ClusterSpec::accelerator_cluster(2),
            volume: nova.clone(),
            scene: Scene::orbit(&nova, az, 5.0, TransferFunction::fire()),
            config: cfg.clone(),
            priority: Priority::Normal,
        })
        .collect();
    let tickets: Vec<B::Ticket> = ticketed
        .iter()
        .map(|r| {
            backend
                .try_submit(r.clone())
                .unwrap_or_else(|err| panic!("{label}: try_submit under no load failed: {err}"))
        })
        .collect();
    for (request, ticket) in ticketed.iter().zip(tickets).rev() {
        let frame = backend
            .redeem(ticket)
            .unwrap_or_else(|err| panic!("{label}: redeem failed: {err}"));
        let direct = render(
            &request.spec,
            &request.volume,
            &request.scene,
            &request.config,
        );
        assert_eq!(
            *frame.image, direct.image,
            "{label}: out-of-order redemption diverged"
        );
        completed += 1;
    }

    // Session layer: the same generic session code runs over any backend.
    let skull = Dataset::Skull.volume(16);
    let session = backend.session(
        ClusterSpec::accelerator_cluster(2),
        skull.clone(),
        RenderConfig::test_size(16),
    );
    let ticket = session.request_orbit(33.0, 12.0, TransferFunction::bone());
    let frame = ticket.wait();
    let spec = ClusterSpec::accelerator_cluster(2);
    let scene = Scene::orbit(&skull, 33.0, 12.0, TransferFunction::bone());
    let direct = render(&spec, &skull, &scene, &RenderConfig::test_size(16));
    assert_eq!(
        *frame.image, direct.image,
        "{label}: session frame diverged"
    );
    assert_eq!(session.frames_submitted(), 1);
    completed += 1;

    // The backend's own accounting saw every frame.
    let report = backend
        .report()
        .unwrap_or_else(|err| panic!("{label}: report failed: {err}"));
    assert_eq!(
        report.frames_completed, completed,
        "{label}: accounting mismatch"
    );
    assert_eq!(report.frames_failed, 0, "{label}: no frame may fail");
    completed
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }
}

#[test]
fn render_service_frames_are_bit_identical() {
    let service = RenderService::start(service_config());
    let completed = prove_frames_bit_identical(&service, "RenderService");
    assert_eq!(service.shutdown().frames_completed, completed);
}

#[test]
fn sharded_service_frames_are_bit_identical() {
    let sharded = ShardedService::start(2, service_config());
    let completed = prove_frames_bit_identical(&sharded, "ShardedService");
    assert_eq!(sharded.shutdown().frames_completed, completed);
}

#[test]
fn remote_backend_frames_are_bit_identical() {
    let server = RenderServer::start(ServerConfig {
        shards: 2,
        service: service_config(),
        // Generous per-session budget: every harness frame passes the door.
        rate_limit: Some(RateLimitConfig::new(500.0, 64)),
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let backend = RemoteBackend::connect_with(
        server.addr(),
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            // Must exceed the slowest render in the workload.
            read_timeout: Some(Duration::from_secs(60)),
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    let node = &backend.node_stats()[0];
    assert_eq!(node.as_ref().expect("node stats").shards().len(), 2);
    let completed = prove_frames_bit_identical(&backend, "RemoteBackend");
    // The remote shutdown is a disconnect: the server survives and its
    // final report agrees with what the client saw.
    let last_seen = RenderBackend::shutdown(backend);
    assert_eq!(last_seen.frames_completed, completed);
    assert_eq!(server.shutdown().frames_completed, completed);
}

fn start_node(shards: usize) -> RenderServer {
    RenderServer::start(ServerConfig {
        shards,
        service: service_config(),
        rate_limit: None,
        ..ServerConfig::default()
    })
    .expect("bind loopback node")
}

#[test]
fn node_pool_frames_are_bit_identical() {
    let nodes = [start_node(1), start_node(2)];
    let pool = NodePool::new(
        Directory::new(nodes.iter().map(|n| n.addr()).collect()).expect("two-node directory"),
        NodePoolConfig::default(),
    );
    let completed = prove_frames_bit_identical(&pool, "NodePool");
    assert_eq!(RenderBackend::shutdown(pool).frames_completed, completed);
    // The workload's distinct batch keys actually spread over both nodes.
    let per_node: Vec<u64> = nodes
        .into_iter()
        .map(|n| n.shutdown().frames_completed)
        .collect();
    assert!(
        per_node.iter().all(|&f| f > 0),
        "rendezvous placement left a node idle: {per_node:?}"
    );
    assert_eq!(per_node.iter().sum::<u64>(), completed);
}

/// The multi-node acceptance test: kill a node mid-run and the pool
/// completes the frame anyway, within its retry budget, on the next node
/// in the key's preference order — bit-identical to a direct render.
#[test]
fn node_pool_fails_over_within_its_retry_budget_when_a_node_dies() {
    let mut nodes: Vec<Option<RenderServer>> = vec![Some(start_node(1)), Some(start_node(1))];
    let directory = Directory::new(nodes.iter().map(|n| n.as_ref().unwrap().addr()).collect())
        .expect("two-node directory");
    let pool = NodePool::new(
        directory,
        NodePoolConfig {
            attempts: 3,
            client: ClientConfig {
                connect_timeout: Some(Duration::from_secs(5)),
                read_timeout: Some(Duration::from_secs(60)),
                ..ClientConfig::default()
            },
        },
    );

    let skull = Dataset::Skull.volume(16);
    let cfg = RenderConfig::test_size(16);
    let request_at = |az: f32| SceneRequest {
        spec: ClusterSpec::accelerator_cluster(1),
        volume: skull.clone(),
        scene: Scene::orbit(&skull, az, 10.0, TransferFunction::bone()),
        config: cfg.clone(),
        priority: Priority::Normal,
    };
    let owner = pool.node_for(&request_at(0.0));

    // Warm the connection to the owner with a real frame.
    let frame = pool.render(request_at(0.0)).expect("healthy render");
    let direct = render(
        &ClusterSpec::accelerator_cluster(1),
        &skull,
        &Scene::orbit(&skull, 0.0, 10.0, TransferFunction::bone()),
        &cfg,
    );
    assert_eq!(*frame.image, direct.image);

    // Kill the owning node mid-run.
    nodes[owner].take().unwrap().shutdown();

    // Same batch key → same (dead) owner; the pool must absorb the loss
    // and complete on the survivor within its budget.
    let failed_over = pool
        .render(request_at(40.0))
        .expect("failover render within the retry budget");
    let direct = render(
        &ClusterSpec::accelerator_cluster(1),
        &skull,
        &Scene::orbit(&skull, 40.0, 10.0, TransferFunction::bone()),
        &cfg,
    );
    assert_eq!(
        *failed_over.image, direct.image,
        "failover must not change a single pixel"
    );

    // Observability agrees: the dead node errors, the survivor reports,
    // and the pool-level merged report still answers.
    let stats = pool.node_stats();
    assert!(stats[owner].is_err(), "dead node must surface its error");
    assert!(stats[1 - owner].is_ok(), "survivor must answer");
    let merged = RenderBackend::report(&pool).expect("merged report over survivors");
    assert!(merged.frames_completed >= 1);

    nodes[1 - owner].take().unwrap().shutdown();
}

/// Satellite: ticket-redemption edge cases through the trait.
#[test]
fn ticket_redemption_edge_cases() {
    // Remote (a one-node pool): a ticket redeems exactly once, the second
    // attempt is the pool's typed error, and the connection survives it. A
    // never-issued wire ticket is the server's own typed refusal — only
    // the raw client can name one now that a remote ticket is a PoolTicket.
    let server = start_node(1);
    let backend = RemoteBackend::connect(server.addr()).expect("connect");
    let skull = Dataset::Skull.volume(8);
    let request = SceneRequest {
        spec: ClusterSpec::accelerator_cluster(1),
        scene: Scene::orbit(&skull, 15.0, 0.0, TransferFunction::bone()),
        volume: skull.clone(),
        config: RenderConfig::test_size(8),
        priority: Priority::Normal,
    };
    let ticket = backend.try_submit(request.clone()).expect("submit");
    backend.redeem(ticket).expect("first redemption");
    match backend.redeem(ticket) {
        Err(BackendError::Transport(msg)) => {
            assert!(msg.contains("unknown or already redeemed"), "{msg}")
        }
        other => panic!("double redemption must fail typed, got {other:?}"),
    }
    let raw = RenderClient::connect(server.addr()).expect("raw connect");
    match raw.redeem(NetTicket::from_id(0xDEAD)) {
        Err(ClientError::BadRequest(msg)) => {
            assert!(msg.contains("unknown ticket"), "{msg}")
        }
        other => panic!("unknown ticket must fail typed, got {other:?}"),
    }
    drop(raw);
    // The session (and server) survive the bad redemptions.
    backend
        .render(request)
        .expect("render after bad redemptions");
    server.shutdown();

    // Pool: a ticket is pinned to the connection that issued it — but
    // since the elastic-pool work, losing that connection no longer loses
    // the frame: the pool re-renders the remembered request on a survivor
    // (bit-identical, because renders are deterministic). Double
    // redemption stays a typed error at the pool layer.
    let mut nodes: Vec<Option<RenderServer>> = vec![Some(start_node(1)), Some(start_node(1))];
    let pool = NodePool::new(
        Directory::new(nodes.iter().map(|n| n.as_ref().unwrap().addr()).collect())
            .expect("two-node directory"),
        NodePoolConfig {
            attempts: 3,
            ..NodePoolConfig::default()
        },
    );
    let plume = Dataset::Plume.volume(8);
    let request_at = |az: f32| SceneRequest {
        spec: ClusterSpec::accelerator_cluster(1),
        scene: Scene::orbit(&plume, az, 5.0, TransferFunction::smoke()),
        volume: plume.clone(),
        config: RenderConfig::test_size(8),
        priority: Priority::Normal,
    };
    let owner = pool.node_for(&request_at(0.0));
    let parked = pool.submit(request_at(0.0)).expect("submit to the owner");
    assert_eq!(parked.node(), owner);

    // Kill the owner; a new render fails over (poisoning + re-dialing the
    // owner's slot on the way).
    nodes[owner].take().unwrap().shutdown();
    pool.render(request_at(80.0)).expect("failover render");

    // Zero-loss hand-off: the issuing connection is gone, so the pool
    // re-renders the parked request on the survivor — same pixels as a
    // direct render, no frame lost.
    let handed_off = pool
        .redeem(parked)
        .expect("post-failover redemption hands off to a survivor");
    let direct = render(
        &ClusterSpec::accelerator_cluster(1),
        &plume,
        &Scene::orbit(&plume, 0.0, 5.0, TransferFunction::smoke()),
        &RenderConfig::test_size(8),
    );
    assert_eq!(
        *handed_off.image, direct.image,
        "handed-off frame must be bit-identical to a direct render"
    );
    // …and the ticket is spent: redeeming it again is a typed error.
    match pool.redeem(parked) {
        Err(BackendError::Transport(msg)) => {
            assert!(msg.contains("unknown or already redeemed"), "{msg}");
        }
        other => panic!("double redemption must fail typed, got {other:?}"),
    }
    nodes[1 - owner].take().unwrap().shutdown();
}

/// `NodePool::connect` keeps the one-server contract `RemoteBackend` always
/// had: an unreachable server is an error at construction, `try_submit`
/// sheds at once with the queue's own error, and the blocking `submit`
/// waits the shed out for as long as it lasts.
#[test]
fn connect_dials_eagerly_and_blocking_submit_waits_out_admission() {
    // Bind-then-drop: the port is closed by the time `connect` dials it.
    let dead = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| listener.local_addr())
        .expect("ephemeral port");
    match NodePool::connect(dead) {
        Err(ClientError::Wire(_)) => {}
        Err(other) => panic!("expected a wire error at construction, got {other:?}"),
        Ok(_) => panic!("connected to a closed port"),
    }

    let server = RenderServer::start(ServerConfig {
        shards: 1,
        service: ServiceConfig {
            workers: 1,
            start_paused: true,
            queue_bounds: QueueBounds::uniform(1),
            ..ServiceConfig::default()
        },
        rate_limit: None,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let backend = RemoteBackend::connect(server.addr()).expect("connect");
    let skull = Dataset::Skull.volume(8);
    let request_at = |az: f32| SceneRequest {
        spec: ClusterSpec::accelerator_cluster(1),
        scene: Scene::orbit(&skull, az, 0.0, TransferFunction::bone()),
        volume: skull.clone(),
        config: RenderConfig::test_size(8),
        priority: Priority::Normal,
    };
    let first = backend
        .try_submit(request_at(0.0))
        .expect("first fills the queue");
    match backend.try_submit(request_at(40.0)) {
        Err(BackendError::Admission(err)) => assert_eq!((err.queued, err.limit), (1, 1)),
        other => panic!("expected admission shedding, got {other:?}"),
    }

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _ = done_tx.send(backend.submit(request_at(80.0)));
        });
        // While the service is paused the queue stays full, so the
        // blocking submit is still polling the shed out…
        assert!(
            done_rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "blocking submit returned while the queue was still full"
        );
        // …and it is admitted once a worker frees the slot.
        server.resume();
        let second = done_rx
            .recv()
            .expect("submitter finished")
            .expect("blocking submit outlasts the shed");
        backend.redeem(first).expect("first frame renders");
        backend.redeem(second).expect("second frame renders");
    });
    assert_eq!(server.shutdown().frames_completed, 2);
}

/// Wire v3 pipelined submission: the same bit-identity contract holds when
/// a single connection holds many renders in flight and collects them out
/// of order — multiplexing changes delivery order, never pixels.
#[test]
fn pipelined_submissions_are_bit_identical_to_direct_renders() {
    let server = RenderServer::start(ServerConfig {
        shards: 2,
        service: service_config(),
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let client = RenderClient::connect(server.addr()).expect("connect");

    // At least nine distinct views, all issued before any reply is read:
    // the mixed workload, topped up with extra orbit angles.
    let mut requests: Vec<SceneRequest> = workload();
    let skull = Dataset::Skull.volume(16);
    let mut extra = 0.0f32;
    while requests.len() < 9 {
        extra += 41.0;
        requests.push(SceneRequest {
            spec: ClusterSpec::accelerator_cluster(2),
            scene: Scene::orbit(&skull, extra, 7.0, TransferFunction::bone()),
            volume: skull.clone(),
            config: RenderConfig::test_size(16),
            priority: Priority::Normal,
        });
    }
    let pending: Vec<_> = requests
        .iter()
        .map(|request| {
            let net = NetSceneRequest::from_request(request).expect("portable request");
            client.begin_render(&net).expect("issue render")
        })
        .collect();
    assert!(
        pending.len() >= 8,
        "the pipelining claim needs ≥ 8 in flight"
    );

    // Collect out of order: middle-out (4, 5, 3, 6, 2, 7, 1, 8, 0).
    let mut order: Vec<usize> = (0..pending.len()).collect();
    order.sort_by_key(|i| (*i as i64 - 4).unsigned_abs());
    let mut slots: Vec<Option<gpumr::net::PendingRender>> = pending.into_iter().map(Some).collect();
    for i in order {
        let handle = slots[i].take().expect("collected once");
        let frame = client.finish_render(handle).expect("collect render");
        let request = &requests[i];
        let direct = render(
            &request.spec,
            &request.volume,
            &request.scene,
            &request.config,
        );
        assert_eq!(
            frame.image, direct.image,
            "pipelined request {i} diverged from the direct render"
        );
    }

    let report = server.shutdown();
    assert_eq!(report.frames_failed, 0);
}
