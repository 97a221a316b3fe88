//! Poison-pill clients: the server must survive clients that send garbage,
//! disconnect mid-request, or speak the wrong protocol version. The
//! affected connection gets a clean typed error ([`WireError`] echoed in a
//! `BAD_REQUEST` frame) or is dropped; *other* sessions keep rendering as
//! if nothing happened.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use mgpu_net::wire::{self, opcode, read_frame, write_frame, HEADER_BYTES, MAGIC};
use mgpu_net::{NetSceneRequest, RenderClient, RenderServer, ServerConfig, VolumeSpec};
use mgpu_serve::ServiceConfig;
use mgpu_voldata::Dataset;
use mgpu_volren::{RenderConfig, TransferFunction};

fn tiny_server() -> RenderServer {
    RenderServer::start(ServerConfig {
        shards: 2,
        service: ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind loopback server")
}

fn tiny_request(azimuth: f32) -> NetSceneRequest {
    NetSceneRequest::orbit_dataset(
        Dataset::Skull,
        8,
        1,
        azimuth,
        0.0,
        &TransferFunction::bone(),
    )
    .with_config(RenderConfig::test_size(8))
}

/// A healthy render on a separate connection — the "other sessions are
/// unaffected" probe used after each poisoning.
fn assert_service_healthy(server: &RenderServer, azimuth: f32) {
    let client = RenderClient::connect(server.addr()).expect("healthy connect");
    let frame = client
        .render(&tiny_request(azimuth))
        .expect("healthy render");
    assert_eq!(frame.image.width(), 8);
}

#[test]
fn garbage_bytes_get_a_typed_error_and_the_connection_closed() {
    let server = tiny_server();
    // A healthy session opened BEFORE the poison, kept open across it.
    let survivor = RenderClient::connect(server.addr()).expect("survivor connect");

    let mut poison = TcpStream::connect(server.addr()).expect("poison connect");
    poison
        .write_all(b"GET / HTTP/1.1\r\nHost: not-a-render-service\r\n\r\n")
        .expect("write garbage");
    poison.flush().unwrap();
    // The server answers with a BAD_REQUEST frame carrying the WireError…
    // tagged with request id 0 (no request could be framed to echo an id).
    let (op, id, payload) =
        read_frame(&mut poison, wire::DEFAULT_MAX_PAYLOAD).expect("typed reply to garbage");
    assert_eq!((op, id), (opcode::BAD_REQUEST, 0));
    let message: String = wire::decode(&payload).expect("error echo decodes");
    assert!(message.contains("magic"), "unexpected echo: {message}");
    // …then closes the poisoned connection.
    match read_frame(&mut poison, wire::DEFAULT_MAX_PAYLOAD) {
        Err(wire::WireError::ConnectionClosed) | Err(wire::WireError::Io(_)) => {}
        other => panic!("poisoned connection should be closed, got {other:?}"),
    }

    // Both the pre-existing session and a fresh one are unaffected.
    let frame = survivor
        .render(&tiny_request(10.0))
        .expect("survivor render");
    assert!(!frame.from_cache);
    assert_service_healthy(&server, 20.0);
    server.shutdown();
}

#[test]
fn disconnect_mid_request_is_reaped_quietly() {
    let server = tiny_server();
    let survivor = RenderClient::connect(server.addr()).expect("survivor connect");

    // A syntactically valid header promising 64 payload bytes… of which
    // only 5 ever arrive before the client vanishes.
    let mut header = Vec::with_capacity(HEADER_BYTES + 5);
    header.extend_from_slice(&MAGIC.to_le_bytes());
    header.extend_from_slice(&wire::VERSION.to_le_bytes());
    header.push(opcode::RENDER);
    header.extend_from_slice(&64u32.to_le_bytes());
    header.extend_from_slice(&[1, 2, 3, 4, 5]);
    {
        let mut poison = TcpStream::connect(server.addr()).expect("poison connect");
        poison.write_all(&header).expect("write torn frame");
        poison.flush().unwrap();
        // Dropping the stream closes the socket mid-payload.
    }
    // Give the handler a moment to hit the EOF.
    std::thread::sleep(Duration::from_millis(120));

    let frame = survivor
        .render(&tiny_request(30.0))
        .expect("survivor render");
    assert_eq!(frame.image.height(), 8);
    assert_service_healthy(&server, 40.0);
    let report = server.shutdown();
    assert_eq!(report.frames_failed, 0, "torn frames never reach the queue");
}

/// An un-redeeming client cannot grow server memory without bound: the
/// per-session ticket table refuses submits past its cap until the client
/// redeems, and redemption frees capacity.
#[test]
fn outstanding_tickets_are_bounded_per_session() {
    let server = RenderServer::start(ServerConfig {
        shards: 1,
        max_tickets_per_session: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let client = mgpu_net::RenderClient::connect(server.addr()).expect("connect");
    let t0 = client.submit(&tiny_request(0.0)).expect("submit 1");
    let _t1 = client.submit(&tiny_request(10.0)).expect("submit 2");
    match client.submit(&tiny_request(20.0)) {
        Err(mgpu_net::ClientError::TicketsFull { outstanding, limit }) => {
            assert_eq!((outstanding, limit), (2, 2));
        }
        other => panic!("expected typed ticket-bound refusal, got {other:?}"),
    }
    // Redeeming frees a slot; the connection is still healthy.
    let frame = client.redeem(t0).expect("redeem");
    assert_eq!(frame.image.width(), 8);
    client
        .submit(&tiny_request(20.0))
        .expect("submit after redeem");
    server.shutdown();

    // A `RENDER` in flight counts against the same bound as a ticket.
    let server = RenderServer::start(ServerConfig {
        shards: 1,
        service: ServiceConfig {
            workers: 1,
            start_paused: true,
            ..ServiceConfig::default()
        },
        max_tickets_per_session: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let client = RenderClient::connect(server.addr()).expect("connect");
    let rendering = client
        .begin_render(&tiny_request(0.0))
        .expect("begin render");
    let ticket = client.submit(&tiny_request(10.0)).expect("submit");
    match client.submit(&tiny_request(20.0)) {
        Err(mgpu_net::ClientError::TicketsFull { outstanding, limit }) => {
            assert_eq!((outstanding, limit), (2, 2));
        }
        other => panic!("expected typed ticket-bound refusal, got {other:?}"),
    }
    server.resume();
    client.finish_render(rendering).expect("render");
    client.redeem(ticket).expect("redeem");
    server.shutdown();
}

/// Shutdown drains a *paused* service instead of deadlocking: a blocking
/// RENDER admitted while the queue is paused still resolves because
/// shutdown resumes the shards before joining the connection handlers.
#[test]
fn shutdown_drains_paused_service_with_blocked_render() {
    let server = RenderServer::start(ServerConfig {
        shards: 1,
        service: ServiceConfig {
            workers: 1,
            start_paused: true,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let renderer = std::thread::spawn(move || {
        let client = RenderClient::connect(addr).expect("connect");
        client
            .render(&tiny_request(5.0))
            .expect("render resolves at shutdown")
    });
    // Let the request reach the paused queue, then shut down: the frame
    // must render during the drain and the join must not hang.
    std::thread::sleep(Duration::from_millis(150));
    let report = server.shutdown();
    assert_eq!(report.frames_completed, 1);
    let frame = renderer.join().expect("client thread");
    assert!(!frame.from_cache);
}

#[test]
fn wrong_version_and_malformed_payloads_are_clean_errors() {
    let server = tiny_server();

    // Wrong protocol version (a v2 frame has the same 11-byte header
    // layout): a typed UNSUPPORTED_VERSION reply naming both versions,
    // then a clean close — not a silent drop.
    let mut old = TcpStream::connect(server.addr()).expect("connect");
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(&999u16.to_le_bytes());
    frame.push(opcode::PING);
    frame.extend_from_slice(&0u32.to_le_bytes());
    old.write_all(&frame).unwrap();
    let (op, id, payload) = read_frame(&mut old, wire::DEFAULT_MAX_PAYLOAD).expect("version reply");
    assert_eq!((op, id), (opcode::UNSUPPORTED_VERSION, 0));
    let refusal: wire::UnsupportedVersion = wire::decode(&payload).expect("typed payload");
    assert_eq!((refusal.got, refusal.want), (999, wire::VERSION));
    match read_frame(&mut old, wire::DEFAULT_MAX_PAYLOAD) {
        Err(wire::WireError::ConnectionClosed) | Err(wire::WireError::Io(_)) => {}
        other => panic!("wrong-version connection should be closed, got {other:?}"),
    }

    // A well-framed RENDER whose payload is junk: the connection SURVIVES
    // (framing is intact) and the next request on it succeeds.
    let mut junk = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut junk, opcode::RENDER, 7, &[0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
    let (op, id, _) = read_frame(&mut junk, wire::DEFAULT_MAX_PAYLOAD).expect("junk echo");
    assert_eq!((op, id), (opcode::BAD_REQUEST, 7), "echoes the request id");
    write_frame(&mut junk, opcode::PING, 8, &wire::encode(&9u64)).unwrap();
    let (op, id, payload) = read_frame(&mut junk, wire::DEFAULT_MAX_PAYLOAD).expect("ping reply");
    assert_eq!((op, id), (opcode::PONG, 8));
    assert_eq!(wire::decode::<wire::Pong>(&payload).unwrap().token, 9);

    // An oversized declared length: typed TooLarge echo, then close.
    let mut huge = TcpStream::connect(server.addr()).expect("connect");
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(&wire::VERSION.to_le_bytes());
    frame.push(opcode::RENDER);
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    huge.write_all(&frame).unwrap();
    let (op, id, payload) = read_frame(&mut huge, wire::DEFAULT_MAX_PAYLOAD).expect("size echo");
    assert_eq!((op, id), (opcode::BAD_REQUEST, 0));
    assert!(wire::decode::<String>(&payload)
        .unwrap()
        .contains("exceeds"));

    assert_service_healthy(&server, 50.0);
    server.shutdown();
}

/// A well-formed request can still ask for unbounded work: samples per ray
/// grow as `1 / step_voxels`, and a step of `1e-12` would pin a render
/// worker for hours; every modeled GPU is two threads the executor keeps
/// for the life of the process, and `u32::MAX` of them is a server that
/// never comes back. The plan a request names is bounded the same way: a
/// dataset past the paper's largest edge (Plume at 2³⁰ overflowed its
/// `4·base` depth on the event loop), and a grid split toward more than
/// `MAX_BRICKS` bricks by either target. The server door refuses all of
/// them typed — as `RENDER`, `SUBMIT` or `PREWARM`, before a rate-limit
/// token is spent — and both the offending connection and a session opened
/// beforehand carry on.
#[test]
fn an_unbounded_march_is_refused_at_the_door() {
    let server = RenderServer::start(ServerConfig {
        shards: 1,
        // One token, no refill to speak of: a refusal that spent it would
        // leave the valid request below throttled.
        rate_limit: Some(mgpu_net::RateLimitConfig::new(0.001, 1)),
        ..ServerConfig::default()
    })
    .expect("bind");
    let survivor = RenderClient::connect(server.addr()).expect("survivor connect");

    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    type Spoil = fn(&mut NetSceneRequest);
    let refusals: [(Spoil, &str); 5] = [
        (|r| r.config.step_voxels = 1e-12, "ray-march step"),
        (|r| r.config.step_voxels = 0.0, "ray-march step"),
        (|r| r.config.step_voxels = f32::NAN, "ray-march step"),
        (|r| r.gpus = wire::MAX_GPUS + 1, "GPUs"),
        (|r| r.gpus = u32::MAX, "GPUs"),
    ];
    for (id, (spoil, why)) in (1u64..).zip(refusals) {
        let mut request = tiny_request(0.0);
        spoil(&mut request);
        write_frame(&mut raw, opcode::RENDER, id, &wire::encode(&request)).unwrap();
        let (op, echoed, payload) = read_frame(&mut raw, wire::DEFAULT_MAX_PAYLOAD).expect("reply");
        assert_eq!((op, echoed), (opcode::BAD_REQUEST, id), "{why}");
        let message: String = wire::decode(&payload).expect("error echo decodes");
        assert!(message.contains(why), "unexpected echo: {message}");
    }
    fn dataset(dataset: Dataset, base: u32) -> VolumeSpec {
        VolumeSpec::Dataset { dataset, base }
    }
    let oversized: [(Spoil, &str); 4] = [
        (
            |r| r.volume = dataset(Dataset::Plume, 1 << 30),
            "dataset base",
        ),
        (|r| r.volume = dataset(Dataset::Skull, 4096), "dataset base"),
        (|r| r.config.bricks_per_gpu = u32::MAX, "bricks"),
        (
            |r| {
                r.volume = dataset(Dataset::Skull, 64);
                r.config.max_brick_voxels = 1;
            },
            "bricks",
        ),
    ];
    for (spoil, why) in oversized {
        let mut request = tiny_request(0.0);
        spoil(&mut request);
        // A connection of its own, so each case has its one token to keep.
        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        let prewarm = wire::encode(&(0u64, request.clone()));
        for (id, op, payload) in [
            (1, opcode::SUBMIT, wire::encode(&request)),
            (2, opcode::PREWARM, prewarm),
        ] {
            write_frame(&mut conn, op, id, &payload).unwrap();
            let (op, echoed, payload) =
                read_frame(&mut conn, wire::DEFAULT_MAX_PAYLOAD).expect("reply");
            assert_eq!((op, echoed), (opcode::BAD_REQUEST, id), "{request:?}");
            let message: String = wire::decode(&payload).expect("error echo decodes");
            assert!(message.contains(why), "unexpected echo: {message}");
        }
        // The same connection renders on its unspent token, and so does a
        // fresh one.
        write_frame(
            &mut conn,
            opcode::RENDER,
            3,
            &wire::encode(&tiny_request(0.0)),
        )
        .unwrap();
        let (op, id, _) = read_frame(&mut conn, wire::DEFAULT_MAX_PAYLOAD).expect("frame");
        assert_eq!((op, id), (opcode::FRAME, 3), "{why}");
        assert_service_healthy(&server, 70.0);
    }
    // Same connection, same bucket: the one token is still there.
    write_frame(
        &mut raw,
        opcode::RENDER,
        6,
        &wire::encode(&tiny_request(0.0)),
    )
    .unwrap();
    let (op, id, _) = read_frame(&mut raw, wire::DEFAULT_MAX_PAYLOAD).expect("frame");
    assert_eq!((op, id), (opcode::FRAME, 6));

    let frame = survivor
        .render(&tiny_request(60.0))
        .expect("survivor render");
    assert_eq!(frame.image.width(), 8);
    server.shutdown();
}

/// The image is the other thing a well-formed request sizes: 30000² would
/// have a worker allocate ~14 GiB (an abort, not a caught panic), `0×N` is
/// no image at all, and nothing past the payload bound could leave as one
/// `FRAME` anyway. All refused typed at the door, token unspent, and the
/// connection renders its next request.
#[test]
fn an_unservable_image_is_refused_at_the_door() {
    let server = RenderServer::start(ServerConfig {
        shards: 1,
        rate_limit: Some(mgpu_net::RateLimitConfig::new(0.001, 1)),
        // Room for exactly an 8×8 reply.
        max_payload: 17 + 8 * 8 * 16,
        ..ServerConfig::default()
    })
    .expect("bind");

    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let cases = [
        ((30_000, 30_000), "exceeds"),
        ((u32::MAX, u32::MAX), "exceeds"),
        ((9, 8), "exceeds"),
        ((0, 8), "degenerate"),
        ((8, 0), "degenerate"),
    ];
    for (id, (image, why)) in (1u64..).zip(cases) {
        let mut request = tiny_request(0.0);
        request.config.image = image;
        let op = [opcode::RENDER, opcode::SUBMIT][id as usize % 2];
        write_frame(&mut raw, op, id, &wire::encode(&request)).unwrap();
        let (op, echoed, payload) = read_frame(&mut raw, wire::DEFAULT_MAX_PAYLOAD).expect("reply");
        assert_eq!((op, echoed), (opcode::BAD_REQUEST, id), "image {image:?}");
        let message: String = wire::decode(&payload).expect("error echo decodes");
        assert!(message.contains(why), "image {image:?}: {message}");
    }
    // Same connection, same bucket: the one token is still there, and an
    // image that exactly fills the bound is served.
    write_frame(
        &mut raw,
        opcode::RENDER,
        9,
        &wire::encode(&tiny_request(0.0)),
    )
    .unwrap();
    let (op, id, frame) = read_frame(&mut raw, wire::DEFAULT_MAX_PAYLOAD).expect("frame");
    assert_eq!((op, id), (opcode::FRAME, 9));
    assert_eq!(frame.len() as u64, 17 + 8 * 8 * 16);

    // Nothing was rendered for the refused ones.
    assert_eq!(server.shutdown().frames_completed, 1);
}
