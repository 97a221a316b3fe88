//! Poison-pill clients: the server must survive clients that send garbage,
//! disconnect mid-request, or speak the wrong protocol version. The
//! affected connection gets a clean typed error ([`WireError`] echoed in a
//! `BadRequest` reply) or is dropped; *other* sessions keep rendering as
//! if nothing happened. Hostile bytes are the point here, so these tests
//! write and read raw frames; tags come from [`Request`] and [`Reply`].

use std::borrow::Cow;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use mgpu_net::wire::{
    self, read_frame, write_frame, Reply, Request, UnsupportedVersion, HEADER_BYTES, MAGIC,
};
use mgpu_net::{
    Directory, NetSceneRequest, NodePool, NodePoolConfig, RenderClient, RenderServer, ServerConfig,
    VolumeSpec,
};
use mgpu_serve::{BackendError, RenderBackend, ServiceConfig};
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

/// The tag a `RENDER` frame carries.
fn render_tag() -> u8 {
    Request::Render(Cow::Owned(tiny_request(0.0))).tag()
}

/// `request` framed under `id` as a `RENDER`.
fn render_frame(request: &NetSceneRequest, id: u64) -> Vec<u8> {
    Request::Render(Cow::Borrowed(request)).framed(id)
}

/// One reply off a raw socket: its request id and the reply it decodes to.
fn read_reply(raw: &mut TcpStream) -> (u64, Reply) {
    let (tag, id, payload) = read_frame(raw, wire::DEFAULT_MAX_PAYLOAD).expect("reply");
    (id, Reply::decode(tag, &payload).expect("reply decodes"))
}

/// The echo a `BadRequest` under `id` carries — the next reply must be one.
fn bad_request(raw: &mut TcpStream, id: u64) -> String {
    match read_reply(raw) {
        (got, Reply::BadRequest(message)) if got == id => message,
        other => panic!("expected a BadRequest under id {id}, got {other:?}"),
    }
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
    // The server answers with a BadRequest carrying the WireError… tagged
    // with request id 0 (no request could be framed to echo an id).
    let message = bad_request(&mut poison, 0);
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
    header.push(render_tag());
    header.extend_from_slice(&64u32.to_le_bytes());
    header.extend_from_slice(&[1, 2, 3, 4, 5]);
    let mut poison = TcpStream::connect(server.addr()).expect("poison connect");
    // A PING round trip first, so the connection sits in the server's poll
    // set before it tears.
    poison.write_all(&Request::Ping(1).framed(1)).unwrap();
    assert!(matches!(read_reply(&mut poison), (1, Reply::Pong(_))));
    poison.write_all(&header).expect("write torn frame");
    drop(poison); // closes the socket mid-payload

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

    // A request both malformed and over the bound is refused for its
    // payload: a frame is decoded before the door looks at the session.
    let server = RenderServer::start(ServerConfig {
        shards: 1,
        max_tickets_per_session: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let submit = |id: u64| Request::Submit(Cow::Owned(tiny_request(id as f32))).framed(id);
    for id in 1..=2 {
        raw.write_all(&submit(id)).unwrap();
        assert_eq!(read_reply(&mut raw), (id, Reply::Submitted(id)));
    }
    let submit_tag = Request::Submit(Cow::Owned(tiny_request(0.0))).tag();
    write_frame(&mut raw, submit_tag, 3, &[0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
    let message = bad_request(&mut raw, 3);
    assert!(message.contains("truncated"), "unexpected echo: {message}");
    raw.write_all(&submit(4)).unwrap();
    match read_reply(&mut raw) {
        (4, Reply::TicketsFull(full)) => assert_eq!((full.outstanding, full.limit), (2, 2)),
        other => panic!("expected TicketsFull under id 4, got {other:?}"),
    }
    server.shutdown();
}

/// A request the server door refuses is the caller's error, not the
/// node's: through a 2-node pool it goes out once and comes back typed, as
/// `BackendError::Unsupported`, and the pooled connection it went out on
/// carries the next render without a new handshake.
#[test]
fn a_refused_request_neither_fails_over_nor_drops_its_connection() {
    let servers = [tiny_server(), tiny_server()];
    let addrs = servers.iter().map(RenderServer::addr).collect();
    let pool = NodePool::new(
        Directory::new(addrs).expect("directory"),
        NodePoolConfig::default(),
    );
    let frames_in = || -> u64 {
        let count = |server: &RenderServer| server.stats().obs.counter("net.frames_in");
        servers
            .iter()
            .map(|server| count(server).unwrap_or(0))
            .sum()
    };
    let scene = |image| {
        let mut request = tiny_request(0.0).to_request().expect("valid request");
        request.config.image = image;
        request
    };

    let refused = scene((0, 8));
    match pool.render(refused.clone()) {
        Err(BackendError::Unsupported(why)) => {
            assert!(why.contains("degenerate 0x8 image"), "{why}")
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    assert_eq!(frames_in(), 2, "one handshake PING and one RENDER");

    // A valid request on the same node rides the same connection.
    let node = pool.node_for(&refused);
    let valid = (8..64)
        .map(|width| scene((width, 8)))
        .find(|request| pool.node_for(request) == node)
        .expect("some image size routes to the refused request's node");
    pool.render(valid).expect("render after a refusal");
    assert_eq!(frames_in(), 3, "no new handshake");
    for server in servers {
        server.shutdown();
    }
}

/// Shutdown drains a *paused* service instead of deadlocking: a RENDER
/// admitted while the queue is paused still resolves because shutdown
/// resumes the shards before the event loop's last turns.
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
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    // The PING's answer means the RENDER before it reached the paused
    // queue; then shut down: the frame must render during the drain and
    // the join must not hang.
    raw.write_all(&render_frame(&tiny_request(5.0), 1)).unwrap();
    raw.write_all(&Request::Ping(2).framed(2)).unwrap();
    assert!(matches!(read_reply(&mut raw), (2, Reply::Pong(_))));
    let report = server.shutdown();
    assert_eq!(report.frames_completed, 1);
    match read_reply(&mut raw) {
        (1, Reply::Frame(frame)) => assert!(!frame.from_cache),
        other => panic!("expected the FRAME under id 1, got {other:?}"),
    }
}

#[test]
fn wrong_version_and_malformed_payloads_are_clean_errors() {
    let server = tiny_server();

    // Wrong protocol version (a v2 frame has the same 11-byte header
    // layout): a typed UnsupportedVersion reply naming both versions,
    // then a clean close — not a silent drop.
    let mut old = TcpStream::connect(server.addr()).expect("connect");
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(&999u16.to_le_bytes());
    frame.push(Request::Ping(0).tag());
    frame.extend_from_slice(&0u32.to_le_bytes());
    old.write_all(&frame).unwrap();
    let versions = UnsupportedVersion {
        got: 999,
        want: wire::VERSION,
    };
    assert_eq!(
        read_reply(&mut old),
        (0, Reply::UnsupportedVersion(versions))
    );
    match read_frame(&mut old, wire::DEFAULT_MAX_PAYLOAD) {
        Err(wire::WireError::ConnectionClosed) | Err(wire::WireError::Io(_)) => {}
        other => panic!("wrong-version connection should be closed, got {other:?}"),
    }

    // A well-framed RENDER whose payload is junk: the connection SURVIVES
    // (framing is intact) and the next request on it succeeds.
    let mut junk = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut junk, render_tag(), 7, &[0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
    bad_request(&mut junk, 7); // echoes the request id
    junk.write_all(&Request::Ping(9).framed(8)).unwrap();
    match read_reply(&mut junk) {
        (8, Reply::Pong(pong)) => assert_eq!(pong.token, 9),
        other => panic!("expected a Pong under id 8, got {other:?}"),
    }

    // A well-framed request under a tag no request has (here, a reply's):
    // typed echo under its id, then close — a peer dispatching unknown
    // requests is not speaking this protocol. (A socket left open would
    // time out instead.)
    let mut stranger = TcpStream::connect(server.addr()).expect("connect");
    stranger
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut stranger, Reply::Goodbye.tag(), 5, &[]).unwrap();
    let message = bad_request(&mut stranger, 5);
    assert!(
        message.contains("unknown opcode"),
        "unexpected echo: {message}"
    );
    match read_frame(&mut stranger, wire::DEFAULT_MAX_PAYLOAD) {
        Err(wire::WireError::ConnectionClosed) => {}
        Err(wire::WireError::Io(std::io::ErrorKind::ConnectionReset)) => {}
        other => panic!("an unknown tag should close the connection, got {other:?}"),
    }

    // An oversized declared length: typed TooLarge echo, then close.
    let mut huge = TcpStream::connect(server.addr()).expect("connect");
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(&wire::VERSION.to_le_bytes());
    frame.push(render_tag());
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    huge.write_all(&frame).unwrap();
    assert!(bad_request(&mut huge, 0).contains("exceeds"));

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
        raw.write_all(&render_frame(&request, id)).unwrap();
        let message = bad_request(&mut raw, id);
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
        for (id, door) in [
            (1, Request::Submit(Cow::Borrowed(&request))),
            (2, Request::Prewarm(0, Cow::Borrowed(&request))),
        ] {
            conn.write_all(&door.framed(id)).unwrap();
            let message = bad_request(&mut conn, id);
            assert!(message.contains(why), "unexpected echo: {message}");
        }
        // The same connection renders on its unspent token, and so does a
        // fresh one.
        conn.write_all(&render_frame(&tiny_request(0.0), 3))
            .unwrap();
        assert!(
            matches!(read_reply(&mut conn), (3, Reply::Frame(_))),
            "{why}"
        );
        assert_service_healthy(&server, 70.0);
    }
    // Same connection, same bucket: the one token is still there.
    raw.write_all(&render_frame(&tiny_request(0.0), 6)).unwrap();
    assert!(matches!(read_reply(&mut raw), (6, Reply::Frame(_))));

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
        let request = Cow::Borrowed(&request);
        let door = [Request::Render(request.clone()), Request::Submit(request)];
        raw.write_all(&door[id as usize % 2].framed(id)).unwrap();
        let message = bad_request(&mut raw, id);
        assert!(message.contains(why), "image {image:?}: {message}");
    }
    // Same connection, same bucket: the one token is still there, and an
    // image that exactly fills the bound is served.
    raw.write_all(&render_frame(&tiny_request(0.0), 9)).unwrap();
    let (tag, id, frame) = read_frame(&mut raw, wire::DEFAULT_MAX_PAYLOAD).expect("frame");
    assert!(matches!(Reply::decode(tag, &frame), Ok(Reply::Frame(_))));
    assert_eq!((id, frame.len() as u64), (9, 17 + 8 * 8 * 16));

    // Nothing was rendered for the refused ones.
    assert_eq!(server.shutdown().frames_completed, 1);
}
