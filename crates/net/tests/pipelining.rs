//! Wire v3 multiplexing: one connection, many in-flight renders, replies
//! redeemed out of order — plus the protocol-level guard rails that make
//! that safe (duplicate request-id rejection, id echo on every reply).

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

use mgpu_net::wire::{self, opcode, read_frame, write_frame};
use mgpu_net::{NetSceneRequest, RenderClient, RenderServer, ServerConfig};
use mgpu_serve::ServiceConfig;
use mgpu_voldata::Dataset;
use mgpu_volren::{RenderConfig, TransferFunction};

fn server(shards: usize, workers: usize) -> RenderServer {
    RenderServer::start(ServerConfig {
        shards,
        service: ServiceConfig {
            workers,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind loopback server")
}

fn sized_request(azimuth: f32, size: u32) -> NetSceneRequest {
    NetSceneRequest::orbit_dataset(
        Dataset::Skull,
        8,
        1,
        azimuth,
        0.0,
        &TransferFunction::bone(),
    )
    .with_config(RenderConfig::test_size(size))
}

/// The headline v3 property: a single connection carries 10 concurrent
/// in-flight renders, and collecting them in *reverse* issue order works —
/// each reply is matched to its request by id, not by arrival position.
/// Distinct image sizes per request make any misrouting visible.
#[test]
fn one_connection_carries_ten_inflight_renders_redeemed_in_reverse() {
    let server = server(2, 2);
    let client = RenderClient::connect(server.addr()).expect("connect");

    let pending: Vec<_> = (0..10u32)
        .map(|i| {
            let size = 4 + i;
            let handle = client
                .begin_render(&sized_request(i as f32 * 13.0, size))
                .expect("issue render");
            (size, handle)
        })
        .collect();

    // All ten were issued without waiting for a single reply.
    for (i, (_, handle)) in pending.iter().enumerate() {
        assert_ne!(handle.id(), 0, "request ids are never 0");
        for (_, other) in pending.iter().skip(i + 1) {
            assert_ne!(handle.id(), other.id(), "ids are unique per connection");
        }
    }

    for (size, handle) in pending.into_iter().rev() {
        let frame = client.finish_render(handle).expect("collect render");
        assert_eq!(
            (frame.image.width(), frame.image.height()),
            (size, size),
            "reply correlated to the wrong request"
        );
    }

    let report = server.shutdown();
    assert_eq!(report.frames_completed, 10);
    assert_eq!(report.frames_failed, 0);
}

/// Many threads sharing one client (the NodePool shape): all renders
/// multiplex on the one socket concurrently and every thread gets its own
/// frame back.
#[test]
fn threads_share_one_pipelined_connection() {
    let server = server(2, 2);
    let client = Arc::new(RenderClient::connect(server.addr()).expect("connect"));

    let threads: Vec<_> = (0..8u32)
        .map(|i| {
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                let size = 4 + i;
                let frame = client
                    .render(&sized_request(i as f32 * 29.0, size))
                    .expect("threaded render");
                assert_eq!(frame.image.width(), size);
            })
        })
        .collect();
    for t in threads {
        t.join().expect("render thread");
    }

    let report = server.shutdown();
    assert_eq!(report.frames_completed, 8);
}

/// Tickets and renders interleave on one connection: a slow-ish render is
/// in flight while submits ack and redeems resolve around it.
#[test]
fn submits_and_renders_interleave_on_one_connection() {
    let server = server(1, 1);
    let client = RenderClient::connect(server.addr()).expect("connect");

    let in_flight = client
        .begin_render(&sized_request(0.0, 24))
        .expect("issue render");
    let ticket_a = client.submit(&sized_request(10.0, 8)).expect("submit a");
    let ticket_b = client.submit(&sized_request(20.0, 12)).expect("submit b");

    // Redeem in reverse submit order, then collect the render last.
    assert_eq!(client.redeem(ticket_b).expect("redeem b").image.width(), 12);
    assert_eq!(client.redeem(ticket_a).expect("redeem a").image.width(), 8);
    assert_eq!(
        client
            .finish_render(in_flight)
            .expect("render")
            .image
            .width(),
        24
    );

    let report = server.shutdown();
    assert_eq!(report.frames_completed, 3);
}

/// A request id may name only one outstanding request per connection: the
/// duplicate gets a typed BAD_REQUEST tagged with that id, and the
/// connection (plus the original request) survives. The same holds for a
/// REDEEM of an id whose frame is already owed to someone.
#[test]
fn duplicate_request_ids_are_rejected_and_the_connection_survives() {
    let server = server(1, 1);
    let mut raw = TcpStream::connect(server.addr()).expect("connect");

    let payload = wire::encode_request(&sized_request(0.0, 8));
    write_frame(&mut raw, opcode::SUBMIT, 9, &payload).expect("first submit");
    write_frame(&mut raw, opcode::SUBMIT, 9, &payload).expect("duplicate submit");

    // The first use of id 9 acks normally…
    let (op, id, ack) = read_frame(&mut raw, wire::DEFAULT_MAX_PAYLOAD).expect("ack");
    assert_eq!((op, id), (opcode::SUBMITTED, 9));
    assert_eq!(wire::decode::<u64>(&ack).expect("ticket"), 9);
    // …the duplicate is refused, typed and tagged with the id.
    let (op, id, echo) = read_frame(&mut raw, wire::DEFAULT_MAX_PAYLOAD).expect("refusal");
    assert_eq!((op, id), (opcode::BAD_REQUEST, 9));
    let message: String = wire::decode(&echo).expect("echo decodes");
    assert!(
        message.contains("duplicate request id 9"),
        "unexpected echo: {message}"
    );

    // The connection still works: redeem the original ticket on it.
    write_frame(&mut raw, opcode::REDEEM, 10, &wire::encode(&9u64)).expect("redeem");
    let (op, id, _frame) = read_frame(&mut raw, wire::DEFAULT_MAX_PAYLOAD).expect("frame");
    assert_eq!((op, id), (opcode::FRAME, 10));
    raw.flush().unwrap();

    server.shutdown();

    // A REDEEM naming an in-flight RENDER's id: that frame is already owed
    // to the RENDER, so the REDEEM is refused under its own id and the
    // RENDER is still answered. (The paused service holds it in flight.)
    let paused = RenderServer::start(ServerConfig {
        shards: 1,
        service: ServiceConfig {
            workers: 1,
            start_paused: true,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let mut raw = TcpStream::connect(paused.addr()).expect("connect");
    write_frame(&mut raw, opcode::RENDER, 20, &payload).expect("render");
    write_frame(&mut raw, opcode::REDEEM, 21, &wire::encode(&20u64)).expect("redeem");
    let (op, id, echo) = read_frame(&mut raw, wire::DEFAULT_MAX_PAYLOAD).expect("refusal");
    assert_eq!((op, id), (opcode::BAD_REQUEST, 21));
    let message: String = wire::decode(&echo).expect("echo decodes");
    assert!(
        message.contains("already being redeemed"),
        "unexpected echo: {message}"
    );
    paused.resume();
    let (op, id, _frame) = read_frame(&mut raw, wire::DEFAULT_MAX_PAYLOAD).expect("frame");
    assert_eq!((op, id), (opcode::FRAME, 20));
    paused.shutdown();
}

/// Once a ticket's render completes *after* its REDEEM arrived (the parked
/// redeem path), the reply carries the REDEEM's id — and a second redeem of
/// the same ticket is a typed unknown-ticket error.
#[test]
fn parked_redeems_resolve_and_tickets_redeem_once() {
    let server = server(1, 1);
    let client = RenderClient::connect(server.addr()).expect("connect");

    let ticket = client.submit(&sized_request(5.0, 16)).expect("submit");
    // Redeem immediately: the render may still be in flight, parking the
    // redeem server-side until the completion answers it.
    let frame = client.redeem(ticket).expect("redeem");
    assert_eq!(frame.image.width(), 16);

    match client.redeem(ticket) {
        Err(mgpu_net::ClientError::Protocol(what)) => {
            assert!(what.contains("unknown ticket"), "unexpected: {what}")
        }
        other => panic!("double redeem must be a typed error, got {other:?}"),
    }

    server.shutdown();
}
