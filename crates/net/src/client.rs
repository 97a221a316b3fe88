//! The client side of the wire: the [`ClientConfig`] that bounds its
//! transport, and the crate-private `RenderClient` — one **pipelined** TCP
//! connection, which [`crate::NodePool`] keeps one of per node and is the
//! only caller of — with the `ClientError` its calls fail with.
//! Every request carries a fresh `request_id` and the server replies in
//! *completion* order, so one connection carries many in-flight requests
//! at once:
//!
//! - `render` blocks until the frame arrives, but concurrent `render`
//!   calls from many threads interleave on the same socket.
//! - `submit` waits only for the server's admission verdict (a fast ack),
//!   returning a `NetTicket` while the render proceeds server-side;
//!   `redeem` exchanges the ticket for its frame.
//! - `stats`, `traces`, `drain`, `resume` and `prewarm` are the pool's
//!   observability and control calls.
//!
//! Every in-process error type still crosses the socket intact: a refusal
//! is the [`BackendError`] the caller receives, admission shedding the
//! same `AdmissionError`, a caught render panic the same `FrameError`
//! message. Each `Reply` becomes a result in one exhaustive `match`
//! (`answer`), so a reply this client does not handle fails to compile
//! here.
//!
//! Internally the client is a mailbox: all methods take `&self` and are
//! safe to call from many threads. Writers serialize whole frames through
//! one lock; on the read side one caller at a time is elected *reader* and
//! pulls the next frame off the socket, filing it in an inbox keyed by
//! `request_id` — everyone else parks on a condvar and checks the inbox
//! when woken. A transport error poisons the mailbox: every waiter (and
//! every later call) fails with the same typed error, because a
//! desynchronized byte stream cannot be trusted again.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use mgpu_obs::CompletedTrace;
use mgpu_serve::{BackendError, FrameError};

use crate::heat::NetStats;
use crate::wire::{
    DrainState, FrameReader, NetFrame, NetSceneRequest, Prewarmed, Reply, Request, TicketsFull,
    UnsupportedVersion, WireError, DEFAULT_MAX_PAYLOAD,
};

/// Why a call on one connection failed, in the four classes the pool's
/// core sorts on (`pool::outcome`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ClientError {
    /// The node answered and refused this one request: its admission
    /// shed, its rate limit, its ticket bound, a failed render, or a
    /// malformed request (`BadRequest` under the request's own id, which
    /// any node would refuse: [`BackendError::Unsupported`]). The
    /// connection carries on.
    Refused(BackendError),
    /// The connection failed, closed or timed out, or the node answered
    /// something this client cannot read or refused the connection
    /// itself. Carries the message the caller sees.
    Lost(String),
    /// The node is draining (wire v4): it refuses new work but still
    /// answers in-flight renders and parked redeems. `epoch` is the
    /// directory epoch the drain was announced under — a client routing
    /// here is using stale placement.
    Draining { epoch: u64 },
    /// The node finished draining and said `GOODBYE` — every outstanding
    /// request was answered and the connection is done for good.
    Goodbye,
}

impl From<WireError> for ClientError {
    fn from(err: WireError) -> ClientError {
        ClientError::Lost(err.to_string())
    }
}

/// A redeemable handle from [`RenderClient::submit`] — the wire analogue of
/// an in-process `FrameTicket`. Its id *is* the `SUBMIT` frame's
/// `request_id`. Tickets are connection-scoped: redeem them on the client
/// that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NetTicket {
    id: u64,
}

/// Client-side transport tuning: how long to wait for a connection and for
/// each response before declaring the node dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection; `None` uses the OS
    /// default (which can be minutes against a black-holed address).
    pub connect_timeout: Option<Duration>,
    /// Bound on each blocking read of a response. Without it, a node that
    /// accepted the connection but died before replying hangs a blocking
    /// `render` indefinitely. Must exceed the longest legitimate render
    /// (plus queue wait) the workload can produce — a timeout is
    /// indistinguishable from a dead node and poisons the connection.
    pub read_timeout: Option<Duration>,
    /// Cap this client accepts on one response frame. A 1024² float-RGBA
    /// frame is 16 MiB; request images larger than ~2048² exceed the
    /// 64 MiB default and need a higher bound here — once an oversized
    /// response header is rejected, the unread payload poisons the
    /// connection for further requests.
    pub max_payload: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: None,
            read_timeout: None,
            max_payload: DEFAULT_MAX_PAYLOAD,
        }
    }
}

/// Replies filed by `request_id`, plus the shared connection state.
pub(crate) struct Mailbox {
    /// Each reply decoded (a `FRAME` in place as it arrived), or why its
    /// payload did not decode.
    pub(crate) inbox: HashMap<u64, Result<Reply, WireError>>,
    /// Someone currently holds the read half pulling the next frame.
    pub(crate) reading: bool,
    /// A transport-level failure poisons the whole connection: everyone
    /// gets the same typed error.
    pub(crate) dead: Option<ClientError>,
}

/// A pipelined render-service client over one TCP connection. One session =
/// one connection: the server's rate limiter and outstanding-request table
/// live per connection. All methods take `&self`; share a client across
/// threads (e.g. in an `Arc`) and their requests multiplex on the socket.
pub(crate) struct RenderClient {
    write: Mutex<TcpStream>,
    read: Mutex<TcpStream>,
    mail: Mutex<Mailbox>,
    delivered: Condvar,
    next_id: AtomicU64,
    max_payload: u64,
}

impl RenderClient {
    /// Connect to `addr` within `config`'s transport bounds, and handshake
    /// (a `PING` round-trip that also verifies the protocol version). A
    /// read timeout surfaces as a lost connection on the call that hit it
    /// and poisons the connection (a late reply would desynchronize the
    /// frame stream).
    pub(crate) fn connect_with(
        addr: SocketAddr,
        config: ClientConfig,
    ) -> Result<RenderClient, ClientError> {
        let stream = match config.connect_timeout {
            None => TcpStream::connect(addr),
            Some(bound) => TcpStream::connect_timeout(&addr, bound),
        }
        .map_err(WireError::from)?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(config.read_timeout)
            .map_err(WireError::from)?;
        let read = stream.try_clone().map_err(WireError::from)?;
        let client = RenderClient {
            write: Mutex::new(stream),
            read: Mutex::new(read),
            mail: Mutex::new(Mailbox {
                inbox: HashMap::new(),
                reading: false,
                dead: None,
            }),
            delivered: Condvar::new(),
            next_id: AtomicU64::new(1),
            max_payload: config.max_payload,
        };
        client.ping()?;
        Ok(client)
    }

    /// Round-trip a `PING`, checking the echoed token.
    pub(crate) fn ping(&self) -> Result<(), ClientError> {
        let token: u64 = 0x6D67_7075; // arbitrary echo payload
        let Reply::Pong(pong) = self.call(&Request::Ping(token))? else {
            return Err(unexpected());
        };
        if pong.token != token {
            return Err(ClientError::Lost(format!(
                "pong echoed {:#x}, expected {token:#x}",
                pong.token
            )));
        }
        Ok(())
    }

    /// Render one frame, blocking until it is delivered. Concurrent
    /// `render` calls (from many threads sharing this client) all proceed
    /// at once; replies are matched by `request_id`. Admission shedding surfaces as a
    /// typed refusal — the server answers inline instead of parking the
    /// request (the one retry loop is `NodePool`'s).
    pub(crate) fn render(&self, request: &NetSceneRequest) -> Result<NetFrame, ClientError> {
        let id = self.fresh_id();
        self.send(id, &Request::Render(Cow::Borrowed(request)))?;
        self.frame(id)
    }

    /// Fire-and-forget submit — the wire analogue of `try_submit`: waits
    /// only for the server's admission verdict (a fast ack sent before the
    /// render runs), shedding with a refusal under overload, and returns a ticket while the server renders. Redeem
    /// with [`RenderClient::redeem`], or drop the ticket (the frame still
    /// lands in the server's cache).
    pub(crate) fn submit(&self, request: &NetSceneRequest) -> Result<NetTicket, ClientError> {
        let Reply::Submitted(id) = self.call(&Request::Submit(Cow::Borrowed(request)))? else {
            return Err(unexpected());
        };
        Ok(NetTicket { id })
    }

    /// Block until a submitted frame is ready. A ticket redeems once.
    pub(crate) fn redeem(&self, ticket: NetTicket) -> Result<NetFrame, ClientError> {
        let id = self.fresh_id();
        self.send(id, &Request::Redeem(ticket.id))?;
        self.frame(id)
    }

    /// Fetch the server's per-shard and node snapshots ([`NetStats`] derives
    /// the merged service report and per-shard heat from them).
    pub(crate) fn stats(&self) -> Result<NetStats, ClientError> {
        let Reply::StatsReport(stats) = self.call(&Request::Stats)? else {
            return Err(unexpected());
        };
        Ok(stats)
    }

    /// Fetch the server's most recently completed request traces, newest
    /// first, at most `max`. Trace ids are the `request_id`s the requests
    /// were submitted under, so a client can find its own.
    pub(crate) fn traces(&self, max: u32) -> Result<Vec<CompletedTrace>, ClientError> {
        let Reply::Traces(traces) = self.call(&Request::Traces(max))? else {
            return Err(unexpected());
        };
        Ok(traces)
    }

    /// Ask the node to drain (wire v4): stop accepting new RENDER/SUBMIT/PREWARM,
    /// keep answering in-flight work and parked redeems, `GOODBYE` when
    /// empty. `epoch` is the directory epoch the drain belongs to — the
    /// node echoes it in STATS so stale clients are detectable. Draining
    /// an already-draining node is idempotent. Returns the node's drain
    /// state (including how much work is still outstanding).
    pub(crate) fn drain(&self, epoch: u64) -> Result<DrainState, ClientError> {
        self.drain_state(Request::Drain(epoch))
    }

    /// Undo a drain: the node accepts new work again. Resuming a node that
    /// is not draining is idempotent.
    pub(crate) fn resume(&self, epoch: u64) -> Result<DrainState, ClientError> {
        self.drain_state(Request::Resume(epoch))
    }

    fn drain_state(&self, request: Request) -> Result<DrainState, ClientError> {
        let Reply::DrainState(state) = self.call(&request)? else {
            return Err(unexpected());
        };
        Ok(state)
    }

    /// Hint the node to populate its plan cache for `request`'s plan key
    /// (the migration pre-warm of the elastic pool: the brick grid and an
    /// empty brick store), and announce directory `epoch` while at it.
    /// Returns the shard routed to and whether a plan was actually built
    /// (`false` = already warm); a draining node answers
    /// `ClientError::Draining`.
    pub(crate) fn prewarm(
        &self,
        epoch: u64,
        request: &NetSceneRequest,
    ) -> Result<(u32, bool), ClientError> {
        let request = Request::Prewarm(epoch, Cow::Borrowed(request));
        let Reply::Prewarmed(Prewarmed { shard, built }) = self.call(&request)? else {
            return Err(unexpected());
        };
        Ok((shard, built))
    }

    /// One request/reply exchange: send `request` under a fresh id and
    /// wait for the success reply tagged with the same id (a refusal is
    /// its `ClientError`).
    fn call(&self, request: &Request) -> Result<Reply, ClientError> {
        let id = self.fresh_id();
        self.send(id, request)?;
        self.await_reply(id)
    }

    /// The frame a `Render` or `Redeem` sent under `id` is answered with.
    fn frame(&self, id: u64) -> Result<NetFrame, ClientError> {
        let Reply::Frame(frame) = self.await_reply(id)? else {
            return Err(unexpected());
        };
        Ok(frame)
    }

    /// Request ids only need to be unique among a connection's
    /// *outstanding* requests; a monotone counter never reuses one at all.
    /// 0 is reserved for the server's unsolicited frames.
    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Write one whole request frame (serialized so concurrent requests
    /// never interleave bytes). Fails fast if the connection is poisoned.
    fn send(&self, request_id: u64, request: &Request) -> Result<(), ClientError> {
        if let Some(dead) = &self.mail.lock().expect("client mailbox poisoned").dead {
            return Err(dead.clone());
        }
        let frame = request.framed(request_id);
        let mut stream = self.write.lock().expect("client write half poisoned");
        stream.write_all(&frame).map_err(WireError::from)?;
        stream.flush().map_err(WireError::from)?;
        Ok(())
    }

    /// Block until the reply for `id` is in the inbox, and [`answer`] it.
    /// Leader/follower: whoever arrives while nobody is reading takes the
    /// read half and pulls exactly one frame, files it, and wakes everyone;
    /// followers wait on the condvar and re-check. Each frame is read by *somebody*,
    /// so no reply can starve even if its requester arrives late.
    fn await_reply(&self, id: u64) -> Result<Reply, ClientError> {
        let mut mail = self.mail.lock().expect("client mailbox poisoned");
        loop {
            if let Some(reply) = mail.inbox.remove(&id) {
                return answer(id, reply?);
            }
            if let Some(dead) = &mail.dead {
                return Err(dead.clone());
            }
            if mail.reading {
                mail = self.delivered.wait(mail).expect("client mailbox poisoned");
                continue;
            }
            // Become the reader. The mailbox lock is released while
            // blocked on the socket so followers can park and late
            // arrivals can check the inbox.
            mail.reading = true;
            drop(mail);
            let result = {
                let mut stream = self.read.lock().expect("client read half poisoned");
                // Blocking: `None` means the read timeout expired mid-wait.
                FrameReader::new()
                    .read_reply(&mut *stream, self.max_payload)
                    .and_then(|frame| frame.ok_or(WireError::Io(std::io::ErrorKind::WouldBlock)))
            };
            mail = self.mail.lock().expect("client mailbox poisoned");
            mail.reading = false;
            match result {
                Ok((reply_id, reply)) => file(&mut mail, reply_id, reply),
                // The first verdict wins: a read error after a GOODBYE is
                // just the drained node closing, not a new failure.
                Err(err) => {
                    if mail.dead.is_none() {
                        mail.dead = Some(err.into());
                    }
                }
            }
            self.delivered.notify_all();
        }
    }
}

/// File one received reply. Unsolicited frames (`request_id` 0) are
/// connection verdicts, not replies: a version mismatch, an
/// unframable-input echo or a `GOODBYE` (the drained node answered
/// everything and is closing) poisons the connection with a typed error
/// for every waiter, rather than a confusing EOF.
pub(crate) fn file(mail: &mut Mailbox, reply_id: u64, reply: Result<Reply, WireError>) {
    if reply_id != 0 {
        mail.inbox.insert(reply_id, reply);
        return;
    }
    if mail.dead.is_some() {
        return; // the first verdict wins
    }
    mail.dead = Some(match reply.map(|reply| answer(0, reply)) {
        Err(err) => err.into(),
        Ok(Err(verdict)) => verdict,
        Ok(Ok(reply)) => ClientError::Lost(format!("unsolicited {reply:?}")),
    });
}

/// The one place a reply becomes a result: every refusal is its class of
/// [`ClientError`], every success comes back for the call that asked for
/// it to unpack. `id` is the request id the reply came under: a
/// `BadRequest` under 0 is the server's verdict on the connection, under
/// any other id its refusal of that one request.
pub(crate) fn answer(id: u64, reply: Reply) -> Result<Reply, ClientError> {
    let refused = |err| Err(ClientError::Refused(err));
    match reply {
        Reply::Pong(_)
        | Reply::Frame(_)
        | Reply::Submitted(_)
        | Reply::StatsReport(_)
        | Reply::Traces(_)
        | Reply::DrainState(_)
        | Reply::Prewarmed(_) => Ok(reply),
        Reply::Rejected(err) => refused(BackendError::Admission(err)),
        Reply::Throttled(retry_after) => refused(BackendError::Throttled { retry_after }),
        Reply::Failed(message) => refused(BackendError::Render(FrameError::new(message))),
        Reply::TicketsFull(TicketsFull { outstanding, limit }) => {
            refused(BackendError::TicketsFull { outstanding, limit })
        }
        Reply::UnsupportedVersion(UnsupportedVersion { got, want }) => Err(ClientError::Lost(
            format!("server speaks wire protocol v{want}, this client sent v{got}"),
        )),
        Reply::Goodbye => Err(ClientError::Goodbye),
        Reply::Draining(epoch) => Err(ClientError::Draining { epoch }),
        Reply::BadRequest(echo) if id == 0 => Err(ClientError::Lost(format!(
            "server rejected request: {echo}"
        ))),
        Reply::BadRequest(echo) => refused(BackendError::Unsupported(echo)),
    }
}

/// A success reply of another kind than the request asked for.
pub(crate) fn unexpected() -> ClientError {
    ClientError::Lost("the server answered with a reply of another kind".into())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::Arc;

    use mgpu_obs::names;
    use mgpu_serve::{Priority, SceneRequest, ServiceConfig};
    use mgpu_voldata::Dataset;
    use mgpu_volren::camera::Scene;
    use mgpu_volren::{RenderConfig, TransferFunction};
    use proptest::prelude::*;

    use crate::pool::{NodePool, NodePoolConfig};
    use crate::server::{RenderServer, ServerConfig};
    use crate::wire::tests::read_frame;
    use crate::wire::Pong;

    /// A handshaken client with the default transport bounds (none).
    pub(crate) fn connect(addr: SocketAddr) -> RenderClient {
        RenderClient::connect_with(addr, ClientConfig::default()).expect("connect")
    }

    /// Issue a `RENDER` without waiting for its reply: the request id to
    /// collect it under with `frame`, in any order.
    fn begin(client: &RenderClient, request: &NetSceneRequest) -> u64 {
        let id = client.fresh_id();
        client
            .send(id, &Request::Render(Cow::Borrowed(request)))
            .expect("issue render");
        id
    }

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
        crate::node::tests::scene(azimuth, size)
    }

    /// The headline v3 property: a single connection carries 10 concurrent
    /// in-flight renders, and collecting them in *reverse* issue order works —
    /// each reply is matched to its request by id, not by arrival position.
    /// Distinct image sizes per request make any misrouting visible.
    #[test]
    fn one_connection_carries_ten_inflight_renders_redeemed_in_reverse() {
        let server = server(2, 2);
        let client = connect(server.addr());

        let pending: Vec<_> = (0..10u32)
            .map(|i| {
                let size = 4 + i;
                (size, begin(&client, &sized_request(i as f32 * 13.0, size)))
            })
            .collect();

        // All ten were issued without waiting for a single reply.
        for (i, (_, id)) in pending.iter().enumerate() {
            assert_ne!(*id, 0, "request ids are never 0");
            for (_, other) in pending.iter().skip(i + 1) {
                assert_ne!(id, other, "ids are unique per connection");
            }
        }

        for (size, id) in pending.into_iter().rev() {
            let frame = client.frame(id).expect("collect render");
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
    /// frame back. Bounded: a reply the mailbox never hands its caller
    /// fails the test instead of hanging it.
    #[test]
    fn threads_share_one_pipelined_connection() {
        let server = server(2, 2);
        let client = Arc::new(connect(server.addr()));

        let (done, finished) = std::sync::mpsc::channel();
        for i in 0..8u32 {
            let (client, done) = (Arc::clone(&client), done.clone());
            std::thread::spawn(move || {
                let size = 4 + i;
                let frame = client
                    .render(&sized_request(i as f32 * 29.0, size))
                    .expect("threaded render");
                done.send((size, frame.image.width())).expect("report");
            });
        }
        drop(done);
        for _ in 0..8 {
            let (size, width) = finished
                .recv_timeout(Duration::from_secs(30))
                .expect("every render thread returns its frame");
            assert_eq!(width, size);
        }

        let report = server.shutdown();
        assert_eq!(report.frames_completed, 8);
    }

    /// Tickets and renders interleave on one connection: a slow-ish render is
    /// in flight while submits ack and redeems resolve around it.
    #[test]
    fn submits_and_renders_interleave_on_one_connection() {
        let server = server(1, 1);
        let client = connect(server.addr());

        let in_flight = begin(&client, &sized_request(0.0, 24));
        let ticket_a = client.submit(&sized_request(10.0, 8)).expect("submit a");
        let ticket_b = client.submit(&sized_request(20.0, 12)).expect("submit b");

        // Redeem in reverse submit order, then collect the render last.
        assert_eq!(client.redeem(ticket_b).expect("redeem b").image.width(), 12);
        assert_eq!(client.redeem(ticket_a).expect("redeem a").image.width(), 8);
        assert_eq!(client.frame(in_flight).expect("render").image.width(), 24);

        let report = server.shutdown();
        assert_eq!(report.frames_completed, 3);
    }

    /// Once a ticket's render completes *after* its REDEEM arrived (the parked
    /// redeem path), the reply carries the REDEEM's id — and a second redeem of
    /// the same ticket is a typed unknown-ticket error.
    #[test]
    fn parked_redeems_resolve_and_tickets_redeem_once() {
        let server = server(1, 1);
        let client = connect(server.addr());

        let ticket = client.submit(&sized_request(5.0, 16)).expect("submit");
        // Redeem immediately: the render may still be in flight, parking the
        // redeem server-side until the completion answers it.
        let frame = client.redeem(ticket).expect("redeem");
        assert_eq!(frame.image.width(), 16);

        match client.redeem(ticket) {
            Err(ClientError::Refused(BackendError::Unsupported(what))) => {
                assert!(what.contains("unknown ticket"), "unexpected: {what}")
            }
            other => panic!("double redeem must be a typed error, got {other:?}"),
        }

        server.shutdown();
    }

    /// A ticket the connection never issued is the server's own typed
    /// refusal, and the session carries on. (A pool ticket cannot name
    /// one: the pool refuses an unknown `PoolTicket` itself.)
    #[test]
    fn a_never_issued_ticket_is_refused_typed() {
        let server = server(1, 1);
        let client = connect(server.addr());
        match client.redeem(NetTicket { id: 0xDEAD }) {
            Err(ClientError::Refused(BackendError::Unsupported(msg))) => {
                assert!(msg.contains("unknown ticket"), "{msg}")
            }
            other => panic!("unknown ticket must fail typed, got {other:?}"),
        }
        // The session (and server) survive the bad redemption.
        client
            .render(&sized_request(15.0, 8))
            .expect("render after a bad redemption");
        server.shutdown();
    }

    /// A GOODBYE seals the client's connection: the call it meets, and every
    /// call after it, fails as `ClientError::Goodbye`. Which sessions a node
    /// says GOODBYE to, and when, is the protocol core's to decide; its tests
    /// (`node::tests`) drive that drain event by event.
    #[test]
    fn a_goodbye_seals_the_client_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("bound address");
        let node = std::thread::spawn(move || {
            let (mut socket, _) = listener.accept().expect("accept");
            // Answer the client's handshake PING, then meet its next request
            // with a GOODBYE.
            let (tag, id, payload) =
                read_frame(&mut socket, DEFAULT_MAX_PAYLOAD).expect("handshake");
            let Ok(Request::Ping(token)) = Request::decode(tag, &payload) else {
                panic!("the handshake is a PING");
            };
            let pong = Reply::Pong(Pong { token, shards: 1 });
            socket.write_all(&pong.framed(id)).expect("pong");
            read_frame(&mut socket, DEFAULT_MAX_PAYLOAD).expect("a request");
            socket
                .write_all(&Reply::Goodbye.framed(0))
                .expect("goodbye");
        });
        let client = connect(addr);
        assert!(matches!(client.ping(), Err(ClientError::Goodbye)));
        assert!(matches!(client.stats(), Err(ClientError::Goodbye)));
        node.join().expect("the node's thread");
    }

    /// A draining node refuses `PREWARM` like any new work: the typed
    /// `DRAINING` reply carries an epoch no older than the drain's, and no plan
    /// is built.
    #[test]
    fn a_draining_node_refuses_prewarm() {
        let servers = [server(2, 2), server(2, 2)];
        let pool = NodePool::try_new(
            servers.iter().map(RenderServer::addr).collect(),
            NodePoolConfig::default(),
        )
        .expect("two-node pool");
        let drained = pool.drain_node(0).expect("drain");

        let client = connect(servers[0].addr());
        let prewarms = || {
            let stats = client.stats().expect("stats");
            stats.service_snapshot().counter(names::SERVE_PLAN_PREWARMS)
        };
        let before = prewarms();
        let volume = Dataset::Skull.volume(8);
        let request = SceneRequest {
            spec: mgpu_cluster::ClusterSpec::accelerator_cluster(1),
            scene: Scene::orbit(
                &volume,
                0.0,
                10.0,
                TransferFunction::for_dataset(Dataset::Skull.name()),
            ),
            volume,
            config: RenderConfig::test_size(8),
            priority: Priority::Normal,
        };
        let req = NetSceneRequest::from_request(&request).expect("portable");
        match client.prewarm(drained.epoch, &req) {
            Err(ClientError::Draining { epoch }) => assert!(epoch >= drained.epoch),
            other => panic!("a draining node must refuse PREWARM typed, got {other:?}"),
        }
        assert_eq!(prewarms(), before, "no plan is built while draining");

        drop(pool);
        for server in servers {
            server.shutdown();
        }
    }

    proptest! {
        // Live-server cases are heavier: fewer, smaller.
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// N pipelined renders on ONE connection, collected in an arbitrary
        /// order: every reply lands on the request that issued it. Each
        /// request asks for a distinct image size, so a misrouted reply is
        /// immediately visible as the wrong dimensions.
        #[test]
        fn pipelined_renders_redeem_out_of_order(
            n in 2usize..10,
            order_keys in prop::collection::vec(0u64..u64::MAX, 10),
        ) {
            let server = server(2, 2);
            let client = connect(server.addr());

            let mut pending: Vec<Option<(u32, u64)>> = (0..n)
                .map(|i| {
                    let size = 4 + i as u32;
                    Some((size, begin(&client, &sized_request(i as f32 * 17.0, size))))
                })
                .collect();

            // A permutation derived from the random keys: sort indices by key.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|i| order_keys[*i]);

            for i in order {
                let (size, id) = pending[i].take().expect("each collected once");
                let frame = client.frame(id).expect("collect render");
                prop_assert_eq!(frame.image.width(), size, "reply matched to the wrong request");
            }
            server.shutdown();
        }
    }
}
