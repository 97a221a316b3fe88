//! The client side of the wire: a **pipelined** [`RenderClient`] over one
//! TCP connection. Every request carries a fresh `request_id` and the
//! server replies in *completion* order, so one connection carries many
//! in-flight renders at once:
//!
//! - [`RenderClient::render`] blocks until the frame arrives — the wire
//!   analogue of `RenderBackend::render` on a `ShardedService` — but
//!   concurrent `render` calls from many threads interleave on the same
//!   socket.
//! - [`RenderClient::begin_render`] / [`RenderClient::finish_render`]
//!   split that into an issue half (returns immediately with a
//!   [`PendingRender`]) and a redeem half, so a single thread can hold
//!   many renders in flight and collect them in any order.
//! - [`RenderClient::submit`] stays the `try_submit` analogue: it waits
//!   only for the server's admission verdict (a fast ack), returning a
//!   [`NetTicket`] while the render proceeds server-side.
//!
//! Every in-process error type still crosses the socket intact: admission
//! shedding comes back as the same [`AdmissionError`], a caught render
//! panic as the same [`FrameError`] message. Each [`Reply`] becomes a
//! result in one exhaustive `match` (`answer`), so a reply this client does
//! not handle fails to compile here.
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
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use mgpu_obs::CompletedTrace;
use mgpu_serve::{AdmissionError, FrameError};

use crate::heat::NetStats;
use crate::wire::{
    DrainState, FrameReader, NetFrame, NetSceneRequest, Prewarmed, Reply, Request, TicketsFull,
    UnsupportedVersion, WireError, DEFAULT_MAX_PAYLOAD,
};

/// Why a client call failed, with the server-side error types restored.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// Transport or framing problem, or a reply whose payload did not
    /// decode.
    Wire(WireError),
    /// The server's admission control shed this submission (fire-and-forget
    /// path only; blocking renders wait instead).
    Admission(AdmissionError),
    /// The per-session rate limiter refused the request; retry no sooner
    /// than `retry_after`.
    Throttled { retry_after: Duration },
    /// The session holds too many outstanding requests (in-flight renders
    /// plus un-redeemed tickets); consume some replies, then retry.
    TicketsFull { outstanding: u64, limit: u64 },
    /// The render itself failed server-side (e.g. a caught render panic).
    Render(FrameError),
    /// The node is draining (wire v4): it refuses new work but still
    /// answers in-flight renders and parked redeems. `epoch` is the
    /// directory epoch the drain was announced under — a client routing
    /// here is using stale placement.
    Draining { epoch: u64 },
    /// The node finished draining and said `GOODBYE` — every outstanding
    /// request was answered and the connection is done for good.
    Goodbye,
    /// The server refused this request as malformed: its echo of the
    /// [`WireError`] the request caused (a payload that did not decode, a
    /// door check, a duplicate or unknown id). Only this request failed;
    /// the connection carries on.
    BadRequest(String),
    /// The server answered something this client cannot interpret, or
    /// refused the connection itself.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(err) => write!(f, "wire error: {err}"),
            ClientError::Admission(err) => write!(f, "admission rejected: {err}"),
            ClientError::Throttled { retry_after } => {
                write!(
                    f,
                    "rate limited: retry in {:.3} s",
                    retry_after.as_secs_f64()
                )
            }
            ClientError::TicketsFull { outstanding, limit } => {
                write!(
                    f,
                    "session holds {outstanding} outstanding requests (limit {limit}): \
                     consume replies before submitting more"
                )
            }
            ClientError::Render(err) => write!(f, "render failed: {err}"),
            ClientError::Draining { epoch } => {
                write!(
                    f,
                    "node is draining (directory epoch {epoch}): route elsewhere"
                )
            }
            ClientError::Goodbye => write!(f, "node drained and said goodbye"),
            ClientError::BadRequest(echo) => write!(f, "server rejected request: {echo}"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(err: WireError) -> ClientError {
        ClientError::Wire(err)
    }
}

/// A redeemable handle from [`RenderClient::submit`] — the wire analogue of
/// an in-process `FrameTicket`. Its id *is* the `SUBMIT` frame's
/// `request_id`. Tickets are connection-scoped: redeem them on the client
/// that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetTicket {
    id: u64,
}

impl NetTicket {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Rebuild a ticket from its id (e.g. recorded in a log). Redeeming a
    /// ticket the issuing connection does not know is a typed error, so
    /// this cannot forge frames — only name them.
    pub fn from_id(id: u64) -> NetTicket {
        NetTicket { id }
    }
}

/// An issued-but-uncollected render from [`RenderClient::begin_render`].
/// Collect it with [`RenderClient::finish_render`] — in any order relative
/// to other pending renders on the same connection. Dropping it abandons
/// the reply (the frame still arrives and sits in the client's inbox until
/// the connection is dropped).
#[must_use = "collect the frame with RenderClient::finish_render"]
#[derive(Debug)]
pub struct PendingRender {
    id: u64,
}

impl PendingRender {
    /// The `request_id` the reply will carry (diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }
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
struct Mailbox {
    /// Each reply decoded (a `FRAME` in place as it arrived), or why its
    /// payload did not decode.
    inbox: HashMap<u64, Result<Reply, WireError>>,
    /// Someone currently holds the read half pulling the next frame.
    reading: bool,
    /// A transport-level failure poisons the whole connection: everyone
    /// gets the same typed error.
    dead: Option<ClientError>,
}

/// A pipelined render-service client over one TCP connection. One session =
/// one connection: the server's rate limiter and outstanding-request table
/// live per connection. All methods take `&self`; share a client across
/// threads (e.g. in an `Arc`) and their requests multiplex on the socket.
pub struct RenderClient {
    write: Mutex<TcpStream>,
    read: Mutex<TcpStream>,
    mail: Mutex<Mailbox>,
    delivered: Condvar,
    next_id: AtomicU64,
    max_payload: u64,
    shards: u32,
}

impl RenderClient {
    /// Connect and handshake (a `PING` round-trip that also verifies the
    /// protocol version and learns the server's shard count). Uses the
    /// default [`ClientConfig`] — no timeouts; see
    /// [`RenderClient::connect_with`] to bound connect and response waits.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<RenderClient, ClientError> {
        RenderClient::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit transport bounds. A read timeout surfaces as
    /// a [`ClientError::Wire`] I/O error on the call that hit it and
    /// poisons the connection (a late reply would desynchronize the frame
    /// stream).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<RenderClient, ClientError> {
        let stream = match config.connect_timeout {
            None => TcpStream::connect(addr).map_err(WireError::from)?,
            Some(bound) => {
                // `connect_timeout` needs concrete addresses: try each
                // resolution, keeping the last error.
                let addrs: Vec<_> = addr.to_socket_addrs().map_err(WireError::from)?.collect();
                let mut last = WireError::Io(std::io::ErrorKind::AddrNotAvailable);
                let mut stream = None;
                for candidate in addrs {
                    match TcpStream::connect_timeout(&candidate, bound) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = e.into(),
                    }
                }
                stream.ok_or(last)?
            }
        };
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(config.read_timeout)
            .map_err(WireError::from)?;
        let read = stream.try_clone().map_err(WireError::from)?;
        let mut client = RenderClient {
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
            shards: 0,
        };
        client.shards = client.ping()?;
        Ok(client)
    }

    /// Shards behind the server (learned during the handshake).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Round-trip a `PING`; returns the server's shard count.
    pub fn ping(&self) -> Result<u32, ClientError> {
        let token: u64 = 0x6D67_7075; // arbitrary echo payload
        let Reply::Pong(pong) = self.call(&Request::Ping(token))? else {
            return Err(unexpected());
        };
        if pong.token != token {
            return Err(ClientError::Protocol(format!(
                "pong echoed {:#x}, expected {token:#x}",
                pong.token
            )));
        }
        Ok(pong.shards)
    }

    /// Render one frame, blocking until it is delivered. Concurrent
    /// `render` calls (from many threads sharing this client) all proceed
    /// at once; replies are matched by `request_id`. Admission shedding surfaces as a typed
    /// [`ClientError::Admission`] — the server answers inline instead of
    /// parking the request (the one retry loop is `NodePool`'s).
    pub fn render(&self, request: &NetSceneRequest) -> Result<NetFrame, ClientError> {
        let pending = self.begin_render(request)?;
        self.finish_render(pending)
    }

    /// Issue a render without waiting for anything: the request frame is
    /// written and a [`PendingRender`] returned while the server works.
    /// Issue as many as the server's per-session outstanding bound allows,
    /// then collect them in any order with [`RenderClient::finish_render`].
    pub fn begin_render(&self, request: &NetSceneRequest) -> Result<PendingRender, ClientError> {
        let id = self.fresh_id();
        self.send(id, &Request::Render(Cow::Borrowed(request)))?;
        Ok(PendingRender { id })
    }

    /// Collect one pending render — blocks until *its* reply arrives,
    /// regardless of how many other requests are in flight or in what
    /// order the server finishes them.
    pub fn finish_render(&self, pending: PendingRender) -> Result<NetFrame, ClientError> {
        self.frame(pending.id)
    }

    /// Fire-and-forget submit — the wire analogue of `try_submit`: waits
    /// only for the server's admission verdict (a fast ack sent before the
    /// render runs), shedding with [`ClientError::Admission`] under
    /// overload, and returns a ticket while the server renders. Redeem
    /// with [`RenderClient::redeem`], or drop the ticket (the frame still
    /// lands in the server's cache).
    pub fn submit(&self, request: &NetSceneRequest) -> Result<NetTicket, ClientError> {
        let Reply::Submitted(id) = self.call(&Request::Submit(Cow::Borrowed(request)))? else {
            return Err(unexpected());
        };
        Ok(NetTicket { id })
    }

    /// Block until a submitted frame is ready. A ticket redeems once.
    pub fn redeem(&self, ticket: NetTicket) -> Result<NetFrame, ClientError> {
        let id = self.fresh_id();
        self.send(id, &Request::Redeem(ticket.id))?;
        self.frame(id)
    }

    /// Fetch the server's per-shard and node snapshots ([`NetStats`] derives
    /// the merged service report and per-shard heat from them).
    pub fn stats(&self) -> Result<NetStats, ClientError> {
        let Reply::StatsReport(stats) = self.call(&Request::Stats)? else {
            return Err(unexpected());
        };
        Ok(stats)
    }

    /// Fetch the server's most recently completed request traces, newest
    /// first, at most `max`. Trace ids are the `request_id`s the requests
    /// were submitted under, so a client can find its own.
    pub fn traces(&self, max: u32) -> Result<Vec<CompletedTrace>, ClientError> {
        let Reply::TracesReply(traces) = self.call(&Request::Traces(max))? else {
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
    pub fn drain(&self, epoch: u64) -> Result<DrainState, ClientError> {
        self.drain_state(Request::Drain(epoch))
    }

    /// Undo a drain: the node accepts new work again. Resuming a node that
    /// is not draining is idempotent.
    pub fn resume(&self, epoch: u64) -> Result<DrainState, ClientError> {
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
    /// [`ClientError::Draining`].
    pub fn prewarm(
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
    /// its [`ClientError`]).
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
                        mail.dead = Some(ClientError::Wire(err));
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
fn file(mail: &mut Mailbox, reply_id: u64, reply: Result<Reply, WireError>) {
    if reply_id != 0 {
        mail.inbox.insert(reply_id, reply);
        return;
    }
    if mail.dead.is_some() {
        return; // the first verdict wins
    }
    mail.dead = Some(match reply.map(|reply| answer(0, reply)) {
        Err(err) => ClientError::Wire(err),
        Ok(Err(verdict)) => verdict,
        Ok(Ok(reply)) => ClientError::Protocol(format!("unsolicited {reply:?}")),
    });
}

/// The one place a reply becomes a result: every refusal is its typed
/// [`ClientError`], every success comes back for the call that asked for it
/// to unpack. `id` is the request id the reply came under: a `BadRequest`
/// under 0 is the server's verdict on the connection, under any other id
/// its refusal of that one request.
fn answer(id: u64, reply: Reply) -> Result<Reply, ClientError> {
    match reply {
        Reply::Pong(_)
        | Reply::Frame(_)
        | Reply::Submitted(_)
        | Reply::StatsReport(_)
        | Reply::TracesReply(_)
        | Reply::DrainState(_)
        | Reply::Prewarmed(_) => Ok(reply),
        Reply::Rejected(err) => Err(ClientError::Admission(err)),
        Reply::Throttled(retry_after) => Err(ClientError::Throttled { retry_after }),
        Reply::Failed(message) => Err(ClientError::Render(FrameError::new(message))),
        Reply::TicketsFull(TicketsFull { outstanding, limit }) => {
            Err(ClientError::TicketsFull { outstanding, limit })
        }
        Reply::UnsupportedVersion(UnsupportedVersion { got, want }) => Err(ClientError::Protocol(
            format!("server speaks wire protocol v{want}, this client sent v{got}"),
        )),
        Reply::Goodbye => Err(ClientError::Goodbye),
        Reply::Draining(epoch) => Err(ClientError::Draining { epoch }),
        Reply::BadRequest(echo) if id == 0 => Err(ClientError::Protocol(format!(
            "server rejected request: {echo}"
        ))),
        Reply::BadRequest(echo) => Err(ClientError::BadRequest(echo)),
    }
}

/// A success reply of another kind than the request asked for.
fn unexpected() -> ClientError {
    ClientError::Protocol("the server answered with a reply of another kind".into())
}
