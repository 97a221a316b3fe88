//! The render server's protocol with no I/O. A [`Node`] holds the
//! sessions' state — out queues, ticket tables, rate buckets — and the
//! drain state. It takes events (a session opened or closed, a request
//! frame, lost framing, a completion, a loop turn) and queues each reply
//! on its session's out queue for its owner to write. The event loop in
//! [`crate::server`] owns one over sockets; the tests below own one with
//! the completions' order and the clock in their hands: every event that
//! reads the clock takes the time as an argument.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mgpu_obs::{names, Counter, Registry, Trace};
use mgpu_serve::{FrameResult, SceneRequest, ShardedService};

use crate::heat::NetStats;
use crate::ratelimit::TokenBucket;
use crate::server::ServerConfig;
use crate::wire::{
    frame_payload_bytes, frame_view, DrainState, NetSceneRequest, OutFrame, Pong, Prewarmed, Reply,
    Request, TicketsFull, UnsupportedVersion, WireError,
};

/// What a node shares with its server handle, which reads stats and
/// resumes or shuts the service down from another thread.
pub(crate) struct Shared {
    pub(crate) sharded: ShardedService,
    pub(crate) config: ServerConfig,
    /// Highest directory epoch any peer has announced (via `DRAIN` /
    /// `RESUME` / `PREWARM`), echoed in STATS so a stale client can see
    /// the placement moved under it. Monotone: `fetch_max` only. Only the
    /// node writes it and it publishes no other data, so every access is
    /// `Relaxed`; [`crate::RenderServer::stats`] is the one off-loop reader.
    epoch: AtomicU64,
    /// Per-*server-instance* metrics (`net.*`): wakeups and traffic must
    /// not mix across servers sharing a process (the idle-wakeup test runs
    /// next to busy servers), so these live here rather than in the
    /// process-global registry. `STATS` merges both into one snapshot.
    pub(crate) obs: Registry,
    /// `net.throttled`: requests refused by the per-session rate limiter.
    throttled: Arc<Counter>,
}

impl Shared {
    /// Start `config`'s service.
    pub(crate) fn new(config: ServerConfig) -> Shared {
        let obs = Registry::new();
        Shared {
            sharded: ShardedService::start(config.shards, config.service.clone()),
            config,
            epoch: AtomicU64::new(0),
            throttled: obs.counter(names::NET_THROTTLED),
            obs,
        }
    }

    /// The `STATS` reply: each shard's own snapshot (every client-side view
    /// derives from these, so shard counters sum to the merged counters
    /// even under live traffic) and the node snapshot — the server's
    /// private `net.*` registry merged with the process-global one
    /// (`serve.*`, `volren.*`).
    pub(crate) fn stats(&self) -> NetStats {
        let mut obs = self.obs.snapshot();
        obs.merge(&mgpu_obs::global().snapshot());
        NetStats {
            epoch: self.epoch.load(Ordering::Relaxed),
            uptime: self.sharded.uptime(),
            shard_snapshots: self.sharded.shard_snapshots(),
            obs,
        }
    }
}

/// A finished render on its way back to the session that asked for it.
pub(crate) struct Completion {
    session: u64,
    request_id: u64,
    result: FrameResult,
    /// The request's trace, carried through the render so the node can
    /// stamp the `reply` span before the last `Arc` drop publishes it.
    trace: Arc<Trace>,
}

/// Where a render worker's hook puts its [`Completion`]; the node's owner
/// takes them out and hands each to [`Node::complete`]. A sink must not
/// hold the node's [`Shared`]: hooks live inside queued jobs, and a hook
/// holding the service's own `Arc` would cycle and break shutdown's
/// sole-ownership teardown.
pub(crate) trait CompletionSink: Send + Sync {
    fn complete(&self, done: Completion);
}

/// An admitted `RENDER` or `SUBMIT` in its session's table, under its
/// request id (a `SUBMIT`'s ticket id), until its frame has been sent.
enum Ticket {
    /// Rendering. `redeem` is the request id the frame will be sent
    /// under: a `RENDER` parks its own id here when it is admitted, a
    /// `SUBMIT` gets one when its `REDEEM` arrives first.
    Pending { redeem: Option<u64> },
    /// Rendered; the result waits here for its `REDEEM`.
    Ready(FrameResult),
}

/// One client session: the owner's I/O state, the replies not yet
/// written, and the session's protocol state.
pub(crate) struct Session<T> {
    /// The owner's per-session I/O (the server's socket and frame reader).
    pub(crate) io: T,
    /// Replies in sending order, for the owner to write and pop.
    pub(crate) out: VecDeque<OutFrame>,
    /// Read no more; once `out` is written the owner closes the session.
    pub(crate) closing: bool,
    bucket: Option<TokenBucket>,
    /// Every admitted `RENDER` and `SUBMIT` whose frame is not yet sent.
    tickets: HashMap<u64, Ticket>,
    /// Has this session ever been admitted render work (`RENDER` or
    /// `SUBMIT`)? The soft-drain GOODBYE wave only seals such sessions;
    /// pure control connections (PING/STATS/DRAIN/RESUME) stay readable,
    /// so a drained node can still be resumed.
    carried_work: bool,
}

impl<T> Session<T> {
    fn send(&mut self, frame: impl Into<OutFrame>) {
        self.out.push_back(frame.into());
    }

    /// The request ids frames are owed under: in-flight `RENDER`s and
    /// parked `REDEEM`s.
    fn parked_redeems(&self) -> impl Iterator<Item = u64> + '_ {
        self.tickets.values().filter_map(|ticket| match ticket {
            Ticket::Pending { redeem } => *redeem,
            Ticket::Ready(_) => None,
        })
    }

    /// Is `id` already naming an outstanding request on this session?
    fn id_in_use(&self, id: u64) -> bool {
        self.tickets.contains_key(&id) || self.parked_redeems().any(|redeem| redeem == id)
    }

    /// Everything this session still owes the client (shutdown drains it).
    fn drained(&self) -> bool {
        self.out.is_empty() && self.parked_redeems().next().is_none()
    }
}

/// The protocol state of one server: its sessions, keyed by the id
/// [`Node::open`] gave them, and its drain state.
pub(crate) struct Node<T> {
    shared: Arc<Shared>,
    sink: Arc<dyn CompletionSink>,
    sessions: HashMap<u64, Session<T>>,
    next_session: u64,
    /// Soft drain (wire v4): refuse new `RENDER`/`SUBMIT`/`PREWARM` with a
    /// typed `DRAINING` reply, keep answering everything already owed,
    /// `GOODBYE` every work-carrying session once nothing is outstanding.
    /// Reversible with `RESUME` — unlike shutdown, the sessions stay open
    /// and readable.
    draining: bool,
}

impl<T> Node<T> {
    pub(crate) fn new(shared: Arc<Shared>, sink: Arc<dyn CompletionSink>) -> Node<T> {
        Node {
            shared,
            sink,
            sessions: HashMap::new(),
            next_session: 1,
            draining: false,
        }
    }

    /// A session opened at `now` (its rate bucket starts full then).
    pub(crate) fn open(&mut self, io: T, now: Instant) -> u64 {
        let id = self.next_session;
        self.next_session += 1;
        let bucket = self.shared.config.rate_limit;
        let session = Session {
            io,
            out: VecDeque::new(),
            closing: false,
            bucket: bucket.map(|config| TokenBucket::new(config, now)),
            tickets: HashMap::new(),
            carried_work: false,
        };
        self.sessions.insert(id, session);
        id
    }

    /// The session is gone: its in-flight completions are dropped on
    /// arrival (the frames land in the render cache anyway).
    pub(crate) fn close(&mut self, session: u64) {
        self.sessions.remove(&session);
    }

    pub(crate) fn session_mut(&mut self, session: u64) -> Option<&mut Session<T>> {
        self.sessions.get_mut(&session)
    }

    pub(crate) fn sessions(&self) -> impl Iterator<Item = (u64, &Session<T>)> {
        self.sessions.iter().map(|(id, session)| (*id, session))
    }

    /// Serve one complete request frame, read at `now`: its reply is
    /// queued tagged with the request's id. A payload that does not decode
    /// or validate is echoed as a typed `BadRequest` and poisons nothing
    /// but its own request; an unknown tag closes the session after the
    /// echo, since a peer dispatching unknown requests is not speaking
    /// this protocol.
    pub(crate) fn frame(
        &mut self,
        session: u64,
        tag: u8,
        request_id: u64,
        payload: &[u8],
        now: Instant,
    ) {
        let Some(open) = self.sessions.get_mut(&session) else {
            return;
        };
        let served = match Request::decode(tag, payload) {
            Err(err) => {
                if matches!(err, WireError::UnknownOpcode(_)) {
                    open.closing = true;
                }
                Err(err)
            }
            // Multiplexing invariant, one rule for every request: an id
            // names one outstanding request at a time, or replies would be
            // unattributable.
            Ok(_) if open.id_in_use(request_id) => Err(WireError::Malformed(format!(
                "duplicate request id {request_id}"
            ))),
            Ok(request) => self.serve(session, request_id, request, now),
        };
        let reply = served.unwrap_or_else(|err| Some(Reply::BadRequest(err.to_string())));
        if let (Some(reply), Some(open)) = (reply, self.sessions.get_mut(&session)) {
            open.send(reply.framed(request_id));
        }
    }

    /// Framing is lost — resyncing an unframed byte stream is guesswork.
    /// Answer typed under id 0 and close after the flush. A version
    /// mismatch gets the dedicated `UnsupportedVersion` reply (the v2
    /// migration path); everything else the `BadRequest` echo.
    pub(crate) fn unframable(&mut self, session: u64, err: WireError) {
        let Some(open) = self.sessions.get_mut(&session) else {
            return;
        };
        let reply = match err {
            WireError::UnsupportedVersion { got, want } => {
                Reply::UnsupportedVersion(UnsupportedVersion { got, want })
            }
            other => Reply::BadRequest(other.to_string()),
        };
        open.send(reply.framed(0));
        open.closing = true;
    }

    /// Deliver a finished render, taken from the sink at `now`, into its
    /// session's out queue (or ticket table).
    pub(crate) fn complete(&mut self, done: Completion, now: Instant) {
        let Some(open) = self.sessions.get_mut(&done.session) else {
            return;
        };
        // One rule for `RENDER` and `SUBMIT`: a parked redeem gets the
        // reply, tagged with its id; otherwise the result is parked.
        match open.tickets.get_mut(&done.request_id) {
            Some(Ticket::Pending {
                redeem: Some(redeem_id),
            }) => {
                let reply = frame_reply(*redeem_id, &done.result);
                open.tickets.remove(&done.request_id);
                open.send(reply);
            }
            Some(ticket) => *ticket = Ticket::Ready(done.result),
            None => {}
        }
        // The `reply` span covers frame encoding and the enqueue (or
        // parking the result); dropping `done.trace` here releases the last
        // trace `Arc`, which publishes the finished trace into the ring.
        done.trace.record_since("reply", now);
    }

    /// The loop's turn, between applying completions and waiting again.
    pub(crate) fn turn(&mut self, shutting_down: bool) {
        if shutting_down {
            // Reads are off, delivery goes on: a session owed nothing more
            // closes; un-redeemed tickets are abandoned (their frames still
            // land in the render cache).
            self.sessions.retain(|_, open| !open.drained());
            return;
        }
        if !self.draining {
            return;
        }
        // Soft drain: once no session holds a ticket, every session that
        // carried work gets GOODBYE under id 0 (the signal the pool keys
        // off) and closes after the flush; control sessions stay readable,
        // so the drained node can still answer STATS and be RESUMEd.
        let empty = self.sessions.values().all(|open| open.tickets.is_empty());
        if empty {
            for open in self.sessions.values_mut() {
                if open.carried_work && !open.closing {
                    open.send(Reply::Goodbye.framed(0));
                    open.closing = true;
                    self.shared.obs.counter(names::NET_GOODBYES).inc();
                }
            }
        }
    }

    /// Answer one request: the reply to send under its id, or `None` when
    /// the answer comes later (a `Render`'s frame, a parked `Redeem`) or is
    /// already queued (a ready `Redeem`'s frame). `Err` is a payload-level
    /// error: the caller echoes it as `BadRequest` and the session
    /// survives.
    fn serve(
        &mut self,
        session: u64,
        request_id: u64,
        request: Request,
        now: Instant,
    ) -> Result<Option<Reply>, WireError> {
        let shared = &*self.shared;
        let reply = match request {
            Request::Ping(token) => Reply::Pong(Pong {
                token,
                shards: shared.sharded.shard_count() as u32,
            }),
            Request::Stats => Reply::StatsReport(shared.stats()),
            Request::Traces(max) => Reply::TracesReply(mgpu_obs::ring().recent(max as usize)),
            // A draining node refuses *new* work — typed, per-request, and
            // the session survives (in-flight replies and parked redeems
            // still flow). The epoch tells the refused client how stale it is.
            Request::Render(_) | Request::Submit(_) | Request::Prewarm(..) if self.draining => {
                shared.obs.counter(names::NET_DRAIN_REFUSED).inc();
                Reply::Draining(shared.epoch.load(Ordering::Relaxed))
            }
            Request::Render(request) => {
                return self.submit(session, request_id, &request, Some(request_id), now);
            }
            Request::Submit(request) => {
                let refusal = self.submit(session, request_id, &request, None, now)?;
                refusal.unwrap_or(Reply::Submitted(request_id))
            }
            Request::Redeem(ticket_id) => {
                let Some(open) = self.sessions.get_mut(&session) else {
                    return Ok(None);
                };
                match open.tickets.get_mut(&ticket_id) {
                    Some(Ticket::Ready(result)) => {
                        let frame = frame_reply(request_id, result);
                        open.tickets.remove(&ticket_id);
                        open.send(frame);
                    }
                    // Park the redeem: the completion answers it.
                    Some(Ticket::Pending {
                        redeem: redeem @ None,
                    }) => *redeem = Some(request_id),
                    Some(Ticket::Pending { redeem: Some(_) }) => {
                        return Err(WireError::Malformed(format!(
                            "ticket {ticket_id} is already being redeemed"
                        )));
                    }
                    None => {
                        return Err(WireError::Malformed(format!("unknown ticket {ticket_id}")));
                    }
                }
                return Ok(None);
            }
            Request::Drain(epoch) => self.set_draining(true, epoch),
            Request::Resume(epoch) => self.set_draining(false, epoch),
            Request::Prewarm(epoch, request) => {
                self.announce(epoch);
                let (shard, built) = shared.sharded.prewarm(&request.to_request()?);
                shared.obs.counter(names::NET_PREWARMS).inc();
                Reply::Prewarmed(Prewarmed {
                    shard: shard as u32,
                    built,
                })
            }
        };
        Ok(Some(reply))
    }

    /// A peer announced directory `epoch`; the node keeps the highest.
    fn announce(&self, epoch: u64) {
        self.shared.epoch.fetch_max(epoch, Ordering::Relaxed);
    }

    /// Enter (`Drain`) or leave (`Resume`) the draining state under a
    /// controller's `epoch`, and report what the whole node still owes.
    fn set_draining(&mut self, draining: bool, epoch: u64) -> Reply {
        self.announce(epoch);
        let obs = &self.shared.obs;
        let was = std::mem::replace(&mut self.draining, draining);
        // Idempotent: repeating the current state is a no-op (and not a
        // counted transition).
        if draining && !was {
            obs.counter(names::NET_DRAINS).inc();
        } else if !draining && was {
            obs.counter(names::NET_RESUMES).inc();
        }
        Reply::DrainState(DrainState {
            draining,
            outstanding: self.sessions.values().map(|s| s.tickets.len() as u64).sum(),
            epoch: self.shared.epoch.load(Ordering::Relaxed),
        })
    }

    /// Admit a `RENDER` (`redeem`: its own id) or a `SUBMIT` (`redeem`:
    /// `None`, until its `REDEEM` arrives) and queue it: `Ok(None)` once it
    /// is queued, or the typed refusal to answer with. The `admit` span
    /// runs from the frame's arrival at `now`, decode included.
    fn submit(
        &mut self,
        session: u64,
        request_id: u64,
        request: &NetSceneRequest,
        redeem: Option<u64>,
        now: Instant,
    ) -> Result<Option<Reply>, WireError> {
        let shared = &*self.shared;
        let Some(open) = self.sessions.get_mut(&session) else {
            return Ok(None);
        };
        let scene = match admit(shared, open, request, now)? {
            Ok(scene) => scene,
            Err(refusal) => return Ok(Some(refusal)),
        };
        // The trace id IS the wire request id: a client can correlate a
        // TRACES row with its own request.
        let trace = Trace::start(request_id);
        trace.record_since("admit", now);
        let sink = Arc::clone(&self.sink);
        let reply_trace = Arc::clone(&trace);
        let submitted = shared
            .sharded
            .try_submit_traced(scene, trace, move |result| {
                sink.complete(Completion {
                    session,
                    request_id,
                    result,
                    trace: reply_trace,
                })
            });
        if let Err(admission) = submitted {
            return Ok(Some(Reply::Rejected(admission)));
        }
        open.carried_work = true;
        // The ticket id IS the request id.
        open.tickets.insert(request_id, Ticket::Pending { redeem });
        Ok(None)
    }
}

/// The door for `RENDER`/`SUBMIT`, past the id check every request gets:
/// bound the session's outstanding requests, validate, then rate-limit.
/// `Err` is the caller's `BadRequest`; `Ok(Err(reply))` a typed refusal
/// (`TicketsFull`, `Throttled`); the request comes back only once it is
/// clear to submit.
fn admit<T>(
    shared: &Shared,
    session: &mut Session<T>,
    request: &NetSceneRequest,
    now: Instant,
) -> Result<Result<SceneRequest, Reply>, WireError> {
    // Bound outstanding state BEFORE admitting: every in-flight render or
    // parked ticket eventually pins a rendered frame, so a client that
    // never consumes replies must not grow server memory without limit.
    let outstanding = session.tickets.len();
    let limit = shared.config.max_tickets_per_session;
    if outstanding >= limit {
        return Ok(Err(Reply::TicketsFull(TicketsFull {
            outstanding: outstanding as u64,
            limit: limit as u64,
        })));
    }
    // Validate fully BEFORE spending a rate-limit token: a malformed
    // request never renders, so it must not burn the session's budget.
    // The image is sized by the client and allocated by a worker: refuse
    // here what could not leave as one `FRAME` anyway.
    let (width, height) = request.config.image;
    if width == 0 || height == 0 {
        return Err(WireError::Malformed(format!(
            "degenerate {width}x{height} image"
        )));
    }
    let len = frame_payload_bytes(width, height);
    let max = shared.config.max_payload.min(u32::MAX as u64);
    if len > max {
        return Err(WireError::TooLarge { len, max });
    }
    let request = request.to_request()?;
    if let Some(bucket) = &mut session.bucket {
        if let Err(retry_after) = bucket.try_take_at(now) {
            shared.throttled.inc();
            return Ok(Err(Reply::Throttled(retry_after)));
        }
    }
    Ok(Ok(request))
}

/// Redeem a completed render into a `FRAME` or `FAILED` reply frame. A
/// `FRAME` is a head plus a share of the image the frame cache holds:
/// nothing is encoded and no pixel is copied before the socket write.
fn frame_reply(request_id: u64, result: &FrameResult) -> OutFrame {
    let failed = |message: String| Reply::Failed(message).framed(request_id).into();
    match result {
        Ok(frame) => {
            // Cache hits re-deliver a previously rendered frame: their
            // simulated frame time is zero (same convention as the
            // in-process `BackendFrame`), not the original render's time.
            let sim_nanos = if frame.from_cache {
                0
            } else {
                frame.report.runtime().nanos()
            };
            let image = Arc::clone(&frame.image);
            frame_view(request_id, image, frame.from_cache, sim_nanos)
                .unwrap_or_else(|err| failed(err.to_string()))
        }
        Err(err) => failed(err.message().to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratelimit::RateLimitConfig;
    use crate::wire::{read_frame, DEFAULT_MAX_PAYLOAD, PRELUDE_BYTES, VERSION};
    use mgpu_serve::{ServiceConfig, ServiceReport};
    use mgpu_voldata::Dataset;
    use mgpu_volren::{Image, RenderConfig, TransferFunction};
    use std::borrow::Cow;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::{Mutex, OnceLock};
    use std::time::Duration;

    /// The tests' sink: a channel each test drains itself, in the order it
    /// picks.
    impl CompletionSink for Mutex<Sender<Completion>> {
        fn complete(&self, done: Completion) {
            // A hook that fires after its test is done finds no receiver.
            let _ = self.lock().expect("sink poisoned").send(done);
        }
    }

    /// An 8³ Skull orbit at `azimuth`, rendered `size`² pixels.
    fn scene(azimuth: f32, size: u32) -> NetSceneRequest {
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

    /// `request` rendered directly: every `FRAME` must equal it bit for bit.
    fn direct(request: &NetSceneRequest) -> Image {
        let request = request.to_request().expect("valid scene");
        mgpu_volren::render(
            &request.spec,
            &request.volume,
            &request.scene,
            &request.config,
        )
        .image
    }

    fn config() -> ServerConfig {
        ServerConfig {
            shards: 1,
            service: ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        }
    }

    /// One queued reply frame, decoded as a client would read it.
    fn read_out(frame: &OutFrame) -> (u64, Reply) {
        let mut bytes = Vec::new();
        frame
            .write_from(0, &mut bytes)
            .expect("a Vec takes every byte");
        let (tag, id, payload) =
            read_frame(&mut bytes.as_slice(), DEFAULT_MAX_PAYLOAD).expect("one whole frame");
        (id, Reply::decode(tag, &payload).expect("the reply decodes"))
    }

    /// The replies are one `FRAME` under `id`, bit-identical to a direct
    /// render of `request`.
    fn assert_frame(replies: Vec<(u64, Reply)>, id: u64, request: &NetSceneRequest) {
        match replies.as_slice() {
            [(got, Reply::Frame(frame))] if *got == id => {
                assert!(
                    frame.image == direct(request),
                    "FRAME {id} != direct render"
                )
            }
            other => panic!("expected one FRAME under {id}, got {other:?}"),
        }
    }

    /// A node over a fresh service, driven one event at a time: the test
    /// plays the sockets (it frames requests and pops the out queues), the
    /// render workers' arrival order (it holds completions until it applies
    /// them) and the clock.
    struct Harness {
        node: Node<()>,
        shared: Arc<Shared>,
        completions: Receiver<Completion>,
        /// Completions received and not yet applied.
        held: Vec<Completion>,
        now: Instant,
    }

    impl Harness {
        fn new(config: ServerConfig) -> Harness {
            let shared = Arc::new(Shared::new(config));
            let (sink, completions) = channel();
            Harness {
                node: Node::new(Arc::clone(&shared), Arc::new(Mutex::new(sink))),
                shared,
                completions,
                held: Vec::new(),
                now: Instant::now(),
            }
        }

        fn open(&mut self) -> u64 {
            self.node.open((), self.now)
        }

        fn send(&mut self, session: u64, id: u64, request: &Request) {
            let framed = request.framed(id);
            let payload = &framed[PRELUDE_BYTES..];
            self.node
                .frame(session, request.tag(), id, payload, self.now);
        }

        /// Every reply queued on `session` since the last call, decoded.
        fn replies(&mut self, session: u64) -> Vec<(u64, Reply)> {
            let Some(open) = self.node.session_mut(session) else {
                return Vec::new();
            };
            open.out.drain(..).map(|frame| read_out(&frame)).collect()
        }

        /// Block until `n` completions are held, in an order that does not
        /// depend on which render finished first.
        fn hold(&mut self, n: usize) {
            while self.held.len() < n {
                let done = self.completions.recv_timeout(Duration::from_secs(20));
                self.held.push(done.expect("a render completes"));
            }
            self.held
                .sort_by_key(|done| (done.session, done.request_id));
        }

        /// Apply held completion `i`.
        fn complete(&mut self, i: usize) {
            let done = self.held.remove(i);
            self.node.complete(done, self.now);
        }

        /// Drop the node, then shut the service down and join its workers.
        fn shutdown(self) -> ServiceReport {
            drop(self.node);
            let shared = Arc::into_inner(self.shared).expect("the node held the last share");
            shared.sharded.shutdown()
        }
    }

    /// A draining node refuses new work typed, still answers what it owes,
    /// and says GOODBYE to the work-carrying session only once nothing is
    /// outstanding; a pure control session is never GOODBYE'd and can
    /// query the drain and resume the node.
    #[test]
    fn a_drained_node_refuses_work_says_goodbye_once_empty_and_can_be_resumed() {
        let mut h = Harness::new(config());
        let req = scene(1.0, 8);
        let render = Request::Render(Cow::Borrowed(&req));
        let submit = Request::Submit(Cow::Borrowed(&req));
        let worker = h.open();
        h.send(worker, 1, &render);
        h.hold(1);
        h.complete(0);
        assert_frame(h.replies(worker), 1, &req);
        // A parked ticket keeps the node non-empty while the refusal is
        // probed.
        h.send(worker, 2, &submit);
        assert_eq!(h.replies(worker), [(2, Reply::Submitted(2))]);

        h.send(worker, 3, &Request::Drain(3));
        let state = |draining, outstanding, epoch| DrainState {
            draining,
            outstanding,
            epoch,
        };
        assert_eq!(
            h.replies(worker),
            [(3, Reply::DrainState(state(true, 1, 3)))]
        );
        h.send(worker, 4, &submit);
        assert_eq!(h.replies(worker), [(4, Reply::Draining(3))]);
        h.node.turn(false);
        assert_eq!(h.replies(worker), [], "no GOODBYE while a ticket is held");

        // What the node owes is still answered: the redeem parks, and the
        // render's completion answers it under the redeem's id.
        h.send(worker, 5, &Request::Redeem(2));
        assert_eq!(h.replies(worker), []);
        h.hold(1);
        h.complete(0);
        assert_frame(h.replies(worker), 5, &req);
        h.node.turn(false);
        assert_eq!(h.replies(worker), [(0, Reply::Goodbye)]);
        assert!(h.node.session_mut(worker).expect("open").closing);

        let control = h.open();
        h.send(control, 1, &Request::Drain(3));
        assert_eq!(
            h.replies(control),
            [(1, Reply::DrainState(state(true, 0, 3)))]
        );
        h.node.turn(false);
        assert_eq!(h.replies(control), [], "a control session stays open");
        h.send(control, 2, &Request::Resume(4));
        assert_eq!(
            h.replies(control),
            [(2, Reply::DrainState(state(false, 0, 4)))]
        );
        h.send(control, 3, &Request::Stats);
        match h.replies(control).as_slice() {
            [(3, Reply::StatsReport(stats))] => assert_eq!(stats.epoch, 4),
            other => panic!("expected STATS under 3, got {other:?}"),
        }

        // Back in service for fresh sessions.
        let fresh = h.open();
        h.send(fresh, 1, &render);
        h.hold(1);
        h.complete(0);
        assert_frame(h.replies(fresh), 1, &req);
        h.shutdown();
    }

    /// A session closed with a render in flight (its peer vanished
    /// mid-pipeline) goes quietly: the completion finds no session and
    /// sends nothing, and the other session renders on.
    #[test]
    fn a_session_closed_mid_pipeline_is_reaped_quietly() {
        let mut h = Harness::new(config());
        let survivor = h.open();
        let gone = h.open();
        let req = scene(30.0, 8);
        h.send(gone, 1, &Request::Render(Cow::Borrowed(&req)));
        h.node.close(gone);
        h.hold(1);
        h.complete(0);
        let open: Vec<u64> = h.node.sessions().map(|(id, _)| id).collect();
        assert_eq!(open, [survivor]);

        for (id, azimuth) in [(1, 30.0), (2, 40.0)] {
            let req = scene(azimuth, 8);
            h.send(survivor, id, &Request::Render(Cow::Borrowed(&req)));
            h.hold(1);
            h.complete(0);
            assert_frame(h.replies(survivor), id, &req);
        }
        assert_eq!(h.shutdown().frames_failed, 0);
    }

    /// During shutdown a session is kept while it is owed a frame or has one
    /// left to write: a render admitted while the service was paused still
    /// reaches its client once shutdown resumes the service.
    #[test]
    fn shutdown_keeps_a_session_until_its_blocked_render_is_written() {
        let mut h = Harness::new(ServerConfig {
            service: ServiceConfig {
                workers: 1,
                start_paused: true,
                ..ServiceConfig::default()
            },
            ..config()
        });
        let client = h.open();
        let _idle = h.open();
        let req = scene(5.0, 8);
        h.send(client, 1, &Request::Render(Cow::Borrowed(&req)));
        h.node.turn(true);
        let open: Vec<u64> = h.node.sessions().map(|(id, _)| id).collect();
        assert_eq!(open, [client], "only the session owed a frame stays");

        // What `RenderServer::shutdown` does before its last loop turns.
        h.shared.sharded.resume();
        h.hold(1);
        h.complete(0);
        h.node.turn(true);
        assert!(!h.node.sessions.is_empty(), "the FRAME is not written yet");
        assert_frame(h.replies(client), 1, &req);
        h.node.turn(true);
        assert!(h.node.sessions.is_empty());
        assert_eq!(h.shutdown().frames_completed, 1);
    }

    /// Ten renders in flight on one session, completed in reverse: each
    /// `FRAME` leaves under its own id with its own image (distinct sizes
    /// make any misrouting visible).
    #[test]
    fn ten_renders_completed_in_reverse_leave_under_their_own_ids() {
        let mut h = Harness::new(config());
        let session = h.open();
        let requests: Vec<NetSceneRequest> =
            (0..10).map(|i| scene(i as f32 * 13.0, 4 + i)).collect();
        for (id, req) in (1..).zip(&requests) {
            h.send(session, id, &Request::Render(Cow::Borrowed(req)));
        }
        assert_eq!(h.replies(session), []);
        h.hold(10);
        for i in (0..10).rev() {
            h.complete(i);
            assert_frame(h.replies(session), i as u64 + 1, &requests[i]);
        }
        h.shutdown();
    }

    // -----------------------------------------------------------------------
    // Seeded event orders against a model
    // -----------------------------------------------------------------------

    /// splitmix64: a seeded stream with no dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// The seeds' scenes and their direct renders, computed once.
    fn scenes() -> &'static [(NetSceneRequest, Image)] {
        static SCENES: OnceLock<Vec<(NetSceneRequest, Image)>> = OnceLock::new();
        SCENES.get_or_init(|| {
            [0.0, 40.0, 80.0]
                .map(|azimuth| {
                    let request = scene(azimuth, 8);
                    let image = direct(&request);
                    (request, image)
                })
                .into()
        })
    }

    /// A ticket the model expects the node to hold.
    struct Owed {
        scene: usize,
        /// The request id its `FRAME` is owed under, once one is parked.
        redeem: Option<u64>,
        ready: bool,
    }

    /// The model of one session.
    #[derive(Default)]
    struct Client {
        closing: bool,
        carried_work: bool,
        bucket: Option<TokenBucket>,
        tickets: HashMap<u64, Owed>,
        /// Every request id sent on this session.
        issued: Vec<u64>,
    }

    impl Client {
        fn in_use(&self, id: u64) -> bool {
            self.tickets.contains_key(&id) || self.tickets.values().any(|t| t.redeem == Some(id))
        }
    }

    /// What the model expects a reply to be.
    #[derive(Debug)]
    enum Want {
        Is(Reply),
        Frame(usize),
        BadRequest(&'static str),
        Stats(u64),
        Prewarmed,
    }

    /// One seed: 1–3 sessions and a random mix of every request the door
    /// serves, reused and bogus ids, truncated payloads, lost framing,
    /// sessions closed mid-pipeline, completions applied in seeded order and
    /// virtual time for the rate limiter, then a shutdown. After every event
    /// each session's replies must be exactly the model's.
    struct Sim {
        h: Harness,
        rng: Rng,
        log: bool,
        max_tickets: usize,
        rate: Option<RateLimitConfig>,
        /// Sessions still to open: a seed opens 1–3 in all.
        to_open: usize,
        clients: HashMap<u64, Client>,
        draining: bool,
        epoch: u64,
        next_id: u64,
        /// Renders admitted, and completions applied (or dropped).
        admitted: usize,
        applied: usize,
        /// Replies the last event must have queued: (session, id, reply).
        want: Vec<(u64, u64, Want)>,
    }

    impl Sim {
        fn new(seed: u64) -> Sim {
            let mut rng = Rng(seed);
            let max_tickets = 1 + rng.below(4);
            let rate = (rng.below(2) == 0)
                .then(|| RateLimitConfig::new(0.5 + rng.below(8) as f64, 1 + rng.below(3) as u32));
            let h = Harness::new(ServerConfig {
                rate_limit: rate,
                max_tickets_per_session: max_tickets,
                ..config()
            });
            let to_open = 1 + rng.below(3);
            let mut sim = Sim {
                h,
                rng,
                log: std::env::var_os("NODE_SEED").is_some(),
                max_tickets,
                rate,
                to_open,
                clients: HashMap::new(),
                draining: false,
                epoch: 0,
                next_id: 0,
                admitted: 0,
                applied: 0,
                want: Vec::new(),
            };
            sim.open();
            sim
        }

        fn note(&self, event: std::fmt::Arguments) {
            if self.log {
                eprintln!("  {event}");
            }
        }

        /// The model's sessions, in id order; `readable`: not closing.
        fn ids(&self, readable: bool) -> Vec<u64> {
            let mut ids: Vec<u64> = self
                .clients
                .iter()
                .filter(|(_, c)| !(readable && c.closing))
                .map(|(id, _)| *id)
                .collect();
            ids.sort_unstable();
            ids
        }

        fn pick(&mut self, readable: bool) -> Option<u64> {
            let ids = self.ids(readable);
            (!ids.is_empty()).then(|| ids[self.rng.below(ids.len())])
        }

        /// A fresh id, or one of the session's earlier ones.
        fn request_id(&mut self, session: u64) -> u64 {
            let issued = &self.clients[&session].issued;
            if !issued.is_empty() && self.rng.below(4) == 0 {
                return issued[self.rng.below(issued.len())];
            }
            self.next_id += 1;
            self.next_id
        }

        fn step(&mut self) {
            self.h.now += Duration::from_millis(self.rng.below(250) as u64);
            match self.rng.below(100) {
                0..=57 => self.request(),
                58..=71 => self.complete(),
                72..=81 => self.turn(false),
                82..=84 => self.close(),
                85..=88 => self.open(),
                89..=91 => self.unframable(),
                _ => self.malformed(),
            }
            self.check();
        }

        fn open(&mut self) {
            if self.to_open == 0 {
                return;
            }
            self.to_open -= 1;
            let session = self.h.open();
            self.note(format_args!("open {session}"));
            let bucket = self.rate.map(|rate| TokenBucket::new(rate, self.h.now));
            let client = Client {
                bucket,
                ..Client::default()
            };
            self.clients.insert(session, client);
        }

        fn close(&mut self) {
            let Some(session) = self.pick(false) else {
                return;
            };
            self.note(format_args!("close {session}"));
            self.h.node.close(session);
            self.clients.remove(&session);
        }

        fn request(&mut self) {
            let Some(session) = self.pick(true) else {
                return;
            };
            let id = self.request_id(session);
            let index = self.rng.below(scenes().len());
            let scene = Cow::Borrowed(&scenes()[index].0);
            let epoch = self.rng.below(6) as u64;
            let request = match self.rng.below(12) {
                0..=2 => Request::Render(scene),
                3..=4 => Request::Submit(scene),
                5..=7 => Request::Redeem(self.ticket(session)),
                8 => Request::Ping(self.rng.next()),
                9 => Request::Stats,
                10 => Request::Drain(epoch),
                _ if self.rng.below(2) == 0 => Request::Resume(epoch),
                _ => Request::Prewarm(epoch, scene),
            };
            self.note(format_args!(
                "{session}: {} under {id}",
                describe(&request, index)
            ));
            if let Some(want) = self.expect(session, id, index, &request) {
                self.want.push((session, id, want));
            }
            self.clients
                .get_mut(&session)
                .expect("open")
                .issued
                .push(id);
            self.h.send(session, id, &request);
        }

        /// A ticket id to redeem: one the model holds, any id the session
        /// used, or one it never did.
        fn ticket(&mut self, session: u64) -> u64 {
            let client = &self.clients[&session];
            let mut held: Vec<u64> = client.tickets.keys().copied().collect();
            held.sort_unstable();
            match self.rng.below(8) {
                0 => 1 << 40,
                1 if !client.issued.is_empty() => {
                    client.issued[self.rng.below(client.issued.len())]
                }
                _ if !held.is_empty() => held[self.rng.below(held.len())],
                _ => 1 << 41,
            }
        }

        /// The model's answer to `request` under `id` on `session`, with
        /// its state moved as the node's must move.
        fn expect(
            &mut self,
            session: u64,
            id: u64,
            scene: usize,
            request: &Request,
        ) -> Option<Want> {
            let outstanding: usize = self.clients.values().map(|c| c.tickets.len()).sum();
            let client = self.clients.get_mut(&session).expect("open");
            if client.in_use(id) {
                return Some(Want::BadRequest("duplicate request id"));
            }
            let want = match request {
                Request::Ping(token) => Want::Is(Reply::Pong(Pong {
                    token: *token,
                    shards: 1,
                })),
                Request::Stats => Want::Stats(self.epoch),
                Request::Render(_) | Request::Submit(_) | Request::Prewarm(..) if self.draining => {
                    Want::Is(Reply::Draining(self.epoch))
                }
                Request::Render(_) | Request::Submit(_) => {
                    let held = client.tickets.len();
                    if held >= self.max_tickets {
                        return Some(Want::Is(Reply::TicketsFull(TicketsFull {
                            outstanding: held as u64,
                            limit: self.max_tickets as u64,
                        })));
                    }
                    if let Some(bucket) = &mut client.bucket {
                        if let Err(retry_after) = bucket.try_take_at(self.h.now) {
                            return Some(Want::Is(Reply::Throttled(retry_after)));
                        }
                    }
                    client.carried_work = true;
                    self.admitted += 1;
                    let render = matches!(request, Request::Render(_));
                    let redeem = render.then_some(id);
                    let owed = Owed {
                        scene,
                        redeem,
                        ready: false,
                    };
                    client.tickets.insert(id, owed);
                    return (!render).then_some(Want::Is(Reply::Submitted(id)));
                }
                Request::Redeem(ticket) => match client.tickets.get_mut(ticket) {
                    Some(owed) if owed.ready => {
                        let scene = owed.scene;
                        client.tickets.remove(ticket);
                        Want::Frame(scene)
                    }
                    Some(Owed { redeem: None, .. }) => {
                        client.tickets.get_mut(ticket).expect("held").redeem = Some(id);
                        return None;
                    }
                    Some(_) => Want::BadRequest("already being redeemed"),
                    None => Want::BadRequest("unknown ticket"),
                },
                Request::Drain(epoch) | Request::Resume(epoch) => {
                    self.epoch = self.epoch.max(*epoch);
                    self.draining = matches!(request, Request::Drain(_));
                    Want::Is(Reply::DrainState(DrainState {
                        draining: self.draining,
                        outstanding: outstanding as u64,
                        epoch: self.epoch,
                    }))
                }
                Request::Prewarm(epoch, _) => {
                    self.epoch = self.epoch.max(*epoch);
                    Want::Prewarmed
                }
                Request::Traces(_) => unreachable!("not in the mix"),
            };
            Some(want)
        }

        /// Apply one of the renders in flight, picked by the seed.
        fn complete(&mut self) {
            let pending = self.admitted - self.applied;
            if pending == 0 {
                return;
            }
            self.h.hold(pending);
            let i = self.rng.below(pending);
            let (session, ticket) = (self.h.held[i].session, self.h.held[i].request_id);
            self.note(format_args!("complete {session}/{ticket}"));
            self.h.complete(i);
            self.applied += 1;
            let Some(client) = self.clients.get_mut(&session) else {
                return;
            };
            let owed = client.tickets.get_mut(&ticket).expect("the model holds it");
            match owed.redeem {
                Some(redeem) => {
                    let scene = owed.scene;
                    client.tickets.remove(&ticket);
                    self.want.push((session, redeem, Want::Frame(scene)));
                }
                None => owed.ready = true,
            }
        }

        fn turn(&mut self, shutting_down: bool) {
            self.note(format_args!("turn (shutting down: {shutting_down})"));
            self.h.node.turn(shutting_down);
            if shutting_down {
                let owed = |c: &Client| c.tickets.values().any(|t| t.redeem.is_some());
                self.clients.retain(|_, c| owed(c));
            } else if self.draining && self.clients.values().all(|c| c.tickets.is_empty()) {
                for session in self.ids(false) {
                    let client = self.clients.get_mut(&session).expect("open");
                    if client.carried_work && !client.closing {
                        client.closing = true;
                        self.want.push((session, 0, Want::Is(Reply::Goodbye)));
                    }
                }
            }
        }

        /// The shell lost framing on a session.
        fn unframable(&mut self) {
            let Some(session) = self.pick(true) else {
                return;
            };
            let (err, want) = match self.rng.below(3) {
                0 => (WireError::BadMagic(0x5445_4720), Want::BadRequest("magic")),
                1 => {
                    let versions = UnsupportedVersion {
                        got: 2,
                        want: VERSION,
                    };
                    let err = WireError::UnsupportedVersion {
                        got: 2,
                        want: VERSION,
                    };
                    (err, Want::Is(Reply::UnsupportedVersion(versions)))
                }
                _ => {
                    let err = WireError::TooLarge {
                        len: u64::MAX,
                        max: DEFAULT_MAX_PAYLOAD,
                    };
                    (err, Want::BadRequest("exceeds"))
                }
            };
            self.note(format_args!("{session}: unframable {err}"));
            self.h.node.unframable(session, err);
            self.clients.get_mut(&session).expect("open").closing = true;
            self.want.push((session, 0, want));
        }

        /// A well-framed request whose payload does not decode: truncated,
        /// or (an empty payload) with a byte too many, or under a tag no
        /// request has — which also closes the session.
        fn malformed(&mut self) {
            let Some(session) = self.pick(true) else {
                return;
            };
            let id = self.request_id(session);
            let client = self.clients.get_mut(&session).expect("open");
            client.issued.push(id);
            let scene = Cow::Borrowed(&scenes()[0].0);
            let request = match self.rng.below(5) {
                0 => Request::Render(scene),
                1 => Request::Prewarm(1, scene),
                2 => Request::Redeem(id),
                3 => Request::Stats,
                _ => {
                    client.closing = true;
                    self.note(format_args!("{session}: unknown tag under {id}"));
                    self.want
                        .push((session, id, Want::BadRequest("unknown opcode")));
                    let tag = Reply::Goodbye.tag();
                    self.h.node.frame(session, tag, id, &[], self.h.now);
                    return;
                }
            };
            let mut payload = request.framed(id)[PRELUDE_BYTES..].to_vec();
            match payload.len() {
                0 => payload.push(0),
                n => payload.truncate(self.rng.below(n)),
            }
            let what = describe(&request, 0);
            self.note(format_args!(
                "{session}: {what} under {id}, {} bytes",
                payload.len()
            ));
            self.want.push((session, id, Want::BadRequest("")));
            self.h
                .node
                .frame(session, request.tag(), id, &payload, self.h.now);
        }

        /// Every invariant, after every event.
        fn check(&mut self) {
            let mut open: Vec<u64> = self.h.node.sessions().map(|(id, _)| id).collect();
            open.sort_unstable();
            assert_eq!(open, self.ids(false), "the node's sessions are the model's");
            let outstanding: usize = self.clients.values().map(|c| c.tickets.len()).sum();
            let mut want = std::mem::take(&mut self.want).into_iter();
            for session in open {
                let replies = self.h.replies(session);
                let client = &self.clients[&session];
                let held = self.h.node.sessions[&session].tickets.len();
                assert!(
                    held <= self.max_tickets,
                    "{held} tickets on {session}, over the bound"
                );
                assert_eq!(held, client.tickets.len(), "session {session}'s tickets");
                for (id, reply) in replies {
                    assert!(
                        id == 0 || client.issued.contains(&id),
                        "a reply under {id}, which session {session} never issued"
                    );
                    let echoed = match &reply {
                        Reply::DrainState(state) => {
                            assert_eq!(state.outstanding, outstanding as u64, "outstanding");
                            Some(state.epoch)
                        }
                        Reply::Draining(epoch) => Some(*epoch),
                        Reply::StatsReport(stats) => Some(stats.epoch),
                        Reply::Goodbye => {
                            assert!(self.draining, "GOODBYE from a node not draining");
                            assert_eq!(outstanding, 0, "GOODBYE with work outstanding");
                            assert!(client.carried_work, "GOODBYE to a control session");
                            None
                        }
                        _ => None,
                    };
                    if let Some(echoed) = echoed {
                        assert_eq!(
                            echoed, self.epoch,
                            "the echoed epoch is the highest announced"
                        );
                    }
                    let Some((to, want_id, wanted)) = want.next() else {
                        panic!(
                            "session {session}: ({id}, {}) was not expected",
                            brief(&reply)
                        );
                    };
                    assert_eq!(
                        (to, want_id),
                        (session, id),
                        "{} where {wanted:?} was due",
                        brief(&reply)
                    );
                    let matches = match (&wanted, &reply) {
                        (Want::Is(wanted), reply) => wanted == reply,
                        (Want::Frame(scene), Reply::Frame(frame)) => {
                            assert!(
                                frame.image == scenes()[*scene].1,
                                "FRAME {id} != direct render"
                            );
                            true
                        }
                        (Want::BadRequest(text), Reply::BadRequest(echo)) => echo.contains(text),
                        (Want::Stats(epoch), Reply::StatsReport(stats)) => stats.epoch == *epoch,
                        (Want::Prewarmed, Reply::Prewarmed(prewarmed)) => prewarmed.shard == 0,
                        _ => false,
                    };
                    assert!(
                        matches,
                        "session {session}, id {id}: got {}, want {wanted:?}",
                        brief(&reply)
                    );
                }
            }
            let missing: Vec<_> = want.collect();
            assert!(missing.is_empty(), "replies never sent: {missing:?}");
        }
    }

    /// `reply` in an assertion message, without its pixels or snapshots.
    fn brief(reply: &Reply) -> String {
        match reply {
            Reply::Frame(frame) => format!("Frame({}²)", frame.image.width()),
            Reply::StatsReport(stats) => format!("StatsReport(epoch {})", stats.epoch),
            other => format!("{other:?}"),
        }
    }

    /// `request` in a replay log line, its scene by index.
    fn describe(request: &Request, scene: usize) -> String {
        match request {
            Request::Render(_) => format!("RENDER scene {scene}"),
            Request::Submit(_) => format!("SUBMIT scene {scene}"),
            Request::Prewarm(epoch, _) => format!("PREWARM {epoch} scene {scene}"),
            other => format!("{other:?}"),
        }
    }

    /// Run `seed` to its end: 60 events, then a shutdown during which the
    /// renders still in flight complete in seeded order.
    fn run(seed: u64) {
        let mut sim = Sim::new(seed);
        for _ in 0..60 {
            sim.step();
        }
        loop {
            sim.turn(true);
            sim.check();
            if sim.admitted == sim.applied {
                break;
            }
            sim.complete();
            sim.check();
        }
        assert!(
            sim.h.node.sessions.is_empty(),
            "shutdown leaves no session behind"
        );
        let report = sim.h.shutdown();
        assert_eq!(report.frames_failed, 0);
    }

    /// 1000 seeded event orders; `NODE_SEED=<n>` runs seed n alone and
    /// prints its events. A failing seed prints the line that replays it.
    #[test]
    fn a_thousand_seeded_event_orders_keep_every_invariant() {
        let seeds = match std::env::var("NODE_SEED") {
            Ok(seed) => {
                let seed = seed.parse().expect("NODE_SEED is a seed number");
                seed..seed + 1
            }
            Err(_) => 0..1000,
        };
        for seed in seeds {
            if let Err(panic) = std::panic::catch_unwind(|| run(seed)) {
                eprintln!(
                    "replay: NODE_SEED={seed} cargo test -p mgpu-net --lib \
                     node::tests::a_thousand_seeded_event_orders_keep_every_invariant \
                     -- --nocapture"
                );
                std::panic::resume_unwind(panic);
            }
        }
    }

    /// One seed checked in as its own test: the shape a failing seed takes
    /// once its fault is mended.
    #[test]
    fn seed_17_replays() {
        run(17);
    }
}
