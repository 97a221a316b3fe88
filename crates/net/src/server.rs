//! The network front-end: a [`RenderServer`] owning a [`ShardedService`],
//! serving wire v3 over plain `std::net` TCP from **one event-driven
//! readiness loop** — the C10K shape: thousands of mostly-idle sessions
//! cost one file descriptor and a few hundred bytes of state each, not a
//! parked thread.
//!
//! ```text
//!                        poll(2) readiness loop (one thread)
//!   TcpListener ──accept──► connection registry: per-conn frame reader
//!                           (`wire::FrameReader`) + write queue
//!        frame complete ──► rate limiter ──► admission ──► try_submit_traced
//!             │ THROTTLED/REJECTED answered inline, tagged request_id      │
//!             ▼                                                            ▼
//!        write buffer ◄── completion queue ◄── hook fires on a render worker
//!                          (waker pipe wakes the poll)
//! ```
//!
//! The loop is the server's one thread and the completion queue its one
//! inbound queue: everything except the render itself runs on the loop —
//! admission, the session ticket tables, drain state, and every control
//! request, `PREWARM` included. A `PREWARM` builds its plan inline, because
//! a plan is a brick grid and an empty brick store: 12–19 µs for the repo's
//! volumes on a 2.6 GHz Xeon, no more than decoding a shipped request
//! costs. The first frame rendered against the plan still stages every
//! brick it needs.
//!
//! Every request frame carries a client-chosen `request_id`; every reply
//! echoes it — so one connection carries many in-flight renders and the
//! replies leave in *completion* order, not submission order. The loop
//! never sleeps on a timer: it blocks in `poll(2)` until a socket is ready
//! or a render worker writes the waker byte, so an idle server costs zero
//! wakeups (a unit test pins this down).
//!
//! Each complete frame is decoded into a [`Request`] and served by one
//! exhaustive `match`; every answer leaves as a [`Reply`] (a `FRAME` as a
//! view of the cached image). Faults stay on the connection that caused
//! them: a client that sends garbage gets a typed [`WireError`] echoed in a
//! `BadRequest` and its connection closed; a v2 (or any wrong-version)
//! client gets a typed `UnsupportedVersion` reply and a clean close; a
//! client that vanishes mid-request is reaped on the next readiness event.
//! Other connections never notice any of it.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{JoinHandle, ThreadId};
use std::time::Instant;

use mgpu_obs::names;
use mgpu_obs::{Counter, Gauge, Registry, Trace};
use mgpu_serve::{FrameResult, SceneRequest, ServiceConfig, ServiceReport, ShardedService};

use crate::heat::NetStats;
use crate::ratelimit::{RateLimitConfig, TokenBucket};
use crate::wire::{
    frame_payload_bytes, frame_view, DrainState, FrameReader, NetSceneRequest, OutFrame, Pong,
    Prewarmed, Reply, Request, TicketsFull, UnsupportedVersion, WireError, DEFAULT_MAX_PAYLOAD,
};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Shards of the backing [`ShardedService`] (≥ 1; each shard runs
    /// `service.workers` worker threads).
    pub shards: usize,
    /// Per-shard service configuration.
    pub service: ServiceConfig,
    /// Per-session (= per-connection) rate limiting at the server door;
    /// `None` disables throttling.
    pub rate_limit: Option<RateLimitConfig>,
    /// Upper bound on one frame's payload, either way: a longer request is
    /// refused unread, and so is a `RENDER`/`SUBMIT` whose image would not
    /// fit one `FRAME` reply this size (typed `BadRequest`, nothing is
    /// rendered). Clients reading replies near it raise their own bound,
    /// [`crate::ClientConfig::max_payload`], to match.
    pub max_payload: u64,
    /// Outstanding requests one session may hold: in-flight `RENDER`s plus
    /// submitted-but-unredeemed tickets. Each one eventually pins a
    /// rendered frame in server memory, so this bounds per-connection
    /// cost; requests past the bound get a typed `TicketsFull` reply
    /// until replies are consumed / tickets redeemed.
    pub max_tickets_per_session: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            shards: 2,
            service: ServiceConfig::default(),
            rate_limit: None,
            max_payload: DEFAULT_MAX_PAYLOAD,
            max_tickets_per_session: 64,
        }
    }
}

// ---------------------------------------------------------------------------
// Readiness: poll(2) over raw fds — std::net only, no extra crates
// ---------------------------------------------------------------------------

/// Minimal `poll(2)` wrapper. `std` exposes no multi-socket wait, and the
/// offline build forbids external crates, so the loop declares the libc
/// symbol directly (libc is already linked by std). Level-triggered: a
/// spurious "ready" only costs one `WouldBlock` read.
mod readiness {
    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    /// `struct pollfd` as `poll(2)` expects it.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    impl PollFd {
        pub fn new(fd: i32, events: i16) -> PollFd {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }

        pub fn readable(&self) -> bool {
            self.revents & (POLLIN | POLLHUP | POLLERR) != 0
        }

        pub fn writable(&self) -> bool {
            self.revents & POLLOUT != 0
        }

        /// The fd is dead (peer reset, or the fd itself is invalid).
        pub fn failed(&self) -> bool {
            self.revents & (POLLERR | POLLNVAL) != 0
        }
    }

    #[cfg(unix)]
    pub fn fd_of(source: &impl std::os::fd::AsRawFd) -> i32 {
        source.as_raw_fd()
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NFds = std::os::raw::c_ulong;
    #[cfg(all(unix, not(any(target_os = "linux", target_os = "android"))))]
    type NFds = std::os::raw::c_uint;

    #[cfg(unix)]
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
    }

    /// Block until at least one fd is ready (or `timeout_ms` elapses;
    /// negative = wait forever). Retries `EINTR` internally.
    #[cfg(unix)]
    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        loop {
            // SAFETY: `fds` is a live, exclusively borrowed slice for the
            // whole call; `PollFd` is `#[repr(C)]` matching `struct pollfd`,
            // and the length is passed alongside the pointer, so the kernel
            // reads/writes exactly the slice we own and nothing else.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// Portability stub for non-unix hosts (never exercised by CI): report
    /// everything ready and let the non-blocking reads/writes sort out the
    /// spurious readiness. The short sleep keeps it from spinning.
    #[cfg(not(unix))]
    pub fn fd_of<T>(_source: &T) -> i32 {
        0
    }

    #[cfg(not(unix))]
    pub fn wait(fds: &mut [PollFd], _timeout_ms: i32) -> std::io::Result<usize> {
        std::thread::sleep(std::time::Duration::from_millis(1));
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        Ok(fds.len())
    }
}

// ---------------------------------------------------------------------------
// Waker + completion queue: render workers → event loop
// ---------------------------------------------------------------------------

/// Self-pipe built from a loopback TCP pair (`std::net` has no pipes): the
/// event loop polls the read end; render workers write one byte to break
/// the poll when a completion lands.
struct Waker {
    tx: TcpStream,
}

impl Waker {
    fn wake(&self) {
        // Non-blocking: a full pipe already guarantees a pending wakeup,
        // and a closed pipe means the loop is gone — both ignorable.
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// Build the waker pair: `tx` for workers (and shutdown), `rx` for the
/// event loop to poll and drain.
fn waker_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let local = tx.local_addr()?;
    // Accept until we see our own connection (paranoia against a stray
    // port-scanning connect racing the pair).
    let rx = loop {
        let (rx, peer) = listener.accept()?;
        if peer == local {
            break rx;
        }
    };
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

struct Completion {
    conn: u64,
    request_id: u64,
    result: FrameResult,
    /// The request's trace, carried through the render so the event loop
    /// can stamp the `reply` span before the last `Arc` drop publishes it.
    trace: Arc<Trace>,
}

/// What a render worker's completion hook reaches: the queue plus the
/// waker. Deliberately a *separate* `Arc` from [`Shared`] — hooks live
/// inside queued jobs, and a hook holding the service's own `Arc` would
/// cycle and break shutdown's sole-ownership teardown.
struct Notifier {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    /// The event loop's thread, set as it starts.
    loop_thread: OnceLock<ThreadId>,
}

impl Notifier {
    fn complete(&self, completion: Completion) {
        self.completions
            .lock()
            .expect("completion queue poisoned")
            .push(completion);
        // A frame-cache hit completes inside `try_submit_traced`, on the
        // event loop itself, mid-dispatch: the loop applies completions
        // before it next polls, so waking it would only buy an empty round.
        if self.loop_thread.get() != Some(&std::thread::current().id()) {
            self.waker.wake();
        }
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().expect("completion queue poisoned"))
    }
}

// ---------------------------------------------------------------------------
// Per-connection state
// ---------------------------------------------------------------------------

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

/// `Arc` handles into the server's per-instance [`Registry`], cloned into
/// every connection so the hot read/write paths record lock-free.
#[derive(Clone)]
struct ConnObs {
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
    frames_in: Arc<Counter>,
    frames_out: Arc<Counter>,
    connections: Arc<Gauge>,
}

impl ConnObs {
    fn new(reg: &Registry) -> ConnObs {
        ConnObs {
            bytes_read: reg.counter(names::NET_BYTES_READ),
            bytes_written: reg.counter(names::NET_BYTES_WRITTEN),
            frames_in: reg.counter(names::NET_FRAMES_IN),
            frames_out: reg.counter(names::NET_FRAMES_OUT),
            connections: reg.gauge(names::NET_CONNECTIONS),
        }
    }
}

/// One connection in the registry: socket, partial-frame reader, pending
/// writes, and the session state (rate bucket, ticket table).
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    /// Outgoing frames, front partially written up to `out_pos`.
    out: VecDeque<OutFrame>,
    out_pos: usize,
    bucket: Option<TokenBucket>,
    /// Every admitted `RENDER` and `SUBMIT` whose frame is not yet sent.
    tickets: HashMap<u64, Ticket>,
    /// Stop reading; flush the write buffer, then drop the connection.
    closing: bool,
    /// Has this session ever been admitted render work (`RENDER` or
    /// `SUBMIT`)? The soft-drain GOODBYE wave only seals such sessions;
    /// pure control connections (PING/STATS/DRAIN/RESUME) stay readable,
    /// so a drained node can still be resumed.
    carried_work: bool,
    obs: ConnObs,
}

impl Conn {
    fn new(stream: TcpStream, rate: Option<RateLimitConfig>, obs: ConnObs) -> Conn {
        obs.connections.inc();
        Conn {
            stream,
            reader: FrameReader::new(),
            out: VecDeque::new(),
            out_pos: 0,
            bucket: rate.map(|cfg| TokenBucket::new(cfg, Instant::now())),
            tickets: HashMap::new(),
            closing: false,
            carried_work: false,
            obs,
        }
    }

    fn send(&mut self, frame: impl Into<OutFrame>) {
        self.out.push_back(frame.into());
    }

    /// Requests currently holding server-side state for this session.
    fn outstanding(&self) -> usize {
        self.tickets.len()
    }

    /// The request ids frames are owed under: in-flight `RENDER`s and
    /// parked `REDEEM`s.
    fn parked_redeems(&self) -> impl Iterator<Item = u64> + '_ {
        self.tickets.values().filter_map(|ticket| match ticket {
            Ticket::Pending { redeem } => *redeem,
            Ticket::Ready(_) => None,
        })
    }

    /// Is `id` already naming an outstanding request on this connection?
    fn id_in_use(&self, id: u64) -> bool {
        self.tickets.contains_key(&id) || self.parked_redeems().any(|redeem| redeem == id)
    }

    /// Everything this session still owes the client (shutdown drains it).
    fn drained(&self) -> bool {
        self.out.is_empty() && self.parked_redeems().next().is_none()
    }

    /// Pull bytes until a full frame lands (`Ok(Some)`) or the socket runs
    /// dry (`Ok(None)`).
    fn read_frame(&mut self, max_payload: u64) -> Result<Option<(u8, u64, Vec<u8>)>, WireError> {
        let mut socket = CountedRead {
            stream: &self.stream,
            bytes_read: &self.obs.bytes_read,
        };
        let frame = self.reader.read(&mut socket, max_payload)?;
        if frame.is_some() {
            self.obs.frames_in.inc();
        }
        Ok(frame)
    }

    /// Write as much of the out-queue as the socket accepts. `Err(())`
    /// means the connection is dead.
    fn flush(&mut self) -> Result<(), ()> {
        while let Some(front) = self.out.front() {
            match front.write_from(self.out_pos, &mut &self.stream) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    self.out_pos += n;
                    self.obs.bytes_written.add(n as u64);
                    if self.out_pos == front.len() {
                        self.out.pop_front();
                        self.out_pos = 0;
                        self.obs.frames_out.inc();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        Ok(())
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.obs.connections.dec();
    }
}

/// A connection's socket as a `Read` that counts every byte that arrives
/// into `net.bytes_read`.
struct CountedRead<'a> {
    stream: &'a TcpStream,
    bytes_read: &'a Counter,
}

impl Read for CountedRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.bytes_read.add(n as u64);
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// The server handle
// ---------------------------------------------------------------------------

struct Shared {
    sharded: ShardedService,
    config: ServerConfig,
    /// Raised by `stop_event_loop` on the caller's thread: the loop stops
    /// reading, delivers what it owes, and returns.
    shutdown: AtomicBool,
    /// Highest directory epoch any peer has announced (via `DRAIN` /
    /// `RESUME` / `PREWARM`), echoed in STATS so a stale client can see
    /// the placement moved under it. Monotone: `fetch_max` only. Only the
    /// event loop writes it and it publishes no other data, so every access
    /// is `Relaxed`; [`RenderServer::stats`] is the one off-loop reader.
    epoch: AtomicU64,
    notifier: Arc<Notifier>,
    /// Per-*server-instance* metrics (`net.*`): wakeups and traffic must
    /// not mix across servers sharing a process (the idle-wakeup test runs
    /// next to busy servers), so these live here rather than in the
    /// process-global registry. `STATS` merges both into one snapshot.
    obs: Registry,
    /// Times the event loop's `poll` returned — the "CPU wakeups" an idle
    /// server costs. A sleep-polling loop burns hundreds per second; this
    /// one stays at zero while nothing happens (a unit test asserts it).
    /// Lives in `obs` as `net.loop_wakeups`; this is the cached handle.
    wakeups: Arc<Counter>,
    /// `net.throttled`: requests refused by the per-session rate limiter.
    throttled: Arc<Counter>,
}

/// The TCP render server. Dropping it (or calling
/// [`RenderServer::shutdown`]) stops accepting, drains in-flight replies to
/// every connection, then shuts the backing service down — every frame
/// admitted before shutdown still renders.
pub struct RenderServer {
    addr: SocketAddr,
    shared: Option<Arc<Shared>>,
    event_loop: Option<JoinHandle<()>>,
}

impl RenderServer {
    /// Bind an ephemeral loopback port (tests, benches, examples). See
    /// [`RenderServer::bind`] to choose the address.
    pub fn start(config: ServerConfig) -> std::io::Result<RenderServer> {
        RenderServer::bind("127.0.0.1:0", config)
    }

    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<RenderServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (waker_tx, waker_rx) = waker_pair()?;
        let obs = Registry::new();
        let wakeups = obs.counter(names::NET_LOOP_WAKEUPS);
        let throttled = obs.counter(names::NET_THROTTLED);
        let shared = Arc::new(Shared {
            sharded: ShardedService::start(config.shards, config.service.clone()),
            config,
            shutdown: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            notifier: Arc::new(Notifier {
                completions: Mutex::new(Vec::new()),
                waker: Waker { tx: waker_tx },
                loop_thread: OnceLock::new(),
            }),
            obs,
            wakeups,
            throttled,
        });
        let event_loop = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mgpu-net-events".into())
                .spawn(move || EventLoop::new(listener, waker_rx, shared).run())
                .expect("spawn event loop")
        };
        Ok(RenderServer {
            addr,
            shared: Some(shared),
            event_loop: Some(event_loop),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server-side stats without a socket round-trip (the `STATS` request
    /// returns exactly this).
    pub fn stats(&self) -> NetStats {
        let shared = self.shared.as_ref().expect("server is running");
        net_stats(shared)
    }

    /// How many times the event loop has woken since start — diagnostic
    /// for the no-sleep-polling guarantee: an idle server's count stays
    /// flat, because the loop blocks in `poll` with no timeout instead of
    /// waking on a timer. Reads the same `net.loop_wakeups` counter the
    /// `STATS` snapshot exports — one source of truth for both.
    pub fn loop_wakeups(&self) -> u64 {
        let shared = self.shared.as_ref().expect("server is running");
        shared.wakeups.get()
    }

    /// Start popping jobs on a service that was started paused
    /// (`ServiceConfig::start_paused`) — the wire twin of
    /// [`ShardedService::resume`]. Shutdown resumes on its own way out.
    pub fn resume(&self) {
        let shared = self.shared.as_ref().expect("server is running");
        shared.sharded.resume();
    }

    fn stop_event_loop(&mut self) {
        if let Some(shared) = &self.shared {
            // An in-flight reply against a *paused* service would never
            // resolve and the drain below would hang: resume so admitted
            // work completes (shutdown always drains — same contract as
            // the in-process service).
            shared.sharded.resume();
            // Release: pairs with the loop's Acquire load, so a loop that
            // sees the flag also sees everything this thread did before
            // raising it, the resume above included.
            shared.shutdown.store(true, Ordering::Release);
            shared.notifier.waker.wake();
        }
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
    }

    /// Stop accepting, drain every connection's in-flight replies, shut
    /// the render service down and return its final merged report.
    pub fn shutdown(mut self) -> ServiceReport {
        self.stop_event_loop();
        let shared = self.shared.take().expect("shutdown runs once");
        let shared = Arc::into_inner(shared).expect("event loop joined before service shutdown");
        shared.sharded.shutdown()
    }
}

impl Drop for RenderServer {
    fn drop(&mut self) {
        self.stop_event_loop();
        // Dropping `shared` drops the ShardedService, whose own Drop joins
        // the render workers.
    }
}

/// The `STATS` reply: each shard's own snapshot (every client-side view
/// derives from these, so shard counters sum to the merged counters even
/// under live traffic) and the node snapshot — the server's private
/// `net.*` registry merged with the process-global one (`serve.*`,
/// `volren.*`).
fn net_stats(shared: &Shared) -> NetStats {
    let mut obs = shared.obs.snapshot();
    obs.merge(&mgpu_obs::global().snapshot());
    NetStats {
        epoch: shared.epoch.load(Ordering::Relaxed),
        uptime: shared.sharded.uptime(),
        shard_snapshots: shared.sharded.shard_snapshots(),
        obs,
    }
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

struct EventLoop {
    listener: TcpListener,
    waker_rx: TcpStream,
    shared: Arc<Shared>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Handle bundle cloned into each accepted connection.
    conn_obs: ConnObs,
    /// Soft drain (wire v4): refuse new `RENDER`/`SUBMIT`/`PREWARM` with a
    /// typed `DRAINING` reply, keep answering everything already owed,
    /// `GOODBYE` every work-carrying session once nothing is outstanding.
    /// Reversible with `RESUME` — unlike shutdown, the sockets stay open
    /// and readable.
    draining: bool,
}

impl EventLoop {
    fn new(listener: TcpListener, waker_rx: TcpStream, shared: Arc<Shared>) -> EventLoop {
        let conn_obs = ConnObs::new(&shared.obs);
        EventLoop {
            listener,
            waker_rx,
            shared,
            conns: HashMap::new(),
            next_token: 1,
            conn_obs,
            draining: false,
        }
    }

    fn run(mut self) {
        let loop_thread = &self.shared.notifier.loop_thread;
        let _ = loop_thread.set(std::thread::current().id());
        loop {
            self.apply_completions();

            // Acquire: pairs with the Release store in `stop_event_loop`.
            let shutting_down = self.shared.shutdown.load(Ordering::Acquire);
            if !shutting_down && self.draining {
                // Soft drain: once no session holds anything — no in-flight
                // renders, no un-redeemed tickets — tell every session that
                // carried render work GOODBYE (request id 0, the
                // unsolicited-verdict channel) and close after the flush.
                // Pure control connections stay open and readable, so the
                // drained node can still answer STATS and be RESUMEd; the
                // GOODBYE on the data connections is the drained-node
                // signal the pool keys off.
                let empty = self.conns.values().all(|conn| conn.outstanding() == 0);
                if empty {
                    for conn in self.conns.values_mut() {
                        if conn.carried_work && !conn.closing {
                            conn.send(Reply::Goodbye.framed(0));
                            conn.closing = true;
                            self.shared.obs.counter(names::NET_GOODBYES).inc();
                        }
                    }
                }
            }
            if shutting_down {
                // Graceful shutdown: stop reading, keep delivering. A
                // connection owing nothing more (no in-flight renders, no
                // parked redeems, empty write buffer) closes now;
                // un-redeemed tickets are abandoned (their frames still
                // land in the render cache server-side).
                self.conns.retain(|_, conn| !conn.drained());
                if self.conns.is_empty() {
                    return;
                }
            }

            // fds: [waker, listener?, conns...] with a parallel token list.
            let mut fds = Vec::with_capacity(2 + self.conns.len());
            fds.push(readiness::PollFd::new(
                readiness::fd_of(&self.waker_rx),
                readiness::POLLIN,
            ));
            let listener_slot = if shutting_down {
                None
            } else {
                fds.push(readiness::PollFd::new(
                    readiness::fd_of(&self.listener),
                    readiness::POLLIN,
                ));
                Some(1)
            };
            let mut tokens = Vec::with_capacity(self.conns.len());
            for (token, conn) in &self.conns {
                let mut events = 0i16;
                if !shutting_down && !conn.closing {
                    events |= readiness::POLLIN;
                }
                if !conn.out.is_empty() {
                    events |= readiness::POLLOUT;
                }
                if events == 0 {
                    // Nothing to wait for on this socket right now (e.g. a
                    // draining conn waiting only on render completions) —
                    // still include it so peer resets are noticed.
                    events = readiness::POLLIN;
                }
                tokens.push((*token, fds.len()));
                fds.push(readiness::PollFd::new(
                    readiness::fd_of(&conn.stream),
                    events,
                ));
            }

            // Block until something happens: socket readiness, a fresh
            // connection, a completion's waker byte, or shutdown's wake.
            // No timeout — idle costs zero wakeups.
            if readiness::wait(&mut fds, -1).is_err() {
                return; // poll itself failed: the loop cannot continue
            }
            self.shared.wakeups.inc();

            if fds[0].readable() {
                self.drain_waker();
            }
            if let Some(slot) = listener_slot {
                if fds[slot].readable() {
                    self.accept_ready();
                }
            }
            for (token, slot) in tokens {
                let fd = fds[slot];
                if fd.failed() {
                    self.conns.remove(&token);
                    continue;
                }
                // During the shutdown drain reads are off: only completions
                // and flushes run.
                if fd.readable() && !shutting_down {
                    self.service_reads(token);
                }
                if fd.writable() {
                    self.flush_conn(token);
                }
            }
        }
    }

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 256];
        while let Ok(n) = self.waker_rx.read(&mut sink) {
            if n < sink.len() {
                break;
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    self.conns.insert(
                        token,
                        Conn::new(stream, self.shared.config.rate_limit, self.conn_obs.clone()),
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Deliver completed renders into their connections' write buffers (or
    /// ticket tables). Completions for connections that died in the
    /// meantime are dropped — the frame is in the render cache anyway.
    fn apply_completions(&mut self) {
        for done in self.shared.notifier.drain() {
            let Some(conn) = self.conns.get_mut(&done.conn) else {
                continue;
            };
            // The `reply` span covers frame encoding and write-buffer
            // enqueue (or parking the result); dropping `done` at the end
            // of this arm releases the last trace `Arc`, which publishes the
            // finished trace into the ring.
            let reply_start = Instant::now();
            // One rule for `RENDER` and `SUBMIT`: a parked redeem gets the
            // reply, tagged with its id; otherwise the result is parked.
            match conn.tickets.get_mut(&done.request_id) {
                Some(Ticket::Pending {
                    redeem: Some(redeem_id),
                }) => {
                    let reply = frame_reply(*redeem_id, &done.result);
                    conn.tickets.remove(&done.request_id);
                    conn.send(reply);
                }
                Some(ticket) => *ticket = Ticket::Ready(done.result),
                None => {}
            }
            done.trace.record_since("reply", reply_start);
        }
    }

    /// Read and dispatch whatever the socket has.
    fn service_reads(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.closing {
                return;
            }
            match conn.read_frame(self.shared.config.max_payload) {
                Ok(Some((op, request_id, payload))) => {
                    self.dispatch(token, op, request_id, &payload);
                }
                Ok(None) => return,
                Err(WireError::ConnectionClosed | WireError::Io(_)) => {
                    // Peer vanished (cleanly or mid-frame): nothing to
                    // answer, in-flight completions get dropped on arrival.
                    self.conns.remove(&token);
                    return;
                }
                Err(err) => {
                    // Framing is lost — resyncing an unframed byte stream
                    // is guesswork. Answer typed, flush, close. A version
                    // mismatch gets the dedicated `UnsupportedVersion`
                    // reply (the v2 migration path); everything else the
                    // `BadRequest` echo.
                    let reply = match err {
                        WireError::UnsupportedVersion { got, want } => {
                            Reply::UnsupportedVersion(UnsupportedVersion { got, want })
                        }
                        other => Reply::BadRequest(other.to_string()),
                    };
                    conn.send(reply.framed(0));
                    conn.closing = true;
                    self.flush_conn(token);
                    return;
                }
            }
        }
    }

    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.flush().is_err() || (conn.closing && conn.out.is_empty()) {
            self.conns.remove(&token);
        }
    }

    /// Serve one complete request frame: its reply is queued to the
    /// connection's write buffer, tagged with the request's id. A payload
    /// that does not decode or validate is echoed as a typed `BadRequest`
    /// and poisons nothing but its own request; an unknown tag closes the
    /// connection after the echo, since a peer dispatching unknown requests
    /// is not speaking this protocol.
    fn dispatch(&mut self, token: u64, tag: u8, request_id: u64, payload: &[u8]) {
        let arrived = Instant::now();
        let served = Request::decode(tag, payload)
            .and_then(|request| self.serve(token, request_id, request, arrived));
        let reply = served.unwrap_or_else(|err| {
            if let (WireError::UnknownOpcode(_), Some(conn)) = (&err, self.conns.get_mut(&token)) {
                conn.closing = true;
            }
            Some(Reply::BadRequest(err.to_string()))
        });
        if let (Some(reply), Some(conn)) = (reply, self.conns.get_mut(&token)) {
            conn.send(reply.framed(request_id));
        }
        // Opportunistic flush: most replies fit the socket buffer and go
        // out without waiting for the next poll round.
        self.flush_conn(token);
    }

    /// Answer one request: the reply to send under its id, or `None` when
    /// the answer comes later (a `Render`'s frame, a parked `Redeem`) or is
    /// already queued (a ready `Redeem`'s frame). `Err` is a payload-level
    /// error: the caller echoes it as `BadRequest` and the connection
    /// survives.
    fn serve(
        &mut self,
        token: u64,
        request_id: u64,
        request: Request,
        arrived: Instant,
    ) -> Result<Option<Reply>, WireError> {
        let shared = &*self.shared;
        let reply = match request {
            Request::Ping(token) => Reply::Pong(Pong {
                token,
                shards: shared.sharded.shard_count() as u32,
            }),
            Request::Stats => Reply::StatsReport(net_stats(shared)),
            Request::Traces(max) => Reply::TracesReply(mgpu_obs::ring().recent(max as usize)),
            // A draining node refuses *new* work — typed, per-request, and
            // the connection survives (in-flight replies and parked redeems
            // still flow). The epoch tells the refused client how stale it is.
            Request::Render(_) | Request::Submit(_) | Request::Prewarm(..) if self.draining => {
                shared.obs.counter(names::NET_DRAIN_REFUSED).inc();
                Reply::Draining(shared.epoch.load(Ordering::Relaxed))
            }
            // A `RENDER` is a ticket whose redeem is parked under its own id
            // from the start; a `SUBMIT` is answered with its ticket now.
            Request::Render(request) => {
                return self.submit(token, request_id, &request, Some(request_id), arrived);
            }
            Request::Submit(request) => {
                let refusal = self.submit(token, request_id, &request, None, arrived)?;
                refusal.unwrap_or(Reply::Submitted(request_id))
            }
            Request::Redeem(ticket_id) => {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return Ok(None);
                };
                match conn.tickets.get_mut(&ticket_id) {
                    Some(Ticket::Ready(result)) => {
                        let frame = frame_reply(request_id, result);
                        conn.tickets.remove(&ticket_id);
                        conn.send(frame);
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
                shared.epoch.fetch_max(epoch, Ordering::Relaxed);
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

    /// Enter (`Drain`) or leave (`Resume`) the draining state under a
    /// controller's `epoch`, and report what the whole node still owes.
    fn set_draining(&mut self, draining: bool, epoch: u64) -> Reply {
        let shared = &*self.shared;
        shared.epoch.fetch_max(epoch, Ordering::Relaxed);
        let was = std::mem::replace(&mut self.draining, draining);
        // Idempotent: repeating the current state is a no-op (and not a
        // counted transition).
        if draining && !was {
            shared.obs.counter(names::NET_DRAINS).inc();
        } else if !draining && was {
            shared.obs.counter(names::NET_RESUMES).inc();
        }
        Reply::DrainState(DrainState {
            draining,
            outstanding: self.conns.values().map(|c| c.outstanding() as u64).sum(),
            epoch: shared.epoch.load(Ordering::Relaxed),
        })
    }

    /// Admit a `RENDER` (`redeem`: its own id) or a `SUBMIT` (`redeem`:
    /// `None`, until its `REDEEM` arrives) and queue it: `Ok(None)` once it
    /// is queued, or the typed refusal to answer with. The `admit` span
    /// runs from the frame's arrival, decode included.
    fn submit(
        &mut self,
        token: u64,
        request_id: u64,
        request: &NetSceneRequest,
        redeem: Option<u64>,
        arrived: Instant,
    ) -> Result<Option<Reply>, WireError> {
        let shared = &*self.shared;
        let Some(conn) = self.conns.get_mut(&token) else {
            return Ok(None);
        };
        let scene = match admit(shared, conn, request_id, request)? {
            Ok(scene) => scene,
            Err(refusal) => return Ok(Some(refusal)),
        };
        // The trace id IS the wire request id: a client can correlate a
        // TRACES row with its own request.
        let trace = Trace::start(request_id);
        trace.record_since("admit", arrived);
        let notifier = Arc::clone(&shared.notifier);
        let reply_trace = Arc::clone(&trace);
        let submitted = shared
            .sharded
            .try_submit_traced(scene, trace, move |result| {
                notifier.complete(Completion {
                    conn: token,
                    request_id,
                    result,
                    trace: reply_trace,
                })
            });
        if let Err(admission) = submitted {
            return Ok(Some(Reply::Rejected(admission)));
        }
        conn.carried_work = true;
        // The ticket id IS the request id.
        conn.tickets.insert(request_id, Ticket::Pending { redeem });
        Ok(None)
    }
}

/// The server door for `RENDER`/`SUBMIT`: reject duplicate request ids,
/// bound the session's outstanding requests, validate, then rate-limit.
/// `Err` is the caller's `BadRequest`; `Ok(Err(reply))` a typed refusal
/// (`TicketsFull`, `Throttled`); the request comes back only once it is
/// clear to submit.
fn admit(
    shared: &Shared,
    conn: &mut Conn,
    request_id: u64,
    request: &NetSceneRequest,
) -> Result<Result<SceneRequest, Reply>, WireError> {
    // Multiplexing invariant first: an id may name only one outstanding
    // request at a time, or replies would be unattributable.
    if conn.id_in_use(request_id) {
        return Err(WireError::Malformed(format!(
            "duplicate request id {request_id}"
        )));
    }
    // Bound outstanding state BEFORE admitting: every in-flight render or
    // parked ticket eventually pins a rendered frame, so a client that
    // never consumes replies must not grow server memory without limit.
    if conn.outstanding() >= shared.config.max_tickets_per_session {
        return Ok(Err(Reply::TicketsFull(TicketsFull {
            outstanding: conn.outstanding() as u64,
            limit: shared.config.max_tickets_per_session as u64,
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
    if let Some(bucket) = &mut conn.bucket {
        if let Err(retry_after) = bucket.try_take() {
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
    use crate::client::RenderClient;
    use mgpu_cluster::ClusterSpec;
    use mgpu_serve::Priority;
    use mgpu_voldata::Dataset;
    use mgpu_volren::camera::Scene;
    use mgpu_volren::{RenderConfig, TransferFunction};
    use std::time::Duration;

    /// THE sleep-polling regression test: an idle server must cost ~zero
    /// event-loop wakeups per second, however many silent sessions sit in
    /// its poll set. The old accept loop woke 500×/sec on its 2 ms reap
    /// timer; the readiness loop blocks in poll with no timeout at all.
    /// Two inputs: one raw connected-but-silent socket, and the connection
    /// knee — 64 handshaken sessions that stay idle while a hot one renders.
    #[test]
    fn idle_server_does_not_wake() {
        for idle_sessions in [0, 64] {
            let server = RenderServer::start(ServerConfig {
                shards: 1,
                service: ServiceConfig {
                    workers: 1,
                    ..ServiceConfig::default()
                },
                ..ServerConfig::default()
            })
            .expect("bind");
            // Connected-but-silent: the fds sit in the poll set.
            let _raw = TcpStream::connect(server.addr()).expect("connect");
            let _idle: Vec<RenderClient> = (0..idle_sessions)
                .map(|_| RenderClient::connect(server.addr()).expect("idle connect"))
                .collect();
            if idle_sessions > 0 {
                let volume = Dataset::Skull.volume(16);
                let request = SceneRequest {
                    spec: ClusterSpec::accelerator_cluster(1),
                    scene: Scene::orbit(&volume, 30.0, 20.0, TransferFunction::bone()),
                    volume,
                    config: RenderConfig::test_size(16),
                    priority: Priority::Normal,
                };
                let hot = RenderClient::connect(server.addr()).expect("hot connect");
                hot.render(&NetSceneRequest::from_request(&request).expect("portable"))
                    .expect("the idle population must not starve a hot session");
            }
            // Let the accept + registration churn settle.
            std::thread::sleep(Duration::from_millis(100));
            let before = server.loop_wakeups();
            std::thread::sleep(Duration::from_millis(500));
            let woke = server.loop_wakeups() - before;
            // 500 ms of idle: the 2 ms sleep-poll design would log ~250 here.
            // Allow a little slack for stray loopback events.
            assert!(
                woke <= 5,
                "idle event loop woke {woke} times in 500 ms ({idle_sessions} idle sessions)"
            );
            server.shutdown();
        }
    }
}
