//! The network front-end: a [`RenderServer`] owning a
//! [`ShardedService`](mgpu_serve::ShardedService),
//! serving the wire protocol over plain `std::net` TCP from **one
//! event-driven readiness loop** — the C10K shape: thousands of
//! mostly-idle sessions cost one file descriptor and a few hundred bytes
//! of state each, not a parked thread.
//!
//! ```text
//!                 poll(2) readiness loop (one thread): I/O only
//!   TcpListener ──accept──────────► Node::open
//!   socket ──wire::FrameReader────► Node::frame, Node::unframable ─┐ crate::node:
//!   waker pair ◄── Notifier ◄── a render worker's completion hook  │ the door,
//!     └─poll wakes─► Notifier's queue ─► Node::complete ───────────┤ ticket tables,
//!   every loop round ─────────────────► Node::turn ────────────────┘ drain, GOODBYE
//!                                                                   │ replies
//!   socket ◄──vectored write── the session's out queue ◄────────────┘
//! ```
//!
//! The loop only does I/O: it accepts, reads frames with
//! `wire::FrameReader`, writes each session's out queue with vectored
//! writes, polls and drains the waker. Every protocol decision — the door,
//! the session ticket tables, drain, every control request — is made by a
//! socket-free `Node` (in `crate::node`) that the loop feeds events. A
//! `PREWARM` builds its plan there, on the loop: a brick grid and an empty
//! brick store, 12–19 µs for the repo's volumes on a 2.6 GHz Xeon, no more
//! than decoding a shipped request costs.
//!
//! Every request frame carries a client-chosen `request_id`; every reply
//! echoes it — so one connection carries many in-flight renders and the
//! replies leave in *completion* order, not submission order. The loop
//! never sleeps on a timer: it blocks in `poll(2)` until a socket is ready
//! or a render worker writes the waker byte (a `UnixStream` pair), so an
//! idle server costs zero wakeups (a unit test pins this down). The server
//! is Unix-only: `poll(2)` and the waker pair have no portable `std` form.
//!
//! Faults stay on the connection that caused them: a client that sends
//! garbage gets a typed [`WireError`] echoed in a `BadRequest` and its
//! connection closed; a v2 (or any wrong-version) client gets a typed
//! `UnsupportedVersion` reply and a clean close; a client that vanishes
//! mid-request is reaped on the next readiness event. Other connections
//! never notice any of it.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{JoinHandle, ThreadId};
use std::time::Instant;

use mgpu_obs::names;
use mgpu_obs::{Counter, Gauge, Registry};
use mgpu_serve::{ServiceConfig, ServiceReport};

use crate::heat::NetStats;
use crate::node::{Completion, CompletionSink, Node, Shared, MAX_QUEUED_REPLIES};
use crate::ratelimit::RateLimitConfig;
use crate::wire::{FrameReader, OutFrame, WireError, DEFAULT_MAX_PAYLOAD};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Shards of the backing [`mgpu_serve::ShardedService`] (≥ 1; each shard runs
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

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NFds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
    }

    /// Block until at least one fd is ready; no timeout. Retries `EINTR`.
    pub fn wait(fds: &mut [PollFd]) -> std::io::Result<usize> {
        loop {
            // SAFETY: `fds` is a live, exclusively borrowed slice for the
            // whole call; `PollFd` is `#[repr(C)]` matching `struct pollfd`,
            // and the length is passed alongside the pointer, so the kernel
            // reads/writes exactly the slice we own and nothing else.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, -1) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Notifier: render workers and shutdown → event loop
// ---------------------------------------------------------------------------

const POISON: &str = "completion queue poisoned";

/// How other threads reach the event loop: render workers' hooks queue
/// completions and shutdown raises its flag, and either writes one byte to
/// the waker pair to break the poll. Deliberately a *separate* `Arc` from
/// [`Shared`], which the hooks must not hold (see [`CompletionSink`]).
struct Notifier {
    completions: Mutex<Vec<Completion>>,
    /// The waker pair: one byte written to `waker` breaks the loop's poll
    /// on `waker_rx`. Both ends live as long as any hook does, so a hook
    /// that fires after the loop has returned writes to a live pair (at
    /// worst a full one), never to a closed peer, which raises `SIGPIPE`.
    waker: UnixStream,
    waker_rx: UnixStream,
    /// The event loop's thread, set as it starts.
    loop_thread: OnceLock<ThreadId>,
    /// Raised by `stop_event_loop` on the caller's thread: the loop stops
    /// reading, delivers what it owes, and returns.
    shutdown: AtomicBool,
}

impl Notifier {
    fn wake(&self) {
        // Non-blocking: a full pair already guarantees a pending wakeup,
        // and a closed one means the loop is gone — both ignorable.
        let _ = (&self.waker).write(&[1u8]);
    }
}

impl CompletionSink for Notifier {
    fn complete(&self, done: Completion) {
        self.completions.lock().expect(POISON).push(done);
        // A frame-cache hit completes inside `try_submit_traced`, on the
        // event loop itself, mid-dispatch: the loop applies completions
        // before it next polls, so waking it would only buy an empty round.
        if self.loop_thread.get() != Some(&std::thread::current().id()) {
            self.wake();
        }
    }
}

// ---------------------------------------------------------------------------
// Per-connection I/O state
// ---------------------------------------------------------------------------

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

/// One connection's I/O: the socket, the partial-frame reader, and how far
/// the front of the session's out queue is written.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    out_pos: usize,
    obs: ConnObs,
}

impl Conn {
    fn new(stream: TcpStream, obs: ConnObs) -> Conn {
        obs.connections.inc();
        Conn {
            stream,
            reader: FrameReader::new(),
            out_pos: 0,
            obs,
        }
    }

    /// Write as much of `out` as the socket accepts, popping each frame
    /// once written. `Err(())` means the connection is dead.
    fn flush(&mut self, out: &mut VecDeque<OutFrame>) -> Result<(), ()> {
        while let Some(front) = out.front() {
            match front.write_from(self.out_pos, &mut &self.stream) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    self.out_pos += n;
                    self.obs.bytes_written.add(n as u64);
                    if self.out_pos == front.len() {
                        out.pop_front();
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

/// The TCP render server. Dropping it (or calling
/// [`RenderServer::shutdown`]) stops accepting, drains in-flight replies to
/// every connection, then shuts the backing service down — every frame
/// admitted before shutdown still renders.
pub struct RenderServer {
    addr: SocketAddr,
    shared: Option<Arc<Shared>>,
    notifier: Arc<Notifier>,
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
        let (waker, waker_rx) = UnixStream::pair()?;
        waker.set_nonblocking(true)?;
        waker_rx.set_nonblocking(true)?;
        let max_payload = config.max_payload;
        let shared = Arc::new(Shared::new(config));
        let notifier = Arc::new(Notifier {
            completions: Mutex::new(Vec::new()),
            waker,
            waker_rx,
            loop_thread: OnceLock::new(),
            shutdown: AtomicBool::new(false),
        });
        let event_loop = EventLoop {
            listener,
            max_payload,
            conn_obs: ConnObs::new(&shared.obs),
            wakeups: shared.obs.counter(names::NET_LOOP_WAKEUPS),
            node: Node::new(Arc::clone(&shared), notifier.clone()),
            notifier: Arc::clone(&notifier),
        };
        let event_loop = std::thread::Builder::new()
            .name("mgpu-net-events".into())
            .spawn(move || event_loop.run())
            .expect("spawn event loop");
        Ok(RenderServer {
            addr,
            shared: Some(shared),
            notifier,
            event_loop: Some(event_loop),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn shared(&self) -> &Shared {
        self.shared.as_ref().expect("server is running")
    }

    /// Server-side stats without a socket round-trip (the `STATS` request
    /// returns exactly this).
    pub fn stats(&self) -> NetStats {
        self.shared().stats()
    }

    /// How many times the event loop has woken since start — diagnostic
    /// for the no-sleep-polling guarantee: an idle server's count stays
    /// flat, because the loop blocks in `poll` with no timeout instead of
    /// waking on a timer. Reads the same `net.loop_wakeups` counter the
    /// `STATS` snapshot exports — one source of truth for both.
    pub fn loop_wakeups(&self) -> u64 {
        self.shared().obs.counter(names::NET_LOOP_WAKEUPS).get()
    }

    /// Start popping jobs on a service that was started paused
    /// (`ServiceConfig::start_paused`) — the wire twin of
    /// [`mgpu_serve::ShardedService::resume`]. Shutdown resumes on its own way out.
    pub fn resume(&self) {
        self.shared().sharded.resume();
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
            self.notifier.shutdown.store(true, Ordering::Release);
            self.notifier.wake();
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

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

/// Frames one session may have read per loop turn: one backlog's worth, so
/// a client that keeps its socket full while it reads its replies cannot
/// keep the loop from other sessions, accepts and completions.
const FRAMES_PER_TURN: usize = MAX_QUEUED_REPLIES;

/// The server's one thread: sockets and the waker on the outside, the
/// protocol [`Node`] inside, keyed by the session ids it hands out.
struct EventLoop {
    listener: TcpListener,
    notifier: Arc<Notifier>,
    node: Node<Conn>,
    max_payload: u64,
    /// Handle bundle cloned into each accepted connection.
    conn_obs: ConnObs,
    /// `net.loop_wakeups`: times `poll` returned — the "CPU wakeups" an
    /// idle server costs. A sleep-polling loop burns hundreds per second;
    /// this one stays at zero while nothing happens (a unit test asserts it).
    wakeups: Arc<Counter>,
}

impl EventLoop {
    fn run(mut self) {
        use readiness::{PollFd, POLLIN, POLLOUT};
        let _ = self.notifier.loop_thread.set(std::thread::current().id());
        loop {
            let completions = std::mem::take(&mut *self.notifier.completions.lock().expect(POISON));
            for done in completions {
                let session = done.session;
                self.node.complete(done, Instant::now());
                // The reply usually fits the socket buffer: write it now
                // rather than after another poll round.
                self.flush_conn(session);
            }
            // Acquire: pairs with the Release store in `stop_event_loop`.
            let shutting_down = self.notifier.shutdown.load(Ordering::Acquire);
            self.node.turn(shutting_down);
            if shutting_down && self.node.sessions().next().is_none() {
                return;
            }

            // fds: [waker, listener (unless shutting down), sessions...].
            let mut fds = vec![PollFd::new(self.notifier.waker_rx.as_raw_fd(), POLLIN)];
            if !shutting_down {
                fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
            }
            let first = fds.len();
            let mut tokens = Vec::new();
            for (token, session) in self.node.sessions() {
                // A socket with nothing to read or write (a draining session
                // waiting on renders) still polls for input, so that a peer
                // reset is noticed. A backlogged one has replies to write,
                // and its requests wait in the socket until they are.
                let reading = !shutting_down && !session.closing && !session.backlogged();
                let events = match (reading, session.out.is_empty()) {
                    (_, true) => POLLIN,
                    (true, false) => POLLIN | POLLOUT,
                    (false, false) => POLLOUT,
                };
                tokens.push(token);
                fds.push(PollFd::new(session.io.stream.as_raw_fd(), events));
            }

            // Block until something happens: socket readiness, a fresh
            // connection, a completion's waker byte, or shutdown's wake.
            // No timeout — idle costs zero wakeups.
            if readiness::wait(&mut fds).is_err() {
                return; // poll itself failed: the loop cannot continue
            }
            self.wakeups.inc();

            if fds[0].readable() {
                self.drain_waker();
            }
            if !shutting_down && fds[1].readable() {
                self.accept_ready();
            }
            for (token, fd) in tokens.into_iter().zip(&fds[first..]) {
                if fd.failed() {
                    self.node.close(token);
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
        while let Ok(n) = (&self.notifier.waker_rx).read(&mut sink) {
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
                    let conn = Conn::new(stream, self.conn_obs.clone());
                    self.node.open(conn, Instant::now());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Read what the socket has and hand each frame to the node, until the
    /// socket runs dry, the session closes or is backlogged, or it has had
    /// its turn: [`FRAMES_PER_TURN`] frames. Whatever is left waits in the
    /// socket — `FrameReader` never reads past the frame it assembles, so it
    /// never holds a whole one — which keeps the session readable: the next
    /// `poll` returns at once, and every other ready session is served
    /// before this one is read again. A backlogged session's requests wait
    /// there too, and TCP flow control holds the client back.
    fn service_reads(&mut self, token: u64) {
        for _ in 0..FRAMES_PER_TURN {
            let Some(session) = self.node.session_mut(token) else {
                return;
            };
            if session.closing || session.backlogged() {
                return;
            }
            let io = &mut session.io;
            let mut socket = CountedRead {
                stream: &io.stream,
                bytes_read: &io.obs.bytes_read,
            };
            // Pull bytes until a full frame lands (`Ok(Some)`) or the
            // socket runs dry (`Ok(None)`).
            match io.reader.read(&mut socket, self.max_payload) {
                Ok(Some((tag, request_id, payload))) => {
                    io.obs.frames_in.inc();
                    self.node
                        .frame(token, tag, request_id, &payload, Instant::now());
                }
                Ok(None) => return,
                // Peer vanished (cleanly or mid-frame): nothing to answer.
                Err(WireError::ConnectionClosed | WireError::Io(_)) => {
                    self.node.close(token);
                    return;
                }
                Err(err) => self.node.unframable(token, err),
            }
            // Opportunistic flush: most replies fit the socket buffer and
            // go out without waiting for the next poll round.
            self.flush_conn(token);
        }
    }

    /// Write what the session's out queue holds; drop the connection once
    /// it is dead, or closing with nothing left to write.
    fn flush_conn(&mut self, token: u64) {
        let Some(session) = self.node.session_mut(token) else {
            return;
        };
        if session.io.flush(&mut session.out).is_err()
            || (session.closing && session.out.is_empty())
        {
            self.node.close(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::tests::connect;
    use crate::client::{ClientError, RenderClient};
    use crate::pool::{Directory, NodePool, NodePoolConfig};
    use crate::wire::tests::{read_frame, write_frame};
    use crate::wire::{
        NetSceneRequest, Reply, Request, UnsupportedVersion, VolumeSpec, HEADER_BYTES, MAGIC,
        MAX_GPUS, VERSION,
    };
    use mgpu_cluster::ClusterSpec;
    use mgpu_serve::{BackendError, Priority, RenderBackend, SceneRequest};
    use mgpu_voldata::Dataset;
    use mgpu_volren::camera::Scene;
    use mgpu_volren::{RenderConfig, TransferFunction};
    use std::borrow::Cow;
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
            let _idle: Vec<RenderClient> =
                (0..idle_sessions).map(|_| connect(server.addr())).collect();
            if idle_sessions > 0 {
                let volume = Dataset::Skull.volume(16);
                let request = SceneRequest {
                    spec: ClusterSpec::accelerator_cluster(1),
                    scene: Scene::orbit(&volume, 30.0, 20.0, TransferFunction::bone()),
                    volume,
                    config: RenderConfig::test_size(16),
                    priority: Priority::Normal,
                };
                let hot = connect(server.addr());
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

    /// A client that writes thousands of `STATS` requests and reads no
    /// reply is held back, not buffered for: the loop stops reading its
    /// requests once `MAX_QUEUED_REPLIES` replies wait unwritten, so
    /// `net.frames_in − net.frames_out` never passes the bound. Once the
    /// client reads, every request gets exactly one reply, in order.
    #[test]
    fn a_client_that_never_reads_is_held_back_at_the_reply_bound() {
        let server = RenderServer::start(ServerConfig {
            shards: 1,
            service: ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        })
        .expect("bind");
        let counter = |name| server.shared().obs.counter(name).get();
        let held = || counter(names::NET_FRAMES_IN) - counter(names::NET_FRAMES_OUT);
        // The counters are server-wide: the control session's last PONG may
        // reach it a moment before the loop counts it written.
        let bound = MAX_QUEUED_REPLIES as u64 + 1;
        let requests = 8000u64;
        let raw = TcpStream::connect(server.addr()).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        // Dropped before the server, also when an assertion fails: a
        // backlogged session the client never drains would hold the
        // server's shutdown (and the blocked writer) forever.
        struct Hangup(TcpStream);
        impl Drop for Hangup {
            fn drop(&mut self) {
                let _ = self.0.shutdown(std::net::Shutdown::Both);
            }
        }
        let _hangup = Hangup(raw.try_clone().expect("clone the socket"));
        let mut writer = raw.try_clone().expect("clone the socket");
        let writer = std::thread::spawn(move || {
            let bytes: Vec<u8> = (1..=requests)
                .flat_map(|id| Request::Stats.framed(id))
                .collect();
            // Blocks once the server stops reading, until the replies are.
            writer.write_all(&bytes).expect("write the requests");
        });

        // Round trips on a second session pace the checks: the loop serves
        // them between its reads of the first.
        let control = connect(server.addr());
        let mut rounds_at_bound = 0;
        for _ in 0..100_000 {
            let now = held();
            assert!(
                now <= bound,
                "{now} replies held for one session (bound {MAX_QUEUED_REPLIES})"
            );
            if now >= MAX_QUEUED_REPLIES as u64 {
                rounds_at_bound += 1;
                if rounds_at_bound == 3 {
                    break;
                }
            }
            control.ping().expect("ping");
        }
        assert_eq!(rounds_at_bound, 3, "the backlog never formed");
        for _ in 0..50 {
            control.ping().expect("ping");
        }
        let now = held();
        assert!(
            (MAX_QUEUED_REPLIES as u64..=bound).contains(&now),
            "reads stay stopped: {now} held"
        );

        let mut reader = &raw;
        for id in 1..=requests {
            let (tag, got, payload) = read_frame(&mut reader, DEFAULT_MAX_PAYLOAD).expect("reply");
            assert_eq!(got, id, "replies in request order");
            assert!(matches!(
                Reply::decode(tag, &payload),
                Ok(Reply::StatsReport(_))
            ));
        }
        writer.join().expect("writer");
        server.shutdown();
    }

    /// A fair turn: a session with more requests in its socket than one
    /// turn's budget cannot hold the loop from another session. The test
    /// holds the loop at the top of a turn (on the completions lock), queues
    /// `4 × FRAMES_PER_TURN` `PING`s on one client — whose replies a thread
    /// reads as they come — and a `STATS` on the other, then lets it go. The
    /// `STATS` must be handled in the first turn, after at most one turn's
    /// worth of the stream: its reply carries `net.loop_wakeups` and
    /// `net.frames_in` as of then. Each client streams once and asks once,
    /// so whichever session the loop visits first, one round puts the
    /// stream ahead of the question; without the budget, that round reads
    /// the whole stream first.
    #[test]
    fn a_streaming_session_does_not_hold_the_loop() {
        let server = RenderServer::start(ServerConfig {
            shards: 1,
            service: ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        })
        .expect("bind");
        let reply = |mut client: &TcpStream, want: u64| {
            let (tag, id, payload) = read_frame(&mut client, DEFAULT_MAX_PAYLOAD).expect("reply");
            assert_eq!(id, want, "replies in request order");
            Reply::decode(tag, &payload).expect("a reply")
        };
        // Both sessions open before the loop is held.
        let clients = [(); 2].map(|_| {
            let mut client = TcpStream::connect(server.addr()).expect("connect");
            client
                .set_read_timeout(Some(Duration::from_secs(60)))
                .expect("read timeout");
            client
                .write_all(&Request::Ping(1).framed(1))
                .expect("write");
            assert!(matches!(reply(&client, 1), Reply::Pong { .. }));
            client
        });
        let counter = |name| server.shared().obs.counter(name).get();
        let stream = 4 * FRAMES_PER_TURN as u64;
        for (streamer, asker) in [(0, 1), (1, 0)] {
            let (mut asker, streamer) = (&clients[asker], &clients[streamer]);
            // Hold the loop. A loop in `poll` is woken, finds no socket
            // ready and comes round to the lock; a loop already past its
            // `poll` gets there within microseconds without polling, and
            // the wake waits for the release's `poll`, which sees it with
            // the two sockets. Either way nothing is read until the release.
            let held = server.notifier.completions.lock().expect(POISON);
            let woke = counter(names::NET_LOOP_WAKEUPS);
            server.notifier.wake();
            let since = Instant::now();
            while counter(names::NET_LOOP_WAKEUPS) == woke && since.elapsed().as_millis() < 50 {
                std::thread::yield_now();
            }
            let burst: Vec<u8> = (1..=stream)
                .flat_map(|id| Request::Ping(id).framed(id))
                .collect();
            (&*streamer).write_all(&burst).expect("write the stream");
            asker.write_all(&Request::Stats.framed(2)).expect("write");
            let (turns, frames) = (
                counter(names::NET_LOOP_WAKEUPS),
                counter(names::NET_FRAMES_IN),
            );
            drop(held);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for id in 1..=stream {
                        assert!(matches!(reply(streamer, id), Reply::Pong { .. }));
                    }
                });
                let Reply::StatsReport(stats) = reply(asker, 2) else {
                    panic!("a STATS reply");
                };
                let at = |name| stats.obs.counter(name).unwrap_or(0);
                let read = at(names::NET_FRAMES_IN) - frames;
                assert_eq!(
                    at(names::NET_LOOP_WAKEUPS) - turns,
                    1,
                    "handled in the first turn"
                );
                assert!(
                    read <= FRAMES_PER_TURN as u64 + 1,
                    "{read} frames read before the STATS was handled"
                );
            });
        }
        server.shutdown();
    }

    // --- the door under hostile and raw clients -------------------------

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
        crate::node::tests::scene(azimuth, 8)
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
        let (tag, id, payload) = read_frame(raw, DEFAULT_MAX_PAYLOAD).expect("reply");
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
        let client = connect(server.addr());
        let frame = client
            .render(&tiny_request(azimuth))
            .expect("healthy render");
        assert_eq!(frame.image.width(), 8);
    }

    #[test]
    fn garbage_bytes_get_a_typed_error_and_the_connection_closed() {
        let server = tiny_server();
        // A healthy session opened BEFORE the poison, kept open across it.
        let survivor = connect(server.addr());

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
        match read_frame(&mut poison, DEFAULT_MAX_PAYLOAD) {
            Err(WireError::ConnectionClosed) | Err(WireError::Io(_)) => {}
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
        let survivor = connect(server.addr());

        // A syntactically valid header promising 64 payload bytes… of which
        // only 5 ever arrive before the client vanishes.
        let mut header = Vec::with_capacity(HEADER_BYTES + 5);
        header.extend_from_slice(&MAGIC.to_le_bytes());
        header.extend_from_slice(&VERSION.to_le_bytes());
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
        let client = connect(server.addr());
        let t0 = client.submit(&tiny_request(0.0)).expect("submit 1");
        let _t1 = client.submit(&tiny_request(10.0)).expect("submit 2");
        match client.submit(&tiny_request(20.0)) {
            Err(ClientError::Refused(BackendError::TicketsFull { outstanding, limit })) => {
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
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        raw.write_all(&render_frame(&tiny_request(0.0), 1)).unwrap();
        let submit = |az: f32, id: u64| Request::Submit(Cow::Owned(tiny_request(az))).framed(id);
        raw.write_all(&submit(10.0, 2)).unwrap();
        assert_eq!(read_reply(&mut raw), (2, Reply::Submitted(2)));
        raw.write_all(&submit(20.0, 3)).unwrap();
        match read_reply(&mut raw) {
            (3, Reply::TicketsFull(full)) => assert_eq!((full.outstanding, full.limit), (2, 2)),
            other => panic!("expected typed ticket-bound refusal, got {other:?}"),
        }
        server.resume();
        assert!(matches!(read_reply(&mut raw), (1, Reply::Frame(_))));
        raw.write_all(&Request::Redeem(2).framed(4)).unwrap();
        assert!(matches!(read_reply(&mut raw), (4, Reply::Frame(_))));
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
            let count = |server: &RenderServer| server.stats().obs.counter(names::NET_FRAMES_IN);
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
            want: VERSION,
        };
        assert_eq!(
            read_reply(&mut old),
            (0, Reply::UnsupportedVersion(versions))
        );
        match read_frame(&mut old, DEFAULT_MAX_PAYLOAD) {
            Err(WireError::ConnectionClosed) | Err(WireError::Io(_)) => {}
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
        match read_frame(&mut stranger, DEFAULT_MAX_PAYLOAD) {
            Err(WireError::ConnectionClosed) => {}
            Err(WireError::Io(std::io::ErrorKind::ConnectionReset)) => {}
            other => panic!("an unknown tag should close the connection, got {other:?}"),
        }

        // An oversized declared length: typed TooLarge echo, then close.
        let mut huge = TcpStream::connect(server.addr()).expect("connect");
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC.to_le_bytes());
        frame.extend_from_slice(&VERSION.to_le_bytes());
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
            rate_limit: Some(RateLimitConfig::new(0.001, 1)),
            ..ServerConfig::default()
        })
        .expect("bind");
        let survivor = connect(server.addr());

        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        type Spoil = fn(&mut NetSceneRequest);
        let refusals: [(Spoil, &str); 5] = [
            (|r| r.config.step_voxels = 1e-12, "ray-march step"),
            (|r| r.config.step_voxels = 0.0, "ray-march step"),
            (|r| r.config.step_voxels = f32::NAN, "ray-march step"),
            (|r| r.gpus = MAX_GPUS + 1, "GPUs"),
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
            rate_limit: Some(RateLimitConfig::new(0.001, 1)),
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
        let (tag, id, frame) = read_frame(&mut raw, DEFAULT_MAX_PAYLOAD).expect("frame");
        assert!(matches!(Reply::decode(tag, &frame), Ok(Reply::Frame(_))));
        assert_eq!((id, frame.len() as u64), (9, 17 + 8 * 8 * 16));

        // Nothing was rendered for the refused ones.
        assert_eq!(server.shutdown().frames_completed, 1);
    }

    /// A request id may name only one outstanding request per connection: the
    /// duplicate gets a typed `BadRequest` tagged with that id, and the
    /// connection (plus the original request) survives. The same holds for a
    /// REDEEM of an id whose frame is already owed to someone, and for a
    /// REDEEM sent under an outstanding request's id.
    #[test]
    fn duplicate_request_ids_are_rejected_and_the_connection_survives() {
        let server = RenderServer::start(ServerConfig {
            shards: 1,
            service: ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        })
        .expect("bind loopback server");
        let mut raw = TcpStream::connect(server.addr()).expect("connect");

        let request = tiny_request(0.0);
        let submit = Request::Submit(Cow::Borrowed(&request)).framed(9);
        raw.write_all(&submit).expect("first submit");
        raw.write_all(&submit).expect("duplicate submit");

        // The first use of id 9 acks normally…
        assert_eq!(read_reply(&mut raw), (9, Reply::Submitted(9)));
        // …the duplicate is refused, typed and tagged with the id.
        match read_reply(&mut raw) {
            (9, Reply::BadRequest(message)) => assert!(
                message.contains("duplicate request id 9"),
                "unexpected echo: {message}"
            ),
            other => panic!("expected a BadRequest under id 9, got {other:?}"),
        }

        // The connection still works: redeem the original ticket on it.
        raw.write_all(&Request::Redeem(9).framed(10))
            .expect("redeem");
        assert!(matches!(read_reply(&mut raw), (10, Reply::Frame(_))));
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
        // A reply that never comes fails the read instead of hanging it.
        raw.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let render = Request::Render(Cow::Borrowed(&request)).framed(20);
        raw.write_all(&render).expect("render");
        raw.write_all(&Request::Redeem(20).framed(21))
            .expect("redeem");
        match read_reply(&mut raw) {
            (21, Reply::BadRequest(message)) => assert!(
                message.contains("already being redeemed"),
                "unexpected echo: {message}"
            ),
            other => panic!("expected a BadRequest under id 21, got {other:?}"),
        }

        // The id rule is the door's, so it holds for every request: a REDEEM
        // sent under the in-flight RENDER's id is a duplicate, refused under
        // that id. The RENDER's FRAME is then the one reply under 20, and the
        // ticket the REDEEM named is still there to redeem.
        let ticket_scene = tiny_request(50.0);
        raw.write_all(&Request::Submit(Cow::Borrowed(&ticket_scene)).framed(10))
            .expect("submit");
        assert_eq!(read_reply(&mut raw), (10, Reply::Submitted(10)));
        raw.write_all(&Request::Redeem(10).framed(20))
            .expect("redeem under a busy id");
        match read_reply(&mut raw) {
            (20, Reply::BadRequest(message)) => assert!(
                message.contains("duplicate request id 20"),
                "unexpected echo: {message}"
            ),
            other => panic!("expected a BadRequest under id 20, got {other:?}"),
        }
        paused.resume();
        assert!(matches!(read_reply(&mut raw), (20, Reply::Frame(_))));
        raw.write_all(&Request::Redeem(10).framed(30))
            .expect("redeem");
        assert!(matches!(read_reply(&mut raw), (30, Reply::Frame(_))));
        paused.shutdown();
        match read_frame(&mut raw, DEFAULT_MAX_PAYLOAD) {
            Err(WireError::ConnectionClosed) => {}
            other => panic!("nothing more is owed under any id, got {other:?}"),
        }
    }
}
