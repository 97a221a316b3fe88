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
use crate::node::{Completion, CompletionSink, Node, Shared};
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

    /// Read whatever the socket has and hand each frame to the node, until
    /// the session closes or is backlogged: then the rest of its requests
    /// wait in the socket, and TCP flow control holds the client back.
    fn service_reads(&mut self, token: u64) {
        while let Some(session) = self.node.session_mut(token) {
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
    use crate::client::RenderClient;
    use crate::node::MAX_QUEUED_REPLIES;
    use crate::wire::{read_frame, NetSceneRequest, Reply, Request};
    use mgpu_cluster::ClusterSpec;
    use mgpu_serve::{Priority, SceneRequest};
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
        let control = RenderClient::connect(server.addr()).expect("control connect");
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
}
