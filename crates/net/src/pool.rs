//! [`NodePool`]: N [`crate::RenderServer`]s behind one [`RenderBackend`],
//! with placement, connection reuse, retry budgets, failover — and, since
//! wire v4, **elastic membership**: nodes join, drain and leave under live
//! traffic, hot keys migrate, and no admitted frame is ever lost.
//!
//! ```text
//!                    NodePool (RenderBackend)
//!   plan key ──► Directory (rendezvous + migration pins, epoch-versioned)
//!                     │ preferred node, then failover order
//!                     ▼
//!     per-node slot: one shared pipelined RenderClient connection
//!                     │   (all in-flight work multiplexes on it)
//!                     ▼
//!              RenderServer … RenderServer   (N processes / hosts)
//! ```
//!
//! Placement is rendezvous hashing ([`mgpu_serve::shard::route`]) of a
//! request's plan key ([`SceneRequest::plan_key`], built once per request
//! and never sent) over each node's stable id: a key keeps hitting the
//! node whose plan cache is warm, growing the directory from N to N+1
//! nodes moves only ~1/(N+1) of the keys, and removing a node moves only
//! the keys it owned. A
//! [`Directory::migrate`] pin overrides the hash for one key (the
//! rebalancer's lever); every placement change bumps the directory
//! **epoch**, which the pool announces to its nodes with
//! `DRAIN`/`RESUME`/`PREWARM` and the nodes echo in STATS — so a client
//! routing on a stale directory is detectable, not just wrong.
//!
//! **Zero-loss drain.** Every pool ticket is backed by a pending-request
//! table entry pinning the issuing connection (and its generation). A
//! redeem first tries the issuing connection — a *draining* node still
//! answers parked redeems — and if that connection is gone (node crashed,
//! said `GOODBYE`, or was decommissioned), the pool **re-renders the same
//! request on a survivor** instead of reporting loss. Renders are
//! bit-identical across nodes, so the handed-off frame is indistinguishable
//! from the original.
//!
//! **Core and shell.** Every decision sits in a private core with no
//! socket, clock or sleep: `outcome` sorts a call's `ClientError` (the
//! only place one is matched), a `Route` turns each outcome into the next
//! step, and a `Slot` keeps the generation rule. The shell (`on_node`,
//! `drive`, `redeem`) dials, calls the node's `RenderClient`, sleeps and counts.
//! A seeded test runs the core against a straight-line model of these rules,
//! and a seeded cluster runs it with the server's `Node`s under faults.
//!
//! ```text
//!   outcome           new work: render, submit,   control call    direct
//!                     a ticket's hand-off         (drain, resume, redeem
//!                                                  prewarm)
//!   Ok                return                      return          return
//!   Throttled(after)  blocking: wait `after` if   return          return
//!                     ≤ 5 s and within 30 s in
//!                     all (no attempt spent)
//!   Admission         blocking: wait 2 ms within  return          return
//!                     the same budget
//!   Lost (transport,  next node, 1 attempt        dial, retry     hand off
//!     protocol)
//!   Draining          next node, 1 attempt        return          return
//!   Goodbye           next node, 1 attempt        dial, retry     hand off
//!   Refused (a bad request, a failed render, tickets full): return, everywhere
//! ```
//!
//! "return" hands the call's result to the caller, and a route out of
//! attempts returns too. Lost and Goodbye poison the slot, unless it was
//! re-dialed since; new work that meets Draining or Goodbye counts
//! `pool.drain.rerouted`; a hand-off counts `pool.drain.handoffs`. New
//! work skips the draining nodes unless all of them drain, and a ticket
//! redeems directly only while its slot holds the connection that issued
//! it. [`NodePool::connect_with`] waits without bound and tries once.

use mgpu_obs::names;
use std::collections::{BTreeMap, HashMap};
use std::net::{Ipv4Addr, SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use mgpu_serve::shard::{ranked, route};
use mgpu_serve::{BackendError, BackendFrame, RenderBackend, SceneRequest, ServiceReport};
use mgpu_volren::RequestKey;

use crate::client::{ClientConfig, ClientError, NetTicket, RenderClient};
use crate::heat::NetStats;
use crate::remote::{backend_error, backend_frame, portable};
use crate::wire::{DrainState, NetSceneRequest, WireError};

/// Why a [`Directory`] could not be built or changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectoryError {
    /// A directory needs at least one node.
    Empty,
    /// The same address appeared twice (or was added twice).
    Duplicate(SocketAddr),
    /// The named node index is not in the directory.
    UnknownNode { node: usize, nodes: usize },
    /// The last node cannot be removed — an empty pool routes nothing.
    LastNode,
}

impl std::fmt::Display for DirectoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirectoryError::Empty => write!(f, "a node directory needs at least one node"),
            DirectoryError::Duplicate(addr) => {
                write!(f, "node address {addr} appears more than once")
            }
            DirectoryError::UnknownNode { node, nodes } => {
                write!(f, "node {node} is not in the directory ({nodes} nodes)")
            }
            DirectoryError::LastNode => {
                write!(f, "the last node cannot be removed from the directory")
            }
        }
    }
}

impl std::error::Error for DirectoryError {}

/// The placement directory: which render nodes exist, and which one owns a
/// given [`RequestKey`]. Rendezvous-hashed over each node's stable id,
/// overridden per key by migration **pins**, and versioned by an **epoch**
/// that bumps on every membership or placement change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directory {
    addrs: Vec<SocketAddr>,
    /// Rendezvous ids of the nodes removed so far. A live node's id is
    /// fixed when it joins: in list order the nodes hold the first `len`
    /// integers not in this list — `0..n` for a directory that never lost
    /// a node — so a joining node takes the next unused id.
    removed: Vec<u64>,
    /// Migration pins: key → the owning node's id, overriding the
    /// rendezvous hash. Sparse — only rebalanced keys appear; everything
    /// else routes by hash.
    pins: BTreeMap<RequestKey, u64>,
    /// Placement version. Every change (node added/removed, key migrated,
    /// drain initiated) bumps it; nodes echo the highest epoch they have
    /// heard in STATS, so stale routing is observable.
    epoch: u64,
}

impl Directory {
    /// A directory over the given node addresses (at least one, no
    /// duplicates) — a typed [`DirectoryError`] otherwise, caught at
    /// construction instead of panicking at first use.
    pub fn new(addrs: Vec<SocketAddr>) -> Result<Directory, DirectoryError> {
        if addrs.is_empty() {
            return Err(DirectoryError::Empty);
        }
        for (i, addr) in addrs.iter().enumerate() {
            if addrs[..i].contains(addr) {
                return Err(DirectoryError::Duplicate(*addr));
            }
        }
        Ok(Directory {
            addrs,
            removed: Vec::new(),
            pins: BTreeMap::new(),
            epoch: 0,
        })
    }

    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    pub fn is_empty(&self) -> bool {
        false // construction and removal both keep ≥ 1 node
    }

    pub fn addr(&self, node: usize) -> SocketAddr {
        self.addrs[node]
    }

    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The placement version (see struct docs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(crate) fn bump_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Every node's rendezvous id, in list order.
    fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        (0..)
            .filter(|id| !self.removed.contains(id))
            .take(self.addrs.len())
    }

    /// `node`'s rendezvous id; a typed error for an unknown node.
    fn id(&self, node: usize) -> Result<u64, DirectoryError> {
        let nodes = self.addrs.len();
        self.ids()
            .nth(node)
            .ok_or(DirectoryError::UnknownNode { node, nodes })
    }

    /// The node this key is pinned to, if any.
    fn pinned(&self, key: &RequestKey) -> Option<usize> {
        let pin = self.pins.get(key)?;
        self.ids().position(|id| id == *pin)
    }

    /// The node that owns this key: its migration pin if one exists, the
    /// rendezvous hash otherwise (deterministic; every client with the
    /// same directory agrees without coordination).
    pub fn node_for(&self, key: &RequestKey) -> usize {
        self.pinned(key).unwrap_or_else(|| route(key, self.ids()))
    }

    /// Every node in preference order for this key: `[0]` is the owner
    /// (pin-aware), the tail is the failover order when the owner is
    /// unreachable.
    pub fn ranked(&self, key: &RequestKey) -> Vec<usize> {
        let mut order = ranked(key, self.ids());
        if let Some(pin) = self.pinned(key) {
            order.retain(|&node| node != pin);
            order.insert(0, pin);
        }
        order
    }

    /// Add a node at the end of the directory, under the next unused id.
    /// Returns its index. Bumps the epoch; rendezvous hashing means only
    /// ~1/(N+1) of unpinned keys move — all of them to the new node.
    pub fn add_node(&mut self, addr: SocketAddr) -> Result<usize, DirectoryError> {
        if self.addrs.contains(&addr) {
            return Err(DirectoryError::Duplicate(addr));
        }
        self.addrs.push(addr);
        self.epoch += 1;
        Ok(self.addrs.len() - 1)
    }

    /// Remove a node. Only the keys it owned move: pins pointing at it
    /// dissolve (those keys fall back to the hash), and every other node
    /// keeps its id, its pins and its keys, though nodes after it slide
    /// down one index. Bumps the epoch. The last node cannot be removed.
    pub fn remove_node(&mut self, node: usize) -> Result<SocketAddr, DirectoryError> {
        let id = self.id(node)?;
        if self.addrs.len() == 1 {
            return Err(DirectoryError::LastNode);
        }
        let addr = self.addrs.remove(node);
        self.removed.push(id);
        self.pins.retain(|_, pin| *pin != id);
        self.epoch += 1;
        Ok(addr)
    }

    /// Migrate one key to `node`: pin it there, or — when `node` is the
    /// key's natural rendezvous owner — just dissolve any existing pin.
    /// Returns whether placement actually changed (the epoch bumps only
    /// then, so repeated migrations are idempotent).
    pub fn migrate(&mut self, key: &RequestKey, node: usize) -> Result<bool, DirectoryError> {
        let id = self.id(node)?;
        let changed = if route(key, self.ids()) == node {
            self.pins.remove(key).is_some()
        } else {
            self.pins.insert(key.clone(), id) != Some(id)
        };
        if changed {
            self.epoch += 1;
        }
        Ok(changed)
    }
}

/// How long one pool operation may sleep before giving up.
#[derive(Debug, Clone, Copy)]
struct WaitBudget {
    /// Largest single server `retry_after` the pool honors by sleeping;
    /// anything longer is returned to the caller as
    /// [`BackendError::Throttled`] instead of silently stalling.
    throttle: Duration,
    /// Total sleep per operation (throttle waits plus blocked admission
    /// polling). Exhausted → the last refusal is returned.
    total: Duration,
}

impl WaitBudget {
    /// Every pool built from a [`NodePoolConfig`].
    const POOL: WaitBudget = WaitBudget {
        throttle: Duration::from_secs(5),
        total: Duration::from_secs(30),
    };
    /// [`NodePool::connect_with`]'s in-process contract: as long as it takes.
    const UNBOUNDED: WaitBudget = WaitBudget {
        throttle: Duration::MAX,
        total: Duration::MAX,
    };
}

/// Pool tuning: how much adversity one operation absorbs before giving up
/// (the typed contract for "the pool retries so the caller doesn't"), plus
/// the per-connection transport bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodePoolConfig {
    /// Transport failures (connection refused/lost, protocol violation,
    /// a node answering `DRAINING`/`GOODBYE`) tolerated per operation;
    /// each one fails over to the next node in the key's preference
    /// order. At least 1 (the first try itself).
    pub attempts: u32,
    /// Connect/read timeouts and payload bound for every pooled
    /// connection (see [`ClientConfig`]).
    pub client: ClientConfig,
}

impl Default for NodePoolConfig {
    /// Unlike a bare [`ClientConfig`], the pool defaults to *finite*
    /// transport timeouts: the pool's wait budget (5 s on one throttle,
    /// 30 s in all) only meters waits between attempts, so an unbounded
    /// read against a hung (accepting but unresponsive) node would block
    /// forever and failover could never trigger. The 120 s read bound must exceed the slowest legitimate
    /// render + queue wait — raise it for heavyweight workloads.
    fn default() -> NodePoolConfig {
        NodePoolConfig {
            attempts: 4,
            client: ClientConfig {
                connect_timeout: Some(Duration::from_secs(5)),
                read_timeout: Some(Duration::from_secs(120)),
                ..ClientConfig::default()
            },
        }
    }
}

/// Why a [`NodePool`] could not be built: configuration problems are typed
/// and caught at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolConfigError {
    /// The node set itself is invalid (empty, duplicates).
    Directory(DirectoryError),
    /// `attempts` must be at least 1 — the first try is an attempt.
    ZeroAttempts,
}

impl std::fmt::Display for PoolConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolConfigError::Directory(err) => write!(f, "invalid node directory: {err}"),
            PoolConfigError::ZeroAttempts => {
                write!(f, "attempts must be ≥ 1 (the first try is an attempt)")
            }
        }
    }
}

impl std::error::Error for PoolConfigError {}

impl From<DirectoryError> for PoolConfigError {
    fn from(err: DirectoryError) -> PoolConfigError {
        PoolConfigError::Directory(err)
    }
}

/// A pool operation failed against one specific node — the index and
/// address say *which*, so an operator can tell a dead node from a hot
/// one when scanning per-node results.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeError {
    /// Directory index at the time of the call.
    pub node: usize,
    /// The node's address (stable across index remaps).
    pub addr: SocketAddr,
    pub error: BackendError,
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node {} ({}): {}", self.node, self.addr, self.error)
    }
}

impl std::error::Error for NodeError {}

/// A failure on one node's connection, naming the node. A node that has
/// left the directory has no address to name and reports the unspecified
/// one.
fn node_error(node: usize, addr: Option<SocketAddr>, error: ClientError) -> NodeError {
    NodeError {
        node,
        addr: addr.unwrap_or(SocketAddr::from((Ipv4Addr::UNSPECIFIED, 0))),
        error: backend_error(error),
    }
}

// --- the core: the pool's decisions, with no socket, clock or sleep -----

/// One pooled connection slot (over a shared `RenderClient` in the pool).
/// `generation` counts (re)connects, so a ticket issued on a connection
/// that later died never redeems against the replacement's unrelated
/// ticket table. Callers clone the client out and release the lock, so one
/// connection carries every caller's in-flight work, multiplexed by
/// `request_id`. Pending tickets pin their slot, so a slot outlives its
/// directory index (a removed node's parked frames stay redeemable while
/// its connection lives).
struct Slot<C> {
    client: Option<C>,
    generation: u64,
}

impl<C: Clone> Slot<C> {
    const EMPTY: Slot<C> = Slot {
        client: None,
        generation: 0,
    };

    /// The connection and its generation, dialed first if the slot is empty.
    fn connection<E>(&mut self, dial: impl FnOnce() -> Result<C, E>) -> Result<(C, u64), E> {
        if self.client.is_none() {
            self.client = Some(dial()?);
            self.generation += 1;
        }
        Ok((self.client.clone().expect("dialed above"), self.generation))
    }

    /// The connection of `generation` if the slot still holds it — never a
    /// replacement.
    fn current(&self, generation: u64) -> Option<C> {
        let issued = self.generation == generation;
        self.client.clone().filter(|_| issued)
    }

    /// Drop the connection of `generation`, unless the slot was re-dialed.
    fn poison(&mut self, generation: u64) {
        if self.generation == generation {
            self.client = None;
        }
    }
}

type NodeSlot = Slot<Arc<RenderClient>>;

/// A call's result, with the slot and generation it ran on.
type Ran<T> = Result<(Arc<Mutex<NodeSlot>>, u64, T), ClientError>;

/// What one call came back with (the module docs give each one's step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    Throttled(Duration),
    Admission,
    /// The connection failed, closed or timed out, or answered something
    /// this client cannot read.
    Lost,
    Draining,
    Goodbye,
    Refused, // the caller's own: a bad request, a failed render, tickets full
}

fn outcome<T>(result: &Result<T, ClientError>) -> Outcome {
    match result {
        Ok(_) => Outcome::Ok,
        Err(ClientError::Refused(BackendError::Throttled { retry_after })) => {
            Outcome::Throttled(*retry_after)
        }
        Err(ClientError::Refused(BackendError::Admission(_))) => Outcome::Admission,
        Err(ClientError::Refused(_)) => Outcome::Refused,
        Err(ClientError::Lost(_)) => Outcome::Lost,
        Err(ClientError::Draining { .. }) => Outcome::Draining,
        Err(ClientError::Goodbye) => Outcome::Goodbye,
    }
}

impl Outcome {
    /// The connection is gone for good: its slot is poisoned, a ticket
    /// parked on it is handed off, and a control call dials once more.
    fn gone(self) -> bool {
        matches!(self, Outcome::Lost | Outcome::Goodbye)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Send(usize),    // call this node, dialing its slot if empty
    Wait(Duration), // sleep, then call the same node again
    Return,         // the last call's result, value or error, is the caller's
}

/// One operation's walk over the nodes: `order[0]` is called next.
#[derive(Debug, Clone)]
struct Route {
    order: Vec<usize>,
    /// Failures still tolerated, the current call's included.
    attempts: u32,
    /// `budget.total` is what is left of it.
    budget: WaitBudget,
    blocking: bool,
    /// A control call: once more on a connection found gone, no waits.
    control: bool,
}

impl Route {
    /// New work for a key ranked `ranked`, minus the nodes being drained —
    /// or every node when all of them drain: the typed refusals surface.
    fn new(ranked: Vec<usize>, draining: &[bool], attempts: u32, budget: WaitBudget) -> Route {
        let open: Vec<usize> = ranked.iter().copied().filter(|&n| !draining[n]).collect();
        Route {
            order: if open.is_empty() { ranked } else { open },
            attempts: attempts.max(1),
            budget,
            blocking: true,
            control: false,
        }
    }

    /// A control call on `node`. A completed drain seals the pooled
    /// connection with `GOODBYE`, so a gone connection is dialed once more
    /// (only sessions that carried render work are sealed).
    fn control(node: usize) -> Route {
        Route {
            order: vec![node],
            attempts: 2,
            budget: WaitBudget::POOL,
            blocking: false,
            control: true,
        }
    }

    /// New work that meets `DRAINING` or `GOODBYE` is re-routed: the
    /// routing table lagged a drain, and the refusal is the signal.
    fn reroutes(&self, seen: Outcome) -> bool {
        !self.control && matches!(seen, Outcome::Draining | Outcome::Goodbye)
    }

    /// The step after a call that came back `seen`.
    fn next(&mut self, seen: Outcome) -> Step {
        let fails_over = seen.gone() || !self.control && seen == Outcome::Draining;
        let pause = match seen {
            _ if fails_over && self.attempts > 1 => {
                self.attempts -= 1;
                self.order.rotate_left(1);
                return Step::Send(self.order[0]);
            }
            // A throttle wait spends no attempt: the node is only pacing us.
            Outcome::Throttled(pause) if self.blocking && pause <= self.budget.throttle => pause,
            Outcome::Admission if self.blocking => ADMISSION_RETRY,
            _ => return Step::Return,
        };
        if pause > self.budget.total {
            return Step::Return;
        }
        self.budget.total -= pause;
        Step::Wait(pause)
    }
}

// --- the shell: dials, calls, sleeps and counts --------------------------

/// A redeemable handle from the pool's submit paths. Backed by a
/// pool-side pending entry that remembers the request and the issuing
/// connection — if that connection is gone by redeem time (node crashed,
/// drained away, or was removed), the pool re-renders on a survivor
/// instead of reporting loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolTicket {
    id: u64,
    node: usize,
}

impl PoolTicket {
    /// The node this ticket's frame was submitted to (directory index at
    /// submit time — informational; redemption follows the connection,
    /// not the index).
    pub fn node(&self) -> usize {
        self.node
    }
}

/// What a pool ticket is backed by: enough to redeem directly, and enough
/// to re-render elsewhere when the issuing connection is gone.
struct PendingEntry {
    key: RequestKey,
    net: Arc<NetSceneRequest>,
    slot: Arc<Mutex<NodeSlot>>,
    generation: u64,
    ticket: NetTicket,
}

/// Per-key traffic the pool has observed — what the rebalancer reads to
/// find hot keys, and the request it replays to pre-warm a destination.
struct KeyTraffic {
    frames: u64,
    last: Arc<NetSceneRequest>,
}

const POISON: &str = "node pool lock poisoned";

/// Bound on distinct keys tracked for rebalancing; the coldest entry (the
/// smallest key among ties) is evicted when a new key arrives at the cap.
const KEY_HEAT_CAP: usize = 64;

/// Poll interval for the blocking submit while the owning node sheds for
/// admission (mirrors the in-process blocking submit, which parks on the
/// queue's condvar — the wire has no condvar to park on).
const ADMISSION_RETRY: Duration = Duration::from_millis(2);

/// Membership + placement, mutated together under one lock so routing
/// never sees a directory/slot mismatch.
struct PoolState {
    directory: Directory,
    nodes: Vec<Arc<Mutex<NodeSlot>>>,
    /// Nodes being drained: excluded from new-work routing (they would
    /// refuse with `DRAINING` anyway — skipping saves the round-trip).
    draining: Vec<bool>,
}

/// N render servers behind one [`RenderBackend`] — N = 1 included
/// ([`NodePool::connect`]). Connections are opened lazily (eagerly by
/// `connect`) and reused per node; requests route by plan key through the
/// [`Directory`]; throttling and node loss are absorbed within
/// [`NodePoolConfig::attempts`] and the pool's wait budget. The directory
/// is *live*: [`NodePool::add_node`], [`NodePool::remove_node`],
/// [`NodePool::migrate`] and [`NodePool::drain_node`] reshape the pool
/// under traffic.
pub struct NodePool {
    state: RwLock<PoolState>,
    config: NodePoolConfig,
    waits: WaitBudget,
    /// Un-redeemed pool tickets, keyed by [`PoolTicket`] id.
    pending: Mutex<HashMap<u64, PendingEntry>>,
    next_ticket: AtomicU64,
    key_heat: Mutex<HashMap<RequestKey, KeyTraffic>>,
}

impl NodePool {
    /// A pool over an already-validated directory. No I/O happens here:
    /// each node's connection is dialed on first use (and re-dialed after
    /// a failure).
    pub fn new(directory: Directory, config: NodePoolConfig) -> NodePool {
        let nodes = (0..directory.len())
            .map(|_| Arc::new(Mutex::new(Slot::EMPTY)))
            .collect();
        let draining = vec![false; directory.len()];
        NodePool {
            state: RwLock::new(PoolState {
                directory,
                nodes,
                draining,
            }),
            config,
            waits: WaitBudget::POOL,
            pending: Mutex::new(HashMap::new()),
            next_ticket: AtomicU64::new(1),
            key_heat: Mutex::new(HashMap::new()),
        }
    }

    /// Build a pool straight from addresses, validating both the node set
    /// and the config — every rejection a typed [`PoolConfigError`].
    pub fn try_new(
        addrs: Vec<SocketAddr>,
        config: NodePoolConfig,
    ) -> Result<NodePool, PoolConfigError> {
        if config.attempts == 0 {
            return Err(PoolConfigError::ZeroAttempts);
        }
        Ok(NodePool::new(Directory::new(addrs)?, config))
    }

    /// One server as a pool of one, with default transport settings (no
    /// timeouts) — see [`NodePool::connect_with`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NodePool, BackendError> {
        NodePool::connect_with(addr, ClientConfig::default())
    }

    /// One server as a pool of one — what [`crate::RemoteBackend`] names.
    /// The blocking calls keep the in-process contract: they wait out
    /// admission sheds and throttling for as long as it takes (an
    /// unbounded wait budget), and with a single attempt a transport
    /// failure is the caller's at once. The connection is dialed here, so
    /// an unreachable server is an error now rather than at first use;
    /// every resolution of `addr` is tried in turn.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        client: ClientConfig,
    ) -> Result<NodePool, BackendError> {
        let config = NodePoolConfig {
            attempts: 1,
            client,
        };
        let lost = |err: WireError| backend_error(err.into());
        let mut last = lost(WireError::Io(std::io::ErrorKind::AddrNotAvailable));
        for candidate in addr.to_socket_addrs().map_err(|err| lost(err.into()))? {
            let directory = Directory::new(vec![candidate]).expect("one address, no duplicate");
            let mut pool = NodePool::new(directory, config);
            pool.waits = WaitBudget::UNBOUNDED;
            match pool.on_node(0, |_| Ok(())) {
                Ok(_) => return Ok(pool),
                Err(err) => last = backend_error(err),
            }
        }
        Err(last)
    }

    /// A point-in-time copy of the placement directory (membership, pins,
    /// epoch). The live directory can only be changed through the pool's
    /// own methods.
    pub fn directory(&self) -> Directory {
        self.state.read().expect(POISON).directory.clone()
    }

    /// The current placement epoch (see [`Directory::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.state.read().expect(POISON).directory.epoch()
    }

    pub fn node_count(&self) -> usize {
        self.state.read().expect(POISON).directory.len()
    }

    /// Which node this request routes to (before any failover).
    pub fn node_for(&self, request: &SceneRequest) -> usize {
        self.state
            .read()
            .expect(POISON)
            .directory
            .node_for(&request.plan_key())
    }

    /// Address + shared slot for one node, if it is (still) in the
    /// directory.
    fn slot_for(&self, node: usize) -> Option<(SocketAddr, Arc<Mutex<NodeSlot>>)> {
        let state = self.state.read().expect(POISON);
        let addr = *state.directory.addrs().get(node)?;
        let slot = Arc::clone(state.nodes.get(node)?);
        Some((addr, slot))
    }

    /// Run `op` on one node's pooled connection, dialing it if needed.
    /// The slot lock is held only to clone the connection handle out — the
    /// operation itself runs unlocked, so concurrent callers multiplex on
    /// the same connection instead of queueing. Returns the slot and the
    /// generation the operation ran on. An outcome that poisons the slot
    /// costs only this caller's own request, which its route re-issues;
    /// other callers sharing the connection observe their own typed errors
    /// and retry their own request ids — nobody replays someone else's
    /// work.
    fn on_node<T>(
        &self,
        node: usize,
        op: impl FnOnce(&RenderClient) -> Result<T, ClientError>,
    ) -> Ran<T> {
        let Some((addr, slot)) = self.slot_for(node) else {
            return Err(ClientError::Lost(format!(
                "node {node} is not in the directory"
            )));
        };
        let (client, generation) = slot
            .lock()
            .expect(POISON)
            .connection(|| RenderClient::connect_with(addr, self.config.client).map(Arc::new))?;
        let result = op(&client);
        if outcome(&result).gone() {
            slot.lock().expect(POISON).poison(generation);
        }
        result.map(|value| (slot, generation, value))
    }

    /// New work for `key`: its route over the directory as it stands.
    fn route(&self, key: &RequestKey, blocking: bool) -> Route {
        let state = self.state.read().expect(POISON);
        let ranked = state.directory.ranked(key);
        let route = Route::new(ranked, &state.draining, self.config.attempts, self.waits);
        Route { blocking, ..route }
    }

    /// Carry `route` out on the pooled connections. Returns the node called
    /// last and its result, with the slot and generation it ran on.
    fn drive<T>(
        &self,
        mut route: Route,
        mut op: impl FnMut(&RenderClient) -> Result<T, ClientError>,
    ) -> (usize, Ran<T>) {
        let mut node = route.order[0];
        loop {
            let result = self.on_node(node, &mut op);
            let seen = outcome(&result);
            if route.reroutes(seen) {
                mgpu_obs::global().counter(names::POOL_DRAIN_REROUTED).inc();
            }
            match route.next(seen) {
                Step::Send(next) => node = next,
                Step::Wait(pause) => std::thread::sleep(pause),
                Step::Return => return (node, result),
            }
        }
    }

    /// Note one frame of traffic for `key` (rebalancer fuel). At the cap the
    /// coldest key goes, the smallest among ties (not the hash seed's pick).
    fn record_heat(&self, key: &RequestKey, net: &Arc<NetSceneRequest>) {
        let mut heat = self.key_heat.lock().expect(POISON);
        if let Some(traffic) = heat.get_mut(key) {
            traffic.frames += 1;
            traffic.last = Arc::clone(net);
            return;
        }
        if heat.len() >= KEY_HEAT_CAP {
            if let Some(coldest) = heat
                .iter()
                .min_by_key(|&(key, traffic)| (traffic.frames, key))
                .map(|(key, _)| key.clone())
            {
                heat.remove(&coldest);
            }
        }
        heat.insert(
            key.clone(),
            KeyTraffic {
                frames: 1,
                last: Arc::clone(net),
            },
        );
    }

    /// Keys this pool has routed with their observed frame counts,
    /// hottest first (bounded to the `KEY_HEAT_CAP` hottest keys).
    pub fn key_heat(&self) -> Vec<(RequestKey, u64)> {
        let heat = self.key_heat.lock().expect(POISON);
        let mut keys: Vec<(RequestKey, u64)> = heat
            .iter()
            .map(|(key, traffic)| (key.clone(), traffic.frames))
            .collect();
        keys.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        keys
    }

    /// The most recent request observed for `key` — what a rebalancer
    /// replays as a `PREWARM` so the migration destination builds its
    /// plan before the cutover. Shared with the pool's own records, never
    /// copied: a shipped volume's voxels ride in the request.
    pub fn last_request(&self, key: &RequestKey) -> Option<Arc<NetSceneRequest>> {
        self.key_heat
            .lock()
            .expect(POISON)
            .get(key)
            .map(|t| Arc::clone(&t.last))
    }

    // --- elastic membership -----------------------------------------------

    /// Run a control operation on `node` (see [`Route::control`]).
    fn control<T>(
        &self,
        node: usize,
        op: impl FnMut(&RenderClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        self.drive(Route::control(node), op)
            .1
            .map(|(_, _, value)| value)
    }

    /// Join a new node (its connection dials lazily like any other).
    /// Returns the new node's directory index; bumps the epoch.
    pub fn add_node(&self, addr: SocketAddr) -> Result<usize, DirectoryError> {
        let mut state = self.state.write().expect(POISON);
        let node = state.directory.add_node(addr)?;
        state.nodes.push(Arc::new(Mutex::new(Slot::EMPTY)));
        state.draining.push(false);
        Ok(node)
    }

    /// Drop a node from the directory. Its un-redeemed tickets stay
    /// redeemable: they pin the slot's connection directly, and if that
    /// connection dies too, redemption re-renders on a survivor. Bumps
    /// the epoch. Use [`NodePool::drain_node`] first for a hitless
    /// decommission.
    pub fn remove_node(&self, node: usize) -> Result<SocketAddr, DirectoryError> {
        let mut state = self.state.write().expect(POISON);
        let addr = state.directory.remove_node(node)?;
        state.nodes.remove(node);
        state.draining.remove(node);
        Ok(addr)
    }

    /// Migrate one key to `node` (see [`Directory::migrate`]). The usual
    /// sequence is [`NodePool::prewarm`] first, then migrate — so the
    /// destination's plan cache is warm before traffic cuts over.
    pub fn migrate(&self, key: &RequestKey, node: usize) -> Result<bool, DirectoryError> {
        self.state
            .write()
            .expect(POISON)
            .directory
            .migrate(key, node)
    }

    /// Start draining `node`: it leaves the routing tables immediately
    /// (epoch bump), and the node itself is told to refuse new work while
    /// answering everything it still owes. Idempotent. Returns the node's
    /// drain state (with its outstanding-work count).
    pub fn drain_node(&self, node: usize) -> Result<DrainState, NodeError> {
        self.set_draining(node, true)
    }

    /// Undo a drain: the node re-enters the routing tables (epoch bump)
    /// and accepts new work again. Idempotent.
    pub fn resume_node(&self, node: usize) -> Result<DrainState, NodeError> {
        self.set_draining(node, false)
    }

    /// Flip `node`'s place in the routing tables (bumping the epoch only
    /// on a real change), then tell the node itself.
    fn set_draining(&self, node: usize, draining: bool) -> Result<DrainState, NodeError> {
        let (addr, epoch) = {
            let mut state = self.state.write().expect(POISON);
            let Some(&addr) = state.directory.addrs().get(node) else {
                let nodes = state.directory.len();
                let unknown = DirectoryError::UnknownNode { node, nodes }.to_string();
                return Err(node_error(node, None, ClientError::Lost(unknown)));
            };
            if state.draining[node] != draining {
                state.draining[node] = draining;
                state.directory.bump_epoch();
                if draining {
                    mgpu_obs::global()
                        .counter(names::POOL_DRAIN_INITIATED)
                        .inc();
                } else {
                    mgpu_obs::global().counter(names::POOL_DRAIN_RESUMED).inc();
                }
            }
            (addr, state.directory.epoch())
        };
        self.control(node, |client| {
            if draining {
                client.drain(epoch)
            } else {
                client.resume(epoch)
            }
        })
        .map_err(|err| node_error(node, Some(addr), err))
    }

    /// Has a draining node finished? True once it owes nothing (or has
    /// already said `GOODBYE` / gone away entirely). Only meaningful
    /// after [`NodePool::drain_node`]; a node the pool is not draining
    /// reports `false`.
    pub fn node_drained(&self, node: usize) -> bool {
        let epoch = {
            let state = self.state.read().expect(POISON);
            match state.draining.get(node) {
                Some(true) => state.directory.epoch(),
                // Not draining (or unknown): never "drained".
                _ => return false,
            }
        };
        // Re-sending DRAIN is idempotent and returns the live
        // outstanding-work count (the control retry re-dials if the
        // drain's GOODBYE sealed the old connection). A node whose
        // connection is gone even then owes nothing more.
        let answer = self.control(node, |client| client.drain(epoch));
        let gone = outcome(&answer).gone();
        answer.map_or(gone, |state| state.draining && state.outstanding == 0)
    }

    /// Is the pool currently draining `node`?
    pub fn draining(&self, node: usize) -> bool {
        self.state
            .read()
            .expect(POISON)
            .draining
            .get(node)
            .copied()
            .unwrap_or(false)
    }

    /// Pre-warm `node`'s plan cache for one request (and announce the
    /// current epoch): the node builds the key's brick grid and an empty
    /// brick store, so the first frame routed there skips preparing the
    /// plan but still stages every brick. The reply says which shard was
    /// warmed and whether a plan was actually built (`false` = already
    /// warm). A draining node refuses it with a typed `DRAINING` reply.
    pub fn prewarm(&self, node: usize, net: &NetSceneRequest) -> Result<(u32, bool), NodeError> {
        let addr = self.slot_for(node).map(|(addr, _)| addr);
        let epoch = self.epoch();
        self.control(node, |client| client.prewarm(epoch, net))
            .inspect(|_| {
                mgpu_obs::global()
                    .counter(names::POOL_REBALANCE_PREWARMS)
                    .inc();
            })
            .map_err(|err| node_error(node, addr, err))
    }

    // --- observability ----------------------------------------------------

    /// Run `op` on every node's pooled connection, indexed like the
    /// directory; a failure names its node.
    fn each_node<T>(
        &self,
        op: impl Fn(&RenderClient) -> Result<T, ClientError>,
    ) -> Vec<Result<T, NodeError>> {
        let addrs = self.state.read().expect(POISON).directory.addrs().to_vec();
        addrs
            .into_iter()
            .enumerate()
            .map(|(node, addr)| {
                self.on_node(node, &op)
                    .map(|(_, _, value)| value)
                    .map_err(|err| node_error(node, Some(addr), err))
            })
            .collect()
    }

    /// Per-node stats (per-shard snapshots + node snapshot + echoed
    /// epoch), indexed like the directory; unreachable nodes
    /// report a [`NodeError`] that names the node and address, so a dead
    /// node is distinguishable from a hot one.
    pub fn node_stats(&self) -> Vec<Result<NetStats, NodeError>> {
        self.each_node(|client| client.stats())
    }

    /// Fold every reachable node's stats into `acc`. Fails only when no
    /// node answers — and then names the last node that refused.
    fn fold_stats<T>(
        &self,
        mut acc: T,
        fold: impl Fn(&mut T, &NetStats),
    ) -> Result<T, BackendError> {
        let mut reached = false;
        let mut last_err = None;
        for stats in self.node_stats() {
            match stats {
                Ok(stats) => {
                    fold(&mut acc, &stats);
                    reached = true;
                }
                Err(err) => last_err = Some(err),
            }
        }
        match (reached, last_err) {
            (false, Some(err)) => Err(BackendError::Transport(err.to_string())),
            _ => Ok(acc),
        }
    }

    /// One pool-wide obs snapshot: every reachable node's node snapshot
    /// folded together. Counters, gauges and histogram buckets add
    /// *exactly* (no sketch error), so pool-level quantiles are as
    /// trustworthy as a single node's. A node snapshot's `serve.*` is
    /// process-wide, so two servers sharing one process are each counted
    /// twice here; [`RenderBackend::report`] folds the per-shard snapshots
    /// and is exact regardless.
    pub fn obs_snapshot(&self) -> Result<mgpu_obs::Snapshot, BackendError> {
        self.fold_stats(mgpu_obs::Snapshot::new(), |merged, stats| {
            merged.merge(&stats.obs)
        })
    }

    /// Each node's most recent completed request traces (newest first, at
    /// most `max` per node), indexed like the directory.
    pub fn node_traces(&self, max: u32) -> Vec<Result<Vec<mgpu_obs::CompletedTrace>, NodeError>> {
        self.each_node(|client| client.traces(max))
    }

    /// Render on `key`'s route, blocking.
    fn render_on(
        &self,
        key: &RequestKey,
        net: &NetSceneRequest,
    ) -> Result<BackendFrame, BackendError> {
        let (_, result) = self.drive(self.route(key, true), |c| c.render(net));
        result
            .map(|(_, _, frame)| backend_frame(frame))
            .map_err(backend_error)
    }

    /// Submit through `drive` and park a pending entry so the ticket can
    /// be handed off if the issuing connection dies before redemption.
    fn submit_pending(
        &self,
        request: &SceneRequest,
        blocking: bool,
    ) -> Result<PoolTicket, BackendError> {
        let net = Arc::new(portable(request)?);
        let key = request.plan_key();
        let (node, result) = self.drive(self.route(&key, blocking), |c| c.submit(&net));
        let (slot, generation, ticket) = result.map_err(backend_error)?;
        self.record_heat(&key, &net);
        let id = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        self.pending.lock().expect(POISON).insert(
            id,
            PendingEntry {
                key,
                net,
                slot,
                generation,
                ticket,
            },
        );
        Ok(PoolTicket { id, node })
    }
}

impl RenderBackend for NodePool {
    type Ticket = PoolTicket;

    fn submit(&self, request: SceneRequest) -> Result<PoolTicket, BackendError> {
        self.submit_pending(&request, true)
    }

    fn try_submit(&self, request: SceneRequest) -> Result<PoolTicket, BackendError> {
        self.submit_pending(&request, false)
    }

    /// Redeem a pool ticket — **zero-loss**: first against the issuing
    /// connection (a draining node still answers parked redeems), and if
    /// that connection is gone, by re-rendering the same request on a
    /// surviving node. Renders are bit-identical across nodes, so the
    /// handed-off frame matches the one the lost node would have served.
    fn redeem(&self, ticket: PoolTicket) -> Result<BackendFrame, BackendError> {
        let Some(entry) = self.pending.lock().expect(POISON).remove(&ticket.id) else {
            return Err(BackendError::Transport(format!(
                "unknown or already redeemed pool ticket {}",
                ticket.id
            )));
        };
        let issuer = entry.slot.lock().expect(POISON).current(entry.generation);
        if let Some(client) = issuer {
            let result = client.redeem(entry.ticket);
            if !outcome(&result).gone() {
                return result.map(backend_frame).map_err(backend_error);
            }
            entry.slot.lock().expect(POISON).poison(entry.generation);
        }
        // Ticket hand-off: the issuing connection (and its parked frame)
        // is unreachable, so re-render the remembered request on whichever
        // node now owns the key. Same request, same deterministic kernel —
        // bit-identical output, zero frames lost.
        mgpu_obs::global().counter(names::POOL_DRAIN_HANDOFFS).inc();
        self.render_on(&entry.key, &entry.net)
    }

    fn render(&self, request: SceneRequest) -> Result<BackendFrame, BackendError> {
        let net = Arc::new(portable(&request)?);
        let key = request.plan_key();
        let frame = self.render_on(&key, &net)?;
        self.record_heat(&key, &net);
        Ok(frame)
    }

    /// Pool-level accounting: the report over every reachable node's
    /// shard snapshots merged together. Fails only when *no* node answers.
    fn report(&self) -> Result<ServiceReport, BackendError> {
        let (merged, uptime) = self.fold_stats(
            (mgpu_obs::Snapshot::new(), Duration::ZERO),
            |(merged, uptime), stats| {
                merged.merge(&stats.service_snapshot());
                *uptime = (*uptime).max(stats.uptime);
            },
        )?;
        Ok(ServiceReport::from_snapshot(&merged, uptime))
    }

    /// Disconnect from every node, returning the best-effort merged report
    /// (the servers keep running — a pool is a client-side object).
    fn shutdown(self) -> ServiceReport {
        RenderBackend::report(&self).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_cluster::ClusterSpec;
    use mgpu_voldata::VolumeMeta;
    use mgpu_volren::RenderConfig;

    /// A distinct plan key per tag: one volume seed each.
    fn test_key(tag: u64) -> RequestKey {
        let dims = [8; 3];
        let (name, content) = ("routed".to_string(), 0);
        let meta = VolumeMeta {
            name,
            dims,
            seed: tag,
            content,
        };
        RequestKey::plan(
            &ClusterSpec::accelerator_cluster(1),
            &meta,
            &RenderConfig::default(),
        )
    }

    /// Key heat at its cap, every key equally cold: a new key evicts the
    /// smallest, whatever the table's iteration order. The table is a
    /// `HashMap`, and each one draws its own hash seed, so 16 fresh pools
    /// see 16 orders: a tie broken by iteration order evicts the smallest
    /// of 64 keys by chance in all of them with odds of 64⁻¹⁶.
    #[test]
    fn key_heat_at_the_cap_evicts_the_smallest_of_equally_cold_keys() {
        let net = Arc::new(crate::node::tests::scene(0.0, 8));
        let mut keys: Vec<RequestKey> = (0..=KEY_HEAT_CAP as u64).map(test_key).collect();
        let newcomer = keys.pop().unwrap();
        let smallest = keys.iter().min().unwrap();
        for _ in 0..16 {
            let pool = NodePool::new(Directory::new(addrs(1)).unwrap(), NodePoolConfig::default());
            for key in &keys {
                pool.record_heat(key, &net);
            }
            pool.record_heat(&newcomer, &net);
            let kept: Vec<RequestKey> = pool.key_heat().into_iter().map(|(key, _)| key).collect();
            assert_eq!(kept.len(), KEY_HEAT_CAP);
            assert!(!kept.contains(smallest), "the smallest cold key goes");
            assert!(kept.contains(&newcomer));
        }
    }

    fn addrs(n: usize) -> Vec<SocketAddr> {
        (0..n)
            .map(|i| format!("127.0.0.1:{}", 7000 + i).parse().unwrap())
            .collect()
    }

    /// A directory that never lost a node, fresh or grown, routes by list
    /// position: `route`/`ranked` over ids `0..len` — same owner, same
    /// preference order, for every key (absent migrations).
    #[test]
    fn directory_routes_with_the_shard_policy() {
        let mut grown = Directory::new(addrs(2)).unwrap();
        for addr in &addrs(4)[2..] {
            grown.add_node(*addr).unwrap();
        }
        for dir in [Directory::new(addrs(4)).unwrap(), grown] {
            for tag in 0..256 {
                let key = test_key(tag);
                assert_eq!(dir.node_for(&key), route(&key, 0..4));
                assert_eq!(dir.ranked(&key), ranked(&key, 0..4));
                assert_eq!(dir.ranked(&key)[0], dir.node_for(&key));
            }
        }
    }

    #[test]
    fn directory_growth_only_moves_keys_to_the_new_node() {
        let four = Directory::new(addrs(4)).unwrap();
        let five = Directory::new(addrs(5)).unwrap();
        let mut moved = 0;
        for tag in 0..256 {
            let key = test_key(tag);
            if five.node_for(&key) != four.node_for(&key) {
                assert_eq!(five.node_for(&key), 4, "moves only to the new node");
                moved += 1;
            }
        }
        assert!(moved > 0 && moved < 128, "{moved}/256 moved");
    }

    /// Removing a node moves only the keys it owned: every key a survivor
    /// owned stays on that survivor, so no survivor's plan cache goes cold.
    #[test]
    fn removing_a_node_moves_only_its_keys() {
        let before = Directory::new(addrs(3)).unwrap();
        let mut after = before.clone();
        after.remove_node(0).unwrap();
        let mut kept = 0;
        for tag in 0..256 {
            let key = test_key(tag);
            let owner = before.addr(before.node_for(&key));
            if owner != before.addr(0) {
                assert_eq!(after.addr(after.node_for(&key)), owner, "key {tag}");
                kept += 1;
            }
        }
        assert!(kept > 100, "{kept}/256 keys owned by survivors");
    }

    /// Nodes and shards score keys apart: of the keys a 2-node directory
    /// sends to node 0, a 2-shard service spreads at least a quarter onto
    /// each shard (with one shared score, all of them went to shard 0).
    #[test]
    fn a_nodes_keys_spread_over_its_shards() {
        let dir = Directory::new(addrs(2)).unwrap();
        let sharded = mgpu_serve::ShardedService::start(2, mgpu_serve::ServiceConfig::default());
        let mut per_shard = [0usize; 2];
        for tag in 0..256 {
            let key = test_key(tag);
            if dir.node_for(&key) == 0 {
                per_shard[sharded.shard_for(&key)] += 1;
            }
        }
        sharded.shutdown();
        let on_node = per_shard[0] + per_shard[1];
        assert!(
            per_shard.iter().all(|&n| 4 * n >= on_node),
            "node 0's {on_node} keys split {per_shard:?} over its shards"
        );
    }

    #[test]
    fn empty_and_duplicate_directories_are_typed_errors() {
        assert_eq!(Directory::new(Vec::new()), Err(DirectoryError::Empty));
        let mut dupes = addrs(2);
        dupes.push(dupes[0]);
        assert_eq!(
            Directory::new(dupes.clone()),
            Err(DirectoryError::Duplicate(dupes[0]))
        );
        // The same rejections surface through pool construction, plus the
        // config's own validation.
        assert!(matches!(
            NodePool::try_new(Vec::new(), NodePoolConfig::default()),
            Err(PoolConfigError::Directory(DirectoryError::Empty))
        ));
        let zero = NodePoolConfig {
            attempts: 0,
            ..NodePoolConfig::default()
        };
        assert!(matches!(
            NodePool::try_new(addrs(2), zero),
            Err(PoolConfigError::ZeroAttempts)
        ));
    }

    #[test]
    fn migration_pins_rule_placement_and_bump_the_epoch() {
        let mut dir = Directory::new(addrs(3)).unwrap();
        let key = test_key(7);
        let natural = dir.node_for(&key);
        let dest = (natural + 1) % 3;
        assert_eq!(dir.epoch(), 0);
        assert!(dir.migrate(&key, dest).unwrap());
        assert_eq!(dir.node_for(&key), dest);
        assert_eq!(dir.ranked(&key)[0], dest, "pin leads the failover order");
        assert_eq!(dir.epoch(), 1);
        // Re-migrating to the same place is a no-op: no epoch bump.
        assert!(!dir.migrate(&key, dest).unwrap());
        assert_eq!(dir.epoch(), 1);
        // Migrating back to the natural owner dissolves the pin.
        assert!(dir.migrate(&key, natural).unwrap());
        assert_eq!(dir.node_for(&key), natural);
        assert_eq!(dir.ranked(&key), ranked(&key, 0..3));
        assert_eq!(dir.epoch(), 2);
        assert!(!dir.migrate(&key, natural).unwrap());
        // Unknown destinations are typed errors.
        assert_eq!(
            dir.migrate(&key, 9),
            Err(DirectoryError::UnknownNode { node: 9, nodes: 3 })
        );
    }

    #[test]
    fn membership_changes_remap_pins_and_bump_the_epoch() {
        let mut dir = Directory::new(addrs(4)).unwrap();
        let keys: Vec<RequestKey> = (0..64).map(test_key).collect();
        // One key pinned past the node we will remove, one pinned onto it.
        let key_high = keys.iter().find(|k| dir.node_for(k) != 3).unwrap().clone();
        dir.migrate(&key_high, 3).unwrap();
        let key_onto = keys
            .iter()
            .find(|k| dir.node_for(k) != 1 && **k != key_high)
            .unwrap()
            .clone();
        dir.migrate(&key_onto, 1).unwrap();
        let before = dir.epoch();
        // Where the hash sends `key_onto` once node 1 is gone: its next
        // choice among the survivors, one index lower if past node 1.
        let fallback = ranked(&key_onto, 0..4)
            .into_iter()
            .find(|&node| node != 1)
            .map(|node| node - usize::from(node > 1))
            .unwrap();

        let removed = dir.remove_node(1).unwrap();
        assert_eq!(removed, addrs(4)[1]);
        assert_eq!(dir.len(), 3);
        assert!(dir.epoch() > before);
        // The pin to node 3 slid down with the indices…
        assert_eq!(dir.node_for(&key_high), 2);
        // …and the pin onto the removed node dissolved back to the hash.
        assert_eq!(dir.node_for(&key_onto), fallback);

        // Duplicates are rejected on join; the last node cannot leave.
        let existing = dir.addr(0);
        assert_eq!(
            dir.add_node(existing),
            Err(DirectoryError::Duplicate(existing))
        );
        dir.remove_node(0).unwrap();
        dir.remove_node(0).unwrap();
        assert_eq!(dir.remove_node(0), Err(DirectoryError::LastNode));
    }

    /// An unreachable node exhausts the budget with a typed transport
    /// error — no panic, no hang (connections are dialed lazily, so the
    /// pool constructs fine).
    #[test]
    fn unreachable_nodes_exhaust_the_budget_with_a_typed_error() {
        use mgpu_cluster::ClusterSpec;
        use mgpu_voldata::Dataset;
        use mgpu_volren::camera::Scene;
        use mgpu_volren::{RenderConfig, TransferFunction};

        // Bind-then-drop two ephemeral ports: both are closed by the time
        // the pool dials them, so connects fail fast with REFUSED.
        let dead: Vec<SocketAddr> = (0..2)
            .map(|_| {
                let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
                listener.local_addr().unwrap()
            })
            .collect();
        let pool = NodePool::try_new(
            dead,
            NodePoolConfig {
                attempts: 2,
                ..NodePoolConfig::default()
            },
        )
        .unwrap();
        let volume = Dataset::Skull.volume(8);
        let request = SceneRequest {
            spec: ClusterSpec::accelerator_cluster(1),
            scene: Scene::orbit(&volume, 0.0, 0.0, TransferFunction::bone()),
            volume,
            config: RenderConfig::test_size(8),
            priority: mgpu_serve::Priority::Normal,
        };
        match RenderBackend::render(&pool, request) {
            Err(BackendError::Transport(_)) => {}
            other => panic!("expected transport exhaustion, got {other:?}"),
        }
        // Per-node errors carry the node index and address.
        let stats = pool.node_stats();
        assert_eq!(stats.len(), 2);
        for (node, result) in stats.into_iter().enumerate() {
            let err = result.expect_err("dead node must error");
            assert_eq!(err.node, node);
            let text = err.to_string();
            assert!(
                text.contains(&format!("node {node} (127.0.0.1:")),
                "error must name the node: {text}"
            );
        }
        assert!(RenderBackend::report(&pool).is_err(), "no node reachable");
    }

    // -----------------------------------------------------------------------
    // The core against a straight-line model of the pool's rules
    // -----------------------------------------------------------------------

    use crate::wire::WireError;
    use mgpu_serve::{AdmissionError, FrameError, Priority};

    /// splitmix64: a seeded stream with no dependency.
    pub(super) struct Rng(pub(super) u64);

    impl Rng {
        pub(super) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(super) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// What the shell did, in order. Connections are numbered as dialed.
    #[derive(Debug, Clone, PartialEq)]
    enum Event {
        Dial { node: usize, conn: u64 },
        DialRefused(usize),
        Call { node: usize, conn: u64 },
        Sleep(Duration),
        Rerouted,
        Redeem { ticket: u64, conn: u64 },
        HandOff(u64),
        Return(String),
    }

    /// One pool operation of a seed.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// `submit` (blocking) or `try_submit`.
        Submit {
            blocking: bool,
        },
        Render,
        /// A control call, read as `node_drained` reads it.
        Control(usize),
        /// Another caller's loss poisons `node`'s slot.
        Redial(usize),
        /// Redeem the pending ticket at this position.
        Redeem(usize),
    }

    /// A seed's fixed setting: the nodes, the key's rank order, the
    /// draining set and the pool's budgets.
    struct Case {
        ranked: Vec<usize>,
        draining: Vec<bool>,
        attempts: u32,
        budget: WaitBudget,
    }

    /// One answer of a node to one call; a dial is refused one time in 6.
    fn answer(rng: &mut Rng) -> Result<(), ClientError> {
        let throttles = [1, 250, 2_000, 4_999, 5_000, 5_001, 12_000, 29_000];
        let admission = AdmissionError {
            priority: Priority::Normal,
            queued: 4,
            limit: 4,
        };
        Err(match rng.below(20) {
            0..=6 => return Ok(()),
            7 | 8 => ClientError::Refused(BackendError::Throttled {
                retry_after: Duration::from_millis(throttles[rng.below(throttles.len())]),
            }),
            9 | 10 => ClientError::Refused(BackendError::Admission(admission)),
            11 | 12 => WireError::ConnectionClosed.into(),
            13 => ClientError::Lost("an answer of another kind".into()),
            14 | 15 => ClientError::Draining { epoch: 3 },
            16 => ClientError::Goodbye,
            17 => ClientError::Refused(BackendError::Unsupported("a 0×8 image".into())),
            18 => {
                ClientError::Refused(BackendError::Render(FrameError::new("the render panicked")))
            }
            _ => ClientError::Refused(BackendError::TicketsFull {
                outstanding: 4,
                limit: 4,
            }),
        })
    }

    fn refused() -> ClientError {
        WireError::Io(std::io::ErrorKind::ConnectionRefused).into()
    }

    /// A ticket the pool holds: the slot and generation it was issued on,
    /// and (for the invariants) the connection that issued it.
    #[derive(Debug, Clone, Copy)]
    struct Pending {
        id: u64,
        node: usize,
        generation: u64,
        conn: u64,
    }

    /// The pool as the core and a shell that mirrors `NodePool` run it:
    /// slots of numbered connections, answers from a seeded stream.
    struct Pool {
        slots: Vec<Slot<u64>>,
        dialed: u64,
        answers: Rng,
        events: Vec<Event>,
        pending: Vec<Pending>,
        next_ticket: u64,
        /// How many times each ticket was settled: redeemed on its own
        /// connection, or handed off.
        settled: HashMap<u64, u32>,
    }

    /// Check one named invariant.
    pub(super) fn invariant(name: &str, holds: bool, context: &dyn std::fmt::Debug) {
        assert!(holds, "invariant broken: {name}\n{context:#?}");
    }

    impl Pool {
        fn new(nodes: usize) -> Pool {
            Pool {
                slots: (0..nodes).map(|_| Slot::EMPTY).collect(),
                dialed: 0,
                answers: Rng(0),
                events: Vec::new(),
                pending: Vec::new(),
                next_ticket: 1,
                settled: HashMap::new(),
            }
        }

        /// `NodePool::on_node`.
        fn on_node(&mut self, node: usize) -> Result<(u64, u64), ClientError> {
            let (answers, dialed, events) = (&mut self.answers, &mut self.dialed, &mut self.events);
            let (conn, generation) = self.slots[node].connection(|| {
                if answers.below(6) == 0 {
                    events.push(Event::DialRefused(node));
                    return Err(refused());
                }
                *dialed += 1;
                events.push(Event::Dial {
                    node,
                    conn: *dialed,
                });
                Ok(*dialed)
            })?;
            self.events.push(Event::Call { node, conn });
            let result = answer(&mut self.answers);
            if outcome(&result).gone() {
                self.slots[node].poison(generation);
            }
            result.map(|()| (generation, conn))
        }

        /// `NodePool::drive`, checking the invariants at every step.
        fn drive(
            &mut self,
            case: &Case,
            mut route: Route,
        ) -> (usize, Result<(u64, u64), ClientError>) {
            let (blocking, limit) = (route.blocking, route.attempts);
            let all_drain = case.draining.iter().all(|&d| d);
            let mut node = route.order[0];
            let (mut tries, mut waited) = (0, Duration::ZERO);
            loop {
                if !route.control {
                    invariant(
                        "new work never goes to a draining node while another exists",
                        all_drain || !case.draining[node],
                        &(node, &case.draining, &self.events),
                    );
                }
                tries += 1;
                let result = self.on_node(node);
                let seen = outcome(&result);
                if route.reroutes(seen) {
                    self.events.push(Event::Rerouted);
                }
                let step = route.next(seen);
                let context = (&result, step, &self.events);
                invariant("attempts ≤ attempts", tries <= limit, &context);
                if matches!(
                    result,
                    Err(ClientError::Refused(BackendError::Unsupported(_)))
                ) {
                    invariant(
                        "a BadRequest never fails over",
                        step == Step::Return,
                        &context,
                    );
                }
                match step {
                    Step::Send(next) => node = next,
                    Step::Wait(pause) => {
                        tries -= 1;
                        waited += pause;
                        invariant("a non-blocking call never waits", blocking, &context);
                        let single = pause <= case.budget.throttle;
                        invariant("no single throttle wait above its cap", single, &context);
                        let total = waited <= case.budget.total;
                        invariant("the total wait stays within the budget", total, &context);
                        self.events.push(Event::Sleep(pause));
                    }
                    Step::Return => {
                        self.events.push(Event::Return(format!("{result:?}")));
                        return (node, result);
                    }
                }
            }
        }

        fn route(&self, case: &Case, blocking: bool) -> Route {
            let route = Route::new(
                case.ranked.clone(),
                &case.draining,
                case.attempts,
                case.budget,
            );
            Route { blocking, ..route }
        }

        fn op(&mut self, case: &Case, op: Op) {
            match op {
                Op::Submit { blocking } => {
                    let route = self.route(case, blocking);
                    if let (node, Ok((generation, conn))) = self.drive(case, route) {
                        let id = self.next_ticket;
                        self.next_ticket += 1;
                        self.pending.push(Pending {
                            id,
                            node,
                            generation,
                            conn,
                        });
                    }
                }
                Op::Render => {
                    let route = self.route(case, true);
                    let _ = self.drive(case, route);
                }
                Op::Control(node) => {
                    let answer = self.drive(case, Route::control(node)).1;
                    let drained = outcome(&answer).gone() || answer.is_ok();
                    self.events
                        .push(Event::Return(format!("drained {drained}")));
                }
                Op::Redial(node) => {
                    let generation = self.slots[node].generation;
                    self.slots[node].poison(generation);
                }
                Op::Redeem(at) => {
                    let ticket = self.pending.remove(at);
                    let issuer = self.slots[ticket.node].current(ticket.generation);
                    if let Some(conn) = issuer {
                        invariant(
                            "no ticket is redeemed against a replacement connection",
                            conn == ticket.conn,
                            &(ticket, conn, &self.events),
                        );
                        self.events.push(Event::Redeem {
                            ticket: ticket.id,
                            conn,
                        });
                        let result = answer(&mut self.answers);
                        if !outcome(&result).gone() {
                            *self.settled.entry(ticket.id).or_default() += 1;
                            self.events.push(Event::Return(format!("{result:?}")));
                            return;
                        }
                        self.slots[ticket.node].poison(ticket.generation);
                    }
                    *self.settled.entry(ticket.id).or_default() += 1;
                    self.events.push(Event::HandOff(ticket.id));
                    let route = self.route(case, true);
                    let _ = self.drive(case, route);
                }
            }
        }
    }

    /// Today's rules written out straight, as the pool ran them before the
    /// core existed: the retry loop, the control retry, the redeem.
    struct Model {
        slots: Vec<(Option<u64>, u64)>,
        dialed: u64,
        answers: Rng,
        events: Vec<Event>,
        pending: Vec<Pending>,
        next_ticket: u64,
    }

    impl Model {
        fn on_node(&mut self, node: usize) -> Result<(u64, u64), ClientError> {
            let slot = &mut self.slots[node];
            if slot.0.is_none() {
                if self.answers.below(6) == 0 {
                    self.events.push(Event::DialRefused(node));
                    return Err(refused());
                }
                self.dialed += 1;
                self.events.push(Event::Dial {
                    node,
                    conn: self.dialed,
                });
                slot.0 = Some(self.dialed);
                slot.1 += 1;
            }
            let (conn, generation) = (slot.0.unwrap(), slot.1);
            self.events.push(Event::Call { node, conn });
            let result = answer(&mut self.answers);
            if matches!(result, Err(ClientError::Lost(_) | ClientError::Goodbye))
                && self.slots[node].1 == generation
            {
                self.slots[node].0 = None;
            }
            result.map(|()| (generation, conn))
        }

        fn drive(
            &mut self,
            case: &Case,
            blocking: bool,
        ) -> (usize, Result<(u64, u64), ClientError>) {
            let usable: Vec<usize> = case
                .ranked
                .iter()
                .copied()
                .filter(|&n| !case.draining[n])
                .collect();
            let order = if usable.is_empty() {
                case.ranked.clone()
            } else {
                usable
            };
            let budget = case.budget;
            let mut attempts = case.attempts.max(1);
            let mut waited = Duration::ZERO;
            let mut rank = 0;
            loop {
                let node = order[rank % order.len()];
                let result = self.on_node(node);
                match &result {
                    Ok(_) => {}
                    Err(ClientError::Refused(BackendError::Throttled { retry_after }))
                        if blocking =>
                    {
                        if *retry_after <= budget.throttle && waited + *retry_after <= budget.total
                        {
                            self.events.push(Event::Sleep(*retry_after));
                            waited += *retry_after;
                            continue;
                        }
                    }
                    Err(ClientError::Refused(BackendError::Admission(_))) if blocking => {
                        if waited + ADMISSION_RETRY <= budget.total {
                            self.events.push(Event::Sleep(ADMISSION_RETRY));
                            waited += ADMISSION_RETRY;
                            continue;
                        }
                    }
                    Err(
                        err @ (ClientError::Lost(_)
                        | ClientError::Draining { .. }
                        | ClientError::Goodbye),
                    ) => {
                        if matches!(err, ClientError::Draining { .. } | ClientError::Goodbye) {
                            self.events.push(Event::Rerouted);
                        }
                        attempts -= 1;
                        if attempts > 0 {
                            rank += 1;
                            continue;
                        }
                    }
                    Err(_) => {}
                }
                self.events.push(Event::Return(format!("{result:?}")));
                return (node, result);
            }
        }

        fn op(&mut self, case: &Case, op: Op) {
            match op {
                Op::Submit { blocking } => {
                    if let (node, Ok((generation, conn))) = self.drive(case, blocking) {
                        let id = self.next_ticket;
                        self.next_ticket += 1;
                        self.pending.push(Pending {
                            id,
                            node,
                            generation,
                            conn,
                        });
                    }
                }
                Op::Render => {
                    let _ = self.drive(case, true);
                }
                Op::Control(node) => {
                    // A connection found gone — closed, lost, or answering
                    // what this client cannot read — is dialed once more,
                    // and then reads as drained.
                    let gone = |answer: &Result<_, ClientError>| {
                        matches!(answer, Err(ClientError::Goodbye | ClientError::Lost(_)))
                    };
                    let mut answer = self.on_node(node);
                    if gone(&answer) {
                        answer = self.on_node(node);
                    }
                    let drained = answer.is_ok() || gone(&answer);
                    self.events.push(Event::Return(format!("{answer:?}")));
                    self.events
                        .push(Event::Return(format!("drained {drained}")));
                }
                Op::Redial(node) => self.slots[node].0 = None,
                Op::Redeem(at) => {
                    let ticket = self.pending.remove(at);
                    let slot = self.slots[ticket.node];
                    if let (Some(conn), true) = (slot.0, slot.1 == ticket.generation) {
                        self.events.push(Event::Redeem {
                            ticket: ticket.id,
                            conn,
                        });
                        let result = answer(&mut self.answers);
                        match result {
                            Err(ClientError::Lost(_) | ClientError::Goodbye) => {
                                if self.slots[ticket.node].1 == ticket.generation {
                                    self.slots[ticket.node].0 = None;
                                }
                            }
                            _ => {
                                self.events.push(Event::Return(format!("{result:?}")));
                                return;
                            }
                        }
                    }
                    self.events.push(Event::HandOff(ticket.id));
                    let _ = self.drive(case, true);
                }
            }
        }
    }

    /// Run `seed` to its end: a random setting, 24 random operations, then
    /// every ticket still pending redeemed. The core and the model must
    /// take the same steps throughout.
    fn run_seed(seed: u64) {
        let mut rng = Rng(seed);
        let nodes = 1 + rng.below(4);
        let mut ranked: Vec<usize> = (0..nodes).collect();
        for i in (1..nodes).rev() {
            ranked.swap(i, rng.below(i + 1));
        }
        // Every fourth seed is `RemoteBackend`'s contract: one attempt and
        // an unbounded budget.
        let remote = seed.is_multiple_of(4);
        let case = Case {
            ranked,
            draining: (0..nodes).map(|_| rng.below(3) == 0).collect(),
            attempts: if remote { 1 } else { 1 + rng.below(4) as u32 },
            budget: if remote || rng.below(3) == 0 {
                WaitBudget::UNBOUNDED
            } else {
                WaitBudget::POOL
            },
        };
        let mut pool = Pool::new(nodes);
        let mut model = Model {
            slots: vec![(None, 0); nodes],
            dialed: 0,
            answers: Rng(0),
            events: Vec::new(),
            pending: Vec::new(),
            next_ticket: 1,
        };
        let mut ops = Vec::new();
        for round in 0..24 + nodes {
            let op = if round >= 24 {
                None
            } else {
                Some(match rng.below(10) {
                    0..=3 => Op::Submit {
                        blocking: rng.below(2) == 0,
                    },
                    4 => Op::Render,
                    5 => Op::Control(rng.below(nodes)),
                    6 => Op::Redial(rng.below(nodes)),
                    _ if pool.pending.is_empty() => Op::Render,
                    _ => Op::Redeem(rng.below(pool.pending.len())),
                })
            };
            // The tail redeems what is still pending, oldest first.
            let ops_now: Vec<Op> = match op {
                Some(op) => vec![op],
                None => (0..pool.pending.len()).map(|_| Op::Redeem(0)).collect(),
            };
            for op in ops_now {
                let answers = rng.next();
                pool.answers = Rng(answers);
                model.answers = Rng(answers);
                pool.op(&case, op);
                model.op(&case, op);
                ops.push(op);
                assert_eq!(
                    pool.events, model.events,
                    "the core left the model's steps after {ops:?}"
                );
            }
        }
        invariant(
            "every pending ticket is redeemed or handed off exactly once",
            pool.pending.is_empty()
                && (1..pool.next_ticket).all(|id| pool.settled.get(&id) == Some(&1)),
            &(&pool.settled, pool.next_ticket),
        );
    }

    /// 1000 seeded outcome sequences. A failing seed prints itself; once
    /// its fault is mended, check it in beside `seed_7_replays`.
    #[test]
    fn a_thousand_seeded_outcome_sequences_keep_every_invariant() {
        for seed in 0..1000 {
            if let Err(panic) = std::panic::catch_unwind(|| run_seed(seed)) {
                eprintln!("seed {seed} fails; replay it alone with `run_seed({seed})`");
                std::panic::resume_unwind(panic);
            }
        }
    }

    /// One seed checked in as its own test: the shape a failing seed takes
    /// once its fault is mended.
    #[test]
    fn seed_7_replays() {
        run_seed(7);
    }
}

#[cfg(test)]
mod cluster {
    //! The pool core and the server's `Node`s together, under faults: a
    //! seeded cluster with no socket.
    //!
    //! One to four `Node`s, each over a one-shard, one-worker service (the
    //! node tests' `Harness`), and the pool's core — `outcome`, `Route`,
    //! `Slot` and the `Directory` — under a shell that mirrors `NodePool`'s
    //! `on_node`, `drive`, `redeem` and control calls line for line, with
    //! the client's reply filing (`file`, `answer`) on every connection. A
    //! seeded network written here joins them. It delivers each
    //! connection's bytes in order, in pieces of any size, through a
    //! `FrameReader` at either end; it picks which connection moves next
    //! and which held completion a node applies; it half-closes
    //! connections, crashes nodes mid-pipeline, and makes protocol faults
    //! up: a reply of another kind, and a verdict under id 0. Time is a
    //! virtual clock: a wait the pool takes advances it, and the nodes'
    //! rate buckets read it.
    //!
    //! Every invariant is asserted by name. A failing seed prints itself;
    //! replay it with `run(N)` in a test like `seed_1_replays`.

    use super::tests::{invariant, Rng};
    use super::*;
    use crate::client::{answer, file, unexpected, Mailbox};
    use crate::node::tests::{config, direct, Harness, Piece};
    use crate::ratelimit::RateLimitConfig;
    use crate::server::ServerConfig;
    use crate::wire::tests::orbit;
    use crate::wire::{FrameReader, OutFrame, Reply, Request, DEFAULT_MAX_PAYLOAD, HEADER_BYTES};
    use mgpu_voldata::Dataset;
    use mgpu_volren::{Image, RenderConfig, TransferFunction};
    use std::borrow::Cow;
    use std::collections::VecDeque;
    use std::sync::OnceLock;
    use std::time::Instant;

    /// The runs' scenes — three datasets, so three plan keys, at four
    /// azimuths each — with their direct renders, computed once.
    fn scenes() -> &'static [(NetSceneRequest, Image)] {
        static SCENES: OnceLock<Vec<(NetSceneRequest, Image)>> = OnceLock::new();
        SCENES.get_or_init(|| {
            let datasets = [Dataset::Skull, Dataset::Supernova, Dataset::Plume];
            let scene = |dataset: Dataset, view: u32| {
                let transfer = TransferFunction::for_dataset(dataset.name());
                let azimuth = view as f32 * 37.0;
                orbit(
                    dataset,
                    (8, 1),
                    (azimuth, 10.0),
                    &transfer,
                    RenderConfig::test_size(8),
                )
            };
            let requests = datasets
                .into_iter()
                .flat_map(|d| (0..4).map(move |v| scene(d, v)));
            requests
                .map(|request| {
                    let image = direct(&request);
                    (request, image)
                })
                .collect()
        })
    }

    fn key(scene: usize) -> RequestKey {
        scenes()[scene]
            .0
            .to_request()
            .expect("a valid scene")
            .plan_key()
    }

    /// A node's address: its index in the cluster, as a port.
    fn addr(server: usize) -> SocketAddr {
        SocketAddr::from(([10, 0, 0, 1], 7000 + server as u16))
    }

    /// How often the network misbehaves: once in `n` chances (0: never).
    #[derive(Debug, Clone, Copy)]
    struct Faults {
        crash: usize,
        half_close: usize,
        other_kind: usize,
        verdict: usize,
    }

    impl Faults {
        const NONE: Faults = Faults {
            crash: 0,
            half_close: 0,
            other_kind: 0,
            verdict: 0,
        };
        const SEEDED: Faults = Faults {
            crash: 400,
            half_close: 250,
            other_kind: 50,
            verdict: 70,
        };
    }

    /// What the runs did, summed over seeds: the protocol faults each kind
    /// of call met, and the events the invariants rest on.
    #[derive(Debug, Default, Clone, Copy)]
    struct Tally {
        protocol_new_work: u64,
        protocol_control: u64,
        protocol_node_drained: u64,
        protocol_redeem: u64,
        crashes: u64,
        half_closes: u64,
        handoffs: u64,
        frames: u64,
        stale_echoes: u64,
        /// Renders, and tickets' hand-offs, that spent their route's
        /// attempts or wait budget.
        renders_out_of_budget: u64,
        tickets_out_of_budget: u64,
    }

    impl std::ops::AddAssign for Tally {
        fn add_assign(&mut self, t: Tally) {
            self.protocol_new_work += t.protocol_new_work;
            self.protocol_control += t.protocol_control;
            self.protocol_node_drained += t.protocol_node_drained;
            self.protocol_redeem += t.protocol_redeem;
            self.crashes += t.crashes;
            self.half_closes += t.half_closes;
            self.handoffs += t.handoffs;
            self.frames += t.frames;
            self.stale_echoes += t.stale_echoes;
            self.renders_out_of_budget += t.renders_out_of_budget;
            self.tickets_out_of_budget += t.tickets_out_of_budget;
        }
    }

    /// The kind of call a protocol fault is tallied under.
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        NewWork,
        Control,
        NodeDrained,
        Redeem,
    }

    /// A node of the cluster, with its renders counted: `pushed` admitted
    /// into its service, and each completion then `held` (applied to a
    /// live session) or `dropped` (its session, or the node, was gone).
    struct Server {
        h: Harness,
        pushed: usize,
        held: usize,
        dropped: usize,
        /// The node drains (it heard `DRAIN` last, not `RESUME`).
        draining: bool,
    }

    /// Stop a node: drop it, join its service's workers, and count the
    /// completions they pushed that nobody took.
    fn stop(h: Harness) -> usize {
        let Harness {
            node,
            shared,
            completions,
            held,
            ..
        } = h;
        drop(node);
        let shared = Arc::into_inner(shared).expect("the node held the last share");
        shared.sharded.shutdown();
        held.len() + completions.try_iter().count()
    }

    /// One pooled connection: the bytes in flight each way, a
    /// `FrameReader` at each end, the client's mailbox, the node's session.
    struct Conn {
        server: usize,
        session: u64,
        up: VecDeque<u8>,
        /// The client's half is closed: the node reads end-of-stream once
        /// `up` is delivered, and the client's writes fail.
        up_closed: bool,
        down: VecDeque<u8>,
        /// The node's half is closed: the client reads end-of-stream once
        /// `down` is delivered.
        down_closed: bool,
        node_reader: FrameReader,
        client_reader: FrameReader,
        mail: Mailbox,
        next_id: u64,
        /// The pool has dropped it.
        dropped: bool,
        /// The node has closed the session (or crashed).
        closed: bool,
        /// A verdict under id 0 poisoned the mailbox (not a `GOODBYE`): a
        /// protocol fault, which every later call on it meets again.
        verdict: bool,
    }

    /// One call of the pool's, as `RenderClient` makes it.
    #[derive(Debug, Clone, Copy)]
    enum Call {
        Render(usize),
        Submit(usize),
        Redeem(u64),
        Drain(u64),
        Resume(u64),
        Prewarm(u64, usize),
    }

    #[derive(Debug)]
    enum Answer {
        Frame(Image),
        Ticket(u64),
        State(DrainState),
        Warmed,
    }

    /// The network and the nodes on it.
    struct Net {
        rng: Rng,
        faults: Faults,
        clock: Instant,
        config: ServerConfig,
        servers: Vec<Option<Server>>,
        conns: Vec<Conn>,
        /// Each session's connection, by (server, session).
        sessions: HashMap<(usize, u64), usize>,
        /// The servers the pool routes new work to: in the directory and
        /// not draining in its view (`Cluster::sync` keeps it).
        routed: Vec<bool>,
        /// The highest epoch each node has echoed (a reply can outlive its
        /// node: it may be read after a crash).
        echoed: Vec<u64>,
        /// The error the last dial or call returned is a protocol fault: a
        /// reply of another kind, or a verdict under id 0. A lost
        /// connection reads the same to the pool, so the fault is marked
        /// where it surfaces, for `Cluster::note` to tally.
        protocol: bool,
        tally: Tally,
    }

    impl Net {
        fn chance(&mut self, one_in: usize) -> bool {
            one_in > 0 && self.rng.below(one_in) == 0
        }

        fn start(&mut self) -> usize {
            let mut h = Harness::new(self.config.clone());
            h.now = self.clock;
            self.servers.push(Some(Server {
                h,
                pushed: 0,
                held: 0,
                dropped: 0,
                draining: false,
            }));
            self.routed.push(false);
            self.echoed.push(0);
            self.servers.len() - 1
        }

        fn server(&mut self, server: usize) -> &mut Server {
            self.servers[server].as_mut().expect("a live node")
        }

        /// `RenderClient::connect_with`: open a session, then the `PING`
        /// handshake; a connection that fails it is dropped.
        fn dial(&mut self, to: SocketAddr) -> Result<usize, ClientError> {
            self.protocol = false;
            let server = usize::from(to.port() - 7000);
            let Some(live) = self.servers[server].as_mut() else {
                let refused = std::io::ErrorKind::ConnectionRefused;
                return Err(WireError::Io(refused).into());
            };
            let session = live.h.node.open((), self.clock);
            let conn = self.conns.len();
            self.sessions.insert((server, session), conn);
            self.conns.push(Conn {
                server,
                session,
                up: VecDeque::new(),
                up_closed: false,
                down: VecDeque::new(),
                down_closed: false,
                node_reader: FrameReader::new(),
                client_reader: FrameReader::new(),
                mail: Mailbox {
                    inbox: HashMap::new(),
                    reading: false,
                    dead: None,
                },
                next_id: 1,
                dropped: false,
                closed: false,
                verdict: false,
            });
            let token = 0x6D67_7075;
            let handshake = match self.call(conn, &Request::Ping(token)) {
                Ok(Reply::Pong(pong)) if pong.token == token => Ok(conn),
                Ok(Reply::Pong(_)) => {
                    self.protocol = true;
                    Err(ClientError::Lost("pong echoed another token".into()))
                }
                Ok(_) => {
                    self.protocol = true;
                    Err(unexpected())
                }
                Err(err) => Err(err),
            };
            if handshake.is_err() {
                self.drop_conn(conn);
            }
            handshake
        }

        /// The pool lets go of a connection: its socket closes.
        fn drop_conn(&mut self, conn: usize) {
            let conn = &mut self.conns[conn];
            conn.dropped = true;
            conn.up_closed = true;
            conn.down.clear();
        }

        /// `RenderClient::call`: send under a fresh id, await the reply.
        fn call(&mut self, conn: usize, request: &Request) -> Result<Reply, ClientError> {
            self.protocol = false;
            let c = &mut self.conns[conn];
            let id = c.next_id;
            c.next_id += 1;
            if let Some(dead) = &c.mail.dead {
                self.protocol = c.verdict;
                return Err(dead.clone());
            }
            if c.up_closed {
                return Err(WireError::Io(std::io::ErrorKind::BrokenPipe).into());
            }
            c.up.extend(request.framed(id));
            loop {
                let c = &mut self.conns[conn];
                if let Some(reply) = c.mail.inbox.remove(&id) {
                    return answer(id, reply?);
                }
                if let Some(dead) = &c.mail.dead {
                    self.protocol = c.verdict;
                    return Err(dead.clone());
                }
                invariant(
                    "every call ends: the cluster never stalls",
                    self.tick(),
                    &(conn, id),
                );
            }
        }

        /// One call, unpacked as `RenderClient`'s typed methods unpack it.
        fn call_as(&mut self, conn: usize, call: Call) -> Result<Answer, ClientError> {
            let scene = |i: usize| Cow::Borrowed(&scenes()[i].0);
            let request = match call {
                Call::Render(i) => Request::Render(scene(i)),
                Call::Submit(i) => Request::Submit(scene(i)),
                Call::Redeem(ticket) => Request::Redeem(ticket),
                Call::Drain(epoch) => Request::Drain(epoch),
                Call::Resume(epoch) => Request::Resume(epoch),
                Call::Prewarm(epoch, i) => Request::Prewarm(epoch, scene(i)),
            };
            match (call, self.call(conn, &request)?) {
                (Call::Render(_) | Call::Redeem(_), Reply::Frame(frame)) => {
                    Ok(Answer::Frame(frame.image))
                }
                (Call::Submit(_), Reply::Submitted(ticket)) => Ok(Answer::Ticket(ticket)),
                (Call::Drain(_) | Call::Resume(_), Reply::DrainState(state)) => {
                    Ok(Answer::State(state))
                }
                (Call::Prewarm(..), Reply::Prewarmed(_)) => Ok(Answer::Warmed),
                _ => {
                    self.protocol = true;
                    Err(unexpected())
                }
            }
        }

        /// Let the network move once: deliver a piece of some connection's
        /// bytes either way, apply a completion, or misbehave. `false` when
        /// nothing can move.
        fn tick(&mut self) -> bool {
            self.clock += Duration::from_millis(self.rng.below(8) as u64);
            if self.chance(self.faults.crash) {
                let live: Vec<usize> = (0..self.servers.len())
                    .filter(|&s| self.may_crash(s))
                    .collect();
                if !live.is_empty() {
                    let victim = live[self.rng.below(live.len())];
                    self.crash(victim);
                    return true;
                }
            }
            if self.chance(self.faults.half_close) {
                let open: Vec<usize> = (0..self.conns.len())
                    .filter(|&c| !self.conns[c].closed && !self.conns[c].dropped)
                    .collect();
                if !open.is_empty() {
                    let c = open[self.rng.below(open.len())];
                    if self.rng.below(2) == 0 {
                        self.conns[c].up_closed = true;
                    } else {
                        self.conns[c].down_closed = true;
                    }
                    self.tally.half_closes += 1;
                    return true;
                }
            }
            let mut moves = Vec::new();
            for (i, c) in self.conns.iter().enumerate() {
                if !c.closed && (!c.up.is_empty() || c.up_closed) {
                    moves.push((0, i));
                }
                if !c.dropped && c.mail.dead.is_none() && (!c.down.is_empty() || c.down_closed) {
                    moves.push((1, i));
                }
            }
            for (s, server) in self.servers.iter().enumerate() {
                if server
                    .as_ref()
                    .is_some_and(|v| v.pushed > v.held + v.dropped)
                {
                    moves.push((2, s));
                }
            }
            if moves.is_empty() {
                return false;
            }
            match moves[self.rng.below(moves.len())] {
                (0, c) => self.up(c),
                (1, c) => self.down(c),
                (_, s) => self.complete(s),
            }
            true
        }

        /// New work can land on `server`: it is live, the pool routes to it,
        /// and it does not drain.
        fn in_service(&self, server: usize) -> bool {
            self.routed[server]
                && self.servers[server]
                    .as_ref()
                    .is_some_and(|live| !live.draining)
        }

        /// A node may be lost — crashed, drained or removed — while another
        /// stays in service.
        fn spare(&self, server: usize) -> bool {
            (0..self.servers.len()).any(|s| s != server && self.in_service(s))
        }

        fn may_crash(&self, server: usize) -> bool {
            self.servers[server].is_some() && self.spare(server)
        }

        /// A wait of the pool's: the clock moves on, and so does the network.
        fn wait(&mut self, pause: Duration) {
            self.clock += pause;
            for _ in 0..self.rng.below(4) {
                self.tick();
            }
        }

        /// A piece of the connection's bytes reaches its node, which serves
        /// every frame that completes, as the event loop's `service_reads`.
        fn up(&mut self, c: usize) {
            let len = self.conns[c].up.len();
            let n = if len == 0 { 0 } else { 1 + self.rng.below(len) };
            let bytes: Vec<u8> = self.conns[c].up.drain(..n).collect();
            let conn = &self.conns[c];
            let (server, session) = (conn.server, conn.session);
            let mut piece = Piece {
                bytes: &bytes,
                eof: conn.up_closed && conn.up.is_empty(),
            };
            while !self.conns[c].closed {
                let max = self.config.max_payload;
                match self.conns[c].node_reader.read(&mut piece, max) {
                    Ok(Some((tag, id, payload))) => self.frame(server, session, tag, id, &payload),
                    Ok(None) => break,
                    Err(WireError::ConnectionClosed | WireError::Io(_)) => {
                        self.server(server).h.node.close(session);
                        self.conns[c].closed = true;
                        self.conns[c].down_closed = true;
                    }
                    Err(err) => self.server(server).h.node.unframable(session, err),
                }
                self.turn(server);
            }
        }

        /// One request frame served, its admission counted: a `RENDER` that
        /// is answered nothing yet, or a `SUBMIT` answered `SUBMITTED`.
        fn frame(&mut self, server: usize, session: u64, tag: u8, id: u64, payload: &[u8]) {
            let clock = self.clock;
            let live = self.server(server);
            live.h.node.frame(session, tag, id, payload, clock);
            let out = &live
                .h
                .node
                .session_mut(session)
                .expect("an open session")
                .out;
            let tags: Vec<u8> = out.iter().map(|frame| head(&written(frame)).0).collect();
            let admitted = match Request::decode(tag, payload) {
                Ok(Request::Render(_)) => tags.is_empty(),
                Ok(Request::Submit(_)) => tags == [Reply::Submitted(0).tag()],
                Ok(Request::Drain(_)) => {
                    live.draining = true;
                    false
                }
                Ok(Request::Resume(_)) => {
                    live.draining = false;
                    false
                }
                _ => false,
            };
            live.pushed += usize::from(admitted);
        }

        /// The event loop's turn: the node's, then every reply it queued
        /// put on the wire — where the network may swap a reply for one of
        /// another kind, or slip a verdict under id 0 in ahead of it.
        fn turn(&mut self, server: usize) {
            let live = self.server(server);
            live.h.node.turn(false);
            let mut ids: Vec<u64> = live.h.node.sessions().map(|(id, _)| id).collect();
            ids.sort_unstable();
            for session in ids {
                let open = self
                    .server(server)
                    .h
                    .node
                    .session_mut(session)
                    .expect("open");
                let frames: Vec<OutFrame> = open.out.drain(..).collect();
                let closing = open.closing;
                let c = self.sessions[&(server, session)];
                for frame in frames {
                    let mut bytes = written(&frame);
                    let id = head(&bytes).1;
                    // No call asks for `TRACES`, so every caller can tell.
                    if id != 0 && self.chance(self.faults.other_kind) {
                        bytes = Reply::Traces(Vec::new()).framed(id);
                    }
                    if self.chance(self.faults.verdict) {
                        let verdict = Reply::BadRequest("a verdict the network made up".into());
                        self.put_down(c, &verdict.framed(0));
                    }
                    self.put_down(c, &bytes);
                }
                if closing {
                    self.server(server).h.node.close(session);
                    self.conns[c].closed = true;
                    self.conns[c].down_closed = true;
                }
            }
        }

        fn put_down(&mut self, c: usize, bytes: &[u8]) {
            let conn = &mut self.conns[c];
            if !conn.down_closed && !conn.dropped {
                conn.down.extend(bytes);
            }
        }

        /// A piece of the node's bytes reaches the client, which files each
        /// reply as its reader does in `await_reply`.
        fn down(&mut self, c: usize) {
            let conn = &mut self.conns[c];
            let len = conn.down.len();
            let n = if len == 0 { 0 } else { 1 + self.rng.below(len) };
            let bytes: Vec<u8> = conn.down.drain(..n).collect();
            let mut piece = Piece {
                bytes: &bytes,
                eof: conn.down_closed && conn.down.is_empty(),
            };
            while conn.mail.dead.is_none() {
                match conn
                    .client_reader
                    .read_reply(&mut piece, DEFAULT_MAX_PAYLOAD)
                {
                    Ok(Some((id, reply))) => {
                        let verdict = id == 0 && reply.is_ok();
                        file(&mut conn.mail, id, reply);
                        conn.verdict =
                            verdict && matches!(conn.mail.dead, Some(ClientError::Lost(_)));
                    }
                    Ok(None) => break,
                    Err(err) => conn.mail.dead = Some(err.into()),
                }
            }
        }

        /// The node applies one of its held completions, picked by the seed.
        fn complete(&mut self, server: usize) {
            let pick = self.rng.next() as usize;
            let clock = self.clock;
            let live = self.server(server);
            let pending = live.pushed - live.held - live.dropped;
            live.h.hold(pending);
            let i = pick % pending;
            let session = live.h.held[i].session;
            if live.h.node.session_mut(session).is_some() {
                live.held += 1;
            } else {
                live.dropped += 1;
            }
            live.h.now = clock;
            live.h.complete(i);
            self.turn(server);
        }

        /// The node dies mid-pipeline: its renders' completions are dropped
        /// with it, its sessions end, and what it had sent but not yet
        /// delivered is lost or not (a reset, or an orderly close).
        fn crash(&mut self, server: usize) {
            let mut dead = self.servers[server].take().expect("a live node");
            dead.dropped += stop(dead.h);
            invariant(
                "pushed == held + dropped: every render a node admits completes once",
                dead.pushed == dead.held + dead.dropped,
                &(server, dead.pushed, dead.held, dead.dropped),
            );
            let reset = self.rng.below(2) == 0;
            for conn in self
                .conns
                .iter_mut()
                .filter(|c| c.server == server && !c.closed)
            {
                conn.closed = true;
                conn.down_closed = true;
                conn.up.clear();
                if reset {
                    conn.down.clear();
                }
            }
            self.tally.crashes += 1;
        }
    }

    /// A queued reply as the bytes the event loop writes.
    fn written(frame: &OutFrame) -> Vec<u8> {
        let mut bytes = Vec::new();
        while bytes.len() < frame.len() {
            frame
                .write_from(bytes.len(), &mut bytes)
                .expect("a Vec takes every byte");
        }
        bytes
    }

    /// A frame's tag and request id, read from its prelude.
    fn head(bytes: &[u8]) -> (u8, u64) {
        let id = bytes[HEADER_BYTES..HEADER_BYTES + 8]
            .try_into()
            .expect("a whole prelude");
        (bytes[6], u64::from_le_bytes(id))
    }

    /// A pool ticket, as `PendingEntry` backs one.
    #[derive(Debug, Clone, Copy)]
    struct Pending {
        scene: usize,
        slot: usize,
        generation: u64,
        ticket: u64,
    }

    /// A call's result, with the slot and generation it ran on.
    type Ran = Result<(usize, u64, Answer), ClientError>;

    /// `NodePool`'s shell over the cluster's connections, each method a
    /// mirror of the pool's own over the real core.
    struct Cluster {
        net: Net,
        directory: Directory,
        /// Each directory index's slot; a slot keeps its node's address.
        nodes: Vec<usize>,
        draining: Vec<bool>,
        slots: Vec<(SocketAddr, Slot<usize>)>,
        pending: BTreeMap<u64, Pending>,
        next_ticket: u64,
        /// How many times each ticket was settled: redeemed on its own
        /// connection, or handed off.
        settled: BTreeMap<u64, u32>,
        attempts: u32,
        kind: Kind,
        /// The directory as it was at the start: a client that never
        /// refreshed it.
        stale: Directory,
    }

    impl Cluster {
        fn new(
            seed: u64,
            nodes: usize,
            rate: Option<RateLimitConfig>,
            attempts: u32,
            faults: Faults,
        ) -> Cluster {
            let mut net = Net {
                rng: Rng(seed),
                faults,
                clock: Instant::now(),
                config: ServerConfig {
                    rate_limit: rate,
                    ..config()
                },
                servers: Vec::new(),
                conns: Vec::new(),
                sessions: HashMap::new(),
                routed: Vec::new(),
                echoed: Vec::new(),
                protocol: false,
                tally: Tally::default(),
            };
            let servers: Vec<usize> = (0..nodes).map(|_| net.start()).collect();
            let directory = Directory::new(servers.iter().map(|&s| addr(s)).collect())
                .expect("distinct addresses");
            let mut cluster = Cluster {
                net,
                stale: directory.clone(),
                directory,
                nodes: (0..nodes).collect(),
                draining: vec![false; nodes],
                slots: servers.iter().map(|&s| (addr(s), Slot::EMPTY)).collect(),
                pending: BTreeMap::new(),
                next_ticket: 1,
                settled: BTreeMap::new(),
                attempts,
                kind: Kind::NewWork,
            };
            cluster.sync();
            cluster
        }

        fn server_of(&self, node: usize) -> usize {
            usize::from(self.slots[self.nodes[node]].0.port() - 7000)
        }

        /// Tell the network which nodes the pool routes new work to.
        fn sync(&mut self) {
            self.net
                .routed
                .iter_mut()
                .for_each(|routed| *routed = false);
            for node in 0..self.nodes.len() {
                let server = self.server_of(node);
                self.net.routed[server] = !self.draining[node];
            }
        }

        /// Would a node stay in service without `node` (a directory index)?
        fn spare(&self, node: usize) -> bool {
            self.net.spare(self.server_of(node))
        }

        /// Tally a protocol fault under the kind of call that met it, and
        /// check the epoch a `DRAINING` refusal echoes.
        fn note<T>(&mut self, node: Option<usize>, result: &Result<T, ClientError>) {
            let protocol = std::mem::take(&mut self.net.protocol);
            let tally = &mut self.net.tally;
            match (result, node) {
                (Err(_), _) if protocol => {
                    *match self.kind {
                        Kind::NewWork => &mut tally.protocol_new_work,
                        Kind::Control => &mut tally.protocol_control,
                        Kind::NodeDrained => &mut tally.protocol_node_drained,
                        Kind::Redeem => &mut tally.protocol_redeem,
                    } += 1
                }
                (Err(ClientError::Draining { epoch }), Some(node)) => {
                    let epoch = *epoch;
                    self.echo(node, epoch, None)
                }
                _ => {}
            }
        }

        /// A node echoed `epoch`, answering an announcement of `announced`.
        fn echo(&mut self, node: usize, epoch: u64, announced: Option<u64>) {
            let server = self.server_of(node);
            let directory = self.directory.epoch();
            let echoed = &mut self.net.echoed[server];
            let context = (node, epoch, *echoed, directory, announced);
            invariant(
                "epochs are monotone: a node's echo never falls",
                epoch >= *echoed,
                &context,
            );
            invariant(
                "a node echoes no epoch the directory has not reached",
                epoch <= directory,
                &context,
            );
            invariant(
                "a node that answers an announcement echoes it",
                announced.is_none_or(|a| epoch >= a),
                &context,
            );
            *echoed = epoch;
            if epoch > self.stale.epoch() {
                self.net.tally.stale_echoes += 1;
            }
        }

        /// `NodePool::on_node`.
        fn on_node(&mut self, node: usize, call: Call) -> Ran {
            let Some(&slot) = self.nodes.get(node) else {
                return Err(ClientError::Lost(format!(
                    "node {node} is not in the directory"
                )));
            };
            let (to, net) = (self.slots[slot].0, &mut self.net);
            let dialed = self.slots[slot].1.connection(|| net.dial(to));
            self.note(Some(node), &dialed);
            let (conn, generation) = dialed?;
            let result = self.net.call_as(conn, call);
            self.note(Some(node), &result);
            if outcome(&result).gone() {
                self.poison(slot, generation);
            }
            result.map(|value| (slot, generation, value))
        }

        /// `Slot::poison`, and the socket closes with the pool's last hold.
        fn poison(&mut self, slot: usize, generation: u64) {
            if let Some(conn) = self.slots[slot].1.current(generation) {
                self.slots[slot].1.poison(generation);
                self.net.drop_conn(conn);
            }
        }

        fn route(&self, scene: usize, blocking: bool) -> Route {
            let ranked = self.directory.ranked(&key(scene));
            let route = Route::new(ranked, &self.draining, self.attempts, WaitBudget::POOL);
            Route { blocking, ..route }
        }

        /// `NodePool::drive`.
        fn drive(&mut self, mut route: Route, call: Call) -> (usize, Ran) {
            let mut node = route.order[0];
            loop {
                let result = self.on_node(node, call);
                match route.next(outcome(&result)) {
                    Step::Send(next) => node = next,
                    Step::Wait(pause) => self.net.wait(pause),
                    Step::Return => return (node, result),
                }
            }
        }

        /// A frame the pool hands its caller, or why not.
        fn delivered(&mut self, scene: usize, result: Result<Answer, ClientError>) -> bool {
            match result {
                Ok(Answer::Frame(image)) => {
                    invariant(
                        "every delivered frame is bit-identical to a direct render",
                        image == scenes()[scene].1,
                        &scene,
                    );
                    self.net.tally.frames += 1;
                    true
                }
                Ok(other) => panic!("a render answered {other:?}"),
                Err(err) => {
                    let seen = outcome(&Err::<(), _>(err.clone()));
                    invariant(
                        "only a spent budget keeps a frame from its caller",
                        !matches!(seen, Outcome::Ok | Outcome::Refused),
                        &err,
                    );
                    false
                }
            }
        }

        /// `RenderBackend::render`: the node that answered, and whether a
        /// frame came back.
        fn render(&mut self, scene: usize) -> (usize, bool) {
            self.kind = Kind::NewWork;
            let (node, result) = self.drive(self.route(scene, true), Call::Render(scene));
            let delivered = self.delivered(scene, result.map(|(_, _, answer)| answer));
            self.net.tally.renders_out_of_budget += u64::from(!delivered);
            (node, delivered)
        }

        /// `NodePool::submit_pending`: a pool ticket, or none.
        fn submit(&mut self, scene: usize, blocking: bool) -> Option<u64> {
            self.kind = Kind::NewWork;
            let (_, result) = self.drive(self.route(scene, blocking), Call::Submit(scene));
            let Ok((slot, generation, Answer::Ticket(ticket))) = result else {
                return None;
            };
            let id = self.next_ticket;
            self.next_ticket += 1;
            let entry = Pending {
                scene,
                slot,
                generation,
                ticket,
            };
            self.pending.insert(id, entry);
            Some(id)
        }

        /// `NodePool::redeem`: whether the frame came back.
        fn redeem(&mut self, id: u64) -> bool {
            let entry = self.pending.remove(&id).expect("a pending ticket");
            *self.settled.entry(id).or_default() += 1;
            if let Some(conn) = self.slots[entry.slot].1.current(entry.generation) {
                self.kind = Kind::Redeem;
                let result = self.net.call_as(conn, Call::Redeem(entry.ticket));
                self.note(None, &result);
                if !outcome(&result).gone() {
                    invariant(
                        "a ticket redeemed on its own connection gets its frame",
                        result.is_ok(),
                        &(entry, &result),
                    );
                    return self.delivered(entry.scene, result);
                }
                self.poison(entry.slot, entry.generation);
            }
            self.net.tally.handoffs += 1;
            self.kind = Kind::NewWork;
            let (_, result) = self.drive(self.route(entry.scene, true), Call::Render(entry.scene));
            let delivered = self.delivered(entry.scene, result.map(|(_, _, answer)| answer));
            self.net.tally.tickets_out_of_budget += u64::from(!delivered);
            delivered
        }

        /// `NodePool::control`.
        fn control(&mut self, node: usize, call: Call) -> Result<Answer, ClientError> {
            self.drive(Route::control(node), call)
                .1
                .map(|(_, _, value)| value)
        }

        /// `NodePool::set_draining`.
        fn set_draining(&mut self, node: usize, draining: bool) -> Result<DrainState, ClientError> {
            if self.draining[node] != draining {
                self.draining[node] = draining;
                self.directory.bump_epoch();
                self.sync();
            }
            let epoch = self.directory.epoch();
            self.kind = Kind::Control;
            let call = if draining {
                Call::Drain(epoch)
            } else {
                Call::Resume(epoch)
            };
            let answer = self.control(node, call);
            self.sync();
            let state = match answer? {
                Answer::State(state) => state,
                other => panic!("a drain answered {other:?}"),
            };
            self.echo(node, state.epoch, Some(epoch));
            Ok(state)
        }

        /// `NodePool::node_drained`.
        fn node_drained(&mut self, node: usize) -> bool {
            if !self.draining[node] {
                return false;
            }
            let epoch = self.directory.epoch();
            self.kind = Kind::NodeDrained;
            let answer = self.control(node, Call::Drain(epoch));
            let gone = outcome(&answer).gone();
            match answer {
                Ok(Answer::State(state)) => {
                    self.echo(node, state.epoch, Some(epoch));
                    state.draining && state.outstanding == 0
                }
                Ok(other) => panic!("a drain answered {other:?}"),
                Err(_) => gone,
            }
        }

        /// A node joins under a fresh address.
        fn add_node(&mut self) -> usize {
            let server = self.net.start();
            let node = self
                .directory
                .add_node(addr(server))
                .expect("a fresh address");
            self.nodes.push(self.slots.len());
            self.slots.push((addr(server), Slot::EMPTY));
            self.draining.push(false);
            self.sync();
            node
        }

        fn remove_node(&mut self, node: usize) {
            self.directory.remove_node(node).expect("a node to remove");
            self.nodes.remove(node);
            self.draining.remove(node);
            self.sync();
        }

        /// `rebalance_once`'s move: pre-warm `node`, then pin the key there.
        fn migrate(&mut self, scene: usize, node: usize) {
            self.kind = Kind::Control;
            let epoch = self.directory.epoch();
            if self.control(node, Call::Prewarm(epoch, scene)).is_ok() {
                self.directory
                    .migrate(&key(scene), node)
                    .expect("a node of the directory");
            }
        }

        /// One operator or client action, picked by the seed. First the
        /// operator takes the nodes found crashed out of the directory.
        fn step(&mut self) {
            while let Some(dead) =
                (0..self.nodes.len()).find(|&n| self.net.servers[self.server_of(n)].is_none())
            {
                if self.nodes.len() == 1 {
                    break;
                }
                self.remove_node(dead);
            }
            let rng = &mut self.net.rng;
            let (scene, pick, nodes) = (
                rng.below(scenes().len()),
                rng.next() as usize,
                self.nodes.len(),
            );
            match rng.below(20) {
                0..=3 => {
                    let blocking = pick % 2 == 0;
                    self.submit(scene, blocking);
                }
                4 | 5 => {
                    self.render(scene);
                }
                6..=8 if !self.pending.is_empty() => {
                    let id = *self
                        .pending
                        .keys()
                        .nth(pick % self.pending.len())
                        .expect("pending");
                    self.redeem(id);
                }
                9 if self.spare(pick % nodes) => {
                    let _ = self.set_draining(pick % nodes, true);
                }
                10 => {
                    let _ = self.set_draining(pick % nodes, false);
                }
                11 => {
                    // The operator polls a draining node, and decommissions
                    // it once it reads drained.
                    let draining: Vec<usize> = (0..nodes).filter(|&n| self.draining[n]).collect();
                    let node = draining
                        .get(pick % draining.len().max(1))
                        .copied()
                        .unwrap_or(pick % nodes);
                    if self.node_drained(node) && nodes > 1 && self.spare(node) {
                        let server = self.server_of(node);
                        self.remove_node(node);
                        if self.net.servers[server].is_some() {
                            self.net.crash(server);
                        }
                    }
                }
                12 if self.net.servers.len() < 6 => {
                    self.add_node();
                }
                13 if nodes > 1 && self.spare(pick % nodes) => self.remove_node(pick % nodes),
                14 => self.migrate(scene, pick % nodes),
                15 if self.net.may_crash(self.server_of(pick % nodes)) => {
                    self.net.crash(self.server_of(pick % nodes));
                }
                _ => {
                    for _ in 0..1 + pick % 6 {
                        self.net.tick();
                    }
                }
            }
        }

        /// Redeem every ticket still pending, let each node apply every
        /// completion it is owed, stop it, and check the accounting.
        fn finish(mut self) -> Tally {
            while let Some(&id) = self.pending.keys().next() {
                self.redeem(id);
            }
            invariant(
                "no admitted frame is lost: every ticket is redeemed or handed off exactly once",
                (1..self.next_ticket).all(|id| self.settled.get(&id) == Some(&1)),
                &(&self.settled, self.next_ticket),
            );
            for server in 0..self.net.servers.len() {
                let owed = |net: &Net| {
                    net.servers[server]
                        .as_ref()
                        .is_some_and(|v| v.pushed > v.held + v.dropped)
                };
                while owed(&self.net) {
                    self.net.complete(server);
                }
                let Some(mut live) = self.net.servers[server].take() else {
                    continue;
                };
                let stray = stop(live.h);
                live.dropped += stray;
                invariant(
                    "pushed == held + dropped: every render a node admits completes once",
                    stray == 0 && live.pushed == live.held + live.dropped,
                    &(server, live.pushed, live.held, live.dropped, stray),
                );
            }
            self.net.tally
        }
    }

    /// Run `seed` to its end: a seeded setting (1–4 nodes, a rate limit
    /// or none, 3 or 4 attempts), 20 actions under seeded faults, then
    /// every ticket still pending redeemed.
    fn run(seed: u64) -> Tally {
        let mut rng = Rng(seed ^ 0xC1A5_7E55);
        let nodes = 1 + rng.below(4);
        let rate = (rng.below(4) == 0)
            .then(|| RateLimitConfig::new(1.0 + rng.below(20) as f64, 1 + rng.below(3) as u32));
        let attempts = 3 + rng.below(2) as u32;
        let mut cluster = Cluster::new(seed, nodes, rate, attempts, Faults::SEEDED);
        for _ in 0..20 {
            cluster.step();
        }
        cluster.finish()
    }

    /// 1000 seeded runs. A failing seed prints itself; once its fault is
    /// mended, check it in beside `seed_1_replays`. The tally, printed,
    /// shows that each kind of call met a protocol fault somewhere.
    #[test]
    fn a_thousand_seeded_cluster_runs_keep_every_invariant() {
        let mut tally = Tally::default();
        for seed in 0..1000 {
            match std::panic::catch_unwind(|| run(seed)) {
                Ok(run) => tally += run,
                Err(panic) => {
                    eprintln!("seed {seed} fails; replay it alone with `run({seed})`");
                    std::panic::resume_unwind(panic);
                }
            }
        }
        eprintln!("{tally:#?}");
        let hit = [
            tally.protocol_new_work,
            tally.protocol_control,
            tally.protocol_node_drained,
            tally.protocol_redeem,
            tally.crashes,
            tally.half_closes,
            tally.handoffs,
            tally.stale_echoes,
        ];
        assert!(
            hit.iter().all(|&n| n > 0),
            "a fault or event never happened: {tally:#?}"
        );
    }

    /// One seed checked in as its own test: the shape a failing seed takes
    /// once its fault is mended. Seed 1 meets a crash, a half-close, a
    /// protocol fault and two hand-offs, and kills the mutants of
    /// `ci/mutants.txt` that name it.
    #[test]
    fn seed_1_replays() {
        let tally = run(1);
        let met = [tally.crashes, tally.half_closes, tally.protocol_new_work];
        assert!(
            met.iter().all(|&n| n > 0) && tally.handoffs == 2,
            "{tally:#?}"
        );
    }

    /// The event orders of `drain.rs`'s
    /// `draining_a_node_mid_pipeline_loses_zero_frames`, one per seed: 12
    /// tickets over 3 nodes, the skull key's node drained mid-run; every
    /// ticket redeems on its own connection, the node then reads drained,
    /// and new work for its key lands on a survivor.
    #[test]
    fn draining_a_node_mid_pipeline_loses_zero_frames() {
        for seed in 0..16 {
            let mut c = Cluster::new(
                seed,
                3,
                None,
                NodePoolConfig::default().attempts,
                Faults::NONE,
            );
            let tickets: Vec<u64> = (0..12)
                .map(|scene| c.submit(scene, true).expect("pipelined submit"))
                .collect();
            let target = c.directory.node_for(&key(0));
            let slot = c.nodes[target];
            assert!(
                c.pending.values().any(|p| p.slot == slot),
                "the target holds tickets"
            );
            let state = c.set_draining(target, true).expect("drain mid-run");
            assert!(state.draining);
            assert_eq!(
                (c.directory.epoch(), state.epoch),
                (1, 1),
                "a drain is a placement change"
            );
            for ticket in tickets {
                assert!(c.redeem(ticket), "ticket {ticket} redeems under the drain");
            }
            assert_eq!(
                c.net.tally.handoffs, 0,
                "a draining node answers what it owes"
            );
            assert!(c.node_drained(target));
            let (node, delivered) = c.render(1);
            assert!(
                delivered && node != target,
                "new work routes around the drain"
            );
            c.finish();
        }
    }

    /// The event orders of `drain.rs`'s
    /// `membership_changes_keep_parked_tickets_redeemable`: a node joins,
    /// the ticket's issuer leaves the directory, and the ticket still
    /// redeems on its own connection.
    #[test]
    fn membership_changes_keep_parked_tickets_redeemable() {
        for seed in 0..16 {
            let mut c = Cluster::new(
                seed,
                2,
                None,
                NodePoolConfig::default().attempts,
                Faults::NONE,
            );
            let parked = c.submit(4, true).expect("park a ticket");
            let issuer = c
                .nodes
                .iter()
                .position(|&slot| slot == c.pending[&parked].slot)
                .expect("issuer");
            assert_eq!(c.add_node(), 2);
            let joined = c.directory.epoch();
            assert!(joined >= 1);
            c.remove_node(issuer);
            assert_eq!(c.directory.len(), 2);
            assert!(c.directory.epoch() > joined);
            assert!(
                c.redeem(parked),
                "a parked ticket survives its node's removal"
            );
            assert_eq!(c.net.tally.handoffs, 0, "redemption follows the slot");
            assert!(c.render(8).1, "the directory renders after the churn");
            c.finish();
        }
    }

    /// The event orders of `drain.rs`'s
    /// `a_ticket_on_a_lost_connection_is_handed_off`: the ticket's node
    /// crashes, and the ticket re-renders on the survivor.
    #[test]
    fn a_ticket_on_a_lost_connection_is_handed_off() {
        for seed in 0..16 {
            let mut c = Cluster::new(
                seed,
                2,
                None,
                NodePoolConfig::default().attempts,
                Faults::NONE,
            );
            let ticket = c.submit(1, true).expect("park a ticket");
            let issuer = c
                .nodes
                .iter()
                .position(|&slot| slot == c.pending[&ticket].slot)
                .expect("issuer");
            c.net.crash(c.server_of(issuer));
            assert!(c.redeem(ticket), "the hand-off delivers the frame");
            assert_eq!(c.net.tally.handoffs, 1);
            c.finish();
        }
    }

    /// The event orders of `backend_equivalence`'s
    /// `node_pool_fails_over_within_its_retry_budget_when_a_node_dies`: the
    /// key's node renders once and dies, and the next render of the key
    /// lands on the survivor within 3 attempts.
    #[test]
    fn node_pool_fails_over_within_its_retry_budget_when_a_node_dies() {
        for seed in 0..16 {
            let mut c = Cluster::new(seed, 2, None, 3, Faults::NONE);
            let owner = c.directory.node_for(&key(0));
            assert_eq!(c.render(0), (owner, true), "a healthy render");
            c.net.crash(c.server_of(owner));
            assert_eq!(c.render(1), (1 - owner, true), "the render fails over");
            c.finish();
        }
    }
}
