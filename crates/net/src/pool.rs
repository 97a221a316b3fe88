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
//! socket, clock or sleep: `outcome` sorts a call's [`ClientError`] (the
//! only place one is matched), a `Route` turns each outcome into the next
//! step, and a `Slot` keeps the generation rule. The shell (`on_node`,
//! `drive`, `redeem`) dials, calls the node's `RenderClient`, sleeps and counts.
//! A seeded test runs the core against a straight-line model of these rules.
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
//!   Lost (transport)  next node, 1 attempt        dial, retry     hand off
//!   Broken (protocol) next node, 1 attempt        return          hand off
//!   Draining          next node, 1 attempt        return          return
//!   Goodbye           next node, 1 attempt        dial, retry     hand off
//!   BadRequest, Render, TicketsFull: return the caller's error, everywhere
//! ```
//!
//! "return" hands the call's result to the caller, and a route out of
//! attempts returns too. Lost, Broken and Goodbye poison the slot, unless
//! it was re-dialed since; new work that meets Draining or Goodbye counts
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
    Lost,   // `Wire`: the connection failed, closed or timed out
    Broken, // `Protocol`: an answer this client cannot read
    Draining,
    Goodbye,
    Refused, // the caller's own: `BadRequest`, `Render`, `TicketsFull`
}

fn outcome<T>(result: &Result<T, ClientError>) -> Outcome {
    match result {
        Ok(_) => Outcome::Ok,
        Err(ClientError::Throttled { retry_after }) => Outcome::Throttled(*retry_after),
        Err(ClientError::Admission(_)) => Outcome::Admission,
        Err(ClientError::Wire(_)) => Outcome::Lost,
        Err(ClientError::Protocol(_)) => Outcome::Broken,
        Err(ClientError::Draining { .. }) => Outcome::Draining,
        Err(ClientError::Goodbye) => Outcome::Goodbye,
        Err(
            ClientError::BadRequest(_) | ClientError::Render(_) | ClientError::TicketsFull { .. },
        ) => Outcome::Refused,
    }
}

impl Outcome {
    /// The connection is gone for good.
    fn gone(self) -> bool {
        matches!(self, Outcome::Lost | Outcome::Goodbye)
    }

    /// The connection can no longer be trusted: its slot is poisoned, and
    /// a ticket parked on it is handed off.
    fn poisons(self) -> bool {
        self.gone() || self == Outcome::Broken
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
        let fails_over =
            seen.gone() || !self.control && matches!(seen, Outcome::Broken | Outcome::Draining);
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
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NodePool, ClientError> {
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
    ) -> Result<NodePool, ClientError> {
        let config = NodePoolConfig {
            attempts: 1,
            client,
        };
        let mut last = WireError::Io(std::io::ErrorKind::AddrNotAvailable).into();
        for candidate in addr.to_socket_addrs().map_err(WireError::from)? {
            let directory = Directory::new(vec![candidate]).expect("one address, no duplicate");
            let mut pool = NodePool::new(directory, config);
            pool.waits = WaitBudget::UNBOUNDED;
            match pool.on_node(0, |_| Ok(())) {
                Ok(_) => return Ok(pool),
                Err(err) => last = err,
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
            return Err(ClientError::Protocol(format!(
                "node {node} is not in the directory"
            )));
        };
        let (client, generation) = slot
            .lock()
            .expect(POISON)
            .connection(|| RenderClient::connect_with(addr, self.config.client).map(Arc::new))?;
        let result = op(&client);
        if outcome(&result).poisons() {
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
                return Err(node_error(node, None, ClientError::Protocol(unknown)));
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
            if !outcome(&result).poisons() {
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
        let net = Arc::new(NetSceneRequest::orbit_dataset(
            mgpu_voldata::Dataset::Skull,
            8,
            1,
            0.0,
            0.0,
            &mgpu_volren::TransferFunction::bone(),
        ));
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
            7 | 8 => ClientError::Throttled {
                retry_after: Duration::from_millis(throttles[rng.below(throttles.len())]),
            },
            9 | 10 => ClientError::Admission(admission),
            11 | 12 => ClientError::Wire(WireError::ConnectionClosed),
            13 => ClientError::Protocol("an answer of another kind".into()),
            14 | 15 => ClientError::Draining { epoch: 3 },
            16 => ClientError::Goodbye,
            17 => ClientError::BadRequest("a 0×8 image".into()),
            18 => ClientError::Render(FrameError::new("the render panicked")),
            _ => ClientError::TicketsFull {
                outstanding: 4,
                limit: 4,
            },
        })
    }

    fn refused() -> ClientError {
        ClientError::Wire(WireError::Io(std::io::ErrorKind::ConnectionRefused))
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
    fn invariant(name: &str, holds: bool, context: &dyn std::fmt::Debug) {
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
            if outcome(&result).poisons() {
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
                if matches!(result, Err(ClientError::BadRequest(_))) {
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
                        if !outcome(&result).poisons() {
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
            if matches!(
                result,
                Err(ClientError::Wire(_))
                    | Err(ClientError::Protocol(_))
                    | Err(ClientError::Goodbye)
            ) && self.slots[node].1 == generation
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
                    Err(ClientError::Throttled { retry_after }) if blocking => {
                        if *retry_after <= budget.throttle && waited + *retry_after <= budget.total
                        {
                            self.events.push(Event::Sleep(*retry_after));
                            waited += *retry_after;
                            continue;
                        }
                    }
                    Err(ClientError::Admission(_)) if blocking => {
                        if waited + ADMISSION_RETRY <= budget.total {
                            self.events.push(Event::Sleep(ADMISSION_RETRY));
                            waited += ADMISSION_RETRY;
                            continue;
                        }
                    }
                    Err(
                        err @ (ClientError::Wire(_)
                        | ClientError::Protocol(_)
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
                    let mut answer = self.on_node(node);
                    if matches!(
                        answer,
                        Err(ClientError::Goodbye) | Err(ClientError::Wire(_))
                    ) {
                        answer = self.on_node(node);
                    }
                    let drained = match answer {
                        Ok(_) => true,
                        Err(ClientError::Goodbye) | Err(ClientError::Wire(_)) => true,
                        Err(_) => false,
                    };
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
                            Err(
                                ClientError::Wire(_)
                                | ClientError::Protocol(_)
                                | ClientError::Goodbye,
                            ) => {
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
