//! # mgpu-net — the render service on the wire
//!
//! Everything below `mgpu-serve` assumes the caller shares an address
//! space with the service. This crate removes that assumption — sharding
//! across *processes*, after `ShardedService`'s sharding across worker
//! pools, and the shape of the distributed GPU render frameworks the
//! paper's cluster implies (Hassan et al., arXiv:1205.0282): render nodes
//! behind a network front-end.
//!
//! ```text
//! RenderClient ══TCP══► RenderServer event loop ──► per-session TokenBucket
//!   many in-flight ids     poll(2) readiness,           │ (before admission)
//!   per connection         all conns in one loop        ▼
//!         ▲                       ▲             ShardedService (N shards)
//!         └──replies, any order───┴─completion──┘ rendezvous by plan key
//!                                   queue + waker      │
//!                                                      ▼
//!                                        queue → workers → plan/frame caches
//! ```
//!
//! * **Wire format** — [`wire`]: versioned, length-prefixed frames over
//!   `std::net` TCP; one little-endian codec — every payload type
//!   implements [`wire::Wire`], its field order written once for both
//!   directions — with no external dependencies; every decode failure is a
//!   typed [`WireError`], never a panic. A frame carries one
//!   [`wire::Request`] or [`wire::Reply`], each declared once with its tag;
//!   the server and the client match them exhaustively, so a new message
//!   does not compile until both ends handle it. Since **v3** every request
//!   carries a client-chosen 8-byte `request_id` echoed by its reply, so
//!   one connection multiplexes many in-flight renders that complete out
//!   of order; a v2 peer gets a typed `UnsupportedVersion` reply instead
//!   of a silent close. Floats travel by bit pattern, so a frame fetched
//!   through the socket is **bit-identical** to a direct
//!   `mgpu_volren::render` call — the service's determinism guarantee
//!   survives the network hop.
//! * **Server** — [`server`]: a [`RenderServer`] owning a
//!   [`mgpu_serve::ShardedService`] behind one event-driven readiness
//!   loop: non-blocking sockets, per-connection write queues and the same
//!   incremental frame reader the client blocks on (one parser for both
//!   ends of the socket), completions delivered by render workers
//!   through a queue + `UnixStream` waker, zero wakeups while idle,
//!   graceful drain on shutdown; poisoned connections contained per
//!   session. The loop is the server's one thread and only does I/O: the
//!   protocol — the door, ticket tables, drain, every control request — is
//!   a socket-free state machine it feeds events, tested in exact event
//!   orders without a socket or a sleep. Unix-only (`poll(2)`).
//! * **Client** — [`client`]: a pipelined [`RenderClient`] —
//!   [`RenderClient::begin_render`] issues without blocking and returns a
//!   [`PendingRender`] collected later by [`RenderClient::finish_render`],
//!   blocking [`RenderClient::render`] mirroring `submit`, fire-and-forget
//!   [`RenderClient::submit`] mirroring `try_submit` with [`NetTicket`]
//!   redemption, all sharing one connection from any number of threads,
//!   and typed errors that round-trip [`mgpu_serve::AdmissionError`] /
//!   [`mgpu_serve::FrameError`] across the socket.
//! * **Rate limiting** — [`ratelimit`]: a per-session token bucket at the
//!   server door, ahead of admission control; throttled requests carry an
//!   exact retry-after.
//! * **Heat + observability** — [`heat`]: the `STATS` reply carries only
//!   [`mgpu_obs::Snapshot`]s — one per shard (that shard's own `serve.*`)
//!   and the node's (`net.*` wire metrics merged with the process-wide
//!   `serve.*`/`volren.*` registry) — plus the epoch and uptime; the
//!   merged [`mgpu_serve::ServiceReport`] and one report per shard
//!   (frames/sec, cache occupancy; the table adds each shard's queue-depth
//!   gauges) are views [`NetStats`] computes over them, in a canonical
//!   sorted-key wire form that re-encodes bit-exactly. The `TRACES`
//!   request returns the newest completed request traces (stage spans
//!   `admit → queue → plan → stage → kernel → composite → render →
//!   reply`, seeded from the wire `request_id`); `NodePool::obs_snapshot`
//!   fetches and exactly merges every reachable node's snapshot.
//! * **Backends** — [`pool::NodePool`] puts N servers behind the
//!   [`mgpu_serve::RenderBackend`] trait with a rendezvous
//!   [`pool::Directory`] over plan keys ([`mgpu_volren::RequestKey`],
//!   never sent: each end builds its own) — the same placement policy
//!   `ShardedService` uses in-process — one pipelined connection per node
//!   carrying all of that node's in-flight work, a bounded wait budget
//!   that honors server `retry_after`, and failover (up to
//!   [`pool::NodePoolConfig::attempts`] tries) to the next-ranked node on
//!   connection loss that re-issues only the
//!   lost request ids. One server is the N = 1 case, not a second
//!   implementation:
//!   [`remote::RemoteBackend`] is a `NodePool` of one
//!   ([`NodePool::connect`]) whose blocking calls wait without a budget.
//! * **Elastic membership** — since **v4** the directory is *live*:
//!   nodes join ([`NodePool::add_node`]), drain
//!   ([`NodePool::drain_node`]: the node answers everything it owes,
//!   refuses new work with a typed `DRAINING` reply, and says `GOODBYE`
//!   when empty) and leave ([`NodePool::remove_node`]) under traffic;
//!   every placement change bumps an **epoch** the nodes echo in STATS,
//!   so stale routing is observable. Pool tickets are backed by a
//!   pending-request table: a ticket whose issuing connection died is
//!   **handed off** — re-rendered bit-identically on a survivor — so a
//!   drain or crash loses zero admitted frames. [`rebalance_once`] is one
//!   pass of the control loop: heat-driven key migration
//!   ([`NodePool::migrate`]) with `PREWARM`-before-cutover, so the
//!   destination holds the key's plan (its brick grid and an empty brick
//!   store) before the first migrated frame arrives; that frame still
//!   stages every brick.

pub mod client;
pub mod heat;
mod node;
pub mod pool;
pub mod ratelimit;
pub mod rebalance;
pub mod remote;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, ClientError, NetTicket, PendingRender, RenderClient};
pub use heat::NetStats;
pub use pool::{
    Directory, DirectoryError, NodeError, NodePool, NodePoolConfig, PoolConfigError, PoolTicket,
};
pub use ratelimit::RateLimitConfig;
pub use rebalance::{rebalance_once, MigrationReport, RebalanceConfig, RebalanceOutcome};
pub use remote::RemoteBackend;
pub use server::{RenderServer, ServerConfig};
pub use wire::{
    CameraSpec, DrainState, NetFrame, NetSceneRequest, TransferSpec, VolumeSpec, WireError,
};
