//! # gpumr — Multi-GPU Volume Rendering using MapReduce
//!
//! A full Rust reproduction of *"Multi-GPU Volume Rendering using MapReduce"*
//! (Stuart, Chen, Ma, Owens — HPDC/MAPREDUCE 2010) on a simulated GPU
//! cluster. This facade crate re-exports the public API of the workspace:
//!
//! * [`sim`] — discrete-event simulation engine and cost models;
//! * [`gpu`] — the software GPU (textures, grid/block kernels, the
//!   parked-thread executor, device cost model);
//! * [`cluster`] — cluster topology, disks and the interconnect;
//! * [`mapreduce`] — the paper's streaming multi-GPU MapReduce library;
//! * [`voldata`] — procedural volume datasets and the out-of-core brick store;
//! * [`volren`] — the ray-casting volume renderer built on all of the above;
//! * [`serve`] — the multi-scene render service (job queue with admission
//!   control, plan cache, frame cache, shard router) layered on the
//!   renderer, and the [`serve::RenderBackend`] trait every front-end
//!   implements;
//! * [`net`] — the service on the wire: protocol,
//!   [`net::RenderServer`]/[`net::RenderClient`], per-session rate
//!   limiting, per-shard heat stats, plus the remote backend —
//!   [`net::NodePool`] (N servers behind a live, epoch-versioned placement
//!   [`net::Directory`] with retry budgets, failover, zero-loss graceful
//!   drains and heat-driven rebalancing, one [`net::rebalance_once`] pass
//!   at a time; [`net::RemoteBackend`] is the same pool with one server) —
//!   behind the same trait;
//! * [`obs`] — the observability layer: the unified metrics
//!   [`obs::Registry`] (counters, gauges, log₂ histograms) with exactly
//!   mergeable [`obs::Snapshot`]s, and per-request [`obs::Trace`]s whose
//!   stage spans land in a bounded ring served by the `TRACES` wire
//!   request and the `obs_top` dashboard.
//!
//! ## Quickstart
//!
//! ```no_run
//! use gpumr::prelude::*;
//!
//! // A 128³ procedural "skull" on a 1-node × 4-GPU simulated cluster.
//! let volume = Dataset::Skull.volume(128);
//! let cluster = ClusterSpec::accelerator_cluster(4);
//! let scene = Scene::orbit(&volume, 30.0, 20.0, TransferFunction::bone());
//! let config = RenderConfig::default();
//! let outcome = render(&cluster, &volume, &scene, &config);
//! println!("frame in {}", outcome.report.accounting.makespan);
//! outcome.image.write_ppm("skull.ppm").unwrap();
//! ```

#![forbid(unsafe_code)]

pub use mgpu_cluster as cluster;
pub use mgpu_gpu as gpu;
pub use mgpu_mapreduce as mapreduce;
pub use mgpu_net as net;
pub use mgpu_obs as obs;
pub use mgpu_serve as serve;
pub use mgpu_sim as sim;
pub use mgpu_voldata as voldata;
pub use mgpu_volren as volren;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use mgpu_cluster::topology::ClusterSpec;
    pub use mgpu_net::{
        ClientConfig, ClientError, Directory, NetSceneRequest, NetTicket, NodePool, NodePoolConfig,
        PendingRender, PoolTicket, RateLimitConfig, RemoteBackend, RenderClient, RenderServer,
        ServerConfig,
    };
    pub use mgpu_serve::{
        AdmissionError, BackendError, FrameError, Priority, QueueBounds, RenderBackend,
        RenderService, SceneRequest, ServiceConfig, ServiceReport, ShardedService,
    };
    pub use mgpu_voldata::datasets::Dataset;
    pub use mgpu_volren::camera::Scene;
    pub use mgpu_volren::config::RenderConfig;
    pub use mgpu_volren::renderer::{render, RenderOutcome};
    pub use mgpu_volren::transfer::TransferFunction;
}
