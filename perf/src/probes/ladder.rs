//! Layers `serve` and `net`: the same frames up a ladder of backends —
//! `render_planned` → `RenderService` → `ShardedService(1)` →
//! `RemoteBackend` over loopback → two-node `NodePool` — so the difference
//! between adjacent rungs reads as the cost of the layer that rung adds.
//!
//! Every rung renders every frame (frame cache off), with one worker and
//! one shard, from one caller at depth 1.

use mgpu_cluster::ClusterSpec;
use mgpu_net::{Directory, NodePool, NodePoolConfig, RemoteBackend, RenderServer, ServerConfig};
use mgpu_obs::Snapshot;
use mgpu_serve::{
    Priority, RenderBackend, RenderService, SceneRequest, ServiceConfig, ShardedService,
};
use mgpu_voldata::Volume;
use mgpu_volren::{render_planned, FramePlan, RenderConfig, Scene};

use crate::span::Recorder;
use crate::stats::median;

/// What the ladder renders: one portable, in-core (volume, config) and a
/// handful of its views.
pub struct Scenes {
    pub spec: ClusterSpec,
    pub volume: Volume,
    pub config: RenderConfig,
    pub scenes: Vec<Scene>,
}

impl Scenes {
    fn requests(&self) -> Vec<SceneRequest> {
        self.scenes
            .iter()
            .map(|scene| SceneRequest {
                spec: self.spec.clone(),
                volume: self.volume.clone(),
                scene: scene.clone(),
                config: self.config.clone(),
                priority: Priority::Normal,
            })
            .collect()
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        cache_frames: 0,
        ..ServiceConfig::default()
    }
}

fn server() -> RenderServer {
    RenderServer::start(ServerConfig {
        shards: 1,
        service: service_config(),
        ..ServerConfig::default()
    })
    .expect("bind a loopback render server")
}

/// `serve.*` counter movement between two snapshots of the global registry,
/// read by blessed metric *name* — the strings a dashboard would use, not
/// `ServiceReport` accessors a refactor may fold away.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeDelta {
    pub frames: u64,
    pub frame_cache_hits: u64,
    pub frame_cache_misses: u64,
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
    pub batches: u64,
    pub batched_frames: u64,
    pub brick_stagings: u64,
    pub admission_rejected: u64,
}

/// How far the counter `name` moved between two snapshots.
fn moved(before: &Snapshot, after: &Snapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

impl ServeDelta {
    pub fn between(before: &Snapshot, after: &Snapshot) -> ServeDelta {
        let moved = |name: &str| moved(before, after, name);
        ServeDelta {
            frames: moved("serve.frames_completed"),
            frame_cache_hits: moved("serve.frame_cache_hits"),
            frame_cache_misses: moved("serve.frame_cache_misses"),
            plan_cache_hits: moved("serve.plan_cache_hits"),
            plan_cache_misses: moved("serve.plan_cache_misses"),
            batches: moved("serve.batches"),
            batched_frames: moved("serve.batched_frames"),
            brick_stagings: moved("serve.brick_stagings"),
            admission_rejected: moved("serve.admission_rejected"),
        }
    }
}

/// `net.*` counter movement between two `STATS` snapshots of the servers
/// behind one backend. Includes the `STATS` exchange that took `before`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NetDelta {
    pub bytes: u64,
    pub loop_wakeups: u64,
}

impl NetDelta {
    pub fn between(before: &Snapshot, after: &Snapshot) -> NetDelta {
        let moved = |name: &str| moved(before, after, name);
        NetDelta {
            bytes: moved("net.bytes_read") + moved("net.bytes_written"),
            loop_wakeups: moved("net.loop_wakeups"),
        }
    }
}

/// One rung of the ladder: a live backend and what it takes to stop it.
/// One constructor per rung; an issue that folds two backends into one
/// drops a constructor and an arm.
pub enum Rung {
    Direct(Box<FramePlan>),
    Service(RenderService),
    Sharded(ShardedService),
    Remote(RemoteBackend, RenderServer),
    Pool(NodePool, Vec<RenderServer>),
}

/// Rung 0: `render_planned` on one plan — the floor every delta is over.
pub fn direct(s: &Scenes) -> Rung {
    Rung::Direct(Box::new(FramePlan::prepare(&s.spec, &s.volume, &s.config)))
}

/// Rung 1: one in-process `RenderService` — queue, worker hand-off, plan
/// cache lookup.
pub fn service() -> Rung {
    Rung::Service(RenderService::start(service_config()))
}

/// Rung 2: the same service behind a one-shard `ShardedService`.
pub fn sharded() -> Rung {
    Rung::Sharded(ShardedService::start(1, service_config()))
}

/// Rung 3: a loopback `RenderServer` behind `RemoteBackend` — encode,
/// socket, event loop, decode.
pub fn remote() -> Rung {
    let server = server();
    let backend = RemoteBackend::connect(server.addr()).expect("connect over loopback");
    Rung::Remote(backend, server)
}

/// Rung 4: two such servers behind a `NodePool` — directory lookup, pending
/// table, per-node connection.
pub fn pool() -> Rung {
    let servers = vec![server(), server()];
    let directory = Directory::new(servers.iter().map(|s| s.addr()).collect())
        .expect("distinct loopback addresses");
    Rung::Pool(NodePool::new(directory, NodePoolConfig::default()), servers)
}

impl Rung {
    pub fn name(&self) -> &'static str {
        match self {
            Rung::Direct(_) => "ladder.render_planned",
            Rung::Service(_) => "ladder.RenderService",
            Rung::Sharded(_) => "ladder.ShardedService",
            Rung::Remote(..) => "ladder.RemoteBackend",
            Rung::Pool(..) => "ladder.NodePool",
        }
    }

    fn layer(&self) -> &'static str {
        match self {
            Rung::Direct(_) => "volren",
            Rung::Service(_) | Rung::Sharded(_) => "serve",
            Rung::Remote(..) | Rung::Pool(..) => "net",
        }
    }

    /// Render one frame on this rung; false if it failed or was not
    /// actually rendered.
    fn render(&self, request: &SceneRequest) -> bool {
        let rendered = |frame: Result<mgpu_serve::BackendFrame, mgpu_serve::BackendError>| {
            frame.is_ok_and(|f| !f.from_cache)
        };
        match self {
            Rung::Direct(plan) => {
                render_planned(&request.spec, plan, &request.scene, &request.config);
                true
            }
            Rung::Service(backend) => rendered(backend.render(request.clone())),
            Rung::Sharded(backend) => rendered(backend.render(request.clone())),
            Rung::Remote(backend, _) => rendered(backend.render(request.clone())),
            Rung::Pool(backend, _) => rendered(backend.render(request.clone())),
        }
    }

    /// The `net.*` counters of the server behind the remote rung.
    fn net_snapshot(&self) -> Option<Snapshot> {
        match self {
            Rung::Remote(backend, _) => backend.obs_snapshot().ok(),
            _ => None,
        }
    }

    fn stop(self) {
        match self {
            Rung::Direct(_) => {}
            Rung::Service(backend) => {
                backend.shutdown();
            }
            Rung::Sharded(backend) => {
                backend.shutdown();
            }
            Rung::Remote(backend, server) => {
                drop(backend);
                server.shutdown();
            }
            Rung::Pool(backend, servers) => {
                drop(backend);
                for server in servers {
                    server.shutdown();
                }
            }
        }
    }
}

/// What the walk measured. Each overhead is the median over the views of
/// (this rung's time − the rung below's time) *for the same view, rendered
/// back to back*: the box's speed drifts over seconds, so only a paired
/// difference sees a sub-millisecond layer under a 100 ms frame.
pub struct Rungs {
    pub ok: bool,
    pub service_over_direct_ms: f64,
    pub sharded_over_service_ms: f64,
    pub remote_over_sharded_ms: f64,
    pub pool_over_remote_ms: f64,
    /// `serve.*` counters moved by the whole walk (every served rung).
    pub serve: ServeDelta,
    /// `net.*` counters moved on the remote rung's server.
    pub net: NetDelta,
    /// Frames behind `net`.
    pub remote_frames: usize,
}

/// Walk the whole ladder on `s`: every rung alive at once, each rendering
/// one untimed frame first (plan building and cold staging stay out), then
/// view by view up the rungs.
pub fn walk(rec: &mut Recorder, s: &Scenes) -> Rungs {
    let requests = s.requests();
    let serve_before = mgpu_obs::global().snapshot();
    let rungs = [direct(s), service(), sharded(), remote(), pool()];
    let mut ok = rungs.iter().all(|rung| rung.render(&requests[0]));
    let net_before = rungs[3].net_snapshot();
    let mut times_ms = vec![Vec::with_capacity(requests.len()); rungs.len()];
    for (frame, request) in requests.iter().enumerate() {
        for (rung, times) in rungs.iter().zip(&mut times_ms) {
            let before = rec.spans().len();
            ok &= rec.span(rung.name(), rung.layer(), frame as u64, |_| {
                rung.render(request)
            });
            times.push(rec.spans()[before].duration_ns() as f64 / 1e6);
        }
    }
    let net = match (net_before, rungs[3].net_snapshot()) {
        (Some(before), Some(after)) => NetDelta::between(&before, &after),
        _ => {
            ok = false;
            NetDelta::default()
        }
    };
    for rung in rungs {
        rung.stop();
    }
    let over = |upper: usize, lower: usize| -> f64 {
        let paired: Vec<f64> = times_ms[upper]
            .iter()
            .zip(&times_ms[lower])
            .map(|(up, low)| up - low)
            .collect();
        median(&paired)
    };
    Rungs {
        ok,
        service_over_direct_ms: over(1, 0),
        sharded_over_service_ms: over(2, 1),
        remote_over_sharded_ms: over(3, 2),
        pool_over_remote_ms: over(4, 3),
        serve: ServeDelta::between(&serve_before, &mgpu_obs::global().snapshot()),
        net,
        remote_frames: requests.len(),
    }
}
