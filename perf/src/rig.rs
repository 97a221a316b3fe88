//! Set-up and the caller's loop: everything between a [`Plan`] and frames
//! in hand. [`Rig::setup`] is the span `setup_s` measures — dataset build
//! (and file bake), server start and connect, `FramePlan::prepare`, cold
//! brick staging, through to the first delivered frames — and [`Rig::lap`]
//! is the closed loop every measured, warm-up and verification lap runs.
//!
//! Only the narrow product API appears here (`render_planned`/`FramePlan`,
//! `Dataset`/`Volume`/`write_volume`, the `RenderBackend` trait with
//! `SceneRequest`/`ServiceConfig`, `RenderServer`/`RemoteBackend`/
//! `NodePool`/`Directory`), so a refactor below that surface cannot strand
//! the end-to-end numbers.

use std::collections::VecDeque;
use std::path::{Path as FsPath, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use mgpu_net::{Directory, NodePool, NodePoolConfig, RemoteBackend, RenderServer, ServerConfig};
use mgpu_serve::{Priority, RenderBackend, SceneRequest, ServiceConfig};
use mgpu_voldata::{io::write_volume, Dataset, StoreSnapshot, Volume, VolumeSource};
use mgpu_volren::{render_planned, FramePlan, Image};

use crate::views::Slot;
use crate::workload::{Path, Plan};

/// Where this process may write: `perf/out/`, next to the sources the
/// binary was built from (the benchmark stays inside its checkout).
pub fn out_dir() -> PathBuf {
    FsPath::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-process scratch directory under [`out_dir`], removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create() -> std::io::Result<TempDir> {
        let path = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &FsPath {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is litter, not a wrong result.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `bake` subcommand's body: synthesize a procedural dataset and write
/// it as a raw volume file.
pub fn bake(dataset: Dataset, base: u32, path: &FsPath) -> std::io::Result<()> {
    let volume = dataset.volume(base);
    write_volume(path, volume.dims(), &volume.materialize_full())
}

/// Bake in a child process, so the full volume is never resident in *this*
/// process: `peak_rss_mb` of the out-of-core workload then reports what
/// rendering out of core holds, not what producing its input held.
fn bake_in_child(dataset: Dataset, base: u32, path: &FsPath) -> Volume {
    let exe = std::env::current_exe().expect("own executable path");
    let status = Command::new(exe)
        .arg("bake")
        .arg(dataset.name())
        .arg(base.to_string())
        .arg(path)
        .status()
        .expect("spawn bake child");
    assert!(status.success(), "bake child failed: {status}");
    Volume {
        // Same content, different source: the meta (fingerprint included)
        // carries over, as the `VolumeMeta::content` docs prescribe.
        meta: dataset.volume(base).meta,
        source: VolumeSource::File(path.to_path_buf()),
    }
}

/// One frame as the caller received it.
pub struct Delivered {
    pub image: Arc<Image>,
    pub from_cache: bool,
    /// Brick-store traffic this frame caused (direct path only; the wire
    /// ships no render report).
    pub store: Option<StoreSnapshot>,
}

/// A frame's outcome and the caller-observed latency, call → image in hand.
pub type Outcome = (Slot, Result<Delivered, String>, f64);

enum Backend {
    Direct {
        plan: FramePlan,
    },
    Pool {
        // Dropped (disconnected) before the servers it talks to.
        pool: NodePool,
        servers: Vec<RenderServer>,
    },
    Remote {
        backend: RemoteBackend,
        server: RenderServer,
    },
}

pub struct Rig {
    backend: Backend,
    /// `requests[session][view]`, built once: the loop only clones.
    requests: Vec<Vec<SceneRequest>>,
}

fn start_server(cache_frames: usize) -> RenderServer {
    RenderServer::start(ServerConfig {
        shards: 1,
        service: ServiceConfig {
            workers: 1,
            cache_frames,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind a loopback render server")
}

/// A pipelined request: its slot, when it was submitted, and its ticket.
type InFlight<T> = VecDeque<(Slot, Instant, Result<T, String>)>;

/// Submit/redeem `order` through any backend with up to `depth` requests in
/// flight, reporting frames in submission order.
fn backend_lap<B: RenderBackend>(
    backend: &B,
    requests: &[Vec<SceneRequest>],
    order: &[Slot],
    depth: usize,
    sink: &mut dyn FnMut(Outcome),
) {
    let deliver = |frame: Result<mgpu_serve::BackendFrame, mgpu_serve::BackendError>| {
        frame
            .map(|f| Delivered {
                image: f.image,
                from_cache: f.from_cache,
                store: None,
            })
            .map_err(|e| e.to_string())
    };
    let request = |slot: Slot| requests[slot.session][slot.view].clone();
    if depth <= 1 {
        for &slot in order {
            let called = Instant::now();
            let frame = deliver(backend.render(request(slot)));
            sink((slot, frame, called.elapsed().as_secs_f64()));
        }
        return;
    }
    let mut in_flight: InFlight<B::Ticket> = VecDeque::new();
    let mut redeem_oldest = |in_flight: &mut InFlight<B::Ticket>| {
        let (slot, called, ticket) = in_flight.pop_front().expect("a request in flight");
        let frame = ticket.and_then(|t| deliver(backend.redeem(t)));
        sink((slot, frame, called.elapsed().as_secs_f64()));
    };
    for &slot in order {
        if in_flight.len() == depth {
            redeem_oldest(&mut in_flight);
        }
        let called = Instant::now();
        let ticket = backend.submit(request(slot)).map_err(|e| e.to_string());
        in_flight.push_back((slot, called, ticket));
    }
    while !in_flight.is_empty() {
        redeem_oldest(&mut in_flight);
    }
}

impl Rig {
    /// Build the workload's path from nothing and deliver its first frames:
    /// one frame of every session, or — for the replay workload, whose
    /// initial condition *is* a primed cache — every view once. The one
    /// frame is the view the lap visits *last*, so that by the time a lap
    /// reaches it a frame cache smaller than the lap has long evicted it.
    /// Returns the rig with those frames' outcomes.
    pub fn setup(plan: &Plan, tmp: &TempDir) -> (Rig, Vec<Outcome>) {
        let mut volumes: Vec<Volume> = plan.sessions.iter().map(|s| s.procedural()).collect();
        if plan.out_of_core {
            let s = &plan.sessions[0];
            volumes[0] = bake_in_child(s.dataset, s.base, &tmp.path().join("plume.vol"));
        }
        let requests: Vec<Vec<SceneRequest>> = plan
            .sessions
            .iter()
            .zip(&volumes)
            .map(|(session, volume)| {
                session
                    .scenes
                    .iter()
                    .map(|scene| SceneRequest {
                        spec: plan.spec.clone(),
                        volume: volume.clone(),
                        scene: scene.clone(),
                        config: session.config.clone(),
                        priority: Priority::Normal,
                    })
                    .collect()
            })
            .collect();
        let backend = match plan.path {
            Path::Direct => Backend::Direct {
                plan: FramePlan::prepare(&plan.spec, &volumes[0], &plan.sessions[0].config),
            },
            Path::Pool { nodes } => {
                let servers: Vec<RenderServer> = (0..nodes)
                    .map(|_| start_server(plan.cache_frames))
                    .collect();
                let directory = Directory::new(servers.iter().map(|s| s.addr()).collect())
                    .expect("distinct loopback addresses");
                Backend::Pool {
                    pool: NodePool::new(directory, NodePoolConfig::default()),
                    servers,
                }
            }
            Path::Remote => {
                let server = start_server(plan.cache_frames);
                Backend::Remote {
                    backend: RemoteBackend::connect(server.addr()).expect("connect over loopback"),
                    server,
                }
            }
        };
        let rig = Rig { backend, requests };
        let first: Vec<Slot> = if plan.expect_cached {
            plan.slots()
        } else {
            let mut seen = std::collections::BTreeSet::new();
            plan.order
                .iter()
                .rev()
                .copied()
                .filter(|slot| seen.insert(slot.session))
                .collect()
        };
        let mut outcomes = Vec::with_capacity(first.len());
        rig.lap(plan, &first, &mut |outcome| outcomes.push(outcome));
        (rig, outcomes)
    }

    /// Request `order` in a closed loop, handing each outcome to `sink` as
    /// it is delivered.
    pub fn lap(&self, plan: &Plan, order: &[Slot], sink: &mut dyn FnMut(Outcome)) {
        match &self.backend {
            Backend::Direct { plan: frame_plan } => {
                let config = &plan.sessions[0].config;
                for &slot in order {
                    let called = Instant::now();
                    let out = render_planned(&plan.spec, frame_plan, plan.scene(slot), config);
                    let latency = called.elapsed().as_secs_f64();
                    let delivered = Delivered {
                        image: Arc::new(out.image),
                        from_cache: false,
                        store: Some(out.report.store),
                    };
                    sink((slot, Ok(delivered), latency));
                }
            }
            Backend::Pool { pool, .. } => {
                backend_lap(pool, &self.requests, order, plan.depth, sink)
            }
            Backend::Remote { backend, .. } => {
                backend_lap(backend, &self.requests, order, plan.depth, sink)
            }
        }
    }

    /// The request behind a slot (what an oracle render must reproduce).
    pub fn request(&self, slot: Slot) -> &SceneRequest {
        &self.requests[slot.session][slot.view]
    }

    /// The `net.*` counters of the servers behind a served rig, fetched
    /// over the wire with `STATS` (`None` on the direct path).
    pub fn net_snapshot(&self) -> Option<mgpu_obs::Snapshot> {
        match &self.backend {
            Backend::Direct { .. } => None,
            Backend::Pool { pool, .. } => pool.obs_snapshot().ok(),
            Backend::Remote { backend, .. } => backend.obs_snapshot().ok(),
        }
    }

    /// How many pool nodes own at least one session (0 off the pool path).
    pub fn pool_nodes_used(&self) -> usize {
        match &self.backend {
            Backend::Pool { pool, .. } => {
                let owners: std::collections::BTreeSet<usize> = self
                    .requests
                    .iter()
                    .map(|session| pool.node_for(&session[0]))
                    .collect();
                owners.len()
            }
            _ => 0,
        }
    }

    /// Disconnect, stop every server and join its threads.
    pub fn teardown(self) {
        match self.backend {
            Backend::Direct { .. } => {}
            Backend::Pool { pool, servers } => {
                drop(pool);
                for server in servers {
                    server.shutdown();
                }
            }
            Backend::Remote { backend, server } => {
                drop(backend);
                server.shutdown();
            }
        }
    }
}
