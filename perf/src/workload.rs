//! The four workloads: what each one renders, through which path, and why.
//!
//! Everything is sized for two cores: one caller thread in a closed loop, a
//! two-GPU modeled cluster with one host thread per kernel launch (so
//! `run_job` keeps two mapper threads busy, then two reducer threads, never
//! more), servers with one shard and one worker. A closed loop because the
//! generator shares those two cores with the system under test — an
//! open-loop generator here would measure the scheduler.

use mgpu_cluster::ClusterSpec;
use mgpu_voldata::{Dataset, Volume};
use mgpu_volren::{RenderConfig, Residency, Scene, TransferFunction};

use crate::views::{self, Slot};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OrbitIncore,
    PoolPreview,
    ReplayCached,
    PlumeOutofcore,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OrbitIncore,
        Workload::PoolPreview,
        Workload::ReplayCached,
        Workload::PlumeOutofcore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OrbitIncore => "orbit_incore",
            Workload::PoolPreview => "pool_preview",
            Workload::ReplayCached => "replay_cached",
            Workload::PlumeOutofcore => "plume_outofcore",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How the caller reaches the renderer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `render_planned` on one long-lived `FramePlan`.
    Direct,
    /// `NodePool` over this many loopback `RenderServer`s.
    Pool { nodes: usize },
    /// `RemoteBackend` over one loopback `RenderServer`.
    Remote,
}

/// One (volume, config) a workload requests frames of.
pub struct Session {
    pub dataset: Dataset,
    pub base: u32,
    pub config: RenderConfig,
    pub scenes: Vec<Scene>,
}

impl Session {
    /// The procedural volume the session's frames show.
    pub fn procedural(&self) -> Volume {
        self.dataset.volume(self.base)
    }
}

/// A workload instantiated for one seed: the generated inputs plus the
/// invariants the run asserts on every frame.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub path: Path,
    pub spec: ClusterSpec,
    pub sessions: Vec<Session>,
    /// One lap, replayed identically every lap.
    pub order: Vec<Slot>,
    /// Requests in flight from the one caller (1 = call and wait).
    pub depth: usize,
    /// Frame-cache slots per server. The default 64 everywhere but the
    /// smoke run, whose laps are too short to overflow 64 slots.
    pub cache_frames: usize,
    /// `from_cache` every window frame must carry.
    pub expect_cached: bool,
    /// The plan streams bricks from a baked file under a cache budget
    /// smaller than the volume; every frame must evict.
    pub out_of_core: bool,
}

fn config(image: u32) -> RenderConfig {
    RenderConfig {
        image: (image, image),
        kernel_parallelism: 1,
        ..RenderConfig::default()
    }
}

fn session(
    seed: u64,
    index: usize,
    dataset: Dataset,
    base: u32,
    views: usize,
    config: RenderConfig,
) -> Session {
    let volume = dataset.volume(base);
    let scenes = views::azimuths(seed, index, views)
        .into_iter()
        .map(|az| {
            let transfer = TransferFunction::for_dataset(dataset.name());
            Scene::orbit(&volume, az, 20.0, transfer)
        })
        .collect();
    Session {
        dataset,
        base,
        config,
        scenes,
    }
}

impl Plan {
    /// Generate the workload's inputs from `seed`. `smoke` shrinks every
    /// scene to seconds of debug-build work while keeping each path, cache
    /// regime and assertion intact.
    pub fn new(workload: Workload, seed: u64, smoke: bool) -> Plan {
        let spec = ClusterSpec::accelerator_cluster(2);
        let pick = |full: u32, small: u32| if smoke { small } else { full };
        let picks = |full: usize, small: usize| if smoke { small } else { full };
        let mut plan = Plan {
            workload,
            seed,
            path: Path::Direct,
            spec,
            sessions: Vec::new(),
            order: Vec::new(),
            depth: 1,
            cache_frames: 64,
            expect_cached: false,
            out_of_core: false,
        };
        match workload {
            Workload::OrbitIncore => {
                let cfg = RenderConfig {
                    residency: Residency::HostResident,
                    ..config(pick(256, 48))
                };
                plan.sessions = vec![session(
                    seed,
                    0,
                    Dataset::Skull,
                    pick(128, 32),
                    picks(36, 6),
                    cfg,
                )];
                plan.order = views::round_robin(seed, &[plan.sessions[0].scenes.len()]);
            }
            Workload::PoolPreview => {
                plan.path = Path::Pool { nodes: 2 };
                let views = picks(80, 10);
                plan.cache_frames = picks(64, 8);
                let image = pick(16, 32);
                plan.sessions = vec![
                    session(seed, 0, Dataset::Skull, pick(64, 16), views, config(image)),
                    session(
                        seed,
                        1,
                        Dataset::Supernova,
                        pick(64, 16),
                        views,
                        config(image),
                    ),
                    session(seed, 2, Dataset::Plume, pick(32, 8), views, config(image)),
                ];
                plan.order = views::round_robin(seed, &[views; 3]);
            }
            Workload::ReplayCached => {
                plan.path = Path::Remote;
                plan.depth = 2;
                plan.expect_cached = true;
                let views = picks(16, 4);
                plan.sessions = vec![session(
                    seed,
                    0,
                    Dataset::Supernova,
                    pick(64, 16),
                    views,
                    config(pick(256, 32)),
                )];
                plan.order = views::replay(seed, views, picks(400, 24));
            }
            Workload::PlumeOutofcore => {
                plan.out_of_core = true;
                let base = pick(128, 16);
                let cfg = RenderConfig {
                    residency: Residency::Disk,
                    bricks_per_gpu: 4,
                    // A third of the volume: with eight bricks visited
                    // cyclically by two mappers, nothing survives to the
                    // next frame — eight misses and eight evictions each.
                    host_cache_bytes: if smoke {
                        Dataset::Plume.volume(base).meta.bytes() / 3
                    } else {
                        12 << 20
                    },
                    ..config(pick(80, 32))
                };
                plan.sessions = vec![session(seed, 0, Dataset::Plume, base, picks(36, 6), cfg)];
                plan.order = views::round_robin(seed, &[plan.sessions[0].scenes.len()]);
            }
        }
        plan
    }

    /// Every distinct slot the lap touches, in first-visit order.
    pub fn slots(&self) -> Vec<Slot> {
        let mut seen = std::collections::BTreeSet::new();
        self.order
            .iter()
            .copied()
            .filter(|slot| seen.insert(*slot))
            .collect()
    }

    pub fn scene(&self, slot: Slot) -> &Scene {
        &self.sessions[slot.session].scenes[slot.view]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("orbit"), None);
    }

    #[test]
    fn plans_keep_their_cache_regime() {
        for smoke in [true, false] {
            // The preview lap must overflow every server's frame cache even
            // if one node ends up owning a single session.
            let pool = Plan::new(Workload::PoolPreview, 1, smoke);
            assert!(pool
                .sessions
                .iter()
                .all(|s| s.scenes.len() > pool.cache_frames));
            assert_eq!(pool.order.len(), 3 * pool.sessions[0].scenes.len());
            // The replay view set must fit it.
            let replay = Plan::new(Workload::ReplayCached, 1, smoke);
            assert!(replay.slots().len() <= replay.cache_frames);
            assert_eq!(replay.slots().len(), replay.sessions[0].scenes.len());
            // The plume must not fit its brick budget.
            let plume = Plan::new(Workload::PlumeOutofcore, 1, smoke);
            let session = &plume.sessions[0];
            assert!(session.config.host_cache_bytes < session.procedural().meta.bytes() / 2);
        }
    }

    #[test]
    fn nothing_asks_for_more_than_two_busy_threads() {
        for w in Workload::ALL {
            let plan = Plan::new(w, 1, false);
            assert_eq!(plan.spec.gpus, 2);
            assert!(plan
                .sessions
                .iter()
                .all(|s| s.config.kernel_parallelism == 1));
            assert!(plan.depth <= 2);
        }
    }
}
