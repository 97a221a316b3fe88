//! Network front-end throughput, measured through the `RenderBackend`
//! trait, in two parts:
//!
//! 1. **Clients × connections** over a loopback [`RenderServer`]: each
//!    *client* is a thread standing for one user; it opens `connections`
//!    [`RemoteBackend`]s and round-robins its frame requests across them
//!    (the fan-out a connection pool gives a real front-end). Every request
//!    is timed individually, so the table reports wall frames/sec next to
//!    p50/p90 round-trip latency — the loopback protocol overhead on top of
//!    the render itself. Repeated views per client exercise the frame cache
//!    across the wire; distinct (dataset, cluster) pairs give the shard
//!    router keys to spread.
//! 2. **Node sweep** — the same many-volume workload through a
//!    [`NodePool`] over 1..N [`RenderServer`]s: the placement directory
//!    spreads distinct batch keys over whole nodes, the multi-node
//!    analogue of `serve_throughput`'s shard sweep.
//!
//! `--smoke` shrinks the sweep for CI and writes `BENCH_net.json`
//! (frames/sec, cache hit rate, p50 queue wait, p50/p90 round trip, pooled
//! frames/sec) for the per-PR perf-trend artifact.
//!
//!     cargo run --release -p mgpu-bench --bin net_throughput -- [--smoke] [--rebalance] [--shards N]
//!
//! `--rebalance` adds an elastic-pool pass: traffic skewed onto one batch
//! key, one `rebalance_once` tick migrating it (pre-warm before cutover,
//! epoch bump), with the migration delta recorded in `BENCH_net.json`.

use std::time::{Duration, Instant};

use mgpu_bench::JsonObject;
use mgpu_cluster::ClusterSpec;
use mgpu_net::{Directory, NodePool, NodePoolConfig, RemoteBackend, RenderServer, ServerConfig};
use mgpu_serve::{Priority, RenderBackend, SceneRequest, ServiceConfig};
use mgpu_voldata::Dataset;
use mgpu_volren::camera::Scene;
use mgpu_volren::{RenderConfig, TransferFunction};

struct SweepPoint {
    clients: usize,
    connections: usize,
    frames_per_client: usize,
}

struct SweepResult {
    wall: Duration,
    rtts: Vec<Duration>,
    server_frames: u64,
    cache_hit_rate: f64,
    p50_queue_wait: Duration,
    frames_per_sec: f64,
}

fn quantile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn request_for(dataset: Dataset, volume_size: u32, gpus: u32, az: f32, image: u32) -> SceneRequest {
    let volume = dataset.volume(volume_size);
    let transfer = TransferFunction::for_dataset(dataset.name());
    let scene = Scene::orbit(&volume, az, 15.0, transfer);
    SceneRequest {
        spec: ClusterSpec::accelerator_cluster(gpus),
        volume,
        scene,
        config: RenderConfig::test_size(image),
        priority: Priority::Normal,
    }
}

fn run_point(point: &SweepPoint, shards: usize, volume_size: u32, image: u32) -> SweepResult {
    let server = RenderServer::start(ServerConfig {
        shards,
        service: ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let addr = server.addr();
    let datasets = [Dataset::Skull, Dataset::Supernova, Dataset::Plume];
    let started = Instant::now();

    let rtts: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..point.clients)
            .map(|c| {
                let datasets = &datasets;
                scope.spawn(move || {
                    let pool: Vec<RemoteBackend> = (0..point.connections)
                        .map(|_| RemoteBackend::connect(addr).expect("connect"))
                        .collect();
                    let dataset = datasets[c % datasets.len()];
                    let gpus = 1 + (c % 2) as u32;
                    let mut rtts = Vec::with_capacity(point.frames_per_client);
                    for f in 0..point.frames_per_client {
                        // Two repeated views per client → cache traffic.
                        let view = f % point.frames_per_client.saturating_sub(2).max(1);
                        let request =
                            request_for(dataset, volume_size, gpus, view as f32 * 29.0, image);
                        let backend = &pool[f % point.connections];
                        let sent = Instant::now();
                        let frame = backend.render(request).expect("render over socket");
                        rtts.push(sent.elapsed());
                        assert_eq!(frame.image.width(), image);
                    }
                    rtts
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });

    let wall = started.elapsed();
    let report = server.shutdown();
    let total = (point.clients * point.frames_per_client) as u64;
    assert_eq!(report.frames_completed, total, "every frame accounted for");
    let mut sorted = rtts.clone();
    sorted.sort_unstable();
    SweepResult {
        wall,
        rtts: sorted,
        server_frames: report.frames_completed,
        cache_hit_rate: report.cache_hit_rate(),
        p50_queue_wait: report.queue_wait_p50(),
        frames_per_sec: total as f64 / wall.as_secs_f64(),
    }
}

/// Part 2: the same many-volume workload through a NodePool over 1..N
/// whole render nodes. Returns the widest point's frames/sec for the trend
/// artifact.
fn node_sweep(
    max_nodes: usize,
    shards: usize,
    volumes: usize,
    frames_each: usize,
    volume_size: u32,
    image: u32,
) -> f64 {
    println!("\nnode sweep — {volumes} distinct volumes × {frames_each} frames, pooled:");
    let datasets = [Dataset::Skull, Dataset::Supernova, Dataset::Plume];
    let mut widest = 0.0f64;
    for nodes in 1..=max_nodes {
        let servers: Vec<RenderServer> = (0..nodes)
            .map(|_| {
                RenderServer::start(ServerConfig {
                    shards,
                    service: ServiceConfig {
                        workers: 2,
                        ..ServiceConfig::default()
                    },
                    ..ServerConfig::default()
                })
                .expect("bind loopback node")
            })
            .collect();
        let pool = NodePool::new(
            Directory::new(servers.iter().map(RenderServer::addr).collect())
                .expect("distinct loopback nodes"),
            NodePoolConfig::default(),
        );
        let started = Instant::now();
        let total = std::thread::scope(|scope| {
            let pool = &pool;
            let handles: Vec<_> = (0..volumes)
                .map(|v| {
                    let datasets = &datasets;
                    scope.spawn(move || {
                        let dataset = datasets[v % datasets.len()];
                        let gpus = 1 + (v % 2) as u32;
                        for f in 0..frames_each {
                            let request =
                                request_for(dataset, volume_size, gpus, f as f32 * 31.0, image);
                            pool.render(request).expect("pooled render");
                        }
                        frames_each as u64
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("volume thread"))
                .sum::<u64>()
        });
        let wall = started.elapsed();
        let merged = pool.report().expect("pool report");
        assert_eq!(merged.frames_completed, total);
        let per_node: Vec<u64> = servers
            .into_iter()
            .map(|s| s.shutdown().frames_completed)
            .collect();
        let fps = total as f64 / wall.as_secs_f64();
        widest = fps;
        println!("  {nodes} node(s): {fps:>8.2} frames/s, per-node frames {per_node:?}");
    }
    widest
}

/// Part 3: the C10K knee — `total` connections held open against ONE
/// server, of which only `hot` issue renders; the rest are mostly-idle
/// sessions that just sit registered in the event loop (the fleet-viewer
/// shape: thousands watching, a few driving). Reports the hot sessions'
/// p50/p99 round trip as the idle population grows: a thread-per-connection
/// design pays for every parked thread, a readiness loop should price only
/// the hot set.
fn knee_point(
    total: usize,
    hot: usize,
    frames_each: usize,
    shards: usize,
    volume_size: u32,
    image: u32,
) -> (f64, Duration, Duration) {
    let server = RenderServer::start(ServerConfig {
        shards,
        service: ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let addr = server.addr();

    // The idle population: connected, handshaken, then silent.
    let idle: Vec<mgpu_net::RenderClient> = (0..total.saturating_sub(hot))
        .map(|_| mgpu_net::RenderClient::connect(addr).expect("idle connect"))
        .collect();

    let datasets = [Dataset::Skull, Dataset::Supernova, Dataset::Plume];
    let started = Instant::now();
    let mut rtts: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..hot)
            .map(|h| {
                let datasets = &datasets;
                scope.spawn(move || {
                    let client = mgpu_net::RenderClient::connect(addr).expect("hot connect");
                    let backend = RemoteBackend::from_client(client);
                    let dataset = datasets[h % datasets.len()];
                    let mut rtts = Vec::with_capacity(frames_each);
                    for f in 0..frames_each {
                        let request = request_for(dataset, volume_size, 1, f as f32 * 23.0, image);
                        let sent = Instant::now();
                        backend.render(request).expect("hot render");
                        rtts.push(sent.elapsed());
                    }
                    rtts
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("hot session"))
            .collect()
    });
    let wall = started.elapsed();
    rtts.sort_unstable();
    let (p50, p99) = (quantile(&rtts, 0.5), quantile(&rtts, 0.99));
    drop(idle);
    server.shutdown();
    let fps = (hot * frames_each) as f64 / wall.as_secs_f64();
    (fps, p50, p99)
}

/// What the `--rebalance` pass measured, for the trend artifact.
struct RebalanceSmoke {
    imbalance: f64,
    moves: u64,
    owner_before: usize,
    owner_after: usize,
    prewarmed: bool,
    epoch: u64,
    /// Frames the destination served for the migrated key after cutover.
    migrated_frames: u64,
}

/// Part 4 (`--rebalance`): skew all traffic onto one key so its owner
/// runs hot, then let a single rebalance pass move the key — pre-warm
/// before cutover, epoch bump, and the migration visible in the
/// destination's frame delta.
fn rebalance_smoke(shards: usize, volume_size: u32, image: u32) -> RebalanceSmoke {
    use mgpu_net::{rebalance_once, RebalanceConfig};
    let servers: Vec<RenderServer> = (0..2)
        .map(|_| {
            RenderServer::start(ServerConfig {
                shards,
                service: ServiceConfig {
                    workers: 2,
                    ..ServiceConfig::default()
                },
                ..ServerConfig::default()
            })
            .expect("bind loopback node")
        })
        .collect();
    let pool = NodePool::try_new(
        servers.iter().map(RenderServer::addr).collect(),
        NodePoolConfig::default(),
    )
    .expect("validated pool");

    // One batch key carries every frame: its owner runs hot, the other
    // node sits idle — the canonical imbalance.
    for f in 0..10 {
        pool.render(request_for(
            Dataset::Skull,
            volume_size,
            1,
            f as f32 * 33.0,
            image,
        ))
        .expect("skewed render");
    }
    let probe = request_for(Dataset::Skull, volume_size, 1, 0.0, image);
    let owner_before = pool.node_for(&probe);
    let frames_before: Vec<u64> = pool
        .node_stats()
        .iter()
        .map(|s| s.as_ref().map(|s| s.merged().frames_completed).unwrap_or(0))
        .collect();

    let outcome = rebalance_once(
        &pool,
        &RebalanceConfig {
            band: 1.2,
            min_frames: 4,
            ..RebalanceConfig::default()
        },
    );
    let owner_after = pool.node_for(&probe);
    assert_eq!(outcome.moves.len(), 1, "the skewed key must migrate");
    assert_ne!(owner_after, owner_before, "migration must change the owner");
    assert!(
        outcome.moves[0].prewarmed,
        "the destination plan cache must be pre-warmed before cutover"
    );

    // Post-cutover traffic lands on the new owner (plan already warm).
    for f in 0..4 {
        pool.render(request_for(
            Dataset::Skull,
            volume_size,
            1,
            500.0 + f as f32 * 33.0,
            image,
        ))
        .expect("post-migration render");
    }
    let frames_after: Vec<u64> = pool
        .node_stats()
        .iter()
        .map(|s| s.as_ref().map(|s| s.merged().frames_completed).unwrap_or(0))
        .collect();
    let migrated_frames = frames_after[owner_after].saturating_sub(frames_before[owner_after]);
    assert!(
        migrated_frames >= 4,
        "post-cutover frames must land on the destination"
    );
    let smoke = RebalanceSmoke {
        imbalance: outcome.imbalance,
        moves: outcome.moves.len() as u64,
        owner_before,
        owner_after,
        prewarmed: outcome.moves[0].prewarmed,
        epoch: outcome.epoch,
        migrated_frames,
    };
    drop(pool);
    for server in servers {
        server.shutdown();
    }
    smoke
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let rebalance = args.iter().any(|a| a == "--rebalance");
    let shards = args
        .iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(2);
    let (volume_size, image, frames): (u32, u32, usize) =
        if smoke { (16, 48, 6) } else { (32, 96, 8) };
    let sweep: Vec<(usize, usize)> = if smoke {
        vec![(2, 1), (2, 2)]
    } else {
        vec![(1, 1), (2, 1), (2, 2), (4, 1), (4, 2)]
    };

    println!(
        "net throughput — {shards}-shard server on loopback, {volume_size}^3 volumes, \
         {image}^2 frames, {frames} frames/client (RenderBackend trait end to end)\n"
    );
    println!(
        "{:>7} {:>5} {:>9} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "clients", "conns", "frames/s", "p50 rtt", "p90 rtt", "max rtt", "hit rate", "p50 wait"
    );

    let mut smoke_summary: Option<SweepResult> = None;
    let mut smoke_point = (0usize, 0usize);
    for (clients, connections) in sweep {
        let point = SweepPoint {
            clients,
            connections,
            frames_per_client: frames,
        };
        let result = run_point(&point, shards, volume_size, image);
        println!(
            "{:>7} {:>5} {:>9.2} {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>8.1}% {:>7.2}ms",
            clients,
            connections,
            result.frames_per_sec,
            quantile(&result.rtts, 0.5).as_secs_f64() * 1e3,
            quantile(&result.rtts, 0.9).as_secs_f64() * 1e3,
            result
                .rtts
                .last()
                .copied()
                .unwrap_or_default()
                .as_secs_f64()
                * 1e3,
            result.cache_hit_rate * 100.0,
            result.p50_queue_wait.as_secs_f64() * 1e3,
        );
        assert!(
            result.cache_hit_rate > 0.0,
            "repeated views must produce cache hits over the wire"
        );
        // The trend artifact tracks the widest smoke point.
        if smoke && (clients, connections) >= smoke_point {
            smoke_point = (clients, connections);
            smoke_summary = Some(result);
        }
    }
    println!(
        "\nround-trip = encode + loopback TCP + queue + render + frame download; \
         the gap between p50 rtt and p50 queue wait is protocol + pixel transfer"
    );

    let (max_nodes, volumes, each) = if smoke { (2, 4, 2) } else { (2, 6, 4) };
    let pooled_fps = node_sweep(max_nodes, shards, volumes, each, volume_size, image);

    // Part 3: the connection knee. `--connections 64,256,1024` overrides
    // the default sweep of mostly-idle session counts.
    let knee_points: Vec<usize> = args
        .iter()
        .position(|a| a == "--connections")
        .and_then(|i| args.get(i + 1))
        .map(|list| {
            list.split(',')
                .filter_map(|v| v.trim().parse::<usize>().ok())
                .collect()
        })
        .unwrap_or_else(|| {
            if smoke {
                vec![16, 64]
            } else {
                vec![64, 256, 1024]
            }
        });
    let hot = 4usize;
    let knee_frames = if smoke { 4 } else { 6 };
    println!(
        "\nconnection knee — {hot} hot sessions rendering, the rest idle \
         (one event loop owns them all):"
    );
    println!(
        "{:>11} {:>9} {:>10} {:>10}",
        "connections", "frames/s", "p50 rtt", "p99 rtt"
    );
    let mut knee_widest: Option<(usize, f64, Duration, Duration)> = None;
    for total in knee_points {
        let total = total.max(hot);
        let (fps, p50, p99) = knee_point(total, hot, knee_frames, shards, volume_size, image);
        println!(
            "{:>11} {:>9.2} {:>8.2}ms {:>8.2}ms",
            total,
            fps,
            p50.as_secs_f64() * 1e3,
            p99.as_secs_f64() * 1e3,
        );
        knee_widest = Some((total, fps, p50, p99));
    }

    let rebalance_summary = if rebalance {
        let r = rebalance_smoke(shards, volume_size, image);
        println!(
            "\nrebalance — skewed key, one pass: imbalance {:.2}, {} move(s) \
             node {} → node {} (pre-warmed: {}), epoch {}, {} post-cutover frames on the destination",
            r.imbalance, r.moves, r.owner_before, r.owner_after, r.prewarmed, r.epoch, r.migrated_frames
        );
        Some(r)
    } else {
        None
    };

    if let Some(result) = smoke_summary {
        let json = JsonObject::new()
            .str("bench", "net_throughput")
            .int("shards", shards as u64)
            .int("clients", smoke_point.0 as u64)
            .int("connections", smoke_point.1 as u64)
            .int("frames", result.server_frames)
            .num("frames_per_sec", result.frames_per_sec)
            .num("cache_hit_rate", result.cache_hit_rate)
            .num(
                "p50_queue_wait_ms",
                result.p50_queue_wait.as_secs_f64() * 1e3,
            )
            .num(
                "p50_rtt_ms",
                quantile(&result.rtts, 0.5).as_secs_f64() * 1e3,
            )
            .num(
                "p90_rtt_ms",
                quantile(&result.rtts, 0.9).as_secs_f64() * 1e3,
            )
            .num("pooled_frames_per_sec", pooled_fps);
        let json = if let Some((total, fps, p50, p99)) = knee_widest {
            json.int("knee_connections", total as u64)
                .num("knee_frames_per_sec", fps)
                .num("knee_p50_rtt_ms", p50.as_secs_f64() * 1e3)
                .num("knee_p99_rtt_ms", p99.as_secs_f64() * 1e3)
        } else {
            json
        };
        let json = if let Some(r) = &rebalance_summary {
            json.num("rebalance_imbalance", r.imbalance)
                .int("rebalance_moves", r.moves)
                .int("rebalance_owner_before", r.owner_before as u64)
                .int("rebalance_owner_after", r.owner_after as u64)
                .int("rebalance_prewarmed", r.prewarmed as u64)
                .int("rebalance_epoch", r.epoch)
                .int("rebalance_migrated_frames", r.migrated_frames)
        } else {
            json
        };
        json.num("wall_secs", result.wall.as_secs_f64())
            .write("BENCH_net.json")
            .expect("write BENCH_net.json");
    }
}
