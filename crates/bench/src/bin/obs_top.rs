//! `obs_top` — a live dashboard over the observability pipeline: starts a
//! local [`RenderServer`], drives a pipelined render workload against it,
//! and redraws per-stage latency quantiles, cache hit rates, wire traffic
//! and the most recent request traces from the server's **STATS** node
//! snapshot and **TRACES** ring each tick — the same data any remote
//! `obs_top` would see, fetched through the same wire requests.
//!
//!     cargo run --release -p mgpu-bench --bin obs_top [-- --ticks N]

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Duration;

use mgpu_cluster::ClusterSpec;
use mgpu_net::{
    rebalance_once, NetSceneRequest, NodePool, NodePoolConfig, RebalanceConfig, RenderClient,
    RenderServer, ServerConfig,
};
use mgpu_obs::names;
use mgpu_obs::{CompletedTrace, Snapshot};
use mgpu_serve::{Priority, RenderBackend, SceneRequest, ServiceConfig};
use mgpu_volren::camera::Scene;
use mgpu_volren::{RenderConfig, TransferFunction};

/// The stage histograms the dashboard reports, as `(label, snapshot key)`
/// in pipeline order.
const STAGES: [(&str, &str); 7] = [
    ("queue wait", names::SERVE_QUEUE_WAIT_NS),
    ("plan prepare", names::VOLREN_PLAN_PREPARE_NS),
    ("brick staging", names::VOLREN_STAGING_NS),
    ("kernel", names::VOLREN_KERNEL_NS),
    // Inside `kernel`: one record per brick launch, not per frame.
    ("brick march", names::VOLREN_MARCH_NS),
    ("composite", names::VOLREN_COMPOSITE_NS),
    ("render total", names::SERVE_RENDER_NS),
];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits.saturating_add(misses);
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

fn draw(label: &str, snap: &Snapshot, traces: &[CompletedTrace]) {
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    println!("\n━━ obs_top — {label} ━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━");
    println!(
        "frames: {} submitted, {} rendered, {} completed, {} failed   queue depth {}",
        c(names::SERVE_FRAMES_SUBMITTED),
        c(names::SERVE_FRAMES_RENDERED),
        c(names::SERVE_FRAMES_COMPLETED),
        c(names::SERVE_FRAMES_FAILED),
        [
            names::SERVE_QUEUE_DEPTH_BATCH,
            names::SERVE_QUEUE_DEPTH_NORMAL,
            names::SERVE_QUEUE_DEPTH_INTERACTIVE,
        ]
        .iter()
        .map(|class| snap.gauge(class).unwrap_or(0))
        .sum::<i64>(),
    );
    println!(
        "caches: frame {:.1}% hit, plan {:.1}% hit   stagings {} / reuses {}",
        rate(
            c(names::SERVE_FRAME_CACHE_HITS),
            c(names::SERVE_FRAME_CACHE_MISSES)
        ) * 100.0,
        rate(
            c(names::SERVE_PLAN_CACHE_HITS),
            c(names::SERVE_PLAN_CACHE_MISSES)
        ) * 100.0,
        c(names::SERVE_BRICK_STAGINGS),
        c(names::SERVE_BRICK_REUSES),
    );
    println!(
        "net:    {} frames in / {} out, {} B read / {} B written   {} conns, {} wakeups, {} throttled",
        c(names::NET_FRAMES_IN),
        c(names::NET_FRAMES_OUT),
        c(names::NET_BYTES_READ),
        c(names::NET_BYTES_WRITTEN),
        snap.gauge(names::NET_CONNECTIONS).unwrap_or(0),
        c(names::NET_LOOP_WAKEUPS),
        c(names::NET_THROTTLED),
    );
    let (fetched, slots) = (
        c(names::VOLREN_SAMPLES_FETCHED),
        c(names::VOLREN_LANE_SLOTS),
    );
    println!(
        "march:  {fetched} samples fetched in {slots} lane slots ({})",
        if slots == 0 {
            "scalar march".to_string()
        } else {
            format!(
                "eight-wide, {:.2} of a slot used",
                fetched as f64 / slots as f64
            )
        }
    );
    println!(
        "map:    {:.3} ms of lent cores idle per rendered frame",
        c(names::CORE_MAP_IDLE_TOTAL_NS) as f64
            / 1e6
            / c(names::SERVE_FRAMES_RENDERED).max(1) as f64
    );
    println!(
        "\n{:>14} {:>8} {:>10} {:>10} {:>10}",
        "stage", "count", "p50 ms", "p90 ms", "p99 ms"
    );
    for (label, key) in STAGES {
        let count = snap
            .histogram(key)
            .map(|b| b.iter().sum::<u64>())
            .unwrap_or(0);
        let q = |q: f64| snap.hist_quantile(key, q).map(ms).unwrap_or(0.0);
        println!(
            "{label:>14} {count:>8} {:>10.3} {:>10.3} {:>10.3}",
            q(0.5),
            q(0.9),
            q(0.99)
        );
    }
    println!("\nrecent traces (newest first):");
    for trace in traces.iter().take(4) {
        let mut spans = trace.spans.clone();
        spans.sort_by_key(|s| s.start_ns);
        let line: Vec<String> = spans
            .iter()
            .map(|s| format!("{} {:.2}ms", s.name, s.nanos() as f64 / 1e6))
            .collect();
        println!("  #{:<6} {}", trace.id, line.join(" → "));
    }
    if traces.is_empty() {
        println!("  (none completed yet)");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ticks = args
        .iter()
        .position(|a| a == "--ticks")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(8);
    let (volume_size, image, clients, frames_each) = (32u32, 128u32, 4usize, 24usize);
    let tick_wait = Duration::from_millis(400);

    let server = RenderServer::start(ServerConfig {
        shards: 2,
        service: ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind obs_top server");
    let addr = server.addr();
    println!(
        "obs_top — {clients} pipelined clients × {frames_each} frames \
         ({volume_size}³ volumes, {image}² frames) against {addr}"
    );

    // The workload: each client pipelines its frames on one connection.
    // Every 4th view repeats so the frame cache sees hits.
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let client = Arc::new(RenderClient::connect(addr).expect("connect workload"));
                let volume = mgpu_voldata::Dataset::Skull.volume(volume_size);
                let pending: Vec<_> = (0..frames_each)
                    .map(|f| {
                        let view = if f % 4 == 3 { 0 } else { f };
                        let request = SceneRequest {
                            spec: ClusterSpec::accelerator_cluster(1 + (c % 2) as u32),
                            scene: Scene::orbit(
                                &volume,
                                view as f32 * 13.0,
                                20.0,
                                TransferFunction::bone(),
                            ),
                            volume: volume.clone(),
                            config: RenderConfig::test_size(image),
                            priority: Priority::Normal,
                        };
                        let net = NetSceneRequest::from_request(&request).expect("portable");
                        client.begin_render(&net).expect("begin render")
                    })
                    .collect();
                for p in pending {
                    client.finish_render(p).expect("finish render");
                }
            })
        })
        .collect();

    // The dashboard: a separate observer connection polling STATS and
    // TRACES — exactly what a remote operator console would do.
    let observer = RenderClient::connect(addr).expect("connect observer");
    for tick in 1..=ticks {
        std::thread::sleep(tick_wait);
        let stats = observer.stats().expect("stats");
        let traces = observer.traces(8).expect("traces");
        draw(&format!("tick {tick}/{ticks}"), &stats.obs, &traces);
    }
    for w in workers {
        w.join().expect("workload thread");
    }

    // Final snapshot after the workload fully drains.
    let stats = observer.stats().expect("final stats");
    let traces = observer.traces(16).expect("final traces");
    draw("final (workload drained)", &stats.obs, &traces);
    let snap = &stats.obs;
    let completed = snap.counter(names::SERVE_FRAMES_COMPLETED).unwrap_or(0);
    assert_eq!(
        completed,
        (clients * frames_each) as u64,
        "every workload frame must complete"
    );
    assert!(
        traces.iter().any(|t| t.span("map").is_some()),
        "traces must carry renderer stage spans"
    );

    // Cluster-ops episode: a two-node pool in-process — skewed traffic,
    // one rebalance pass, a graceful drain/resume, and a crash hand-off —
    // so the `pool.rebalance.*` / `pool.drain.*` control-plane counters
    // and the `rebalance` trace span show up on this dashboard next to
    // the data plane they steer.
    let mut nodes: Vec<Option<RenderServer>> = (0..2)
        .map(|_| {
            Some(
                RenderServer::start(ServerConfig {
                    shards: 2,
                    service: ServiceConfig {
                        workers: 2,
                        ..ServiceConfig::default()
                    },
                    ..ServerConfig::default()
                })
                .expect("bind pool node"),
            )
        })
        .collect();
    let pool = NodePool::try_new(
        nodes.iter().map(|n| n.as_ref().unwrap().addr()).collect(),
        NodePoolConfig::default(),
    )
    .expect("validated pool");
    let volume = mgpu_voldata::Dataset::Plume.volume(volume_size);
    let pool_request = |az: f32| SceneRequest {
        spec: ClusterSpec::accelerator_cluster(1),
        scene: Scene::orbit(&volume, az, 10.0, TransferFunction::smoke()),
        volume: volume.clone(),
        config: RenderConfig::test_size(image),
        priority: Priority::Normal,
    };
    // All traffic on one key: its owner runs hot, the other node idles.
    for f in 0..6 {
        pool.render(pool_request(f as f32 * 19.0))
            .expect("pool render");
    }
    let owner_before = pool.node_for(&pool_request(0.0));
    let outcome = rebalance_once(
        &pool,
        &RebalanceConfig {
            band: 1.2,
            min_frames: 4,
        },
    );
    let dest = pool.node_for(&pool_request(0.0));
    // Graceful drain + resume of the now-cold node.
    pool.drain_node(owner_before).expect("drain");
    // Every render above was answered, so the node owes nothing.
    assert!(
        pool.node_drained(owner_before),
        "node {owner_before} still owes work"
    );
    pool.resume_node(owner_before).expect("resume");
    // Crash hand-off: park a ticket on the new owner, kill it, redeem —
    // the frame re-renders on the survivor instead of being lost.
    let parked = pool.submit(pool_request(777.0)).expect("park ticket");
    nodes[dest].take().unwrap().shutdown();
    pool.redeem(parked).expect("zero-loss hand-off redemption");

    let ops = mgpu_obs::global().snapshot();
    let oc = |name: &str| ops.counter(name).unwrap_or(0);
    println!(
        "\ncluster ops: rebalance {} tick(s), {} migration(s) (imbalance {:.2}, \
         node {} → {}), {} prewarm(s); drains {} initiated / {} resumed, \
         {} hand-off(s); epoch {}",
        oc(names::POOL_REBALANCE_TICKS),
        oc(names::POOL_REBALANCE_MIGRATIONS),
        outcome.imbalance,
        owner_before,
        dest,
        oc(names::POOL_REBALANCE_PREWARMS),
        oc(names::POOL_DRAIN_INITIATED),
        oc(names::POOL_DRAIN_RESUMED),
        oc(names::POOL_DRAIN_HANDOFFS),
        pool.epoch(),
    );
    assert!(
        oc(names::POOL_REBALANCE_MIGRATIONS) >= 1 && oc(names::POOL_DRAIN_HANDOFFS) >= 1,
        "the cluster-ops episode must migrate and hand off"
    );
    let local_traces = mgpu_obs::ring().recent(32);
    let rebalance_trace = local_traces
        .iter()
        .find(|t| t.span("rebalance").is_some())
        .expect("the rebalance pass must leave a trace span");
    let mut spans = rebalance_trace.spans.clone();
    spans.sort_by_key(|sp| sp.start_ns);
    let line: Vec<String> = spans
        .iter()
        .map(|sp| format!("{} {:.2}ms", sp.name, sp.nanos() as f64 / 1e6))
        .collect();
    println!(
        "rebalance trace #{}: {}",
        rebalance_trace.id,
        line.join(" → ")
    );
    drop(pool);
    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }

    // In-process bonus: the trace ring's exact drop accounting.
    let ring = mgpu_obs::ring();
    println!(
        "\ntrace ring: {} pushed, {} held, {} dropped (exact: pushed == held + dropped)",
        ring.pushed(),
        ring.held(),
        ring.dropped()
    );

    server.shutdown();
}
