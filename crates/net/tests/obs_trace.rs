//! End-to-end observability through a two-node [`NodePool`]: a pipelined
//! render must leave a retrievable trace whose stage spans cover the whole
//! pipeline (queue → plan → stage → render → reply) with monotone
//! timestamps, and the pool-wide STATS snapshot must survive the wire
//! bit-exactly (sorted keys make re-encoding canonical).

use mgpu_net::{
    wire, Directory, NodePool, NodePoolConfig, RenderClient, RenderServer, ServerConfig,
};
use mgpu_obs::{CompletedTrace, Snapshot};
use mgpu_serve::{Priority, RenderBackend, SceneRequest, ServiceConfig};
use mgpu_voldata::Dataset;
use mgpu_volren::camera::Scene;
use mgpu_volren::{RenderConfig, TransferFunction};

fn server() -> RenderServer {
    RenderServer::start(ServerConfig {
        shards: 2,
        service: ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind loopback server")
}

fn request(azimuth: f32) -> SceneRequest {
    let volume = Dataset::Skull.volume(8);
    SceneRequest {
        spec: mgpu_cluster::ClusterSpec::accelerator_cluster(1),
        scene: Scene::orbit(&volume, azimuth, 10.0, TransferFunction::bone()),
        volume,
        config: RenderConfig::test_size(8),
        priority: Priority::Normal,
    }
}

/// The stage spans a freshly rendered (cache-missing) frame must carry,
/// in pipeline order of their start timestamps.
const PIPELINE: [&str; 7] = [
    "admit",
    "queue",
    "plan",
    "stage",
    "kernel",
    "composite",
    "reply",
];

fn full_pipeline(trace: &CompletedTrace) -> bool {
    PIPELINE.iter().all(|name| trace.span(name).is_some())
}

/// Render through a two-node pool, then pull each node's trace ring over
/// the wire: at least one trace must cover the full pipeline with ≥ 6
/// named stage spans and monotone, well-formed timestamps.
#[test]
fn pool_render_leaves_a_full_pipeline_trace_on_some_node() {
    let (a, b) = (server(), server());
    let pool = NodePool::new(
        Directory::new(vec![a.addr(), b.addr()]).expect("two-node directory"),
        NodePoolConfig::default(),
    );

    // Distinct views: every frame is a frame-cache and plan-cache miss,
    // so each rendered frame records the full span set.
    for view in 0..4 {
        RenderBackend::render(&pool, request(view as f32 * 17.0)).expect("pool render");
    }

    let traces: Vec<CompletedTrace> = pool
        .node_traces(16)
        .into_iter()
        .flat_map(|node| node.expect("node traces reachable"))
        .collect();
    assert!(!traces.is_empty(), "rendering must leave traces");

    let full = traces
        .iter()
        .find(|t| full_pipeline(t))
        .expect("some node holds a full-pipeline trace");
    assert!(
        full.spans.len() >= 6,
        "expected ≥ 6 stage spans, got {:?}",
        full.span_names()
    );

    // Well-formed: every span ends at or after it starts, and the request
    // id seeding the trace is a real wire id (never 0).
    assert_ne!(full.id, 0, "trace id is the wire request id");
    for span in &full.spans {
        assert!(
            span.end_ns >= span.start_ns,
            "span {} runs backwards",
            span.name
        );
    }

    // Monotone: the pipeline stages start in pipeline order.
    let starts: Vec<u64> = PIPELINE
        .iter()
        .map(|name| full.span(name).unwrap().start_ns)
        .collect();
    for (i, pair) in starts.windows(2).enumerate() {
        assert!(
            pair[0] <= pair[1],
            "{} starts after {} ({} > {})",
            PIPELINE[i],
            PIPELINE[i + 1],
            pair[0],
            pair[1]
        );
    }

    a.shutdown();
    b.shutdown();
}

/// STATS is bit-exact on the wire: the pool-merged registry snapshot
/// re-encodes to the same bytes after a decode round trip (sorted keys
/// make the encoding canonical), and the decode reproduces the snapshot.
#[test]
fn pool_merged_snapshot_roundtrips_bit_exactly() {
    let (a, b) = (server(), server());
    let pool = NodePool::new(
        Directory::new(vec![a.addr(), b.addr()]).expect("two-node directory"),
        NodePoolConfig::default(),
    );
    // Touch both nodes so the merged snapshot carries real counters and
    // histograms from each.
    for view in 0..4 {
        RenderBackend::render(&pool, request(100.0 + view as f32 * 23.0)).expect("pool render");
    }
    for addr in [a.addr(), b.addr()] {
        let client = RenderClient::connect(addr).expect("connect node");
        client.stats().expect("node stats");
    }

    let merged = pool.obs_snapshot().expect("pool-wide snapshot");
    assert!(!merged.is_empty(), "rendering must populate the registry");
    assert!(
        merged.counter("serve.frames_completed").unwrap_or(0) >= 4,
        "merged snapshot sums both nodes' counters"
    );
    assert!(
        merged.histogram("serve.queue_wait_ns").is_some(),
        "stage histograms cross the wire"
    );

    // The merged snapshot survives the STATS payload's snapshot codec.
    let bytes = wire::encode(&merged);
    let decoded: Snapshot = wire::decode(&bytes).expect("canonical bytes decode");
    assert_eq!(decoded, merged, "decode reproduces the snapshot");
    assert_eq!(
        wire::encode(&decoded),
        bytes,
        "re-encoding is bit-exact (canonical sorted-key form)"
    );

    a.shutdown();
    b.shutdown();
}
