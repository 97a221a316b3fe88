//! Elastic-pool acceptance: zero-loss graceful drain under pipelined
//! traffic, epoch-versioned placement observable through STATS,
//! idempotent drain/resume, and heat-driven rebalancing with
//! pre-warm-before-cutover. (A GOODBYE and a refused PREWARM as the raw
//! connection sees them are `client::tests` in the crate.)

use std::sync::Arc;

use mgpu_net::{
    rebalance_once, Directory, NodePool, NodePoolConfig, RebalanceConfig, RemoteBackend,
    RenderServer, ServerConfig,
};
use mgpu_serve::{Priority, RenderBackend, SceneRequest, ServiceConfig};
use mgpu_voldata::{Dataset, Volume};
use mgpu_volren::camera::Scene;
use mgpu_volren::{RenderConfig, TransferFunction};

fn node() -> RenderServer {
    RenderServer::start(ServerConfig {
        shards: 2,
        service: ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        rate_limit: None,
        ..ServerConfig::default()
    })
    .expect("bind loopback node")
}

fn request(dataset: Dataset, az: f32) -> SceneRequest {
    let volume = dataset.volume(8);
    let transfer = TransferFunction::for_dataset(dataset.name());
    SceneRequest {
        spec: mgpu_cluster::ClusterSpec::accelerator_cluster(1),
        scene: Scene::orbit(&volume, az, 10.0, transfer),
        volume,
        config: RenderConfig::test_size(8),
        priority: Priority::Normal,
    }
}

fn direct(req: &SceneRequest) -> mgpu_volren::Image {
    mgpu_volren::render(&req.spec, &req.volume, &req.scene, &req.config).image
}

/// Every ticket has been redeemed by now, so the node owes nothing: it
/// reads drained at once.
fn wait_drained(pool: &NodePool, node: usize) {
    assert!(pool.node_drained(node), "node {node} still owes work");
}

/// The acceptance test: a 3-node pool with 12 tickets in flight (spread
/// over every node), one node drained mid-run. Every ticket redeems
/// bit-identically to a direct render — the draining node answers what it
/// owes, and nothing is lost. The epoch bump is observable in the drained
/// node's STATS echo, and new work for its keys routes to survivors.
#[test]
fn draining_a_node_mid_pipeline_loses_zero_frames() {
    let servers = [node(), node(), node()];
    let pool = NodePool::try_new(
        servers.iter().map(RenderServer::addr).collect(),
        NodePoolConfig::default(),
    )
    .expect("three-node pool");
    assert_eq!(pool.epoch(), 0);

    // 3 datasets × 4 views = 12 pipelined tickets across the key space.
    let datasets = [Dataset::Skull, Dataset::Supernova, Dataset::Plume];
    let requests: Vec<SceneRequest> = datasets
        .iter()
        .flat_map(|&d| (0..4).map(move |v| request(d, v as f32 * 37.0)))
        .collect();
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| pool.submit(r.clone()).expect("pipelined submit"))
        .collect();
    assert!(tickets.len() >= 9, "the claim needs 9+ in flight");

    // Drain whichever node owns the skull key — it has work in flight.
    let target = pool.node_for(&request(Dataset::Skull, 0.0));
    assert!(
        tickets
            .iter()
            .zip(&requests)
            .any(|(t, _)| t.node() == target),
        "the drain target must hold in-flight tickets"
    );
    let state = pool.drain_node(target).expect("drain mid-run");
    assert!(state.draining);
    assert_eq!(pool.epoch(), 1, "a drain is a placement change");

    // The epoch bump is observable through STATS while the node still
    // owes work (it keeps answering reads throughout its drain).
    let stats = pool.node_stats();
    let echoed = stats[target].as_ref().expect("draining node answers STATS");
    assert_eq!(
        echoed.epoch, 1,
        "the drained node echoes the announced epoch"
    );

    // Zero loss: every ticket — on the draining node and off it — redeems
    // bit-identically to a direct render.
    for (ticket, req) in tickets.into_iter().zip(&requests) {
        let frame = pool.redeem(ticket).expect("redeem under drain");
        assert_eq!(
            *frame.image,
            direct(req),
            "ticket redeemed during a drain must be bit-identical"
        );
    }
    wait_drained(&pool, target);

    // New work for the drained node's keys routes around it.
    let rerouted = request(Dataset::Skull, 999.0);
    let frame = pool.render(rerouted.clone()).expect("render around drain");
    assert_eq!(*frame.image, direct(&rerouted));
    let survivors: u64 = pool
        .node_stats()
        .iter()
        .enumerate()
        .filter(|(n, _)| *n != target)
        .filter_map(|(_, s)| s.as_ref().ok())
        .map(|s| s.merged().frames_completed)
        .sum();
    assert!(survivors >= 1, "survivors carry the rerouted work");

    drop(pool);
    for server in servers {
        server.shutdown();
    }
}

/// A client routing on a stale directory copy can *see* that it is stale:
/// the node echoes the highest epoch it has heard, and the copy's epoch
/// lags it.
#[test]
fn stale_directory_copies_are_detectable_through_the_epoch_echo() {
    let servers = [node(), node()];
    let pool = NodePool::try_new(
        servers.iter().map(RenderServer::addr).collect(),
        NodePoolConfig::default(),
    )
    .expect("two-node pool");

    // A copy taken before any placement change — the stale client's view.
    let stale: Directory = pool.directory();
    assert_eq!(stale.epoch(), 0);

    // Placement changes: drain node 0 (epoch 1), resume it (epoch 2).
    pool.drain_node(0).expect("drain");
    pool.resume_node(0).expect("resume");
    assert_eq!(pool.epoch(), 2);

    // Any client (here: a one-node pool of its own, standing for an
    // unrelated process) sees the node echo epoch 2; the stale copy's
    // epoch lags — that gap IS the staleness signal.
    let observer = RemoteBackend::connect(servers[0].addr()).expect("observer connect");
    let echoed = observer.node_stats()[0].as_ref().expect("stats").epoch;
    assert_eq!(echoed, 2);
    assert!(
        stale.epoch() < echoed,
        "stale directory must lag the echoed epoch"
    );
    // A fresh copy agrees with the echo again.
    assert_eq!(pool.directory().epoch(), echoed);

    drop(pool);
    for server in servers {
        server.shutdown();
    }
}

/// Drain and resume are idempotent at both layers: repeating one is a
/// no-op (no extra epoch bump, same state reply), and the pair composes —
/// a resumed node accepts new work again.
#[test]
fn double_drain_and_double_resume_are_idempotent() {
    let servers = [node(), node()];
    let pool = NodePool::try_new(
        servers.iter().map(RenderServer::addr).collect(),
        NodePoolConfig::default(),
    )
    .expect("two-node pool");

    let first = pool.drain_node(0).expect("first drain");
    assert!(first.draining);
    assert_eq!(pool.epoch(), 1);
    let again = pool.drain_node(0).expect("second drain");
    assert!(again.draining);
    assert_eq!(pool.epoch(), 1, "re-draining must not bump the epoch");
    assert!(pool.draining(0));

    let resumed = pool.resume_node(0).expect("first resume");
    assert!(!resumed.draining);
    assert_eq!(pool.epoch(), 2);
    let resumed = pool.resume_node(0).expect("second resume");
    assert!(!resumed.draining);
    assert_eq!(pool.epoch(), 2, "re-resuming must not bump the epoch");
    assert!(!pool.draining(0));

    // The pair composes: after resume the node serves renders again.
    let req = request(Dataset::Skull, 5.0);
    let frame = pool.render(req.clone()).expect("render after resume");
    assert_eq!(*frame.image, direct(&req));

    drop(pool);
    for server in servers {
        server.shutdown();
    }
}

/// Heat-driven rebalancing: skewed traffic makes one node hot; one pass
/// migrates its hottest key to the cool node, pre-warming the destination
/// plan cache *before* the cutover (visible in `serve.plan_prewarms`),
/// bumping the epoch, and leaving post-cutover frames bit-identical.
#[test]
fn rebalance_migrates_a_hot_key_with_a_prewarmed_destination() {
    let servers = [node(), node()];
    let pool = NodePool::try_new(
        servers.iter().map(RenderServer::addr).collect(),
        NodePoolConfig::default(),
    )
    .expect("two-node pool");

    // Every frame on one key → its owner is the hot node.
    for v in 0..8 {
        pool.render(request(Dataset::Skull, v as f32 * 21.0))
            .expect("skewed render");
    }
    let probe = request(Dataset::Skull, 0.0);
    let hot = pool.node_for(&probe);
    let epoch_before = pool.epoch();

    let outcome = rebalance_once(
        &pool,
        &RebalanceConfig {
            band: 1.2,
            min_frames: 4,
        },
    );
    assert!(
        outcome.imbalance > 1.2,
        "skew must register: {}",
        outcome.imbalance
    );
    assert_eq!(outcome.moves.len(), 1, "exactly one migration");
    let moved = &outcome.moves[0];
    assert_eq!(moved.from, hot);
    assert!(
        moved.prewarmed,
        "the destination must build the plan before cutover"
    );
    assert!(outcome.epoch > epoch_before, "a migration bumps the epoch");
    let dest = pool.node_for(&probe);
    assert_eq!(dest, moved.to);
    assert_ne!(dest, hot, "the key must route to the destination now");

    // The pre-warm is visible in the destination's own counters, and the
    // first post-cutover frame is bit-identical as ever.
    let stats = pool.node_stats();
    let dest_stats = stats[dest].as_ref().expect("destination reachable");
    assert!(
        dest_stats
            .service_snapshot()
            .counter("serve.plan_prewarms")
            .unwrap_or(0)
            >= 1,
        "destination must count the pre-warm"
    );
    let post = request(Dataset::Skull, 400.0);
    let frame = pool.render(post.clone()).expect("post-cutover render");
    assert_eq!(*frame.image, direct(&post));
    let after = pool.node_stats();
    let dest_frames = after[dest].as_ref().unwrap().merged().frames_completed;
    assert!(
        dest_frames >= 1,
        "post-cutover frames land on the destination"
    );

    drop(pool);
    for server in servers {
        server.shutdown();
    }
}

/// Live membership end to end: a node joins, takes its share of keys, and
/// a drained node can be removed with its parked tickets still redeemable
/// (the slot outlives the directory index).
#[test]
fn membership_changes_keep_parked_tickets_redeemable() {
    let servers = [node(), node()];
    let third = node();
    let pool = NodePool::try_new(
        servers.iter().map(RenderServer::addr).collect(),
        NodePoolConfig::default(),
    )
    .expect("two-node pool");

    // Park a ticket, then add a node and remove the ticket's issuer from
    // the directory — the ticket must still redeem (directly, over the
    // surviving connection) because redemption follows the slot, not the
    // index.
    let req = request(Dataset::Supernova, 11.0);
    let parked = pool.submit(req.clone()).expect("park a ticket");
    let issuer = parked.node();

    let joined = pool.add_node(third.addr()).expect("join third node");
    assert_eq!(joined, 2);
    assert_eq!(pool.node_count(), 3);
    let epoch_after_join = pool.epoch();
    assert!(epoch_after_join >= 1);

    pool.remove_node(issuer).expect("remove the issuer");
    assert_eq!(pool.node_count(), 2);
    assert!(pool.epoch() > epoch_after_join);

    let frame = pool.redeem(parked).expect("redeem after removal");
    assert_eq!(
        *frame.image,
        direct(&req),
        "a parked ticket survives its node's removal"
    );

    // The remaining directory still renders everything bit-identically.
    let req = request(Dataset::Plume, 23.0);
    let frame = pool.render(req.clone()).expect("render after churn");
    assert_eq!(*frame.image, direct(&req));

    drop(pool);
    for server in servers {
        server.shutdown();
    }
    third.shutdown();
}

/// A ticket whose node has shut down is handed off: its connection is
/// poisoned, not asked again, and the remembered request re-renders on
/// the surviving node, bit-identically.
#[test]
fn a_ticket_on_a_lost_connection_is_handed_off() {
    let mut servers = vec![node(), node()];
    let pool = NodePool::try_new(
        servers.iter().map(RenderServer::addr).collect(),
        NodePoolConfig::default(),
    )
    .expect("two-node pool");
    let req = request(Dataset::Skull, 5.0);
    let ticket = pool.submit(req.clone()).expect("park a ticket");
    servers.remove(ticket.node()).shutdown();

    let frame = pool.redeem(ticket).expect("redeem hands off");
    assert_eq!(*frame.image, direct(&req), "the hand-off is bit-identical");

    drop(pool);
    for server in servers {
        server.shutdown();
    }
}

/// The pool remembers each key's last request (for `PREWARM`) and each
/// un-redeemed ticket's (for hand-off). A shipped volume's voxels ride in
/// that request, so every record of it shares one allocation.
#[test]
fn a_remembered_request_is_shared_not_copied() {
    let server = node();
    let pool =
        NodePool::try_new(vec![server.addr()], NodePoolConfig::default()).expect("one-node pool");
    let voxels = (0..64).map(|i| i as f32 / 63.0).collect();
    let volume = Volume::in_memory("shipped", [4, 4, 4], voxels);
    let request_at = |az: f32| SceneRequest {
        spec: mgpu_cluster::ClusterSpec::accelerator_cluster(1),
        scene: Scene::orbit(&volume, az, 10.0, TransferFunction::bone()),
        volume: volume.clone(),
        config: RenderConfig::test_size(8),
        priority: Priority::Normal,
    };
    let key = request_at(0.0).plan_key();

    pool.render(request_at(0.0)).expect("first render");
    pool.render(request_at(30.0)).expect("second render");
    let held = pool.last_request(&key).expect("key has traffic");
    let again = pool.last_request(&key).expect("key has traffic");
    assert!(Arc::ptr_eq(&held, &again), "last_request hands out copies");
    drop(again);
    assert_eq!(Arc::strong_count(&held), 2, "the heat table and `held`");

    // One ticket outstanding: its pending entry holds the same allocation
    // the heat table now remembers.
    let ticket = pool.submit(request_at(60.0)).expect("submit");
    let held = pool.last_request(&key).expect("key has traffic");
    assert_eq!(
        Arc::strong_count(&held),
        3,
        "the heat table, the pending entry and `held`"
    );
    pool.redeem(ticket).expect("redeem");
    assert_eq!(Arc::strong_count(&held), 2, "redemption drops the entry");

    drop(pool);
    server.shutdown();
}
