//! The first multi-node rung in action: two independent [`RenderServer`]
//! processes-worth of render capacity behind one [`NodePool`] — the same
//! `RenderBackend` trait as a local [`RenderService`], but the frames come
//! from whichever node the placement [`Directory`] owns each plan key on.
//! Two finales: a **graceful drain-and-rejoin** (tickets in flight when
//! the drain starts, every one redeemed bit-identically, then the node
//! RESUMEs back into service at a new epoch) and a **crash** (a node
//! killed mid-run; the pool completes the next frame on the survivor,
//! inside its [`NodePoolConfig::attempts`], bit-identical as ever).
//!
//!     cargo run --release --example node_pool

use gpumr::prelude::*;

fn start_node() -> RenderServer {
    RenderServer::start(ServerConfig {
        shards: 2,
        service: ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind a loopback node")
}

fn main() {
    let mut nodes: Vec<Option<RenderServer>> = vec![Some(start_node()), Some(start_node())];
    let directory = Directory::new(nodes.iter().map(|n| n.as_ref().unwrap().addr()).collect())
        .expect("two distinct loopback nodes");
    println!("node directory: {:?}\n", directory.addrs());

    let pool = NodePool::new(
        directory,
        NodePoolConfig {
            attempts: 3,
            client: ClientConfig {
                connect_timeout: Some(std::time::Duration::from_secs(5)),
                read_timeout: Some(std::time::Duration::from_secs(120)),
                ..ClientConfig::default()
            },
        },
    );

    let cfg = RenderConfig::test_size(64);
    let datasets = [
        (Dataset::Skull, 32u32, 4u32, TransferFunction::bone()),
        (Dataset::Supernova, 32, 1, TransferFunction::fire()),
        (Dataset::Plume, 16, 2, TransferFunction::smoke()),
    ];

    // Every dataset's frames over the same pool; the directory pins each
    // (cluster, volume, config) to its owning node, so a dataset's frames
    // keep hitting the node whose plan cache is warm.
    let mut rendered = 0u32;
    for (dataset, base, gpus, transfer) in &datasets {
        let volume = dataset.volume(*base);
        let spec = ClusterSpec::accelerator_cluster(*gpus);
        let orbit = |az: f32| SceneRequest {
            spec: spec.clone(),
            volume: volume.clone(),
            scene: Scene::orbit(&volume, az, 15.0, transfer.clone()),
            config: cfg.clone(),
            priority: Priority::Normal,
        };
        let owner = pool.node_for(&orbit(0.0));
        for i in 0..4 {
            let az = i as f32 * 85.0;
            let frame = pool.render(orbit(az)).expect("pooled render");
            let scene = Scene::orbit(&volume, az, 15.0, transfer.clone());
            let direct = gpumr::volren::render(&spec, &volume, &scene, &cfg);
            assert_eq!(
                *frame.image, direct.image,
                "pooled frame must be bit-identical to a direct render"
            );
            rendered += 1;
        }
        println!(
            "{:>10}: 4 frames via node {owner} — all bit-identical",
            dataset.name()
        );
    }

    // Pool-level merged accounting across both nodes.
    let merged = pool.report().expect("merged pool report");
    assert_eq!(merged.frames_completed, rendered as u64);
    println!(
        "\npool report: {} frames over {} nodes, {:.1} frames/s wall",
        merged.frames_completed,
        pool.node_count(),
        merged.frames_per_sec()
    );
    for (node, stats) in pool.node_stats().into_iter().enumerate() {
        let stats = stats.expect("node reachable");
        println!(
            "  node {node}: {} frames, {} shards",
            stats.merged().frames_completed,
            stats.shards().len()
        );
    }

    // Drain-and-rejoin finale: park a burst of tickets on the skull's
    // owner, drain it mid-flight, and redeem every ticket — a draining
    // node answers everything it owes while new work routes around it,
    // so not one admitted frame is lost. Then RESUME rejoins the node.
    let skull = Dataset::Skull.volume(32);
    let spec = ClusterSpec::accelerator_cluster(4);
    let probe = SceneRequest {
        spec: spec.clone(),
        volume: skull.clone(),
        scene: Scene::orbit(&skull, 200.0, 15.0, TransferFunction::bone()),
        config: cfg.clone(),
        priority: Priority::Normal,
    };
    let owner = pool.node_for(&probe);
    println!("\ndraining node {owner} (owns the skull) with work in flight…");
    let scenes: Vec<Scene> = (0..6)
        .map(|i| {
            Scene::orbit(
                &skull,
                200.0 + i as f32 * 7.0,
                15.0,
                TransferFunction::bone(),
            )
        })
        .collect();
    let tickets: Vec<PoolTicket> = scenes
        .iter()
        .map(|scene| {
            pool.submit(SceneRequest {
                spec: spec.clone(),
                volume: skull.clone(),
                scene: scene.clone(),
                config: cfg.clone(),
                priority: Priority::Normal,
            })
            .expect("submit before the drain")
        })
        .collect();
    let state = pool.drain_node(owner).expect("drain the owner");
    println!(
        "  drain acknowledged: {} outstanding, epoch now {}",
        state.outstanding,
        pool.epoch()
    );
    for (scene, ticket) in scenes.iter().zip(tickets) {
        let frame = pool.redeem(ticket).expect("redeem during the drain");
        let direct = gpumr::volren::render(&spec, &skull, scene, &cfg);
        assert_eq!(
            *frame.image, direct.image,
            "a redemption from a draining node must stay bit-identical"
        );
    }
    // Every ticket is redeemed, so the node owes nothing now.
    assert!(pool.node_drained(owner), "node {owner} still owes work");
    println!(
        "  all {} tickets redeemed bit-identically; node {owner} drained clean",
        scenes.len()
    );

    pool.resume_node(owner).expect("resume the drained node");
    println!("  node {owner} resumed — epoch {}", pool.epoch());
    let frame = pool.render(probe.clone()).expect("render after rejoin");
    let direct = gpumr::volren::render(&spec, &skull, &probe.scene, &cfg);
    assert_eq!(
        *frame.image, direct.image,
        "post-rejoin render must stay bit-identical"
    );
    println!(
        "  render after rejoin lands on node {}",
        pool.node_for(&probe)
    );

    // Failover finale: kill the skull's owning node, render again — the
    // pool absorbs the loss within its retry budget and the survivor
    // delivers the identical pixels.
    let skull = Dataset::Skull.volume(32);
    let spec = ClusterSpec::accelerator_cluster(4);
    let request = SceneRequest {
        spec: spec.clone(),
        volume: skull.clone(),
        scene: Scene::orbit(&skull, 123.0, 15.0, TransferFunction::bone()),
        config: cfg.clone(),
        priority: Priority::Normal,
    };
    let owner = pool.node_for(&request);
    println!("\nkilling node {owner} (owns the skull) mid-run…");
    nodes[owner].take().unwrap().shutdown();

    let frame = pool.render(request.clone()).expect("failover render");
    let direct = gpumr::volren::render(&spec, &skull, &request.scene, &cfg);
    assert_eq!(
        *frame.image, direct.image,
        "failover must not change a single pixel"
    );
    println!("frame completed on the survivor — still bit-identical");

    let stats = pool.node_stats();
    assert!(stats[owner].is_err(), "dead node reports its error");
    assert!(stats[1 - owner].is_ok());
    println!(
        "node {owner} now reports: {}",
        stats[owner].as_ref().unwrap_err()
    );

    RenderBackend::shutdown(pool);
    if let Some(survivor) = nodes.into_iter().flatten().next() {
        let report = survivor.shutdown();
        println!(
            "\nsurvivor drained: {} frames completed over its lifetime",
            report.frames_completed
        );
    }
}
