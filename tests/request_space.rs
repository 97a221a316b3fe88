//! The bit-identity contract across the request space: a seeded generator
//! of valid `SceneRequest`s, each case a request and a neighbour that
//! differs from it in one `RenderConfig` arm, sent in a seeded order
//! through a `RenderService` and a `ShardedService` in one process.
//!
//! Every delivered frame must equal a fresh direct `render` in image bits
//! and in simulated runtime, and may come from a frame cache only when an
//! identical request went through that backend before — so a cache whose
//! key ignores an arm serves the neighbour its twin's frame and fails the
//! case. Every request must also cross the wire codec unchanged. The
//! services live for the whole sweep, so their caches hold every earlier
//! case's plans and frames.
//!
//! A failing case prints its seed; replay it alone with
//! `check(&mut Services::start(), seed)`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Duration;

use gpumr::mapreduce::{Assignment, TraceOptions};
use gpumr::net::wire::{decode_request, encode_request};
use gpumr::prelude::*;
use gpumr::serve::BackendFrame;
use gpumr::voldata::Volume;
use gpumr::volren::math::vec3;
use gpumr::volren::transfer::ControlPoint;
use gpumr::volren::{Camera, Compositor, PartitionStrategy, Residency};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Seeds per run: the debug tier-1 pass stays under 10 s; CI's release
/// job sweeps more.
const CASES: u32 = if cfg!(debug_assertions) { 128 } else { 1000 };

/// The `RenderConfig` arms a neighbour flips, one per case.
const ARMS: usize = 11;

/// A volume within the door's limits: a procedural dataset by name, or a
/// small in-memory volume whose voxels ship by value.
fn volume() -> impl Strategy<Value = Volume> {
    (0usize..4, 8u32..13, 0u64..u64::MAX).prop_map(|(kind, base, seed)| {
        if let Some(dataset) = Dataset::ALL.get(kind) {
            return dataset.volume(base);
        }
        let dims = [5 + (seed % 4) as u32, 5 + (seed >> 8) as u32 % 4, base / 2];
        let voxels = dims.iter().product::<u32>() as u64;
        let data = (0..voxels)
            .map(|i| ((i.wrapping_mul(seed | 1) >> 7) % 1024) as f32 / 1023.0)
            .collect();
        Volume::in_memory(format!("shipped-{}", seed % 1000), dims, data)
    })
}

/// A preset transfer function, or two to four control points.
fn transfer() -> impl Strategy<Value = TransferFunction> {
    (
        0usize..6,
        prop::collection::vec((0f32..1.0, 0f32..1.0), 2..5),
    )
        .prop_map(|(pick, points)| match pick {
            0 => TransferFunction::bone(),
            1 => TransferFunction::fire(),
            2 => TransferFunction::smoke(),
            3 => TransferFunction::grayscale(),
            _ => {
                let n = points.len() as f32 - 1.0;
                let points = (points.iter().enumerate())
                    .map(|(i, &(tint, alpha))| ControlPoint {
                        value: i as f32 / n,
                        rgba: [tint, 1.0 - tint, 0.5, alpha],
                    })
                    .collect();
                TransferFunction::from_points("generated", points)
            }
        })
}

/// An orbit or a look-at camera over `volume`, under `transfer`, on a
/// black or a coloured background.
fn scene(volume: Volume) -> impl Strategy<Value = (Volume, Scene)> {
    let view = (0f32..360.0, -80f32..80.0, 0u8..2);
    let look = (-30f32..30.0, -30f32..30.0, 20f32..50.0, 20f32..60.0);
    let background = (0u8..2, 0f32..1.0, 0f32..1.0, 0f32..1.0);
    (view, look, background, transfer()).prop_map(
        move |((az, el, orbit), (x, y, z, fov), (plain, r, g, b), transfer)| {
            let mut scene = Scene::orbit(&volume, az, el, transfer);
            if orbit == 0 {
                let [w, h, d] = volume.dims().map(|n| n as f32 / 2.0);
                let eye = vec3(w + x, h + y, d + z);
                scene.camera = Camera::look_at(eye, vec3(w, h, d), vec3(0.0, 1.0, 0.2), fov);
            }
            if plain == 0 {
                scene = scene.with_background([r, g, b, 1.0]);
            }
            (volume.clone(), scene)
        },
    )
}

/// Every arm the neighbours flip, drawn within the door's limits: a
/// small image, and a host cache a `Disk` frame evicts from.
fn config() -> impl Strategy<Value = RenderConfig> {
    let image = (4u32..13, 4u32..13, 0usize..3, 0u8..2);
    let arms = (0usize..4, 1u32..9, 0u8..2, 0usize..3, 1u32..6, 0u8..2);
    let more = (0u8..2, 0u8..2, 0usize..3, 1u32..5, 6u32..17, 0usize..4);
    let cache = 2u64..33;
    (image, arms, more, cache).prop_map(
        |(
            (w, h, step, early),
            (partition, param, compositor, assignment, stride, combiner),
            (async_upload, reduce_on_gpu, residency, bricks, batch_log2, threads),
            cache_kib,
        )| RenderConfig {
            image: (w, h),
            step_voxels: [0.5, 1.0, 1.5][step],
            early_term: [0.98, 1.1][early as usize],
            bricks_per_gpu: bricks,
            residency: [Residency::Auto, Residency::HostResident, Residency::Disk][residency],
            host_cache_bytes: cache_kib << 10,
            batch_bytes: 1 << batch_log2,
            partition: [
                PartitionStrategy::RoundRobin,
                PartitionStrategy::Striped {
                    rows_per_stripe: param,
                },
                PartitionStrategy::Tiled { tile: param },
                PartitionStrategy::Checkerboard { cell: param },
            ][partition],
            compositor: [Compositor::DirectSend, Compositor::BinarySwap][compositor as usize],
            assignment: [
                Assignment::RoundRobin,
                Assignment::Blocked,
                Assignment::Strided { stride },
            ][assignment],
            combiner: combiner == 1,
            trace: TraceOptions {
                async_upload: async_upload == 1,
                reduce_on_gpu: reduce_on_gpu == 1,
            },
            kernel_parallelism: threads,
            ..RenderConfig::default()
        },
    )
}

/// `config` with arm `arm` moved to another value (`pick` chooses which).
fn flip(config: &RenderConfig, arm: usize, pick: u32) -> RenderConfig {
    let mut next = config.clone();
    match arm {
        0 => {
            next.partition = match config.partition {
                PartitionStrategy::RoundRobin => PartitionStrategy::Tiled { tile: 1 + pick % 8 },
                PartitionStrategy::Striped { rows_per_stripe } => PartitionStrategy::Striped {
                    rows_per_stripe: rows_per_stripe % 8 + 1,
                },
                _ => PartitionStrategy::RoundRobin,
            }
        }
        1 => {
            next.compositor = match config.compositor {
                Compositor::DirectSend => Compositor::BinarySwap,
                Compositor::BinarySwap => Compositor::DirectSend,
            }
        }
        2 => {
            next.assignment = match config.assignment {
                Assignment::RoundRobin => Assignment::Strided {
                    stride: 2 + pick % 3,
                },
                Assignment::Blocked => Assignment::RoundRobin,
                Assignment::Strided { .. } => Assignment::Blocked,
            }
        }
        3 => next.combiner = !config.combiner,
        4 => next.trace.async_upload = !config.trace.async_upload,
        5 => next.trace.reduce_on_gpu = !config.trace.reduce_on_gpu,
        6 => {
            next.residency = match config.residency {
                Residency::Disk => Residency::HostResident,
                _ => Residency::Disk,
            }
        }
        7 => next.bricks_per_gpu = config.bricks_per_gpu % 4 + 1,
        8 => next.batch_bytes = config.batch_bytes * 2,
        9 => next.kernel_parallelism = (config.kernel_parallelism + 1 + pick as usize % 3) % 4,
        _ => next.image = (config.image.1, config.image.0 + 1),
    }
    next
}

/// A request, its neighbour (the same request but for one flipped arm) and
/// the arm. The cluster has 1, 2 or 4 GPUs, so binary swap is always valid.
fn case() -> impl Strategy<Value = (SceneRequest, SceneRequest, usize)> {
    let request = (volume().prop_flat_map(scene), config(), 0u32..3, 0usize..3);
    (request, 0..ARMS, 0u32..64).prop_map(
        |(((volume, scene), config, gpus, priority), arm, pick)| {
            let neighbour = flip(&config, arm, pick);
            let request = SceneRequest {
                spec: ClusterSpec::accelerator_cluster(1 << gpus),
                volume,
                scene,
                config,
                priority: [Priority::Batch, Priority::Normal, Priority::Interactive][priority],
            };
            let neighbour = SceneRequest {
                config: neighbour,
                ..request.clone()
            };
            (request, neighbour, arm)
        },
    )
}

/// What a request is, independent of any cache key: its wire bytes, at one
/// priority (a frame of another priority is the same frame).
fn identity(request: &SceneRequest) -> Vec<u8> {
    let net = NetSceneRequest::from_request(request).expect("a portable request");
    encode_request(&NetSceneRequest {
        priority: Priority::Normal,
        ..net
    })
}

/// The two backends, with every request identity each has been sent.
struct Services {
    local: RenderService,
    sharded: ShardedService,
    sent: [Vec<Vec<u8>>; 2],
}

impl Services {
    fn start() -> Services {
        let config = ServiceConfig {
            workers: 2,
            cache_frames: 16,
            plan_cache_plans: 4,
            ..ServiceConfig::default()
        };
        Services {
            local: RenderService::start(config.clone()),
            sharded: ShardedService::start(2, config),
            sent: [Vec::new(), Vec::new()],
        }
    }
}

/// Submit `requests` to `backend` in `order`, then redeem them in `redeem`
/// order. Each frame comes back with whether an identical request had been
/// sent to this backend before it.
fn deliver<B: RenderBackend>(
    backend: &B,
    sent: &mut Vec<Vec<u8>>,
    requests: &[&SceneRequest],
    (order, redeem): (&[usize], &[usize]),
) -> Vec<(usize, BackendFrame, bool)> {
    let mut tickets: Vec<Option<(B::Ticket, bool)>> = (0..requests.len()).map(|_| None).collect();
    for &i in order {
        let id = identity(requests[i]);
        let seen = sent.contains(&id);
        sent.push(id);
        let ticket = backend
            .submit(requests[i].clone())
            .expect("blocking submit");
        tickets[i] = Some((ticket, seen));
    }
    redeem
        .iter()
        .map(|&i| {
            let (ticket, seen) = tickets[i].take().expect("each ticket redeemed once");
            (i, backend.redeem(ticket).expect("redeem"), seen)
        })
        .collect()
}

/// A seeded permutation of `0..n`.
fn shuffled(rng: &mut TestRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    order
}

/// One seed: generate its case, check the codec, send both requests
/// through both backends in a seeded order, and hold every frame to its
/// direct render. Returns the arm it flipped, and whether a `Disk` frame
/// of the case evicted from its host cache.
fn check(services: &mut Services, seed: u32) -> (usize, bool) {
    let mut rng = TestRng::for_case(seed);
    let (request, neighbour, arm) = case().sample(&mut rng);
    let requests = [&request, &neighbour];
    assert_ne!(
        identity(&request),
        identity(&neighbour),
        "a neighbour differs"
    );
    for r in requests {
        let net = NetSceneRequest::from_request(r).expect("a portable request");
        let back = decode_request(&encode_request(&net)).expect("its bytes decode");
        assert_eq!(back, net, "the codec round-trips the request");
    }
    let direct: Vec<RenderOutcome> = (requests.iter())
        .map(|r| render(&r.spec, &r.volume, &r.scene, &r.config))
        .collect();
    let mut delivered = Vec::new();
    for backend in shuffled(&mut rng, 2) {
        let order = (&shuffled(&mut rng, 2)[..], &shuffled(&mut rng, 2)[..]);
        let sent = &mut services.sent[backend];
        let frames = match backend {
            0 => deliver(&services.local, sent, &requests, order),
            _ => deliver(&services.sharded, sent, &requests, order),
        };
        delivered.extend(frames.into_iter().map(|frame| (backend, frame)));
    }
    for (backend, (i, frame, seen)) in delivered {
        let want = &direct[i];
        let label = format!("backend {backend}, request {i}");
        assert!(*frame.image == want.image, "{label}: pixels differ");
        assert!(
            !frame.from_cache || seen,
            "{label}: served from a cache no identical request filled"
        );
        let sim = match frame.from_cache {
            true => Duration::ZERO,
            false => Duration::from_nanos(want.report.runtime().nanos()),
        };
        assert_eq!(frame.sim_frame, sim, "{label}: simulated runtime");
    }
    let evicted = (requests.iter().zip(&direct))
        .any(|(r, d)| r.config.residency == Residency::Disk && d.report.store.evictions > 0);
    (arm, evicted)
}

#[test]
fn generated_requests_and_their_neighbours_match_direct_renders_through_both_services() {
    let mut services = Services::start();
    let (mut flipped, mut evicting) = ([0u32; ARMS], 0u32);
    for seed in 0..CASES {
        match catch_unwind(AssertUnwindSafe(|| check(&mut services, seed))) {
            Ok((arm, evicted)) => {
                flipped[arm] += 1;
                evicting += u32::from(evicted);
            }
            Err(panic) => {
                eprintln!(
                    "seed {seed} fails; replay it with `check(&mut Services::start(), {seed})`"
                );
                resume_unwind(panic);
            }
        }
    }
    // The sweep covers what it claims: every arm flipped, and `Disk`
    // frames that evict.
    assert!(flipped.iter().all(|&n| n > 0), "arms flipped: {flipped:?}");
    assert!(evicting > 0, "no Disk frame evicted from its host cache");
    let Services { local, sharded, .. } = services;
    for report in [local.shutdown(), sharded.shutdown()] {
        assert_eq!(report.frames_failed, 0);
        assert_eq!(report.frames_completed, 2 * CASES as u64);
    }
}
