//! Criterion micro-benchmarks of the hot primitives: the counting sort
//! against the comparison sort it replaces (the §3.1.2 θ(n) claim), the
//! partition strategies, trilinear texture sampling, fragment compositing,
//! value noise, the DES replay itself, one ray-march launch with and
//! without macrocells (and with nothing but its ray setup left to do), a
//! 256² frame through the wire codec, the fixed
//! cost of a `run_job` that maps nothing, a lopsided `run_job` whose idle
//! mapper lends its core to the busy one, an out-of-core brick miss,
//! procedural synthesis of one brick
//! per dataset, and the request keys a served frame builds.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use std::sync::Arc;

use mgpu_cluster::{ClusterSpec, GpuId};
use mgpu_gpu::{
    launch_blocks, BlockCtx, BlockKernel, BlockOut, LaunchConfig, LaunchStats, Texture3D,
};
use mgpu_mapreduce::{
    counting_sort_groups, run_job, Chunk, GpuMapper, JobConfig, MapOutput, Partitioner, Reducer,
    RoundRobin, Striped, Tiled, SENTINEL_KEY,
};
use mgpu_net::wire::{decode_frame, encode_frame, write_frame_view};
use mgpu_sim::{simulate, Activity, SimDuration, Trace};
use mgpu_voldata::noise::{fbm, value_noise};
use mgpu_voldata::{
    io, BrickGrid, BrickPolicy, BrickStore, Dataset, MacroCells, Volume, VolumeSource,
};
use mgpu_volren::composite::{composite_unsorted, over};
use mgpu_volren::kernel::RayCastKernel;
use mgpu_volren::transfer::ControlPoint;
use mgpu_volren::{
    Fragment, Image, RenderBrick, RenderConfig, RequestKey, Scene, Staging, TransferFunction,
};

fn pairs(n: usize, key_space: u32) -> (Vec<u32>, Vec<u64>) {
    let keys = (0..n as u64)
        .map(|i| ((i.wrapping_mul(2654435761)) % key_space as u64) as u32)
        .collect();
    let values = (0..n as u64).collect();
    (keys, values)
}

fn bench_sort(c: &mut Criterion) {
    let mut g = c.benchmark_group("sort");
    g.sample_size(20);
    let (in_keys, in_values) = pairs(100_000, 262_144);
    g.bench_function("counting_sort_100k_pairs", |b| {
        b.iter(|| counting_sort_groups(black_box(&in_keys), black_box(&in_values), 262_144))
    });
    let tupled: Vec<(u32, u64)> = in_keys
        .iter()
        .copied()
        .zip(in_values.iter().copied())
        .collect();
    g.bench_function("comparison_sort_100k_pairs", |b| {
        b.iter_batched(
            || tupled.clone(),
            |mut v| {
                v.sort_by_key(|(k, _)| *k);
                v
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_partition(c: &mut Criterion) {
    let mut g = c.benchmark_group("partition");
    g.sample_size(20);
    let keys: Vec<u32> = (0..262_144u32).collect();
    let strategies: Vec<(&str, Box<dyn Partitioner>)> = vec![
        ("round_robin", Box::new(RoundRobin)),
        (
            "striped",
            Box::new(Striped {
                width: 512,
                rows_per_stripe: 16,
            }),
        ),
        (
            "tiled",
            Box::new(Tiled {
                width: 512,
                tile: 64,
            }),
        ),
    ];
    for (name, p) in strategies {
        g.bench_function(format!("{name}_262k_keys"), |b| {
            b.iter(|| {
                let mut acc = 0u32;
                for &k in &keys {
                    acc = acc.wrapping_add(p.reducer_of(black_box(k), 8));
                }
                acc
            })
        });
    }
    g.finish();
}

fn bench_texture(c: &mut Criterion) {
    let mut g = c.benchmark_group("texture");
    g.sample_size(20);
    let dims = [64usize; 3];
    let data: Vec<f32> = (0..dims[0] * dims[1] * dims[2])
        .map(|i| (i % 97) as f32 / 97.0)
        .collect();
    let tex = Texture3D::new(dims, data);
    g.bench_function("trilinear_sample_64cubed", |b| {
        b.iter(|| {
            let mut acc = 0f32;
            let mut p = 0.7f32;
            for _ in 0..1000 {
                acc += tex.sample(black_box(p), p * 0.9, p * 1.1);
                p = (p + 0.061) % 62.0;
            }
            acc
        })
    });
    g.finish();
}

fn bench_composite(c: &mut Criterion) {
    let mut g = c.benchmark_group("composite");
    g.sample_size(20);
    let frags: Vec<Fragment> = (0..16)
        .map(|i| Fragment {
            color: [0.05, 0.04, 0.03, 0.1],
            depth: ((i * 7) % 16) as f32,
            exit: ((i * 7) % 16) as f32 + 1.0,
        })
        .collect();
    g.bench_function("depth_sort_and_blend_16_fragments", |b| {
        b.iter_batched(
            || frags.clone(),
            |mut f| composite_unsorted(black_box(&mut f), [0.0; 4]),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("over_operator", |b| {
        b.iter(|| {
            let mut acc = [0f32; 4];
            for _ in 0..1000 {
                acc = over(black_box(acc), [0.01, 0.01, 0.01, 0.02]);
            }
            acc
        })
    });
    g.finish();
}

fn bench_noise(c: &mut Criterion) {
    let mut g = c.benchmark_group("noise");
    g.sample_size(20);
    g.bench_function("value_noise_1k", |b| {
        b.iter(|| {
            let mut acc = 0f32;
            for i in 0..1000 {
                let x = i as f32 * 0.37;
                acc += value_noise(black_box(x), x * 0.5, x * 0.25, 7);
            }
            acc
        })
    });
    g.bench_function("fbm3_1k", |b| {
        b.iter(|| {
            let mut acc = 0f32;
            for i in 0..1000 {
                let x = i as f32 * 0.37;
                acc += fbm(black_box(x), x * 0.5, x * 0.25, 3, 2.0, 0.5, 7);
            }
            acc
        })
    });
    g.finish();
}

fn bench_des(c: &mut Criterion) {
    let mut g = c.benchmark_group("des");
    g.sample_size(20);
    // A synthetic 10k-task pipeline: 8 chains with cross dependencies.
    let mut tr = Trace::new();
    let rs = tr.add_resources(16);
    let mut prev = Vec::new();
    for i in 0..10_000u32 {
        let deps = if i >= 8 {
            vec![prev[(i - 8) as usize]]
        } else {
            vec![]
        };
        let t = tr.task(
            Activity::Kernel,
            rs[(i % 16) as usize],
            SimDuration(100 + (i as u64 % 37)),
            deps,
        );
        prev.push(t);
    }
    g.bench_function("replay_10k_tasks", |b| b.iter(|| simulate(black_box(&tr))));
    g.finish();
}

/// One launch of the batched ray caster over one brick of `orbit_incore`'s
/// volume (Skull 128³ in two bricks, `bone`, 256², serial), three ways:
/// without macrocells, with the brick's own cells (`MacroCells::build`;
/// empty-space skipping at work — the kernel's own `prepare` classifies
/// them on every launch, which the renderer does once per brick and
/// transfer function), and with a *bypass* table —
/// every cell widened to the brick's whole value range except one all-air
/// corner cell. The bypass table is conservative, so the frame is the same;
/// it keeps a grid alive (one cell is empty) while leaving the rays nothing
/// to skip, so `bypass − no_cells` is what the per-sample cell test and the
/// per-launch classification cost when they buy nothing. A fourth, `setup`,
/// takes the brick's own cells under a transfer function with zero alpha
/// everywhere: every cell is empty, a ray's march is a few jumps, and what
/// is left is the launch's ray setup (pass 1 of every block).
fn bench_march(c: &mut Criterion) {
    let mut g = c.benchmark_group("march");
    g.sample_size(10);
    let volume = Dataset::Skull.volume(128);
    let scene = Scene::orbit(&volume, 30.0, 20.0, TransferFunction::bone());
    let grid = BrickGrid::subdivide(
        volume.dims(),
        &BrickPolicy {
            min_bricks: 2,
            max_brick_voxels: u64::MAX,
        },
    );
    let store = Arc::new(BrickStore::new(volume, grid, 1, u64::MAX));
    let brick = RenderBrick::new(Arc::clone(&store), 0, Staging::HostResident);
    let data = brick.voxels();
    let lut = scene.transfer.bake();
    let image = (256, 256);
    let (x0, y0, x1, y1) = brick
        .footprint(&scene.camera, image.0, image.1)
        .expect("the orbit frames the volume");
    let (core_lo, core_hi) = brick.core_box();

    let (no_cells, store_origin) = RenderBrick::texture(&data);
    let (_, dims) = data.info.padded(data.ghost);
    let own = MacroCells::build(&data.voxels, data.store_dims, data.window(), dims);
    let cells = no_cells
        .clone()
        .with_cells(own.edge, Arc::clone(&own.ranges));
    let whole = own
        .ranges
        .iter()
        .fold([f32::INFINITY, f32::NEG_INFINITY], |[lo, hi], r| {
            [lo.min(r[0]), hi.max(r[1])]
        });
    let mut widened = vec![whole; own.ranges.len()];
    assert_eq!(own.ranges[0], [0.0, 0.0], "corner cell is air");
    widened[0] = [0.0, 0.0];
    let bypass = no_cells.clone().with_cells(own.edge, Arc::new(widened));

    let clear = TransferFunction::from_points(
        "clear",
        [0.0, 1.0]
            .map(|value| ControlPoint {
                value,
                rgba: [1.0, 1.0, 1.0, 0.0],
            })
            .to_vec(),
    )
    .bake();

    for (name, texture, lut) in [
        ("no_cells", &no_cells, &lut),
        ("cells", &cells, &lut),
        ("bypass", &bypass, &lut),
        ("setup", &cells, &clear),
    ] {
        let kernel = RayCastKernel {
            camera: &scene.camera,
            lut,
            texture,
            store_origin,
            core_lo,
            core_hi,
            image,
            offset: (x0, y0),
            step: 1.0,
            early_term: 0.98,
        };
        let config = LaunchConfig::cover(x1 - x0, y1 - y0);
        g.bench_function(format!("skull128_brick_{name}"), |b| {
            b.iter(|| launch_blocks(black_box(&kernel), config, 1).stats)
        });
    }
    g.finish();
}

/// `replay_cached`'s frame (256², 1 MiB of pixels) through the codec with no
/// socket: `encode_256` and `decode_256` are the named wrappers (one exact
/// allocation and one bulk copy each); `reply_view_256` is what the server
/// does instead of encoding — a 36-byte head, then the pixels written from
/// where they lie — into a sink that stands in for the socket's copy.
fn bench_frame(c: &mut Criterion) {
    let mut g = c.benchmark_group("frame");
    g.sample_size(50);
    let mut image = Image::new(256, 256);
    for (i, px) in image.pixels_mut().iter_mut().enumerate() {
        *px = [i as f32, 0.5, -0.0, 1.0];
    }
    let image = Arc::new(image);
    let payload = encode_frame(&image, true, 0);
    g.bench_function("encode_256", |b| {
        b.iter(|| encode_frame(black_box(&image), true, 0))
    });
    g.bench_function("decode_256", |b| {
        b.iter(|| decode_frame(black_box(&payload)).expect("a valid frame"))
    });
    let mut sink = Vec::with_capacity(payload.len() + 64);
    g.bench_function("reply_view_256", |b| {
        b.iter(|| {
            sink.clear();
            write_frame_view(&mut sink, 7, black_box(&image), true, 0)
                .expect("a Vec takes every byte");
            sink.len()
        })
    });
    g.finish();
}

struct NoChunk(usize);

impl Chunk for NoChunk {
    fn id(&self) -> usize {
        self.0
    }
    fn device_bytes(&self) -> u64 {
        0
    }
    fn disk_bytes(&self) -> u64 {
        0
    }
}

/// One thread per chunk, emitting its chunk id: no kernel to speak of.
struct NoMapper;

impl GpuMapper<NoChunk> for NoMapper {
    type Value = u32;

    fn map_chunk(&self, _gpu: GpuId, chunk: &NoChunk) -> MapOutput<u32> {
        MapOutput::from_pairs(vec![(chunk.0 as u32, 1)], LaunchStats::default())
    }
}

struct NoReducer;

impl Reducer for NoReducer {
    type Value = u32;
    type Out = u32;

    fn reduce(&self, _key: u32, values: &mut Vec<u32>) -> u32 {
        values.len() as u32
    }
}

/// The per-frame floor: `run_job` over 4 no-op chunks on 2 GPUs — one
/// mapper handed a thread beside the caller, four one-pair batches kept by
/// the mappers that flushed them, then the last mapper and one helper it
/// wakes sorting and reducing two keys each, and the merge of four keys. What is left
/// is what a frame pays before its first ray (`pool_preview`'s fixed cost),
/// visible here without a server. One iteration is 1000 jobs, so the line
/// reads in µs per job with "ms" as its unit. `lopsided_2_gpus` is one job
/// of [`SpinMapper`]'s.
fn bench_job(c: &mut Criterion) {
    let mut g = c.benchmark_group("job");
    g.sample_size(20);
    let chunks: Vec<NoChunk> = (0..4).map(NoChunk).collect();
    let spec = ClusterSpec::accelerator_cluster(2);
    let config = JobConfig::new(2, 4);
    g.bench_function("run_job_4_noop_chunks_2_gpus_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                let out = run_job(
                    black_box(&chunks),
                    &NoMapper,
                    &NoReducer,
                    &RoundRobin,
                    None,
                    &spec,
                    &config,
                );
                assert_eq!(out.keys, [0, 1, 2, 3]);
            }
        })
    });
    let lopsided: Vec<NoChunk> = (0..2).map(NoChunk).collect();
    let config = JobConfig::new(2, 64);
    g.bench_function("lopsided_2_gpus", |b| {
        b.iter(|| {
            run_job(
                black_box(&lopsided),
                &SpinMapper,
                &NoReducer,
                &RoundRobin,
                None,
                &spec,
                &config,
            )
            .keys
            .len()
        })
    });
    g.finish();
}

/// Fixed spin work per block; thread 0 of each block emits the block id.
struct SpinKernel {
    spins: u64,
}

impl BlockKernel for SpinKernel {
    type Key = u32;
    type Value = u32;
    type Launch = ();

    fn prepare(&self) {}

    fn run_block(&self, _: &(), ctx: &BlockCtx, out: BlockOut<'_, u32, u32>) {
        let mut acc = 0u64;
        for i in 0..self.spins {
            acc = black_box(acc.wrapping_mul(31).wrapping_add(i));
        }
        out.keys.fill(SENTINEL_KEY);
        out.keys[0] = ctx.block.1 * 8 + ctx.block.0;
        out.values[0] = acc as u32;
    }
}

/// Chunk 0 launches 64 blocks of spin work on one host thread, chunk 1 one
/// empty block: on 2 GPUs, mapper 1 is done at once and lends its core to
/// mapper 0's launch, so on two cores the job takes about half the time.
struct SpinMapper;

impl GpuMapper<NoChunk> for SpinMapper {
    type Value = u32;

    fn map_chunk(&self, _gpu: GpuId, chunk: &NoChunk) -> MapOutput<u32> {
        let (grid, spins) = if chunk.0 == 0 {
            ((8, 8), 50_000)
        } else {
            ((1, 1), 0)
        };
        let config = LaunchConfig {
            grid,
            block: (16, 16),
        };
        let out = launch_blocks(&SpinKernel { spins }, config, 1);
        MapOutput {
            keys: out.keys,
            values: out.values,
            stats: out.stats,
        }
    }
}

/// `plume_outofcore`'s miss: `BrickStore::get` of a 128×128×64 brick of a
/// plume baked to a page-cached file — its 130×130×66 ghost-padded box
/// clipped to the volume, 128×128×65 voxels, one contiguous range of the
/// file — mapped in place, then a sum over every voxel's bits, so the
/// timing also pays the page faults a march over the brick would. The two
/// bricks of a 128³ plume take turns under a budget of one brick, so every
/// get misses (the store builds nothing else). After the timing both bricks
/// must equal the procedural plume's in-bounds regions bit for bit: a
/// 4.26 MB brick, one mapping.
fn bench_stage(c: &mut Criterion) {
    let mut g = c.benchmark_group("stage");
    g.sample_size(20);
    let dims = [128, 128, 128];
    let plume = Dataset::Plume;
    let procedural = Volume::procedural(plume.name(), dims, plume.seed(), plume.field());
    let path = std::env::temp_dir().join(format!("mgpu_micro_ops_{}.vol", std::process::id()));
    io::write_volume(&path, dims, &procedural.materialize_full()).expect("baking the plume");
    let volume = Volume {
        meta: procedural.meta.clone(),
        source: VolumeSource::File(path.clone()),
    };
    let grid = BrickGrid::subdivide(
        dims,
        &BrickPolicy {
            min_bricks: 2,
            max_brick_voxels: u64::MAX,
        },
    );
    let store_dims = [128, 128, 65];
    let voxel_bytes = (store_dims.iter().product::<usize>() * 4) as u64;
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    let expect = [[0, 0, 0], [0, 0, 63]].map(|origin| {
        let mut region = vec![0f32; voxel_bytes as usize / 4];
        procedural.read_region(origin, store_dims, &mut region);
        bits(&region)
    });

    let store = BrickStore::new(volume.clone(), grid.clone(), 1, voxel_bytes);
    let mut id = 0;
    g.bench_function("plume_brick_miss", |b| {
        b.iter(|| {
            id ^= 1;
            let brick = store.get(black_box(id));
            // Integer adds, which vectorise: a float sum is one long chain
            // of dependent adds, slower than the faults it should show.
            brick
                .voxels
                .iter()
                .fold(0u32, |sum, v| sum.wrapping_add(v.to_bits()))
        })
    });
    assert_eq!(store.snapshot().hits, 0, "every get is a miss");
    for (id, expect) in expect.iter().enumerate() {
        let brick = store.get(id);
        assert_eq!(brick.store_dims, store_dims, "plume_outofcore's end brick");
        assert!(bits(&brick.voxels) == *expect, "brick {id} staged wrong");
    }
    g.finish();
    std::fs::remove_file(&path).ok();
}

/// Procedural synthesis: one brick-sized region of each dataset read through
/// `Volume::read_region`'s procedural path, a row per `sample_row` call,
/// split across threads by z-slab. Skull and Supernova read a central 64³
/// brick of their 128³ volume (2¹⁸ voxels); Plume reads one of
/// `plume_outofcore`'s 128×128×64 bricks of its 128×128×512 column. After
/// each timing (or in its place, under a filter that skips it) every voxel
/// of one more read must equal the field's per-point `sample` bit for bit.
fn bench_synth(c: &mut Criterion) {
    let mut g = c.benchmark_group("synth");
    g.sample_size(10);
    for (ds, origin, size) in [
        (Dataset::Skull, [32, 32, 32], [64, 64, 64]),
        (Dataset::Supernova, [32, 32, 32], [64, 64, 64]),
        (Dataset::Plume, [0, 0, 128], [128, 128, 64]),
    ] {
        let volume = ds.volume(128);
        let mut out = vec![0f32; size.iter().product()];
        g.bench_function(format!("{}128_brick", ds.name()), |b| {
            b.iter(|| volume.read_region(black_box(origin), size, &mut out))
        });
        // Read once more: a filter that skips the timing skips its reads.
        volume.read_region(origin, size, &mut out);
        let field = ds.field();
        let dims = volume.dims();
        let center =
            |a: usize, i: usize| (origin[a] as f32 + i as f32 + 0.5) * (1.0 / dims[a] as f32);
        for (i, v) in out.iter().enumerate() {
            let (x, y, z) = (i % size[0], i / size[0] % size[1], i / (size[0] * size[1]));
            let point = field.sample(center(0, x), center(1, y), center(2, z));
            assert!(
                v.to_bits() == point.to_bits(),
                "{} voxel {i} differs from its per-point sample",
                ds.name()
            );
        }
    }
    g.finish();
}

/// The request identity at `pool_preview`'s request (Skull 64³, a 16²
/// image, 2 GPUs, one kernel thread): `plan` is the key a client routes by
/// and the render guard checks, `frame` appends the scene for the frame
/// cache. One iteration is 1000 keys, so the line reads in ns per key with
/// "µs" as its unit.
fn bench_key(c: &mut Criterion) {
    let mut g = c.benchmark_group("key");
    let spec = ClusterSpec::accelerator_cluster(2);
    let volume = Dataset::Skull.volume(64);
    let cfg = RenderConfig {
        image: (16, 16),
        kernel_parallelism: 1,
        ..RenderConfig::default()
    };
    let scene = Scene::orbit(&volume, 30.0, 20.0, TransferFunction::bone());
    g.bench_function("plan_pool_preview_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                black_box(RequestKey::plan(black_box(&spec), &volume.meta, &cfg));
            }
        })
    });
    let plan = RequestKey::plan(&spec, &volume.meta, &cfg);
    g.bench_function("frame_pool_preview_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                black_box(black_box(&plan).with_scene(&scene));
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sort,
    bench_partition,
    bench_texture,
    bench_composite,
    bench_noise,
    bench_des,
    bench_march,
    bench_frame,
    bench_job,
    bench_stage,
    bench_synth,
    bench_key
);
criterion_main!(benches);
