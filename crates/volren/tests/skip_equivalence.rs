//! Empty-space skipping is invisible: for bricks staged through a
//! [`BrickStore`], with the min/max macrocells the renderer builds from
//! their stored voxels attached to their textures, the batched
//! `launch_blocks` path — which skips — and the scalar `launch` oracle —
//! which ignores cells and fetches every lattice sample — must agree
//! bit-for-bit on keys, fragments *and* `LaunchStats`: the modelled GPU is
//! charged for every lattice point either way. Each sweep also checks, by
//! `volren.samples_fetched`, that its launches skipped what they should.
//! (`brick::tests` holds the renderer's kept grid equal to the one these
//! launches classify.)
//!
//! Sibling of `batched_equivalence.rs`, which pins the same two paths on
//! textures without cells.

use std::sync::{Arc, Mutex, PoisonError};

use proptest::prelude::*;

use mgpu_gpu::{launch, launch_blocks, LaunchConfig};
use mgpu_mapreduce::SENTINEL_KEY;
use mgpu_obs::names;
use mgpu_voldata::{BrickGrid, BrickPolicy, BrickStore, Dataset, MacroCells, Volume};
use mgpu_volren::camera::Scene;
use mgpu_volren::kernel::RayCastKernel;
use mgpu_volren::math::vec3;
use mgpu_volren::transfer::ControlPoint;
use mgpu_volren::{RenderBrick, Staging, TransferFunction};

/// `(step, early_term)`: the default, a fractional step without early
/// termination, a coarse step with an aggressive threshold, and the
/// smallest step the wire admits (`MIN_STEP_VOXELS`: the longest jumps).
const MARCHES: [(f32, f32); 4] = [(1.0, 0.98), (0.6, 1.1), (1.7, 0.5), (1.0 / 16.0, 0.98)];

fn bricks(volume: Volume, min_bricks: u32) -> Vec<RenderBrick> {
    let grid = BrickGrid::subdivide(
        volume.dims(),
        &BrickPolicy {
            min_bricks,
            max_brick_voxels: u64::MAX,
        },
    );
    let store = Arc::new(BrickStore::new(volume, grid, 1, u64::MAX));
    (0..store.grid().brick_count())
        .map(|id| RenderBrick::new(Arc::clone(&store), id, Staging::HostResident))
        .collect()
}

/// What one launch is run with, besides the brick.
struct Shot<'a> {
    scene: &'a Scene,
    image: (u32, u32),
    /// `None`: the brick's own footprint.
    window: Option<(u32, u32, u32, u32)>,
    step: f32,
    early_term: f32,
    parallelism: usize,
}

/// What launches kept, charged and fetched.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    /// Fragments kept.
    hits: usize,
    /// Samples charged (`LaunchStats::total_samples`).
    charged: u64,
    /// Samples the batched path fetched.
    fetched: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.hits += other.hits;
        self.charged += other.charged;
        self.fetched += other.fetched;
    }

    /// Whether the launches skipped anything: without a skip grid every
    /// charged sample is fetched.
    fn skipped(&self) -> bool {
        self.fetched < self.charged
    }
}

/// Held around each batched launch: `volren.samples_fetched` is
/// process-global, and the tests of this file run at once.
static FETCH_COUNTER: Mutex<()> = Mutex::new(());

fn fetched() -> u64 {
    mgpu_obs::global()
        .snapshot()
        .counter(names::VOLREN_SAMPLES_FETCHED)
        .unwrap_or(0)
}

/// Launch `brick` both ways and compare everything.
fn compare(brick: &RenderBrick, shot: &Shot<'_>) -> Result<Tally, String> {
    let (w, h) = shot.image;
    let Some((x0, y0, x1, y1)) = shot
        .window
        .or_else(|| brick.footprint(&shot.scene.camera, w, h))
    else {
        return Ok(Tally::default());
    };
    let data = brick.voxels();
    let (texture, store_origin) = RenderBrick::texture(&data);
    let (_, padded) = data.info.padded(data.ghost);
    let cells = MacroCells::build(&data.voxels, data.store_dims, data.window(), padded);
    let texture = texture.with_cells(cells.edge, cells.ranges);
    let lut = shot.scene.transfer.bake();
    let (core_lo, core_hi) = brick.core_box();
    let kernel = RayCastKernel {
        camera: &shot.scene.camera,
        lut: &lut,
        texture: &texture,
        store_origin,
        core_lo,
        core_hi,
        image: shot.image,
        offset: (x0, y0),
        step: shot.step,
        early_term: shot.early_term,
    };
    let config = LaunchConfig::cover(x1 - x0, y1 - y0);
    let scalar = launch(&kernel, config);
    let (batched, fetched) = {
        let _counter = FETCH_COUNTER.lock().unwrap_or_else(PoisonError::into_inner);
        let before = fetched();
        let batched = launch_blocks(&kernel, config, shot.parallelism);
        (batched, fetched() - before)
    };

    let mut hits = 0;
    for (i, (key, frag)) in scalar.outputs.iter().enumerate() {
        if *key != batched.keys[i] {
            return Err(format!(
                "key mismatch at lane {i}: {key} vs {}",
                batched.keys[i]
            ));
        }
        if *key == SENTINEL_KEY {
            continue;
        }
        hits += 1;
        let got = &batched.values[i];
        let same = frag.color.map(f32::to_bits) == got.color.map(f32::to_bits)
            && frag.depth.to_bits() == got.depth.to_bits()
            && frag.exit.to_bits() == got.exit.to_bits();
        if !same {
            return Err(format!(
                "fragment mismatch at lane {i}: {frag:?} vs {got:?}"
            ));
        }
    }
    if scalar.stats != batched.stats {
        return Err(format!(
            "stats mismatch: {:?} vs {:?}",
            scalar.stats, batched.stats
        ));
    }
    Ok(Tally {
        hits,
        charged: scalar.stats.total_samples,
        fetched,
    })
}

/// Every brick of `volume` under every march setting, from `views`. Returns
/// the tally, so a caller can tell its sweep was not all-sentinel and
/// whether it skipped.
fn sweep(
    volume: Volume,
    min_bricks: u32,
    transfer: &TransferFunction,
    views: &[(f32, f32)],
) -> Tally {
    let scenes: Vec<Scene> = views
        .iter()
        .map(|&(az, el)| Scene::orbit(&volume, az, el, transfer.clone()))
        .collect();
    let label = volume.meta.label();
    let bricks = bricks(volume, min_bricks);
    let mut tally = Tally::default();
    for (v, scene) in scenes.iter().enumerate() {
        for (m, &(step, early_term)) in MARCHES.iter().enumerate() {
            for brick in &bricks {
                let shot = Shot {
                    scene,
                    image: (72, 56),
                    window: None,
                    step,
                    early_term,
                    // Alternate so both appear with every march setting.
                    parallelism: if (v + m + brick.info().id) % 2 == 0 {
                        1
                    } else {
                        3
                    },
                };
                match compare(brick, &shot) {
                    Ok(t) => tally.add(t),
                    Err(e) => panic!(
                        "{label} with {}, view {:?}, step {step}, early_term {early_term}, \
                         brick {}: {e}",
                        transfer.name(),
                        views[v],
                        brick.info().id
                    ),
                }
            }
        }
    }
    assert!(tally.charged > 0, "{label}: no ray entered any brick");
    tally
}

const VIEWS: [(f32, f32); 6] = [
    (0.0, 0.0), // axis-aligned: rays run along cell faces
    (30.0, 20.0),
    (90.0, -35.0),
    (201.0, 5.0),
    (315.0, 62.0),
    (180.0, 89.0), // straight down
];

#[test]
fn every_dataset_with_its_preset_matches_the_oracle() {
    for dataset in Dataset::ALL {
        let transfer = TransferFunction::for_dataset(dataset.name());
        // 40³-class volumes in 8 bricks: 20-voxel cores, 22-voxel stored
        // arrays, 6 cells per axis with a partial last one.
        let bricked = sweep(dataset.volume(40), 8, &transfer, &VIEWS);
        // And as one brick: 12 cells per axis, jumps of more than one cell.
        let whole = sweep(dataset.volume(44), 1, &transfer, &VIEWS[1..3]);
        for tally in [bricked, whole] {
            assert!(tally.hits > 1000, "{}: {tally:?}", dataset.name());
            assert!(tally.skipped(), "{}: {tally:?}", dataset.name());
        }
    }
}

fn custom(name: &'static str, points: &[(f32, f32)]) -> TransferFunction {
    TransferFunction::from_points(
        name,
        points
            .iter()
            .map(|&(value, alpha)| ControlPoint {
                value,
                rgba: [0.9, 0.6, 0.3, alpha],
            })
            .collect(),
    )
}

#[test]
fn zero_alpha_interval_in_the_middle_or_nowhere() {
    // Transparent only between 0.3 and 0.6: both the faint low values and
    // the dense high ones contribute, the shell between them is skippable.
    let band = custom(
        "band",
        &[
            (0.0, 0.05),
            (0.25, 0.04),
            (0.3, 0.0),
            (0.6, 0.0),
            (0.65, 0.3),
            (1.0, 0.9),
        ],
    );
    // Nothing transparent anywhere: no cell is empty, no grid is built.
    let fog = custom("fog", &[(0.0, 0.01), (1.0, 0.4)]);
    // The skull's band cells skip; no supernova cell lies inside the band.
    for (transfer, skull_skips) in [(band, true), (fog, false)] {
        let skull = sweep(Dataset::Skull.volume(40), 8, &transfer, &VIEWS[..3]);
        let supernova = sweep(Dataset::Supernova.volume(32), 2, &transfer, &VIEWS[3..]);
        for tally in [skull, supernova] {
            assert!(tally.hits > 1000, "{}: {tally:?}", transfer.name());
        }
        assert_eq!(
            skull.skipped(),
            skull_skips,
            "{}: {skull:?}",
            transfer.name()
        );
        assert!(!supernova.skipped(), "{}: {supernova:?}", transfer.name());
    }
}

#[test]
fn all_empty_volume_skips_everything_and_charges_everything() {
    let volume = Volume::in_memory("void", [24, 24, 24], vec![0.0; 24 * 24 * 24]);
    let tally = sweep(volume, 2, &TransferFunction::bone(), &VIEWS);
    assert_eq!((tally.hits, tally.fetched), (0, 0), "{tally:?}");
}

#[test]
fn bricks_smaller_than_one_cell() {
    // 2×2×2 and 1×1×1 cores: every stored axis is shorter than a cell edge.
    for (dims, min_bricks) in [([6u32, 6, 6], 27), ([3, 3, 3], 27), ([5, 4, 3], 8)] {
        let n = (dims[0] * dims[1] * dims[2]) as usize;
        let data = (0..n).map(|i| if i % 3 == 0 { 0.7 } else { 0.0 }).collect();
        let tally = sweep(
            Volume::in_memory("tiny", dims, data),
            min_bricks,
            &TransferFunction::bone(),
            &VIEWS[..4],
        );
        assert!(tally.hits > 100, "{dims:?}: {tally:?}");
    }
}

#[test]
fn special_values_next_to_just_transparent_ones() {
    // bone is transparent below u ≈ 0.0762 (the first lookup that blends
    // texel 20). Fill the volume with values just under that, then plant the
    // specials: NaN (ignored by the cell ranges), ±∞ (keep their cells
    // occupied) and −1e6 — whose lerp with a just-transparent neighbour
    // overshoots *above* both taps, into visible alpha.
    let dims = [36u32, 36, 36];
    let index = |x: u32, y: u32, z: u32| ((z * dims[1] + y) * dims[0] + x) as usize;
    let mut data = vec![0.076f32; 36 * 36 * 36];
    data[index(5, 5, 5)] = f32::NAN;
    data[index(20, 6, 9)] = f32::INFINITY;
    data[index(7, 21, 30)] = f32::NEG_INFINITY;
    data[index(27, 27, 12)] = -1e6;
    data[index(28, 27, 12)] = -1e6;
    data[index(12, 12, 28)] = 0.9; // something plainly visible too
    for z in 14..18 {
        for y in 14..18 {
            for x in 14..18 {
                data[index(x, y, z)] = f32::NAN; // a block of nothing but NaN
            }
        }
    }
    let volume = Volume::in_memory("specials", dims, data);
    let whole = sweep(volume.clone(), 1, &TransferFunction::bone(), &VIEWS);
    assert!(whole.hits > 100 && whole.skipped(), "{whole:?}");
    let bricked = sweep(volume, 8, &TransferFunction::bone(), &VIEWS[1..4]);
    assert!(bricked.hits > 0 && bricked.skipped(), "{bricked:?}");
}

#[test]
fn rays_through_the_ghost_and_clamp_fringe() {
    // A launch window over the whole image, not the footprint: rays graze
    // and miss the core box, enter through its corners, and run along the
    // volume border where the stored array's ghost shell is clamp-filled.
    // The camera sits on a face plane of the volume, looking along it.
    let volume = Dataset::Plume.volume(24);
    let d = volume.dims();
    let transfer = TransferFunction::smoke();
    let mut scene = Scene::orbit(&volume, 0.0, 0.0, transfer);
    let mut tally = Tally::default();
    for eye in [
        vec3(-30.0, 0.0, d[2] as f32 * 0.5),
        vec3(d[0] as f32 * 0.5, d[1] as f32, -40.0),
        vec3(d[0] as f32, d[1] as f32, d[2] as f32 * 2.0),
    ] {
        let target = vec3(d[0] as f32 * 0.5, eye.y, d[2] as f32 * 0.5);
        scene.camera = mgpu_volren::Camera::look_at(eye, target, vec3(0.0, 1.0, 0.0), 50.0);
        for brick in &bricks(volume.clone(), 4) {
            for &(step, early_term) in &MARCHES {
                let shot = Shot {
                    scene: &scene,
                    image: (64, 64),
                    window: Some((0, 0, 64, 64)),
                    step,
                    early_term,
                    parallelism: 2,
                };
                tally.add(compare(brick, &shot).unwrap_or_else(|e| {
                    panic!("eye {eye:?}, step {step}, brick {}: {e}", brick.info().id)
                }));
            }
        }
    }
    assert!(tally.hits > 0 && tally.skipped(), "{tally:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn skipping_path_bit_identical_to_scalar(
        dataset in 0usize..3,
        az in 0f32..360.0,
        el in -89f32..89.0,
        march in 0usize..4,
        step_raw in 0.1f32..2.5,
        image_w in 16u32..96,
        image_h in 16u32..96,
        off_x in 0u32..48,
        off_y in 0u32..48,
        launch_w in 1u32..70,
        launch_h in 1u32..70,
        parallelism in 1usize..4,
        brick in 0usize..8,
    ) {
        let dataset = Dataset::ALL[dataset];
        let volume = dataset.volume(36);
        let transfer = TransferFunction::for_dataset(dataset.name());
        let scene = Scene::orbit(&volume, az, el, transfer);
        let bricks = bricks(volume, 8);
        let (step, early_term) = MARCHES[march];
        let x0 = off_x.min(image_w - 1);
        let y0 = off_y.min(image_h - 1);
        let shot = Shot {
            scene: &scene,
            image: (image_w, image_h),
            // Windows that overhang the image exercise padding threads.
            window: Some((x0, y0, x0 + launch_w, y0 + launch_h)),
            // Off-lattice steps on half the cases.
            step: if march % 2 == 0 { step } else { step_raw },
            early_term,
            parallelism,
        };
        let result = compare(&bricks[brick % bricks.len()], &shot);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }
}
