//! A staged brick stores its ghost-padded box clipped to the volume, and
//! its texture clamps every tap into that stored *window*. The window must
//! be invisible: for every brick of a grid, a launch against its windowed
//! texture and one against a texture over the whole padded box — the
//! border ghosts written out by `Volume::materialize_clamped`, no window —
//! agree bit for bit on keys, fragments, per-ray sample counts,
//! `LaunchStats` and `volren.samples_fetched`, with and without macrocells,
//! on the scalar oracle and on the block path.
//!
//! The block path runs the lane march where AVX2 is detected and the solo
//! march elsewhere; `kernel.rs`'s three-way proptest holds the two marches
//! equal to the oracle on a windowed texture too, so here the one this CPU
//! runs stands for both. `volren.samples_fetched` is process-global, so
//! this file holds a single test.

use std::sync::Arc;

use proptest::prelude::*;

use mgpu_gpu::{launch, launch_blocks, LaunchConfig, Texture3D};
use mgpu_obs::names;
use mgpu_voldata::{io, BrickGrid, BrickStore, Dataset, MacroCells, Volume, VolumeSource};
use mgpu_volren::camera::Scene;
use mgpu_volren::kernel::RayCastKernel;
use mgpu_volren::{RenderBrick, Staging, TransferFunction};

fn fetched() -> u64 {
    mgpu_obs::global()
        .snapshot()
        .counter(names::VOLREN_SAMPLES_FETCHED)
        .unwrap_or(0)
}

/// Everything a launch leaves behind that the window could change.
#[derive(Debug, PartialEq)]
struct Shot {
    keys: Vec<u32>,
    fragments: Vec<[u32; 6]>,
    samples: Vec<u64>,
    stats: mgpu_gpu::LaunchStats,
    fetched: u64,
    oracle: Vec<(u32, [u32; 6])>,
    oracle_stats: mgpu_gpu::LaunchStats,
}

fn shoot(kernel: &RayCastKernel<'_>, config: LaunchConfig) -> Shot {
    let bits = |f: &mgpu_volren::Fragment| {
        let [r, g, b, a] = f.color.map(f32::to_bits);
        [r, g, b, a, f.depth.to_bits(), f.exit.to_bits()]
    };
    let before = fetched();
    let out = launch_blocks(kernel, config, 1);
    let fetched = fetched() - before;
    let oracle = launch(kernel, config);
    Shot {
        keys: out.keys,
        fragments: out.values.iter().map(bits).collect(),
        samples: out.samples,
        stats: out.stats,
        fetched,
        oracle: oracle.outputs.iter().map(|(k, f)| (*k, bits(f))).collect(),
        oracle_stats: oracle.stats,
    }
}

/// The volume under test, `source`: 0 procedural, 1 in memory, 2 baked to
/// a file (returned so the caller removes it).
fn volume(dataset: usize, dims: [u32; 3], source: usize) -> (Volume, Option<std::path::PathBuf>) {
    let ds = [Dataset::Skull, Dataset::Supernova, Dataset::Plume][dataset];
    let procedural = Volume::procedural(ds.name(), dims, ds.seed(), ds.field());
    match source {
        0 => (procedural, None),
        1 => (
            Volume::in_memory(ds.name(), dims, procedural.materialize_full()),
            None,
        ),
        _ => {
            let path = std::env::temp_dir().join(format!(
                "mgpu_window_equivalence_{}.vol",
                std::process::id()
            ));
            io::write_volume(&path, dims, &procedural.materialize_full()).unwrap();
            let file = Volume {
                meta: procedural.meta.clone(),
                source: VolumeSource::File(path.clone()),
            };
            (file, Some(path))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_windowed_brick_renders_as_its_padded_box(
        dataset in 0usize..3,
        source in 0usize..3,
        dims in (6u32..22, 6u32..22, 6u32..22),
        // 1 brick per axis touches both borders, 2 one each, 3 has an
        // interior brick touching none.
        counts in (1u32..4, 1u32..4, 1u32..3),
        yaw in 0f32..360.0,
        pitch in -80f32..80.0,
        march in 0usize..3,
    ) {
        let dims = [dims.0, dims.1, dims.2];
        let (volume, baked) = volume(dataset, dims, source);
        let grid = BrickGrid { vol_dims: dims, counts: [counts.0, counts.1, counts.2] };
        let transfer =
            if dataset == 2 { TransferFunction::grayscale() } else { TransferFunction::bone() };
        let scene = Scene::orbit(&volume, yaw, pitch, transfer);
        let lut = scene.transfer.bake();
        let (step, early_term) = [(1.0, 0.98), (0.6, 1.1), (1.7, 0.5)][march];
        let image = (36, 30);
        let store = Arc::new(BrickStore::new(volume.clone(), grid, 1, u64::MAX));
        for id in 0..store.grid().brick_count() {
            let brick = RenderBrick::new(Arc::clone(&store), id, Staging::HostResident);
            let Some((x0, y0, x1, y1)) = brick.footprint(&scene.camera, image.0, image.1) else {
                continue;
            };
            let data = brick.voxels();
            let (origin, padded) = data.info.padded(data.ghost);
            let (windowed, store_origin) = RenderBrick::texture(&data);
            let voxels = Arc::clone(&data.voxels);
            let bare = Texture3D::windowed(padded, data.window(), data.store_dims, voxels);
            // The oracle: the whole padded box, border ghosts written out.
            let full = volume.materialize_clamped(origin, padded);
            let cells = MacroCells::build(&full, padded, [0; 3], padded);
            let cell_bits =
                |c: &MacroCells| c.ranges.iter().map(|r| r.map(f32::to_bits)).collect::<Vec<_>>();
            prop_assert_eq!(cell_bits(&data.cells), cell_bits(&cells), "brick {} cells", id);
            let plain = Texture3D::new(padded, full);
            let celled = plain.clone().with_cells(cells.edge, cells.ranges);

            let (core_lo, core_hi) = brick.core_box();
            let config = LaunchConfig::cover(x1 - x0, y1 - y0);
            for (window, whole) in [(&bare, &plain), (&windowed, &celled)] {
                let kernel = |texture| RayCastKernel {
                    camera: &scene.camera,
                    lut: &lut,
                    texture,
                    store_origin,
                    core_lo,
                    core_hi,
                    image,
                    offset: (x0, y0),
                    step,
                    early_term,
                };
                let got = shoot(&kernel(window), config);
                let want = shoot(&kernel(whole), config);
                prop_assert_eq!(&got, &want, "brick {} of {:?}", id, store.grid().counts);
            }
        }
        if let Some(path) = baked {
            std::fs::remove_file(path).ok();
        }
    }
}
