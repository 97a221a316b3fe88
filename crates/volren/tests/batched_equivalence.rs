//! Property test pinning the batched [`BlockKernel`] ray caster to the
//! retained scalar [`Kernel`] path: for random scenes, step sizes,
//! early-termination thresholds, footprint offsets and launch shapes
//! (including padding threads past the image edge), both paths must produce
//! bit-identical `(Key, Fragment)` columns and identical launch statistics.
//!
//! This is the contract the module docs of `mgpu_volren::kernel` promise —
//! the batched path hoists invariants and uses the borrowing samplers, but
//! executes the same float operations in the same order.

use proptest::prelude::*;

use mgpu_gpu::{launch, launch_blocks, LaunchConfig, Texture3D};
use mgpu_mapreduce::SENTINEL_KEY;
use mgpu_voldata::Dataset;
use mgpu_volren::camera::Scene;
use mgpu_volren::kernel::RayCastKernel;
use mgpu_volren::math::vec3;
use mgpu_volren::TransferFunction;

/// Deterministic pseudo-random voxel field (with a one-voxel ghost shell,
/// like staged bricks) so rays cross both the sampler's interior fast path
/// and its clamped border path.
fn noise_texture(dims: [usize; 3], seed: u64) -> Texture3D {
    let n = dims[0] * dims[1] * dims[2];
    let mut state = seed | 1;
    let data = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) as f32 / (1u64 << 24) as f32
        })
        .collect();
    Texture3D::new(dims, data)
}

/// Deterministic anchor: a full-image launch where the orbit camera frames
/// the volume, so a substantial number of rays *must* hit — guarding against
/// the property trivially passing on all-sentinel outputs.
#[test]
fn full_image_launch_agrees_and_actually_hits() {
    let v = Dataset::Skull.volume(12);
    let scene = Scene::orbit(&v, 30.0, 20.0, TransferFunction::grayscale());
    let lut = scene.transfer.bake();
    let tex = noise_texture([14, 14, 14], 42);
    let kernel = RayCastKernel {
        camera: &scene.camera,
        lut: &lut,
        texture: &tex,
        store_origin: vec3(-1.0, -1.0, -1.0),
        core_lo: vec3(0.0, 0.0, 0.0),
        core_hi: vec3(12.0, 12.0, 12.0),
        image: (96, 96),
        offset: (0, 0),
        step: 0.7,
        early_term: 0.97,
    };
    let config = LaunchConfig::cover(96, 96);
    let scalar = launch(&kernel, config);
    let batched = launch_blocks(&kernel, config, 2);
    assert_eq!(scalar.stats, batched.stats);
    let mut hits = 0usize;
    for (i, (k, f)) in scalar.outputs.iter().enumerate() {
        assert_eq!(*k, batched.keys[i]);
        if *k != SENTINEL_KEY {
            hits += 1;
            assert_eq!(f, &batched.values[i]);
        }
    }
    assert!(hits > 500, "only {hits} hits on a framed volume");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_path_bit_identical_to_scalar(
        az in 0f32..360.0,
        el in -60f32..60.0,
        step_raw in 0.25f32..2.5,
        unit_step in 0u32..2,
        et_raw in 0.3f32..1.0,
        et_disabled in 0u32..2,
        image_w in 16u32..96,
        image_h in 16u32..96,
        off_x in 0u32..48,
        off_y in 0u32..48,
        // Launch sizes that are not multiples of 16 exercise padding
        // threads; sizes larger than the remaining image exercise
        // whole-padding rows and columns.
        launch_w in 1u32..70,
        launch_h in 1u32..70,
        parallelism in 1usize..4,
        seed in 0u64..1_000_000_000_000,
    ) {
        // Mix exact unit steps (no opacity correction) with fractional ones,
        // and ET-disabled thresholds (≥ 1.0) with aggressive ones.
        let step = if unit_step == 0 { 1.0 } else { step_raw };
        let early_term = if et_disabled == 0 { 1.1 } else { et_raw };
        let v = Dataset::Skull.volume(12);
        let scene = Scene::orbit(&v, az, el, TransferFunction::grayscale());
        let lut = scene.transfer.bake();
        let tex = noise_texture([14, 14, 14], seed);
        let kernel = RayCastKernel {
            camera: &scene.camera,
            lut: &lut,
            texture: &tex,
            store_origin: vec3(-1.0, -1.0, -1.0),
            core_lo: vec3(0.0, 0.0, 0.0),
            core_hi: vec3(12.0, 12.0, 12.0),
            image: (image_w, image_h),
            offset: (off_x.min(image_w - 1), off_y.min(image_h - 1)),
            step,
            early_term,
        };

        let config = LaunchConfig::cover(launch_w, launch_h);
        let scalar = launch(&kernel, config);
        let batched = launch_blocks(&kernel, config, parallelism);

        prop_assert_eq!(scalar.outputs.len(), batched.keys.len());
        let mut hits = 0usize;
        for (i, (k, f)) in scalar.outputs.iter().enumerate() {
            prop_assert_eq!(*k, batched.keys[i], "key mismatch at lane {}", i);
            if *k != SENTINEL_KEY {
                hits += 1;
                let bf = &batched.values[i];
                for c in 0..4 {
                    prop_assert_eq!(
                        f.color[c].to_bits(),
                        bf.color[c].to_bits(),
                        "color[{}] mismatch at lane {}",
                        c,
                        i
                    );
                }
                prop_assert_eq!(f.depth.to_bits(), bf.depth.to_bits());
                prop_assert_eq!(f.exit.to_bits(), bf.exit.to_bits());
            }
        }
        // Warp divergence accounting must agree too: the DES cost model is
        // driven by these stats, so the batched path may not drift.
        prop_assert_eq!(scalar.stats, batched.stats);
        // Sanity: at least some cases in the suite have real hits (the orbit
        // camera frames the volume, so a launch at the image center does).
        if kernel.offset == (0, 0) && launch_w >= image_w && launch_h >= image_h {
            prop_assert!(hits > 0, "full-image launch found no fragments");
        }
    }
}
