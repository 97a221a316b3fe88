//! Property tests for the software texture unit and the kernel executor.

use proptest::prelude::*;

use mgpu_gpu::{
    launch, launch_blocks, BlockCtx, BlockKernel, BlockOut, Kernel, LaunchConfig, Texture3D,
    ThreadCtx,
};

fn arb_texture() -> impl Strategy<Value = Texture3D> {
    (2usize..6, 2usize..6, 2usize..6).prop_flat_map(|(x, y, z)| {
        prop::collection::vec(0f32..1.0, x * y * z)
            .prop_map(move |data| Texture3D::new([x, y, z], data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trilinear_sample_is_a_convex_combination(
        tex in arb_texture(),
        px in -2f32..8.0,
        py in -2f32..8.0,
        pz in -2f32..8.0,
    ) {
        // A trilinear sample can never leave the [min, max] of the texels.
        let d = tex.dims();
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for z in 0..d[2] as i64 {
            for y in 0..d[1] as i64 {
                for x in 0..d[0] as i64 {
                    let v = tex.fetch(x, y, z);
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
        }
        let s = tex.sample(px, py, pz);
        prop_assert!(s >= lo - 1e-5 && s <= hi + 1e-5, "{s} outside [{lo},{hi}]");
    }

    #[test]
    fn clamp_addressing_matches_edge_texels(
        tex in arb_texture(),
        along in 0usize..3,
        frac in 0f32..1.0,
    ) {
        // Far outside along one axis, the sample must equal a sample taken
        // exactly at the clamped edge plane.
        let d = tex.dims();
        let inside = [
            0.5 + frac * (d[0] as f32 - 1.0),
            0.5 + frac * (d[1] as f32 - 1.0),
            0.5 + frac * (d[2] as f32 - 1.0),
        ];
        let mut far = inside;
        far[along] = 1.0e4;
        let mut edge = inside;
        edge[along] = d[along] as f32 - 0.5;
        let a = tex.sample(far[0], far[1], far[2]);
        let b = tex.sample(edge[0], edge[1], edge[2]);
        prop_assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }

    #[test]
    fn launch_output_position_encodes_thread_identity(
        gx in 0u32..5, gy in 1u32..5, bx in 1u32..9, by in 1u32..9,
        workers in 1usize..5,
    ) {
        struct Ident;
        impl Kernel for Ident {
            type Out = ((u32, u32), (u32, u32));
            fn thread(&self, ctx: &mut ThreadCtx) -> Self::Out {
                ctx.tally((ctx.global.0 % 5) as u64);
                (ctx.block, ctx.thread)
            }
        }
        /// `Ident`, written once per block.
        struct IdentBlock;
        impl BlockKernel for IdentBlock {
            type Key = (u32, u32);
            type Value = (u32, u32);
            type Launch = ();
            fn prepare(&self) {}
            fn run_block(
                &self,
                _: &(),
                ctx: &BlockCtx,
                out: BlockOut<'_, Self::Key, Self::Value>,
            ) {
                for ty in 0..ctx.dim.1 {
                    for tx in 0..ctx.dim.0 {
                        let i = ctx.index(tx, ty);
                        out.keys[i] = ctx.block;
                        out.values[i] = (tx, ty);
                        out.samples[i] = (ctx.global(tx, ty).0 % 5) as u64;
                    }
                }
            }
        }
        // `gx == 0` is the zero-block grid: nothing runs, nothing panics.
        let config = LaunchConfig { grid: (gx, gy), block: (bx, by) };
        let out = launch(&Ident, config);
        prop_assert_eq!(out.outputs.len(), config.total_threads());
        let tpb = config.threads_per_block();
        for (i, &((cbx, cby), (ctx_, cty))) in out.outputs.iter().enumerate() {
            let block_id = i / tpb;
            let tid = i % tpb;
            prop_assert_eq!(cbx, (block_id as u32) % gx);
            prop_assert_eq!(cby, (block_id as u32) / gx);
            prop_assert_eq!(ctx_, (tid as u32) % bx);
            prop_assert_eq!(cty, (tid as u32) / bx);
        }
        // Deterministic across worker counts: however the blocks are shared
        // out, the batched engine lands every lane where the oracle does.
        let blocks = launch_blocks(&IdentBlock, config, workers);
        let lanes: Vec<_> = blocks.keys.into_iter().zip(blocks.values).collect();
        prop_assert_eq!(lanes, out.outputs);
        prop_assert_eq!(blocks.stats, out.stats);
    }

    #[test]
    fn warp_charging_bounds_total_samples(
        tallies in prop::collection::vec(0u64..100, 32..96),
    ) {
        use std::sync::Mutex;
        struct Tally {
            values: Mutex<Vec<u64>>,
        }
        impl Kernel for Tally {
            type Out = u8;
            fn thread(&self, ctx: &mut ThreadCtx) -> u8 {
                let mut v = self.values.lock().unwrap();
                let n = v.pop().unwrap_or(0);
                ctx.tally(n);
                0
            }
        }
        let n = tallies.len() as u32;
        let kernel = Tally { values: Mutex::new(tallies.clone()) };
        let out = launch(
            &kernel,
            LaunchConfig { grid: (1, 1), block: (n, 1) },
        );
        let total: u64 = tallies.iter().sum();
        prop_assert_eq!(out.stats.total_samples, total);
        // SIMT charge is at least the total and at most 32× it.
        prop_assert!(out.stats.simt_samples >= total);
        prop_assert!(out.stats.simt_samples <= total * 32 + 32 * 100);
    }
}
