//! Property tests for brick geometry, clamped materialization and the
//! brick store.

use proptest::prelude::*;
use std::sync::Arc;

use mgpu_voldata::{
    io, BrickGrid, BrickPolicy, BrickStore, Dataset, MacroCells, Volume, VolumeSource,
};

fn arb_dims() -> impl Strategy<Value = [u32; 3]> {
    (2u32..40, 2u32..40, 2u32..40).prop_map(|(x, y, z)| [x, y, z])
}

/// One axis of a clamped region over a `dim`-voxel axis, `(origin, size)`,
/// drawn so every shape of the read path comes up often: the full axis with
/// 0–2 ghost voxels (what makes a region a full-x row or a full x-y slab),
/// a 1-voxel probe inside or outside, a span wholly outside the volume on
/// either side, and an arbitrary partial span.
fn arb_axis(dim: u32) -> impl Strategy<Value = (i64, usize)> {
    let d = dim as i64;
    (0u32..6, -3i64..d + 3, 1usize..6, 0i64..3).prop_map(move |(shape, o, n, ghost)| match shape {
        0 | 1 => (-ghost, (d + 2 * ghost) as usize),
        2 => (o, 1),
        3 => (-(n as i64) - ghost, n),
        4 => (d + ghost, n),
        _ => (o, n),
    })
}

/// A volume and a clamped region of it: `(dims, origin, size)`.
fn arb_region() -> impl Strategy<Value = ([u32; 3], [i64; 3], [usize; 3])> {
    (2u32..8, 2u32..8, 2u32..8).prop_flat_map(|(x, y, z)| {
        (arb_axis(x), arb_axis(y), arb_axis(z))
            .prop_map(move |(ax, ay, az)| ([x, y, z], [ax.0, ay.0, az.0], [ax.1, ay.1, az.1]))
    })
}

/// `volume`'s voxels baked to a raw file and wrapped as a file-backed volume
/// (removed on drop). Each proptest gets its own file via `tag`.
struct Baked {
    volume: Volume,
    path: std::path::PathBuf,
}

impl Baked {
    fn new(volume: &Volume, tag: &str) -> Baked {
        let path =
            std::env::temp_dir().join(format!("mgpu_proptest_{}_{tag}.vol", std::process::id()));
        io::write_volume(&path, volume.dims(), &volume.materialize_full()).unwrap();
        let volume = Volume {
            meta: volume.meta.clone(),
            source: VolumeSource::File(path.clone()),
        };
        Baked { volume, path }
    }
}

impl Drop for Baked {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bricks_partition_the_volume(
        dims in arb_dims(),
        min_bricks in 1u32..30,
        max_vox in 8u64..5000,
    ) {
        let grid = BrickGrid::subdivide(dims, &BrickPolicy { min_bricks, max_brick_voxels: max_vox });
        // Total voxels conserved.
        let total: u64 = grid.bricks().map(|b| b.voxels()).sum();
        prop_assert_eq!(total, dims[0] as u64 * dims[1] as u64 * dims[2] as u64);
        // Per-axis: origins tile each axis without gaps.
        for b in grid.bricks() {
            for (a, dim) in dims.iter().enumerate() {
                prop_assert!(b.origin[a] + b.size[a] <= *dim);
                prop_assert!(b.size[a] >= 1);
            }
        }
        // VRAM constraint honored unless unsatisfiable (single voxel bricks).
        if grid.max_brick_voxels() > max_vox {
            prop_assert!(grid.bricks().any(|b| b.size.contains(&1)));
        }
    }

    #[test]
    fn brick_ids_round_trip_through_coords(
        dims in arb_dims(),
        min_bricks in 1u32..20,
    ) {
        let grid = BrickGrid::subdivide(dims, &BrickPolicy { min_bricks, max_brick_voxels: u64::MAX });
        for id in 0..grid.brick_count() {
            let c = grid.coords(id);
            let back = (c[2] * grid.counts[1] + c[1]) * grid.counts[0] + c[0];
            prop_assert_eq!(back as usize, id);
        }
    }

    #[test]
    fn clamped_materialization_matches_pointwise_clamp(
        (dims, origin, size) in arb_region(),
        seed in 0u64..1000,
    ) {
        let n = (dims[0] * dims[1] * dims[2]) as usize;
        let data: Vec<f32> = (0..n).map(|i| ((i as u64 * 37 + seed) % 101) as f32).collect();
        let vol = Volume::in_memory("p", dims, data.clone());
        let baked = Baked::new(&vol, "pointwise");
        let out = vol.materialize_clamped(origin, size);
        let from_file = baked.volume.materialize_clamped(origin, size);
        prop_assert_eq!(out.len(), size[0] * size[1] * size[2]);
        for z in 0..size[2] {
            for y in 0..size[1] {
                for x in 0..size[0] {
                    let cx = (origin[0] + x as i64).clamp(0, dims[0] as i64 - 1) as usize;
                    let cy = (origin[1] + y as i64).clamp(0, dims[1] as i64 - 1) as usize;
                    let cz = (origin[2] + z as i64).clamp(0, dims[2] as i64 - 1) as usize;
                    let expect = data[cx + dims[0] as usize * (cy + dims[1] as usize * cz)];
                    let at = x + size[0] * (y + size[1] * z);
                    prop_assert_eq!(out[at], expect, "in memory at ({},{},{})", x, y, z);
                    prop_assert_eq!(from_file[at], expect, "from file at ({},{},{})", x, y, z);
                }
            }
        }
    }

    #[test]
    fn procedural_baked_and_resident_sources_agree_bit_for_bit(
        (dims, origin, size) in arb_region(),
        dataset in 0usize..3,
    ) {
        let field = [Dataset::Skull, Dataset::Supernova, Dataset::Plume][dataset].field();
        let procedural = Volume::procedural("p", dims, 0, field);
        let baked = Baked::new(&procedural, "sources");
        let resident = Volume::in_memory("p", dims, procedural.materialize_full());
        let expect = bits(&procedural.materialize_clamped(origin, size));
        prop_assert_eq!(&bits(&baked.volume.materialize_clamped(origin, size)), &expect);
        prop_assert_eq!(&bits(&resident.materialize_clamped(origin, size)), &expect);
    }

    #[test]
    fn store_ghosts_agree_between_neighbours(
        seed in 0u64..500,
        min_bricks in 2u32..12,
    ) {
        let dims = [12u32, 12, 12];
        let n = (dims[0] * dims[1] * dims[2]) as usize;
        let data: Vec<f32> = (0..n).map(|i| ((i as u64).wrapping_mul(seed | 1) % 255) as f32).collect();
        let vol = Volume::in_memory("p", dims, data);
        let grid = BrickGrid::subdivide(dims, &BrickPolicy { min_bricks, max_brick_voxels: u64::MAX });
        let store = Arc::new(BrickStore::new(vol.clone(), grid, 1, u64::MAX));
        // Every brick stores its padded box clipped to the volume, and a
        // read clamped into that window anywhere in the padded box is a
        // direct clamped read of the volume.
        for id in 0..store.grid().brick_count() {
            let b = store.get(id);
            let ((origin, dims), window, stored) = (b.info.padded(b.ghost), b.window(), b.store_dims);
            for a in 0..3 {
                prop_assert_eq!(b.store_origin[a] as i64, origin[a].max(0));
                let end = (origin[a] + dims[a] as i64).min(12) as usize;
                prop_assert_eq!(b.store_origin[a] as usize + stored[a], end);
            }
            let expect = vol.materialize_clamped(origin, dims);
            let at = |a: usize, i: usize| i.clamp(window[a], window[a] + stored[a] - 1) - window[a];
            for (i, want) in expect.iter().enumerate() {
                let (x, y, z) = (i % dims[0], i / dims[0] % dims[1], i / (dims[0] * dims[1]));
                let got = b.voxels[(at(2, z) * stored[1] + at(1, y)) * stored[0] + at(0, x)];
                prop_assert_eq!(got, *want, "brick {} at ({},{},{})", id, x, y, z);
            }
        }
    }

    /// A miss for some rows reads the same voxels into them from every
    /// source, and they are the brick's: the rows are those of a random
    /// set of occupied cells, as a skip grid names them.
    #[test]
    fn every_source_reads_the_same_rows(
        dims in arb_dims(),
        min_bricks in 1u32..9,
        dataset in 0usize..3,
        seed in 0usize..64,
    ) {
        let field = [Dataset::Skull, Dataset::Supernova, Dataset::Plume][dataset].field();
        let procedural = Volume::procedural("p", dims, 0, field);
        let baked = Baked::new(&procedural, "rows");
        let resident = Volume::in_memory("p", dims, procedural.materialize_full());
        let grid = BrickGrid::subdivide(dims, &BrickPolicy { min_bricks, max_brick_voxels: u64::MAX });
        let stores = [procedural, resident, baked.volume.clone()]
            .map(|v| BrickStore::new(v, grid.clone(), 1, u64::MAX));
        let whole = BrickStore::new(baked.volume.clone(), grid.clone(), 1, u64::MAX);
        for id in 0..grid.brick_count() {
            let full = whole.get(id);
            let rows = MacroCells::of(&full).rows(|[x, y, z]| (x * 3 + y * 5 + z * 7 + seed).is_multiple_of(4));
            let d = full.store_dims;
            for (source, store) in stores.iter().enumerate() {
                let (b, read) = store.get_rows(id, &rows);
                prop_assert!(read.is_some());
                prop_assert_eq!(&b.rows, &rows);
                for z in 0..d[2] {
                    let taken = (z * d[1] + rows.slab(z).start) * d[0]..(z * d[1] + rows.slab(z).end) * d[0];
                    prop_assert_eq!(
                        bits(&b.voxels[taken.clone()]),
                        bits(&full.voxels[taken]),
                        "source {}, brick {}, slab {}", source, id, z
                    );
                }
            }
        }
    }

    /// Also: a brick served from the cache, or staged again after an
    /// eviction, holds the voxels a fresh read of its stored box gives.
    #[test]
    fn store_budget_is_respected_after_every_access(
        budget_bricks in 1u64..5,
        accesses in prop::collection::vec(0usize..8, 1..40),
        source in 0usize..3,
    ) {
        let dims = [8u32, 8, 8];
        let procedural = Volume::procedural("p", dims, 0, Dataset::Plume.field());
        let baked = Baked::new(&procedural, "budget");
        let vol = match source {
            0 => procedural,
            1 => Volume::in_memory("p", dims, procedural.materialize_full()),
            _ => baked.volume.clone(),
        };
        let grid = BrickGrid::subdivide(dims, &BrickPolicy { min_bricks: 8, max_brick_voxels: u64::MAX });
        // A brick stores its 6³ padded box clipped to 5³ × 4 B of voxels.
        let brick_bytes = 500;
        let store = BrickStore::new(vol, grid, 1, budget_bricks * brick_bytes);
        for &id in &accesses {
            let b = store.get(id);
            prop_assert!(
                store.cached_bytes() <= budget_bricks.max(1) * brick_bytes,
                "cache over budget: {}",
                store.cached_bytes()
            );
            let mut fresh = vec![0f32; b.voxels.len()];
            store.volume().read_region(b.store_origin, b.store_dims, &mut fresh);
            prop_assert_eq!(bits(&b.voxels), bits(&fresh), "brick {}", id);
        }
    }
}

/// The proptests' volumes are too small for a run to reach the read cap
/// (64 Ki voxels), so this one is not: read in one run, the 100×100×8 core
/// of a clamped 102×102×10 region splits 655 rows and 36 voxels in. A
/// z-slab run and a row run of the same file, and a 656×100×1 volume whose
/// tail run starts and ends inside one row, cover the other ways a run
/// meets the rows of its destination.
#[test]
fn runs_split_at_the_read_cap_mid_row() {
    for (dims, origin, size) in [
        ([100, 100, 8], [-1, -1, -1], [102, 102, 10]),
        ([100, 100, 8], [-1, 10, 2], [102, 50, 4]),
        ([100, 100, 8], [-1, 30, 5], [41, 20, 5]),
        ([656, 100, 1], [-1, -1, -1], [658, 102, 3]),
    ] {
        let n = (dims[0] * dims[1] * dims[2]) as usize;
        let resident = Volume::in_memory("p", dims, (0..n).map(|i| i as f32).collect());
        let baked = Baked::new(&resident, "cap_split");
        assert_eq!(
            bits(&baked.volume.materialize_clamped(origin, size)),
            bits(&resident.materialize_clamped(origin, size)),
            "{dims:?} volume, region {origin:?} + {size:?}"
        );
    }
}
