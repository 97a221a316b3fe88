//! Golden voxel bits of the procedural datasets.
//!
//! Each hash is FNV-1a over the little-endian bits of every voxel of one
//! materialization, in memory order. The values were taken from the per-point
//! synthesis (one `ScalarField::sample` per voxel), so any change to how the
//! datasets are synthesized must keep every voxel's exact bits: these bits
//! feed `VolumeMeta::content`, every `RequestKey` and every frame.

use mgpu_voldata::volume::{fnv1a, FNV_OFFSET};
use mgpu_voldata::Dataset;

fn voxel_hash(voxels: &[f32]) -> u64 {
    voxels
        .iter()
        .fold(FNV_OFFSET, |h, v| fnv1a(&v.to_bits().to_le_bytes(), h))
}

#[test]
fn materialize_full_keeps_its_golden_bits() {
    // Skull and Supernova at 64 are 2^18 voxels: the threaded z-slab split.
    let golden: [(Dataset, u32, u64); 6] = [
        (Dataset::Skull, 32, 0x31f2_340a_32a9_daf9),
        (Dataset::Skull, 64, 0xfc6e_77bf_2203_accf),
        (Dataset::Supernova, 32, 0x17f5_9ff1_cbfa_d230),
        (Dataset::Supernova, 64, 0x9c81_3819_6344_2ae6),
        (Dataset::Plume, 16, 0x623f_dece_bacd_7c6f),
        (Dataset::Plume, 32, 0x3c86_c8bc_af91_53da),
    ];
    let got: Vec<_> = golden
        .iter()
        .map(|&(ds, base, _)| (ds, base, voxel_hash(&ds.volume(base).materialize_full())))
        .collect();
    assert_eq!(got, golden.to_vec(), "voxel bits moved");
}

#[test]
fn ghosted_region_keeps_its_golden_bits() {
    // A ghosted region hanging off the volume below y and above z, whose
    // core starts mid-row: with 24 voxels a side, `1/24` is inexact, so a
    // voxel-center x computed any other way moves bits.
    let volume = Dataset::Plume.volume(24);
    let region = volume.materialize_clamped([7, -1, 90], [12, 14, 10]);
    assert_eq!(
        voxel_hash(&region),
        0xbf74_14bd_33b5_ba9a,
        "ghosted voxel bits moved"
    );
}
