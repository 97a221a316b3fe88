//! Volumes: metadata plus a voxel source (procedural field, raw file, or an
//! in-memory array). A region is read densely and in bounds; a clamped
//! region, which may reach past the volume, is the oracle a brick's
//! windowed texture is tested against.

use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;

use crate::field::ScalarField;
use crate::io;

/// Metadata describing a scalar volume of `f32` samples.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VolumeMeta {
    pub name: String,
    /// Voxel dimensions, x/y/z. x varies fastest in memory.
    pub dims: [u32; 3],
    /// Seed used for procedural generation (recorded for provenance).
    pub seed: u64,
    /// Cheap content fingerprint: hashes the voxel data (in-memory sources)
    /// or a deterministic probe of the field (procedural sources), so two
    /// volumes that agree on `(name, dims, seed)` but hold different voxels
    /// still compare (and hash) unequal. Callers that wrap the same content
    /// in a different source (e.g. baking a procedural volume to a file)
    /// clone the meta, keeping the fingerprint.
    pub content: u64,
}

impl VolumeMeta {
    pub fn voxel_count(&self) -> u64 {
        self.dims[0] as u64 * self.dims[1] as u64 * self.dims[2] as u64
    }

    /// Bytes of the full volume at 4 bytes per sample (the paper's volumes
    /// all use four-byte floating-point samples).
    pub fn bytes(&self) -> u64 {
        self.voxel_count() * 4
    }

    pub fn label(&self) -> String {
        let [x, y, z] = self.dims;
        if x == y && y == z {
            format!("{}-{}^3", self.name, x)
        } else {
            format!("{}-{}x{}x{}", self.name, x, y, z)
        }
    }
}

/// Where voxels come from.
#[derive(Clone)]
pub enum VolumeSource {
    /// Sampled on demand from a continuous field at voxel centers.
    Procedural(Arc<dyn ScalarField>),
    /// Read on demand from a raw volume file (see [`crate::io`]).
    File(PathBuf),
    /// Fully resident (tests, small volumes).
    InMemory(Arc<Vec<f32>>),
}

impl std::fmt::Debug for VolumeSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VolumeSource::Procedural(_) => write!(f, "Procedural"),
            VolumeSource::File(p) => write!(f, "File({})", p.display()),
            VolumeSource::InMemory(v) => write!(f, "InMemory({} voxels)", v.len()),
        }
    }
}

/// The FNV-1a offset basis: seed [`fnv1a`] chains with this.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over arbitrary bytes, seeded with a running hash — stable across
/// runs and platforms. This is the one hash used wherever stability
/// matters: content fingerprints here, rendezvous shard routing in
/// `mgpu-serve`. Chain calls by feeding one call's result as the next
/// call's `hash`.
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Content fingerprint of fully resident voxel data.
pub(crate) fn data_fingerprint(data: &[f32]) -> u64 {
    let mut h = fnv1a(&(data.len() as u64).to_le_bytes(), FNV_OFFSET);
    for v in data {
        h = fnv1a(&v.to_bits().to_le_bytes(), h);
    }
    h
}

/// Content fingerprint of a procedural field: probe it at a fixed set of
/// seed-derived quasi-random points. Cheap (32 samples) yet sensitive to the
/// field itself, so two fields registered under the same `(name, dims,
/// seed)` still fingerprint apart with overwhelming probability.
fn field_fingerprint(field: &dyn ScalarField, seed: u64) -> u64 {
    let mut h = fnv1a(&seed.to_le_bytes(), FNV_OFFSET);
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next_unit = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f32 / (1u64 << 53) as f32
    };
    for _ in 0..32 {
        let (x, y, z) = (next_unit(), next_unit(), next_unit());
        h = fnv1a(&field.sample(x, y, z).to_bits().to_le_bytes(), h);
    }
    h
}

/// A scalar volume: metadata + voxel source.
#[derive(Debug, Clone)]
pub struct Volume {
    pub meta: VolumeMeta,
    pub source: VolumeSource,
}

impl Volume {
    pub fn procedural(
        name: impl Into<String>,
        dims: [u32; 3],
        seed: u64,
        field: Arc<dyn ScalarField>,
    ) -> Volume {
        let content = field_fingerprint(field.as_ref(), seed);
        Volume {
            meta: VolumeMeta {
                name: name.into(),
                dims,
                seed,
                content,
            },
            source: VolumeSource::Procedural(field),
        }
    }

    pub fn in_memory(name: impl Into<String>, dims: [u32; 3], data: Vec<f32>) -> Volume {
        let meta = VolumeMeta {
            name: name.into(),
            dims,
            seed: 0,
            content: data_fingerprint(&data),
        };
        assert_eq!(
            data.len() as u64,
            meta.voxel_count(),
            "voxel data does not match dims"
        );
        Volume {
            meta,
            source: VolumeSource::InMemory(Arc::new(data)),
        }
    }

    pub fn dims(&self) -> [u32; 3] {
        self.meta.dims
    }

    /// Read an **in-bounds** region into `out` (x-fastest layout).
    pub fn read_region(&self, origin: [u32; 3], size: [usize; 3], out: &mut [f32]) {
        self.read_rows(origin, size, |_| 0..size[1], out);
    }

    /// [`Volume::read_region`], taking of each z-slab `z` of the region only
    /// the y-rows `rows(z)`: every source reads the same voxels into them,
    /// and leaves the rest of `out` as it is.
    pub(crate) fn read_rows(
        &self,
        origin: [u32; 3],
        size: [usize; 3],
        rows: impl Fn(usize) -> Range<usize> + Sync,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), size[0] * size[1] * size[2]);
        let d = self.meta.dims;
        assert!(
            (0..3).all(|a| origin[a] as usize + size[a] <= d[a] as usize),
            "region out of bounds: origin {origin:?} size {size:?} dims {d:?}"
        );
        if out.is_empty() {
            return;
        }
        match &self.source {
            VolumeSource::Procedural(field) => {
                materialize_procedural(field.as_ref(), d, origin, size, rows, out);
            }
            VolumeSource::File(path) => {
                let (first, map) = io::map_region(path, d, origin, size)
                    .unwrap_or_else(|e| panic!("reading region from {path:?}: {e}"));
                io::copy_rows(&map, first, d, origin, size, rows, out);
            }
            VolumeSource::InMemory(data) => io::copy_rows(data, 0, d, origin, size, rows, out),
        }
    }

    /// A file-backed volume's in-bounds, non-empty region mapped in place,
    /// when the region spans full x and y — one contiguous range of the
    /// file, which the mapping derefs to, x fastest. `None` for any other
    /// region or source.
    pub(crate) fn map_box(&self, origin: [u32; 3], size: [usize; 3]) -> Option<io::Mapping> {
        let d = self.meta.dims;
        let VolumeSource::File(path) = &self.source else {
            return None;
        };
        if size[0] != d[0] as usize || size[1] != d[1] as usize {
            return None;
        }
        let (_, map) = io::map_region(path, d, origin, size)
            .unwrap_or_else(|e| panic!("mapping region from {path:?}: {e}"));
        Some(map)
    }

    /// Materialize a region that may extend past the volume (negative or
    /// too-large coordinates), replicating edge voxels — the same clamping a
    /// CUDA 3-D texture in clamp-address mode performs: the reference
    /// renderer's, point probes' and the tests' oracle. Bricks do not store
    /// this shell; their textures clamp into what they store.
    pub fn materialize_clamped(&self, origin: [i64; 3], size: [usize; 3]) -> Vec<f32> {
        let d = self.meta.dims.map(|d| d as i64);
        // A region wholly outside the volume clamps to its nearest face.
        let lo = [0, 1, 2].map(|a| origin[a].clamp(0, d[a] - 1));
        let hi = [0, 1, 2].map(|a| (origin[a] + size[a] as i64 - 1).clamp(lo[a], d[a] - 1));
        let n = [0, 1, 2].map(|a| (hi[a] - lo[a] + 1) as usize);
        let mut core = vec![0f32; n[0] * n[1] * n[2]];
        self.read_region(lo.map(|v| v as u32), n, &mut core);
        let at = |a: usize, i: usize| ((origin[a] + i as i64).clamp(lo[a], hi[a]) - lo[a]) as usize;
        let mut out = Vec::with_capacity(size[0] * size[1] * size[2]);
        for z in 0..size[2] {
            for y in 0..size[1] {
                let row = &core[(at(2, z) * n[1] + at(1, y)) * n[0]..][..n[0]];
                out.extend((0..size[0]).map(|x| row[at(0, x)]));
            }
        }
        out
    }

    /// Materialize the entire volume (small volumes and tests only).
    pub fn materialize_full(&self) -> Vec<f32> {
        let d = self.meta.dims;
        let size = [d[0] as usize, d[1] as usize, d[2] as usize];
        let mut out = vec![0f32; size[0] * size[1] * size[2]];
        self.read_region([0, 0, 0], size, &mut out);
        out
    }

    /// Voxel value at integer coordinates (clamped); for tests and point
    /// probes, not bulk access.
    pub fn voxel(&self, x: i64, y: i64, z: i64) -> f32 {
        self.materialize_clamped([x, y, z], [1, 1, 1])[0]
    }
}

/// Sample a field at voxel centers over a region's rows `rows(z)` of each
/// z-slab `z`, one [`ScalarField::sample_row`] call per row, splitting
/// z-slabs across threads for large regions. `out` is dense, x fastest.
fn materialize_procedural(
    field: &dyn ScalarField,
    dims: [u32; 3],
    origin: [u32; 3],
    size: [usize; 3],
    rows: impl Fn(usize) -> Range<usize> + Sync,
    out: &mut [f32],
) {
    let inv = [
        1.0 / dims[0] as f32,
        1.0 / dims[1] as f32,
        1.0 / dims[2] as f32,
    ];
    let xs: Vec<f32> = (0..size[0])
        .map(|x| (origin[0] as f32 + x as f32 + 0.5) * inv[0])
        .collect();
    let fill_slab = |z_lo: usize, z_hi: usize, slab: &mut [f32]| {
        for (zi, z) in (z_lo..z_hi).enumerate() {
            let wz = (origin[2] as f32 + z as f32 + 0.5) * inv[2];
            for y in rows(z) {
                let wy = (origin[1] as f32 + y as f32 + 0.5) * inv[1];
                let row = (zi * size[1] + y) * size[0];
                field.sample_row(&xs, wy, wz, &mut slab[row..row + size[0]]);
            }
        }
    };

    let total = size[0] * size[1] * size[2];
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if total < (1 << 18) || threads < 2 || size[2] < 2 {
        fill_slab(0, size[2], out);
        return;
    }

    let slab_voxels = size[0] * size[1];
    let chunk_z = size[2].div_ceil(threads);
    std::thread::scope(|scope| {
        for (ti, chunk) in out.chunks_mut(chunk_z * slab_voxels).enumerate() {
            let z_lo = ti * chunk_z;
            let z_hi = (z_lo + chunk_z).min(size[2]);
            if z_lo < z_hi {
                scope.spawn(move || fill_slab(z_lo, z_hi, chunk));
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::AxisRamp;

    fn ramp_volume(dims: [u32; 3]) -> Volume {
        Volume::procedural("ramp", dims, 0, Arc::new(AxisRamp { axis: 0 }))
    }

    #[test]
    fn meta_math() {
        let m = VolumeMeta {
            name: "v".into(),
            dims: [64, 64, 64],
            seed: 0,
            content: 0,
        };
        assert_eq!(m.voxel_count(), 262_144);
        assert_eq!(m.bytes(), 1_048_576); // the paper's 1 MiB 64³ brick
        assert_eq!(m.label(), "v-64^3");
    }

    #[test]
    fn procedural_samples_at_voxel_centers() {
        let v = ramp_volume([8, 4, 4]);
        let full = v.materialize_full();
        // x=0 center is 0.5/8; x=7 center is 7.5/8.
        assert!((full[0] - 0.0625).abs() < 1e-6);
        assert!((full[7] - 0.9375).abs() < 1e-6);
    }

    #[test]
    fn rows_sample_at_the_voxel_centers_of_the_region() {
        // `1/24` is inexact, so only `(origin + x + 0.5) * (1/24)` gives
        // these bits for a row that starts mid-volume.
        let v = ramp_volume([24, 3, 2]);
        let mut out = vec![0f32; 17];
        v.read_region([7, 1, 1], [17, 1, 1], &mut out);
        for (x, got) in out.iter().enumerate() {
            let center = (7.0 + x as f32 + 0.5) * (1.0 / 24.0f32);
            assert_eq!(got.to_bits(), center.to_bits(), "voxel {x}");
        }
    }

    #[test]
    fn in_memory_region_read() {
        let dims = [4u32, 3, 2];
        let data: Vec<f32> = (0..24).map(|i| i as f32).collect();
        let v = Volume::in_memory("m", dims, data);
        let mut out = vec![0f32; 2 * 2];
        v.read_region([1, 1, 1], [2, 2, 1], &mut out);
        // index = x + 4*(y + 3*z): (1,1,1)=17, (2,1,1)=18, (1,2,1)=21, (2,2,1)=22
        assert_eq!(out, vec![17.0, 18.0, 21.0, 22.0]);
    }

    #[test]
    fn clamped_region_replicates_edges() {
        let dims = [2u32, 2, 2];
        let data: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let v = Volume::in_memory("m", dims, data);
        // One-voxel ghost all around a 2³ volume = 4³ output.
        let out = v.materialize_clamped([-1, -1, -1], [4, 4, 4]);
        assert_eq!(out.len(), 64);
        // Corner ghost voxel replicates voxel (0,0,0) = 0.
        assert_eq!(out[0], 0.0);
        // Far corner replicates voxel (1,1,1) = 7.
        assert_eq!(out[63], 7.0);
        // Interior voxel (1,1,1) of output = volume voxel (0,0,0).
        assert_eq!(out[1 + 4 * (1 + 4)], 0.0);
        // Output (2,2,2) = volume voxel (1,1,1) = 7.
        assert_eq!(out[2 + 4 * (2 + 4 * 2)], 7.0);
    }

    #[test]
    fn clamped_equals_unclamped_inside() {
        let v = ramp_volume([16, 16, 16]);
        let a = v.materialize_clamped([4, 5, 6], [3, 3, 3]);
        let mut b = vec![0f32; 27];
        v.read_region([4, 5, 6], [3, 3, 3], &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_and_serial_materialization_agree() {
        // Big enough to trigger the threaded path.
        let v = ramp_volume([128, 64, 64]);
        let par = v.materialize_full();
        let mut ser = vec![0f32; par.len()];
        // Force serial by materializing slab-by-slab.
        for z in 0..64 {
            let mut slab = vec![0f32; 128 * 64];
            v.read_region([0, 0, z], [128, 64, 1], &mut slab);
            ser[(z as usize) * 128 * 64..(z as usize + 1) * 128 * 64].copy_from_slice(&slab);
        }
        assert_eq!(par, ser);
    }

    #[test]
    fn voxel_probe() {
        let dims = [4u32, 4, 4];
        let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let v = Volume::in_memory("m", dims, data);
        assert_eq!(v.voxel(1, 2, 3), (1 + 4 * (2 + 4 * 3)) as f32);
        // Clamped outside.
        assert_eq!(v.voxel(-5, 0, 0), 0.0);
        assert_eq!(v.voxel(9, 3, 3), 63.0);
    }

    #[test]
    fn content_fingerprint_separates_same_meta_volumes() {
        let dims = [4u32, 4, 4];
        let a: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let mut b = a.clone();
        b[40] += 1.0; // one differing voxel
        let va = Volume::in_memory("twin", dims, a.clone());
        let vb = Volume::in_memory("twin", dims, b);
        assert_eq!(va.meta.name, vb.meta.name);
        assert_eq!(va.meta.dims, vb.meta.dims);
        assert_eq!(va.meta.seed, vb.meta.seed);
        assert_ne!(va.meta.content, vb.meta.content, "voxels differ");
        assert_ne!(va.meta, vb.meta);
        // Identical content reproduces the identical fingerprint.
        let va2 = Volume::in_memory("twin", dims, a);
        assert_eq!(va.meta, va2.meta);
    }

    #[test]
    fn content_fingerprint_separates_procedural_fields() {
        let x = Volume::procedural("f", [8, 8, 8], 7, Arc::new(AxisRamp { axis: 0 }));
        let y = Volume::procedural("f", [8, 8, 8], 7, Arc::new(AxisRamp { axis: 1 }));
        assert_ne!(x.meta.content, y.meta.content, "fields differ");
        // Deterministic: the same field + seed always fingerprints the same.
        let x2 = Volume::procedural("f", [8, 8, 8], 7, Arc::new(AxisRamp { axis: 0 }));
        assert_eq!(x.meta.content, x2.meta.content);
    }

    #[test]
    #[should_panic(expected = "region out of bounds")]
    fn read_region_rejects_oob() {
        let v = ramp_volume([8, 8, 8]);
        let mut out = vec![0f32; 8];
        v.read_region([6, 0, 0], [8, 1, 1], &mut out);
    }
}
