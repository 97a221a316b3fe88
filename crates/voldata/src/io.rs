//! Raw volume file I/O.
//!
//! Format `MGVOL001`: an 8-byte magic, three little-endian `u32` dimensions,
//! then `x·y·z` little-endian `f32` samples, x varying fastest. Dead simple on
//! purpose — the paper treats volume files as pre-bricked raw data and is
//! explicit that its library is "hard-disk agnostic".
//!
//! Reading a region is the out-of-core brick-load path. A read takes, per
//! z-slab of the region, one run of y-rows (every row, for
//! [`read_region`]), and costs one positioned read per *file-contiguous
//! run* of what it takes — the whole region if it takes every row and
//! spans full x and y of the volume, a slab's rows if it spans full x, else
//! a row — each straight into its place in the dense destination: the bytes
//! land as they lie in the file. No staging buffer, no decode pass, no
//! move. Rows a read does not take are left as they are.
//! [`VolumeWriter`] is the way back: header, then slabs appended as the
//! bytes they occupy. Both rest on [`f32_bytes`] and [`f32_bytes_mut`],
//! `f32`s viewed as the bytes they occupy, behind a compile-time
//! little-endian assertion.

use std::fs::File;
use std::io::{self, Write};
use std::ops::Range;
use std::path::Path;

pub const MAGIC: &[u8; 8] = b"MGVOL001";
const HEADER_BYTES: usize = 8 + 12;
/// Voxels per positioned read (256 KiB), the cap a longer run is split at:
/// a brick is a handful of syscalls.
const STAGE_VOXELS: usize = 64 << 10;

// The views below hand voxel memory to the file, and the file's bytes to
// voxel memory, as they are — which is `MGVOL001`'s little-endian `f32`
// only on a little-endian host.
const _: () = assert!(
    cfg!(target_endian = "little"),
    "f32s are read and written as they lie in memory: little-endian hosts only"
);

/// `values` as the bytes they occupy — their little-endian encoding.
pub fn f32_bytes(values: &[f32]) -> &[u8] {
    // SAFETY: the pointer and byte length are those of `values` itself,
    // borrowed for the returned lifetime; `f32` has no padding, `u8` has
    // alignment 1, and any initialised memory is valid `u8`s.
    unsafe { std::slice::from_raw_parts(values.as_ptr().cast(), std::mem::size_of_val(values)) }
}

/// `values` as the bytes they occupy, writable: bytes stored here *are*
/// the decoded values.
pub fn f32_bytes_mut(values: &mut [f32]) -> &mut [u8] {
    let len = std::mem::size_of_val(values);
    // SAFETY: as in `f32_bytes`, over an exclusive borrow; and every bit
    // pattern is a valid `f32`, so no write through the view can leave
    // `values` holding an invalid value.
    unsafe { std::slice::from_raw_parts_mut(values.as_mut_ptr().cast(), len) }
}

/// Streaming volume writer: the header on `create`, then x-fastest voxels
/// `append`ed in any slab sizes, checked against the header on `finish`.
pub struct VolumeWriter {
    file: File,
    remaining: u64,
}

impl VolumeWriter {
    pub fn create(path: &Path, dims: [u32; 3]) -> io::Result<VolumeWriter> {
        let mut file = File::create(path)?;
        file.write_all(MAGIC)?;
        for d in dims {
            file.write_all(&d.to_le_bytes())?;
        }
        Ok(VolumeWriter {
            file,
            remaining: dims.iter().map(|&d| d as u64).product(),
        })
    }

    pub fn append(&mut self, voxels: &[f32]) -> io::Result<()> {
        let left = self.remaining.checked_sub(voxels.len() as u64);
        self.remaining = left.expect("more voxels appended than the header's dims hold");
        self.file.write_all(f32_bytes(voxels))
    }

    /// Check that exactly the header's voxel count was appended.
    pub fn finish(self) {
        assert_eq!(self.remaining, 0, "data length does not match dims");
    }
}

/// Write a full volume to `path`.
pub fn write_volume(path: &Path, dims: [u32; 3], data: &[f32]) -> io::Result<()> {
    let mut w = VolumeWriter::create(path, dims)?;
    w.append(data)?;
    w.finish();
    Ok(())
}

/// Attach the path to an I/O error, keeping its kind.
fn with_path(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Open a volume file and validate its header, returning the dimensions.
fn open(path: &Path) -> io::Result<(File, [u32; 3])> {
    let file = File::open(path)?;
    let mut header = [0u8; HEADER_BYTES];
    read_exact_at(&file, &mut header, 0).map_err(|e| with_path(path, e))?;
    if &header[..8] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad magic in {path:?}"),
        ));
    }
    let mut dims = [0u32; 3];
    for (d, b) in dims.iter_mut().zip(header[8..].chunks_exact(4)) {
        *d = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
    Ok((file, dims))
}

/// Read and validate the header, returning the dimensions.
pub fn read_header(path: &Path) -> io::Result<[u32; 3]> {
    open(path).map(|(_, dims)| dims)
}

/// One positioned read: `len` voxels contiguous in the file from voxel
/// `src`, which are the region's voxels from dense (x-fastest) index `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    src: u64,
    at: usize,
    len: usize,
}

/// The reads that fetch an in-bounds, non-empty region's rows `rows(z)` of
/// each z-slab `z`, in file order: one per file-contiguous run — whole rows
/// that follow each other in the file and in the region are one run, so a
/// region spanning full x is a run per slab, and one taking every row of
/// full x and y a single run — split so none exceeds `cap`.
fn plan_runs(
    dims: [u32; 3],
    origin: [u32; 3],
    size: [usize; 3],
    rows: impl Fn(usize) -> Range<usize>,
    cap: usize,
) -> Vec<Run> {
    let (dx, dy) = (dims[0] as u64, dims[1] as u64);
    let mut runs: Vec<Run> = Vec::new();
    for z in 0..size[2] {
        for y in rows(z) {
            let src = ((origin[2] as u64 + z as u64) * dy + origin[1] as u64 + y as u64) * dx
                + origin[0] as u64;
            let at = (z * size[1] + y) * size[0];
            match runs.last_mut() {
                Some(run) if run.src + run.len as u64 == src && run.at + run.len == at => {
                    run.len += size[0];
                }
                _ => runs.push(Run {
                    src,
                    at,
                    len: size[0],
                }),
            }
        }
    }
    runs.into_iter()
        .flat_map(|run| {
            (0..run.len).step_by(cap).map(move |o| Run {
                src: run.src + o as u64,
                at: run.at + o,
                len: cap.min(run.len - o),
            })
        })
        .collect()
}

/// Read an in-bounds region into `out`, x fastest: `out` holds exactly the
/// region's voxels. The file's header must carry `dims` — every offset
/// would be wrong otherwise — and a file shorter than its header claims is
/// `UnexpectedEof`; both errors name the path.
pub fn read_region(
    path: &Path,
    dims: [u32; 3],
    origin: [u32; 3],
    size: [usize; 3],
    out: &mut [f32],
) -> io::Result<()> {
    read_rows(path, dims, origin, size, |_| 0..size[1], out)
}

/// [`read_region`], taking of each z-slab `z` only the y-rows `rows(z)`
/// (each within `0..size[1]`); the rest of `out` is left as it is. One
/// `open` per call.
pub(crate) fn read_rows(
    path: &Path,
    dims: [u32; 3],
    origin: [u32; 3],
    size: [usize; 3],
    rows: impl Fn(usize) -> Range<usize>,
    out: &mut [f32],
) -> io::Result<()> {
    let (file, file_dims) = open(path)?;
    if file_dims != dims {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{path:?} holds {file_dims:?} voxels, expected {dims:?}"),
        ));
    }
    assert!(
        (0..3).all(|a| origin[a] as usize + size[a] <= dims[a] as usize),
        "region out of bounds: origin {origin:?} size {size:?} dims {dims:?}"
    );
    assert_eq!(
        out.len(),
        size.iter().product(),
        "region does not match out"
    );
    if out.is_empty() {
        return Ok(());
    }
    for run in plan_runs(dims, origin, size, rows, STAGE_VOXELS) {
        let bytes = f32_bytes_mut(&mut out[run.at..run.at + run.len]);
        read_exact_at(&file, bytes, HEADER_BYTES as u64 + run.src * 4)
            .map_err(|e| with_path(path, e))?;
    }
    Ok(())
}

#[cfg(unix)]
fn read_exact_at(f: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    f.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_exact_at(f: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = f;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read the full volume.
    fn read_volume(path: &Path) -> io::Result<([u32; 3], Vec<f32>)> {
        let dims = read_header(path)?;
        let size = dims.map(|d| d as usize);
        let mut out = vec![0f32; size[0] * size[1] * size[2]];
        read_region(path, dims, [0, 0, 0], size, &mut out)?;
        Ok((dims, out))
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mgpu_voldata_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trip_full_volume() {
        let path = tmp("rt.vol");
        let dims = [5u32, 3, 2];
        let data: Vec<f32> = (0..30).map(|i| i as f32 * 0.25).collect();
        write_volume(&path, dims, &data).unwrap();
        let (rd, rdata) = read_volume(&path).unwrap();
        assert_eq!(rd, dims);
        assert_eq!(rdata, data);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn region_read_matches_memory_slice() {
        let path = tmp("region.vol");
        let dims = [8u32, 8, 8];
        let data: Vec<f32> = (0..512).map(|i| (i * 7 % 101) as f32).collect();
        write_volume(&path, dims, &data).unwrap();

        let mut out = vec![0f32; 3 * 2 * 4];
        read_region(&path, dims, [2, 5, 1], [3, 2, 4], &mut out).unwrap();
        for z in 0..4usize {
            for y in 0..2usize {
                for x in 0..3usize {
                    let src = (2 + x) + 8 * ((5 + y) + 8 * (1 + z));
                    assert_eq!(out[(z * 2 + y) * 3 + x], data[src]);
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    fn runs(dims: [u32; 3], origin: [u32; 3], size: [usize; 3], cap: usize) -> Vec<Run> {
        plan_runs(dims, origin, size, |_| 0..size[1], cap)
    }

    fn run(src: u64, at: usize, len: usize) -> Run {
        Run { src, at, len }
    }

    #[test]
    fn planner_yields_one_run_per_contiguous_span() {
        let dims = [8u32, 6, 5];
        // Full x and y: the whole region is one run.
        let r = runs(dims, [0, 0, 1], [8, 6, 3], usize::MAX);
        assert_eq!(r, [run(48, 0, 144)]);
        // Full x only: one run per z-slab.
        let r = runs(dims, [0, 2, 1], [8, 3, 4], usize::MAX);
        assert_eq!(r.len(), 4);
        assert_eq!(r[1], run(2 * 48 + 2 * 8, 24, 24));
        // Partial x: one run per row.
        let r = runs(dims, [3, 2, 1], [4, 3, 2], usize::MAX);
        assert_eq!(r.len(), 3 * 2);
        assert_eq!(r[4], run(2 * 48 + 3 * 8 + 3, 16, 4));
    }

    #[test]
    fn planner_splits_runs_at_the_staging_cap() {
        let r = runs([8, 6, 5], [0, 0, 0], [8, 6, 5], 100);
        assert_eq!(r, [run(0, 0, 100), run(100, 100, 100), run(200, 200, 40)]);
        // Each run splits on its own: 2 slabs of 24 under a cap of 16.
        let r = runs([8, 6, 5], [0, 1, 2], [8, 3, 2], 16);
        let spans: Vec<(usize, usize)> = r.iter().map(|r| (r.at, r.len)).collect();
        assert_eq!(spans, [(0, 16), (16, 8), (24, 16), (40, 8)]);
    }

    #[test]
    fn planner_takes_only_each_slabs_rows() {
        let dims = [8u32, 6, 5];
        let rows = |z: usize| [1..3, 0..0, 0..6, 2..6][z].clone();
        // Full x and y: a slab's rows are one run and an empty slab none;
        // slab 3 takes no row 0, so slabs 2 and 3 do not meet in the file.
        let r = plan_runs(dims, [0, 0, 1], [8, 6, 4], rows, usize::MAX);
        assert_eq!(
            r,
            [
                run(48 + 8, 8, 16),
                run(3 * 48, 96, 48),
                run(4 * 48 + 16, 160, 32)
            ]
        );
        // Every row of slab 1 and the first of slab 2 follow each other.
        let rows = |z: usize| [0..6, 0..1][z].clone();
        let r = plan_runs(dims, [0, 0, 1], [8, 6, 2], rows, usize::MAX);
        assert_eq!(r, [run(48, 0, 56)]);
        // Partial x: one run per row taken.
        let r = plan_runs(dims, [3, 2, 1], [4, 3, 2], |z| z..z + 2, usize::MAX);
        assert_eq!(r.iter().map(|r| r.at).collect::<Vec<_>>(), [0, 4, 16, 20]);
    }

    #[test]
    fn a_rows_read_leaves_the_rows_it_does_not_take() {
        let path = tmp("rows.vol");
        let dims = [4u32, 3, 2];
        let data: Vec<f32> = (0..24).map(|i| i as f32).collect();
        write_volume(&path, dims, &data).unwrap();
        let mut out = vec![-1f32; 24];
        read_rows(
            &path,
            dims,
            [0, 0, 0],
            [4, 3, 2],
            |z| [1..2, 0..3][z].clone(),
            &mut out,
        )
        .unwrap();
        for (i, (&got, &want)) in out.iter().zip(&data).enumerate() {
            let (y, z) = (i / 4 % 3, i / 12);
            let taken = z == 1 || y == 1;
            assert_eq!(got, if taken { want } else { -1.0 }, "voxel {i}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn region_read_rejects_a_file_with_other_dims() {
        let path = tmp("dims.vol");
        write_volume(&path, [4, 4, 2], &[0.0; 32]).unwrap();
        let mut out = vec![0f32; 4];
        let e = read_region(&path, [4, 2, 4], [0, 0, 0], [4, 1, 1], &mut out).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("dims.vol"), "{e}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_unexpected_eof_naming_the_path() {
        let path = tmp("short.vol");
        write_volume(&path, [4, 4, 2], &[1.0; 32]).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 6)
            .unwrap();
        let mut out = vec![0f32; 32];
        let e = read_region(&path, [4, 4, 2], [0, 0, 0], [4, 4, 2], &mut out).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
        assert!(e.to_string().contains("short.vol"), "{e}");
        // So is a file too short to hold a header.
        std::fs::write(&path, b"MGVOL001").unwrap();
        let e = read_header(&path).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
        assert!(e.to_string().contains("short.vol"), "{e}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_streams_slabs_of_any_size() {
        let path = tmp("stream.vol");
        let dims = [5u32, 3, 4];
        let data: Vec<f32> = (0..60).map(|i| i as f32 * -1.5).collect();
        let mut w = VolumeWriter::create(&path, dims).unwrap();
        for slab in data.chunks(17) {
            w.append(slab).unwrap();
        }
        w.finish();
        assert_eq!(read_volume(&path).unwrap(), (dims, data));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let path = tmp("bad.vol");
        std::fs::write(&path, b"NOTAVOLUME______").unwrap();
        assert!(read_header(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_only_read() {
        let path = tmp("hdr.vol");
        write_volume(&path, [2, 2, 2], &[0.0; 8]).unwrap();
        assert_eq!(read_header(&path).unwrap(), [2, 2, 2]);
        std::fs::remove_file(&path).ok();
    }
}
