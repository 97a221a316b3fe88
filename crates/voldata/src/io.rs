//! Raw volume file I/O.
//!
//! Format `MGVOL001`: an 8-byte magic, three little-endian `u32` dimensions,
//! then `x·y·z` little-endian `f32` samples, x varying fastest. Dead simple on
//! purpose — the paper treats volume files as pre-bricked raw data and is
//! explicit that its library is "hard-disk agnostic".
//!
//! Reading is the out-of-core brick-load path, and it never calls `read`:
//! a read maps the file's bytes in place — a private, read-only `mmap` of
//! the range that covers what it takes, advised `MADV_RANDOM` so a fault
//! on a cold file reads no neighbours ahead — and the bytes *are* the
//! voxels.
//! A region that spans full x and y of the volume is one contiguous range
//! of the file, and a brick whose stored box is one keeps the mapping as
//! its voxels (`BrickStore`); every other region has its rows copied out of
//! a mapping into a dense destination (`Volume::read_region` and
//! `read_rows`, through `map_region` and `copy_rows`). A file shorter than
//! its header claims is refused before anything is mapped, with an
//! `UnexpectedEof` naming the path. Unix only, like the server's `poll`
//! loop.
//! [`VolumeWriter`] is the way back: header, then slabs appended as the
//! bytes they occupy. Both rest on the file's bytes being the voxels'
//! little-endian `f32`s; [`f32_bytes`] and [`f32_bytes_mut`] view `f32`s as
//! the bytes they occupy, behind a compile-time little-endian assertion.

use std::fs::File;
use std::io::{self, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::os::unix::io::AsRawFd;
use std::path::Path;

pub const MAGIC: &[u8; 8] = b"MGVOL001";
const HEADER_BYTES: usize = 8 + 12;

// The views below hand voxel memory to the file, and mappings hand the
// file's bytes to voxel memory, as they are — which is `MGVOL001`'s little-endian `f32`
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
    file.read_exact_at(&mut header, 0)
        .map_err(|e| with_path(path, e))?;
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

/// Copy the rows `rows(z)` of each z-slab `z` of an in-bounds region of a
/// volume of `dims` out of `src`, which holds the volume's voxels from
/// voxel `first` on, into their places in the dense `out`; the rest of
/// `out` is left as it is.
pub(crate) fn copy_rows(
    src: &[f32],
    first: usize,
    dims: [u32; 3],
    origin: [u32; 3],
    size: [usize; 3],
    rows: impl Fn(usize) -> Range<usize>,
    out: &mut [f32],
) {
    let (dx, dy) = (dims[0] as usize, dims[1] as usize);
    for (z, slab) in out.chunks_exact_mut(size[0] * size[1]).enumerate() {
        for y in rows(z) {
            let at = ((origin[2] as usize + z) * dy + origin[1] as usize + y) * dx
                + origin[0] as usize
                - first;
            slab[y * size[0]..(y + 1) * size[0]].copy_from_slice(&src[at..at + size[0]]);
        }
    }
}

/// A mapping of the voxels of an in-bounds, non-empty region's covering
/// range — from its first voxel in the file to its last — and the index of
/// that first voxel in the volume. The whole region when it spans full x
/// and y.
pub(crate) fn map_region(
    path: &Path,
    dims: [u32; 3],
    origin: [u32; 3],
    size: [usize; 3],
) -> io::Result<(usize, Mapping)> {
    let (dx, dy) = (dims[0] as usize, dims[1] as usize);
    let index = |x: usize, y: usize, z: usize| (z * dy + y) * dx + x;
    let [x, y, z] = origin.map(|o| o as usize);
    let first = index(x, y, z);
    let end = index(x + size[0] - 1, y + size[1] - 1, z + size[2] - 1) + 1;
    Mapping::new(path, dims, first..end).map(|map| (first, map))
}

/// The file offsets a mapping starts at are multiples of this: 64 KiB, a
/// multiple of every page size Linux and macOS use (4, 16 or 64 KiB). The
/// bytes between it and the first voxel are mapped and never touched.
const MAP_ALIGN: u64 = 1 << 16;

/// `mmap(2)`, `madvise(2)` and `munmap(2)`, declared directly (libc is
/// already linked by std; the offline build takes no external crates).
mod sys {
    use std::os::raw::{c_int, c_long, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MADV_RANDOM: c_int = 1;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A private, read-only mapping of a run of a volume file's voxels, which
/// it derefs to; unmapped on drop. Its pages are the page cache's: a miss
/// that maps a brick copies nothing, and a page is mapped in only when
/// something touches it — on a page-cached file a fault maps the cache's
/// whole folio around it, and `MADV_RANDOM` keeps a fault on a cold one
/// from reading ahead. The
/// file must not be truncated or written while a mapping of it lives: a
/// touch past a truncated end is a `SIGBUS`, and a write shows through.
/// [`BrickStore`](crate::BrickStore)'s contract — its volume does not
/// change while the store, or a brick it served, lives — is what rules
/// both out; a read that copies drops its mapping before it returns.
#[derive(Debug)]
pub(crate) struct Mapping {
    /// Where the mapping starts (a multiple of [`MAP_ALIGN`] into the file).
    base: *mut std::os::raw::c_void,
    /// Bytes mapped from `base`.
    mapped: usize,
    /// The first voxel, inside the mapping.
    voxels: *const f32,
    len: usize,
}

// SAFETY: a `Mapping` owns its pages alone and never writes them: it is
// immutable memory with no thread affinity, which `munmap` may release
// from any thread.
unsafe impl Send for Mapping {}
// SAFETY: shared access is only ever `&[f32]` reads of the mapping.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Map voxels `voxels` (non-empty, within the volume) of the volume file
    /// at `path`, whose header must carry `dims`. The file's length is
    /// checked against its header first: a file shorter than its header
    /// claims is `UnexpectedEof`, naming the path.
    fn new(path: &Path, dims: [u32; 3], voxels: Range<usize>) -> io::Result<Mapping> {
        let (file, file_dims) = open(path)?;
        if file_dims != dims {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{path:?} holds {file_dims:?} voxels, expected {dims:?}"),
            ));
        }
        let need = HEADER_BYTES as u64 + 4 * dims.iter().map(|&d| d as u64).product::<u64>();
        let have = file.metadata().map_err(|e| with_path(path, e))?.len();
        if have < need {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "{}: {have} bytes, its header's voxels need {need}",
                    path.display()
                ),
            ));
        }
        assert!(
            !voxels.is_empty() && HEADER_BYTES as u64 + 4 * voxels.end as u64 <= need,
            "voxels {voxels:?} outside a {dims:?} volume"
        );
        let start = HEADER_BYTES as u64 + 4 * voxels.start as u64;
        let offset = start & !(MAP_ALIGN - 1);
        let mapped = (HEADER_BYTES as u64 + 4 * voxels.end as u64 - offset) as usize;
        let too_far = || io::Error::new(io::ErrorKind::InvalidInput, "offset past c_long");
        let at = std::os::raw::c_long::try_from(offset).map_err(|_| too_far())?;
        // SAFETY: a fresh mapping at an address of the kernel's choosing
        // aliases no memory of ours; `mapped` bytes from `offset` lie inside
        // the file, whose length was just checked. `madvise` only advises
        // on those pages, and its failure is harmless.
        let base = unsafe {
            let base = sys::mmap(
                std::ptr::null_mut(),
                mapped,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                at,
            );
            if base as isize != -1 {
                sys::madvise(base, mapped, sys::MADV_RANDOM);
            }
            base
        };
        if base as isize == -1 {
            return Err(with_path(path, io::Error::last_os_error()));
        }
        Ok(Mapping {
            base,
            mapped,
            // `start - offset` is a multiple of 4 (the header is 20 bytes),
            // so the voxels are aligned for `f32`.
            voxels: base.wrapping_byte_add((start - offset) as usize).cast(),
            len: voxels.len(),
        })
    }
}

impl std::ops::Deref for Mapping {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        // SAFETY: `len` `f32`s from `voxels` lie inside the live mapping,
        // aligned (see `new`); the pages are read-only and the file stays
        // as it was (the type's contract), so they hold initialised values
        // that nothing mutates while the borrow lasts. Every bit pattern is
        // a valid `f32`.
        unsafe { std::slice::from_raw_parts(self.voxels, self.len) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `base` and `mapped` are exactly what `mmap` returned and
        // was asked for, and no borrow of the pages outlives `self`.
        unsafe { sys::munmap(self.base, self.mapped) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-bounds, non-empty region copied out of a mapping of its
    /// covering range into `out`, x fastest — how `Volume::read_region`
    /// reads a file.
    fn read_region(
        path: &Path,
        dims: [u32; 3],
        origin: [u32; 3],
        size: [usize; 3],
        out: &mut [f32],
    ) -> io::Result<()> {
        let (first, map) = map_region(path, dims, origin, size)?;
        copy_rows(&map, first, dims, origin, size, |_| 0..size[1], out);
        Ok(())
    }

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

    #[test]
    fn a_rows_read_leaves_the_rows_it_does_not_take() {
        let path = tmp("rows.vol");
        let dims = [4u32, 3, 2];
        let data: Vec<f32> = (0..24).map(|i| i as f32).collect();
        write_volume(&path, dims, &data).unwrap();
        let volume = crate::Volume {
            meta: crate::Volume::in_memory("rows", dims, data.clone()).meta,
            source: crate::VolumeSource::File(path.clone()),
        };
        let mut out = vec![-1f32; 24];
        volume.read_rows([0, 0, 0], [4, 3, 2], |z| [1..2, 0..3][z].clone(), &mut out);
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
