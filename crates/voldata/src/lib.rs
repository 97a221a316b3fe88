//! # mgpu-voldata — volumes, datasets and the out-of-core brick store
//!
//! Data substrate for the reproduction of *"Multi-GPU Volume Rendering using
//! MapReduce"* (Stuart et al., 2010):
//!
//! * [`noise`] — seeded value noise / fBm / turbulence;
//! * [`field`] — continuous scalar fields over the unit cube, synthesized a
//!   row of voxels at a time;
//! * [`datasets`] — procedural stand-ins for the paper's Skull, Supernova and
//!   Plume volumes at the paper's resolutions (128³…1024³, 512×512×2048);
//! * [`volume`] — volume metadata + sources (procedural / raw file /
//!   in-memory), dense in-bounds region reads, and clamped materialization
//!   for oracles;
//! * [`io`] — the raw `MGVOL001` on-disk format: one read per contiguous
//!   run of the rows taken straight into its place in a dense destination, a streaming
//!   writer, and the workspace's `f32` byte views (the crate's only `unsafe`);
//! * [`brick`] — brick-grid geometry under VRAM/GPU-count policies;
//! * [`brickstore`] — LRU-cached on-demand brick materialization (the
//!   out-of-core path): each brick stores its ghost-padded box clipped to
//!   the volume, and its texture's clamp supplies the border ghosts; a miss
//!   reads only the [`Rows`] its caller asks for;
//! * [`macrocell`] — the min/max table the renderer builds from a brick's
//!   voxels, so it can skip space the transfer function makes empty, and
//!   the rows its occupied cells can tap;
//! * [`stats`] — streaming volume statistics.
//!
//! A row along x is the unit of procedural synthesis: materializing a
//! region computes the row's voxel-center x coordinates once and makes one
//! [`ScalarField::sample_row`] call per row. The datasets hoist what depends
//! only on `(y, z)` out of the row and evaluate their noise through a row
//! evaluator that keeps the current lattice cell's corners between
//! neighbouring samples, so a voxel costs a few lerps rather than dozens of
//! lattice hashes, and every voxel keeps the exact bits of its per-point
//! `sample`.

// `mgpu-lint`'s `unsafe-hygiene` keeps this deny at each root of a crate with `unsafe`.
#![deny(clippy::undocumented_unsafe_blocks, clippy::unnecessary_safety_comment)]

pub mod brick;
pub mod brickstore;
pub mod datasets;
pub mod field;
pub mod io;
pub mod macrocell;
pub mod noise;
pub mod stats;
pub mod volume;

pub use brick::{BrickGrid, BrickInfo, BrickPolicy};
pub use brickstore::{BrickData, BrickStore, Rows, StoreSnapshot};
pub use datasets::Dataset;
pub use field::ScalarField;
pub use macrocell::MacroCells;
pub use stats::VolumeStats;
pub use volume::{Volume, VolumeMeta, VolumeSource};
