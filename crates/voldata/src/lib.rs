//! # mgpu-voldata — volumes, datasets and the out-of-core brick store
//!
//! Data substrate for the reproduction of *"Multi-GPU Volume Rendering using
//! MapReduce"* (Stuart et al., 2010):
//!
//! * [`noise`] — seeded value noise / fBm / turbulence;
//! * [`field`] — continuous scalar fields over the unit cube;
//! * [`datasets`] — procedural stand-ins for the paper's Skull, Supernova and
//!   Plume volumes at the paper's resolutions (128³…1024³, 512×512×2048);
//! * [`volume`] — volume metadata + sources (procedural / raw file /
//!   in-memory) with clamped region materialization;
//! * [`io`] — the raw `MGVOL001` on-disk format: one read per contiguous run
//!   straight into a strided destination, a streaming writer, and the
//!   workspace's `f32` byte views (the crate's only `unsafe`);
//! * [`brick`] — brick-grid geometry under VRAM/GPU-count policies;
//! * [`brickstore`] — LRU-cached on-demand brick materialization with ghost
//!   layers (the out-of-core path);
//! * [`macrocell`] — the min/max table a brick's first miss builds beside
//!   the voxels (and the store keeps across eviction), so the renderer can
//!   skip space the transfer function makes empty;
//! * [`stats`] — streaming volume statistics.

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
pub use brickstore::{BrickData, BrickStore, StoreSnapshot};
pub use datasets::Dataset;
pub use field::ScalarField;
pub use macrocell::MacroCells;
pub use stats::VolumeStats;
pub use volume::{Volume, VolumeMeta, VolumeSource};
