//! # mgpu-gpu — the software GPU
//!
//! A CUDA-class device model for the reproduction: real computation, modeled
//! time. Kernels execute for real on host threads with CUDA grid/block/thread
//! index semantics, in one of two execution models: scalar per-thread
//! dispatch on the calling thread ([`kernel::Kernel`] + [`kernel::launch`],
//! the oracle) or batched per-block execution into structure-of-arrays
//! buffers ([`kernel::BlockKernel`] + [`kernel::launch_blocks`], the hot
//! path, with per-launch state built once before the first block and blocks
//! claimed from one queue by host threads). [`texture::Texture3D`]
//! reproduces `tex3D` trilinear filtering with clamp addressing (with
//! [`texture::Sampler3D`] as the resolved inner-loop view) and can carry a
//! min/max macrocell table for empty-space skipping, which
//! [`texture::Texture1D::zero_alpha`] answers from the transfer-function
//! side; on `x86_64` both samplers also filter
//! for eight samples at once (`locate_x8` / `sample_at_x8` / `taps_x8`:
//! AVX2 gathers behind safe `#[target_feature]` functions, bit-identical
//! per lane to the scalar ones — the `unsafe` is the gathers, justified by
//! the clamps beside them; see [`texture`]); and [`device::KernelCostModel`]
//! converts launch statistics (including SIMT warp divergence) into
//! simulated time on a Tesla C1060-class part, whose
//! [`device::DeviceProps::vram_bytes`] is what the renderer sizes bricks
//! against (the paper's "map task must fit in GPU memory" restriction).
//!
//! The host threads that stand for device processors come from [`exec`]: a
//! process-wide cache of parked threads behind a `std::thread::scope`-shaped
//! [`exec::scope`]. A scope returns only when every job it spawned has
//! finished — also on a panic, which it then re-raises — and every spawn
//! gets a thread of its own, so the cache grows to the peak number of jobs
//! ever in flight and never shrinks. Its [`exec::Lender`] lets a job's
//! finished mappers lend their cores to the launches of the mappers still at
//! work, which run helpers on them that claim blocks from the same queue —
//! changing which thread runs a block and nothing it computes. Its one
//! `unsafe` is the lifetime erasure of a boxed job in `Scope::spawn`;
//! `mgpu-mapreduce` runs its mappers and reducers on it and so stays
//! `#![forbid(unsafe_code)]`.

// `mgpu-lint`'s `unsafe-hygiene` keeps this deny at each root of a crate with `unsafe`.
#![deny(clippy::undocumented_unsafe_blocks, clippy::unnecessary_safety_comment)]

pub mod device;
pub mod exec;
pub mod kernel;
pub mod texture;

pub use device::{DeviceProps, KernelCostModel, KernelTimingMode};
pub use kernel::{
    launch, launch_blocks, BlockCtx, BlockKernel, BlockOut, BlockOutput, Kernel, LaunchConfig,
    LaunchOutput, LaunchStats, ThreadCtx,
};
pub use texture::{MacroCells, Sampler1D, Sampler3D, Site, Texture1D, Texture3D};
