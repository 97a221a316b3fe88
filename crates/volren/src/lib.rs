//! # mgpu-volren — the multi-GPU MapReduce volume renderer
//!
//! The application layer of the reproduction of *"Multi-GPU Volume Rendering
//! using MapReduce"* (Stuart et al., 2010): ray-casting volume rendering as
//! a MapReduce job over volume bricks.
//!
//! * Map — [`kernel::RayCastKernel`] per [`brick::RenderBrick`] (§3.2: 16×16
//!   blocks over the brick's screen footprint, ray–box intersection,
//!   fixed-step trilinear sampling, 1-D transfer function, early
//!   termination, front-to-back compositing — plus bit-exact macrocell
//!   empty-space skipping on the host, which the modelled GPU is not
//!   credited with);
//! * Partition — pixel-index keys, per-pixel round-robin
//!   ([`config::PartitionStrategy`] offers the alternatives);
//! * Sort — θ(n) counting sort in the substrate;
//! * Reduce — [`reduce::CompositeReducer`]: per-pixel depth sort + *over*.
//!
//! [`renderer::render`] drives the whole pipeline and returns a real image
//! plus the DES-replayed timing report. [`baseline`] holds the unbricked
//! reference renderer (the correctness oracle) and the ParaView-class
//! comparator from the paper's footnote 1. [`config::Compositor`] picks
//! direct-send or the binary swap of §6.1; either way the job runs once and
//! only the replayed trace differs.

// `mgpu-lint`'s `unsafe-hygiene` keeps this deny at each root of a crate with `unsafe`.
#![deny(clippy::undocumented_unsafe_blocks, clippy::unnecessary_safety_comment)]
// One exception, allowed at its site: `kernel`'s call of its AVX2 march
// after detecting AVX2.
#![deny(unsafe_code)]

pub mod baseline;
pub mod brick;
pub mod camera;
pub mod combine;
pub mod composite;
pub mod config;
pub mod fragment;
pub mod image;
pub mod kernel;
pub mod key;
pub mod mapper;
pub mod math;
pub mod ray;
pub mod reduce;
pub mod renderer;
mod skip;
pub mod stitch;
pub mod transfer;

pub use brick::{RenderBrick, Staging};
pub use camera::{Camera, Scene};
pub use config::{Compositor, PartitionStrategy, RenderConfig, Residency};
pub use fragment::Fragment;
pub use image::Image;
pub use key::RequestKey;
pub use renderer::{render, render_planned, FramePlan, RenderOutcome, RenderReport};
pub use transfer::TransferFunction;
