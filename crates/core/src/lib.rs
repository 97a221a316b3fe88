//! # mgpu-mapreduce — the paper's multi-GPU MapReduce library
//!
//! A Rust reproduction of the specialized, streaming multi-GPU MapReduce
//! library of *"Multi-GPU Volume Rendering using MapReduce"* (Stuart et al.,
//! 2010). The four workflow stages — **Map** (GPU kernels over chunks),
//! **Partition** (dense-key routing to reducers), **Sort** (θ(n) counting
//! sort) and **Reduce** — run for real on host threads; every I/O and
//! compute operation is also recorded into a [`record::JobRecord`], from
//! which [`trace_build`] reconstructs the run (under either compositor) as
//! a dependency trace that `mgpu-sim` replays against the 2010 cluster.
//!
//! The §3.1.1 restrictions the paper adopts for performance are first-class
//! here: 4-byte dense keys ([`types::Key`]), homogeneous POD values
//! ([`types::WireValue`]), mandatory per-thread emission with sentinel
//! placeholders ([`types::SENTINEL_KEY`]), per-pixel round-robin partitioning
//! ([`partition::RoundRobin`]), and in-GPU-memory map tasks (enforced where
//! bricks are sized: `mgpu-volren`'s `FramePlan::prepare` refuses a brick
//! larger than the device's VRAM).
//!
//! Deliberate omissions, as in the paper: no fault tolerance, no advanced
//! scheduling, no distributed file system. Combining is supported but off by
//! default (§3.1: it "didn't increase performance").

#![forbid(unsafe_code)]

pub mod assign;
pub mod cost;
pub mod partition;
pub mod record;
pub mod runtime;
pub mod sort;
pub mod trace_build;
pub mod traits;
pub mod types;

pub use assign::Assignment;
pub use cost::{CostBook, CpuCostModel, GpuReduceModel};
pub use partition::{Checkerboard, Partitioner, RoundRobin, Striped, Tiled};
pub use record::{ChunkRecord, JobRecord, JobStats, MapperRecord, ReducerRecord, SendRecord};
pub use runtime::{run_job, JobConfig, JobOutput};
pub use sort::{counting_sort_groups, SortedGroups};
pub use trace_build::{build_swap_trace, build_trace, TraceOptions};
pub use traits::{Chunk, Combiner, FnCombiner, GpuMapper, MapOutput, Reducer};
pub use types::{pair_wire_bytes, Key, Pair, WireValue, SENTINEL_KEY};
