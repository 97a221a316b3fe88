//! # mgpu-sim — discrete-event simulation substrate
//!
//! The reproduction runs the paper's algorithms for real on the CPU, but the
//! *hardware* of the 2010 NCSA Accelerator Cluster (Tesla-class GPUs, PCIe
//! gen-2, node-local disks, QDR InfiniBand) is modeled. This crate provides
//! the machinery:
//!
//! * [`time`] — integer-nanosecond virtual time;
//! * [`activity`] — the taxonomy of traced work and its mapping onto the
//!   paper's Figure-3 phase buckets;
//! * [`trace`] — dependency traces recorded by the functional MapReduce run;
//! * [`engine`] — deterministic FIFO-resource replay producing a schedule;
//! * [`accounting`] — phase breakdowns, busy times and the §6.3
//!   communication/computation split;
//! * [`models`] — latency+bandwidth and overhead+rate cost-model shapes.
//!
//! Separating *what happened* (the trace, produced by real execution) from
//! *when it happened* (the replay, produced by the engine) keeps the timing
//! model pure, deterministic and unit-testable, while the images that come
//! out of the renderer remain genuinely computed.

#![forbid(unsafe_code)]

pub mod accounting;
pub mod activity;
pub mod engine;
pub mod gantt;
pub mod models;
pub mod time;
pub mod trace;

pub use accounting::{account, ActivityTotals, PhaseBreakdown, RunAccounting};
pub use activity::{Activity, Fig3Bucket};
pub use engine::{serial_demand, simulate, Schedule, TaskTiming};
pub use gantt::{ascii_timeline, resource_use, ResourceUse};
pub use models::{LinkModel, RateModel};
pub use time::{SimDuration, SimTime};
pub use trace::{ResourceId, TaskId, TaskSpec, Trace};
