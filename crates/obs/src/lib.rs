//! # mgpu-obs — observability for the render stack
//!
//! The paper's MapReduce renderer wins by keeping every stage — map
//! (ray-cast), sort (route), reduce (composite) — measurable and balanced.
//! This crate is the reproduction's measuring instrument: one small,
//! dependency-free substrate that every layer (serve, net, volren, the
//! bench harness) records into and one snapshot format they all export.
//!
//! Two halves:
//!
//! * **Metrics** — [`Counter`], [`Gauge`] and a log₂-bucket [`Histogram`],
//!   all plain relaxed atomics: recording is one `fetch_add`, never a
//!   lock. Metrics live either as struct fields (a service's private
//!   stats) or in a [`Registry`] — a name → metric table whose
//!   registration is a one-time get-or-create under a short mutex; call
//!   sites cache the returned `Arc` and the hot path touches only the
//!   atomic. [`Registry::snapshot`] freezes every registered metric into a
//!   [`Snapshot`]: stable-sorted keys and exact cross-node
//!   [`Snapshot::merge`] (counters and buckets add). A
//!   [`Registry::scoped`] child gives one component (a render service)
//!   its own snapshot while the process-wide [`global()`] registry still
//!   reports the same events under the same names — each event is
//!   written once.
//! * **Tracing** — a [`trace::Trace`] is one request's span list:
//!   [`trace::SpanGuard`]s (or explicit [`trace::Trace::record`] calls)
//!   stamp named stages — admit, queue, plan, stage, map, partition, sort,
//!   reduce, merge, model, stitch, render, reply — as nanosecond offsets
//!   from the trace's start. The trace id is seeded from the wire's
//!   `request_id`, so one request is followable from socket to pixel and
//!   back. Completed traces land in a
//!   bounded [`trace::TraceRing`] whose writers never block: a slot that
//!   is contended or already full *drops* (counted exactly —
//!   `pushed == held + dropped` always), so tracing is always-on at
//!   near-zero cost and the `TRACES` wire request serves the last N from
//!   the ring. A thread-local [`trace::scope`] carries the current trace
//!   across layers (the worker sets it, the renderer records into it)
//!   without threading a handle through every signature.
//!
//! No dependencies, `std` only: the whole crate is atomics, two mutexes
//! off the hot path, and `Instant` arithmetic.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod names;
pub mod trace;

pub use metrics::{
    bucket_of, global, quantile, Counter, Gauge, Histogram, Registry, Snapshot, HIST_BUCKETS,
};
pub use trace::{ring, CompletedTrace, SpanRecord, Trace, TraceRing};
