//! # mgpu-lint — the project-invariant static analyzer
//!
//! Clippy checks Rust; this crate checks **gpumr**. The workspace
//! encodes cross-file invariants no general-purpose linter can know:
//! the wire protocol's messages are documented in the README table (the
//! compiler checks the code that handles them); the metric namespace
//! is shared between the serving crates and the `obs_top` dashboard;
//! the decode path carries a panic-free guarantee; 64 lock sites share
//! an acquisition order; atomics and `unsafe` carry justification
//! conventions. Those invariants rot silently as the system grows —
//! unless something fails the build when they do. This crate is that
//! something: a dependency-free analyzer over a hand-rolled,
//! comment/string/char/raw-string-aware Rust lexer, with six lints
//! on top (see [`lints`]), run in CI as
//! `cargo run -p mgpu-lint --release -- --check`, regression-locked by
//! red/green fixture self-tests in `tests/`.
//!
//! A single finding can be waived at its site with a
//! `// lint: allow(<lint-name>) <reason>` comment on the same or the
//! preceding line; the metric namespace is blessed into
//! `ci/metrics.txt` and re-blessed with `mgpu-lint --update` — the same
//! deliberate-change contract as `ci/api_surface.sh`.

#![forbid(unsafe_code)]

pub mod diag;
pub(crate) mod lexer;
pub mod lints;
pub mod source;

pub use diag::{Diagnostics, Finding};
pub use lints::run_all;
pub use source::{SourceFile, Workspace};
