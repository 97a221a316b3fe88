//! # mgpu-lint — the project-invariant static analyzer
//!
//! Clippy checks Rust; this crate checks **gpumr**. The workspace
//! encodes cross-file invariants no general-purpose linter can know: the
//! metric namespace declared in `mgpu_obs::names` is what the serving
//! crates register and the `obs_top` dashboard reads; 64 lock sites share
//! an acquisition order; atomics carry a justification comment; the
//! decode path and `unsafe` stay under the clippy lints that check them.
//! Those invariants rot silently as the system grows — unless something
//! fails the build when they do. This crate is that something: a
//! dependency-free analyzer over a hand-rolled,
//! comment/string/char/raw-string-aware Rust lexer, with five lints
//! on top (see [`lints`]), run in CI as
//! `cargo run -p mgpu-lint --release -- --check`, regression-locked by
//! red/green fixture self-tests in `tests/`. (The README's wire table is
//! held to `wire::Request`/`wire::Reply` by a unit test beside them.)
//!
//! A single finding can be waived at its site with a
//! `// lint: allow(<lint-name>) <reason>` comment on the same or the
//! preceding line.

#![forbid(unsafe_code)]

pub mod diag;
pub(crate) mod lexer;
pub mod lints;
pub mod source;

pub use diag::{Diagnostics, Finding};
pub use lints::run_all;
pub use source::{SourceFile, Workspace};
