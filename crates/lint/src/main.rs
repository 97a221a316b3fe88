//! CLI for the project-invariant analyzer.
//!
//! ```text
//! mgpu-lint [--check] [--root DIR] [--report FILE]
//! ```
//!
//! `--check` (the default) runs all five lints and exits non-zero on any
//! finding. `--report` additionally writes the findings to a
//! file (CI uploads it as an artifact). With no `--root`, the workspace
//! root is found by walking up from the current directory to the first
//! `Cargo.toml` that declares `[workspace]`.

#![forbid(unsafe_code)]

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use mgpu_lint::{run_all, Workspace};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut report: Option<PathBuf> = None;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {}
            "--root" => root = args.next().map(PathBuf::from),
            "--report" => report = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                eprintln!("usage: mgpu-lint [--check] [--root DIR] [--report FILE]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("mgpu-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(find_workspace_root) {
        Some(root) => root,
        None => {
            eprintln!("mgpu-lint: no workspace root found (run inside the repo or pass --root)");
            return ExitCode::from(2);
        }
    };

    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(err) => {
            eprintln!("mgpu-lint: failed to read {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };

    let diag = run_all(&ws);
    let mut out = String::new();
    for finding in &diag.findings {
        out.push_str(&format!("{finding}\n"));
    }
    print!("{out}");
    let summary = format!(
        "mgpu-lint: {} finding(s), {} suppressed by allow comments, {} files scanned",
        diag.findings.len(),
        diag.suppressed,
        ws.files.len()
    );
    println!("{summary}");
    if let Some(report_path) = report {
        let body = format!("{out}{summary}\n");
        if let Err(err) = fs::write(&report_path, body) {
            eprintln!(
                "mgpu-lint: failed to write {}: {err}",
                report_path.display()
            );
        }
    }
    if diag.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walk up from the current directory to the first `Cargo.toml`
/// declaring `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
