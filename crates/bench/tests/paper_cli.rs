//! The `paper` CLI, run through the real binary: `all` at the smallest scale
//! prints the golden tables byte for byte, and an unknown subcommand is
//! refused with the usage line.

use std::process::Command;

fn paper(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .env("MGPU_BENCH_SCALE", "0.05")
        .output()
        .expect("spawn paper")
}

/// `paper all` at scale 0.05 prints exactly the golden tables: every
/// figure, analysis and ablation title, and every modelled millisecond. The
/// DES replay makes the output deterministic, so any drift in the 2010
/// figures fails here. The CSV lines name the results directory, which is
/// absolute once the workspace `target/` exists; the comparison spells it
/// `target/results`. Re-bless from the workspace root with:
///
///     MGPU_BENCH_SCALE=0.05 cargo run --release -q -p mgpu-bench --bin paper -- all \
///         | sed "s|$(pwd -P)/target/results|target/results|" > crates/bench/tests/paper_all_0.05.txt
#[test]
fn all_prints_every_table() {
    let out = paper(&["all"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "paper all failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results = mgpu_bench::results_dir().display().to_string();
    let stdout = stdout.replace(&results, "target/results");
    let golden = include_str!("paper_all_0.05.txt");
    let first_diff = stdout
        .lines()
        .zip(golden.lines())
        .position(|(got, want)| got != want);
    assert!(
        stdout == golden,
        "paper all drifted from the golden (first differing line index {first_diff:?}):\n{stdout}"
    );
}

#[test]
fn unknown_subcommand_is_refused_with_usage() {
    for args in [
        &["fig5"][..],
        &["ablate", "sort"],
        &["timeline", "big"],
        &[],
    ] {
        let out = paper(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).starts_with("usage: paper <fig3 | "),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
