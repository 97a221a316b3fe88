//! The `paper` CLI, run through the real binary: `all` at the smallest scale
//! reaches every subcommand's table, and an unknown subcommand is refused
//! with the usage line.

use std::process::Command;

fn paper(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .env("MGPU_BENCH_SCALE", "0.05")
        .output()
        .expect("spawn paper")
}

#[test]
fn all_prints_every_table() {
    let out = paper(&["all"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "paper all failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for title in [
        "Figure 3: phase breakdown (skull dataset)",
        "Figure 4 (left): frames per second",
        "Figure 4 (right): voxels per second",
        "§3 transfer anchors",
        "§6.3 bottleneck analysis at",
        "footnote 1: VPS comparison",
        "§6.3 speed-of-light analysis at",
        "resource utilization",
        "in-core vs out-of-core",
        "combine stage on/off",
        "direct-send vs binary-swap",
        "partition strategies",
        "reduce on CPU vs GPU",
        "flat vs warp-accurate kernel model",
    ] {
        assert!(
            stdout.contains(&format!("\n== {title}")),
            "no {title:?} table in:\n{stdout}"
        );
    }
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
