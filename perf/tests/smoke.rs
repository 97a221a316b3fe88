//! `--smoke`: every workload end to end on toy volumes — set-up (with the
//! bake child), warm-up, window, checksummed lap, oracle, and the traced
//! run's probes and ladder — through the real binary, the way the pipeline
//! invokes it.

use std::process::Command;

fn run(workload: &str, trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_mgpu-perf"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("spawn mgpu-perf");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

const WORKLOADS: [&str; 4] = [
    "orbit_incore",
    "pool_preview",
    "replay_cached",
    "plume_outofcore",
];

#[test]
fn every_workload_runs_and_verifies() {
    for workload in WORKLOADS {
        let stdout = run(workload, "0");
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0"), "{last}");
        for metric in [
            "frames_per_sec",
            "frame_ms_p50",
            "cpu_ms_per_frame",
            "peak_rss_mb",
            "setup_s",
        ] {
            assert!(
                last.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{metric} missing: {last}"
            );
            assert!(
                stdout.contains(&format!("{workload}/{metric} ")),
                "{metric} line missing"
            );
        }
    }
}

#[test]
fn every_workload_traces_with_a_valid_disassembled_frame() {
    for workload in WORKLOADS {
        let stdout = run(workload, "1");
        let last = stdout.lines().last().expect("a result line");
        assert!(last.starts_with("{\"correct\": true"), "{last}");
        for metric in [
            "gpu.launch_ms",
            "core.plumbing_ms",
            "net.pool_overhead_ms",
            "obs.counter_inc_ns",
        ] {
            assert!(
                last.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{metric} missing: {last}"
            );
        }
        assert!(
            !last.contains("setup_s"),
            "a traced run reports per-layer metrics only"
        );
    }
}

#[test]
fn a_bad_invocation_prints_no_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_mgpu-perf"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("spawn mgpu-perf");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
