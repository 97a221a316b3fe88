//! `mgpu-perf` — the repo's benchmark. See `perf/README.md`.
//!
//! ```text
//! mgpu-perf --workload W --seed N --seconds S --trace 0|1   one run, the pipeline's form
//! mgpu-perf run W   [--seed N] [--seconds S] [--smoke]       = --trace 0
//! mgpu-perf trace W [--seed N] [--seconds S] [--smoke]       = --trace 1
//! mgpu-perf all     [--seed N] [--seconds S] [--smoke] [--trace 0|1]
//! mgpu-perf aa      [--sets 2] [--runs 10] [--seconds S] [--workload W] [--smoke]
//! ```
//!
//! One process per workload, so `peak_rss_mb` and `cpu_ms_per_frame` belong
//! to that workload alone: `all` and `aa` spawn this binary once per run.
//! Every run prints `workload/name value unit` lines and ends with one JSON
//! object; it exits non-zero if any frame failed.

mod aa;
mod json;
mod pace;
mod probes;
mod procfs;
mod rig;
mod run;
mod span;
mod stats;
mod trace;
mod verify;
mod views;
mod workload;

use std::process::{Command, ExitCode};
use std::time::Instant;

use run::{Metric, Report};
use workload::{Plan, Workload};

/// Default length of the measured window; `BENCHMARK.json` passes the same.
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Clone)]
pub struct Args {
    pub command: String,
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// `None` = both (only `all` distinguishes).
    pub trace: Option<bool>,
    pub sets: usize,
    pub runs: usize,
    pub rest: Vec<String>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: mgpu-perf [run|trace] <workload> | all | aa  [--workload W] [--seed N] \
         [--seconds S] [--trace 0|1] [--smoke] [--sets N] [--runs N]\nworkloads: {}",
        names.join(", ")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        smoke: false,
        trace: None,
        sets: 2,
        runs: 10,
        rest: Vec::new(),
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    let number = |text: String, flag: &str| -> Result<f64, String> {
        text.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or(format!("{flag}: not a non-negative number: {text}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = value(&mut it, arg)?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = number(value(&mut it, arg)?, arg)? as u64,
            "--seconds" => args.seconds = number(value(&mut it, arg)?, arg)?,
            "--sets" => args.sets = number(value(&mut it, arg)?, arg)? as usize,
            "--runs" => args.runs = number(value(&mut it, arg)?, arg)? as usize,
            "--trace" => {
                args.trace = Some(match value(&mut it, arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => args.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if args.command.is_empty() => args.command = word.to_string(),
            word => args.rest.push(word.to_string()),
        }
    }
    if args.command.is_empty() {
        args.command = "run".into();
    }
    match args.command.as_str() {
        "run" | "trace" => {
            if args.command == "trace" {
                args.trace = Some(true);
            }
            if args.workload.is_none() {
                let name = args.rest.first().ok_or("which workload?")?;
                args.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?);
            }
        }
        "all" | "aa" | "bake" => {}
        other => return Err(format!("unknown command {other}")),
    }
    Ok(args)
}

fn json_number(v: f64) -> String {
    // `{}` on f64 prints the shortest text that parses back to the same
    // value: every measured digit, no rounding.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result object the pipeline reads from the last line of stdout.
fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    )
}

fn print_metric(workload: Workload, m: &Metric) {
    println!(
        "{}/{} {} {}",
        workload.name(),
        m.name,
        json_number(m.value),
        m.unit
    );
}

pub fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload, in this process.
fn run_one(args: &Args, process_start: Instant) -> ExitCode {
    let workload = args.workload.expect("parse() guarantees a workload");
    let plan = Plan::new(workload, args.seed, args.smoke);
    let report = if args.trace == Some(true) {
        trace::run(&plan, args.seconds, process_start)
    } else {
        run::run(&plan, args.seconds, process_start)
    };
    for m in report.metrics.iter().chain(&report.diagnostics) {
        print_metric(workload, m);
    }
    println!(
        "{}/frames attempted {} failed {}",
        workload.name(),
        report.tally.attempted,
        report.tally.failed
    );
    if let Some(why) = &report.tally.first_failure {
        eprintln!("{}: first failed frame: {why}", workload.name());
    }
    println!("{}", result_json(&report));
    exit_code(report.tally.failed == 0)
}

/// Re-invoke this binary for one run, inheriting stdout/stderr.
pub fn child(args: &Args, workload: Workload, seed: u64, trace: bool) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("own executable path"));
    cmd.arg("--workload")
        .arg(workload.name())
        .arg("--seed")
        .arg(seed.to_string())
        .arg("--seconds")
        .arg(args.seconds.to_string())
        .arg("--trace")
        .arg(if trace { "1" } else { "0" });
    if args.smoke {
        cmd.arg("--smoke");
    }
    cmd
}

/// Every workload, one process each, sequentially; untraced then traced
/// unless `--trace` picks one.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            if args.trace.is_some_and(|only| only != trace) {
                continue;
            }
            let status = child(args, workload, args.seed, trace)
                .status()
                .expect("spawn a workload process");
            if !status.success() {
                eprintln!(
                    "{} (trace {}) failed: {status}",
                    workload.name(),
                    trace as u8
                );
                ok = false;
            }
        }
    }
    exit_code(ok)
}

fn run_bake(args: &Args) -> ExitCode {
    let parsed = match args.rest.as_slice() {
        [dataset, base, path] => mgpu_voldata::Dataset::from_name(dataset)
            .zip(base.parse::<u32>().ok())
            .map(|(d, b)| (d, b, std::path::PathBuf::from(path))),
        _ => None,
    };
    let Some((dataset, base, path)) = parsed else {
        eprintln!("usage: mgpu-perf bake <dataset> <base> <path>");
        return ExitCode::from(2);
    };
    match rig::bake(dataset, base, &path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("bake {}: {err}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match args.command.as_str() {
        "all" => run_all(&args),
        "aa" => aa::run(&args),
        "bake" => run_bake(&args),
        _ => run_one(&args, process_start),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_the_pipeline_form() {
        let a = parse(&argv(&[
            "--workload",
            "pool_preview",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.workload, Some(Workload::PoolPreview));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15.0, Some(true)));
    }

    #[test]
    fn parses_the_subcommand_forms() {
        let a = parse(&argv(&["trace", "orbit_incore", "--smoke"])).unwrap();
        assert_eq!(
            (a.workload, a.trace, a.smoke),
            (Some(Workload::OrbitIncore), Some(true), true)
        );
        let a = parse(&argv(&["all", "--trace", "0"])).unwrap();
        assert_eq!((a.command.as_str(), a.trace), ("all", Some(false)));
        assert!(parse(&argv(&["run"])).is_err());
        assert!(parse(&argv(&["run", "nope"])).is_err());
        assert!(parse(&argv(&["--trace", "2"])).is_err());
        assert!(parse(&argv(&["--bogus"])).is_err());
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let report = Report {
            metrics: vec![run::metric("setup_s", 0.8127, "s")],
            diagnostics: vec![run::metric("harness.laps", 5.0, "count")],
            tally: run::Tally {
                attempted: 1000,
                failed: 0,
                first_failure: None,
            },
        };
        assert_eq!(
            result_json(&report),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
