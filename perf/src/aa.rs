//! `mgpu-perf aa`: the noise budget, measured not guessed.
//!
//! Runs `--sets` back-to-back sets of `--runs` untraced runs of every
//! workload on one build (run *r* of every set uses seed *r*, as the
//! pipeline's own A/A does) and prints, per workload × end-to-end metric,
//! each set's median and quartiles, the spread (IQR ÷ median) and the
//! set-to-set delta of the medians, all against the bound `BENCHMARK.json`
//! declares — and, for the time metrics, the spread their uncorrected twins
//! (`raw.*`, before the pace correction) showed in the same runs. The
//! pipeline accepts spread ≤ bound and delta ≤ bound; this
//! table asks for a margin — spread ≤ bound ÷ 3, delta ≤ bound ÷ 2 — and
//! says `tight` where only the pipeline's own rule is met.

use std::collections::BTreeMap;
use std::process::{ExitCode, Stdio};

use crate::json::{self, Json};
use crate::stats;
use crate::workload::Workload;
use crate::Args;

/// `BENCHMARK.json`, from the checkout this binary was built in.
pub fn benchmark_json() -> Result<Json, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text)
}

/// One declared end-to-end metric.
struct Declared {
    name: String,
    bound: f64,
}

fn declared(benchmark: &Json) -> Vec<Declared> {
    benchmark
        .get("end_to_end")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_string(),
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

/// Run one child and return its metrics, or why it produced none.
fn measure(args: &Args, workload: Workload, seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let output = crate::child(args, workload, seed, false)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    let result = json::parse(last)?;
    if !output.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("run failed ({}): {last}", output.status));
    }
    let mut values: BTreeMap<String, f64> = result
        .get("metrics")
        .map(Json::fields)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    // The uncorrected twins of the time metrics, from the diagnostic lines
    // (`workload/raw.name value unit`), for the table's "raw spread" column.
    let prefix = format!("{}/raw.", workload.name());
    for line in stdout.lines() {
        let mut words = line.split(' ');
        if let (Some(name), Some(value)) = (words.next(), words.next()) {
            if let (Some(metric), Ok(value)) = (name.strip_prefix(&prefix), value.parse()) {
                values.insert(format!("raw.{metric}"), value);
            }
        }
    }
    Ok(values)
}

pub fn run(args: &Args) -> ExitCode {
    let declared = match benchmark_json() {
        Ok(benchmark) => declared(&benchmark),
        Err(why) => {
            eprintln!("aa: {why}");
            return ExitCode::FAILURE;
        }
    };
    if args.sets < 2 || args.runs < 2 {
        eprintln!("aa: needs at least 2 sets of at least 2 runs");
        return ExitCode::from(2);
    }
    // values[(workload, metric)][set] = one value per run
    let mut values: BTreeMap<(usize, String), Vec<Vec<f64>>> = BTreeMap::new();
    for set in 0..args.sets {
        for run in 1..=args.runs {
            for (w, workload) in Workload::ALL.into_iter().enumerate() {
                if args.workload.is_some_and(|only| only != workload) {
                    continue;
                }
                eprintln!(
                    "aa: set {}/{} run {run}/{} {}",
                    set + 1,
                    args.sets,
                    args.runs,
                    workload.name()
                );
                match measure(args, workload, run as u64) {
                    Ok(metrics) => {
                        for (name, value) in metrics {
                            let sets = values
                                .entry((w, name))
                                .or_insert_with(|| vec![Vec::new(); args.sets]);
                            sets[set].push(value);
                        }
                    }
                    Err(why) => {
                        eprintln!("aa: {} seed {run}: {why}", workload.name());
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }

    println!(
        "| workload | metric | {} | worst spread | (uncorrected) | worst A/A delta | bound | verdict |",
        (1..=args.sets)
            .map(|s| format!("set {s}: median [q1, q3]"))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    println!("|---|---|{}---|---|---|---|---|", "---|".repeat(args.sets));
    let mut all_ok = true;
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for metric in &declared {
            let Some(sets) = values.get(&(w, metric.name.clone())) else {
                continue; // filtered out with --workload
            };
            let quartiles: Vec<[f64; 3]> = sets.iter().map(|s| stats::quartiles(s)).collect();
            let spread = sets.iter().map(|s| stats::iqr_share(s)).fold(0.0, f64::max);
            let delta = quartiles
                .windows(2)
                .map(|pair| ((pair[1][1] - pair[0][1]) / pair[0][1]).abs())
                .fold(0.0, f64::max);
            let raw_spread = values
                .get(&(w, format!("raw.{}", metric.name)))
                .map(|sets| sets.iter().map(|s| stats::iqr_share(s)).fold(0.0, f64::max))
                .map_or("—".to_string(), |spread| {
                    format!("{:.1} %", spread * 100.0)
                });
            // The pipeline does not hold setup_s to its spread, only its delta.
            let gated_spread = if metric.name == "setup_s" {
                0.0
            } else {
                spread
            };
            let verdict = if gated_spread <= metric.bound / 3.0 && delta <= metric.bound / 2.0 {
                "ok"
            } else if gated_spread <= metric.bound && delta <= metric.bound {
                "tight"
            } else {
                all_ok = false;
                "FAIL"
            };
            let cells: Vec<String> = quartiles
                .iter()
                .map(|[q1, q2, q3]| format!("{q2:.4} [{q1:.4}, {q3:.4}]"))
                .collect();
            println!(
                "| {} | {} | {} | {:.1} % | {raw_spread} | {:.1} % | {:.0} % | {verdict} |",
                workload.name(),
                metric.name,
                cells.join(" | "),
                spread * 100.0,
                delta * 100.0,
                metric.bound * 100.0
            );
        }
    }
    crate::exit_code(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pipeline refuses a run whose metrics are not exactly the declared
    /// ones, so the names live in two places that must agree: here they do.
    #[test]
    fn benchmark_json_declares_what_the_binary_reports() {
        let benchmark = benchmark_json().expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            benchmark
                .get(key)
                .map(Json::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
                .collect()
        };
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        assert_eq!(
            names("end_to_end"),
            [
                "frames_per_sec",
                "frame_ms_p50",
                "cpu_ms_per_frame",
                "peak_rss_mb",
                "setup_s"
            ]
        );
        let unit_of = |key: &str, name: &str| -> Option<String> {
            benchmark.get(key)?.as_array().iter().find_map(|m| {
                (m.get("name")?.as_str()? == name)
                    .then(|| m.get("unit")?.as_str().map(str::to_string))?
            })
        };
        let reported = crate::trace::PER_LAYER;
        let reported_names: Vec<&str> = reported.iter().map(|(name, _)| *name).collect();
        assert_eq!(names("per_layer"), reported_names);
        for (name, unit) in reported {
            assert_eq!(unit_of("per_layer", name).as_deref(), Some(*unit), "{name}");
        }
        for bound in declared(&benchmark) {
            assert!(bound.bound > 0.0 && bound.bound <= 0.25, "{}", bound.name);
        }
    }
}
