//! The untraced run: set-up, warm-up lap, measured window, verification —
//! and the five end-to-end metrics that come out of it.
//!
//! Order matters for what each metric means. Set-up is repeated and the
//! median reported (one set-up is a single sample of a short, spawn-heavy
//! interval). The warm-up lap fills caches and records a fingerprint per
//! view. The window then replays whole laps of the same view sequence until
//! `--seconds` have passed, so per-lap work is identical and only the lap
//! *count* depends on the machine. Wall time, CPU time and the resident-set
//! high-water mark are all taken *per lap* and reported as medians over the
//! laps, so one disturbed lap costs a rank, not a share of the result; the
//! time metrics are then put at nominal pace (see [`crate::pace`]). The
//! window closes before verification starts: the fully checksummed lap and
//! the oracle renders (which build a second brick store) are the harness's
//! time and memory, not the workload's.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::pace::Pace;
use crate::procfs;
use crate::rig::{Outcome, Rig, TempDir};
use crate::stats;
use crate::verify::{self, Fingerprint};
use crate::views::Slot;
use crate::workload::{Path, Plan};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Least time between two pace-car samples in a window of short laps.
const PACE_EVERY: Duration = Duration::from_millis(500);
/// Views compared bit-for-bit against an independent direct render.
const ORACLE_VIEWS: usize = 4;

/// Frames attempted and failed, with the first failure kept for the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// How hard a lap checks each delivered frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Whole-frame checksum; a slot seen for the first time is recorded.
    Full,
    /// Dimensions and the 64-pixel probe: cheap enough for the window.
    Probe,
}

/// What one lap measured.
#[derive(Debug, Default)]
pub struct Lap {
    pub seconds: f64,
    /// Process CPU (user + system, every thread) spent during the lap.
    pub cpu_seconds: f64,
    /// Resident-set high-water mark reached during the lap, MiB (`None`
    /// where the kernel does not let a process reset its own mark).
    pub peak_rss_mib: Option<f64>,
    pub frame_ms: Vec<f64>,
}

/// A set-up rig plus what the harness has learned about its frames.
pub struct Bench<'a> {
    pub plan: &'a Plan,
    pub rig: Rig,
    pub prints: BTreeMap<Slot, Fingerprint>,
    pub tally: Tally,
}

impl<'a> Bench<'a> {
    /// Set up `reps` times (tearing down in between) and keep the last rig.
    /// Returns the bench and each set-up's duration; the first is timed
    /// from `process_start`, so it includes getting this far. The pace car
    /// runs after every set-up.
    pub fn setup(
        plan: &'a Plan,
        tmp: &TempDir,
        reps: usize,
        process_start: Instant,
        pace: &mut Pace,
    ) -> (Bench<'a>, Vec<f64>) {
        let mut durations = Vec::with_capacity(reps);
        let mut tally = Tally::default();
        let mut kept = None;
        for rep in 0..reps {
            if let Some(rig) = kept.take() {
                Rig::teardown(rig);
            }
            let started = if rep == 0 {
                process_start
            } else {
                Instant::now()
            };
            let (rig, first) = Rig::setup(plan, tmp);
            durations.push(started.elapsed().as_secs_f64());
            pace.sample();
            for (slot, frame, _) in first {
                tally.attempted += 1;
                match frame {
                    // Nothing can be cached yet: these frames are renders.
                    Ok(f) if f.from_cache => {
                        tally.fail(format!("{slot:?}: set-up frame came from a cache"))
                    }
                    Ok(_) => {}
                    Err(why) => tally.fail(format!("{slot:?}: {why}")),
                }
            }
            kept = Some(rig);
        }
        let mut bench = Bench {
            plan,
            rig: kept.expect("at least one set-up"),
            prints: BTreeMap::new(),
            tally,
        };
        if let Path::Pool { nodes } = plan.path {
            let used = bench.rig.pool_nodes_used();
            if used != nodes {
                bench
                    .tally
                    .fail(format!("sessions landed on {used} of {nodes} pool nodes"));
            }
        }
        (bench, durations)
    }

    /// Run one lap of the plan's order, checking every frame.
    pub fn lap(&mut self, check: Check) -> Lap {
        self.lap_with(check, &mut |_| {})
    }

    /// [`Bench::lap`], also showing each outcome to `observe` after it is
    /// checked (the traced run records spans and keeps images there).
    pub fn lap_with(&mut self, check: Check, observe: &mut dyn FnMut(&Outcome)) -> Lap {
        let plan = self.plan;
        let mut lap = Lap::default();
        let (prints, tally) = (&mut self.prints, &mut self.tally);
        let lap_peak = procfs::reset_peak_rss();
        let cpu_before = procfs::cpu_seconds();
        let started = Instant::now();
        self.rig.lap(plan, &plan.order, &mut |outcome: Outcome| {
            tally.attempted += 1;
            let (slot, frame, latency) = &outcome;
            lap.frame_ms.push(latency * 1e3);
            match frame {
                Err(why) => tally.fail(format!("{slot:?}: {why}")),
                Ok(f) => {
                    let pixels_ok = match (check, prints.get(slot)) {
                        (Check::Full, None) => {
                            prints.insert(*slot, verify::fingerprint(&f.image));
                            true
                        }
                        (Check::Full, Some(print)) => print.matches_fully(&f.image),
                        (Check::Probe, Some(print)) => print.matches_probe(&f.image),
                        (Check::Probe, None) => false,
                    };
                    if !pixels_ok {
                        tally.fail(format!("{slot:?}: pixels differ from the warm-up lap"));
                    } else if f.from_cache != plan.expect_cached {
                        tally.fail(format!(
                            "{slot:?}: from_cache = {}, the workload prescribes {}",
                            f.from_cache, plan.expect_cached
                        ));
                    }
                    if plan.out_of_core && f.store.is_some_and(|s| s.evictions == 0) {
                        tally.fail(format!("{slot:?}: an out-of-core frame evicted nothing"));
                    }
                }
            }
            observe(&outcome);
        });
        lap.seconds = started.elapsed().as_secs_f64();
        lap.cpu_seconds = procfs::cpu_seconds() - cpu_before;
        lap.peak_rss_mib = lap_peak.then(procfs::peak_rss_mib);
        lap
    }

    /// Replay whole laps until `seconds` have passed (at least one lap; the
    /// last lap is run if more than half of it fits the budget, so the
    /// window lands within half a lap of `seconds` either way). The pace
    /// car runs between laps, outside every lap's own clock.
    pub fn window(&mut self, seconds: f64, pace: &mut Pace) -> Window {
        let started = Instant::now();
        let mut laps: Vec<Lap> = Vec::new();
        loop {
            laps.push(self.lap(Check::Probe));
            pace.sample_if_due(PACE_EVERY);
            let elapsed = started.elapsed().as_secs_f64();
            let typical = elapsed / laps.len() as f64;
            if elapsed + typical / 2.0 > seconds {
                break;
            }
        }
        Window {
            seconds: started.elapsed().as_secs_f64(),
            laps,
        }
    }

    /// Compare [`ORACLE_VIEWS`] evenly spaced slots of the lap bit-for-bit
    /// against `mgpu_volren::render` — a fresh plan and brick store per
    /// view, sharing nothing with the path under test but the inputs.
    pub fn check_against_oracle(&mut self) {
        let slots = self.plan.slots();
        let step = (slots.len() / ORACLE_VIEWS).max(1);
        let sampled: Vec<Slot> = slots.into_iter().step_by(step).take(ORACLE_VIEWS).collect();
        let mut delivered = BTreeMap::new();
        self.rig.lap(self.plan, &sampled, &mut |(slot, frame, _)| {
            delivered.insert(slot, frame);
        });
        for slot in sampled {
            self.tally.attempted += 1;
            let request = self.rig.request(slot);
            let oracle = mgpu_volren::render(
                &request.spec,
                &request.volume,
                &request.scene,
                &request.config,
            );
            match delivered.remove(&slot) {
                Some(Ok(frame)) if verify::bit_identical(&frame.image, &oracle.image) => {}
                Some(Ok(_)) => self
                    .tally
                    .fail(format!("{slot:?}: pixels differ from a direct render")),
                Some(Err(why)) => self.tally.fail(format!("{slot:?}: {why}")),
                None => self.tally.fail(format!("{slot:?}: never delivered")),
            }
        }
    }
}

/// The measured window: whole laps of identical work.
pub struct Window {
    pub seconds: f64,
    pub laps: Vec<Lap>,
}

impl Window {
    pub fn frames(&self) -> usize {
        self.laps.iter().map(|l| l.frame_ms.len()).sum()
    }

    pub fn lap_seconds(&self) -> Vec<f64> {
        self.laps.iter().map(|l| l.seconds).collect()
    }

    pub fn frame_ms(&self) -> Vec<f64> {
        self.laps
            .iter()
            .flat_map(|l| l.frame_ms.iter().copied())
            .collect()
    }

    pub fn median_lap_seconds(&self) -> f64 {
        stats::median(&self.lap_seconds())
    }

    /// CPU time per frame, ms: the median over runs of consecutive laps
    /// that each hold at least a second of CPU. The kernel counts CPU in
    /// 10 ms ticks, so a short lap alone would read only to a few percent.
    pub fn cpu_ms_per_frame(&self) -> f64 {
        let mut per_frame = Vec::new();
        let (mut cpu, mut frames) = (0.0, 0usize);
        for lap in &self.laps {
            cpu += lap.cpu_seconds;
            frames += lap.frame_ms.len();
            if cpu >= 1.0 {
                per_frame.push(cpu * 1e3 / frames as f64);
                (cpu, frames) = (0.0, 0);
            }
        }
        if per_frame.is_empty() {
            per_frame.push(cpu * 1e3 / frames as f64);
        }
        stats::median(&per_frame)
    }

    /// Median over laps of the lap's resident-set high-water mark; the
    /// process-wide mark where per-lap marks are not available.
    pub fn peak_rss_mib(&self) -> f64 {
        let per_lap: Vec<f64> = self.laps.iter().filter_map(|l| l.peak_rss_mib).collect();
        if per_lap.len() == self.laps.len() {
            stats::median(&per_lap)
        } else {
            procfs::peak_rss_mib()
        }
    }

    /// IQR of the lap times over their median, in percent (0 for a window
    /// of one lap): how unsteady the box was during this run.
    pub fn lap_spread_pct(&self) -> f64 {
        match self.laps.len() {
            0 | 1 => 0.0,
            _ => 100.0 * stats::iqr_share(&self.lap_seconds()),
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a run reports: gated metrics, ungated diagnostics, the tally.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub diagnostics: Vec<Metric>,
    pub tally: Tally,
}

/// The untraced run of one workload.
pub fn run(plan: &Plan, seconds: f64, process_start: Instant) -> Report {
    let tmp = TempDir::create().expect("create the per-process scratch directory");
    // Each phase is corrected by the pace measured while it ran.
    let (mut setup_pace, mut pace) = (Pace::default(), Pace::default());
    let (mut bench, setups) = Bench::setup(plan, &tmp, SETUP_REPS, process_start, &mut setup_pace);
    bench.lap(Check::Full); // warm-up: fill caches, record fingerprints
    pace.sample();
    let window = bench.window(seconds, &mut pace);
    let peak_rss = window.peak_rss_mib();
    bench.lap(Check::Full);
    bench.check_against_oracle();
    let Bench { rig, tally, .. } = bench;
    rig.teardown();

    // Time metrics at nominal pace (see `pace`); the raw values follow as
    // diagnostics. Memory is not a time and is reported as measured.
    let slowdown = pace.slowdown();
    let frames = window.frames();
    let frame_ms = window.frame_ms();
    let raw_fps = stats::frames_per_sec(plan.order.len(), &window.lap_seconds());
    let raw_p50 = stats::median(&frame_ms);
    let raw_cpu = window.cpu_ms_per_frame();
    let raw_setup = stats::median(&setups);
    let metrics = vec![
        metric("frames_per_sec", raw_fps * slowdown, "frames/s"),
        metric("frame_ms_p50", raw_p50 / slowdown, "ms"),
        metric("cpu_ms_per_frame", raw_cpu / slowdown, "ms"),
        metric("peak_rss_mb", peak_rss, "MiB"),
        metric("setup_s", raw_setup / setup_pace.slowdown(), "s"),
    ];
    let diagnostics = vec![
        metric("raw.frames_per_sec", raw_fps, "frames/s"),
        metric("raw.frame_ms_p50", raw_p50, "ms"),
        metric("raw.cpu_ms_per_frame", raw_cpu, "ms"),
        metric("raw.setup_s", raw_setup, "s"),
        metric("harness.slowdown", slowdown, "ratio"),
        metric("harness.spin_ms", pace.reference_ms(), "ms"),
        metric(
            "client.frame_ms_p99",
            stats::quantile(&frame_ms, 0.99),
            "ms",
        ),
        metric("client.frame_ms_max", stats::quantile(&frame_ms, 1.0), "ms"),
        metric("harness.lap_spread_pct", window.lap_spread_pct(), "%"),
        metric("harness.window_s", window.seconds, "s"),
        metric("harness.laps", window.laps.len() as f64, "count"),
        metric("harness.frames", frames as f64, "count"),
        metric("harness.setup_first_s", setups[0], "s"),
    ];
    Report {
        metrics,
        diagnostics,
        tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window_of(lap_seconds: &[f64]) -> Window {
        Window {
            seconds: lap_seconds.iter().sum(),
            laps: lap_seconds
                .iter()
                .map(|&seconds| Lap {
                    seconds,
                    cpu_seconds: seconds * 1.5,
                    peak_rss_mib: Some(10.0 * seconds),
                    frame_ms: vec![seconds * 500.0; 2],
                })
                .collect(),
        }
    }

    #[test]
    fn window_aggregates_its_laps() {
        let w = window_of(&[2.0, 4.0, 3.0]);
        assert_eq!(w.frames(), 6);
        assert_eq!(w.median_lap_seconds(), 3.0);
        assert_eq!(w.frame_ms().len(), 6);
        // Every lap here holds ≥ 1 s of CPU, so groups are single laps.
        assert_eq!(w.cpu_ms_per_frame(), 3.0 * 1.5 * 1e3 / 2.0);
        // Short laps pool until a second of CPU: 0.3 s × 1.5 × 3 laps.
        let short = window_of(&[0.3; 7]);
        assert!((short.cpu_ms_per_frame() - 0.3 * 1.5 * 1e3 / 2.0).abs() < 1e-9);
        assert!((window_of(&[0.1]).cpu_ms_per_frame() - 75.0).abs() < 1e-9);
        assert_eq!(w.peak_rss_mib(), 30.0);
        assert!(w.lap_spread_pct() > 0.0);
        assert_eq!(window_of(&[2.0]).lap_spread_pct(), 0.0);
    }

    #[test]
    fn tally_keeps_the_first_failure() {
        let mut t = Tally::default();
        t.fail("first".into());
        t.fail("second".into());
        assert_eq!(t.failed, 2);
        assert_eq!(t.first_failure.as_deref(), Some("first"));
    }
}
