//! The pace car: a fixed reference loop timed between laps, and the
//! correction the time metrics take from it.
//!
//! The machines this benchmark runs on are shared. When a neighbour is busy
//! the *same binary on the same inputs* runs 30–75 % slower for tens of
//! seconds to minutes — user CPU time inflating in step with wall time —
//! and no estimator inside one run can see through that: every lap, every
//! frame and every quantile of the run is shifted together. What does see it
//! is an instrument that does not change from PR to PR. The reference loop
//! (pure ALU plus gathers from a 256 KiB table, single thread, ~17 ms) slows
//! by 5–25 % in exactly those episodes, and over 48 recorded runs across
//! both regimes the log of a run's median lap time tracked the log of its
//! median reference time with correlation 0.83–0.96 on every workload, at a
//! slope of 2.0–3.5: the product's memory-bound code feels a neighbour about
//! 2.5× as hard as the reference does.
//!
//! So each time metric is reported *at nominal pace*: divided by
//! `(median reference time ÷ NOMINAL_MS) ^ SENSITIVITY`. On those 48 runs
//! that took the run-to-run spread (IQR ÷ median) of the median lap time from
//! 32–41 % down to 5–16 %; on a quiet box the factor stays within ±3 % of 1.
//! A product regression moves the product's time and not the reference's, so
//! it shows in full; a busy neighbour moves both and mostly cancels. The raw
//! values and the factor are printed next to the corrected ones.

use std::time::{Duration, Instant};

use crate::stats;

/// What [`spin_ms`] takes on an undisturbed core of the sizing machine.
pub const NOMINAL_MS: f64 = 17.4;

/// How much harder than the reference loop the workloads feel the same
/// disturbance (slope of log lap time over log reference time; fitted per
/// workload it was 2.6 / 3.5 / 2.4 / 2.0 — one shared value keeps this a
/// property of the harness, not a knob per workload).
pub const SENSITIVITY: f64 = 2.5;

/// A fixed ALU + gather loop. Identical work on every call, on every PR.
pub fn spin_ms() -> f64 {
    const TABLE: usize = 1 << 16;
    const STEPS: usize = 12_000_000;
    let table: Vec<u32> = (0..TABLE as u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let started = Instant::now();
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
    for _ in 0..STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        acc = acc.wrapping_add(table[(x >> 40) as usize & (TABLE - 1)] as u64);
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64() * 1e3
}

/// The slowdown a median reference time implies for the workloads.
pub fn slowdown(reference_ms: f64) -> f64 {
    (reference_ms / NOMINAL_MS).powf(SENSITIVITY)
}

/// Reference timings taken through one run.
#[derive(Default)]
pub struct Pace {
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Pace {
    /// Time the reference loop now.
    pub fn sample(&mut self) {
        self.samples.push(spin_ms());
        self.last = Some(Instant::now());
    }

    /// Time the reference loop unless it was timed less than `every` ago —
    /// called between laps, this bounds the reference's share of a window
    /// of many short laps.
    pub fn sample_if_due(&mut self, every: Duration) {
        if self.last.is_none_or(|at| at.elapsed() >= every) {
            self.sample();
        }
    }

    /// Median reference time so far, ms.
    pub fn reference_ms(&self) -> f64 {
        stats::median(&self.samples)
    }

    /// [`slowdown`] at the median reference time so far.
    pub fn slowdown(&self) -> f64 {
        slowdown(self.reference_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_pace_changes_nothing_and_a_slow_box_is_scaled_up() {
        assert_eq!(slowdown(NOMINAL_MS), 1.0);
        // A reference 10 % slow predicts workloads 27 % slow.
        assert!((slowdown(NOMINAL_MS * 1.1) - 1.1f64.powf(2.5)).abs() < 1e-12);
        assert!(slowdown(NOMINAL_MS * 0.9) < 1.0);
    }

    #[test]
    fn samples_are_rate_limited_and_summarised_by_their_median() {
        let mut pace = Pace::default();
        pace.sample_if_due(Duration::from_secs(3600));
        pace.sample_if_due(Duration::from_secs(3600));
        assert_eq!(pace.samples.len(), 1);
        pace.sample_if_due(Duration::ZERO);
        assert_eq!(pace.samples.len(), 2);
        pace.samples = vec![10.0, 30.0, 20.0];
        assert_eq!(pace.reference_ms(), 20.0);
        assert_eq!(pace.slowdown(), slowdown(20.0));
    }
}
