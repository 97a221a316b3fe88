//! Virtual time for the discrete-event simulator.
//!
//! Simulated time is kept in integer **nanoseconds** so that event ordering is
//! exact and replay is deterministic; floating-point seconds are only used at
//! the edges (cost models in, reports out).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since simulation start.
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start (report-side only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// The elapsed span since `earlier`; saturates to zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    pub fn max_of(a: SimTime, b: SimTime) -> SimTime {
        if a >= b {
            a
        } else {
            b
        }
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    /// Build from seconds; negative or non-finite inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> SimDuration {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration(0);
        }
        // Round to the nearest nanosecond for stability across cost models.
        SimDuration((secs * 1e9).round() as u64)
    }

    pub fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    pub fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    pub fn nanos(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.as_millis_f64();
        if ms >= 1000.0 {
            write!(f, "{:.3} s", ms / 1000.0)
        } else if ms >= 1.0 {
            write!(f, "{ms:.3} ms")
        } else {
            write!(f, "{:.1} us", ms * 1000.0)
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_from_secs_round_trips() {
        let d = SimDuration::from_secs_f64(0.020);
        assert_eq!(d.nanos(), 20_000_000);
        assert!((d.as_secs_f64() - 0.020).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime(5);
        let b = SimTime(9);
        assert_eq!(b.since(a), SimDuration(4));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime(100) + SimDuration(20);
        assert_eq!(t, SimTime(120));
        assert_eq!(t - SimTime(100), SimDuration(20));
        let total: SimDuration = [SimDuration(1), SimDuration(2)].into_iter().sum();
        assert_eq!(total, SimDuration(3));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_millis(1500)), "1.500 s");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000 ms");
        assert_eq!(format!("{}", SimDuration::from_micros(7)), "7.0 us");
    }
}
