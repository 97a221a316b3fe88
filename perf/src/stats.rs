//! Order statistics for the harness: medians, quartiles and the A/A spread.
//!
//! `quartiles` is Python's `statistics.quantiles(values, n=4)` (the default
//! "exclusive" method), because that is the estimator the pipeline applies
//! to this benchmark's runs — `aa` must predict its verdict, not a cousin's.

/// Median of a series (mean of the middle two for even lengths). Panics on
/// an empty series: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty series");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile, `q` in `[0, 1]`: the smallest sample with at
/// least `q` of the series at or below it. Used for tails (p99, max), where
/// interpolation would invent a latency nobody observed.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty series");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `[q1, q2, q3]` exactly as `statistics.quantiles(values, n=4)` gives them.
/// Needs at least two samples, like the original.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (n, ld) = (4usize, v.len());
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..n).enumerate() {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        out[slot] = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Inter-quartile range as a share of the median — the spread the pipeline
/// compares against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// The lap estimator behind `frames_per_sec`: frames in a lap over the
/// median lap time. A stalled lap moves the median by at most one rank,
/// where a mean over the window would absorb the whole stall.
pub fn frames_per_sec(frames_per_lap: usize, lap_seconds: &[f64]) -> f64 {
    frames_per_lap as f64 / median(lap_seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_series() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]),
            [1.0, 3.0, 5.0]
        );
    }

    #[test]
    fn iqr_share_of_a_known_series() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12); // (8.25 − 2.75) / 5.5
    }

    #[test]
    fn lap_estimator_ignores_one_stalled_lap() {
        let steady = [2.0, 2.0, 2.0, 2.0, 2.0];
        let stalled = [2.0, 2.0, 9.0, 2.0, 2.0];
        assert_eq!(frames_per_sec(36, &steady), 18.0);
        assert_eq!(frames_per_sec(36, &stalled), 18.0);
    }
}
