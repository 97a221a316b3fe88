//! Per-session token-bucket rate limiting, enforced at the server door.
//!
//! Every connection (one connection = one client session) owns its own
//! `TokenBucket`: a client hammering the service only drains its *own*
//! bucket, so a well-behaved session next to it keeps its full rate — the
//! fairness property the proptests pin down. The limiter sits *before*
//! admission control: a throttled request never touches the queue, never
//! counts as an admission rejection, and costs the server one branch.
//!
//! Throttled requests get an explicit retry-after duration (how long until
//! one token has refilled), so clients can back off precisely instead of
//! busy-retrying.

use std::time::{Duration, Instant};

/// Rate-limit knobs for one session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimitConfig {
    /// Steady-state render submissions per second.
    pub frames_per_sec: f64,
    /// Burst allowance: a fresh session may submit this many frames
    /// back-to-back before the steady rate applies.
    pub burst: u32,
}

impl RateLimitConfig {
    pub fn new(frames_per_sec: f64, burst: u32) -> RateLimitConfig {
        assert!(
            frames_per_sec > 0.0 && frames_per_sec.is_finite(),
            "rate must be positive and finite, got {frames_per_sec}"
        );
        assert!(burst >= 1, "burst of 0 would reject every request");
        RateLimitConfig {
            frames_per_sec,
            burst,
        }
    }
}

/// A classic token bucket: `burst` capacity, refilled continuously at
/// `frames_per_sec`. Time is passed in explicitly: the server's protocol
/// core hands every event its own clock reading, so the refill math is the
/// same under a test's virtual time as under the real clock.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    capacity: f64,
    tokens: f64,
    fill_per_sec: f64,
    last: Instant,
}

impl TokenBucket {
    /// A full bucket (a new session gets its whole burst immediately).
    pub fn new(config: RateLimitConfig, now: Instant) -> TokenBucket {
        TokenBucket {
            capacity: config.burst as f64,
            tokens: config.burst as f64,
            fill_per_sec: config.frames_per_sec,
            last: now,
        }
    }

    /// Tokens available at `now` (refill applied lazily on the next take).
    pub fn available_at(&self, now: Instant) -> f64 {
        let refilled = now.saturating_duration_since(self.last).as_secs_f64() * self.fill_per_sec;
        (self.tokens + refilled).min(self.capacity)
    }

    /// Spend one token, or report how long until one is available. The
    /// returned duration is rounded *up* (with a microsecond of slack, far
    /// above f64 rounding error), so a caller that retries alone after
    /// exactly this wait always gets a token; under contention a retry may
    /// race other takers and be throttled again.
    pub fn try_take_at(&mut self, now: Instant) -> Result<(), Duration> {
        self.tokens = self.available_at(now);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            let secs = (1.0 - self.tokens) / self.fill_per_sec;
            Err(Duration::from_nanos((secs * 1e9).ceil() as u64 + 1_000))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t0() -> Instant {
        Instant::now()
    }

    #[test]
    fn burst_then_steady_rate() {
        let now = t0();
        let mut b = TokenBucket::new(RateLimitConfig::new(10.0, 3), now);
        // The full burst is available immediately…
        for _ in 0..3 {
            assert!(b.try_take_at(now).is_ok());
        }
        // …then the bucket is dry and the retry-after is 1/rate (rounded
        // up with the µs of anti-rounding slack).
        let retry = b.try_take_at(now).unwrap_err();
        assert!(retry.as_secs_f64() >= 0.1, "{retry:?}");
        assert!((retry.as_secs_f64() - 0.1).abs() < 1e-4, "{retry:?}");
        // After exactly one refill interval a single token is back.
        let later = now + Duration::from_millis(100);
        assert!(b.try_take_at(later).is_ok());
        assert!(b.try_take_at(later).is_err());
    }

    #[test]
    fn refill_caps_at_burst() {
        let now = t0();
        let mut b = TokenBucket::new(RateLimitConfig::new(100.0, 2), now);
        assert!(b.try_take_at(now).is_ok());
        assert!(b.try_take_at(now).is_ok());
        // An hour of idling refills to the burst cap, not beyond.
        let later = now + Duration::from_secs(3600);
        assert_eq!(b.available_at(later), 2.0);
        assert!(b.try_take_at(later).is_ok());
        assert!(b.try_take_at(later).is_ok());
        assert!(b.try_take_at(later).is_err());
    }

    #[test]
    fn time_going_backwards_is_harmless() {
        let now = t0() + Duration::from_secs(10);
        let mut b = TokenBucket::new(RateLimitConfig::new(1.0, 1), now);
        assert!(b.try_take_at(now).is_ok());
        // An earlier timestamp refills nothing and must not panic.
        let earlier = now - Duration::from_secs(5);
        assert!(b.try_take_at(earlier).is_err());
    }

    /// Waiting exactly the advertised duration always yields a token —
    /// including at awkward non-dyadic rates where the naive computation
    /// leaves the bucket at 0.99999999… through float rounding.
    #[test]
    fn retry_after_is_sufficient() {
        for rate in [7.0, 0.147, 3.9999, 1.0 / 3.0, 123.456] {
            let now = t0();
            let mut b = TokenBucket::new(RateLimitConfig::new(rate, 1), now);
            assert!(b.try_take_at(now).is_ok());
            let mut at = now;
            for _ in 0..50 {
                let retry = b.try_take_at(at).unwrap_err();
                at += retry;
                assert!(
                    b.try_take_at(at).is_ok(),
                    "advertised retry-after must suffice (rate {rate})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_is_rejected() {
        RateLimitConfig::new(0.0, 1);
    }

    #[test]
    #[should_panic(expected = "burst of 0")]
    fn zero_burst_is_rejected() {
        RateLimitConfig::new(1.0, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Rate-limit fairness: session B's admissions are byte-for-byte the
        /// same whether or not session A hammers its own bucket in between —
        /// buckets are fully isolated per session.
        #[test]
        fn rate_limit_is_fair_across_sessions(
            rate in 1.0f64..100.0,
            burst in 1u32..8,
            a_schedule in prop::collection::vec(0u64..2_000, 1..64),
            b_schedule in prop::collection::vec(0u64..2_000, 1..32),
        ) {
            let config = RateLimitConfig::new(rate, burst);
            let t0 = Instant::now();
            // B alone.
            let mut b_alone = TokenBucket::new(config, t0);
            let mut b_times: Vec<u64> = b_schedule.clone();
            b_times.sort_unstable();
            let alone: Vec<bool> = b_times
                .iter()
                .map(|ms| b_alone.try_take_at(t0 + Duration::from_millis(*ms)).is_ok())
                .collect();

            // B next to a hammering A (separate buckets, interleaved calls).
            let mut a = TokenBucket::new(config, t0);
            let mut b = TokenBucket::new(config, t0);
            let mut a_times: Vec<u64> = a_schedule.clone();
            a_times.sort_unstable();
            let mut a_iter = a_times.iter().peekable();
            let contended: Vec<bool> = b_times
                .iter()
                .map(|ms| {
                    while let Some(at) = a_iter.peek() {
                        if **at <= *ms {
                            let _ = a.try_take_at(t0 + Duration::from_millis(**at));
                            a_iter.next();
                        } else {
                            break;
                        }
                    }
                    b.try_take_at(t0 + Duration::from_millis(*ms)).is_ok()
                })
                .collect();
            prop_assert_eq!(alone, contended, "a noisy neighbour changed session B's admissions");
        }

        /// Admission count is bounded by burst + rate·elapsed (+1 for boundary
        /// rounding): the limiter actually limits.
        #[test]
        fn rate_limit_bounds_throughput(
            rate in 1.0f64..50.0,
            burst in 1u32..6,
            attempts in prop::collection::vec(0u64..5_000, 1..128),
        ) {
            let t0 = Instant::now();
            let mut bucket = TokenBucket::new(RateLimitConfig::new(rate, burst), t0);
            let mut times = attempts.clone();
            times.sort_unstable();
            let horizon_ms = *times.last().unwrap();
            let admitted = times
                .iter()
                .filter(|ms| bucket.try_take_at(t0 + Duration::from_millis(**ms)).is_ok())
                .count() as f64;
            let bound = burst as f64 + rate * (horizon_ms as f64 / 1_000.0) + 1.0;
            prop_assert!(
                admitted <= bound,
                "admitted {admitted} > bound {bound} (rate {rate}, burst {burst})"
            );
        }
    }
}
