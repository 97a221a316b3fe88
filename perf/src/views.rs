//! Seed → inputs. The seed fixes each session's starting azimuth and the
//! order in which a lap visits (session, view) slots; the product only ever
//! sees the requests generated from them. Every lap of a run replays the
//! *same* order, so per-lap work — and every count derived from it — repeats
//! exactly, and cyclic access keeps a cache smaller than the lap always
//! missing (or, for `replay_cached`, one larger than the view set always
//! hitting).

/// One frame of a lap: which session, which of its views.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slot {
    pub session: usize,
    pub view: usize,
}

/// SplitMix64: a full-period 64-bit mixer, enough to turn a small integer
/// seed into well-spread draws without pulling in an RNG crate.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The azimuths of one session: `views` evenly spaced around the full
/// circle, the whole ring turned by a seed-drawn fraction of one step. A lap
/// therefore always integrates over 360°, whatever the seed — seeds change
/// the frames, not the amount of work.
pub fn azimuths(seed: u64, session: usize, views: usize) -> Vec<f32> {
    let step = 360.0 / views as f64;
    let turn = SplitMix::new(seed ^ (session as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f))
        .next_unit()
        * step;
    (0..views)
        .map(|k| (turn + k as f64 * step) as f32)
        .collect()
}

/// Lap order that visits every view of every session exactly once,
/// round-robin over the sessions: the seed draws the session order within a
/// round and the view each session starts from.
pub fn round_robin(seed: u64, views_per_session: &[usize]) -> Vec<Slot> {
    let mut rng = SplitMix::new(seed);
    let mut sessions: Vec<usize> = (0..views_per_session.len()).collect();
    // Fisher–Yates.
    for i in (1..sessions.len()).rev() {
        sessions.swap(i, rng.below(i + 1));
    }
    let starts: Vec<usize> = views_per_session.iter().map(|&v| rng.below(v)).collect();
    let rounds = views_per_session.iter().copied().max().unwrap_or(0);
    let mut order = Vec::with_capacity(views_per_session.iter().sum());
    for k in 0..rounds {
        for &s in &sessions {
            if k < views_per_session[s] {
                order.push(Slot {
                    session: s,
                    view: (starts[s] + k) % views_per_session[s],
                });
            }
        }
    }
    order
}

/// Lap order of `frames` seeded draws over one session's `views` — the
/// replay workload, where a lap is much longer than the view set. The first
/// `views` draws are a permutation so every view is certain to appear.
pub fn replay(seed: u64, views: usize, frames: usize) -> Vec<Slot> {
    let mut rng = SplitMix::new(seed);
    let mut first: Vec<usize> = (0..views).collect();
    for i in (1..first.len()).rev() {
        first.swap(i, rng.below(i + 1));
    }
    first.truncate(frames);
    while first.len() < frames {
        first.push(rng.below(views));
    }
    first
        .into_iter()
        .map(|view| Slot { session: 0, view })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(azimuths(7, 0, 36), azimuths(7, 0, 36));
        assert_ne!(azimuths(7, 0, 36), azimuths(8, 0, 36));
        assert_ne!(azimuths(7, 0, 36), azimuths(7, 1, 36));
        assert_eq!(round_robin(7, &[80, 80, 80]), round_robin(7, &[80, 80, 80]));
        assert_ne!(round_robin(7, &[80, 80, 80]), round_robin(8, &[80, 80, 80]));
        assert_eq!(replay(7, 16, 400), replay(7, 16, 400));
        assert_ne!(replay(7, 16, 400), replay(8, 16, 400));
    }

    #[test]
    fn azimuths_cover_the_circle_in_even_steps() {
        for seed in 0..20 {
            let az = azimuths(seed, 0, 36);
            assert_eq!(az.len(), 36);
            assert!(
                (0.0..10.0).contains(&az[0]),
                "turn {} outside one step",
                az[0]
            );
            for pair in az.windows(2) {
                assert!((pair[1] - pair[0] - 10.0).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn round_robin_visits_every_slot_once_and_alternates_sessions() {
        let order = round_robin(3, &[80, 80, 80]);
        assert_eq!(order.len(), 240);
        let distinct: BTreeSet<Slot> = order.iter().copied().collect();
        assert_eq!(distinct.len(), 240);
        for round in order.chunks(3) {
            let sessions: BTreeSet<usize> = round.iter().map(|s| s.session).collect();
            assert_eq!(sessions.len(), 3, "a round serves each session once");
        }
        // Ragged sessions still get every view.
        assert_eq!(round_robin(3, &[2, 5]).len(), 7);
    }

    #[test]
    fn replay_touches_every_view_and_stays_in_range() {
        let order = replay(11, 16, 400);
        assert_eq!(order.len(), 400);
        let first: BTreeSet<usize> = order[..16].iter().map(|s| s.view).collect();
        assert_eq!(first.len(), 16);
        assert!(order.iter().all(|s| s.session == 0 && s.view < 16));
        assert_eq!(replay(11, 16, 5).len(), 5);
    }
}
