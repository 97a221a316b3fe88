//! Chunk→mapper assignment policies.
//!
//! The paper streams bricks to mappers without advanced scheduling (an
//! explicit non-goal); the default here is the same static round-robin its
//! figures imply. Alternatives change *which* GPU owns which brick — results
//! are invariant (tested), but locality and per-GPU load differ, which the
//! DES makes visible.

/// How chunks are distributed across mappers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Assignment {
    /// Chunk `i` → mapper `i mod M` (deterministic streaming round-robin,
    /// the paper's implied policy and our default).
    #[default]
    RoundRobin,
    /// Contiguous blocks: the first `ceil(N/M)` chunks to mapper 0, etc.
    /// Groups spatially-adjacent bricks on one GPU (depth-adjacent fragments
    /// become combinable, but load can skew toward dense regions).
    Blocked,
    /// Strided with a coprime stride, scattering hot regions across GPUs.
    Strided { stride: u32 },
}

impl Assignment {
    /// The mapper that owns chunk `index` out of `total` chunks on `mappers`
    /// GPUs.
    pub fn mapper_of(&self, index: usize, total: usize, mappers: u32) -> u32 {
        let m = mappers.max(1) as usize;
        match *self {
            Assignment::RoundRobin => (index % m) as u32,
            Assignment::Blocked => {
                let per = total.div_ceil(m).max(1);
                ((index / per).min(m - 1)) as u32
            }
            Assignment::Strided { stride } => {
                let s = stride.max(1) as usize;
                ((index * s) % m) as u32
            }
        }
    }

    /// The chunk indices owned by `mapper`, in processing order.
    pub fn chunks_for(
        &self,
        mapper: u32,
        total: usize,
        mappers: u32,
    ) -> impl Iterator<Item = usize> {
        let policy = *self;
        (0..total).filter(move |&i| policy.mapper_of(i, total, mappers) == mapper)
    }

    pub fn label(&self) -> &'static str {
        match self {
            Assignment::RoundRobin => "round-robin",
            Assignment::Blocked => "blocked",
            Assignment::Strided { .. } => "strided",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coverage_is_exact(a: Assignment, total: usize, mappers: u32) {
        let mut seen = vec![0u32; total];
        for m in 0..mappers {
            for i in a.chunks_for(m, total, mappers) {
                seen[i] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "{a:?} does not partition {total} chunks over {mappers} mappers"
        );
    }

    #[test]
    fn every_policy_partitions_chunks_exactly_once() {
        for total in [0usize, 1, 7, 16, 33] {
            for mappers in [1u32, 2, 5, 8] {
                coverage_is_exact(Assignment::RoundRobin, total, mappers);
                coverage_is_exact(Assignment::Blocked, total, mappers);
                coverage_is_exact(Assignment::Strided { stride: 3 }, total, mappers);
            }
        }
    }

    #[test]
    fn round_robin_balances_within_one() {
        let a = Assignment::RoundRobin;
        let counts: Vec<usize> = (0..4).map(|m| a.chunks_for(m, 10, 4).count()).collect();
        assert_eq!(counts, vec![3, 3, 2, 2]);
    }

    #[test]
    fn blocked_keeps_contiguity() {
        let a = Assignment::Blocked;
        assert!(a.chunks_for(0, 16, 4).eq([0, 1, 2, 3]));
        assert!(a.chunks_for(3, 16, 4).eq([12, 13, 14, 15]));
    }

    #[test]
    fn blocked_handles_remainders() {
        // 10 chunks over 4 mappers: per = 3 → 3,3,3,1.
        let a = Assignment::Blocked;
        let counts: Vec<usize> = (0..4).map(|m| a.chunks_for(m, 10, 4).count()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert_eq!(counts[0], 3);
        assert_eq!(counts[3], 1);
    }

    #[test]
    fn strided_scatters() {
        let a = Assignment::Strided { stride: 3 };
        // With 4 mappers and stride 3: 0→0, 1→3, 2→2, 3→1, 4→0…
        assert_eq!(a.mapper_of(0, 8, 4), 0);
        assert_eq!(a.mapper_of(1, 8, 4), 3);
        assert_eq!(a.mapper_of(2, 8, 4), 2);
        assert_eq!(a.mapper_of(4, 8, 4), 0);
    }
}
