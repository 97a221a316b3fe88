//! Partitioning strategies: which reducer owns a key.
//!
//! The paper partitions "in a per-pixel round-robin fashion. This is,
//! empirically, the highest-performing method... A modulo is sufficient to
//! determine the reducer" (§3.1.1). The alternatives it weighed —
//! checkerboard, tiled, striped distributions (§6, direct-send options) —
//! are implemented too, so `paper ablate partition` can reproduce that
//! empirical claim: round-robin gives near-perfect per-reducer balance for
//! any screen-space-coherent fragment distribution, while coarser schemes
//! skew under partial screen coverage.

use crate::types::Key;

/// Maps a key to the reducer that owns it. Must be pure.
pub trait Partitioner: Send + Sync {
    fn reducer_of(&self, key: Key, reducers: u32) -> u32;

    fn name(&self) -> &'static str;
}

/// The paper's choice: `key mod R`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl Partitioner for RoundRobin {
    #[inline]
    fn reducer_of(&self, key: Key, reducers: u32) -> u32 {
        key % reducers
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Contiguous horizontal stripes of `rows_per_stripe` image rows.
#[derive(Debug, Clone, Copy)]
pub struct Striped {
    pub width: u32,
    pub rows_per_stripe: u32,
}

impl Partitioner for Striped {
    #[inline]
    fn reducer_of(&self, key: Key, reducers: u32) -> u32 {
        let row = key / self.width;
        (row / self.rows_per_stripe) % reducers
    }

    fn name(&self) -> &'static str {
        "striped"
    }
}

/// Square tiles of `tile × tile` pixels, assigned round-robin by tile index.
#[derive(Debug, Clone, Copy)]
pub struct Tiled {
    pub width: u32,
    pub tile: u32,
}

impl Partitioner for Tiled {
    #[inline]
    fn reducer_of(&self, key: Key, reducers: u32) -> u32 {
        let x = key % self.width;
        let y = key / self.width;
        let tiles_x = self.width.div_ceil(self.tile);
        let t = (y / self.tile) * tiles_x + (x / self.tile);
        t % reducers
    }

    fn name(&self) -> &'static str {
        "tiled"
    }
}

/// Checkerboard over `cell × cell` pixel cells: alternating cells walk
/// through the reducer set diagonally.
#[derive(Debug, Clone, Copy)]
pub struct Checkerboard {
    pub width: u32,
    pub cell: u32,
}

impl Partitioner for Checkerboard {
    #[inline]
    fn reducer_of(&self, key: Key, reducers: u32) -> u32 {
        let x = (key % self.width) / self.cell;
        let y = (key / self.width) / self.cell;
        (x + y) % reducers
    }

    fn name(&self) -> &'static str {
        "checkerboard"
    }
}

/// Measure per-reducer load balance of a partitioner over a key set:
/// returns `max_load / mean_load` (1.0 = perfect).
pub fn imbalance<P: Partitioner + ?Sized>(
    partitioner: &P,
    keys: impl Iterator<Item = Key>,
    reducers: u32,
) -> f64 {
    let mut counts = vec![0u64; reducers as usize];
    let mut total = 0u64;
    for k in keys {
        counts[partitioner.reducer_of(k, reducers) as usize] += 1;
        total += 1;
    }
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / reducers as f64;
    let max = *counts.iter().max().unwrap() as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_modulo() {
        let p = RoundRobin;
        assert_eq!(p.reducer_of(0, 8), 0);
        assert_eq!(p.reducer_of(13, 8), 5);
        assert_eq!(p.reducer_of(16, 8), 0);
    }

    #[test]
    fn all_partitioners_stay_in_range() {
        let width = 64;
        let parts: Vec<Box<dyn Partitioner>> = vec![
            Box::new(RoundRobin),
            Box::new(Striped {
                width,
                rows_per_stripe: 4,
            }),
            Box::new(Tiled { width, tile: 16 }),
            Box::new(Checkerboard { width, cell: 8 }),
        ];
        for p in &parts {
            for r in [1u32, 3, 8, 32] {
                for key in 0..width * 64 {
                    assert!(p.reducer_of(key, r) < r, "{} escaped range", p.name());
                }
            }
        }
    }

    #[test]
    fn round_robin_perfectly_balanced_on_dense_keys() {
        let imb = imbalance(&RoundRobin, 0..262_144, 8);
        assert!((imb - 1.0).abs() < 1e-9);
    }

    #[test]
    fn round_robin_beats_striped_under_partial_coverage() {
        // Fragments covering only the top quarter of a 512² image — the
        // realistic case when a brick projects to part of the screen.
        let width = 512u32;
        let keys = || (0..512u32 * 128).map(|k| k as Key);
        let rr = imbalance(&RoundRobin, keys(), 8);
        let st = imbalance(
            &Striped {
                width,
                rows_per_stripe: 64,
            },
            keys(),
            8,
        );
        assert!(rr < 1.01, "round-robin imbalance {rr}");
        assert!(st > 2.0, "striped should skew badly, got {st}");
    }

    #[test]
    fn tiled_and_checkerboard_balance_on_full_coverage() {
        let width = 512u32;
        let keys = || 0..width * width;
        let t = imbalance(&Tiled { width, tile: 64 }, keys(), 4);
        let c = imbalance(&Checkerboard { width, cell: 64 }, keys(), 4);
        assert!(t < 1.01, "tiled {t}");
        assert!(c < 1.01, "checkerboard {c}");
    }

    #[test]
    fn single_reducer_takes_everything() {
        for p in [&RoundRobin as &dyn Partitioner] {
            for key in [0u32, 7, 1 << 20] {
                assert_eq!(p.reducer_of(key, 1), 0);
            }
        }
    }
}
