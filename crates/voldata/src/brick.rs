//! Brick-grid geometry: how a volume is cut into bricks.
//!
//! The paper bricks volumes so that (a) any single brick fits in GPU memory
//! and (b) the brick count stays "close (roughly within a factor of four) to
//! the number of GPUs" (§6). [`BrickPolicy`] encodes both constraints; the
//! grid produced always tiles the volume exactly once, with no overlap.

/// Constraints on the brick decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrickPolicy {
    /// Aim for at least this many bricks (typically 1–4 × the GPU count, so
    /// every GPU has work and the stream has depth).
    pub min_bricks: u32,
    /// No brick may exceed this many voxels (VRAM constraint: the paper
    /// requires "any single map task must fit in the main memory of the
    /// GPU").
    pub max_brick_voxels: u64,
}

impl Default for BrickPolicy {
    fn default() -> Self {
        BrickPolicy {
            min_bricks: 1,
            // 256³ voxels = 64 Mi voxels = 256 MiB of f32: comfortably inside
            // a C1060's 4 GiB alongside working buffers.
            max_brick_voxels: 256 * 256 * 256,
        }
    }
}

/// A brick's place in the volume (ghost layers are added at materialization
/// time and are not part of the geometry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrickInfo {
    pub id: usize,
    pub origin: [u32; 3],
    pub size: [u32; 3],
}

impl BrickInfo {
    pub fn voxels(&self) -> u64 {
        self.size[0] as u64 * self.size[1] as u64 * self.size[2] as u64
    }

    pub fn bytes(&self) -> u64 {
        self.voxels() * 4
    }

    /// The brick with `ghost` layers on every side: its origin (negative at
    /// a low border of the volume) and dims.
    pub fn padded(&self, ghost: u32) -> ([i64; 3], [usize; 3]) {
        let g = ghost as usize;
        let origin = self.origin.map(|o| o as i64 - g as i64);
        (origin, self.size.map(|s| s as usize + 2 * g))
    }
}

/// An axis-aligned decomposition of a volume into `counts[0]·counts[1]·counts[2]`
/// bricks, split as evenly as integer arithmetic allows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrickGrid {
    pub vol_dims: [u32; 3],
    pub counts: [u32; 3],
}

impl BrickGrid {
    /// Decompose `dims` under `policy`: repeatedly halve the axis with the
    /// largest per-brick extent until both constraints hold.
    pub fn subdivide(dims: [u32; 3], policy: &BrickPolicy) -> BrickGrid {
        let mut counts = [1u32; 3];
        let brick_extent =
            |counts: &[u32; 3], a: usize| -> u64 { dims[a].div_ceil(counts[a]) as u64 };
        let brick_voxels =
            |counts: &[u32; 3]| -> u64 { (0..3).map(|a| brick_extent(counts, a)).product() };
        let total = |counts: &[u32; 3]| -> u64 { counts.iter().map(|&c| c as u64).product() };

        while total(&counts) < policy.min_bricks as u64
            || brick_voxels(&counts) > policy.max_brick_voxels
        {
            // Split the axis whose bricks are currently longest; ties go to
            // the later axis (z), matching slab-friendly layouts.
            let mut best = 0usize;
            for a in 1..3 {
                if brick_extent(&counts, a) >= brick_extent(&counts, best) {
                    best = a;
                }
            }
            if brick_extent(&counts, best) <= 1 {
                break; // cannot split further: single-voxel bricks
            }
            counts[best] *= 2;
            // Never create more bricks along an axis than it has voxels.
            counts[best] = counts[best].min(dims[best]);
        }

        BrickGrid {
            vol_dims: dims,
            counts,
        }
    }

    pub fn brick_count(&self) -> usize {
        (self.counts[0] * self.counts[1] * self.counts[2]) as usize
    }

    /// The (bx, by, bz) lattice coordinate of brick `id`.
    pub fn coords(&self, id: usize) -> [u32; 3] {
        let id = id as u32;
        let bx = id % self.counts[0];
        let by = (id / self.counts[0]) % self.counts[1];
        let bz = id / (self.counts[0] * self.counts[1]);
        assert!(bz < self.counts[2], "brick id out of range");
        [bx, by, bz]
    }

    /// Geometry of brick `id`. Bricks partition each axis at
    /// `floor(i · dim / count)` so sizes differ by at most one voxel.
    pub fn brick(&self, id: usize) -> BrickInfo {
        let c = self.coords(id);
        let mut origin = [0u32; 3];
        let mut size = [0u32; 3];
        for a in 0..3 {
            let lo = (c[a] as u64 * self.vol_dims[a] as u64 / self.counts[a] as u64) as u32;
            let hi = ((c[a] as u64 + 1) * self.vol_dims[a] as u64 / self.counts[a] as u64) as u32;
            origin[a] = lo;
            size[a] = hi - lo;
        }
        BrickInfo { id, origin, size }
    }

    pub fn bricks(&self) -> impl Iterator<Item = BrickInfo> + '_ {
        (0..self.brick_count()).map(|i| self.brick(i))
    }

    /// Largest brick in voxels (what VRAM must accommodate).
    pub fn max_brick_voxels(&self) -> u64 {
        self.bricks().map(|b| b.voxels()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_brick_when_unconstrained() {
        let g = BrickGrid::subdivide(
            [64, 64, 64],
            &BrickPolicy {
                min_bricks: 1,
                max_brick_voxels: u64::MAX,
            },
        );
        assert_eq!(g.brick_count(), 1);
        let b = g.brick(0);
        assert_eq!(b.origin, [0, 0, 0]);
        assert_eq!(b.size, [64, 64, 64]);
    }

    #[test]
    fn respects_min_bricks() {
        // The paper's two bricks per GPU, on 8 GPUs.
        let policy = BrickPolicy {
            min_bricks: 16,
            max_brick_voxels: u64::MAX,
        };
        let g = BrickGrid::subdivide([128, 128, 128], &policy);
        assert!(g.brick_count() >= 16);
        // Stays within a factor of ~4 of the request (paper §6).
        assert!(g.brick_count() <= 64);
    }

    #[test]
    fn respects_vram_cap() {
        let g = BrickGrid::subdivide(
            [1024, 1024, 1024],
            &BrickPolicy {
                min_bricks: 1,
                max_brick_voxels: 256 * 256 * 256,
            },
        );
        assert!(g.max_brick_voxels() <= 256 * 256 * 256);
        assert_eq!(g.brick_count(), 64);
    }

    #[test]
    fn bricks_tile_volume_exactly_once() {
        for dims in [[10u32, 7, 13], [64, 64, 64], [33, 65, 17]] {
            let g = BrickGrid::subdivide(
                dims,
                &BrickPolicy {
                    min_bricks: 11,
                    max_brick_voxels: 500,
                },
            );
            let mut covered = vec![0u8; dims[0] as usize * dims[1] as usize * dims[2] as usize];
            for b in g.bricks() {
                for z in 0..b.size[2] {
                    for y in 0..b.size[1] {
                        for x in 0..b.size[0] {
                            let gx = b.origin[0] + x;
                            let gy = b.origin[1] + y;
                            let gz = b.origin[2] + z;
                            let idx = (gx as usize)
                                + dims[0] as usize * (gy as usize + dims[1] as usize * gz as usize);
                            covered[idx] += 1;
                        }
                    }
                }
            }
            assert!(
                covered.iter().all(|&c| c == 1),
                "bricks must tile exactly once for dims {dims:?}"
            );
        }
    }

    #[test]
    fn anisotropic_volume_splits_longest_axis_first() {
        // Plume-shaped: 1×1×4 aspect. First splits should all be along z.
        let g = BrickGrid::subdivide(
            [512, 512, 2048],
            &BrickPolicy {
                min_bricks: 4,
                max_brick_voxels: u64::MAX,
            },
        );
        assert_eq!(g.counts, [1, 1, 4]);
    }

    #[test]
    fn tiny_volume_cannot_oversplit() {
        let g = BrickGrid::subdivide(
            [2, 2, 2],
            &BrickPolicy {
                min_bricks: 1000,
                max_brick_voxels: u64::MAX,
            },
        );
        assert_eq!(g.brick_count(), 8); // 2×2×2 single-voxel bricks, no further
    }

    #[test]
    fn brick_sizes_near_even() {
        let g = BrickGrid::subdivide(
            [100, 100, 100],
            &BrickPolicy {
                min_bricks: 27,
                max_brick_voxels: u64::MAX,
            },
        );
        for b in g.bricks() {
            for a in 0..3 {
                let per = 100 / g.counts[a];
                assert!(b.size[a] == per || b.size[a] == per + 1);
            }
        }
    }
}
