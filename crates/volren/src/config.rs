//! Renderer configuration: every §3 design decision is a knob here, so the
//! ablation benches can flip them one at a time.

use std::sync::OnceLock;

use mgpu_mapreduce::{
    Assignment, Checkerboard, Partitioner, RoundRobin, Striped, Tiled, TraceOptions,
};

/// Which partitioning strategy routes fragments to reducers (§3.1.1 — the
/// paper found per-pixel round-robin "empirically the most performant").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    RoundRobin,
    Striped { rows_per_stripe: u32 },
    Tiled { tile: u32 },
    Checkerboard { cell: u32 },
}

impl PartitionStrategy {
    /// Instantiate for a given image width.
    pub fn build(&self, image_width: u32) -> Box<dyn Partitioner> {
        match *self {
            PartitionStrategy::RoundRobin => Box::new(RoundRobin),
            PartitionStrategy::Striped { rows_per_stripe } => Box::new(Striped {
                width: image_width,
                rows_per_stripe,
            }),
            PartitionStrategy::Tiled { tile } => Box::new(Tiled {
                width: image_width,
                tile,
            }),
            PartitionStrategy::Checkerboard { cell } => Box::new(Checkerboard {
                width: image_width,
                cell,
            }),
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            PartitionStrategy::RoundRobin => "round-robin",
            PartitionStrategy::Striped { .. } => "striped",
            PartitionStrategy::Tiled { .. } => "tiled",
            PartitionStrategy::Checkerboard { .. } => "checkerboard",
        }
    }
}

/// Compositing scheme (§6: the paper chose direct-send over swap because it
/// overlaps communication with computation and fits MapReduce; §6.1 points
/// out swap is a pluggable alternative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compositor {
    DirectSend,
    BinarySwap,
}

/// Where brick data starts (§5 timings assume host residency; out-of-core
/// runs stream from disk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Resident when the bricked volume fits aggregate VRAM, disk otherwise.
    Auto,
    /// Force host-resident staging (no disk charges).
    HostResident,
    /// Force disk streaming (out-of-core path).
    Disk,
}

/// Full renderer configuration. `Default` reproduces the paper's evaluation
/// setup: 512² image, unit step, early termination, 2 bricks per GPU capped
/// at 256³ voxels, round-robin direct-send, no combiner, CPU reduce,
/// synchronous texture uploads.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderConfig {
    pub image: (u32, u32),
    /// Ray-march step in voxel units (global sample grid).
    pub step_voxels: f32,
    /// Early-ray-termination opacity threshold (≥ 1.0 disables).
    pub early_term: f32,
    /// Target bricks per GPU (the paper runs ~2).
    pub bricks_per_gpu: u32,
    /// VRAM-driven cap on brick size, in voxels.
    pub max_brick_voxels: u64,
    pub residency: Residency,
    /// Host-side brick cache budget (out-of-core working set), bytes.
    pub host_cache_bytes: u64,
    /// Fragment batch flush threshold, bytes.
    pub batch_bytes: usize,
    pub partition: PartitionStrategy,
    pub compositor: Compositor,
    /// Brick→GPU assignment policy (default: streaming round-robin).
    pub assignment: Assignment,
    /// Enable the (paper-rejected) combine stage.
    pub combiner: bool,
    /// DES options: async uploads, GPU reduce.
    pub trace: TraceOptions,
    /// Host threads a kernel launch starts with; 0 = auto. A launch also
    /// borrows the cores of the frame's mappers that have run out of bricks,
    /// so it may end on more.
    pub kernel_parallelism: usize,
}

impl Default for RenderConfig {
    fn default() -> Self {
        RenderConfig {
            image: (512, 512),
            step_voxels: 1.0,
            early_term: 0.98,
            bricks_per_gpu: 2,
            max_brick_voxels: 256 * 256 * 256,
            residency: Residency::Auto,
            host_cache_bytes: 2 << 30,
            batch_bytes: 16 << 10,
            partition: PartitionStrategy::RoundRobin,
            compositor: Compositor::DirectSend,
            assignment: Assignment::RoundRobin,
            combiner: false,
            trace: TraceOptions::default(),
            kernel_parallelism: 0,
        }
    }
}

impl RenderConfig {
    /// Smaller configuration for tests: tiny image, everything else default.
    pub fn test_size(image: u32) -> RenderConfig {
        RenderConfig {
            image: (image, image),
            ..RenderConfig::default()
        }
    }

    /// Resolve kernel parallelism: an explicit count, at most the host's
    /// cores (the field arrives verbatim off the wire, every block worker is
    /// a thread the executor then keeps, and more threads than cores buy
    /// nothing); `0` splits the cores across GPUs.
    pub fn resolved_kernel_parallelism(&self, gpus: u32) -> usize {
        let cores = host_cores();
        if self.kernel_parallelism > 0 {
            return self.kernel_parallelism.min(cores);
        }
        (cores / (gpus as usize).min(cores)).max(1)
    }
}

/// Asked once per process: on Linux the answer is an affinity syscall plus
/// cgroup file reads, and [`RenderConfig::resolved_kernel_parallelism`] runs
/// on every frame.
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = RenderConfig::default();
        assert_eq!(c.image, (512, 512));
        assert_eq!(c.partition, PartitionStrategy::RoundRobin);
        assert_eq!(c.compositor, Compositor::DirectSend);
        assert!(!c.combiner);
        assert!(!c.trace.reduce_on_gpu);
        assert!(!c.trace.async_upload);
    }

    #[test]
    fn partition_strategies_build() {
        for s in [
            PartitionStrategy::RoundRobin,
            PartitionStrategy::Striped {
                rows_per_stripe: 16,
            },
            PartitionStrategy::Tiled { tile: 32 },
            PartitionStrategy::Checkerboard { cell: 64 },
        ] {
            let p = s.build(512);
            assert!(p.reducer_of(511, 4) < 4);
        }
    }

    #[test]
    fn kernel_parallelism_resolution() {
        let mut c = RenderConfig {
            kernel_parallelism: 3,
            ..RenderConfig::default()
        };
        assert_eq!(c.resolved_kernel_parallelism(8), host_cores().min(3));
        c.kernel_parallelism = usize::MAX;
        assert_eq!(c.resolved_kernel_parallelism(8), host_cores());
        c.kernel_parallelism = 0;
        assert!(c.resolved_kernel_parallelism(1) >= 1);
        assert!(c.resolved_kernel_parallelism(64) >= 1);
    }
}
