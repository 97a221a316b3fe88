//! Device properties and timing models for the simulated GPU.
//!
//! The preset is a Tesla C1060-class part — the paper's cluster uses Tesla
//! S1070 units ("a Tesla C1090 with four logical GPUs each" in the text),
//! which present four C1060-class devices: 4 GiB GDDR3 at ~102 GB/s behind a
//! PCIe gen-2 link, CUDA 3.0 era.

use mgpu_sim::{LinkModel, SimDuration};

use crate::kernel::LaunchStats;

/// How kernel time is charged from launch statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTimingMode {
    /// `overhead + total_samples / rate` — texture-throughput bound, the
    /// default calibration target.
    FlatThroughput,
    /// `overhead + simt_samples / rate` — charges warp-divergence, for the
    /// ablation of the divergence-aware model.
    WarpAccurate,
}

/// Kernel cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCostModel {
    pub launch_overhead_s: f64,
    /// Sustained trilinear-sample throughput (samples per second).
    pub samples_per_s: f64,
    pub mode: KernelTimingMode,
}

impl KernelCostModel {
    pub fn time(&self, stats: &LaunchStats) -> SimDuration {
        let samples = match self.mode {
            KernelTimingMode::FlatThroughput => stats.total_samples,
            KernelTimingMode::WarpAccurate => stats.simt_samples,
        };
        SimDuration::from_secs_f64(self.launch_overhead_s + samples as f64 / self.samples_per_s)
    }
}

/// Static properties of a simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProps {
    pub name: &'static str,
    pub vram_bytes: u64,
    /// Device memory bandwidth (reporting / speed-of-light analyses).
    pub mem_bytes_per_s: f64,
    /// The PCIe link between host and device.
    pub pcie: LinkModel,
    pub kernel: KernelCostModel,
}

impl DeviceProps {
    /// Tesla C1060-class preset.
    ///
    /// Calibration anchors (see DESIGN.md):
    /// * PCIe: 1 MiB brick H2D < 0.2 ms (§3) → 15 µs + 6 GiB/s;
    /// * kernel: ~30 M effective trilinear samples/s — tuned so a 1024³
    ///   render on 8 GPUs spends ≈ 0.5 s per GPU in ray casting (the §6.3
    ///   503 ms anchor) and 128³ peaks near the paper's ~2.5 FPS;
    /// * VRAM 4 GiB, 102 GB/s GDDR3.
    pub fn tesla_c1060() -> DeviceProps {
        DeviceProps {
            name: "Tesla C1060 (simulated)",
            vram_bytes: 4 << 30,
            mem_bytes_per_s: 102.0e9,
            pcie: LinkModel::new(15e-6, 6.0 * (1u64 << 30) as f64),
            kernel: KernelCostModel {
                launch_overhead_s: 60e-6,
                samples_per_s: 30.0e6,
                mode: KernelTimingMode::FlatThroughput,
            },
        }
    }

    /// Time to copy `bytes` host→device (synchronous for 3-D textures under
    /// CUDA 3.0, as the paper notes — the caller models that by putting the
    /// transfer on the GPU's critical path).
    pub fn h2d_time(&self, bytes: u64) -> SimDuration {
        self.pcie.time(bytes)
    }

    /// Time to copy `bytes` device→host.
    pub fn d2h_time(&self, bytes: u64) -> SimDuration {
        self.pcie.time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c1060_anchor_h2d_under_point2ms_for_1mib() {
        let p = DeviceProps::tesla_c1060();
        let t = p.h2d_time(1 << 20).as_millis_f64();
        assert!(t < 0.2, "H2D of 1 MiB took {t} ms, paper says < 0.2 ms");
    }

    #[test]
    fn c1060_anchor_d2h_fragments_under_2ms() {
        // A full 512² fragment buffer at 24 B/fragment ≈ 6 MiB; the paper
        // found the readback "empirically less than 2 ms".
        let p = DeviceProps::tesla_c1060();
        let bytes = 512 * 512 * 24;
        let t = p.d2h_time(bytes).as_millis_f64();
        assert!(t < 2.0, "D2H of fragment buffer took {t} ms");
    }

    #[test]
    fn kernel_model_charges_overhead_plus_rate() {
        let m = KernelCostModel {
            launch_overhead_s: 100e-6,
            samples_per_s: 1e6,
            mode: KernelTimingMode::FlatThroughput,
        };
        let stats = LaunchStats {
            total_samples: 1_000_000,
            simt_samples: 3_000_000,
            ..Default::default()
        };
        assert!((m.time(&stats).as_secs_f64() - 1.0001).abs() < 1e-9);
        let warp = KernelCostModel {
            mode: KernelTimingMode::WarpAccurate,
            ..m
        };
        assert!((warp.time(&stats).as_secs_f64() - 3.0001).abs() < 1e-9);
    }
}
