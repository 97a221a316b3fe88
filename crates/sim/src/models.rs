//! Generic hardware cost models shared by the GPU and cluster crates.
//!
//! Every model maps a demand (bytes, samples, items) to a [`SimDuration`].
//! The constants themselves live with the hardware presets (`mgpu-gpu` for
//! the device, `mgpu-cluster` for disks and the interconnect); this module
//! only provides the shapes.

use crate::time::SimDuration;

/// A latency + bandwidth pipe: `time(bytes) = latency + bytes / bandwidth`.
///
/// Used for PCIe links, disks, NICs and shared-memory copies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Fixed per-operation latency, seconds.
    pub latency_s: f64,
    /// Sustained bandwidth, bytes per second.
    pub bytes_per_s: f64,
}

impl LinkModel {
    pub fn new(latency_s: f64, bytes_per_s: f64) -> LinkModel {
        assert!(latency_s >= 0.0, "negative latency");
        assert!(bytes_per_s > 0.0, "non-positive bandwidth");
        LinkModel {
            latency_s,
            bytes_per_s,
        }
    }

    /// Time to move `bytes` through this link.
    pub fn time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.latency_s + bytes as f64 / self.bytes_per_s)
    }

    /// Effective bandwidth achieved for a transfer of `bytes` (report-side).
    pub fn effective_bytes_per_s(&self, bytes: u64) -> f64 {
        let t = self.time(bytes).as_secs_f64();
        if t <= 0.0 {
            return self.bytes_per_s;
        }
        bytes as f64 / t
    }
}

/// A rate server: `time(units) = overhead + units / rate`.
///
/// Used for kernels (units = samples), sorts and reductions (units = pairs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateModel {
    /// Fixed per-invocation overhead, seconds (e.g. kernel launch).
    pub overhead_s: f64,
    /// Sustained processing rate, units per second.
    pub units_per_s: f64,
}

impl RateModel {
    pub fn new(overhead_s: f64, units_per_s: f64) -> RateModel {
        assert!(overhead_s >= 0.0, "negative overhead");
        assert!(units_per_s > 0.0, "non-positive rate");
        RateModel {
            overhead_s,
            units_per_s,
        }
    }

    pub fn time(&self, units: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.overhead_s + units as f64 / self.units_per_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_time_is_latency_plus_transfer() {
        let l = LinkModel::new(0.001, 1000.0);
        // 1 ms + 500/1000 s = 501 ms.
        assert_eq!(l.time(500), SimDuration::from_millis(501));
    }

    #[test]
    fn paper_anchor_disk_64cubed_brick_about_20ms() {
        // §3: "loading a 64³ block from disk takes approximately 20 ms".
        let disk = LinkModel::new(0.008, 85.0 * (1u64 << 20) as f64);
        let brick_bytes = 64u64 * 64 * 64 * 4;
        let t = disk.time(brick_bytes).as_millis_f64();
        assert!(
            (t - 20.0).abs() < 1.5,
            "disk model off paper anchor: {t} ms"
        );
    }

    #[test]
    fn paper_anchor_h2d_under_point2ms_for_1mib() {
        // §3: transferring that (1 MiB) brick to the GPU takes < 0.2 ms.
        let pcie = LinkModel::new(15e-6, 6.0 * (1u64 << 30) as f64);
        let t = pcie.time(64 * 64 * 64 * 4).as_millis_f64();
        assert!(t < 0.2, "PCIe model breaks the <0.2ms anchor: {t} ms");
        assert!(t > 0.05, "PCIe model implausibly fast: {t} ms");
    }

    #[test]
    fn effective_bandwidth_monotone_in_size() {
        let l = LinkModel::new(0.001, 1e9);
        assert!(l.effective_bytes_per_s(1_000) < l.effective_bytes_per_s(1_000_000));
        assert!(l.effective_bytes_per_s(1 << 30) <= 1e9);
    }

    #[test]
    fn rate_model_time() {
        let r = RateModel::new(60e-6, 267e6);
        let t = r.time(267_000_000).as_secs_f64();
        assert!((t - 1.00006).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "non-positive bandwidth")]
    fn rejects_zero_bandwidth() {
        LinkModel::new(0.0, 0.0);
    }
}
