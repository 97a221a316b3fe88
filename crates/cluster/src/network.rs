//! Interconnect model: QDR InfiniBand as driven by a 2010-era MPI stack with
//! GPU buffers in the loop.
//!
//! The paper observes that "the network transmission time is several orders
//! of magnitude higher than the GPU-to-CPU transfer time of those ray
//! fragments" (§3) — i.e. the *effective* fragment-exchange throughput is far
//! below the QDR line rate of 4 GB/s. That gap is per-message software
//! overhead: unpinned staging buffers, MPI matching, and the synchronous
//! 3-D-texture copies the paper was forced into. The model therefore charges
//! a large per-message overhead plus a modest effective bandwidth, and
//! routes intra-node traffic through shared memory instead of the NIC.

use mgpu_sim::{LinkModel, SimDuration};

use crate::topology::{ClusterSpec, GpuId};

/// How a fragment batch travels from a mapper process to a reducer process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Same process (mapper is its own reducer): no transfer at all.
    SameProcess,
    /// Different process, same node: shared-memory copy.
    IntraNode,
    /// Different node: NIC → wire → NIC.
    InterNode,
}

/// Interconnect cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Software cost paid by the sender per message (MPI send path, staging).
    pub send_overhead_s: f64,
    /// Software cost paid by the receiver per message.
    pub recv_overhead_s: f64,
    /// Effective sustained point-to-point bandwidth, bytes/s.
    pub bytes_per_s: f64,
    /// Wire/switch latency between send completion and receive start.
    pub wire_latency_s: f64,
    /// Intra-node (shared-memory) handoff between processes.
    pub intra_node: LinkModel,
}

impl NetworkModel {
    /// QDR InfiniBand (4× QDR ≈ 4 GB/s line rate) as achieved by a 2010 MPI
    /// stack moving GPU-originated, unpinned buffers: ~1.2 GB/s effective
    /// stream bandwidth and ~4 ms of per-message software overhead. These
    /// constants, combined with per-(brick, reducer) message counts, place
    /// the communication/computation crossover near 8 GPUs for ≤512³ volumes
    /// — the paper's headline shape (§5, Figure 3).
    pub fn qdr_infiniband_2010() -> NetworkModel {
        NetworkModel {
            send_overhead_s: 4.0e-3,
            recv_overhead_s: 0.8e-3,
            bytes_per_s: 1.2e9,
            wire_latency_s: 5e-6,
            intra_node: LinkModel::new(25e-6, 4.0e9),
        }
    }

    /// Sender-side NIC occupancy for one message.
    pub fn send_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.send_overhead_s + bytes as f64 / self.bytes_per_s)
    }

    /// Receiver-side NIC occupancy for one message.
    pub fn recv_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.recv_overhead_s + bytes as f64 / self.bytes_per_s)
    }

    pub fn wire_latency(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.wire_latency_s)
    }

    /// Intra-node handoff time for one batch.
    pub fn intra_node_time(&self, bytes: u64) -> SimDuration {
        self.intra_node.time(bytes)
    }
}

/// Classify the route between two GPU processes.
pub fn route(spec: &ClusterSpec, from: GpuId, to: GpuId) -> Route {
    if from == to {
        Route::SameProcess
    } else if spec.same_node(from, to) {
        Route::IntraNode
    } else {
        Route::InterNode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes() {
        let c = ClusterSpec::accelerator_cluster(8);
        assert_eq!(route(&c, GpuId(2), GpuId(2)), Route::SameProcess);
        assert_eq!(route(&c, GpuId(0), GpuId(3)), Route::IntraNode);
        assert_eq!(route(&c, GpuId(0), GpuId(4)), Route::InterNode);
    }

    #[test]
    fn network_time_dominated_by_overhead_for_small_messages() {
        let n = NetworkModel::qdr_infiniband_2010();
        let small = n.send_time(1024).as_millis_f64();
        assert!((4.0..4.1).contains(&small), "small send {small} ms");
        // The paper's observation: network ≫ PCIe for the same bytes.
        let pcie = mgpu_gpu::DeviceProps::tesla_c1060().d2h_time(1024);
        assert!(n.send_time(1024).nanos() > 20 * pcie.nanos());
    }

    #[test]
    fn large_messages_approach_effective_bandwidth() {
        let n = NetworkModel::qdr_infiniband_2010();
        let t = n.send_time(120_000_000).as_secs_f64(); // 120 MB
        let eff = 120_000_000.0 / t;
        assert!(eff > 1.1e9 && eff < 1.2e9, "effective bw {eff}");
    }

    #[test]
    fn intra_node_much_cheaper_than_inter_node() {
        let n = NetworkModel::qdr_infiniband_2010();
        let bytes = 256 * 1024;
        assert!(n.intra_node_time(bytes).nanos() * 10 < n.send_time(bytes).nanos());
    }
}
