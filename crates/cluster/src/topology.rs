//! Cluster topology: nodes, GPUs, and which hardware unit serves which task.
//!
//! The paper's testbed is the NCSA Accelerator Cluster: quad-core nodes with
//! 8 GB RAM, Tesla S1070-class units presenting **four logical GPUs per
//! node**, connected by QDR InfiniBand. One MapReduce process per GPU: the
//! process owns the GPU (mapping), a host core (partition / sort / reduce —
//! the paper composites on the CPU), a share of the node's disk and NIC.

use mgpu_gpu::DeviceProps;
use mgpu_sim::{LinkModel, ResourceId, Trace};

use crate::network::NetworkModel;

/// Index of a GPU (= of a MapReduce process) in the cluster, 0-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GpuId(pub u32);

/// Index of a node in the cluster, 0-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A modeled cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    pub gpus: u32,
    pub gpus_per_node: u32,
    pub device: DeviceProps,
    pub network: NetworkModel,
    /// Node-local disk (brick loads).
    pub disk: LinkModel,
}

impl ClusterSpec {
    /// The paper's Accelerator-Cluster configuration with `gpus` GPUs:
    /// 4 logical GPUs per node, C1060-class devices, QDR InfiniBand, and a
    /// disk calibrated to the paper's "64³ brick ≈ 20 ms" anchor.
    pub fn accelerator_cluster(gpus: u32) -> ClusterSpec {
        assert!(gpus >= 1, "a cluster needs at least one GPU");
        ClusterSpec {
            gpus,
            gpus_per_node: 4,
            device: DeviceProps::tesla_c1060(),
            network: NetworkModel::qdr_infiniband_2010(),
            disk: LinkModel::new(8e-3, 85.0 * (1u64 << 20) as f64),
        }
    }

    /// Same cluster with a custom GPU count per node (scaling ablations).
    pub fn with_gpus_per_node(mut self, per_node: u32) -> ClusterSpec {
        assert!(per_node >= 1);
        self.gpus_per_node = per_node;
        self
    }

    pub fn nodes(&self) -> u32 {
        self.gpus.div_ceil(self.gpus_per_node)
    }

    pub fn node_of(&self, gpu: GpuId) -> NodeId {
        assert!(gpu.0 < self.gpus, "gpu {gpu:?} out of range");
        NodeId(gpu.0 / self.gpus_per_node)
    }

    pub fn same_node(&self, a: GpuId, b: GpuId) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Aggregate VRAM across the cluster — decides in-core vs out-of-core.
    pub fn total_vram_bytes(&self) -> u64 {
        self.gpus as u64 * self.device.vram_bytes
    }
}

/// The DES resources standing for the cluster's hardware units.
///
/// * one compute resource per GPU;
/// * one PCIe link per GPU (the S1070 gives each logical GPU its own PCIe
///   connection through the host interface cards);
/// * one host core per GPU process (quad-core nodes, 4 processes per node);
/// * one disk and one NIC (each direction) per node — these are the shared,
///   contended resources.
#[derive(Debug, Clone)]
pub struct ResourceMap {
    pub gpu: Vec<ResourceId>,
    pub pcie: Vec<ResourceId>,
    pub core: Vec<ResourceId>,
    pub disk: Vec<ResourceId>,
    pub nic_out: Vec<ResourceId>,
    pub nic_in: Vec<ResourceId>,
}

impl ResourceMap {
    pub fn build(spec: &ClusterSpec, trace: &mut Trace) -> ResourceMap {
        let g = spec.gpus as usize;
        let n = spec.nodes() as usize;
        ResourceMap {
            gpu: trace.add_resources(g),
            pcie: trace.add_resources(g),
            core: trace.add_resources(g),
            disk: trace.add_resources(n),
            nic_out: trace.add_resources(n),
            nic_in: trace.add_resources(n),
        }
    }

    pub fn gpu_r(&self, id: GpuId) -> ResourceId {
        self.gpu[id.0 as usize]
    }

    pub fn pcie_r(&self, id: GpuId) -> ResourceId {
        self.pcie[id.0 as usize]
    }

    pub fn core_r(&self, id: GpuId) -> ResourceId {
        self.core[id.0 as usize]
    }

    pub fn disk_r(&self, spec: &ClusterSpec, gpu: GpuId) -> ResourceId {
        self.disk[spec.node_of(gpu).0 as usize]
    }

    pub fn nic_out_r(&self, spec: &ClusterSpec, gpu: GpuId) -> ResourceId {
        self.nic_out[spec.node_of(gpu).0 as usize]
    }

    pub fn nic_in_r(&self, spec: &ClusterSpec, gpu: GpuId) -> ResourceId {
        self.nic_in[spec.node_of(gpu).0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_mapping_four_gpus_per_node() {
        let c = ClusterSpec::accelerator_cluster(16);
        assert_eq!(c.nodes(), 4);
        assert_eq!(c.node_of(GpuId(0)), NodeId(0));
        assert_eq!(c.node_of(GpuId(3)), NodeId(0));
        assert_eq!(c.node_of(GpuId(4)), NodeId(1));
        assert_eq!(c.node_of(GpuId(15)), NodeId(3));
        assert!(c.same_node(GpuId(4), GpuId(7)));
        assert!(!c.same_node(GpuId(3), GpuId(4)));
    }

    #[test]
    fn partial_nodes_round_up() {
        let c = ClusterSpec::accelerator_cluster(6);
        assert_eq!(c.nodes(), 2);
        // The paper's footnote config: 16 GPUs on 4 nodes.
        assert_eq!(ClusterSpec::accelerator_cluster(16).nodes(), 4);
    }

    #[test]
    fn total_vram_gates_in_core() {
        let c = ClusterSpec::accelerator_cluster(8);
        // 8 × 4 GiB = 32 GiB: a 4 GiB 1024³ volume fits in-core.
        assert!(c.total_vram_bytes() >= 4 << 30);
    }

    #[test]
    fn resource_map_counts() {
        let c = ClusterSpec::accelerator_cluster(8);
        let mut tr = Trace::new();
        let rm = ResourceMap::build(&c, &mut tr);
        assert_eq!(rm.gpu.len(), 8);
        assert_eq!(rm.disk.len(), 2);
        assert_eq!(tr.num_resources(), 8 * 3 + 2 * 3);
        // GPUs 0 and 1 share a disk; 0 and 4 do not.
        assert_eq!(rm.disk_r(&c, GpuId(0)), rm.disk_r(&c, GpuId(1)));
        assert_ne!(rm.disk_r(&c, GpuId(0)), rm.disk_r(&c, GpuId(4)));
    }

    #[test]
    fn disk_anchor_20ms_for_64cubed() {
        let c = ClusterSpec::accelerator_cluster(1);
        let t = c.disk.time(64 * 64 * 64 * 4).as_millis_f64();
        assert!((t - 20.0).abs() < 1.5, "{t} ms");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_of_checks_range() {
        let c = ClusterSpec::accelerator_cluster(4);
        c.node_of(GpuId(4));
    }
}
