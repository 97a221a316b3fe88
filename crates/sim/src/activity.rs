//! Activity taxonomy for traced work, and the mapping onto the phase buckets
//! reported in the paper's Figure 3 (Map / Partition + I/O / Sort / Reduce).

/// What a traced task is doing. Every task in a [`crate::trace::Trace`] is
/// tagged with one activity; phase accounting aggregates over these tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activity {
    /// Reading a brick (or any blob) from a node-local disk.
    DiskRead,
    /// Host→device PCIe copy (brick upload; synchronous for 3-D textures, as
    /// the paper notes for CUDA 3.0).
    HostToDevice,
    /// GPU kernel execution (the ray-casting map kernel).
    Kernel,
    /// Device→host PCIe copy (emitted key-value pairs / ray fragments).
    DeviceToHost,
    /// CPU-side partitioning of emitted pairs into per-reducer batches.
    PartitionCpu,
    /// A network send of a fragment batch (sender-side NIC occupancy).
    NetSend,
    /// A network receive of a fragment batch (receiver-side NIC occupancy).
    NetRecv,
    /// Intra-node handoff between processes (shared-memory copy).
    LocalCopy,
    /// Counting sort of received pairs on the CPU.
    SortCpu,
    /// Counting sort of received pairs on the GPU (ablation path).
    SortGpu,
    /// Per-key reduction (pixel compositing) on the CPU (paper default).
    ReduceCpu,
    /// Per-key reduction on the GPU (ablation path).
    ReduceGpu,
    /// Final image stitching. Implemented, but excluded from figure timings —
    /// the paper excludes it too.
    Stitch,
    /// Anything else (bookkeeping, barriers).
    Other,
}

/// The four stacked buckets of the paper's Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Fig3Bucket {
    /// Brick upload + ray-cast kernel + fragment readback.
    Map,
    /// Partitioning plus disk and network I/O ("Partition + I/O").
    PartitionIo,
    Sort,
    Reduce,
}

impl Fig3Bucket {
    pub const ALL: [Fig3Bucket; 4] = [
        Fig3Bucket::Map,
        Fig3Bucket::PartitionIo,
        Fig3Bucket::Sort,
        Fig3Bucket::Reduce,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Fig3Bucket::Map => "Map",
            Fig3Bucket::PartitionIo => "Partition + I/O",
            Fig3Bucket::Sort => "Sort",
            Fig3Bucket::Reduce => "Reduce",
        }
    }
}

impl Activity {
    /// Which Figure-3 bucket this activity's time is attributed to.
    ///
    /// Stitch and Other return `None`: the paper excludes stitching from its
    /// timings ("it is a separate phase from Map, Sort, Partition, and
    /// Reduce").
    pub fn fig3_bucket(self) -> Option<Fig3Bucket> {
        use Activity::*;
        match self {
            HostToDevice | Kernel | DeviceToHost => Some(Fig3Bucket::Map),
            DiskRead | PartitionCpu | NetSend | NetRecv | LocalCopy => {
                Some(Fig3Bucket::PartitionIo)
            }
            SortCpu | SortGpu => Some(Fig3Bucket::Sort),
            ReduceCpu | ReduceGpu => Some(Fig3Bucket::Reduce),
            Stitch | Other => None,
        }
    }

    /// True for activities the §6.3 bottleneck analysis counts as
    /// *communication* (everything that moves bytes rather than computes).
    pub fn is_communication(self) -> bool {
        use Activity::*;
        matches!(
            self,
            DiskRead | HostToDevice | DeviceToHost | NetSend | NetRecv | LocalCopy
        )
    }

    /// True for activities the §6.3 bottleneck analysis counts as
    /// *computation*.
    pub fn is_computation(self) -> bool {
        use Activity::*;
        matches!(
            self,
            Kernel | PartitionCpu | SortCpu | SortGpu | ReduceCpu | ReduceGpu
        )
    }

    pub fn label(self) -> &'static str {
        use Activity::*;
        match self {
            DiskRead => "disk-read",
            HostToDevice => "h2d",
            Kernel => "kernel",
            DeviceToHost => "d2h",
            PartitionCpu => "partition",
            NetSend => "net-send",
            NetRecv => "net-recv",
            LocalCopy => "local-copy",
            SortCpu => "sort-cpu",
            SortGpu => "sort-gpu",
            ReduceCpu => "reduce-cpu",
            ReduceGpu => "reduce-gpu",
            Stitch => "stitch",
            Other => "other",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_activity_is_comm_xor_compute_or_excluded() {
        use Activity::*;
        let all = [
            DiskRead,
            HostToDevice,
            Kernel,
            DeviceToHost,
            PartitionCpu,
            NetSend,
            NetRecv,
            LocalCopy,
            SortCpu,
            SortGpu,
            ReduceCpu,
            ReduceGpu,
            Stitch,
            Other,
        ];
        for a in all {
            assert!(
                !(a.is_communication() && a.is_computation()),
                "{a:?} classified as both comm and compute"
            );
        }
    }

    #[test]
    fn bucket_mapping_matches_paper_grouping() {
        assert_eq!(Activity::Kernel.fig3_bucket(), Some(Fig3Bucket::Map));
        assert_eq!(Activity::HostToDevice.fig3_bucket(), Some(Fig3Bucket::Map));
        assert_eq!(
            Activity::NetSend.fig3_bucket(),
            Some(Fig3Bucket::PartitionIo)
        );
        assert_eq!(
            Activity::DiskRead.fig3_bucket(),
            Some(Fig3Bucket::PartitionIo)
        );
        assert_eq!(Activity::SortCpu.fig3_bucket(), Some(Fig3Bucket::Sort));
        assert_eq!(Activity::ReduceCpu.fig3_bucket(), Some(Fig3Bucket::Reduce));
        assert_eq!(Activity::Stitch.fig3_bucket(), None);
    }

    #[test]
    fn bucket_labels() {
        assert_eq!(Fig3Bucket::PartitionIo.label(), "Partition + I/O");
        assert_eq!(Fig3Bucket::ALL.len(), 4);
    }
}
