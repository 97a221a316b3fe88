//! The plan/routing key: which frames can share one
//! [`mgpu_volren::FramePlan`], and where they are routed.
//!
//! Bricking, the staging decision and the brick store depend on the cluster
//! spec, the volume and the scene-independent parts of the render config —
//! not on the camera. Frames that agree on those render against one shared
//! plan from the plan cache, so the volume is bricked once and every brick
//! is staged once for the plan's cached lifetime instead of once per frame
//! (the service-level analogue of the paper's "all data resident"
//! assumption). The same key routes a request to its shard or node, so a
//! volume's frames keep landing where its plan is warm.

use mgpu_cluster::ClusterSpec;
use mgpu_voldata::Volume;
use mgpu_volren::config::RenderConfig;

use crate::SceneRequest;

/// Identity of a shareable render plan: the `Debug` encoding of the cluster
/// spec, the volume metadata and the full render config — everything except
/// the scene. Requests with equal keys share one cached plan and route to
/// the same shard.
///
/// The whole config participates (not only the bricking fields): equal keys
/// must imply "one plan serves all", and config fields like the partition
/// strategy also shape the per-frame job, so distinct configs never share.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BatchKey(String);

impl BatchKey {
    pub fn new(spec: &ClusterSpec, volume: &Volume, cfg: &RenderConfig) -> BatchKey {
        BatchKey(format!("{spec:?}|{:?}|{cfg:?}", volume.meta))
    }

    pub fn of(request: &SceneRequest) -> BatchKey {
        BatchKey::new(&request.spec, &request.volume, &request.config)
    }

    /// An opaque key for tests and tools.
    pub fn synthetic(tag: impl std::fmt::Display) -> BatchKey {
        BatchKey(format!("synthetic-{tag}"))
    }

    /// Canonical byte encoding (the shard router hashes this).
    pub(crate) fn bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Priority;
    use mgpu_voldata::Dataset;
    use mgpu_volren::camera::Scene;
    use mgpu_volren::{RenderConfig, TransferFunction};

    fn request(volume: &Volume, azimuth: f32, image: u32) -> SceneRequest {
        SceneRequest {
            spec: ClusterSpec::accelerator_cluster(2),
            volume: volume.clone(),
            scene: Scene::orbit(volume, azimuth, 20.0, TransferFunction::bone()),
            config: RenderConfig::test_size(image),
            priority: Priority::Normal,
        }
    }

    #[test]
    fn same_volume_and_config_batch_across_scenes() {
        let v = Dataset::Skull.volume(16);
        let a = BatchKey::of(&request(&v, 10.0, 32));
        let b = BatchKey::of(&request(&v, 80.0, 32));
        assert_eq!(a, b, "camera must not split batches");
    }

    #[test]
    fn different_volume_config_or_cluster_do_not_batch() {
        let v = Dataset::Skull.volume(16);
        let base = BatchKey::of(&request(&v, 10.0, 32));

        let other_volume = Dataset::Plume.volume(8);
        assert_ne!(base, BatchKey::of(&request(&other_volume, 10.0, 32)));

        assert_ne!(base, BatchKey::of(&request(&v, 10.0, 64)));

        let mut bigger = request(&v, 10.0, 32);
        bigger.spec = ClusterSpec::accelerator_cluster(4);
        assert_ne!(base, BatchKey::of(&bigger));
    }

    /// Two in-memory volumes with identical `(name, dims, seed)` but
    /// different voxels must never share a plan: the `content` fingerprint
    /// in `VolumeMeta` keeps their batch keys apart.
    #[test]
    fn same_meta_different_voxels_do_not_batch() {
        let dims = [8u32, 8, 8];
        let a = Volume::in_memory("twin", dims, vec![0.2; 512]);
        let b = Volume::in_memory("twin", dims, vec![0.8; 512]);
        assert_ne!(
            BatchKey::of(&request(&a, 0.0, 16)),
            BatchKey::of(&request(&b, 0.0, 16)),
        );
    }
}
