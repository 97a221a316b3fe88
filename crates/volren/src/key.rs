//! The one identity of a render request: [`RequestKey`], the exact bytes
//! of every field that shapes a plan or a frame. The
//! [`FramePlan`](crate::FramePlan) guard, the render service's plan and
//! frame caches and its shard and node routers all compare these keys.
//!
//! Integers, strings and enums enter through their derived `Hash`, floats
//! by bit pattern. std's `Hash` encoding of these types is prefix-free, so
//! keys are equal iff every field is bit-equal (`0.0` and `-0.0` differ,
//! as do two NaN payloads): lookups never guess on a hash collision. Each
//! struct is destructured exhaustively, so a new field fails to compile
//! here until it has a place in the key. Keys are process-local (host byte
//! order, std's encoding): they never cross the wire and are never stored.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use mgpu_cluster::{ClusterSpec, NetworkModel};
use mgpu_gpu::{DeviceProps, KernelCostModel};
use mgpu_sim::LinkModel;
use mgpu_voldata::volume::{fnv1a, FNV_OFFSET};
use mgpu_voldata::VolumeMeta;

use crate::transfer::ControlPoint;
use crate::{RenderConfig, Scene};

/// The identity of a plan or a frame request (see the module docs). The
/// bytes sit behind an `Arc`: cloning a key bumps a count.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestKey(Arc<[u8]>);

/// A [`Hasher`] that keeps the bytes std's `Hash` impls feed it: the key.
struct KeyBytes(Vec<u8>);

impl Hasher for KeyBytes {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn finish(&self) -> u64 {
        fnv1a(&self.0, FNV_OFFSET)
    }
}

impl RequestKey {
    /// The key of the plan `spec`, a volume described by `meta` and `cfg`
    /// prepare: every input of a frame but its scene.
    pub fn plan(spec: &ClusterSpec, meta: &VolumeMeta, cfg: &RenderConfig) -> RequestKey {
        let ClusterSpec {
            gpus,
            gpus_per_node,
            device,
            network,
            disk,
        } = spec;
        let DeviceProps {
            name,
            vram_bytes,
            mem_bytes_per_s: mem,
            pcie,
            kernel,
        } = device;
        let KernelCostModel {
            launch_overhead_s: launch,
            samples_per_s: rate,
            mode,
        } = kernel;
        let NetworkModel {
            send_overhead_s: send,
            recv_overhead_s: recv,
            bytes_per_s: net,
            wire_latency_s: wire,
            intra_node,
        } = network;
        let link = |&LinkModel {
                        latency_s,
                        bytes_per_s,
                    }| [latency_s.to_bits(), bytes_per_s.to_bits()];
        let RenderConfig {
            image,
            step_voxels,
            early_term,
            bricks_per_gpu,
            max_brick_voxels,
            residency,
            host_cache_bytes,
            batch_bytes,
            partition,
            compositor,
            assignment,
            combiner,
            trace,
            kernel_parallelism,
        } = cfg;

        // Every field in declaration order, floats by bit pattern.
        let mut k = KeyBytes(Vec::with_capacity(384)); // ~300 bytes in practice
        (gpus, gpus_per_node, name, vram_bytes, mem.to_bits()).hash(&mut k);
        (link(pcie), launch.to_bits(), rate.to_bits(), mode).hash(&mut k);
        (send.to_bits(), recv.to_bits(), net.to_bits()).hash(&mut k);
        (wire.to_bits(), link(intra_node), link(disk), meta).hash(&mut k);
        (image, step_voxels.to_bits(), early_term.to_bits()).hash(&mut k);
        (bricks_per_gpu, max_brick_voxels, residency).hash(&mut k);
        (host_cache_bytes, batch_bytes, partition, compositor).hash(&mut k);
        (assignment, combiner, trace, kernel_parallelism).hash(&mut k);
        RequestKey(k.0.into())
    }

    /// The key of one frame: this plan key, then `scene`'s transfer function
    /// (its name included, as its `PartialEq` does), camera and background.
    pub fn with_scene(&self, scene: &Scene) -> RequestKey {
        let Scene {
            camera,
            transfer,
            background,
        } = scene;
        let mut k = KeyBytes(Vec::with_capacity(2 * self.0.len()));
        k.write(&self.0);
        (transfer.name(), transfer.points().len()).hash(&mut k);
        let points = (transfer.points().iter())
            .flat_map(|&ControlPoint { value, rgba }| std::iter::once(value).chain(rgba));
        let (eye, forward, right, up, tan) = camera.raw_parts();
        let camera = [eye, forward, right, up].into_iter().flatten();
        for x in camera.chain([tan]).chain(*background).chain(points) {
            x.to_bits().hash(&mut k);
        }
        RequestKey(k.0.into())
    }

    /// The rendezvous score of (key, owner) the shard and node routers rank
    /// owners by: FNV-1a over the key's bytes, salted with `owner`.
    pub fn score(&self, owner: u64) -> u64 {
        fnv1a(&owner.to_le_bytes(), fnv1a(&self.0, FNV_OFFSET))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::Camera;
    use crate::config::{Compositor, PartitionStrategy, Residency};
    use crate::transfer::TransferFunction;
    use mgpu_gpu::KernelTimingMode;
    use mgpu_mapreduce::Assignment;
    use mgpu_voldata::{Dataset, Volume};

    /// Every input of one frame request, by value.
    #[derive(Clone)]
    struct Req {
        spec: ClusterSpec,
        meta: VolumeMeta,
        cfg: RenderConfig,
        scene: Scene,
    }

    fn base() -> Req {
        let volume = Dataset::Skull.volume(16);
        Req {
            spec: ClusterSpec::accelerator_cluster(2),
            scene: Scene::orbit(&volume, 30.0, 20.0, TransferFunction::bone()),
            meta: volume.meta,
            cfg: RenderConfig::test_size(16),
        }
    }

    fn key(r: &Req) -> RequestKey {
        RequestKey::plan(&r.spec, &r.meta, &r.cfg).with_scene(&r.scene)
    }

    /// The `f64` fields: the 13 model parameters under `ClusterSpec`.
    fn f64_fields() -> Vec<fn(&mut Req) -> &mut f64> {
        vec![
            |r| &mut r.spec.device.mem_bytes_per_s,
            |r| &mut r.spec.device.pcie.latency_s,
            |r| &mut r.spec.device.pcie.bytes_per_s,
            |r| &mut r.spec.device.kernel.launch_overhead_s,
            |r| &mut r.spec.device.kernel.samples_per_s,
            |r| &mut r.spec.network.send_overhead_s,
            |r| &mut r.spec.network.recv_overhead_s,
            |r| &mut r.spec.network.bytes_per_s,
            |r| &mut r.spec.network.wire_latency_s,
            |r| &mut r.spec.network.intra_node.latency_s,
            |r| &mut r.spec.network.intra_node.bytes_per_s,
            |r| &mut r.spec.disk.latency_s,
            |r| &mut r.spec.disk.bytes_per_s,
        ]
    }

    type SetF32 = Box<dyn Fn(&mut Req, f32)>;

    /// The `f32` fields: the config's step and threshold, the background,
    /// the camera's 13 raw floats and every transfer point's five.
    fn f32_fields() -> Vec<SetF32> {
        let mut fields: Vec<SetF32> = vec![
            Box::new(|r, x| r.cfg.step_voxels = x),
            Box::new(|r, x| r.cfg.early_term = x),
        ];
        for i in 0..4 {
            fields.push(Box::new(move |r, x| r.scene.background[i] = x));
        }
        for i in 0..13 {
            fields.push(Box::new(move |r, x| {
                let (e, f, ri, u, t) = r.scene.camera.raw_parts();
                let mut flat: Vec<f32> = [e, f, ri, u].concat();
                flat.push(t);
                flat[i] = x;
                let v = |j: usize| [flat[j], flat[j + 1], flat[j + 2]];
                r.scene.camera = Camera::from_raw_parts(v(0), v(3), v(6), v(9), flat[12]);
            }));
        }
        for p in 0..base().scene.transfer.points().len() {
            for c in 0..5 {
                fields.push(Box::new(move |r, x| {
                    let mut points = r.scene.transfer.points().to_vec();
                    match c {
                        0 => points[p].value = x,
                        c => points[p].rgba[c - 1] = x,
                    }
                    let name = r.scene.transfer.name();
                    r.scene.transfer = TransferFunction::from_points(name, points);
                }));
            }
        }
        fields
    }

    /// One change per integer, string and enum field (and arm).
    fn other_fields() -> Vec<fn(&mut Req)> {
        vec![
            |r| r.spec.gpus += 1,
            |r| r.spec.gpus_per_node += 1,
            |r| r.spec.device.name = "another device",
            |r| r.spec.device.vram_bytes += 1,
            |r| r.spec.device.kernel.mode = KernelTimingMode::WarpAccurate,
            |r| r.meta.name.push('x'),
            |r| r.meta.dims[0] += 1,
            |r| r.meta.dims[1] += 1,
            |r| r.meta.dims[2] += 1,
            |r| r.meta.seed += 1,
            |r| r.meta.content += 1,
            |r| r.cfg.image.0 += 1,
            |r| r.cfg.image.1 += 1,
            |r| r.cfg.bricks_per_gpu += 1,
            |r| r.cfg.max_brick_voxels += 1,
            |r| r.cfg.residency = Residency::Disk,
            |r| r.cfg.residency = Residency::HostResident,
            |r| r.cfg.host_cache_bytes += 1,
            |r| r.cfg.batch_bytes += 1,
            |r| r.cfg.partition = PartitionStrategy::Striped { rows_per_stripe: 1 },
            |r| r.cfg.partition = PartitionStrategy::Striped { rows_per_stripe: 2 },
            |r| r.cfg.partition = PartitionStrategy::Tiled { tile: 1 },
            |r| r.cfg.partition = PartitionStrategy::Checkerboard { cell: 1 },
            |r| r.cfg.compositor = Compositor::BinarySwap,
            |r| r.cfg.assignment = Assignment::Blocked,
            |r| r.cfg.assignment = Assignment::Strided { stride: 1 },
            |r| r.cfg.assignment = Assignment::Strided { stride: 2 },
            |r| r.cfg.combiner = !r.cfg.combiner,
            |r| r.cfg.trace.async_upload = !r.cfg.trace.async_upload,
            |r| r.cfg.trace.reduce_on_gpu = !r.cfg.trace.reduce_on_gpu,
            |r| r.cfg.kernel_parallelism += 1,
            |r| {
                let points = r.scene.transfer.points().to_vec();
                r.scene.transfer = TransferFunction::from_points("renamed", points);
            },
            |r| {
                let mut points = r.scene.transfer.points().to_vec();
                points.push(*points.last().unwrap());
                let name = r.scene.transfer.name();
                r.scene.transfer = TransferFunction::from_points(name, points);
            },
        ]
    }

    /// The iff contract, field by field. For every float field, each pair
    /// of `0.0`, `-0.0`, two NaN payloads and two ordinary values gives
    /// equal keys exactly when the bits are equal. Every single-field
    /// change — the floats set to one sentinel, the rest as listed — gives
    /// a key unlike the base's and unlike every other change's.
    #[test]
    fn keys_are_equal_iff_every_field_is_bit_equal() {
        assert_eq!(key(&base()), key(&base()), "equal inputs, equal keys");
        let f64s = [
            0.0,
            -0.0,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::NAN,
            0.5,
            2.0,
        ];
        let f32s = [0.0, -0.0, f32::from_bits(0x7fc0_0001), f32::NAN, 0.5, 2.0];
        assert_ne!(f64s[2].to_bits(), f64s[3].to_bits());
        assert_ne!(f32s[2].to_bits(), f32s[3].to_bits());
        let mut changed = vec![key(&base())];

        for (i, field) in f64_fields().into_iter().enumerate() {
            let with = |x: f64| {
                let mut r = base();
                *field(&mut r) = x;
                key(&r)
            };
            for a in f64s {
                for b in f64s {
                    let equal = a.to_bits() == b.to_bits();
                    assert_eq!(with(a) == with(b), equal, "f64 field {i}: {a:?} vs {b:?}");
                }
            }
            changed.push(with(0.123_456_789));
        }
        for (i, field) in f32_fields().into_iter().enumerate() {
            let with = |x: f32| {
                let mut r = base();
                field(&mut r, x);
                key(&r)
            };
            for a in f32s {
                for b in f32s {
                    let equal = a.to_bits() == b.to_bits();
                    assert_eq!(with(a) == with(b), equal, "f32 field {i}: {a:?} vs {b:?}");
                }
            }
            changed.push(with(0.123_456_7));
        }
        for change in other_fields() {
            let mut r = base();
            change(&mut r);
            changed.push(key(&r));
        }

        let count = changed.len();
        changed.sort();
        changed.dedup();
        assert_eq!(changed.len(), count, "two different requests share a key");
    }

    fn plan_key(spec: &ClusterSpec, volume: &Volume, cfg: &RenderConfig) -> RequestKey {
        RequestKey::plan(spec, &volume.meta, cfg)
    }

    #[test]
    fn same_volume_and_config_share_a_plan_across_scenes() {
        let r = base();
        let mut moved = r.clone();
        let skull = Dataset::Skull.volume(16);
        moved.scene = Scene::orbit(&skull, 80.0, 20.0, TransferFunction::bone());
        let plan = |r: &Req| RequestKey::plan(&r.spec, &r.meta, &r.cfg);
        assert_eq!(plan(&r), plan(&moved), "camera must not split plans");
        assert_ne!(key(&r), key(&moved), "but it splits frames");
    }

    #[test]
    fn different_volume_config_or_cluster_split_the_plan() {
        let v = Dataset::Skull.volume(16);
        let spec = ClusterSpec::accelerator_cluster(2);
        let cfg = RenderConfig::test_size(32);
        let base = plan_key(&spec, &v, &cfg);
        assert_ne!(base, plan_key(&spec, &Dataset::Plume.volume(8), &cfg));
        assert_ne!(base, plan_key(&spec, &v, &RenderConfig::test_size(64)));
        let bigger = ClusterSpec::accelerator_cluster(4);
        assert_ne!(base, plan_key(&bigger, &v, &cfg));
    }

    /// Two in-memory volumes with identical `(name, dims, seed)` but
    /// different voxels must never share a plan: the `content` fingerprint
    /// in `VolumeMeta` keeps their keys apart.
    #[test]
    fn same_meta_different_voxels_split_the_plan() {
        let dims = [8u32, 8, 8];
        let a = Volume::in_memory("twin", dims, vec![0.2; 512]);
        let b = Volume::in_memory("twin", dims, vec![0.8; 512]);
        let spec = ClusterSpec::accelerator_cluster(2);
        let cfg = RenderConfig::test_size(16);
        assert_ne!(plan_key(&spec, &a, &cfg), plan_key(&spec, &b, &cfg));
    }
}
