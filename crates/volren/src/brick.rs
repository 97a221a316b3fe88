//! Render bricks: the [`Chunk`]s of the rendering MapReduce job.
//!
//! A [`RenderBrick`] knows its geometry up front (device bytes, screen
//! footprint) but materializes voxels lazily through the shared
//! [`BrickStore`] at map time — this is what makes out-of-core rendering
//! work: the store's LRU budget bounds host memory while bricks stream
//! through the mappers.

use std::sync::Arc;

use mgpu_gpu::Texture3D;
use mgpu_mapreduce::Chunk;
use mgpu_voldata::{BrickData, BrickInfo, BrickStore};

use crate::camera::Camera;
use crate::math::{vec3, Vec3};

/// Whether brick voxels are charged as disk reads by the DES.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Staging {
    /// Data already resident in host RAM (the paper's Figure-3 assumption:
    /// "assume that all data is initially resident within CPU system
    /// memory").
    HostResident,
    /// Streamed from node-local disk (out-of-core operation).
    Disk,
}

/// One brick of the volume, ready to be mapped.
pub struct RenderBrick {
    info: BrickInfo,
    store: Arc<BrickStore>,
    staging: Staging,
    ghost: u32,
}

impl RenderBrick {
    pub fn new(store: Arc<BrickStore>, id: usize, staging: Staging) -> RenderBrick {
        let info = store.grid().brick(id);
        let ghost = store.ghost();
        RenderBrick {
            info,
            store,
            staging,
            ghost,
        }
    }

    pub fn info(&self) -> BrickInfo {
        self.info
    }

    /// Materialize (or fetch cached) voxels: the ghost-padded box clipped
    /// to the volume.
    pub fn voxels(&self) -> Arc<BrickData> {
        self.store.get(self.info.id)
    }

    /// `data` as the kernel samples it: its stored voxels windowed into the
    /// ghost-padded box, with their macrocells, and the box's origin in
    /// world space (the kernel's `store_origin`). Keep `data` until the
    /// texture is dropped: a voxel buffer goes back to the store's spares
    /// only when the `BrickData` holding it is its last holder.
    pub fn texture(data: &BrickData) -> (Texture3D, Vec3) {
        let (origin, dims) = data.info.padded(data.ghost);
        let voxels = Arc::clone(&data.voxels);
        let texture = Texture3D::windowed(dims, data.window(), data.store_dims, voxels)
            .with_cells(data.cells.edge, Arc::clone(&data.cells.ranges));
        let [x, y, z] = origin.map(|c| c as f32);
        (texture, vec3(x, y, z))
    }

    /// Dimensions of the modelled device array — the ghost-padded brick,
    /// which the DES charges as the texture uploaded — known without
    /// materializing. The host stores this box clipped to the volume
    /// ([`BrickData::store_dims`]).
    pub fn store_dims(&self) -> [usize; 3] {
        self.info.padded(self.ghost).1
    }

    /// World-space box of the brick core (no ghost).
    pub fn core_box(&self) -> (Vec3, Vec3) {
        let lo = vec3(
            self.info.origin[0] as f32,
            self.info.origin[1] as f32,
            self.info.origin[2] as f32,
        );
        let hi = lo
            + vec3(
                self.info.size[0] as f32,
                self.info.size[1] as f32,
                self.info.size[2] as f32,
            );
        (lo, hi)
    }

    /// Screen-space footprint: the pixel rectangle `(x0, y0, x1, y1)`
    /// (half-open) this brick can contribute to, or `None` when off-screen.
    /// Falls back to the full image if any corner is behind the camera.
    pub fn footprint(
        &self,
        camera: &Camera,
        width: u32,
        height: u32,
    ) -> Option<(u32, u32, u32, u32)> {
        let (lo, hi) = self.core_box();
        let mut min_x = f32::INFINITY;
        let mut min_y = f32::INFINITY;
        let mut max_x = f32::NEG_INFINITY;
        let mut max_y = f32::NEG_INFINITY;
        for zi in 0..2 {
            for yi in 0..2 {
                for xi in 0..2 {
                    let corner = vec3(
                        if xi == 0 { lo.x } else { hi.x },
                        if yi == 0 { lo.y } else { hi.y },
                        if zi == 0 { lo.z } else { hi.z },
                    );
                    match camera.project(corner, width, height) {
                        Some((px, py)) => {
                            min_x = min_x.min(px);
                            min_y = min_y.min(py);
                            max_x = max_x.max(px);
                            max_y = max_y.max(py);
                        }
                        // A corner behind the camera: footprint is unbounded,
                        // conservatively use the whole image.
                        None => return Some((0, 0, width, height)),
                    }
                }
            }
        }
        // One pixel of margin for the conservative rasterization of edges.
        let x0 = (min_x - 1.0).floor().max(0.0) as u32;
        let y0 = (min_y - 1.0).floor().max(0.0) as u32;
        let x1 = ((max_x + 1.0).ceil() as i64).clamp(0, width as i64) as u32;
        let y1 = ((max_y + 1.0).ceil() as i64).clamp(0, height as i64) as u32;
        if x0 >= x1 || y0 >= y1 {
            return None;
        }
        Some((x0, y0, x1, y1))
    }
}

impl Chunk for RenderBrick {
    fn id(&self) -> usize {
        self.info.id
    }

    fn device_bytes(&self) -> u64 {
        let d = self.store_dims();
        (d[0] * d[1] * d[2] * 4) as u64
    }

    fn disk_bytes(&self) -> u64 {
        match self.staging {
            Staging::HostResident => 0,
            // The disk holds the core voxels; ghost layers come from
            // adjacent reads already in page cache — charge the core.
            Staging::Disk => self.info.bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::Scene;
    use crate::transfer::TransferFunction;
    use mgpu_voldata::{BrickGrid, BrickPolicy, Dataset};

    fn store_for(base: u32, bricks: u32) -> Arc<BrickStore> {
        let v = Dataset::Skull.volume(base);
        let grid = BrickGrid::subdivide(
            v.dims(),
            &BrickPolicy {
                min_bricks: bricks,
                max_brick_voxels: u64::MAX,
            },
        );
        Arc::new(BrickStore::new(v, grid, 1, u64::MAX))
    }

    #[test]
    fn chunk_bytes_account_for_ghost() {
        let store = store_for(16, 8);
        let b = RenderBrick::new(store, 0, Staging::HostResident);
        // 8³ core + 2-voxel padding = 10³ stored.
        assert_eq!(b.device_bytes(), 10 * 10 * 10 * 4);
        assert_eq!(b.disk_bytes(), 0);
    }

    #[test]
    fn a_texture_held_past_eviction_returns_its_buffer_with_the_brick() {
        // Room for one 9³ stored brick, its table and no second buffer in
        // the spares: staging brick 1 evicts brick 0 while its texture, and
        // the brick the texture was built from, are still held.
        let v = Dataset::Skull.volume(16);
        let grid = BrickGrid::subdivide(
            v.dims(),
            &BrickPolicy {
                min_bricks: 8,
                max_brick_voxels: u64::MAX,
            },
        );
        let store = Arc::new(BrickStore::new(v, grid, 1, 3_700));
        let brick = |id| RenderBrick::new(Arc::clone(&store), id, Staging::HostResident);
        let data = brick(0).voxels();
        let first = data.voxels.as_ptr();
        let (texture, _) = RenderBrick::texture(&data);
        brick(1).voxels();
        assert_eq!(store.snapshot().evictions, 1);
        drop(texture);
        drop(data);
        // The buffer went back to the store, and serves the next miss.
        assert_eq!(brick(2).voxels().voxels.as_ptr(), first);
    }

    #[test]
    fn disk_staging_charges_core_bytes() {
        let store = store_for(16, 8);
        let b = RenderBrick::new(store, 3, Staging::Disk);
        assert_eq!(b.disk_bytes(), 8 * 8 * 8 * 4);
    }

    #[test]
    fn footprints_cover_brick_projections() {
        let store = store_for(32, 8);
        let v = Dataset::Skull.volume(32);
        let scene = Scene::orbit(&v, 25.0, 15.0, TransferFunction::bone());
        let mut any = false;
        for id in 0..store.grid().brick_count() {
            let b = RenderBrick::new(Arc::clone(&store), id, Staging::HostResident);
            if let Some((x0, y0, x1, y1)) = b.footprint(&scene.camera, 256, 256) {
                any = true;
                assert!(x0 < x1 && y0 < y1);
                assert!(x1 <= 256 && y1 <= 256);
                // The brick center must project inside its own footprint.
                let (lo, hi) = b.core_box();
                let center = (lo + hi) * 0.5;
                let (cx, cy) = scene.camera.project(center, 256, 256).unwrap();
                assert!(cx >= x0 as f32 && cx <= x1 as f32);
                assert!(cy >= y0 as f32 && cy <= y1 as f32);
            }
        }
        assert!(any, "no brick projected on screen");
    }

    #[test]
    fn union_of_footprints_bounded_by_volume_footprint() {
        // Footprints of sub-bricks stay inside the whole volume's footprint
        // (+1 margin): a sanity check on the projection math.
        let store = store_for(32, 27);
        let v = Dataset::Skull.volume(32);
        let scene = Scene::orbit(&v, 40.0, -10.0, TransferFunction::bone());
        let whole = {
            let g = BrickGrid::subdivide(
                [32, 32, 32],
                &BrickPolicy {
                    min_bricks: 1,
                    max_brick_voxels: u64::MAX,
                },
            );
            let s = Arc::new(BrickStore::new(v, g, 1, u64::MAX));
            RenderBrick::new(s, 0, Staging::HostResident)
                .footprint(&scene.camera, 512, 512)
                .unwrap()
        };
        for id in 0..store.grid().brick_count() {
            let b = RenderBrick::new(Arc::clone(&store), id, Staging::HostResident);
            if let Some((x0, y0, x1, y1)) = b.footprint(&scene.camera, 512, 512) {
                assert!(x0 + 2 >= whole.0 && y0 + 2 >= whole.1);
                assert!(x1 <= whole.2 + 2 && y1 <= whole.3 + 2);
            }
        }
    }
}
