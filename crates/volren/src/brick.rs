//! Render bricks: the [`Chunk`]s of the rendering MapReduce job.
//!
//! A [`RenderBrick`] knows its geometry up front (device bytes, screen
//! footprint) but materializes voxels lazily through the shared
//! [`BrickStore`] at map time — this is what makes out-of-core rendering
//! work: the store's LRU budget bounds host memory while bricks stream
//! through the mappers.
//!
//! A brick also keeps what skipping needs of it (`stage`): its min/max
//! macrocells, and per transfer function the skip grid classified from
//! them and the rows of the brick its occupied cells can tap. This is the
//! mapper's per-GPU state of the paper's `initialize`, held per brick so
//! that a plan's frames classify each brick once per transfer function,
//! whatever the store evicts between them — and so that a miss, knowing
//! the grid before it reads, reads only those rows.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mgpu_gpu::{Texture1D, Texture3D};
use mgpu_mapreduce::Chunk;
use mgpu_obs::{names, Histogram};
use mgpu_voldata::{BrickData, BrickInfo, BrickStore, MacroCells, Rows};

use crate::camera::Camera;
use crate::math::{vec3, Vec3};
use crate::skip::SkipGrid;
use crate::transfer::TransferFunction;

/// How many transfer functions' grids a brick keeps: a plan serves
/// sessions with different presets at once. A grid is a byte per cell.
const GRIDS_KEPT: usize = 4;

/// A transfer function's grid for one brick — `None` when no cell is
/// empty — and the rows of the brick a launch with it can tap.
type Kept = (Option<Arc<SkipGrid>>, Arc<Rows>);

/// A brick's skipping state. The cells depend on its voxels only, so a new
/// transfer function costs a classification and no pass over the voxels.
#[derive(Default)]
pub(crate) struct SkipMemo {
    /// The brick's min/max cells over its padded box, once built.
    cells: Option<MacroCells>,
    /// Grids and rows by the transfer function they were classified
    /// against, most recently used first.
    grids: VecDeque<(TransferFunction, Kept)>,
}

/// `volren.staging_ns`, registered once in the global registry.
fn staging_ns() -> &'static Histogram {
    static STAGING: OnceLock<Arc<Histogram>> = OnceLock::new();
    STAGING.get_or_init(|| mgpu_obs::global().histogram(names::VOLREN_STAGING_NS))
}

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
    /// The cells and grids built for this brick.
    skip: Mutex<SkipMemo>,
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
            skip: Mutex::default(),
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
    /// ghost-padded box, and the box's origin in world space (the kernel's
    /// `store_origin`). Keep `data` until the texture is dropped: a voxel
    /// buffer goes back to the store's spares only when the `BrickData`
    /// holding it is its last holder.
    pub fn texture(data: &BrickData) -> (Texture3D, Vec3) {
        let (origin, dims) = data.info.padded(data.ghost);
        let voxels = Arc::clone(&data.voxels);
        let texture = Texture3D::windowed(dims, data.window(), data.store_dims, voxels);
        let [x, y, z] = origin.map(|c| c as f32);
        (texture, vec3(x, y, z))
    }

    /// This brick staged for a launch under `transfer`, whose baked LUT is
    /// `lut`, and the skip grid to launch with: the voxels hold at least
    /// the rows the grid's occupied cells can tap — every row when the grid
    /// is `None`. The memo's grid and rows when it kept them for
    /// `transfer`; otherwise its cells — built from a read of every row the
    /// first time — classified and distance-transformed, kept with their
    /// rows in place of the least recently used grid. Built outside the
    /// lock: two launches that miss at once each build the same thing, and
    /// the later one stays. Each read is one `volren.staging_ns` sample.
    pub(crate) fn stage(
        &self,
        transfer: &TransferFunction,
        lut: &Texture1D,
    ) -> (Arc<BrickData>, Option<Arc<SkipGrid>>) {
        let cells = {
            let mut memo = self.memo();
            if let Some(i) = memo.grids.iter().position(|(tf, _)| tf == transfer) {
                memo.grids.make_contiguous()[..=i].rotate_right(1);
                let (grid, rows) = memo.grids[0].1.clone();
                drop(memo);
                return (self.fetch(&rows), grid);
            }
            memo.cells.clone()
        };
        let (data, cells) = match cells {
            Some(cells) => (None, cells),
            None => {
                let vol_dims = self.store.grid().vol_dims;
                let data = self.fetch(&Rows::all(self.info.stored(self.ghost, vol_dims).1));
                let cells = MacroCells::of(&data);
                self.memo().cells = Some(cells.clone());
                (Some(data), cells)
            }
        };
        let view = mgpu_gpu::MacroCells {
            edge: cells.edge,
            dims: cells.dims(),
            ranges: &cells.ranges,
        };
        let grid = SkipGrid::classify(view, lut).map(Arc::new);
        let rows =
            Arc::new(cells.rows(|cell| grid.as_ref().is_none_or(|grid| grid.occupied(cell))));
        let data = data.unwrap_or_else(|| self.fetch(&rows));
        let mut memo = self.memo();
        memo.grids.retain(|(tf, _)| tf != transfer);
        memo.grids
            .push_front((transfer.clone(), (grid.clone(), rows)));
        memo.grids.truncate(GRIDS_KEPT);
        (data, grid)
    }

    /// The brick holding at least `rows`, timing the read if it took one.
    fn fetch(&self, rows: &Rows) -> Arc<BrickData> {
        let (data, read) = self.store.get_rows(self.info.id, rows);
        if let Some(read) = read {
            staging_ns().record_duration(read);
        }
        data
    }

    /// The memo slot. Whatever a panicking holder left in it is complete.
    fn memo(&self) -> std::sync::MutexGuard<'_, SkipMemo> {
        self.skip.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The memo's cells, and its grid for `transfer` if it keeps one.
    #[cfg(test)]
    pub(crate) fn kept(
        &self,
        transfer: &TransferFunction,
    ) -> (Option<MacroCells>, Option<Option<Arc<SkipGrid>>>) {
        let memo = self.memo();
        let grid = memo.grids.iter().find(|(tf, _)| tf == transfer);
        (memo.cells.clone(), grid.map(|(_, (grid, _))| grid.clone()))
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
        // Room for one 9³ stored brick and no second buffer in the spares:
        // staging brick 1 evicts brick 0 while its texture, and the brick
        // the texture was built from, are still held.
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

    /// The memo's grid is the grid of the brick's padded box written out
    /// whole: its cells are keyed by the padded base index, also where the
    /// store keeps a clipped window of the box.
    #[test]
    fn a_bricks_skip_grid_is_the_grid_of_its_clamped_padded_box() {
        let store = store_for(32, 27);
        let transfer = TransferFunction::bone();
        let lut = transfer.bake();
        let mut grids = 0;
        for id in 0..store.grid().brick_count() {
            let brick = RenderBrick::new(Arc::clone(&store), id, Staging::HostResident);
            let data = brick.voxels();
            let (origin, dims) = data.info.padded(data.ghost);
            let full = store.volume().materialize_clamped(origin, dims);
            let cells = MacroCells::build(&full, dims, [0; 3], dims);
            let celled = Texture3D::new(dims, full).with_cells(cells.edge, cells.ranges);
            let want = SkipGrid::classify(celled.cells().unwrap(), &lut);
            let (_, grid) = brick.stage(&transfer, &lut);
            assert_eq!(
                grid.as_deref(),
                want.as_ref(),
                "brick {id} at {:?}",
                data.window()
            );
            grids += usize::from(grid.is_some());
        }
        assert!(grids > 0, "no brick skips anything");
    }

    /// The grids go least recently used first; the cells stay.
    #[test]
    fn a_brick_keeps_the_grids_of_its_last_transfer_functions() {
        let store = store_for(32, 8);
        let brick = RenderBrick::new(store, 0, Staging::HostResident);
        let glow = TransferFunction::from_points(
            "glow",
            vec![crate::transfer::ControlPoint {
                value: 0.5,
                rgba: [1.0; 4],
            }],
        );
        let [bone, fire, smoke, grayscale] = [
            TransferFunction::bone(),
            TransferFunction::fire(),
            TransferFunction::smoke(),
            TransferFunction::grayscale(),
        ];
        // `bone` again is a hit, which makes `fire` the least recently used.
        for transfer in [&bone, &fire, &smoke, &grayscale, &bone, &glow] {
            brick.stage(transfer, &transfer.bake());
        }
        let cells = brick.kept(&bone).0.expect("cells").ranges;
        for transfer in [&bone, &smoke, &grayscale, &glow] {
            let (kept_cells, grid) = brick.kept(transfer);
            assert!(grid.is_some(), "{} dropped", transfer.name());
            assert!(Arc::ptr_eq(&kept_cells.expect("cells").ranges, &cells));
        }
        assert!(brick.kept(&fire).1.is_none(), "fire kept");
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
