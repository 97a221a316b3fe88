//! Layer `voldata`: `BrickStore::get` on a store configured like the
//! workload's — a cold get (materialize: `read_region` plus the
//! ghost-clamped copy, or procedural synthesis) and the hit right after it.

use mgpu_voldata::BrickStore;

use super::Target;
use crate::span::Recorder;

/// Cycles over the bricks: enough samples for a median without
/// re-synthesizing a large procedural volume many times over.
const CYCLES: usize = 2;

/// Get every brick twice in a row, [`CYCLES`] times over, from a store with
/// the workload's budget. The first get of a pair is a miss (the store
/// starts cold and is cleared between cycles), the second a hit.
pub fn cycle(rec: &mut Recorder, target: &Target) {
    let store = BrickStore::new(
        target.volume.clone(),
        target.plan.grid.clone(),
        target.plan.store().ghost(),
        target.config.host_cache_bytes,
    );
    for _ in 0..CYCLES {
        store.clear();
        for id in 0..store.grid().brick_count() {
            rec.span("BrickStore::get.miss", "voldata", id as u64, |_| {
                store.get(id)
            });
            rec.span("BrickStore::get.hit", "voldata", id as u64, |_| {
                store.get(id)
            });
        }
    }
    let stats = store.snapshot();
    let gets = (CYCLES * store.grid().brick_count()) as u64;
    assert_eq!(
        (stats.misses, stats.hits),
        (gets, gets),
        "probe pairs are miss then hit"
    );
}
