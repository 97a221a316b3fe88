//! Layer `sim`: the DES replay `render_planned` runs on every frame —
//! `build_trace` → `simulate` → `account` on the job's record.

use mgpu_mapreduce::{build_trace, CostBook, JobRecord};
use mgpu_sim::{account, simulate, RunAccounting};

use super::Target;
use crate::span::Recorder;

/// Replay one frame's record; returns the accounting and the task count.
pub fn replay(
    rec: &mut Recorder,
    frame: u64,
    target: &Target,
    record: &JobRecord,
) -> (RunAccounting, usize) {
    rec.span("des_replay", "sim", frame, |_| {
        let book = CostBook::from_cluster(&target.spec);
        let trace = build_trace(record, &target.spec, &book, &target.config.trace);
        let schedule = simulate(&trace);
        (account(&trace, &schedule), trace.len())
    })
}
