//! Phase accounting: turns a replayed schedule into the numbers the paper
//! reports — the Figure-3 stacked phase breakdown, per-activity busy times,
//! and the §6.3 communication-vs-computation split.

use std::collections::BTreeMap;

use crate::activity::{Activity, Fig3Bucket};
use crate::engine::Schedule;
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;

/// The stacked per-phase breakdown of one rendering run (one Figure-3 bar).
///
/// Attribution is milestone-based, matching how the paper's phases complete
/// in sequence even though work overlaps internally:
/// * `map` — start → last Map-side task (upload/kernel/readback) finishes;
/// * `partition_io` — … → last fragment has been partitioned and received
///   (only the communication *tail* not hidden behind mapping is exposed,
///   which is exactly the overlap argument of §3/§6);
/// * `sort` — … → all reducers finish sorting;
/// * `reduce` — … → all reducers finish compositing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseBreakdown {
    pub map: SimDuration,
    pub partition_io: SimDuration,
    pub sort: SimDuration,
    pub reduce: SimDuration,
}

impl PhaseBreakdown {
    pub fn total(&self) -> SimDuration {
        self.map + self.partition_io + self.sort + self.reduce
    }

    pub fn get(&self, bucket: Fig3Bucket) -> SimDuration {
        match bucket {
            Fig3Bucket::Map => self.map,
            Fig3Bucket::PartitionIo => self.partition_io,
            Fig3Bucket::Sort => self.sort,
            Fig3Bucket::Reduce => self.reduce,
        }
    }
}

/// Aggregate busy time and bytes for one activity across all resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivityTotals {
    pub busy: SimDuration,
    pub bytes: u64,
    pub tasks: u64,
}

/// Everything a benchmark needs to report about one replay.
#[derive(Debug, Clone)]
pub struct RunAccounting {
    pub breakdown: PhaseBreakdown,
    /// Virtual wall-clock of the whole run.
    pub makespan: SimDuration,
    /// Busy time / bytes per activity (sums over resources; overlap ignored).
    pub activity: BTreeMap<&'static str, ActivityTotals>,
    /// §6.3 split: total service demand of byte-moving tasks.
    pub communication_demand: SimDuration,
    /// §6.3 split: total service demand of computing tasks.
    pub computation_demand: SimDuration,
    /// Kernel-only demand (the "ray casting" time of §6.3).
    pub kernel_demand: SimDuration,
    /// Sum of all service demands: the zero-overlap serial time.
    pub serial_demand: SimDuration,
}

impl RunAccounting {
    pub fn totals(&self, activity: Activity) -> ActivityTotals {
        self.activity
            .get(activity.label())
            .copied()
            .unwrap_or(ActivityTotals {
                busy: SimDuration::ZERO,
                bytes: 0,
                tasks: 0,
            })
    }

    /// Overlap efficiency: serial demand / makespan (≥ 1 means the pipeline
    /// hid work behind other work; equals resource-parallelism achieved).
    pub fn overlap_factor(&self) -> f64 {
        if self.makespan.is_zero() {
            return 1.0;
        }
        self.serial_demand.as_secs_f64() / self.makespan.as_secs_f64()
    }
}

/// Compute accounting for a replayed trace.
pub fn account(trace: &Trace, schedule: &Schedule) -> RunAccounting {
    let mut map_done = SimTime::ZERO;
    let mut routed_done = SimTime::ZERO;
    let mut sort_done = SimTime::ZERO;
    let mut reduce_done = SimTime::ZERO;

    let mut activity: BTreeMap<&'static str, ActivityTotals> = BTreeMap::new();
    let mut comm = SimDuration::ZERO;
    let mut comp = SimDuration::ZERO;
    let mut kernel = SimDuration::ZERO;
    let mut serial = SimDuration::ZERO;

    for (i, spec) in trace.tasks().iter().enumerate() {
        let t = schedule.timings()[i];
        match spec.activity.fig3_bucket() {
            Some(Fig3Bucket::Map) => map_done = SimTime::max_of(map_done, t.complete),
            Some(Fig3Bucket::PartitionIo) => routed_done = SimTime::max_of(routed_done, t.complete),
            Some(Fig3Bucket::Sort) => sort_done = SimTime::max_of(sort_done, t.complete),
            Some(Fig3Bucket::Reduce) => reduce_done = SimTime::max_of(reduce_done, t.complete),
            None => {}
        }

        let e = activity
            .entry(spec.activity.label())
            .or_insert(ActivityTotals {
                busy: SimDuration::ZERO,
                bytes: 0,
                tasks: 0,
            });
        e.busy += spec.duration;
        e.bytes += spec.bytes;
        e.tasks += 1;

        if spec.activity.is_communication() {
            comm += spec.duration;
        }
        if spec.activity.is_computation() {
            comp += spec.duration;
        }
        if spec.activity == Activity::Kernel {
            kernel += spec.duration;
        }
        serial += spec.duration;
    }

    // Milestones are monotone: a later phase can never "complete" before an
    // earlier one for stacking purposes.
    routed_done = SimTime::max_of(routed_done, map_done);
    sort_done = SimTime::max_of(sort_done, routed_done);
    reduce_done = SimTime::max_of(reduce_done, sort_done);

    let breakdown = PhaseBreakdown {
        map: map_done.since(SimTime::ZERO),
        partition_io: routed_done.since(map_done),
        sort: sort_done.since(routed_done),
        reduce: reduce_done.since(sort_done),
    };

    RunAccounting {
        breakdown,
        makespan: schedule.makespan().since(SimTime::ZERO),
        activity,
        communication_demand: comm,
        computation_demand: comp,
        kernel_demand: kernel,
        serial_demand: serial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;

    fn dur(n: u64) -> SimDuration {
        SimDuration(n)
    }

    /// A miniature two-mapper / one-reducer pipeline with overlap.
    fn tiny_pipeline() -> (Trace, RunAccounting) {
        let mut tr = Trace::new();
        let gpu0 = tr.add_resource();
        let gpu1 = tr.add_resource();
        let pcie0 = tr.add_resource();
        let pcie1 = tr.add_resource();
        let nic = tr.add_resource();
        let cpu = tr.add_resource();

        let u0 = tr.comm_task(
            Activity::HostToDevice,
            pcie0,
            dur(2),
            SimDuration::ZERO,
            100,
            vec![],
        );
        let k0 = tr.task(Activity::Kernel, gpu0, dur(10), vec![u0]);
        let d0 = tr.comm_task(
            Activity::DeviceToHost,
            pcie0,
            dur(1),
            SimDuration::ZERO,
            50,
            vec![k0],
        );
        let u1 = tr.comm_task(
            Activity::HostToDevice,
            pcie1,
            dur(2),
            SimDuration::ZERO,
            100,
            vec![],
        );
        let k1 = tr.task(Activity::Kernel, gpu1, dur(14), vec![u1]);
        let d1 = tr.comm_task(
            Activity::DeviceToHost,
            pcie1,
            dur(1),
            SimDuration::ZERO,
            50,
            vec![k1],
        );
        let s0 = tr.comm_task(Activity::NetSend, nic, dur(3), dur(1), 50, vec![d0]);
        let s1 = tr.comm_task(Activity::NetSend, nic, dur(3), dur(1), 50, vec![d1]);
        let sort = tr.task(Activity::SortCpu, cpu, dur(2), vec![s0, s1]);
        let red = tr.task(Activity::ReduceCpu, cpu, dur(4), vec![sort]);

        let s = simulate(&tr);
        // Map side: k1 path finishes last: u1(2) + k1(14) + d1(1) = 17.
        assert_eq!(s.timing(d1).complete, SimTime(17));
        assert_eq!(s.timing(red).finish, SimTime(17 + 3 + 1 + 2 + 4));
        let acc = account(&tr, &s);
        (tr, acc)
    }

    #[test]
    fn milestone_breakdown_stacks_to_makespan() {
        let (_tr, acc) = tiny_pipeline();
        assert_eq!(acc.breakdown.map, dur(17));
        // s0 ran at t=13..16 (overlapped with mapping); s1 at 17..20 +1 wire.
        assert_eq!(acc.breakdown.partition_io, dur(4));
        assert_eq!(acc.breakdown.sort, dur(2));
        assert_eq!(acc.breakdown.reduce, dur(4));
        assert_eq!(acc.breakdown.total(), acc.makespan);
    }

    #[test]
    fn busy_and_split_totals() {
        let (_tr, acc) = tiny_pipeline();
        assert_eq!(acc.kernel_demand, dur(24));
        // comm: 2 uploads (2+2) + 2 readbacks (1+1) + 2 sends (3+3) = 12.
        assert_eq!(acc.communication_demand, dur(12));
        // compute: kernels 24 + sort 2 + reduce 4 = 30.
        assert_eq!(acc.computation_demand, dur(30));
        assert_eq!(acc.serial_demand, dur(42));
        assert!(acc.overlap_factor() > 1.0);
        assert_eq!(acc.totals(Activity::NetSend).bytes, 100);
        assert_eq!(acc.totals(Activity::NetSend).tasks, 2);
    }

    #[test]
    fn empty_run_is_all_zero() {
        let tr = Trace::new();
        let s = simulate(&tr);
        let acc = account(&tr, &s);
        assert_eq!(acc.breakdown.total(), SimDuration::ZERO);
        assert_eq!(acc.makespan, SimDuration::ZERO);
        assert_eq!(acc.overlap_factor(), 1.0);
    }

    #[test]
    fn milestones_are_monotone_even_with_odd_orderings() {
        // A reduce-tagged task that finishes before any map task must not
        // produce negative phases.
        let mut tr = Trace::new();
        let r = tr.add_resource();
        tr.task(Activity::ReduceCpu, r, dur(1), vec![]);
        tr.task(Activity::Kernel, r, dur(10), vec![]);
        let s = simulate(&tr);
        let acc = account(&tr, &s);
        assert_eq!(acc.breakdown.map, dur(11));
        assert_eq!(acc.breakdown.reduce, SimDuration::ZERO);
        assert_eq!(acc.breakdown.total(), acc.makespan);
    }
}
