//! Per-resource utilization and an ASCII Gantt timeline of replayed
//! schedules — the raw material for `paper timeline`'s tables.

use crate::engine::Schedule;
use crate::time::SimDuration;
use crate::trace::Trace;

/// Utilization summary of one resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceUse {
    pub resource: u32,
    pub busy: SimDuration,
    pub tasks: u64,
    /// busy / makespan, in [0, 1].
    pub utilization: f64,
}

/// Per-resource busy time and utilization.
pub fn resource_use(trace: &Trace, schedule: &Schedule) -> Vec<ResourceUse> {
    let makespan = schedule.makespan().as_secs_f64();
    let mut busy = vec![SimDuration::ZERO; trace.num_resources()];
    let mut tasks = vec![0u64; trace.num_resources()];
    for spec in trace.tasks() {
        busy[spec.resource.0 as usize] += spec.duration;
        tasks[spec.resource.0 as usize] += 1;
    }
    busy.iter()
        .zip(&tasks)
        .enumerate()
        .map(|(r, (&b, &n))| ResourceUse {
            resource: r as u32,
            busy: b,
            tasks: n,
            utilization: if makespan > 0.0 {
                (b.as_secs_f64() / makespan).min(1.0)
            } else {
                0.0
            },
        })
        .collect()
}

/// Render a coarse ASCII timeline (one row per resource, `width` columns).
pub fn ascii_timeline(trace: &Trace, schedule: &Schedule, width: usize) -> String {
    let makespan = schedule.makespan().nanos().max(1);
    let mut rows = vec![vec![b'.'; width]; trace.num_resources()];
    for (spec, t) in trace.tasks().iter().zip(schedule.timings()) {
        if spec.duration.is_zero() {
            continue;
        }
        let c = spec.activity.label().as_bytes()[0].to_ascii_uppercase();
        let lo = (t.start.nanos() as u128 * width as u128 / makespan as u128) as usize;
        let hi = (t.finish.nanos() as u128 * width as u128 / makespan as u128) as usize;
        for cell in &mut rows[spec.resource.0 as usize][lo..hi.max(lo + 1).min(width)] {
            *cell = c;
        }
    }
    rows.iter()
        .enumerate()
        .map(|(r, row)| format!("r{:02} |{}|", r, String::from_utf8_lossy(row)))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Activity;
    use crate::engine::simulate;
    use crate::trace::Trace;

    fn sample() -> (Trace, Schedule) {
        let mut tr = Trace::new();
        let r0 = tr.add_resource();
        let r1 = tr.add_resource();
        let a = tr.task(Activity::Kernel, r0, SimDuration(10), vec![]);
        let b = tr.task(Activity::Kernel, r0, SimDuration(10), vec![]);
        tr.task(Activity::SortCpu, r1, SimDuration(5), vec![a, b]);
        let s = simulate(&tr);
        (tr, s)
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let (tr, s) = sample();
        let use_ = resource_use(&tr, &s);
        // r0 busy 20 of 25; r1 busy 5 of 25.
        assert!((use_[0].utilization - 0.8).abs() < 1e-9);
        assert!((use_[1].utilization - 0.2).abs() < 1e-9);
        assert_eq!(use_[0].tasks, 2);
    }

    #[test]
    fn ascii_timeline_shapes() {
        let (tr, s) = sample();
        let art = ascii_timeline(&tr, &s, 25);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('K'));
        assert!(lines[1].contains('S'));
        // Sort happens in the last fifth of the timeline.
        let sort_pos = lines[1].find('S').unwrap();
        assert!(sort_pos > 20, "{art}");
    }

    #[test]
    fn empty_schedule() {
        let tr = Trace::new();
        let s = simulate(&tr);
        assert!(resource_use(&tr, &s).is_empty());
    }
}
