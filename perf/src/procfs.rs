//! What the kernel says about this process: CPU time and peak resident set.
//!
//! Read from `/proc/self` because `std` exposes neither. The process-level
//! `utime`/`stime` of `/proc/self/stat` keep the time of threads that have
//! already exited, which matters here: `run_job` spawns and joins its
//! mapper and reducer threads on every frame.

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime`. Fixed at 100 on every Linux ABI
/// this benchmark runs on (it is part of the userspace ABI, not a tunable).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`.
///
/// The second field (`comm`) is parenthesised and may itself contain spaces
/// and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // After comm comes field 3 (state); utime and stime are fields 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// A `kB` line of `/proc/<pid>/status` (e.g. `VmHWM`), in MiB.
pub fn parse_status_mib(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|l| {
        l.strip_prefix(key)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    let mut parts = line[key.len() + 1..].split_ascii_whitespace();
    let kb: u64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb as f64 / 1024.0)
}

/// CPU seconds this process (all threads, living and joined) has used.
pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(parse_stat_cpu_seconds)
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak resident set (`VmHWM`) of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(|s| parse_status_mib(s, "VmHWM"))
        .expect("/proc/self/status carries VmHWM on Linux")
}

/// Reset this process's resident-set high-water mark to its current
/// resident set (`echo 5 > /proc/self/clear_refs`, Linux ≥ 4.0), so the
/// next [`peak_rss_mib`] reads the peak *since now*. Returns whether the
/// kernel allowed it; callers fall back to the process-wide mark.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from a live process; comm doctored to hold the awkward cases.
    const STAT: &str = "8174 (mgpu perf) x) R 8129 8174 8129 0 -1 4194304 82 0 0 0 \
        1234 56 7 8 20 0 3 0 229129 2703360 309 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    const STATUS: &str = "Name:\tmgpu-perf\nVmPeak:\t  212344 kB\nVmSize:\t  146808 kB\n\
        VmHWM:\t   48212 kB\nVmRSS:\t   31000 kB\nThreads:\t3\n";

    #[test]
    fn stat_cpu_is_utime_plus_stime_past_an_awkward_comm() {
        assert_eq!(parse_stat_cpu_seconds(STAT), Some(12.90));
    }

    #[test]
    fn stat_rejects_truncated_input() {
        assert_eq!(parse_stat_cpu_seconds("1 (x) R 2 3"), None);
        assert_eq!(parse_stat_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn status_finds_the_exact_key() {
        assert_eq!(parse_status_mib(STATUS, "VmHWM"), Some(48212.0 / 1024.0));
        assert_eq!(parse_status_mib(STATUS, "VmRSS"), Some(31000.0 / 1024.0));
        // "Vm" is a prefix of several keys but not a key.
        assert_eq!(parse_status_mib(STATUS, "Vm"), None);
        // Not a kB line.
        assert_eq!(parse_status_mib(STATUS, "Threads"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.5);
    }

    #[test]
    fn a_reset_mark_forgets_a_freed_spike() {
        if !reset_peak_rss() {
            return; // this kernel or sandbox keeps the mark read-only
        }
        let before = peak_rss_mib();
        let spike = vec![1u8; 64 << 20];
        std::hint::black_box(&spike);
        assert!(peak_rss_mib() > before + 32.0);
        drop(spike);
        assert!(reset_peak_rss());
        assert!(peak_rss_mib() < before + 32.0);
    }
}
