//! Layer `obs`: what one instrument update costs — the unit price behind
//! every counter bump and histogram record on a frame's path.

use std::time::Instant;

use mgpu_obs::Registry;

const UPDATES: u64 = 1_000_000;

/// `(ns per Histogram::record, ns per Counter::inc)` over 10⁶ updates each,
/// on a private registry (the product's metrics are not touched).
pub fn instruments() -> (f64, f64) {
    let registry = Registry::new();
    let histogram = registry.histogram("perf.probe_ns");
    let counter = registry.counter("perf.probe");

    let started = Instant::now();
    for i in 0..UPDATES {
        histogram.record(std::hint::black_box(i));
    }
    let record_ns = started.elapsed().as_nanos() as f64 / UPDATES as f64;

    let started = Instant::now();
    for _ in 0..UPDATES {
        std::hint::black_box(&counter).inc();
    }
    let inc_ns = started.elapsed().as_nanos() as f64 / UPDATES as f64;

    assert_eq!((histogram.count(), counter.get()), (UPDATES, UPDATES));
    (record_ns, inc_ns)
}
