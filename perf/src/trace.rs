//! The traced run: per-layer metrics from spans the harness records around
//! its own calls into each layer. End-to-end numbers never come from here.
//!
//! Sequence: set up once, warm-up lap, a short untraced window (the
//! reference for `harness.trace_overhead_pct` and the `client.*` tail),
//! one traced lap on the workload's own path, then the probes on the
//! workload's first session — a frame taken apart (`run_job` → DES replay →
//! `stitch`, checked bit-for-bit against `render_planned`), the kernel and
//! mapper alone, the brick store, the wire codec, the instruments — and the
//! backend ladder. Spans go to `perf/out/trace-<workload>.json`.

use std::time::Instant;

use mgpu_obs::Snapshot;

use crate::pace::Pace;
use crate::probes::ladder::{self, NetDelta, ServeDelta};
use crate::probes::{self, Target, PROBE_VIEWS};
use crate::rig::{out_dir, TempDir};
use crate::run::{metric, Bench, Check, Metric, Report};
use crate::span::{self_time_by_layer, write_json, Recorder};
use crate::stats::{median, quantile};
use crate::verify::bit_identical;
use crate::workload::{Path, Plan};

/// Every per-layer metric a traced run reports, in report order, with its
/// unit. `BENCHMARK.json` lists exactly these (a unit test compares).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gpu.launch_ms", "ms"),
    ("gpu.msamples_per_sec", "Msamples/s"),
    ("gpu.samples_per_frame", "count"),
    ("gpu.divergence_factor", "ratio"),
    ("gpu.blocks_per_frame", "count"),
    ("volren.map_ms", "ms"),
    ("volren.plan_prepare_ms", "ms"),
    ("volren.render_planned_ms", "ms"),
    ("volren.self_ms", "ms"),
    ("volren.stitch_ms", "ms"),
    ("core.run_job_ms", "ms"),
    ("core.plumbing_ms", "ms"),
    ("core.sort_ms", "ms"),
    ("core.fragments_emitted", "count"),
    ("core.fragments_kept", "count"),
    ("core.batches", "count"),
    ("core.wire_bytes", "bytes"),
    ("voldata.brick_get_miss_ms", "ms"),
    ("voldata.brick_get_hit_us", "us"),
    ("voldata.misses_per_frame", "count"),
    ("voldata.evictions_per_frame", "count"),
    ("voldata.mb_materialized_per_frame", "MiB"),
    ("sim.replay_ms", "ms"),
    ("sim.tasks_per_frame", "count"),
    ("serve.overhead_ms", "ms"),
    ("serve.shard_overhead_ms", "ms"),
    ("serve.batch_occupancy", "ratio"),
    ("serve.frame_cache_hit_rate", "ratio"),
    ("serve.plan_cache_hit_rate", "ratio"),
    ("serve.brick_stagings_per_frame", "count"),
    ("serve.admission_rejected", "count"),
    ("net.remote_overhead_ms", "ms"),
    ("net.pool_overhead_ms", "ms"),
    ("net.encode_frame_ms", "ms"),
    ("net.decode_frame_ms", "ms"),
    ("net.encode_request_us", "us"),
    ("net.decode_request_us", "us"),
    ("net.bytes_per_frame", "bytes"),
    ("net.loop_wakeups_per_frame", "count"),
    ("net.pool_reroutes", "count"),
    ("obs.hist_record_ns", "ns"),
    ("obs.counter_inc_ns", "ns"),
    ("client.frame_ms_p99", "ms"),
    ("client.frame_ms_max", "ms"),
    ("harness.lap_spread_pct", "%"),
    ("harness.spin_ms", "ms"),
    ("harness.trace_overhead_pct", "%"),
];

/// The layers spans are filed under, with the diagnostic each one's share of
/// traced self time is printed as.
const SELF_TIME: &[(&str, &str)] = &[
    ("gpu", "self_time.gpu"),
    ("volren", "self_time.volren"),
    ("core", "self_time.core"),
    ("voldata", "self_time.voldata"),
    ("sim", "self_time.sim"),
    ("serve", "self_time.serve"),
    ("net", "self_time.net"),
    ("harness", "self_time.harness"),
];

/// Values by name, emitted in [`PER_LAYER`] order; a name that is not
/// declared, or a declared one never set, is a harness bug.
struct Table(Vec<Metric>);

impl Table {
    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        assert!(slot.value.is_nan(), "{name} set twice");
        slot.value = value;
    }

    fn finish(self) -> Vec<Metric> {
        for m in &self.0 {
            assert!(!m.value.is_nan(), "{} was never measured", m.name);
        }
        self.0
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn pool_reroutes(snapshot: &Snapshot) -> u64 {
    snapshot.counter("pool.drain.rerouted").unwrap_or(0)
}

/// Median duration (ms) of the spans with this name.
fn med(rec: &Recorder, name: &str) -> f64 {
    median(&rec.durations_ms(name))
}

/// Every k-th of `items` so that at most `cap` remain, spread end to end.
fn spread<T: Clone>(items: &[T], cap: usize) -> Vec<T> {
    let step = items.len().div_ceil(cap).max(1);
    items.iter().step_by(step).cloned().collect()
}

/// The traced run of one workload.
pub fn run(plan: &Plan, seconds: f64, process_start: Instant) -> Report {
    let tmp = TempDir::create().expect("create the per-process scratch directory");
    let (mut bench, _) = Bench::setup(plan, &tmp, 1, process_start, &mut Pace::default());
    bench.lap(Check::Full);
    let mut table = Table(
        PER_LAYER
            .iter()
            .map(|&(name, unit)| metric(name, f64::NAN, unit))
            .collect(),
    );
    let reroutes_before = pool_reroutes(&mgpu_obs::global().snapshot());

    // The untraced reference: a third of the budget, at least one lap.
    let mut pace = Pace::default();
    let window = bench.window(seconds / 3.0, &mut pace);
    let frame_ms = window.frame_ms();
    table.set("client.frame_ms_p99", quantile(&frame_ms, 0.99));
    table.set("client.frame_ms_max", quantile(&frame_ms, 1.0));
    table.set("harness.lap_spread_pct", window.lap_spread_pct());
    table.set("harness.spin_ms", pace.reference_ms());

    // One traced lap on the workload's own path: a span per request.
    let mut rec = Recorder::new();
    let serve_before = mgpu_obs::global().snapshot();
    let net_before = bench.rig.net_snapshot();
    let layer = match plan.path {
        Path::Direct => "volren",
        Path::Pool { .. } | Path::Remote => "net",
    };
    let mut frame = 0;
    let traced = bench.lap_with(Check::Probe, &mut |(_, _, latency)| {
        rec.closed("workload.frame", layer, frame, *latency);
        frame += 1;
    });
    let net_after = bench.rig.net_snapshot();
    let served = ServeDelta::between(&serve_before, &mgpu_obs::global().snapshot());
    table.set(
        "harness.trace_overhead_pct",
        100.0 * (traced.seconds / window.median_lap_seconds() - 1.0),
    );

    // The probe target: session 0 as the workload itself renders it.
    let session = &plan.sessions[0];
    let first_slot = plan
        .order
        .iter()
        .find(|s| s.session == 0)
        .expect("session 0 is visited");
    let request = bench.rig.request(*first_slot).clone();
    for _ in 0..3 {
        probes::volren::prepare(&mut rec, &plan.spec, &request.volume, &session.config);
    }
    let frame_plan =
        probes::volren::prepare(&mut rec, &plan.spec, &request.volume, &session.config);
    table.set(
        "volren.plan_prepare_ms",
        median(&rec.durations_ms("FramePlan::prepare")),
    );
    let scenes = spread(&session.scenes, PROBE_VIEWS);
    let target = Target::new(
        plan.spec.clone(),
        request.volume.clone(),
        session.config.clone(),
        scenes,
        frame_plan,
    );
    // Warm the plan's own store the way the workload's warm-up lap does.
    probes::volren::render_frame(&mut Recorder::new(), 0, &target, &target.scenes[0]);

    let views = target.scenes.len() as f64;
    let mut launch = mgpu_gpu::LaunchStats::default();
    let mut job_stats = mgpu_mapreduce::JobStats::default();
    let (mut launch_ms, mut map_ms) = (Vec::new(), Vec::new());
    let (mut store, mut tasks) = (mgpu_voldata::StoreSnapshot::default(), 0usize);
    for (f, scene) in target.scenes.iter().enumerate() {
        let f = f as u64;
        let spans_before = rec.spans().len();
        let reference = probes::volren::render_frame(&mut rec, f, &target, scene);
        store.misses += reference.report.store.misses;
        store.evictions += reference.report.store.evictions;
        store.bytes_materialized += reference.report.store.bytes_materialized;

        launch.merge(&probes::gpu::launch_frame(&mut rec, f, &target, scene));
        let outputs = probes::volren::map_frame(&mut rec, f, &target, scene);
        let sum_ms = |name: &str| -> f64 {
            rec.spans()[spans_before..]
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64 / 1e6)
                .sum()
        };
        launch_ms.push(sum_ms("launch_blocks"));
        map_ms.push(sum_ms("map_chunk"));

        // The frame, taken apart: map+shuffle+sort+reduce → replay → stitch.
        let (job, image) = rec.span("frame.disassembled", "harness", f, |rec| {
            let job = probes::mapreduce::run_frame(rec, f, &target, scene);
            tasks += probes::sim::replay(rec, f, &target, &job.record).1;
            let image = probes::volren::stitch_frame(rec, f, &target, scene, &job);
            (job, image)
        });
        job_stats.emitted += job.stats.emitted;
        job_stats.kept += job.stats.kept;
        job_stats.batches += job.stats.batches;
        job_stats.wire_bytes_sent += job.stats.wire_bytes_sent;
        bench.tally.attempted += 1;
        if !bit_identical(&image, &reference.image) {
            bench.tally.fail(format!(
                "view {f}: the disassembled frame differs from render_planned — trace invalid"
            ));
        }
        // The replayed job must be the same job, or `plumbing_ms` times
        // something else.
        let replayed = probes::mapreduce::plumbing(&mut rec, f, &target, scene, &outputs);
        bench.tally.attempted += 1;
        if replayed.stats != job.stats || replayed.keys != job.keys {
            bench.tally.fail(format!(
                "view {f}: the replayed job differs from the real one"
            ));
        }
        probes::mapreduce::sort(&mut rec, f, &target, &outputs);
        bench.tally.attempted += 1;
        if !probes::wire::codec(&mut rec, f, &image, &request) {
            bench
                .tally
                .fail(format!("view {f}: the wire codec did not round-trip"));
        }
    }

    let total_launch_s: f64 = launch_ms.iter().sum::<f64>() / 1e3;
    table.set("gpu.launch_ms", median(&launch_ms));
    table.set(
        "gpu.msamples_per_sec",
        launch.total_samples as f64 / 1e6 / total_launch_s,
    );
    table.set("gpu.samples_per_frame", launch.total_samples as f64 / views);
    table.set("gpu.divergence_factor", launch.divergence_factor());
    table.set("gpu.blocks_per_frame", launch.blocks as f64 / views);
    table.set("volren.map_ms", median(&map_ms));
    table.set("volren.render_planned_ms", med(&rec, "render_planned"));
    table.set(
        "volren.self_ms",
        med(&rec, "render_planned") - med(&rec, "run_job"),
    );
    table.set("volren.stitch_ms", med(&rec, "stitch"));
    table.set("core.run_job_ms", med(&rec, "run_job"));
    table.set("core.plumbing_ms", med(&rec, "run_job.replayed"));
    table.set("core.sort_ms", med(&rec, "counting_sort_groups"));
    table.set("core.fragments_emitted", job_stats.emitted as f64 / views);
    table.set("core.fragments_kept", job_stats.kept as f64 / views);
    table.set("core.batches", job_stats.batches as f64 / views);
    table.set("core.wire_bytes", job_stats.wire_bytes_sent as f64 / views);
    table.set("sim.replay_ms", med(&rec, "des_replay"));
    table.set("sim.tasks_per_frame", tasks as f64 / views);
    table.set("voldata.misses_per_frame", store.misses as f64 / views);
    table.set(
        "voldata.evictions_per_frame",
        store.evictions as f64 / views,
    );
    table.set(
        "voldata.mb_materialized_per_frame",
        store.bytes_materialized as f64 / views / (1 << 20) as f64,
    );
    table.set("net.encode_frame_ms", med(&rec, "encode_frame"));
    table.set("net.decode_frame_ms", med(&rec, "decode_frame"));
    let per_request_us = 1e3 / probes::wire::REQUEST_REPS as f64;
    table.set(
        "net.encode_request_us",
        med(&rec, "encode_request.x64") * per_request_us,
    );
    table.set(
        "net.decode_request_us",
        med(&rec, "decode_request.x64") * per_request_us,
    );

    probes::voldata::cycle(&mut rec, &target);
    table.set(
        "voldata.brick_get_miss_ms",
        med(&rec, "BrickStore::get.miss"),
    );
    table.set(
        "voldata.brick_get_hit_us",
        med(&rec, "BrickStore::get.hit") * 1e3,
    );

    let (record_ns, inc_ns) = probes::obs::instruments();
    table.set("obs.hist_record_ns", record_ns);
    table.set("obs.counter_inc_ns", inc_ns);

    // The ladder: the target's views on a portable, in-core stand-in (the
    // workload's own volume and config wherever those already are both).
    let mut ladder_config = session.config.clone();
    if plan.out_of_core {
        let in_core = mgpu_volren::RenderConfig::default();
        ladder_config.residency = mgpu_volren::Residency::HostResident;
        ladder_config.host_cache_bytes = in_core.host_cache_bytes;
    }
    let rungs = ladder::walk(
        &mut rec,
        &ladder::Scenes {
            spec: plan.spec.clone(),
            volume: session.procedural(),
            config: ladder_config,
            scenes: target.scenes.clone(),
        },
    );
    bench.tally.attempted += 1;
    if !rungs.ok {
        bench
            .tally
            .fail("a ladder rung failed to deliver a rendered frame".into());
    }
    table.set("serve.overhead_ms", rungs.service_over_direct_ms);
    table.set("serve.shard_overhead_ms", rungs.sharded_over_service_ms);
    table.set("net.remote_overhead_ms", rungs.remote_over_sharded_ms);
    table.set("net.pool_overhead_ms", rungs.pool_over_remote_ms);

    // Service and wire counters: from the workload's own traced lap when it
    // is served, from the ladder's rungs when it is not.
    let (serve, net, net_frames) = match (net_before, net_after) {
        (Some(before), Some(after)) => {
            (served, NetDelta::between(&before, &after), plan.order.len())
        }
        _ => (rungs.serve, rungs.net, rungs.remote_frames),
    };
    table.set(
        "serve.batch_occupancy",
        ratio(serve.batched_frames, serve.batches),
    );
    table.set(
        "serve.frame_cache_hit_rate",
        ratio(
            serve.frame_cache_hits,
            serve.frame_cache_hits + serve.frame_cache_misses,
        ),
    );
    table.set(
        "serve.plan_cache_hit_rate",
        ratio(
            serve.plan_cache_hits,
            serve.plan_cache_hits + serve.plan_cache_misses,
        ),
    );
    table.set(
        "serve.brick_stagings_per_frame",
        ratio(serve.brick_stagings, serve.frames),
    );
    table.set("serve.admission_rejected", serve.admission_rejected as f64);
    table.set("net.bytes_per_frame", net.bytes as f64 / net_frames as f64);
    table.set(
        "net.loop_wakeups_per_frame",
        net.loop_wakeups as f64 / net_frames as f64,
    );
    table.set(
        "net.pool_reroutes",
        (pool_reroutes(&mgpu_obs::global().snapshot()) - reroutes_before) as f64,
    );

    let Bench { rig, tally, .. } = bench;
    rig.teardown();

    let path = out_dir().join(format!("trace-{}.json", plan.workload.name()));
    write_json(&path, plan.workload.name(), plan.seed, rec.spans()).expect("write the span file");
    // Where the traced run itself spent its time, layer by layer.
    let by_layer = self_time_by_layer(rec.spans());
    let total: u64 = by_layer.values().sum();
    let diagnostics = SELF_TIME
        .iter()
        .map(|&(layer, name)| {
            let own = by_layer.get(layer).copied().unwrap_or(0);
            metric(name, 100.0 * own as f64 / total as f64, "%")
        })
        .collect();
    Report {
        metrics: table.finish(),
        diagnostics,
        tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert!(names.len() <= 128);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn table_rejects_undeclared_and_unset_metrics() {
        let fresh = || Table(vec![metric("gpu.launch_ms", f64::NAN, "ms")]);
        let mut t = fresh();
        t.set("gpu.launch_ms", 1.5);
        assert_eq!(t.finish()[0].value, 1.5);
        assert!(std::panic::catch_unwind(|| fresh().finish()).is_err());
        assert!(std::panic::catch_unwind(|| fresh().set("gpu.nope", 1.0)).is_err());
    }

    #[test]
    fn spread_caps_and_spans_the_range() {
        let items: Vec<u32> = (0..36).collect();
        assert_eq!(
            spread(&items, 12),
            [0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33]
        );
        assert_eq!(spread(&items[..5], 12), [0, 1, 2, 3, 4]);
        assert_eq!(spread(&items[..16], 12).len(), 8);
    }
}
