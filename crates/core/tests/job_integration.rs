//! End-to-end tests of the MapReduce runtime on a synthetic, non-rendering
//! job: a histogram over noisy measurements. Exercises paths the renderer
//! does not: combiners that actually combine, single-item chunks, more GPUs
//! than chunks, zero-emission chunks — and pins the order values reach a
//! reducer in.

use std::collections::BTreeMap;

use mgpu_cluster::{ClusterSpec, GpuId};
use mgpu_gpu::LaunchStats;
use mgpu_mapreduce::{
    build_trace, run_job, Assignment, Chunk, CostBook, FnCombiner, GpuMapper, JobConfig, MapOutput,
    Reducer, RoundRobin, TraceOptions, SENTINEL_KEY,
};
use mgpu_sim::{account, simulate};

/// A batch of raw measurements in [0, 64).
struct Samples {
    id: usize,
    values: Vec<u8>,
}

impl Chunk for Samples {
    fn id(&self) -> usize {
        self.id
    }
    fn device_bytes(&self) -> u64 {
        self.values.len() as u64
    }
    fn disk_bytes(&self) -> u64 {
        0
    }
}

/// Maps each measurement to (bucket, 1); odd slots emit sentinels to mimic
/// the every-thread-emits padding rule.
struct HistMapper;

impl GpuMapper<Samples> for HistMapper {
    type Value = u32;

    fn map_chunk(&self, _gpu: GpuId, chunk: &Samples) -> MapOutput<u32> {
        let mut pairs = Vec::with_capacity(chunk.values.len() * 2);
        for &v in &chunk.values {
            pairs.push((v as u32, 1u32));
            pairs.push((SENTINEL_KEY, 0)); // padding slot
        }
        MapOutput::from_pairs(
            pairs,
            LaunchStats {
                threads: (chunk.values.len() * 2) as u64,
                total_samples: chunk.values.len() as u64,
                simt_samples: (chunk.values.len() * 2) as u64,
                blocks: 1,
                warps: (chunk.values.len() as u64 * 2).div_ceil(32),
            },
        )
    }
}

struct CountReducer;

impl Reducer for CountReducer {
    type Value = u32;
    type Out = u64;
    fn reduce(&self, _key: u32, values: &mut Vec<u32>) -> u64 {
        values.iter().map(|&v| v as u64).sum()
    }
}

fn make_chunks(n_chunks: usize, per_chunk: usize) -> Vec<Samples> {
    let mut state = 0xDEADBEEFu64;
    (0..n_chunks)
        .map(|id| {
            let values = (0..per_chunk)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((state >> 33) % 64) as u8
                })
                .collect();
            Samples { id, values }
        })
        .collect()
}

fn reference_histogram(chunks: &[Samples]) -> Vec<u64> {
    let mut hist = vec![0u64; 64];
    for c in chunks {
        for &v in &c.values {
            hist[v as usize] += 1;
        }
    }
    hist
}

fn run(gpus: u32, chunks: &[Samples], combine: bool) -> mgpu_mapreduce::JobOutput<u64> {
    let spec = ClusterSpec::accelerator_cluster(gpus);
    let config = JobConfig::new(gpus, 64);
    let combiner = FnCombiner::new(|_k, vs: &mut Vec<u32>| {
        let s: u32 = vs.iter().sum();
        vs.clear();
        vs.push(s);
    });
    run_job(
        chunks,
        &HistMapper,
        &CountReducer,
        &RoundRobin,
        combine.then_some(&combiner as &dyn mgpu_mapreduce::Combiner<u32>),
        &spec,
        &config,
    )
}

#[test]
fn histogram_matches_reference_for_many_gpu_counts() {
    let chunks = make_chunks(12, 500);
    let expect = reference_histogram(&chunks);
    for gpus in [1u32, 2, 3, 5, 8, 16] {
        let out = run(gpus, &chunks, false);
        for (k, count) in out.iter() {
            assert_eq!(*count, expect[k as usize], "bucket {k} at {gpus} GPUs");
        }
        assert_eq!(out.len(), expect.iter().filter(|&&c| c > 0).count());
        assert!(out.stats.conserved());
        // Half the emissions were padding sentinels.
        assert_eq!(out.stats.sentinels, out.stats.kept);
    }
}

#[test]
fn combiner_preserves_results_and_cuts_traffic() {
    let chunks = make_chunks(8, 2000);
    let plain = run(4, &chunks, false);
    let combined = run(4, &chunks, true);
    assert_eq!(plain.keys, combined.keys);
    assert_eq!(plain.outs, combined.outs);
    assert!(combined.stats.combined_away > 0);
    assert!(combined.stats.wire_bytes_sent < plain.stats.wire_bytes_sent / 10);
}

#[test]
fn more_gpus_than_chunks_leaves_idle_mappers() {
    let chunks = make_chunks(3, 100);
    let out = run(8, &chunks, false);
    let expect = reference_histogram(&chunks);
    for (k, count) in out.iter() {
        assert_eq!(*count, expect[k as usize]);
    }
    // 5 mappers had nothing to do; their records must be empty, not absent.
    assert_eq!(out.record.mappers.len(), 8);
    let idle = out
        .record
        .mappers
        .iter()
        .filter(|m| m.chunks.is_empty())
        .count();
    assert_eq!(idle, 5);
}

#[test]
fn empty_job_produces_empty_output() {
    let chunks: Vec<Samples> = Vec::new();
    let out = run(4, &chunks, false);
    assert!(out.is_empty());
    assert_eq!(out.stats.emitted, 0);
    // The trace still replays cleanly (reducers sort/reduce nothing).
    let spec = ClusterSpec::accelerator_cluster(4);
    let book = CostBook::from_cluster(&spec);
    let tr = build_trace(&out.record, &spec, &book, &TraceOptions::default());
    let acc = account(&tr, &simulate(&tr));
    assert!(acc.makespan.as_secs_f64() < 0.01);
}

#[test]
fn chunk_with_only_sentinels_is_harmless() {
    struct NullMapper;
    impl GpuMapper<Samples> for NullMapper {
        type Value = u32;
        fn map_chunk(&self, _gpu: GpuId, chunk: &Samples) -> MapOutput<u32> {
            MapOutput::from_pairs(
                vec![(SENTINEL_KEY, 0); chunk.values.len()],
                LaunchStats::default(),
            )
        }
    }
    let chunks = make_chunks(4, 64);
    let spec = ClusterSpec::accelerator_cluster(2);
    let config = JobConfig::new(2, 64);
    let out = run_job(
        &chunks,
        &NullMapper,
        &CountReducer,
        &RoundRobin,
        None,
        &spec,
        &config,
    );
    assert!(out.is_empty());
    assert_eq!(out.stats.kept, 0);
    assert_eq!(out.stats.sentinels, 4 * 64);
}

#[test]
fn tiny_batches_create_many_sends_but_same_result() {
    let chunks = make_chunks(6, 1000);
    let expect = reference_histogram(&chunks);
    let spec = ClusterSpec::accelerator_cluster(4);
    let mut config = JobConfig::new(4, 64);
    config.batch_bytes = 1; // flush after every chunk
    let out = run_job(
        &chunks,
        &HistMapper,
        &CountReducer,
        &RoundRobin,
        None,
        &spec,
        &config,
    );
    for (k, count) in out.iter() {
        assert_eq!(*count, expect[k as usize]);
    }
    // At least one send per (chunk, reducer) with data.
    assert!(out.stats.batches >= 6);
}

#[test]
fn trace_replay_is_consistent_with_record() {
    let chunks = make_chunks(8, 512);
    let out = run(4, &chunks, false);
    let spec = ClusterSpec::accelerator_cluster(4);
    let book = CostBook::from_cluster(&spec);
    let tr = build_trace(&out.record, &spec, &book, &TraceOptions::default());
    let acc = account(&tr, &simulate(&tr));
    // Kernel busy time equals the per-chunk model sum.
    let expected_kernel: f64 = out
        .record
        .mappers
        .iter()
        .flat_map(|m| &m.chunks)
        .map(|c| book.device.kernel.time(&c.launch).as_secs_f64())
        .sum();
    assert!((acc.kernel_demand.as_secs_f64() - expected_kernel).abs() < 1e-9);
    // Every send in the record shows up as wire bytes in the accounting.
    let intra = acc.totals(mgpu_sim::Activity::LocalCopy).bytes;
    let inter = acc.totals(mgpu_sim::Activity::NetSend).bytes;
    let recorded: u64 = out
        .record
        .mappers
        .iter()
        .enumerate()
        .flat_map(|(m, mr)| {
            mr.sends
                .iter()
                .filter(move |s| s.reducer != m as u32)
                .map(|s| s.bytes)
        })
        .sum();
    assert_eq!(intra + inter, recorded);
}

/// Emits one pair per measurement, keyed by the measurement, whose value
/// names the chunk and the emission; every fourth slot is a sentinel.
struct TagMapper;

impl GpuMapper<Samples> for TagMapper {
    type Value = u32;

    fn map_chunk(&self, _gpu: GpuId, chunk: &Samples) -> MapOutput<u32> {
        let pairs = chunk
            .values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if i % 4 == 3 {
                    (SENTINEL_KEY, 0)
                } else {
                    (v as u32, (chunk.id << 16 | i) as u32)
                }
            })
            .collect();
        MapOutput::from_pairs(pairs, LaunchStats::default())
    }
}

/// Outputs exactly the values it received, in the order received.
struct Received;

impl Reducer for Received {
    type Value = u32;
    type Out = Vec<u32>;
    fn reduce(&self, _key: u32, values: &mut Vec<u32>) -> Vec<u32> {
        values.clone()
    }
}

/// What each key's reducer must receive, built serially: mappers 0..M, each
/// mapper's chunks in assignment order, each chunk's pairs in emission
/// order, sentinels dropped.
fn serial_order(chunks: &[Samples], gpus: u32, assignment: Assignment) -> BTreeMap<u32, Vec<u32>> {
    let mut order: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for m in 0..gpus {
        for i in assignment.chunks_for(m, chunks.len(), gpus) {
            let out = TagMapper.map_chunk(GpuId(m), &chunks[i]);
            for (key, &value) in out.iter().filter(|&(k, _)| k != SENTINEL_KEY) {
                order.entry(key).or_default().push(value);
            }
        }
    }
    order
}

#[test]
fn reducers_receive_values_in_mapper_then_flush_order() {
    let chunks = make_chunks(11, 300);
    for gpus in [1u32, 2, 3, 5] {
        for batch_bytes in [8, JobConfig::new(gpus, 64).batch_bytes] {
            for assignment in [Assignment::RoundRobin, Assignment::Blocked] {
                let mut config = JobConfig::new(gpus, 64);
                config.batch_bytes = batch_bytes;
                config.assignment = assignment;
                let out = run_job(
                    &chunks,
                    &TagMapper,
                    &Received,
                    &RoundRobin,
                    None,
                    &ClusterSpec::accelerator_cluster(gpus),
                    &config,
                );
                let want = serial_order(&chunks, gpus, assignment);
                let case = format!("{gpus} GPUs, batch_bytes {batch_bytes}, {assignment:?}");
                assert_eq!(out.keys, want.keys().copied().collect::<Vec<_>>(), "{case}");
                for (key, got) in out.iter() {
                    assert_eq!(got, &want[&key], "key {key}: {case}");
                }
                if batch_bytes == 8 {
                    assert!(out.stats.batches >= chunks.len() as u64, "{case}");
                }
            }
        }
    }
}

/// `run_job` must reject a malformed config up front with a descriptive
/// message, not fail somewhere downstream in the pipeline.
#[test]
#[should_panic(expected = "invalid JobConfig: batch_bytes must be > 0")]
fn run_job_rejects_zero_batch_bytes_at_entry() {
    let chunks = make_chunks(2, 10);
    let spec = ClusterSpec::accelerator_cluster(2);
    let mut config = JobConfig::new(2, 64);
    config.batch_bytes = 0;
    run_job(
        &chunks,
        &HistMapper,
        &CountReducer,
        &RoundRobin,
        None,
        &spec,
        &config,
    );
}

#[test]
#[should_panic(expected = "invalid JobConfig: gpus must be >= 1")]
fn run_job_rejects_zero_gpus_at_entry() {
    let chunks = make_chunks(2, 10);
    // The spec assertion would also fire, but config validation comes first.
    let spec = ClusterSpec::accelerator_cluster(1);
    let config = JobConfig::new(0, 64);
    run_job(
        &chunks,
        &HistMapper,
        &CountReducer,
        &RoundRobin,
        None,
        &spec,
        &config,
    );
}

/// `JobTimes` holds a slot per host task, each filled in order, by a role
/// that exists, and in the paper's stage order: every chunk's partition
/// ends before any reduce task starts, and every reduce task ends before
/// the merge.
#[test]
fn job_times_stamp_every_task_in_stage_order() {
    for gpus in [1u32, 3, 5] {
        let chunks = make_chunks(12, 300);
        let times = run(gpus, &chunks, false).times;
        let roles: Vec<u32> = (0..gpus)
            .flat_map(|m| {
                let mine = Assignment::default()
                    .chunks_for(m, chunks.len(), gpus)
                    .count();
                std::iter::repeat_n(m, mine)
            })
            .collect();
        assert_eq!(
            times
                .chunks
                .iter()
                .map(|&(_, role)| role)
                .collect::<Vec<_>>(),
            roles
        );
        assert_eq!(times.reduces.len(), gpus as usize);
        let in_order = |[a, b, c]: [u64; 3]| a <= b && b <= c;
        assert!(times.chunks.iter().all(|&(t, _)| in_order(t)));
        // A role maps its chunks one after another: in mapping order, each
        // chunk's partition ends before the role's next launch starts.
        for pair in times.chunks.windows(2) {
            let ((this, role), (next, next_role)) = (pair[0], pair[1]);
            if role == next_role {
                assert!(this[2] <= next[0], "{gpus} GPUs, role {role}");
            }
        }
        assert!(times
            .reduces
            .iter()
            .all(|&(t, role)| in_order(t) && role < 2 * gpus - 1));
        let mapped = times.chunks.iter().map(|(t, _)| t[2]).max().unwrap();
        let reduced = times.reduces.iter().map(|(t, _)| t[2]).max().unwrap();
        assert!(
            times.reduces.iter().all(|(t, _)| t[0] >= mapped),
            "{gpus} GPUs"
        );
        assert!(reduced <= times.merge[0] && times.merge[0] <= times.merge[1]);
    }
}
