//! The MapReduce runtime: real threads, real data.
//!
//! One mapper role per (simulated) GPU, and one reduce task per GPU process
//! once the map phase is over — the paper's order: a reduce starts "once all
//! Mappers have finished and all data has been routed to the proper
//! Reducer". A mapper partitions what each chunk emits into per-reducer
//! buffers and flushes a buffer as a batch once it holds `batch_bytes` (the
//! paper's "once enough pairs have been generated by a Mapper, they are
//! sent asynchronously to the Reducer"); the batches stay with the mapper
//! that flushed them until the reduce. The host does not stream them — the
//! DES does: [`crate::trace_build`] replays every flush from the
//! [`JobRecord`] as a send overlapping the rest of the map phase.
//!
//! As in the paper's library the threads outlive the job: the roles run on
//! [`mgpu_gpu::exec`]'s parked threads, reused from one job to the next, and
//! the caller itself is mapper 0. The mapper role that returns last runs the
//! reduce tasks on its own thread, which is already on a core, beside R − 1
//! helpers it spawns; each claims tasks from one queue until none is left.
//! A job spawns nothing once the cache holds what one of its size has at
//! work at once: at most M − 1 mappers and R − 1 helpers.
//!
//! A mapper that has mapped its last chunk and flushed lends its core to the
//! job ([`mgpu_gpu::exec::Lender`]): the block launches of the mappers still
//! at work borrow it for helpers that run some of their blocks. Only which
//! host thread runs a block changes — every block writes its own slices, so
//! outputs and the [`JobRecord`] are the same. The core-time lends sat
//! unused before the map phase ended is added to `core.map_idle_total_ns`
//! once per job; the reduce runs after the map phase, so it adds nothing.
//!
//! Determinism: chunks are assigned by [`JobConfig::assignment`] and reduce
//! task `r` concatenates mapper 0's batches for `r`, then mapper 1's, and so
//! on, each mapper's in flush order, so results and the recorded
//! [`JobRecord`] are bit-identical across runs regardless of thread timing.
//! Beside the record, a job returns when each host task ran ([`JobTimes`]):
//! wall-clock offsets, different on every run, that the record leaves out.

use mgpu_cluster::{route, ClusterSpec, GpuId, Route};
use mgpu_gpu::exec::Lender;
use mgpu_obs::{names, Counter};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::assign::Assignment;

use crate::record::{ChunkRecord, JobRecord, JobStats, MapperRecord, ReducerRecord, SendRecord};
use crate::sort::counting_sort_groups;
use crate::traits::{Chunk, Combiner, GpuMapper, Reducer};
use crate::types::{pair_wire_bytes, Key, WireValue, SENTINEL_KEY};

/// Job-level configuration.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// GPUs = mapper roles = reduce tasks.
    pub gpus: u32,
    /// Dense key space `[0, key_space)` (image pixels for the renderer).
    pub key_space: u32,
    /// Flush threshold: a per-reducer buffer is sent once it holds at least
    /// this many wire bytes (the paper's "once enough pairs have been
    /// generated").
    pub batch_bytes: usize,
    /// Chunk→mapper assignment policy.
    pub assignment: Assignment,
}

impl JobConfig {
    pub fn new(gpus: u32, key_space: u32) -> JobConfig {
        JobConfig {
            gpus,
            key_space,
            batch_bytes: 16 << 10,
            assignment: Assignment::default(),
        }
    }

    /// Check the invariants [`run_job`] relies on; `Err` carries a
    /// human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.gpus == 0 {
            return Err(
                "gpus must be >= 1: each GPU provides one mapper thread and one reducer process"
                    .into(),
            );
        }
        if self.batch_bytes == 0 {
            return Err(
                "batch_bytes must be > 0: a zero flush threshold would send \
                 one degenerate batch per emitted pair"
                    .into(),
            );
        }
        Ok(())
    }
}

/// The result of a run: reduced groups plus the record/stats pair.
///
/// Groups are structure-of-arrays: `keys[i]`'s reduced output is `outs[i]`,
/// ascending by key. Consumers that want tuples iterate [`JobOutput::iter`];
/// bulk consumers (image stitching) take the columns whole.
#[derive(Debug)]
pub struct JobOutput<O> {
    /// Reduced group keys, ascending.
    pub keys: Vec<Key>,
    /// The reduced output for `keys[i]`, at the same index.
    pub outs: Vec<O>,
    /// Deterministic account for the DES replay.
    pub record: JobRecord,
    /// Functional counters (conservation checks, reports).
    pub stats: JobStats,
    /// When each host task ran (not deterministic; not in `record`).
    pub times: JobTimes,
}

/// When each of a job's host tasks ran, in ns after [`JobTimes::start`], and
/// which role ran it: mapper role `m` is `m`, and the reduce helper that
/// role `m` spawned `h`-th (`h` from 1) is `gpus + h − 1`. Each task fills
/// its own preallocated slot; stamping takes no lock.
#[derive(Debug, Clone)]
pub struct JobTimes {
    /// When the job began.
    pub start: Instant,
    /// Per chunk, mapper 0's in the order it mapped them, then mapper 1's,
    /// and so on: `[launch start, launch end = partition start, partition
    /// end]` (partition includes the flushes after the chunk, and the last
    /// chunk's the final drain) and the role.
    pub chunks: Vec<([u64; 3], u32)>,
    /// Per reduce task, in reducer order: `[sort start, sort end = reduce
    /// start, reduce end]` and the role.
    pub reduces: Vec<([u64; 3], u32)>,
    /// The k-way merge's `[start, end]`, on the caller's thread (role 0).
    pub merge: [u64; 2],
}

impl JobTimes {
    /// The instant `ns` after the job began.
    pub fn at(&self, ns: u64) -> Instant {
        self.start + std::time::Duration::from_nanos(ns)
    }

    /// The job's span in ns: from its start to the last stamp, the merge's
    /// end.
    pub fn span_ns(&self) -> u64 {
        self.intervals().map(|[_, end]| end).max().unwrap_or(0)
    }

    /// The ns of the job's span that no task covers: the span less the
    /// union of every chunk's `[launch start, partition end]`, every reduce
    /// task's `[sort start, reduce end]` and the merge — thread start-up,
    /// hand-offs and joins, which no stage span shows.
    pub fn unattributed_ns(&self) -> u64 {
        let mut intervals: Vec<[u64; 2]> = self.intervals().collect();
        intervals.sort_unstable();
        let (mut covered, mut reach) = (0, 0);
        for [begin, end] in intervals {
            let begin = begin.max(reach);
            if end > begin {
                covered += end - begin;
                reach = end;
            }
        }
        self.span_ns() - covered
    }

    /// Every task's interval, and the merge's.
    fn intervals(&self) -> impl Iterator<Item = [u64; 2]> + '_ {
        let tasks = self.chunks.iter().chain(&self.reduces);
        tasks
            .map(|([begin, _, end], _)| [*begin, *end])
            .chain([self.merge])
    }
}

/// Nanoseconds from `start` to now.
fn since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

impl<O> JobOutput<O> {
    /// Number of reduced groups.
    pub fn len(&self) -> usize {
        debug_assert_eq!(self.keys.len(), self.outs.len());
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterate reduced groups as `(key, &out)`, ascending by key.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &O)> {
        self.keys.iter().copied().zip(self.outs.iter())
    }
}

/// One flushed batch: parallel key and value columns.
type Batch<V> = (Vec<Key>, Vec<V>);

/// One reducer's accounting record with its emitted keys and outputs (SoA).
type ReducerResult<Out> = (ReducerRecord, Vec<Key>, Vec<Out>);

/// Nothing panics while holding one of the job's locks.
const POISON: &str = "job lock poisoned";

/// `core.map_idle_total_ns`, registered once in the global registry.
fn map_idle() -> &'static Counter {
    static MAP_IDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    MAP_IDLE.get_or_init(|| mgpu_obs::global().counter(names::CORE_MAP_IDLE_TOTAL_NS))
}

/// Run a MapReduce job over `chunks`.
///
/// `spec` is used only to classify batch routes for the statistics (the
/// trace builder re-derives timing from the record); the functional result
/// is identical for any topology.
pub fn run_job<C, M, R, P>(
    chunks: &[C],
    mapper: &M,
    reducer: &R,
    partitioner: &P,
    combiner: Option<&dyn Combiner<M::Value>>,
    spec: &ClusterSpec,
    config: &JobConfig,
) -> JobOutput<R::Out>
where
    C: Chunk,
    M: GpuMapper<C>,
    R: Reducer<Value = M::Value>,
    P: crate::partition::Partitioner + ?Sized,
{
    if let Err(why) = config.validate() {
        panic!("invalid JobConfig: {why}");
    }
    let m_count = config.gpus as usize;
    let r_count = config.gpus as usize;
    assert_eq!(
        spec.gpus as usize, m_count,
        "cluster spec GPU count must match job config"
    );
    let start = Instant::now();
    // A time slot per host task: each mapper gets the slice of its chunks'
    // slots, and each reduce task claims its own with the task.
    let mut chunk_times = vec![([0; 3], 0); chunks.len()];
    let mut reduce_times = vec![([0; 3], 0); r_count];
    let mut mapper_times = Vec::with_capacity(m_count);
    let mut rest = chunk_times.as_mut_slice();
    for m in 0..config.gpus {
        let mine = config
            .assignment
            .chunks_for(m, chunks.len(), config.gpus)
            .count();
        let (slots, after) = rest.split_at_mut(mine);
        mapper_times.push(slots);
        rest = after;
    }

    // Mapper `m`'s batches for reducer `r`, in flush order, at
    // `r * m_count + m`: published when the mapper role returns.
    let flushed: Vec<Mutex<Vec<Batch<M::Value>>>> =
        (0..r_count * m_count).map(|_| Mutex::default()).collect();
    let mut mapper_records = vec![MapperRecord::default(); m_count];
    let mut reducer_results: Vec<ReducerResult<R::Out>> = Vec::new();
    reducer_results.resize_with(r_count, Default::default);
    // The reduce tasks, claimed in order as `launch_blocks` claims blocks:
    // task `r` is the mappers' batches for `r` and the slots of its result
    // and its times.
    let tasks = Mutex::new(
        flushed
            .chunks(m_count)
            .zip(&mut reducer_results)
            .zip(&mut reduce_times),
    );
    let reduce = |role: u32| loop {
        let Some(((mine, result), time)) = tasks.lock().expect(POISON).next() else {
            break;
        };
        let begun = since(start);
        let mut batches = Vec::new();
        for slot in mine {
            batches.append(&mut slot.lock().expect(POISON));
        }
        let (out, sorted) = run_reducer(batches, reducer, config.key_space, start);
        *result = out;
        *time = ([begun, sorted, since(start)], role);
    };
    let lender = Lender::new(m_count);
    mgpu_gpu::exec::scope(|scope| {
        let reduce = &reduce;
        let map = |m: usize, times: &mut [([u64; 3], u32)]| {
            let (record, batches) = run_mapper(
                m as u32,
                chunks,
                mapper,
                partitioner,
                combiner,
                config,
                (start, times),
            );
            for (r, batches) in batches.into_iter().enumerate() {
                *flushed[r * m_count + m].lock().expect(POISON) = batches;
            }
            record
        };
        // Run by the mapper role that returns last, after the map phase: it
        // reduces on its own thread, already on a core, beside R − 1 helpers.
        // A helper that wakes after every task is claimed returns at once.
        let last = move |m: usize| {
            for h in 1..r_count {
                scope.spawn(move || reduce((m_count + h - 1) as u32));
            }
            reduce(m as u32);
        };
        let (own, others) = mapper_records
            .split_first_mut()
            .expect("validated: gpus >= 1");
        let mut mapper_times = mapper_times.into_iter();
        let own_times = mapper_times.next().expect("validated: gpus >= 1");
        for ((m, record), times) in others.iter_mut().enumerate().zip(mapper_times) {
            scope.spawn_mapper(
                &lender,
                move || *record = map(m + 1, times),
                move || last(m + 1),
            );
        }
        *own = lender.run_mapper(|| map(0, own_times), || last(0));
    });
    map_idle().add(lender.idle_ns());
    let merge_start = since(start);

    // Assemble record, stats and merged output.
    let mut record = JobRecord::default();
    let mut stats = JobStats::default();

    for mr in &mapper_records {
        for c in &mr.chunks {
            stats.chunks += 1;
            stats.emitted += c.emitted;
            stats.kept += c.kept;
            stats.sentinels += c.emitted - c.kept;
        }
        for s in &mr.sends {
            stats.batches += 1;
            stats.wire_bytes_sent += s.bytes;
        }
    }
    // Combined-away = kept − what reducers actually received.
    let received: u64 = reducer_results.iter().map(|(r, _, _)| r.items).sum();
    stats.combined_away = stats.kept - received;
    stats.reduced_items = received;

    // Route classification for the batch statistics.
    for (m, mr) in mapper_records.iter().enumerate() {
        for s in &mr.sends {
            match route(spec, GpuId(m as u32), GpuId(s.reducer)) {
                Route::SameProcess => stats.batches_same_process += 1,
                Route::IntraNode => stats.batches_intra_node += 1,
                Route::InterNode => stats.batches_inter_node += 1,
            }
        }
    }

    record.mappers = mapper_records;
    let mut parts: Vec<(Vec<Key>, std::vec::IntoIter<R::Out>)> =
        Vec::with_capacity(reducer_results.len());
    let mut total = 0usize;
    for (rr, part_keys, part_outs) in reducer_results {
        stats.reduced_groups += rr.groups;
        record.reducers.push(rr);
        total += part_keys.len();
        parts.push((part_keys, part_outs.into_iter()));
    }
    // K-way merge of the per-reducer columns: each part is ascending by key
    // and the partitioner gives every key to exactly one reducer, so picking
    // the smallest head key each step yields the globally ascending order.
    let mut keys = Vec::with_capacity(total);
    let mut outs = Vec::with_capacity(total);
    let mut cursors = vec![0usize; parts.len()];
    for _ in 0..total {
        let mut best: Option<(usize, Key)> = None;
        for (p, (part_keys, _)) in parts.iter().enumerate() {
            if let Some(&k) = part_keys.get(cursors[p]) {
                if best.map(|(_, bk)| k < bk).unwrap_or(true) {
                    best = Some((p, k));
                }
            }
        }
        let (p, k) = best.expect("merge ran out of heads before total");
        keys.push(k);
        outs.push(parts[p].1.next().expect("keys/outs columns diverged"));
        cursors[p] += 1;
    }

    JobOutput {
        keys,
        outs,
        record,
        stats,
        times: JobTimes {
            start,
            chunks: chunk_times,
            reduces: reduce_times,
            merge: [merge_start, since(start)],
        },
    }
}

fn run_mapper<C, M, P>(
    m: u32,
    chunks: &[C],
    mapper: &M,
    partitioner: &P,
    combiner: Option<&dyn Combiner<M::Value>>,
    config: &JobConfig,
    (start, times): (Instant, &mut [([u64; 3], u32)]),
) -> (MapperRecord, Vec<Vec<Batch<M::Value>>>)
where
    C: Chunk,
    M: GpuMapper<C>,
    P: crate::partition::Partitioner + ?Sized,
{
    let gpu = GpuId(m);
    let reducers = config.gpus;
    let wire = pair_wire_bytes::<M::Value>();
    let mut rec = MapperRecord {
        init_bytes: mapper.init(gpu),
        ..Default::default()
    };

    // Per-reducer SoA buffers, and the batches flushed from each.
    let mut buffers: Vec<Batch<M::Value>> = vec![(Vec::new(), Vec::new()); reducers as usize];
    let mut flushed: Vec<Vec<Batch<M::Value>>> = Vec::new();
    flushed.resize_with(reducers as usize, Vec::new);
    let mut counts = vec![0usize; reducers as usize];

    let mut flush = |r: usize,
                     after_chunk: usize,
                     buffers: &mut Vec<Batch<M::Value>>,
                     rec: &mut MapperRecord| {
        if buffers[r].0.is_empty() {
            return;
        }
        let (mut keys, mut values) = std::mem::take(&mut buffers[r]);
        if let Some(c) = combiner {
            apply_combiner(c, &mut keys, &mut values, config.key_space);
        }
        let items = keys.len() as u64;
        rec.sends.push(SendRecord {
            reducer: r as u32,
            items,
            bytes: items * wire as u64,
            after_chunk,
        });
        flushed[r].push((keys, values));
    };

    let mine = config
        .assignment
        .chunks_for(m, chunks.len(), config.gpus)
        .map(|i| &chunks[i]);
    let mut last = 0;
    for (ci, chunk) in mine.enumerate() {
        last = ci;
        let begun = since(start);
        let out = mapper.map_chunk(gpu, chunk);
        let launched = since(start);
        let emitted = out.len() as u64;
        // Two passes, so each buffer grows once per chunk, to what it needs.
        counts.fill(0);
        for &k in out.keys.iter().filter(|&&k| k != SENTINEL_KEY) {
            debug_assert!(k < config.key_space, "emitted key outside key space");
            counts[partitioner.reducer_of(k, reducers) as usize] += 1;
        }
        for ((keys, values), &n) in buffers.iter_mut().zip(&counts) {
            keys.reserve(n);
            values.reserve(n);
        }
        for (k, v) in out.keys.into_iter().zip(out.values) {
            if k != SENTINEL_KEY {
                let r = partitioner.reducer_of(k, reducers) as usize;
                buffers[r].0.push(k);
                buffers[r].1.push(v);
            }
        }
        rec.chunks.push(ChunkRecord {
            chunk_id: chunk.id(),
            disk_bytes: chunk.disk_bytes(),
            device_bytes: chunk.device_bytes(),
            launch: out.stats,
            emitted,
            kept: counts.iter().sum::<usize>() as u64,
            emission_bytes: emitted * wire as u64,
        });
        // Flush buffers that crossed the threshold.
        for r in 0..reducers as usize {
            if buffers[r].0.len() * wire >= config.batch_bytes {
                flush(r, ci, &mut buffers, &mut rec);
            }
        }
        times[ci] = ([begun, launched, since(start)], m);
    }

    // Final drain after the last chunk, in that chunk's partition span.
    for r in 0..reducers as usize {
        flush(r, last, &mut buffers, &mut rec);
    }
    if let Some((span, _)) = times.get_mut(last) {
        span[2] = since(start);
    }
    (rec, flushed)
}

fn apply_combiner<V: WireValue>(
    combiner: &dyn Combiner<V>,
    keys: &mut Vec<Key>,
    values: &mut Vec<V>,
    key_space: u32,
) {
    let groups = counting_sort_groups(keys, values, key_space);
    keys.clear();
    values.clear();
    let mut scratch: Vec<V> = Vec::new();
    for (key, vals) in groups.iter() {
        scratch.clear();
        scratch.extend_from_slice(vals);
        combiner.combine(key, &mut scratch);
        for v in &scratch {
            keys.push(key);
            values.push(*v);
        }
    }
}

/// Reduce task `r`: `batches` are every mapper's batches for `r`, mapper 0's
/// first, each mapper's in flush order — the order the values reach
/// [`Reducer::reduce`] in. Also returns when, after `start`, its sort ended.
fn run_reducer<R: Reducer>(
    batches: Vec<Batch<R::Value>>,
    reducer: &R,
    key_space: u32,
    start: Instant,
) -> (ReducerResult<R::Out>, u64) {
    let wire = pair_wire_bytes::<R::Value>() as u64;
    // The first batch's columns become the sort input; the rest append.
    let mut batches = batches.into_iter();
    let (mut keys, mut values) = batches.next().unwrap_or_default();
    let rest: usize = batches.as_slice().iter().map(|b| b.0.len()).sum();
    keys.reserve(rest);
    values.reserve(rest);
    for (more_keys, more_values) in batches {
        keys.extend_from_slice(&more_keys);
        values.extend_from_slice(&more_values);
    }
    let items = keys.len() as u64;

    let groups = counting_sort_groups(&keys, &values, key_space);
    let sorted = since(start);
    let mut out_keys = Vec::with_capacity(groups.num_groups());
    let mut outs = Vec::with_capacity(groups.num_groups());
    let mut scratch: Vec<R::Value> = Vec::new();
    for (key, vals) in groups.iter() {
        scratch.clear();
        scratch.extend_from_slice(vals);
        out_keys.push(key);
        outs.push(reducer.reduce(key, &mut scratch));
    }

    (
        (
            ReducerRecord {
                items,
                bytes: items * wire,
                groups: groups.num_groups() as u64,
            },
            out_keys,
            outs,
        ),
        sorted,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattributed_time_is_the_span_less_the_union_of_the_tasks() {
        let times = JobTimes {
            start: Instant::now(),
            // Two mappers' chunks, overlapping; a gap 40..50.
            chunks: vec![([5, 20, 30], 0), ([10, 25, 40], 1), ([12, 13, 14], 0)],
            // Reduce tasks, one inside another; a gap 70..75.
            reduces: vec![([50, 55, 70], 0), ([52, 60, 65], 2)],
            merge: [75, 90],
        };
        assert_eq!(times.span_ns(), 90);
        // 0..5, 40..50 and 70..75 are nobody's.
        assert_eq!(times.unattributed_ns(), 5 + 10 + 5);
        // A job of nothing but the merge.
        let idle = JobTimes {
            chunks: Vec::new(),
            reduces: Vec::new(),
            merge: [3, 4],
            ..times
        };
        assert_eq!((idle.span_ns(), idle.unattributed_ns()), (4, 3));
    }

    #[test]
    fn default_config_is_valid() {
        assert_eq!(JobConfig::new(4, 1024).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_gpus() {
        let cfg = JobConfig::new(0, 1024);
        let why = cfg.validate().unwrap_err();
        assert!(why.contains("gpus must be >= 1"), "{why}");
    }

    #[test]
    fn validate_rejects_zero_batch_bytes() {
        let mut cfg = JobConfig::new(2, 1024);
        cfg.batch_bytes = 0;
        let why = cfg.validate().unwrap_err();
        assert!(why.contains("batch_bytes must be > 0"), "{why}");
    }
}
