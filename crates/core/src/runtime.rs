//! The streaming MapReduce runtime: real threads, real channels, real data.
//!
//! One mapper thread per (simulated) GPU and one reducer thread per GPU
//! process, wired with bounded channels — the library's "asynchronous,
//! streaming interface": partitioned batches flow to reducers while mapping
//! is still in progress, exactly as in the paper ("Once enough pairs have
//! been generated by a Mapper, they are sent asynchronously to the
//! Reducer").
//!
//! Determinism: chunks are assigned round-robin (chunk `i` → mapper
//! `i mod M`) and each reducer re-orders received batches by
//! `(mapper, sequence)` before sorting, so results and the recorded
//! [`JobRecord`] are bit-identical across runs regardless of thread timing.

use crossbeam::channel::{bounded, Receiver, Sender};
use mgpu_cluster::{route, ClusterSpec, GpuId, Route};

use crate::assign::Assignment;

use crate::record::{ChunkRecord, JobRecord, JobStats, MapperRecord, ReducerRecord, SendRecord};
use crate::sort::counting_sort_groups;
use crate::traits::{Chunk, Combiner, GpuMapper, Reducer};
use crate::types::{pair_wire_bytes, Key, WireValue, SENTINEL_KEY};

/// Job-level configuration.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// GPUs = mapper threads = reducer processes.
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

struct Batch<V> {
    mapper: u32,
    seq: u32,
    keys: Vec<Key>,
    values: Vec<V>,
}

/// One reducer's accounting record with its emitted keys and outputs (SoA).
type ReducerResult<Out> = (ReducerRecord, Vec<Key>, Vec<Out>);

/// Batches in flight per reducer channel. Reducers drain their channel as
/// batches arrive, so this bound never fills; it must only be non-zero (a
/// rendezvous channel would stall every send until a reducer took it).
const CHANNEL_CAPACITY: usize = 1024;

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

    let mut senders: Vec<Sender<Batch<M::Value>>> = Vec::with_capacity(r_count);
    let mut receivers: Vec<Receiver<Batch<M::Value>>> = Vec::with_capacity(r_count);
    for _ in 0..r_count {
        let (tx, rx) = bounded(CHANNEL_CAPACITY);
        senders.push(tx);
        receivers.push(rx);
    }

    let (mapper_records, reducer_results) = std::thread::scope(|scope| {
        // Mapper threads.
        let mut mapper_handles = Vec::with_capacity(m_count);
        for m in 0..m_count {
            let senders = senders.clone();
            let chunk_refs: Vec<&C> = config
                .assignment
                .chunks_for(m as u32, chunks.len(), m_count as u32)
                .into_iter()
                .map(|i| &chunks[i])
                .collect();
            mapper_handles.push(scope.spawn(move || {
                run_mapper(
                    m as u32,
                    &chunk_refs,
                    mapper,
                    partitioner,
                    combiner,
                    r_count as u32,
                    config,
                    senders,
                )
            }));
        }
        // The scope's own sender clones must drop so channels close when the
        // mappers finish.
        drop(senders);

        // Reducer threads.
        let mut reducer_handles = Vec::with_capacity(r_count);
        for (r, rx) in receivers.into_iter().enumerate() {
            reducer_handles
                .push(scope.spawn(move || run_reducer(r as u32, rx, reducer, config.key_space)));
        }

        let mapper_records: Vec<MapperRecord> = mapper_handles
            .into_iter()
            .map(|h| h.join().expect("mapper thread panicked"))
            .collect();
        let reducer_results: Vec<ReducerResult<R::Out>> = reducer_handles
            .into_iter()
            .map(|h| h.join().expect("reducer thread panicked"))
            .collect();
        (mapper_records, reducer_results)
    });

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
    }
}

#[allow(clippy::too_many_arguments)]
fn run_mapper<C, M, P>(
    m: u32,
    chunks: &[&C],
    mapper: &M,
    partitioner: &P,
    combiner: Option<&dyn Combiner<M::Value>>,
    reducers: u32,
    config: &JobConfig,
    senders: Vec<Sender<Batch<M::Value>>>,
) -> MapperRecord
where
    C: Chunk,
    M: GpuMapper<C>,
    P: crate::partition::Partitioner + ?Sized,
{
    let gpu = GpuId(m);
    let wire = pair_wire_bytes::<M::Value>();
    let mut rec = MapperRecord {
        init_bytes: mapper.init(gpu),
        ..Default::default()
    };

    // Per-reducer SoA buffers: parallel key and value columns.
    let mut buffers: Vec<(Vec<Key>, Vec<M::Value>)> =
        vec![(Vec::new(), Vec::new()); reducers as usize];
    let mut flush_seq = 0u32;

    let mut flush = |r: usize,
                     after_chunk: usize,
                     buffers: &mut Vec<(Vec<Key>, Vec<M::Value>)>,
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
        senders[r]
            .send(Batch {
                mapper: m,
                seq: flush_seq,
                keys,
                values,
            })
            .expect("reducer hung up early");
        flush_seq += 1;
    };

    for (ci, chunk) in chunks.iter().enumerate() {
        let out = mapper.map_chunk(gpu, chunk);
        let emitted = out.len() as u64;
        let mut kept = 0u64;
        for (k, v) in out.keys.into_iter().zip(out.values) {
            if k == SENTINEL_KEY {
                continue;
            }
            debug_assert!(k < config.key_space, "emitted key outside key space");
            kept += 1;
            let r = partitioner.reducer_of(k, reducers) as usize;
            buffers[r].0.push(k);
            buffers[r].1.push(v);
        }
        rec.chunks.push(ChunkRecord {
            chunk_id: chunk.id(),
            disk_bytes: chunk.disk_bytes(),
            device_bytes: chunk.device_bytes(),
            launch: out.stats,
            emitted,
            kept,
            emission_bytes: emitted * wire as u64,
        });
        // Flush buffers that crossed the threshold.
        for r in 0..reducers as usize {
            if buffers[r].0.len() * wire >= config.batch_bytes {
                flush(r, ci, &mut buffers, &mut rec);
            }
        }
    }

    // Final drain after the last chunk.
    let last = chunks.len().saturating_sub(1);
    for r in 0..reducers as usize {
        flush(r, last, &mut buffers, &mut rec);
    }
    rec
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

fn run_reducer<R: Reducer>(
    _r: u32,
    rx: Receiver<Batch<R::Value>>,
    reducer: &R,
    key_space: u32,
) -> ReducerResult<R::Out> {
    let mut batches: Vec<Batch<R::Value>> = rx.iter().collect();
    // Deterministic order regardless of arrival interleaving.
    batches.sort_by_key(|b| (b.mapper, b.seq));

    let wire = pair_wire_bytes::<R::Value>() as u64;
    let mut keys: Vec<Key> = Vec::new();
    let mut values: Vec<R::Value> = Vec::new();
    for b in &batches {
        keys.extend_from_slice(&b.keys);
        values.extend_from_slice(&b.values);
    }
    let items = keys.len() as u64;

    let groups = counting_sort_groups(&keys, &values, key_space);
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
        ReducerRecord {
            items,
            bytes: items * wire,
            groups: groups.num_groups() as u64,
        },
        out_keys,
        outs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
