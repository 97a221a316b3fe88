//! Builds the DES trace for a completed job: every disk read, PCIe copy,
//! kernel, partition pass, network message, sort and reduce becomes a task
//! with dependencies, bound to the hardware resource that serves it. This is
//! the one trace builder: both compositors share its map chain and its
//! message chain, and differ only in what follows the map phase.
//!
//! The dependency structure encodes the paper's pipeline semantics:
//!
//! * per mapper, the stream `… → H2D(c) → Kernel(c) → D2H(c) → H2D(c+1) → …`
//!   is **serialized on the GPU** because CUDA 3.0 forced synchronous copies
//!   into 3-D textures (§3.1.2 "we were forced to use synchronous memory
//!   copies") — the `async_upload` option relaxes exactly that, modeling the
//!   paper's proposed future work;
//! * disk prefetch runs ahead of the GPU (the library's streaming interface
//!   hides I/O behind compute);
//! * partition runs on the host core concurrently with the next chunk's GPU
//!   work; batch sends overlap everything downstream;
//! * every reducer's sort starts only when **all** its batches arrived
//!   ("Once all Mappers have finished and all data has been routed to the
//!   proper Reducer, a Sort is performed"), then reduce follows.
//!
//! [`build_swap_trace`] models binary-swap compositing, the alternative of
//! §6.1: "Every node would consume all generated ray fragments to create
//! its partial image. The reduction phase would then be changed to perform
//! swap compositing." So the map phase is the one above; after it, each GPU
//! composites its own fragments into a partial image, then `log2(G)`
//! synchronized rounds each exchange half of the current image region with
//! the partner `rank XOR 2^k` and composite what arrived (round `k` moves
//! `W·H/2^(k+1)` dense pixels per GPU). The final gather is excluded, as in
//! the paper. *Over* is associative, so the pixels equal direct-send's;
//! binary swap trades per-message overhead (few, large, dense messages) for
//! barriers and for sending *pixels* rather than surviving fragments, which
//! is why the paper prefers direct-send at these scales.

use mgpu_cluster::{route, ClusterSpec, GpuId, ResourceMap, Route};
use mgpu_sim::{Activity, SimDuration, TaskId, Trace};

use crate::cost::CostBook;
use crate::record::{ChunkRecord, JobRecord, MapperRecord};

/// Trace-level options (ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceOptions {
    /// Model asynchronous texture uploads (paper future work §7): uploads
    /// stop serializing against kernels on the GPU queue.
    pub async_upload: bool,
    /// Run the reduce phase on the GPU instead of the CPU (§3.1.2 ablation).
    pub reduce_on_gpu: bool,
}

/// A trace under construction on `spec`'s resources, with the cost models
/// that price its tasks.
struct Builder<'a> {
    tr: Trace,
    rm: ResourceMap,
    spec: &'a ClusterSpec,
    book: &'a CostBook,
    opts: &'a TraceOptions,
}

impl<'a> Builder<'a> {
    fn new(spec: &'a ClusterSpec, book: &'a CostBook, opts: &'a TraceOptions) -> Builder<'a> {
        let mut tr = Trace::new();
        let rm = ResourceMap::build(spec, &mut tr);
        Builder {
            tr,
            rm,
            spec,
            book,
            opts,
        }
    }

    /// Mapper `gpu`'s GPU stream: the init upload, then disk → H2D → kernel
    /// → D2H per chunk. `after_d2h` runs right after each chunk's readback
    /// is created, so tasks it adds keep their place in the trace. Returns
    /// the stream's last task (`None` when the mapper uploaded nothing).
    fn map_chain(
        &mut self,
        gpu: GpuId,
        mapper: &MapperRecord,
        mut after_d2h: impl FnMut(&mut Trace, &ChunkRecord, TaskId),
    ) -> Option<TaskId> {
        let pcie_r = self.rm.pcie_r(gpu);

        // Static init upload (view matrix, transfer-function LUT).
        let init_task = (mapper.init_bytes > 0).then(|| {
            self.tr.comm_task(
                Activity::HostToDevice,
                pcie_r,
                self.book.device.h2d_time(mapper.init_bytes),
                SimDuration::ZERO,
                mapper.init_bytes,
                vec![],
            )
        });

        let mut prev_disk: Option<TaskId> = None;
        let mut prev_gpu_op: Option<TaskId> = init_task;
        for chunk in &mapper.chunks {
            // Disk prefetch: serialized per node-disk, ahead of the GPU.
            let disk_task = (chunk.disk_bytes > 0).then(|| {
                let t = self.tr.comm_task(
                    Activity::DiskRead,
                    self.rm.disk_r(self.spec, gpu),
                    self.book.disk.time(chunk.disk_bytes),
                    SimDuration::ZERO,
                    chunk.disk_bytes,
                    prev_disk.into_iter().collect(),
                );
                prev_disk = Some(t);
                t
            });

            // H2D upload. Synchronous 3-D-texture copies serialize with the
            // GPU queue unless async_upload is on.
            let mut h2d_deps: Vec<TaskId> = disk_task.into_iter().collect();
            if !self.opts.async_upload {
                h2d_deps.extend(prev_gpu_op);
            } else if let Some(init) = init_task {
                h2d_deps.push(init);
            }
            let h2d = self.tr.comm_task(
                Activity::HostToDevice,
                pcie_r,
                self.book.device.h2d_time(chunk.device_bytes),
                SimDuration::ZERO,
                chunk.device_bytes,
                h2d_deps,
            );

            // The map kernel itself.
            let mut kernel_deps = vec![h2d];
            if self.opts.async_upload {
                kernel_deps.extend(prev_gpu_op);
            }
            let kernel = self.tr.task(
                Activity::Kernel,
                self.rm.gpu_r(gpu),
                self.book.device.kernel.time(&chunk.launch),
                kernel_deps,
            );

            // Full emission buffer readback (sentinels included: every
            // thread emitted).
            let d2h = self.tr.comm_task(
                Activity::DeviceToHost,
                pcie_r,
                self.book.device.d2h_time(chunk.emission_bytes),
                SimDuration::ZERO,
                chunk.emission_bytes,
                vec![kernel],
            );
            prev_gpu_op = Some(d2h);
            after_d2h(&mut self.tr, chunk, d2h);
        }
        prev_gpu_op
    }

    /// A message of `bytes` from process `from` to process `to` once `deps`
    /// completed: a local copy on the sender's core within a node, a NIC
    /// send plus receive across nodes. Returns the arrival.
    fn message(&mut self, from: GpuId, to: GpuId, bytes: u64, deps: Vec<TaskId>) -> TaskId {
        let Builder { tr, rm, spec, .. } = self;
        match route(spec, from, to) {
            Route::SameProcess => unreachable!("a message leaves its process"),
            Route::IntraNode => tr.comm_task(
                Activity::LocalCopy,
                rm.core_r(from),
                spec.network.intra_node_time(bytes),
                SimDuration::ZERO,
                bytes,
                deps,
            ),
            Route::InterNode => {
                let s = tr.comm_task(
                    Activity::NetSend,
                    rm.nic_out_r(spec, from),
                    spec.network.send_time(bytes),
                    spec.network.wire_latency(),
                    bytes,
                    deps,
                );
                tr.comm_task(
                    Activity::NetRecv,
                    rm.nic_in_r(spec, to),
                    spec.network.recv_time(bytes),
                    SimDuration::ZERO,
                    bytes,
                    vec![s],
                )
            }
        }
    }
}

/// Build the complete direct-send trace for `record` on `spec` hardware.
pub fn build_trace(
    record: &JobRecord,
    spec: &ClusterSpec,
    book: &CostBook,
    opts: &TraceOptions,
) -> Trace {
    let mut b = Builder::new(spec, book, opts);

    // Arrival task per (reducer, batch) — the reducer's sort depends on all.
    let mut arrivals: Vec<Vec<TaskId>> = vec![Vec::new(); record.reducers.len()];
    // End-of-stream: a reducer cannot know its input is complete until every
    // mapper has finished partitioning its last chunk ("Once all Mappers
    // have finished and all data has been routed ... a Sort is performed").
    let mut end_of_stream: Vec<TaskId> = Vec::with_capacity(record.mappers.len());

    for (m, mapper) in record.mappers.iter().enumerate() {
        let gpu = GpuId(m as u32);
        let core_r = b.rm.core_r(gpu);

        // CPU partition of each chunk's emissions, right after its readback.
        let mut partition_tasks: Vec<TaskId> = Vec::with_capacity(mapper.chunks.len());
        b.map_chain(gpu, mapper, |tr, chunk, d2h| {
            partition_tasks.push(tr.task(
                Activity::PartitionCpu,
                core_r,
                book.cpu.partition_time(chunk.emitted),
                vec![d2h],
            ));
        });
        end_of_stream.extend(partition_tasks.last().copied());

        // Batch sends, each gated on the partition pass that filled it.
        for send in &mapper.sends {
            let dst = GpuId(send.reducer);
            let filled = partition_tasks.get(send.after_chunk).copied();
            let arrival = if route(spec, gpu, dst) == Route::SameProcess {
                // No copy: the reducer sees the batch when partitioning is
                // done.
                match filled {
                    Some(t) => t,
                    None => continue,
                }
            } else {
                b.message(gpu, dst, send.bytes, filled.into_iter().collect())
            };
            arrivals[send.reducer as usize].push(arrival);
        }
    }

    // Reducers: sort barrier (all arrivals + all mappers' end-of-stream),
    // then reduce.
    let Builder { mut tr, rm, .. } = b;
    for (r, red) in record.reducers.iter().enumerate() {
        let gpu = GpuId(r as u32);
        let core_r = rm.core_r(gpu);
        let mut deps = std::mem::take(&mut arrivals[r]);
        deps.extend_from_slice(&end_of_stream);
        let sort = tr.task(
            Activity::SortCpu,
            core_r,
            book.cpu.sort_time(red.items),
            deps,
        );
        if opts.reduce_on_gpu {
            // Upload fragments, composite on the device, read back pixels.
            let up = tr.comm_task(
                Activity::HostToDevice,
                rm.pcie_r(gpu),
                book.device.h2d_time(red.bytes),
                SimDuration::ZERO,
                red.bytes,
                vec![sort],
            );
            let reduce = tr.task(
                Activity::ReduceGpu,
                rm.gpu_r(gpu),
                book.gpu_reduce.reduce_time(red.items),
                vec![up],
            );
            let bytes_down = red.groups * 16; // final RGBA per pixel
            tr.comm_task(
                Activity::DeviceToHost,
                rm.pcie_r(gpu),
                book.device.d2h_time(bytes_down),
                SimDuration::ZERO,
                bytes_down,
                vec![reduce],
            );
        } else {
            tr.task(
                Activity::ReduceCpu,
                core_r,
                book.cpu.reduce_time(red.items, red.groups),
                vec![sort],
            );
        }
    }

    tr
}

/// Build the binary-swap trace (module docs) for `record` on `spec`
/// hardware, over a dense image of `image_pixels` pixels. Panics unless the
/// GPU count is a power of two, the classic binary-swap restriction.
pub fn build_swap_trace(
    record: &JobRecord,
    spec: &ClusterSpec,
    book: &CostBook,
    opts: &TraceOptions,
    image_pixels: u64,
) -> Trace {
    let g = record.mappers.len() as u32;
    assert!(
        g.is_power_of_two(),
        "binary swap requires a power-of-two GPU count, got {g}"
    );
    let mut b = Builder::new(spec, book, opts);

    // Map chains and the local composite of each GPU's fragments into its
    // partial image.
    let mut ready: Vec<TaskId> = Vec::with_capacity(g as usize);
    for (m, mapper) in record.mappers.iter().enumerate() {
        let gpu = GpuId(m as u32);
        let mapped = b.map_chain(gpu, mapper, |_, _, _| {});
        let core_r = b.rm.core_r(gpu);
        let kept: u64 = mapper.chunks.iter().map(|c| c.kept).sum();
        let sort = b.tr.task(
            Activity::SortCpu,
            core_r,
            book.cpu.sort_time(kept),
            mapped.into_iter().collect(),
        );
        ready.push(b.tr.task(
            Activity::ReduceCpu,
            core_r,
            book.cpu.reduce_time(kept, kept.min(image_pixels)),
            vec![sort],
        ));
    }

    // log2(G) swap rounds: every GPU first sends half its region to its
    // partner, then merges what its partner sent.
    for k in 0..g.trailing_zeros() {
        let partner = |r: u32| r ^ (1 << k);
        let pixels_moved = image_pixels >> (k + 1);
        let bytes = pixels_moved.max(1) * 16; // premultiplied RGBA f32
        let sends: Vec<TaskId> = (0..g)
            .map(|r| b.message(GpuId(r), GpuId(partner(r)), bytes, vec![ready[r as usize]]))
            .collect();
        ready = (0..g)
            .map(|r| {
                b.tr.task(
                    Activity::ReduceCpu,
                    b.rm.core_r(GpuId(r)),
                    book.cpu.reduce_time(pixels_moved, pixels_moved),
                    vec![ready[r as usize], sends[partner(r) as usize]],
                )
            })
            .collect();
    }
    b.tr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ChunkRecord, MapperRecord, ReducerRecord, SendRecord};
    use mgpu_gpu::LaunchStats;
    use mgpu_sim::{account, simulate, Schedule, SimTime};

    fn tiny_record(mappers: usize, reducers: usize, chunks_per_mapper: usize) -> JobRecord {
        let mut record = JobRecord::default();
        for m in 0..mappers {
            let mut mr = MapperRecord {
                init_bytes: 1024,
                ..Default::default()
            };
            for c in 0..chunks_per_mapper {
                mr.chunks.push(ChunkRecord {
                    chunk_id: m * chunks_per_mapper + c,
                    disk_bytes: 0,
                    device_bytes: 1 << 20,
                    launch: LaunchStats {
                        threads: 65536,
                        blocks: 256,
                        warps: 2048,
                        total_samples: 4_000_000,
                        simt_samples: 5_000_000,
                    },
                    emitted: 65536,
                    kept: 30000,
                    emission_bytes: 65536 * 24,
                });
                for r in 0..reducers {
                    mr.sends.push(SendRecord {
                        reducer: r as u32,
                        items: 30000 / reducers as u64,
                        bytes: (30000 / reducers as u64) * 24,
                        after_chunk: c,
                    });
                }
            }
            record.mappers.push(mr);
        }
        for _ in 0..reducers {
            record.reducers.push(ReducerRecord {
                items: (mappers * chunks_per_mapper * 30000 / reducers) as u64,
                bytes: (mappers * chunks_per_mapper * 30000 / reducers) as u64 * 24,
                groups: 32768 / reducers as u64,
            });
        }
        record
    }

    fn run(record: &JobRecord, gpus: u32, opts: &TraceOptions) -> mgpu_sim::RunAccounting {
        let spec = ClusterSpec::accelerator_cluster(gpus);
        let book = CostBook::from_cluster(&spec);
        let tr = build_trace(record, &spec, &book, opts);
        let sched = simulate(&tr);
        account(&tr, &sched)
    }

    #[test]
    fn phases_all_present_and_ordered() {
        let record = tiny_record(4, 4, 2);
        let acc = run(&record, 4, &TraceOptions::default());
        assert!(!acc.breakdown.map.is_zero());
        assert!(!acc.breakdown.sort.is_zero() || !acc.breakdown.reduce.is_zero());
        assert_eq!(acc.breakdown.total(), acc.makespan);
        assert!(!acc.kernel_demand.is_zero());
    }

    #[test]
    fn async_upload_is_never_slower() {
        let record = tiny_record(4, 4, 4);
        let sync = run(&record, 4, &TraceOptions::default());
        let async_ = run(
            &record,
            4,
            &TraceOptions {
                async_upload: true,
                ..Default::default()
            },
        );
        assert!(async_.makespan <= sync.makespan);
    }

    #[test]
    fn gpu_reduce_slower_at_paper_scale() {
        let record = tiny_record(8, 8, 2);
        let cpu = run(&record, 8, &TraceOptions::default());
        let gpu = run(
            &record,
            8,
            &TraceOptions {
                reduce_on_gpu: true,
                ..Default::default()
            },
        );
        // The paper found CPU compositing quicker at this scale.
        assert!(gpu.makespan >= cpu.makespan);
    }

    #[test]
    fn cross_node_traffic_uses_nics() {
        // 8 GPUs = 2 nodes: some sends must be inter-node.
        let record = tiny_record(8, 8, 1);
        let acc = run(&record, 8, &TraceOptions::default());
        assert!(acc.totals(Activity::NetSend).tasks > 0);
        assert!(acc.totals(Activity::NetRecv).tasks > 0);
        // 4 GPUs = 1 node: no NIC traffic at all.
        let record1 = tiny_record(4, 4, 1);
        let acc1 = run(&record1, 4, &TraceOptions::default());
        assert_eq!(acc1.totals(Activity::NetSend).tasks, 0);
        assert!(acc1.totals(Activity::LocalCopy).tasks > 0);
    }

    #[test]
    fn disk_reads_appear_when_not_resident() {
        let mut record = tiny_record(2, 2, 2);
        for m in &mut record.mappers {
            for c in &mut m.chunks {
                c.disk_bytes = 1 << 20;
            }
        }
        let acc = run(&record, 2, &TraceOptions::default());
        assert_eq!(acc.totals(Activity::DiskRead).tasks, 4);
        // ~20 ms per 1 MiB read (the paper's anchor).
        let per_read = acc.totals(Activity::DiskRead).busy.as_millis_f64() / 4.0;
        assert!((per_read - 20.0).abs() < 2.0, "{per_read} ms");
    }

    #[test]
    fn deterministic_rebuild() {
        let record = tiny_record(4, 4, 3);
        let spec = ClusterSpec::accelerator_cluster(4);
        let book = CostBook::from_cluster(&spec);
        let opts = TraceOptions::default();
        let t1 = build_trace(&record, &spec, &book, &opts);
        let t2 = build_trace(&record, &spec, &book, &opts);
        let s1 = simulate(&t1);
        let s2 = simulate(&t2);
        assert_eq!(s1.makespan(), s2.makespan());
        assert_eq!(t1.len(), t2.len());
    }

    /// `gpus` single-chunk mappers, as the binary-swap tests replay them.
    fn swap_record(gpus: usize) -> JobRecord {
        let mut rec = JobRecord::default();
        for m in 0..gpus {
            rec.mappers.push(MapperRecord {
                chunks: vec![ChunkRecord {
                    chunk_id: m,
                    disk_bytes: 0,
                    device_bytes: 1 << 20,
                    launch: LaunchStats {
                        threads: 4096,
                        blocks: 16,
                        warps: 128,
                        total_samples: 1_000_000,
                        simt_samples: 1_200_000,
                    },
                    emitted: 4096,
                    kept: 2000,
                    emission_bytes: 4096 * 28,
                }],
                sends: Vec::new(),
                init_bytes: 4096,
            });
            rec.reducers.push(ReducerRecord::default());
        }
        rec
    }

    fn swap_run(record: &JobRecord, gpus: u32, image_pixels: u64) -> mgpu_sim::RunAccounting {
        let spec = ClusterSpec::accelerator_cluster(gpus);
        let book = CostBook::from_cluster(&spec);
        let tr = build_swap_trace(record, &spec, &book, &TraceOptions::default(), image_pixels);
        account(&tr, &simulate(&tr))
    }

    #[test]
    fn produces_complete_breakdown() {
        let acc = swap_run(&swap_record(8), 8, 64 * 64);
        assert!(!acc.breakdown.map.is_zero());
        assert!(!acc.breakdown.reduce.is_zero());
        assert_eq!(acc.breakdown.total(), acc.makespan);
    }

    #[test]
    fn round_count_scales_logarithmically() {
        let a2 = swap_run(&swap_record(2), 2, 256 * 256);
        let a16 = swap_run(&swap_record(16), 16, 256 * 256);
        // 2 GPUs: 1 round, all intra-node. 16 GPUs: 4 rounds, some inter-node.
        assert_eq!(a2.totals(Activity::NetSend).tasks, 0);
        assert!(a16.totals(Activity::NetSend).tasks > 0);
        let merges2 = a2.totals(Activity::ReduceCpu).tasks;
        let merges16 = a16.totals(Activity::ReduceCpu).tasks;
        assert_eq!(merges2, 2 + 2); // local composite + 1 round × 2 GPUs
        assert_eq!(merges16, 16 + 4 * 16);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two() {
        swap_run(&swap_record(6), 6, 64 * 64);
    }

    #[test]
    fn bytes_halve_each_round() {
        let acc = swap_run(&swap_record(4), 4, 1 << 16);
        // All traffic is intra-node for 4 GPUs; round 0 moves 2^15 pixels per
        // GPU, round 1 moves 2^14: total = 4·(2^15+2^14)·16 B.
        let total = acc.totals(Activity::LocalCopy).bytes;
        assert_eq!(total, 4 * ((1 << 15) + (1 << 14)) * 16);
    }

    /// Binary swap changes only the reduce phase (§6.1): under either upload
    /// model, its map phase — init upload, disk reads, uploads, kernels and
    /// readbacks — is task for task, byte for byte and nanosecond for
    /// nanosecond the direct-send one, down to when each GPU's last
    /// readback finishes.
    #[test]
    fn swap_and_direct_send_share_the_map_phase() {
        let mut record = tiny_record(8, 8, 3);
        for m in &mut record.mappers {
            for c in &mut m.chunks {
                c.disk_bytes = 1 << 20;
            }
        }
        let spec = ClusterSpec::accelerator_cluster(8);
        let book = CostBook::from_cluster(&spec);
        let rm = ResourceMap::build(&spec, &mut Trace::new());
        let last_d2h = |tr: &Trace, sched: &Schedule| -> Vec<SimTime> {
            (0..8)
                .map(|g| {
                    let pcie = rm.pcie_r(GpuId(g));
                    let last = tr
                        .tasks()
                        .iter()
                        .rposition(|t| t.activity == Activity::DeviceToHost && t.resource == pcie);
                    sched.timing(TaskId(last.unwrap() as u32)).finish
                })
                .collect()
        };
        for async_upload in [false, true] {
            let opts = TraceOptions {
                async_upload,
                ..Default::default()
            };
            let direct = build_trace(&record, &spec, &book, &opts);
            let swap = build_swap_trace(&record, &spec, &book, &opts, 64 * 64);
            let (sd, ss) = (simulate(&direct), simulate(&swap));
            let (ad, as_) = (account(&direct, &sd), account(&swap, &ss));
            for activity in [
                Activity::DiskRead,
                Activity::HostToDevice,
                Activity::Kernel,
                Activity::DeviceToHost,
            ] {
                assert_eq!(
                    ad.totals(activity),
                    as_.totals(activity),
                    "{activity:?}, async_upload {async_upload}"
                );
            }
            assert_eq!(ad.totals(Activity::HostToDevice).tasks, 8 * (3 + 1));
            assert_eq!(last_d2h(&direct, &sd), last_d2h(&swap, &ss));
        }
    }
}
