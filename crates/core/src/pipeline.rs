//! The single-stream Shredder pipeline: Reader → Transfer → Kernel →
//! Store, as a thin convenience over the session engine.
//!
//! Historically this module owned the whole discrete-event pipeline;
//! that machinery now lives in [`crate::engine`], where any number of
//! tenant streams share it. [`Shredder`] keeps the original surface —
//! construct from a [`ShredderConfig`] (or a
//! [`HostChunkerConfig`](crate::HostChunkerConfig)), call
//! [`chunk_stream`](Shredder::chunk_stream) — by opening exactly one
//! [`ChunkSession`](crate::ChunkSession) on a private
//! [`ShredderEngine`] per call. The configuration semantics are
//! unchanged:
//!
//! * **pipeline depth** caps how many buffers are in flight — the §4.2
//!   streaming pipeline, varied 1–4 in Figure 9 (now a *global* cap the
//!   engine shares across sessions);
//! * **twin buffers** cap device buffers — 1 reproduces the serialized
//!   copy→compute of the basic design, 2 the double buffering of §4.1.1
//!   (Figure 4);
//! * **pinned ring** picks the host-buffer kind: pre-pinned ring slots
//!   (fast DMA, §4.1.2) vs pageable buffers allocated every iteration.

use shredder_des::Dur;

use crate::bufpool::BufferPool;
use crate::config::ShredderConfig;
use crate::engine::{PlannedBuffer, SessionPlan, ShredderEngine};
use crate::report::{PipelineReport, StageBusy};

/// The Shredder chunking engine (single-stream view) over a GPU pool
/// or, built from a [`HostChunkerConfig`](crate::HostChunkerConfig),
/// the host-core pool of the pthreads baseline.
///
/// # Examples
///
/// ```
/// use shredder_core::{Shredder, ShredderConfig};
/// use shredder_rabin::{chunk_all, ChunkParams};
///
/// let data: Vec<u8> = (0..1u32 << 20).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
/// let shredder = Shredder::new(ShredderConfig::gpu_streams_memory());
/// let out = shredder.chunk_stream(&data).unwrap();
/// // GPU pipeline boundaries equal the sequential CPU scan.
/// assert_eq!(out.chunks, chunk_all(&data, &ChunkParams::paper()));
/// ```
#[derive(Debug, Clone)]
pub struct Shredder {
    config: ShredderConfig,
    pool: BufferPool,
}

impl Shredder {
    /// Creates an engine from a configuration. Construction never
    /// fails: an unusable configuration is reported as
    /// [`ChunkError::InvalidConfig`](crate::ChunkError) by the first
    /// run.
    pub fn new(config: impl Into<ShredderConfig>) -> Self {
        Shredder {
            config: config.into(),
            pool: BufferPool::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ShredderConfig {
        &self.config
    }

    /// The buffer pool every engine this service opens leases its scan
    /// and stream copies from (allocation counters included): after the
    /// first stream of a given size, repeat streams allocate nothing.
    pub fn buffer_pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Opens a fresh multi-stream engine with this configuration — the
    /// session API this service is a convenience over.
    pub fn engine<'a>(&self) -> ShredderEngine<'a> {
        ShredderEngine::new(self.config.clone()).with_buffer_pool(self.pool.clone())
    }

    /// Timing-only pipeline execution over `buffers` synthetic buffers of
    /// `bytes` each, with a given per-buffer kernel duration and raw-cut
    /// count.
    ///
    /// The experiment harness uses this to sweep buffer sizes and
    /// pipeline depths over the paper's 1 GB workload without re-running
    /// the (strictly linear) functional chunking for every
    /// configuration; the kernel duration is measured once per buffer
    /// size on real data.
    pub fn simulate_synthetic(
        &self,
        buffers: usize,
        bytes: usize,
        kernel_dur: Dur,
        cuts_per_buffer: usize,
    ) -> PipelineReport {
        let plan = SessionPlan {
            name: "synthetic".into(),
            weight: 1,
            class: 0,
            pin: None,
            bytes: (buffers * bytes) as u64,
            // The timing pass never reads individual cut offsets — only
            // the per-buffer counts below drive the D2H/Store costs.
            cuts: Vec::new(),
            buffers: vec![
                PlannedBuffer {
                    bytes: bytes as u64,
                    cut_count: cuts_per_buffer as u64,
                    kernel_dur,
                };
                buffers
            ],
        };
        let (timeline, stage_busy, makespan) = if buffers == 0 {
            (Vec::new(), StageBusy::default(), Dur::ZERO)
        } else {
            let sim = self.engine().simulate_planned(std::slice::from_ref(&plan));
            (
                sim.sessions[0].timeline.clone(),
                sim.stage_busy,
                sim.end.saturating_since(shredder_des::SimTime::ZERO),
            )
        };
        PipelineReport {
            bytes: (buffers * bytes) as u64,
            buffers,
            makespan,
            stage_busy,
            kernel_time: kernel_dur * buffers as u64,
            timeline,
            ring_setup: self.config.ring_setup(),
            raw_cuts: cuts_per_buffer * buffers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ChunkError;
    use shredder_rabin::{chunk_all, ChunkParams};

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    fn small(cfg: ShredderConfig) -> ShredderConfig {
        cfg.with_buffer_size(256 << 10)
    }

    #[test]
    fn all_presets_produce_sequential_boundaries() {
        let data = pseudo_random(3 << 20, 11);
        let expected = chunk_all(&data, &ChunkParams::paper());
        for cfg in [
            ShredderConfig::gpu_basic(),
            ShredderConfig::gpu_streams(),
            ShredderConfig::gpu_streams_memory(),
        ] {
            let name = format!("{cfg:?}");
            let out = Shredder::new(small(cfg)).chunk_stream(&data).unwrap();
            assert_eq!(out.chunks, expected, "{name}");
        }
    }

    #[test]
    fn min_max_respected_across_buffer_boundaries() {
        let params = ChunkParams::backup();
        let data = pseudo_random(2 << 20, 13);
        let expected = chunk_all(&data, &params);
        let cfg = small(ShredderConfig::gpu_streams_memory()).with_params(params);
        let out = Shredder::new(cfg).chunk_stream(&data).unwrap();
        assert_eq!(out.chunks, expected);
    }

    #[test]
    fn optimizations_strictly_improve_throughput() {
        let data = pseudo_random(8 << 20, 17);
        let t = |cfg: ShredderConfig| {
            Shredder::new(cfg.with_buffer_size(1 << 20))
                .chunk_stream(&data)
                .unwrap()
                .report
                .throughput_gbps()
        };
        let basic = t(ShredderConfig::gpu_basic());
        let streams = t(ShredderConfig::gpu_streams());
        let full = t(ShredderConfig::gpu_streams_memory());
        assert!(streams > basic, "streams {streams} !> basic {basic}");
        assert!(full > streams, "full {full} !> streams {streams}");
    }

    #[test]
    fn full_pipeline_hits_reader_bound() {
        // With all optimizations the chunking service is bound by the
        // 2 GB/s SAN reader (Table 1), the paper's "over 5X" context.
        let data = pseudo_random(32 << 20, 19);
        let out = Shredder::new(ShredderConfig::gpu_streams_memory().with_buffer_size(4 << 20))
            .chunk_stream(&data)
            .unwrap();
        let gbps = out.report.throughput_gbps();
        assert!(gbps > 1.5 && gbps < 2.1, "{gbps} GB/s");
    }

    #[test]
    fn timeline_is_causally_ordered() {
        let data = pseudo_random(4 << 20, 23);
        let out = Shredder::new(small(ShredderConfig::gpu_streams_memory()))
            .chunk_stream(&data)
            .unwrap();
        let report = out.report;
        assert_eq!(report.buffers, report.timeline.len());
        for t in &report.timeline {
            assert!(t.read_start <= t.read_end);
            assert!(t.read_end <= t.transfer_end);
            assert!(t.transfer_end <= t.kernel_end);
            assert!(t.kernel_end <= t.store_end);
        }
        // Buffers complete in order.
        for pair in report.timeline.windows(2) {
            assert!(pair[0].store_end <= pair[1].store_end);
        }
    }

    #[test]
    fn sequential_depth_one_is_slower_than_pipelined() {
        let data = pseudo_random(8 << 20, 29);
        let t = |depth: usize| {
            Shredder::new(
                ShredderConfig::gpu_streams_memory()
                    .with_buffer_size(1 << 20)
                    .with_pipeline_depth(depth),
            )
            .chunk_stream(&data)
            .unwrap()
            .report
            .makespan
        };
        let seq = t(1);
        let pipe4 = t(4);
        let speedup = seq.as_secs_f64() / pipe4.as_secs_f64();
        assert!(speedup > 1.4, "pipeline speedup {speedup}");
    }

    #[test]
    fn empty_stream() {
        let out = Shredder::new(ShredderConfig::default())
            .chunk_stream(&[])
            .unwrap();
        assert!(out.chunks.is_empty());
        assert_eq!(out.report.bytes, 0);
        assert_eq!(out.report.makespan, Dur::ZERO);
    }

    #[test]
    fn stream_smaller_than_one_buffer() {
        let data = pseudo_random(10_000, 31);
        let out = Shredder::new(ShredderConfig::default())
            .chunk_stream(&data)
            .unwrap();
        assert_eq!(out.chunks, chunk_all(&data, &ChunkParams::paper()));
        assert_eq!(out.report.buffers, 1);
    }

    #[test]
    fn ring_setup_reported_only_with_ring() {
        let data = pseudo_random(1 << 20, 37);
        let with_ring = Shredder::new(small(ShredderConfig::gpu_streams()))
            .chunk_stream(&data)
            .unwrap();
        let without = Shredder::new(small(ShredderConfig::gpu_basic()))
            .chunk_stream(&data)
            .unwrap();
        assert!(with_ring.report.ring_setup > Dur::ZERO);
        assert_eq!(without.report.ring_setup, Dur::ZERO);
    }

    #[test]
    fn stage_busy_accounts_all_stages() {
        let data = pseudo_random(4 << 20, 41);
        let out = Shredder::new(small(ShredderConfig::gpu_streams_memory()))
            .chunk_stream(&data)
            .unwrap();
        let busy = out.report.stage_busy;
        assert!(busy.read > Dur::ZERO);
        assert!(busy.transfer > Dur::ZERO);
        assert!(busy.kernel > Dur::ZERO);
        assert!(busy.store > Dur::ZERO);
    }

    #[test]
    fn window_zero_propagates_as_error() {
        let mut params = ChunkParams::paper();
        params.window = 0;
        let shredder = Shredder::new(ShredderConfig::default().with_params(params));
        let result = shredder.chunk_stream(&[1, 2, 3]);
        assert!(matches!(result, Err(ChunkError::InvalidConfig(_))));
    }

    #[test]
    fn service_name_reflects_config() {
        let s = Shredder::new(ShredderConfig::gpu_streams_memory());
        let name = s.service_name();
        assert!(name.contains("coalesced"));
        assert!(name.contains("pinned ring"));
    }
}
