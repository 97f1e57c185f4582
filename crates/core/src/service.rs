//! The one-call entry points of [`Shredder`]: chunk one stream, with or
//! without a sink.
//!
//! The Shredder library notifies applications of chunk boundaries via an
//! upcall (§3.1: "the Store thread uses an upcall to notify the chunk
//! boundaries to the application that is using the Shredder library").
//! That upcall is the stage-less [`UpcallSink`], and
//! [`chunk_stream`](Shredder::chunk_stream) collects it into a
//! [`ChunkOutcome`]. A [`ChunkSink`] with downstream stages (fingerprint,
//! dedup, ship) runs those stages inside the same simulation as the
//! chunking pipeline.
//!
//! Each call opens one session on a private
//! [`ShredderEngine`](crate::ShredderEngine) built from the full
//! [`ShredderConfig`](crate::ShredderConfig): a GPU pool of any size, or
//! a host-core pool ([`ShredderConfig::host_cores`](crate::ShredderConfig)),
//! passes through the same reader, Store thread and sink stages. For
//! many streams through one shared pipeline, use the session API or the
//! request frontend ([`ShredderService`](crate::ShredderService)).

use shredder_des::Dur;
use shredder_hash::{sha256, Digest};
use shredder_rabin::Chunk;

use crate::error::ChunkError;
use crate::pipeline::Shredder;
use crate::report::PipelineReport;
use crate::sink::{ChunkSink, SinkOutcome, UpcallSink};
use crate::source::{SliceSource, StreamSource};

/// Result of chunking a stream: the chunks plus the engine's timing
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkOutcome {
    /// The chunks, tiling the input in order.
    pub chunks: Vec<Chunk>,
    /// Simulated timing report.
    pub report: PipelineReport,
}

impl ChunkOutcome {
    /// Computes the SHA-256 digest of every chunk (the hashing step of
    /// §2.1, performed by the Store thread in the backup case study).
    pub fn digests(&self, data: &[u8]) -> Vec<Digest> {
        self.chunks.iter().map(|c| sha256(c.slice(data))).collect()
    }

    /// Mean chunk size in bytes.
    pub fn mean_chunk_size(&self) -> f64 {
        if self.chunks.is_empty() {
            return 0.0;
        }
        let total: usize = self.chunks.iter().map(|c| c.len).sum();
        total as f64 / self.chunks.len() as f64
    }
}

impl Shredder {
    /// Chunks the stream delivered by `source` and drives `sink`'s
    /// downstream stages inside the engine's simulation: one session,
    /// chunking pipeline and sink stages contending and overlapping on
    /// the same virtual clock. The sink's functional half (hashing,
    /// dedup decisions) runs for real, chunk by chunk in stream order.
    ///
    /// # Errors
    ///
    /// [`ChunkError`] when the configuration is invalid or a kernel
    /// launch fails.
    pub fn chunk_source_sink(
        &self,
        source: &mut dyn StreamSource,
        sink: &mut dyn ChunkSink,
    ) -> Result<SinkOutcome, ChunkError> {
        let outcome = {
            let mut engine = self.engine();
            engine.open_sink_session("chunk-stream", 1, source, sink);
            engine.run()?
        };
        let per = &outcome.report.sessions[0];
        // The report keeps chunk-only semantics: with downstream stages
        // attached, chunking ends when the last buffer leaves the Store
        // thread, not when the sink drains.
        let chunk_makespan = if outcome.report.sink_stages.is_empty() {
            outcome.report.makespan
        } else {
            per.timeline
                .last()
                .map(|t| t.store_end.saturating_since(per.first_admit))
                .unwrap_or(Dur::ZERO)
        };
        let report = PipelineReport {
            bytes: per.bytes,
            buffers: per.buffers,
            makespan: chunk_makespan,
            stage_busy: outcome.report.stage_busy,
            kernel_time: per.kernel_time,
            timeline: per.timeline.clone(),
            ring_setup: outcome.report.ring_setup,
            raw_cuts: per.raw_cuts,
        };
        Ok(SinkOutcome {
            report,
            makespan: outcome.report.makespan,
            stages: outcome.report.sink_stages,
        })
    }

    /// Chunks an in-memory stream through a sink.
    ///
    /// # Errors
    ///
    /// See [`chunk_source_sink`](Self::chunk_source_sink).
    pub fn chunk_stream_sink(
        &self,
        data: &[u8],
        sink: &mut dyn ChunkSink,
    ) -> Result<SinkOutcome, ChunkError> {
        self.chunk_source_sink(&mut SliceSource::new(data), sink)
    }

    /// Chunks an in-memory stream and collects the upcalls.
    ///
    /// # Errors
    ///
    /// See [`chunk_source_sink`](Self::chunk_source_sink).
    pub fn chunk_stream(&self, data: &[u8]) -> Result<ChunkOutcome, ChunkError> {
        let mut chunks = Vec::new();
        let mut upcall = |c| chunks.push(c);
        let report = self
            .chunk_stream_sink(data, &mut UpcallSink::new(&mut upcall))?
            .report;
        Ok(ChunkOutcome { chunks, report })
    }

    /// Human-readable engine name (used in experiment output).
    pub fn service_name(&self) -> String {
        let c = self.config();
        if let Some(host) = &c.host_cores {
            return format!("pthreads-cpu({} threads, {})", host.threads, host.allocator);
        }
        format!(
            "shredder-gpu({} kernel, depth {}, twins {}, {}, {} gpu{})",
            c.kernel,
            c.pipeline_depth,
            c.twin_buffers,
            if c.pinned_ring {
                "pinned ring"
            } else {
                "pageable"
            },
            c.gpus,
            if c.gpus == 1 { "" } else { "s" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShredderConfig;

    fn gpu() -> Shredder {
        Shredder::new(ShredderConfig::default().with_buffer_size(64 << 10))
    }

    #[test]
    fn collect_outcome() {
        let data: Vec<u8> = (0..200_000u32).map(|i| ((i * 7919) >> 5) as u8).collect();
        let out = gpu().chunk_stream(&data).unwrap();
        assert!(out.chunks.len() > 1);
        assert_eq!(
            out.mean_chunk_size(),
            data.len() as f64 / out.chunks.len() as f64
        );
        let digests = out.digests(&data);
        assert_eq!(digests.len(), out.chunks.len());
        assert_eq!(digests[0], sha256(out.chunks[0].slice(&data)));
    }

    #[test]
    fn source_and_slice_paths_agree() {
        let data = vec![7u8; 100_000];
        let via_slice = gpu().chunk_stream(&data).unwrap();
        let mut chunks = Vec::new();
        let mut upcall = |c| chunks.push(c);
        let via_source = gpu()
            .chunk_source_sink(
                &mut SliceSource::new(&data),
                &mut UpcallSink::new(&mut upcall),
            )
            .unwrap();
        assert_eq!(via_slice.report, via_source.report);
        assert_eq!(via_slice.chunks, chunks);
    }

    #[test]
    fn empty_outcome_stats() {
        let out = gpu().chunk_stream(&[]).unwrap();
        assert_eq!(out.mean_chunk_size(), 0.0);
        assert!(out.digests(&[]).is_empty());
    }
}
