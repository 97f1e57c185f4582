//! The Shredder framework: GPU-accelerated content-based chunking.
//!
//! This crate assembles the substrates (Rabin chunking, the GPU model,
//! the DES kernel) into the system of the paper's §3–§5, extended from a
//! one-shot slice API into a **session-based multi-stream engine**:
//!
//! * [`config`] — [`ShredderConfig`] with presets matching the Figure 12
//!   systems: `gpu_basic()` (§3.1), `gpu_streams()` (double buffering +
//!   pinned ring + 4-stage pipeline, §4.1–§4.2) and
//!   `gpu_streams_memory()` (adds the coalesced kernel, §4.3).
//! * [`engine`] — the [`ShredderEngine`]: N concurrent [`ChunkSession`]s
//!   scheduled through **one shared** discrete-event pipeline (one SAN
//!   reader, one Store thread) under round-robin / weighted /
//!   session-order admission, sharded across a **device pool**
//!   (`gpus = N` in [`ShredderConfig`]) by a [`PlacementPolicy`]
//!   (least-loaded, round-robin, or pinned). Each pool device has its
//!   own twin-buffer lanes, pinned staging ring (held as a DES resource
//!   — exhaustion backpressures admission) and event-chained
//!   copy–compute overlap, reported per device in
//!   [`EngineReport::devices`] (utilization + overlap fraction).
//! * [`fault`] — deterministic fault injection: a seeded [`FaultPlan`]
//!   of device deaths and stragglers replayed as ordinary DES events
//!   (dead devices requeue their in-flight buffers to survivors;
//!   stragglers are routed around by least-loaded placement), with
//!   per-fault counters in [`EngineReport::faults`].
//! * [`source`] — [`StreamSource`] ingestion ([`SliceSource`],
//!   [`MemorySource`]): streams feed the engine one pipeline buffer at a
//!   time instead of as a fully-materialized slice.
//! * [`session`] / [`report`] — per-stream [`SessionReport`]s (makespan,
//!   queueing/contention time, per-buffer timeline) inside an aggregate
//!   [`EngineReport`] (aggregate GB/s over the shared makespan).
//! * [`sink`] — the **staged sink API**: a [`ChunkSink`] attaches typed
//!   downstream stages ([`FingerprintStage`], [`DedupStage`],
//!   [`ShipStage`], [`StoreStage`]) to a session; the stages execute
//!   *inside* the shared simulation with their own service times,
//!   queues and backpressure onto the kernel FIFO, reported per stage
//!   in the [`EngineReport`]. This replaces the old
//!   collect-then-postprocess consumer pattern. [`StoreSink`] commits
//!   chunks and snapshot manifests into the versioned
//!   [`shredder_store::ChunkStore`] in-simulation, making each session
//!   one new restorable generation.
//! * [`frontend`] / [`workload`] — the **online service frontend**:
//!   [`ShredderService`] runs submitted [`ChunkRequest`]s under a
//!   pluggable arrival [`Workload`] (open-loop Poisson, closed-loop
//!   clients + think time, trace replay, or the degenerate batch),
//!   through an explicit bounded admission queue ([`AdmissionControl`]:
//!   FIFO / per-tenant fair share / weighted share across
//!   [`TenantClass`]es, with load shedding via
//!   [`ChunkError::Overloaded`]). Every request gets arrival → admit →
//!   first-chunk → done timestamps, and the [`EngineReport`] grows a
//!   [`ServiceReport`] (offered vs. achieved req/s and GB/s,
//!   queue-depth timeline, per-class latency p50/p95/p99/max);
//!   [`capacity_search`] bisects the highest sustained Poisson rate
//!   meeting a p99 SLO. The legacy `open_*_session` + `run()` path *is*
//!   the batch workload with unbounded admission — chunks and digests
//!   are bit-identical.
//! * [`pipeline`] / [`service`] — the single-stream [`Shredder`], a
//!   thin one-session convenience over the engine: `chunk_stream`
//!   delivers boundaries through the §3.1 upcall (the stage-less sink),
//!   `chunk_stream_sink` drives a [`ChunkSink`]. The case studies
//!   (Inc-HDFS, cloud backup) call it, or the request frontend.
//! * [`host_chunker`] — the host-only pthreads baseline of §5.1: a
//!   [`HostChunkerConfig`] builds a [`ShredderConfig`] whose pool is a
//!   host-core device ([`ShredderConfig::host_cores`]), so CPU runs pass
//!   through the same reader, Store thread and sinks as GPU runs.
//!
//! Everywhere, chunk boundaries are **real** (computed by the shared
//! Rabin tables over the actual bytes, identical across every engine and
//! per stream under any admission interleaving) and *time* is simulated
//! (see `DESIGN.md`).
//!
//! # Examples
//!
//! Multi-tenant chunking through one engine:
//!
//! ```
//! use shredder_core::{ShredderConfig, ShredderEngine, SliceSource};
//!
//! let site_a: Vec<u8> = (0..1u32 << 19).map(|i| (i.wrapping_mul(0x9e3779b9) >> 11) as u8).collect();
//! let site_b: Vec<u8> = (0..1u32 << 19).map(|i| (i.wrapping_mul(2654435761) >> 7) as u8).collect();
//!
//! let mut engine =
//!     ShredderEngine::new(ShredderConfig::gpu_streams_memory().with_buffer_size(128 << 10));
//! engine.open_named_session("site-a", 1, SliceSource::new(&site_a));
//! engine.open_named_session("site-b", 1, SliceSource::new(&site_b));
//!
//! let outcome = engine.run().unwrap();
//! assert_eq!(outcome.sessions.len(), 2);
//! // Both tenants' chunks tile their own stream.
//! for (session, data) in outcome.sessions.iter().zip([&site_a, &site_b]) {
//!     assert_eq!(session.chunks.iter().map(|c| c.len).sum::<usize>(), data.len());
//! }
//! println!("aggregate: {:.2} GB/s", outcome.report.aggregate_gbps());
//! ```
//!
//! Chunking *into a sink*: a dedup consumer graph (fingerprint → index
//! lookup → ship) running inside the same simulation, so hashing
//! overlaps chunking instead of being post-processed:
//!
//! ```
//! use std::cell::RefCell;
//! use std::collections::HashSet;
//! use std::rc::Rc;
//! use shredder_core::{DedupSink, DedupSinkConfig, Shredder, ShredderConfig};
//! use shredder_des::Dur;
//!
//! let data: Vec<u8> = (0..1u32 << 20).map(|i| (i.wrapping_mul(0x9e3779b9) >> 11) as u8).collect();
//! let index = Rc::new(RefCell::new(HashSet::new()));
//! let mut sink = DedupSink::new(
//!     DedupSinkConfig {
//!         hash_bw: 1.5e9,
//!         index_lookup: Dur::from_micros(7),
//!         index_insert: Dur::from_micros(10),
//!         ship_bw: 0.9e9,
//!         pointer_bytes: 40,
//!         ship_chunk_overhead: Dur::from_micros(2),
//!     },
//!     index,
//! );
//!
//! let gpu = Shredder::new(ShredderConfig::gpu_streams_memory().with_buffer_size(256 << 10));
//! let outcome = gpu.chunk_stream_sink(&data, &mut sink).unwrap();
//!
//! // Real digests and dedup decisions, per-stage timing from the shared
//! // simulation — and the stages overlapped the chunking pipeline.
//! assert!(!sink.verdicts().is_empty());
//! assert_eq!(outcome.stages.len(), 3);
//! assert!(outcome.makespan >= outcome.report.makespan);
//! ```
//!
//! The single-stream convenience (identical boundaries, one session):
//!
//! ```
//! use shredder_core::{HostChunker, HostChunkerConfig, Shredder, ShredderConfig};
//!
//! let data: Vec<u8> = (0..1u32 << 20).map(|i| (i.wrapping_mul(0x9e3779b9) >> 11) as u8).collect();
//!
//! let gpu = Shredder::new(ShredderConfig::gpu_streams_memory());
//! let cpu = HostChunker::new(HostChunkerConfig::optimized());
//!
//! let g = gpu.chunk_stream(&data).unwrap();
//! let c = cpu.chunk_stream(&data).unwrap();
//! // Same boundaries, different (simulated) speed.
//! assert_eq!(g.chunks, c.chunks);
//! assert!(g.report.throughput_gbps() > c.report.throughput_gbps());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bufpool;
pub mod config;
pub mod engine;
pub mod error;
pub mod fault;
pub mod frontend;
pub mod host_chunker;
pub mod pipeline;
pub mod report;
pub mod service;
pub mod session;
pub mod sink;
pub mod source;
pub mod workload;

pub use bufpool::{BufferPool, PooledBuf};
pub use config::{Allocator, HostChunkerConfig, HostCores, ShredderConfig};
pub use engine::{AdmissionPolicy, EngineOutcome, PlacementPolicy, ShredderEngine};
pub use error::ChunkError;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultReport};
pub use frontend::{
    capacity_search, CapacityReport, CapacityTrial, ChunkRequest, RequestId, RequestResult,
    ServiceOutcome, ShredderService,
};
pub use host_chunker::HostChunker;
pub use pipeline::Shredder;
pub use report::{
    BufferTimeline, ClassLatency, DeviceReport, EngineReport, PipelineReport, RequestReport,
    ServiceReport, SessionReport, StageBusy, StageReport,
};
pub use service::ChunkOutcome;
pub use session::{ChunkSession, SessionId, SessionOutcome};
pub use sink::{
    ChunkSink, ChunkVerdict, DedupSink, DedupSinkConfig, DedupStage, FingerprintIndex,
    FingerprintStage, ShipStage, SinkOutcome, StageKind, StageSpec, StoreSink, StoreSinkConfig,
    StoreStage, UpcallSink,
};
pub use source::{MemorySource, SliceSource, StreamSource};
pub use workload::{AdmissionControl, TenantClass, Workload};

pub use shredder_telemetry::{TelemetryConfig, TelemetryReport};
