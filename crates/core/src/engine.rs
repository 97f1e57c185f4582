//! The multi-stream chunking engine: N tenant sessions, one shared
//! device pipeline, one discrete-event simulation.
//!
//! The paper's pipeline (§4.2) exists to keep the GPU saturated. A
//! single stream can only do that while it has buffers in flight; a
//! backup server handling many remote sites (§7.2) or an Inc-HDFS
//! ingesting several files wants to keep the device busy *across*
//! streams. [`ShredderEngine`] does exactly that:
//!
//! * every open [`ChunkSession`] is planned into pipeline buffers (the
//!   functional pass — real kernels over real bytes, with the
//!   `window − 1` carry so boundaries are bit-identical per stream to a
//!   sequential scan of that stream alone);
//! * all sessions' buffers are then scheduled through **one shared**
//!   simulation — one SAN reader channel, one Store thread, and a
//!   [`DevicePool`] of `gpus` devices, each with its own twin-buffer
//!   lanes, pinned staging ring and H2D/kernel/D2H engine set — so
//!   tenants genuinely contend for and overlap on the same hardware.
//!   With [`ShredderConfig::host_cores`] set, the pool's devices are the
//!   pthreads baseline's host cores instead: free DMA, no ring, a
//!   kernel at the threads' rate, and a functional scan on real OS
//!   threads over one resident copy of the stream;
//! * a central admission scheduler (replacing the old per-call
//!   semaphore) hands the global `pipeline_depth` slots to sessions
//!   fairly: round-robin, weighted, or strict session order;
//! * a placement layer shards sessions across the pool (a
//!   [`PlacementPolicy`]: least-loaded, round-robin, or explicit pins),
//!   and each device's staging-ring slots are DES resources held from
//!   SAN read through H2D — ring exhaustion backpressures admission.
//!
//! # Runtime structure
//!
//! One run is one `Run` behind one `Rc`: the immutable resources
//! (reader, class links, prep and Store servers, device pool, sink
//! stage servers) plus a `RefCell` holding everything the run mutates.
//! Both admission layers — requests across tenant classes, then
//! buffers across sessions — use the same `FairPicker`. Each buffer's
//! trip is a flat stage machine: `advance(run, sim, buf, step)` matches
//! on the step that just completed and hands the buffer to its next
//! resource with a callback that re-enters `advance`. A device death
//! supersedes in-flight buffers by bumping their attempt, and
//! `advance` checks the attempt once, before dispatching on the step.
//!
//! The legacy one-shot [`Shredder::chunk_stream`](crate::Shredder) API is now a thin
//! single-session convenience over this engine (see
//! [`crate::pipeline`]).
//!
//! # Examples
//!
//! Four tenants through one pipeline; each gets exactly the chunks a
//! sequential scan of its own stream produces:
//!
//! ```
//! use shredder_core::{ShredderConfig, ShredderEngine, SliceSource};
//! use shredder_rabin::{chunk_all, ChunkParams};
//!
//! let streams: Vec<Vec<u8>> = (0..4u64)
//!     .map(|s| {
//!         (0..256u32 << 10)
//!             .map(|i| ((i as u64 * 2654435761 + s * 97) >> 9) as u8)
//!             .collect()
//!     })
//!     .collect();
//!
//! let mut engine =
//!     ShredderEngine::new(ShredderConfig::gpu_streams_memory().with_buffer_size(64 << 10));
//! for s in &streams {
//!     engine.open_session(SliceSource::new(s));
//! }
//! let outcome = engine.run().unwrap();
//!
//! for (session, data) in outcome.sessions.iter().zip(&streams) {
//!     assert_eq!(session.chunks, chunk_all(data, &ChunkParams::paper()));
//! }
//! assert!(outcome.report.aggregate_gbps() > 0.0);
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use serde::{Deserialize, Serialize};
use shredder_des::{BandwidthChannel, Dur, FifoServer, SimTime, Simulation, TimeSeries};
use shredder_gpu::calibration;
use shredder_gpu::hostmem::{HostAllocModel, HostMemKind};
use shredder_gpu::kernel::{ChunkKernel, KernelVariant};
use shredder_gpu::pool::{BufferJob, DevicePool, PooledDevice};
use shredder_rabin::boundary::parallel_raw_cuts;
use shredder_rabin::chunker::cuts_to_chunks;
use shredder_rabin::{Chunk, RawCut};
use shredder_telemetry::{ArgValue, Lane, TelemetryReport, TraceRecorder};

use crate::bufpool::{BufferPool, PooledBuf};
use crate::config::{HostCores, ShredderConfig};
use crate::error::ChunkError;
use crate::fault::{FaultKind, FaultReport};
use crate::report::{
    percentile, BufferTimeline, ClassLatency, DeviceReport, EngineReport, RequestReport,
    ServiceReport, SessionReport, StageBusy, StageReport,
};
use crate::session::{ChunkSession, SessionId, SessionOutcome};
use crate::sink::{ChunkSink, StageSpec};
use crate::source::StreamSource;
use crate::workload::{AdmissionControl, ArrivalSchedule, TenantClass, Workload};

/// How the shared admission slots are handed to sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// One buffer per session per turn, skipping exhausted sessions.
    /// The fair default for equal tenants.
    RoundRobin,
    /// Deficit round-robin: a session with weight `w` may admit up to
    /// `w` buffers per turn. Weight 0 is treated as 1.
    Weighted,
    /// Drain sessions in open order — the legacy one-stream-at-a-time
    /// behaviour, kept for comparisons.
    SessionOrder,
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionPolicy::RoundRobin => f.write_str("round-robin"),
            AdmissionPolicy::Weighted => f.write_str("weighted"),
            AdmissionPolicy::SessionOrder => f.write_str("session-order"),
        }
    }
}

/// How sessions are sharded across the device pool (`gpus > 1`).
///
/// Placement is per *session*, not per buffer: a stream's buffers all
/// run on one device, so its chunks stay bit-identical to a sequential
/// scan regardless of pool size. An explicit pin
/// ([`ShredderEngine::open_pinned_session`]) always wins over the
/// policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Each session goes to the device with the least bytes assigned so
    /// far (ties to the lowest index). The default: balances by load,
    /// not by session count.
    LeastLoaded,
    /// Unpinned sessions rotate across devices in open order.
    RoundRobin,
    /// Only explicit pins place sessions; unpinned sessions fall back
    /// to least-loaded. Use when tenants own devices.
    Pinned,
}

impl std::fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementPolicy::LeastLoaded => f.write_str("least-loaded"),
            PlacementPolicy::RoundRobin => f.write_str("round-robin"),
            PlacementPolicy::Pinned => f.write_str("pinned"),
        }
    }
}

/// Fixed-point scale for straggler-aware placement weights: parts per
/// million, so `f64` slowdown factors become exact integer weights and
/// device ordering never depends on float rounding.
const PPM: u64 = 1_000_000;

/// Shards sessions across a (possibly) degraded pool of `gpus`
/// devices: explicit pins first-class, the policy decides the rest,
/// deterministic in open order. `dead` devices take no new sessions
/// and `slowdown_ppm` scales each device's projected completion
/// (`(load + bytes) × slowdown`), so LeastLoaded provably routes
/// around stragglers known at placement time. With every device alive
/// at factor 1.0 the choice reduces exactly to the legacy
/// `(load, index)` ordering — healthy runs place identically.
fn place_sessions_degraded(
    plans: &[SessionPlan],
    gpus: usize,
    policy: PlacementPolicy,
    dead: &[bool],
    slowdown_ppm: &[u64],
) -> Vec<usize> {
    let mut load = vec![0u64; gpus];
    let mut rotor = 0usize;
    plans
        .iter()
        .map(|plan| {
            let device = match plan.pin {
                Some(pin) => pin,
                None => match policy {
                    PlacementPolicy::RoundRobin => loop {
                        let d = rotor % gpus;
                        rotor += 1;
                        if !dead[d] {
                            break d;
                        }
                    },
                    PlacementPolicy::LeastLoaded | PlacementPolicy::Pinned => {
                        (0..gpus)
                            .filter(|&d| !dead[d])
                            .min_by_key(|&d| {
                                ((load[d] + plan.bytes) as u128 * slowdown_ppm[d] as u128, d)
                            })
                            // shredder-lint: allow(R5) — gpus >= 1 and at least one survivor are enforced by ShredderConfig::validate
                            .expect("at least one device alive")
                    }
                },
            };
            load[device] += plan.bytes;
            device
        })
        .collect()
}

/// The result of an engine run: per-session chunks plus the aggregate
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutcome {
    /// Per-session chunk outcomes, in open order.
    pub sessions: Vec<SessionOutcome>,
    /// The aggregate engine report (per-session reports inside).
    pub report: EngineReport,
}

/// One pipeline buffer's pre-computed (functional) work.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlannedBuffer {
    /// Bytes owned by this buffer.
    pub(crate) bytes: u64,
    /// Raw cuts owned by this buffer (drives the D2H + Store cost).
    pub(crate) cut_count: u64,
    /// Simulated kernel duration.
    pub(crate) kernel_dur: Dur,
}

/// A fully planned session, ready for the shared timing pass.
pub(crate) struct SessionPlan {
    pub(crate) name: String,
    pub(crate) weight: u32,
    /// Tenant-class index (0 = the default class).
    pub(crate) class: usize,
    /// Explicit device pin, if the session requested one.
    pub(crate) pin: Option<usize>,
    pub(crate) bytes: u64,
    /// Raw cuts at stream-absolute offsets, in stream order. Each cut
    /// carries the strictness tag its boundary kernel assigned, so the
    /// store-thread policy pass can replay FastCDC normalization.
    pub(crate) cuts: Vec<RawCut>,
    pub(crate) buffers: Vec<PlannedBuffer>,
}

/// A tenant class resolved for one simulation run.
#[derive(Debug, Clone)]
pub(crate) struct ClassRuntime {
    pub(crate) name: String,
    pub(crate) weight: u32,
    /// Ingest bandwidth cap: when set, all reads of this class's
    /// sessions pass through one shared class link of this bandwidth
    /// before the SAN reader.
    pub(crate) ingest_bw: Option<f64>,
}

impl ClassRuntime {
    /// The implicit class every legacy session belongs to.
    pub(crate) fn default_class() -> Self {
        ClassRuntime {
            name: "default".into(),
            weight: 1,
            ingest_bw: None,
        }
    }
}

impl From<&TenantClass> for ClassRuntime {
    fn from(c: &TenantClass) -> Self {
        ClassRuntime {
            name: c.name.clone(),
            weight: c.weight,
            ingest_bw: c.ingest_bw,
        }
    }
}

/// The session-based multi-stream chunking engine.
pub struct ShredderEngine<'a> {
    config: ShredderConfig,
    kernel: ChunkKernel,
    policy: AdmissionPolicy,
    sessions: Vec<ChunkSession<'a>>,
    pool: BufferPool,
}

impl<'a> ShredderEngine<'a> {
    /// Creates an engine from a pipeline configuration. Sessions are
    /// opened with [`open_session`](Self::open_session) and run together
    /// with [`run`](Self::run).
    pub fn new(config: ShredderConfig) -> Self {
        let kernel = ChunkKernel::new(config.params.clone(), config.kernel);
        ShredderEngine {
            config,
            kernel,
            policy: AdmissionPolicy::RoundRobin,
            sessions: Vec::new(),
            pool: BufferPool::new(),
        }
    }

    /// The buffer pool backing this engine's host-side scan and
    /// retention buffers. After the first session of a given shape, the
    /// planning hot loop leases every buffer from here — the pool's
    /// allocation counter staying flat across sessions is the
    /// steady-state zero-allocation property.
    pub fn buffer_pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Sets the admission policy (default: round-robin).
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The engine configuration.
    pub fn config(&self) -> &ShredderConfig {
        &self.config
    }

    /// The admission policy.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Number of sessions currently open.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Opens a session for `source` with weight 1 and a generated name.
    pub fn open_session(&mut self, source: impl StreamSource + 'a) -> SessionId {
        let n = self.sessions.len();
        self.open_named_session(format!("session-{n}"), 1, source)
    }

    /// Opens a named, weighted session. The weight only matters under
    /// [`AdmissionPolicy::Weighted`].
    pub fn open_named_session(
        &mut self,
        name: impl Into<String>,
        weight: u32,
        source: impl StreamSource + 'a,
    ) -> SessionId {
        let id = SessionId(self.sessions.len());
        self.sessions.push(ChunkSession {
            id,
            name: name.into(),
            weight,
            class: 0,
            pin: None,
            source: Box::new(source),
            sink: None,
        });
        id
    }

    /// Opens a session pinned to one pool device: its buffers run on
    /// `device` regardless of the [`PlacementPolicy`]. The pin is
    /// validated against the configured pool size at
    /// [`run`](Self::run).
    pub fn open_pinned_session(
        &mut self,
        name: impl Into<String>,
        weight: u32,
        device: usize,
        source: impl StreamSource + 'a,
    ) -> SessionId {
        let id = SessionId(self.sessions.len());
        self.sessions.push(ChunkSession {
            id,
            name: name.into(),
            weight,
            class: 0,
            pin: Some(device),
            source: Box::new(source),
            sink: None,
        });
        id
    }

    /// Opens a request session on behalf of the service frontend: a
    /// named, weighted, *classed* session with an optional sink. The
    /// class index is resolved by
    /// [`ShredderService`](crate::ShredderService) against its tenant
    /// table.
    pub(crate) fn open_service_session(
        &mut self,
        name: impl Into<String>,
        weight: u32,
        class: usize,
        source: Box<dyn StreamSource + 'a>,
        sink: Option<Box<dyn ChunkSink + 'a>>,
    ) -> SessionId {
        let id = SessionId(self.sessions.len());
        self.sessions.push(ChunkSession {
            id,
            name: name.into(),
            weight,
            class,
            pin: None,
            source,
            sink,
        });
        id
    }

    /// Opens a session whose chunks feed a downstream [`ChunkSink`]: the
    /// sink's stages execute inside the shared simulation with their own
    /// service times and queues, and the session's admission slots are
    /// held until its buffers clear the *last* stage — a slow sink
    /// backpressures the kernel FIFO.
    ///
    /// Pass `&mut sink` to keep ownership and read the sink's functional
    /// results (digests, dedup verdicts) after [`run`](Self::run); the
    /// engine must be dropped first to release the borrow.
    pub fn open_sink_session(
        &mut self,
        name: impl Into<String>,
        weight: u32,
        source: impl StreamSource + 'a,
        sink: impl ChunkSink + 'a,
    ) -> SessionId {
        let id = SessionId(self.sessions.len());
        self.sessions.push(ChunkSession {
            id,
            name: name.into(),
            weight,
            class: 0,
            pin: None,
            source: Box::new(source),
            sink: Some(Box::new(sink)),
        });
        id
    }

    /// Chunks every open session through one shared simulation and
    /// returns per-session chunks plus the aggregate report. Consumes
    /// the open sessions (the engine can then be reused).
    ///
    /// This is the degenerate closed-batch workload of the service
    /// frontend: every session "arrives" at `t = 0` and admission is
    /// unbounded, so nothing queues at the service level and nothing is
    /// shed — the chunks and digests are bit-identical to the
    /// pre-service engine.
    ///
    /// # Errors
    ///
    /// [`ChunkError::InvalidConfig`] for unusable chunking parameters,
    /// [`ChunkError::Gpu`] if a kernel launch fails. Errors from any
    /// session abort the whole run (no partial simulation is reported).
    pub fn run(&mut self) -> Result<EngineOutcome, ChunkError> {
        // The legacy report keeps its closed-batch shape: no service
        // frontend accounting (and none is built).
        let run = self.run_with_workload(
            &Workload::Batch,
            AdmissionControl::unbounded(),
            vec![ClassRuntime::default_class()],
            false,
        )?;
        // Unbounded admission never sheds, but if that invariant ever
        // broke the error now propagates instead of panicking mid-run.
        let sessions = run
            .outcomes
            .into_iter()
            .collect::<Result<Vec<_>, ChunkError>>()?;
        Ok(EngineOutcome {
            sessions,
            report: run.report,
        })
    }

    /// Runs every open session as a *request* under the given arrival
    /// workload and admission control — the open-loop service path
    /// behind [`ShredderService`](crate::ShredderService). Requests
    /// arrive inside the simulation, wait in the bounded admission
    /// queue, and are dispatched (or shed with
    /// [`ChunkError::Overloaded`]) by the control's policy.
    ///
    /// `with_service_report` controls whether the [`ServiceReport`] is
    /// assembled: the closed-batch [`run`](Self::run) path skips it (it
    /// would be discarded), the service frontend builds it.
    pub(crate) fn run_with_workload(
        &mut self,
        workload: &Workload,
        control: AdmissionControl,
        classes: Vec<ClassRuntime>,
        with_service_report: bool,
    ) -> Result<ServiceRun, ChunkError> {
        self.config.validate()?;
        // Validate before taking the sessions so a config error leaves
        // the queued sessions intact, like the validate() above.
        for session in &self.sessions {
            if let Some(pin) = session.pin {
                if pin >= self.config.gpus {
                    return Err(ChunkError::InvalidConfig(format!(
                        "session '{}' pinned to device {pin}, but the pool has {} device(s)",
                        session.name, self.config.gpus
                    )));
                }
            }
            if session.class >= classes.len() {
                return Err(ChunkError::InvalidConfig(format!(
                    "session '{}' uses tenant class {}, but only {} class(es) are defined",
                    session.name,
                    session.class,
                    classes.len()
                )));
            }
        }
        let sessions = std::mem::take(&mut self.sessions);
        let arrivals = workload.schedule(sessions.len());

        // Functional pass: real chunk boundaries per session. Sessions
        // with a payload-reading sink also retain their stream bytes so
        // the sink's functional half can see real payloads.
        let mut plans = Vec::with_capacity(sessions.len());
        let mut bindings = Vec::with_capacity(sessions.len());
        for session in sessions {
            let (plan, binding) = self.plan_session(session)?;
            plans.push(plan);
            bindings.push(binding);
        }

        // Store-thread pass, part 1: per-session min/max adjustment —
        // final chunks must exist *before* the timing pass so sink
        // stages know their per-buffer service demand. (The sink
        // functional pass itself is deferred into the simulation: it
        // runs when a request is *dispatched*, so shed requests never
        // touch shared sink state.)
        let chunk_sets: Vec<Vec<Chunk>> = plans
            .iter()
            .map(|plan| {
                let cuts = self.kernel.apply_policy(&plan.cuts, plan.bytes);
                cuts_to_chunks(&cuts, plan.bytes)
            })
            .collect();

        // Timing pass: one shared simulation for every session —
        // arrival events, the admission queue, the chunking pipeline
        // and the sink stages all on one virtual clock.
        let sim = simulate_service(
            &self.config,
            &plans,
            self.policy,
            &chunk_sets,
            ServiceInputs {
                arrivals,
                control,
                classes: &classes,
                bindings,
            },
        );

        let mut outcomes = Vec::with_capacity(plans.len());
        let mut reports = Vec::with_capacity(plans.len());
        let mut total_bytes = 0u64;
        let mut total_buffers = 0usize;
        for ((idx, plan), chunks) in plans.iter().enumerate().zip(chunk_sets) {
            let per = &sim.sessions[idx];
            if let Some(shed_at) = sim.service.shed[idx] {
                // The request never entered the pipeline: it did no
                // work and owns no chunks.
                reports.push(SessionReport {
                    id: idx,
                    name: plan.name.clone(),
                    weight: plan.weight,
                    device: sim.placement[idx],
                    kernel: self.config.kernel,
                    bytes: 0,
                    buffers: 0,
                    chunks: 0,
                    raw_cuts: 0,
                    first_admit: SimTime::ZERO,
                    completion: SimTime::ZERO,
                    makespan: Dur::ZERO,
                    queue_wait: Dur::ZERO,
                    kernel_time: Dur::ZERO,
                    sink_service: Dur::ZERO,
                    timeline: Vec::new(),
                });
                outcomes.push(Err(ChunkError::Overloaded {
                    queued: shed_at.saturating_since(sim.service.arrival[idx]),
                }));
                continue;
            }
            total_bytes += plan.bytes;
            total_buffers += plan.buffers.len();
            reports.push(SessionReport {
                id: idx,
                name: plan.name.clone(),
                weight: plan.weight,
                device: sim.placement[idx],
                kernel: self.config.kernel,
                bytes: plan.bytes,
                buffers: plan.buffers.len(),
                chunks: chunks.len(),
                raw_cuts: plan.cuts.len(),
                first_admit: per.first_admit,
                completion: per.completion,
                makespan: per.completion - per.first_admit,
                queue_wait: per.queue_wait,
                kernel_time: plan.buffers.iter().map(|b| b.kernel_dur).sum(),
                sink_service: sim.service.session_service[idx],
                timeline: per.timeline.clone(),
            });
            outcomes.push(Ok(SessionOutcome {
                id: SessionId(idx),
                name: plan.name.clone(),
                chunks,
            }));
        }

        let makespan = sim.end.saturating_since(SimTime::ZERO);
        let devices = sim
            .devices
            .iter()
            .enumerate()
            .map(|(id, d)| DeviceReport {
                id,
                sessions: sim.placement.iter().filter(|&&p| p == id).count(),
                buffers: d.buffers,
                bytes: d.bytes,
                transfer_busy: d.transfer_busy,
                kernel_busy: d.kernel_busy,
                return_busy: d.return_busy,
                busy_span: d.busy_span,
                utilization: if makespan.is_zero() {
                    0.0
                } else {
                    d.kernel_busy.as_secs_f64() / makespan.as_secs_f64()
                },
                overlap: d.overlap,
            })
            .collect();

        let service = with_service_report
            .then(|| build_service_report(&plans, &classes, &sim.service, makespan));
        let report = EngineReport {
            queue_wait: reports.iter().map(|r| r.queue_wait).sum(),
            sessions: reports,
            bytes: total_bytes,
            buffers: total_buffers,
            pipeline_depth: self.config.pipeline_depth,
            makespan,
            stage_busy: sim.stage_busy,
            devices,
            sink_stages: sim.stages,
            ring_setup: self.config.ring_setup(),
            service,
            faults: sim.faults,
            telemetry: sim.telemetry,
        };

        Ok(ServiceRun { outcomes, report })
    }

    /// Functional pass over one session: pull the stream one pipeline
    /// buffer at a time, keep a kernel-overlap byte carry so windows
    /// spanning buffer boundaries are found exactly once, and run the
    /// chunking kernel on each buffer. Kernel errors propagate. When the
    /// session has a payload-reading sink, the stream's bytes are
    /// retained alongside it so the sink's functional pass can
    /// hash/inspect real payloads.
    fn plan_session(
        &self,
        mut session: ChunkSession<'a>,
    ) -> Result<(SessionPlan, Option<SinkBinding<'a>>), ChunkError> {
        if let Some(host) = self.config.host_cores {
            return self.plan_host_session(session, host);
        }
        // The boundary kernel knows its own carry requirement: `window − 1`
        // bytes for Rabin, `GEAR_WINDOW − 1` for Gear.
        let overlap = self.kernel.overlap();
        let size = self.config.buffer_size;
        // Retain the stream only when the sink actually reads payloads:
        // boundary-only sinks (the legacy upcall path) stay zero-copy.
        let retain = session.sink.as_ref().is_some_and(|s| s.needs_payload());

        let mut cuts: Vec<RawCut> = Vec::new();
        let mut buffers: Vec<PlannedBuffer> = Vec::new();
        let mut start: u64 = 0;
        // One reused scan buffer, leased from the engine pool:
        // `[carry][current buffer]`. The carry — the last `overlap`
        // bytes already scanned — is shifted to the front and the source
        // reads into the tail, so no per-buffer allocation or second
        // copy happens, and repeat sessions of the same shape allocate
        // nothing at all. Leased before `retained` so the sized request
        // gets best-fit first and the open-ended one takes what's left.
        let mut scan = self.pool.get(overlap + size);
        let mut retained = self.pool.with_capacity(if retain {
            session.source.size_hint().unwrap_or(0) as usize
        } else {
            0
        });
        let mut carry_len = 0usize;

        loop {
            let mut filled = 0usize;
            while filled < size {
                let n = session
                    .source
                    .read(&mut scan[carry_len + filled..carry_len + size]);
                if n == 0 {
                    break;
                }
                filled += n;
            }
            if filled == 0 {
                break;
            }
            if retain {
                retained.extend_from_slice(&scan[carry_len..carry_len + filled]);
            }

            // Scan carry + buffer so boundary-spanning windows are seen.
            let out = self
                .kernel
                .run(&self.config.device, &scan[..carry_len + filled])?;

            let scan_base = start - carry_len as u64;
            let before = cuts.len();
            cuts.extend(
                out.raw_cuts
                    .iter()
                    .map(|c| RawCut {
                        offset: c.offset + scan_base,
                        strict: c.strict,
                    })
                    .filter(|c| c.offset > start),
            );
            buffers.push(PlannedBuffer {
                bytes: filled as u64,
                cut_count: (cuts.len() - before) as u64,
                kernel_dur: out.stats.duration,
            });

            // Keep the last `window − 1` scanned bytes for the next buffer.
            start += filled as u64;
            let total = carry_len + filled;
            let keep = overlap.min(total);
            scan.copy_within(total - keep..total, 0);
            carry_len = keep;
        }

        let binding = session.sink.map(|sink| SinkBinding {
            sink,
            data: retained,
        });
        Ok((
            SessionPlan {
                name: session.name,
                weight: session.weight,
                class: session.class,
                pin: session.pin,
                bytes: start,
                cuts,
                buffers,
            },
            binding,
        ))
    }

    /// Functional pass over one session on host cores (§5.1): read the
    /// stream into one resident copy, scan it on `threads` OS threads
    /// (SPMD regions with the kernel's overlap, merged in region order,
    /// so the cuts equal a sequential scan), and split the cuts and the
    /// kernel time over pipeline buffers. A sink shares the copy.
    fn plan_host_session(
        &self,
        mut session: ChunkSession<'a>,
        host: HostCores,
    ) -> Result<(SessionPlan, Option<SinkBinding<'a>>), ChunkError> {
        let mut data = self
            .pool
            .with_capacity(session.source.size_hint().unwrap_or(0) as usize);
        let mut scratch = self.pool.get(self.config.buffer_size.min(1 << 20));
        loop {
            let n = session.source.read(&mut scratch);
            if n == 0 {
                break;
            }
            data.extend_from_slice(&scratch[..n]);
        }
        let cuts = parallel_raw_cuts(&*self.kernel.boundary(), &data, host.threads);

        // A buffer owns the cuts in (its start, its end], and its share
        // of the scan at the threads' rate.
        let (len, size) = (data.len() as u64, self.config.buffer_size as u64);
        let mut owned = cuts.iter().peekable();
        let buffers = (0..len.div_ceil(size))
            .map(|i| {
                let end = ((i + 1) * size).min(len);
                let bytes = end - i * size;
                let mut cut_count = 0;
                while owned.next_if(|c| c.offset <= end).is_some() {
                    cut_count += 1;
                }
                PlannedBuffer {
                    bytes,
                    cut_count,
                    kernel_dur: Dur::from_bytes_at(bytes, host.bandwidth()),
                }
            })
            .collect();
        let binding = session.sink.map(|sink| SinkBinding { sink, data });
        Ok((
            SessionPlan {
                name: session.name,
                weight: session.weight,
                class: session.class,
                pin: session.pin,
                bytes: len,
                cuts,
                buffers,
            },
            binding,
        ))
    }

    /// Shares `pool` for the scan and retention buffers, so a caller
    /// opening engine after engine keeps one steady-state pool.
    pub(crate) fn with_buffer_pool(mut self, pool: BufferPool) -> Self {
        self.pool = pool;
        self
    }

    /// Timing-only run over pre-planned sessions — the experiment
    /// harness path (buffer sweeps reuse measured kernel durations
    /// instead of re-running the functional scan).
    pub(crate) fn simulate_planned(&self, plans: &[SessionPlan]) -> SimResult {
        let chunk_sets = vec![Vec::new(); plans.len()];
        simulate_service(
            &self.config,
            plans,
            self.policy,
            &chunk_sets,
            ServiceInputs {
                arrivals: ArrivalSchedule::Open(vec![SimTime::ZERO; plans.len()]),
                control: AdmissionControl::unbounded(),
                classes: &[ClassRuntime::default_class()],
                bindings: plans.iter().map(|_| None).collect(),
            },
        )
    }
}

/// The result of a service-frontend run: one outcome per request
/// (`Err(Overloaded)` for shed requests) plus the engine report with
/// its [`ServiceReport`] attached.
pub(crate) struct ServiceRun {
    pub(crate) outcomes: Vec<Result<SessionOutcome, ChunkError>>,
    pub(crate) report: EngineReport,
}

/// A session's sink plus the stream bytes retained for its functional
/// pass. The bytes are a pooled lease: chunk verdicts reference them as
/// `(offset, len)` ranges, and the buffer returns to the engine pool
/// when the binding is consumed.
pub(crate) struct SinkBinding<'a> {
    sink: Box<dyn ChunkSink + 'a>,
    data: PooledBuf,
}

/// One buffer's downstream work: `(global stage index, service)` per
/// stage, in stage order.
type BufferSinkWork = Vec<(usize, Dur)>;

/// The inputs that turn a plain engine simulation into a *service*
/// simulation: when each request arrives, how admission is controlled,
/// which tenant classes exist, and the (deferred) sink bindings.
pub(crate) struct ServiceInputs<'s, 'a> {
    pub(crate) arrivals: ArrivalSchedule,
    pub(crate) control: AdmissionControl,
    pub(crate) classes: &'s [ClassRuntime],
    /// Per-session sink bindings. Their functional pass runs when the
    /// request is dispatched (in dispatch order), never for shed
    /// requests.
    pub(crate) bindings: Vec<Option<SinkBinding<'a>>>,
}

impl std::fmt::Debug for ShredderEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShredderEngine")
            .field("config", &self.config)
            .field("policy", &self.policy)
            .field("sessions", &self.sessions.len())
            .finish()
    }
}

/// Per-session timing produced by the shared simulation.
pub(crate) struct SessionSim {
    pub(crate) first_admit: SimTime,
    pub(crate) completion: SimTime,
    pub(crate) queue_wait: Dur,
    pub(crate) timeline: Vec<BufferTimeline>,
}

/// Per-device timing produced by the shared simulation.
pub(crate) struct DeviceSim {
    pub(crate) buffers: u64,
    pub(crate) bytes: u64,
    pub(crate) transfer_busy: Dur,
    pub(crate) kernel_busy: Dur,
    pub(crate) return_busy: Dur,
    pub(crate) busy_span: Dur,
    /// Fraction of DMA time hidden behind kernel execution.
    pub(crate) overlap: f64,
}

/// Service-frontend timing produced by the shared simulation.
#[derive(Default)]
pub(crate) struct ServiceSimOut {
    pub(crate) arrival: Vec<SimTime>,
    pub(crate) admit: Vec<Option<SimTime>>,
    pub(crate) first_chunk: Vec<Option<SimTime>>,
    pub(crate) done: Vec<Option<SimTime>>,
    pub(crate) shed: Vec<Option<SimTime>>,
    /// Admission queue depth sampled at every arrival/dispatch/shed.
    pub(crate) depth_points: Vec<(SimTime, f64)>,
    pub(crate) max_depth: usize,
    /// Total downstream sink service demand per session (zero for
    /// sink-less and shed sessions).
    pub(crate) session_service: Vec<Dur>,
}

/// The shared simulation's output.
pub(crate) struct SimResult {
    pub(crate) sessions: Vec<SessionSim>,
    /// Session → pool device, in open order.
    pub(crate) placement: Vec<usize>,
    pub(crate) devices: Vec<DeviceSim>,
    pub(crate) stage_busy: StageBusy,
    pub(crate) stages: Vec<StageReport>,
    pub(crate) end: SimTime,
    pub(crate) service: ServiceSimOut,
    pub(crate) faults: FaultReport,
    /// `Some` only when the config enabled telemetry.
    pub(crate) telemetry: Option<TelemetryReport>,
}

/// Fault state of a run. Only allocated when the config carries a
/// non-empty [`FaultPlan`](crate::FaultPlan) — fault-free runs take the
/// exact pre-fault code path.
struct FaultRt {
    /// Current attempt of each `[session][buffer]`. A device death
    /// requeues in-flight buffers by bumping their attempt; events
    /// belonging to a superseded attempt (work orphaned on the dead
    /// device) fail the check in [`advance`] and have no effect.
    attempt: Vec<Vec<u32>>,
    /// Which `[session][buffer]`s are currently in flight (admitted by
    /// the buffer scheduler, not yet completed through the sink chain).
    inflight: Vec<Vec<bool>>,
    report: FaultReport,
}

/// Fair choice among FIFO queues — the one picker behind both admission
/// layers: buffers (one queue of buffer indices per session) and
/// requests (one queue of request ids per tenant class).
struct FairPicker {
    policy: AdmissionPolicy,
    queues: Vec<VecDeque<usize>>,
    weights: Vec<u32>,
    credits: Vec<u32>,
    cursor: usize,
}

impl FairPicker {
    /// One empty queue per weight.
    fn new(policy: AdmissionPolicy, weights: Vec<u32>) -> Self {
        FairPicker {
            policy,
            queues: vec![VecDeque::new(); weights.len()],
            credits: weights.iter().map(|w| (*w).max(1)).collect(),
            weights,
            cursor: 0,
        }
    }

    /// The first non-empty queue at or after the cursor that `eligible`
    /// accepts.
    fn scan(&self, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        let n = self.queues.len();
        (0..n)
            .map(|k| (self.cursor + k) % n)
            .find(|&q| !self.queues[q].is_empty() && eligible(q))
    }

    /// Chooses a queue and pops its head: `(queue, head)`, or `None`
    /// when every queue is empty. `SessionOrder` takes the non-empty
    /// queue whose `key(queue, head)` is smallest, `RoundRobin` rotates
    /// one item per queue per turn, and `Weighted` is deficit
    /// round-robin: up to `weight` items (0 counts as 1) per turn.
    fn pick<K: Ord>(&mut self, key: impl Fn(usize, usize) -> K) -> Option<(usize, usize)> {
        let n = self.queues.len();
        let q = match self.policy {
            AdmissionPolicy::SessionOrder => {
                (0..n)
                    .filter_map(|q| self.queues[q].front().map(|&head| (key(q, head), q)))
                    .min()?
                    .1
            }
            AdmissionPolicy::RoundRobin => {
                let q = self.scan(|_| true)?;
                self.cursor = (q + 1) % n;
                q
            }
            AdmissionPolicy::Weighted => {
                let q = match self.scan(|q| self.credits[q] > 0) {
                    Some(q) => q,
                    None => {
                        // Quantum exhausted everywhere: refill pending
                        // queues for the next round.
                        for q in 0..n {
                            if !self.queues[q].is_empty() {
                                self.credits[q] = self.weights[q].max(1);
                            }
                        }
                        self.scan(|q| self.credits[q] > 0)?
                    }
                };
                self.credits[q] -= 1;
                if self.credits[q] == 0 {
                    self.cursor = (q + 1) % n;
                }
                q
            }
        };
        let head = self.queues[q].pop_front()?;
        Some((q, head))
    }
}

/// Everything a run mutates, behind the one `RefCell` of [`Run`].
struct RunState {
    /// Buffer-level admission: per-session queues of buffer indices not
    /// yet admitted. They start empty — a session's buffers only become
    /// schedulable when the service dispatches it.
    buffer_queue: FairPicker,
    /// Buffers admitted and not yet through their last sink stage.
    in_flight: usize,
    /// When each session's current head-of-line buffer became head.
    head_since: Vec<SimTime>,
    first_admit: Vec<Option<SimTime>>,
    completion: Vec<SimTime>,
    queue_wait: Vec<Dur>,
    timelines: Vec<Vec<BufferTimeline>>,
    /// Request-level admission: per-tenant-class queues of waiting
    /// request ids.
    request_queue: FairPicker,
    /// Requests currently waiting across all class queues.
    waiting: usize,
    /// Requests currently dispatched (chunking) — bounded by the slots.
    running: usize,
    /// Buffers not yet completed per session (completion detector).
    remaining: Vec<usize>,
    /// The request timestamps and queue-depth samples of the report.
    service: ServiceSimOut,
    /// `None` when the fault plan is empty.
    faults: Option<FaultRt>,
    /// Per-stage (queue wait, jobs) accounting.
    stage_acct: Vec<(Dur, u64)>,
    /// `[session][buffer]` → `(stage index, service)` downstream work,
    /// filled in by the deferred sink pass at dispatch.
    sink_work: Vec<Vec<BufferSinkWork>>,
    /// Requests dispatched by the current event whose deferred sink
    /// functional pass the driver loop must run before the next event.
    pending_sinks: VecDeque<usize>,
    /// Session → pool device. A device death re-places its sessions
    /// onto survivors, so devices are resolved from here at each step.
    placement: Vec<usize>,
}

impl RunState {
    fn sample_depth(&mut self, now: SimTime) {
        self.service.depth_points.push((now, self.waiting as f64));
        self.service.max_depth = self.service.max_depth.max(self.waiting);
    }

    /// Admits the next `(session, buffer)` while fewer than `depth`
    /// buffers are in flight, updating queue-wait accounting.
    fn admit_buffer(&mut self, depth: usize, now: SimTime) -> Option<(usize, usize)> {
        if self.in_flight >= depth {
            return None;
        }
        let (sid, bidx) = self.buffer_queue.pick(|sid, _| sid)?;
        self.in_flight += 1;
        self.queue_wait[sid] += now.saturating_since(self.head_since[sid]);
        self.head_since[sid] = now;
        self.first_admit[sid].get_or_insert(now);
        self.timelines[sid][bidx].read_start = now;
        Some((sid, bidx))
    }

    /// The current attempt of one buffer (0 on the fault-free path,
    /// where attempts never advance).
    fn attempt_of(&self, sid: usize, bidx: usize) -> u32 {
        self.faults.as_ref().map_or(0, |f| f.attempt[sid][bidx])
    }

    /// Tracks whether a buffer is in flight (only when faults are
    /// armed; death handling requeues exactly the in-flight set).
    fn note_inflight(&mut self, sid: usize, bidx: usize, v: bool) {
        if let Some(f) = &mut self.faults {
            f.inflight[sid][bidx] = v;
        }
    }

    /// The `k`-th downstream stage job of one buffer, or `None` once
    /// its sink work (possibly empty) is exhausted.
    fn work_at(&self, sid: usize, bidx: usize, k: usize) -> Option<(usize, Dur)> {
        self.sink_work
            .get(sid)
            .and_then(|s| s.get(bidx))
            .and_then(|work| work.get(k))
            .copied()
    }
}

/// One run: the immutable resources and admission bounds plus the
/// mutable [`RunState`], shared by every event through one `Rc`.
struct Run {
    reader: BandwidthChannel,
    /// Per-tenant-class ingest links (`None` = uncapped class): a
    /// class's reads funnel through its link before the shared SAN
    /// reader.
    class_links: Vec<Option<BandwidthChannel>>,
    /// Session → tenant class.
    class_of: Vec<usize>,
    prep: FifoServer,
    store: FifoServer,
    pool: DevicePool,
    /// Shared downstream sink stage servers (one per global stage name).
    stage_servers: Vec<FifoServer>,
    /// Engine-global sink stage names, for stage-lane span labels.
    stage_names: Vec<&'static str>,
    buffers: Vec<Vec<PlannedBuffer>>,
    host_kind: HostMemKind,
    /// Which boundary kernel the run's buffer durations were planned
    /// with — stamped on every [`BufferJob`] for per-device accounting.
    variant: KernelVariant,
    /// Whether buffers stage through per-device pinned-ring slots (held
    /// from SAN read through H2D — exhaustion backpressures admission).
    pinned_ring: bool,
    prep_time: Dur,
    /// Buffers in flight at once across all sessions.
    pipeline_depth: usize,
    /// Requests chunking at once.
    slots: usize,
    queue_depth: Option<usize>,
    max_queue_delay: Option<Dur>,
    /// Closed-loop chaining: the next request of the same client, issued
    /// `think` after this one completes or is shed.
    next_req: Vec<Option<usize>>,
    think: Dur,
    /// Telemetry recorder; `None` when telemetry is off (the
    /// zero-overhead path — nothing allocated, nothing recorded).
    /// Recording is passive: it schedules no events and reads no clock
    /// of its own, so an attached recorder never perturbs timing.
    trace: Option<Rc<RefCell<TraceRecorder>>>,
    st: RefCell<RunState>,
}

impl Run {
    /// The device a session is currently placed on.
    fn device(&self, sid: usize) -> &PooledDevice {
        let d = self.st.borrow().placement[sid];
        self.pool.device(d)
    }

    /// Records one completed sink-stage job: its queue wait, and with
    /// telemetry on a service span on the stage's lane.
    fn note_stage_done(&self, now: SimTime, sid: usize, bidx: usize, k: usize, since: SimTime) {
        let Some((stage, service)) = self.st.borrow().work_at(sid, bidx, k) else {
            return;
        };
        let wait = now.saturating_since(since).saturating_sub(service);
        {
            let acct = &mut self.st.borrow_mut().stage_acct[stage];
            acct.0 += wait;
            acct.1 += 1;
        }
        if let Some(trace) = &self.trace {
            // The FIFO stage server serializes its jobs, so service
            // spans on one stage lane never overlap; the queue wait
            // (which *can* overlap) rides along as an arg and a
            // histogram instead of a span.
            let name = self.stage_names[stage];
            let start = SimTime::from_nanos(now.as_nanos().saturating_sub(service.as_nanos()));
            let mut t = trace.borrow_mut();
            t.span(
                Lane::Stage {
                    name: name.to_string(),
                },
                name,
                start,
                now,
                vec![
                    ("session", ArgValue::U64(sid as u64)),
                    ("queue_wait_ns", ArgValue::U64(wait.as_nanos())),
                ],
            );
            t.metrics_mut()
                .observe(&format!("shredder_stage_wait_ns:{name}"), wait.as_nanos());
            t.metrics_mut().observe(
                &format!("shredder_stage_service_ns:{name}"),
                service.as_nanos(),
            );
        }
    }
}

/// One request arrives at the service: it either joins the admission
/// queue (possibly with a shed timer) or — queue full — is shed on the
/// spot.
fn arrive(run: &Rc<Run>, sim: &mut Simulation, sid: usize) {
    let now = sim.now();
    {
        let mut st = run.st.borrow_mut();
        st.service.arrival[sid] = now;
        // The queue bound only applies to requests that would actually
        // wait: with a free dispatch slot the queue is necessarily
        // empty (try_dispatch drains it on every state change), so the
        // arrival goes straight through — even at queue_depth 0.
        if st.running >= run.slots && run.queue_depth.is_some_and(|depth| st.waiting >= depth) {
            drop(st);
            shed_request(run, sim, sid);
            return;
        }
        st.request_queue.queues[run.class_of[sid]].push_back(sid);
        st.waiting += 1;
        st.sample_depth(now);
    }
    if let Some(bound) = run.max_queue_delay {
        let r = run.clone();
        sim.schedule(bound, move |sim| queue_timeout(&r, sim, sid));
    }
    try_dispatch(run, sim);
}

/// The shed timer of one queued request fired: if it is still waiting,
/// it has now exceeded the queue-delay bound and is shed.
fn queue_timeout(run: &Rc<Run>, sim: &mut Simulation, sid: usize) {
    {
        let mut st = run.st.borrow_mut();
        if st.service.admit[sid].is_some() || st.service.shed[sid].is_some() {
            return;
        }
        st.request_queue.queues[run.class_of[sid]].retain(|&x| x != sid);
        st.waiting -= 1;
        st.sample_depth(sim.now());
    }
    shed_request(run, sim, sid);
}

/// Rejects one request with `Overloaded`: records the shed instant and
/// runs the post-request hooks (closed-loop clients think and retry
/// with their next request; freed capacity dispatches waiters).
fn shed_request(run: &Rc<Run>, sim: &mut Simulation, sid: usize) {
    run.st.borrow_mut().service.shed[sid] = Some(sim.now());
    if let Some(trace) = &run.trace {
        let mut t = trace.borrow_mut();
        t.instant(
            Lane::Control,
            "shed",
            sim.now(),
            vec![("session", ArgValue::U64(sid as u64))],
        );
        t.metrics_mut().incr("shredder_requests_shed");
    }
    after_request(run, sim, sid);
}

/// Post-request hooks shared by completion and shed: closed-loop
/// clients issue their next request after the think time, and freed
/// dispatch slots pull waiting requests in.
fn after_request(run: &Rc<Run>, sim: &mut Simulation, sid: usize) {
    if let Some(next) = run.next_req[sid] {
        let r = run.clone();
        sim.schedule(run.think, move |sim| arrive(&r, sim, next));
    }
    try_dispatch(run, sim);
}

/// Dispatches waiting requests while dispatch slots are free. Across
/// classes, `SessionOrder` is FIFO by `(arrival, request id)`.
fn try_dispatch(run: &Rc<Run>, sim: &mut Simulation) {
    let now = sim.now();
    loop {
        let sid = {
            let mut guard = run.st.borrow_mut();
            let st = &mut *guard;
            if st.running >= run.slots || st.waiting == 0 {
                break;
            }
            let arrival = &st.service.arrival;
            let Some((_, sid)) = st.request_queue.pick(|_, sid| (arrival[sid], sid)) else {
                break;
            };
            st.waiting -= 1;
            st.running += 1;
            st.service.admit[sid] = Some(now);
            st.sample_depth(now);
            sid
        };
        dispatch(run, sim, sid);
    }
}

/// Admits one request into the engine: queues its deferred sink pass
/// (run by the driver loop in dispatch order, so shared sink state
/// never sees shed requests) and makes its (already planned) buffers
/// visible to the buffer-level scheduler.
fn dispatch(run: &Rc<Run>, sim: &mut Simulation, sid: usize) {
    let now = sim.now();
    let nbuf = run.buffers[sid].len();
    {
        let mut st = run.st.borrow_mut();
        st.pending_sinks.push_back(sid);
        st.buffer_queue.queues[sid] = (0..nbuf).collect();
        st.head_since[sid] = now;
        if nbuf == 0 {
            // An empty stream completes the moment it is admitted.
            st.service.done[sid] = Some(now);
            st.running -= 1;
        }
    }
    if nbuf == 0 {
        after_request(run, sim, sid);
        return;
    }
    // Pump via the calendar so every same-instant dispatch enqueues its
    // buffers *before* the first admission decision — the batch
    // workload then round-robins across all sessions exactly like the
    // closed-batch engine did.
    let r = run.clone();
    sim.schedule_now(move |sim| pump(&r, sim));
}

/// Admits buffers until the shared slots are full, starting each one's
/// stage chain. Called at dispatch and again whenever a buffer
/// completes.
fn pump(run: &Rc<Run>, sim: &mut Simulation) {
    loop {
        let pick = run
            .st
            .borrow_mut()
            .admit_buffer(run.pipeline_depth, sim.now());
        let Some((sid, bidx)) = pick else { break };
        advance(run, sim, BufferRef::current(run, sid, bidx), Step::Admitted);
    }
}

/// One launch of one buffer: a device death requeues an in-flight
/// buffer under a new attempt, superseding the old chain.
#[derive(Clone, Copy)]
struct BufferRef {
    sid: usize,
    bidx: usize,
    attempt: u32,
}

impl BufferRef {
    /// The buffer at its current attempt.
    fn current(run: &Run, sid: usize, bidx: usize) -> Self {
        let attempt = run.st.borrow().attempt_of(sid, bidx);
        BufferRef { sid, bidx, attempt }
    }
}

/// What just happened to a buffer: each step names the completed event
/// that moves the buffer on to its next resource.
#[derive(Clone, Copy)]
enum Step {
    /// The buffer holds an admission slot: just admitted, or relaunched
    /// by a device-death requeue.
    Admitted,
    /// Host prep (a pageable allocation without the ring) finished.
    Prepped,
    /// A staging-ring slot on the device is held (or no ring is used).
    Staged,
    /// The class ingest link delivered the bytes (capped classes only).
    Linked,
    /// The SAN reader delivered the bytes.
    Read,
    /// H2D finished: the payload is resident on the device.
    Landed,
    /// The chunking kernel finished.
    Chunked,
    /// D2H of the boundary array finished.
    Returned,
    /// The Store thread finished the host-side adjustment and upcall.
    Stored,
    /// Sink stage `k` of the buffer finished; the job was enqueued at
    /// `since`.
    Sunk { k: usize, since: SimTime },
}

/// The callback that moves `buf` on at `step`.
fn then(run: &Rc<Run>, buf: BufferRef, step: Step) -> impl FnOnce(&mut Simulation) + 'static {
    let run = run.clone();
    move |sim| advance(&run, sim, buf, step)
}

/// One buffer's trip as a flat stage machine: admitted → prep → ring
/// slot → (class link →) read → device (lane → H2D → kernel → D2H,
/// event-chained on the device's stream triple) → store → the session's
/// sink stages (if any), then release the admission slot and pump
/// again. Because the slot is held until the *last* sink stage
/// completes, downstream stages backpressure admission (and with it the
/// kernel FIFO); because the ring slot is held from SAN read through
/// H2D, an exhausted staging ring does the same.
///
/// A device death supersedes a buffer's chain by bumping its attempt.
/// The attempt is checked once, here, before every step except
/// `Admitted` (whose attempt was just read) and `Linked` (a superseded
/// capped-class chain still queues its SAN read): a superseded chain
/// stops at its next checked step, and the resources it consumed model
/// work lost to the failure.
fn advance(run: &Rc<Run>, sim: &mut Simulation, buf: BufferRef, step: Step) {
    let BufferRef { sid, bidx, attempt } = buf;
    if !matches!(step, Step::Admitted | Step::Linked)
        && run.st.borrow().attempt_of(sid, bidx) != attempt
    {
        return;
    }
    let now = sim.now();
    let pb = run.buffers[sid][bidx];
    let next_sink_stage = match step {
        Step::Admitted => {
            run.st.borrow_mut().note_inflight(sid, bidx, true);
            run.prep
                .process(sim, run.prep_time, then(run, buf, Step::Prepped));
            None
        }
        Step::Prepped => {
            if run.pinned_ring {
                run.device(sid)
                    .ring()
                    .acquire(sim, 1, then(run, buf, Step::Staged));
            } else {
                advance(run, sim, buf, Step::Staged);
            }
            None
        }
        Step::Staged => {
            // A tenant class with an ingest cap funnels its reads
            // through the class link before the shared SAN reader.
            match &run.class_links[run.class_of[sid]] {
                Some(link) => link.transfer(sim, pb.bytes, then(run, buf, Step::Linked)),
                None => run
                    .reader
                    .transfer(sim, pb.bytes, then(run, buf, Step::Read)),
            }
            None
        }
        Step::Linked => {
            run.reader
                .transfer(sim, pb.bytes, then(run, buf, Step::Read));
            None
        }
        Step::Read => {
            run.st.borrow_mut().timelines[sid][bidx].read_end = now;
            let job = BufferJob {
                bytes: pb.bytes,
                // Boundary array back over PCIe after the kernel.
                cut_bytes: (pb.cut_count * 8).max(8),
                kernel: pb.kernel_dur,
                host: run.host_kind,
                variant: run.variant,
            };
            run.device(sid).submit(
                sim,
                job,
                then(run, buf, Step::Landed),
                then(run, buf, Step::Chunked),
                then(run, buf, Step::Returned),
            );
            None
        }
        Step::Landed => {
            // Payload resident on device: the staging slot is reusable
            // by the next reader.
            if run.pinned_ring {
                run.device(sid).ring().release(sim, 1);
            }
            run.st.borrow_mut().timelines[sid][bidx].transfer_end = now;
            None
        }
        Step::Chunked => {
            run.st.borrow_mut().timelines[sid][bidx].kernel_end = now;
            None
        }
        Step::Returned => {
            // Host-side adjustment + upcall.
            let host_time = Dur::from_nanos(
                calibration::HOST_STAGE_OVERHEAD_NS + pb.cut_count * calibration::STORE_PER_CUT_NS,
            );
            run.store
                .process(sim, host_time, then(run, buf, Step::Stored));
            None
        }
        Step::Stored => {
            let mut st = run.st.borrow_mut();
            st.timelines[sid][bidx].store_end = now;
            // First boundary delivery of this request — the "first
            // chunk" service timestamp.
            st.service.first_chunk[sid].get_or_insert(now);
            Some(0)
        }
        Step::Sunk { k, since } => {
            run.note_stage_done(now, sid, bidx, k, since);
            Some(k + 1)
        }
    };
    let Some(k) = next_sink_stage else { return };

    // Downstream: the buffer's next sink stage, or — its sink work
    // exhausted (immediately, without a sink) — completion.
    let work = run.st.borrow().work_at(sid, bidx, k);
    if let Some((stage, service)) = work {
        let step = Step::Sunk { k, since: now };
        run.stage_servers[stage].process(sim, service, then(run, buf, step));
        return;
    }
    let request_done = {
        let mut st = run.st.borrow_mut();
        st.note_inflight(sid, bidx, false);
        st.completion[sid] = now;
        st.in_flight -= 1;
        st.remaining[sid] -= 1;
        let done = st.remaining[sid] == 0;
        if done {
            st.service.done[sid] = Some(now);
            st.running -= 1;
        }
        done
    };
    if request_done {
        // A dispatch slot freed up: waiting requests (and, closed loop,
        // this client's next request) move.
        after_request(run, sim, sid);
    }
    pump(run, sim);
}

/// Applies one scheduled [`FaultKind`] to the running simulation.
///
/// *Straggler*: flips the device's slowdown factor — kernels submitted
/// from now on pay it (t = 0 stragglers additionally bias the initial
/// LeastLoaded placement).
///
/// *Death*: marks the device dead, re-places its unfinished sessions
/// onto the least-loaded (slowdown-weighted) survivors — ascending
/// session order, so the outcome is deterministic — and requeues their
/// in-flight buffers: each gets a bumped attempt and a fresh launch
/// (new SAN read, surviving device) while the orphaned chain fails the
/// attempt check in [`advance`] and dies without effect. A death that
/// would kill the last survivor is skipped and counted
/// (`deaths_skipped`): the engine never strands accepted work.
fn apply_fault(run: &Rc<Run>, sim: &mut Simulation, kind: FaultKind) {
    match kind {
        FaultKind::Straggler { device, slowdown } => {
            run.pool.device(device).set_slowdown(slowdown);
            if let Some(f) = &mut run.st.borrow_mut().faults {
                f.report.stragglers += 1;
            }
            if let Some(trace) = &run.trace {
                let mut t = trace.borrow_mut();
                t.instant(
                    Lane::Control,
                    "straggler",
                    sim.now(),
                    vec![
                        ("device", ArgValue::U64(device as u64)),
                        ("slowdown", ArgValue::F64(slowdown)),
                    ],
                );
                t.metrics_mut().incr("shredder_faults_stragglers");
            }
        }
        FaultKind::DeviceDeath { device } => {
            let gpus = run.pool.len();
            let alive = |d: usize| run.pool.device(d).is_alive();
            {
                let mut st = run.st.borrow_mut();
                let Some(f) = &mut st.faults else { return };
                if !alive(device) {
                    return; // Double kill: nothing left to take.
                }
                if (0..gpus).filter(|&d| alive(d)).count() <= 1 {
                    f.report.deaths_skipped += 1;
                    return;
                }
                f.report.device_deaths += 1;
            }
            run.pool.device(device).fail();
            if let Some(trace) = &run.trace {
                let mut t = trace.borrow_mut();
                t.instant(
                    Lane::Control,
                    "device-death",
                    sim.now(),
                    vec![("device", ArgValue::U64(device as u64))],
                );
                t.metrics_mut().incr("shredder_faults_device_deaths");
            }

            // Bytes still assigned per survivor, and the sessions to
            // move: those neither done nor shed, wherever they sit.
            let session_bytes: Vec<u64> = run
                .buffers
                .iter()
                .map(|bufs| bufs.iter().map(|b| b.bytes).sum())
                .collect();
            let mut load = vec![0u64; gpus];
            let mut victims = Vec::new();
            {
                let st = run.st.borrow();
                for (sid, &d) in st.placement.iter().enumerate() {
                    if st.service.done[sid].is_some() || st.service.shed[sid].is_some() {
                        continue;
                    }
                    if d == device {
                        victims.push(sid);
                    } else {
                        load[d] += session_bytes[sid];
                    }
                }
            }

            for sid in victims {
                let target = (0..gpus)
                    .filter(|&d| alive(d))
                    .min_by_key(|&d| {
                        let ppm = (run.pool.device(d).slowdown() * PPM as f64) as u64;
                        ((load[d] + session_bytes[sid]) as u128 * ppm as u128, d)
                    })
                    // shredder-lint: allow(R5) — the last-survivor guard above ensures at least one live device remains
                    .expect("at least one survivor");
                load[target] += session_bytes[sid];
                {
                    let mut st = run.st.borrow_mut();
                    st.placement[sid] = target;
                    if let Some(f) = &mut st.faults {
                        f.report.replaced_sessions += 1;
                    }
                }

                // Requeue the session's in-flight buffers in index
                // order; relaunches go through the calendar so this
                // handler finishes before any of them runs.
                for bidx in 0..run.buffers[sid].len() {
                    let requeue = {
                        let mut guard = run.st.borrow_mut();
                        let st = &mut *guard;
                        match &mut st.faults {
                            Some(f) if f.inflight[sid][bidx] => {
                                f.attempt[sid][bidx] += 1;
                                f.report.requeued_buffers += 1;
                                st.timelines[sid][bidx].read_start = sim.now();
                                true
                            }
                            _ => false,
                        }
                    };
                    if !requeue {
                        continue;
                    }
                    if let Some(trace) = &run.trace {
                        let mut t = trace.borrow_mut();
                        t.instant(
                            Lane::Control,
                            "requeue",
                            sim.now(),
                            vec![
                                ("session", ArgValue::U64(sid as u64)),
                                ("buffer", ArgValue::U64(bidx as u64)),
                                ("target", ArgValue::U64(target as u64)),
                            ],
                        );
                        t.metrics_mut().incr("shredder_faults_requeued_buffers");
                    }
                    let r = run.clone();
                    sim.schedule_now(move |sim| {
                        advance(&r, sim, BufferRef::current(&r, sid, bidx), Step::Admitted)
                    });
                }
            }
        }
    }
}

/// Runs the deferred sink functional pass of one freshly-dispatched
/// request: every final chunk is delivered to the sink (real payloads,
/// real digests/dedup decisions) and the per-buffer, per-stage service
/// demand lands in the run's sink work for the stage machine to
/// consume.
///
/// Runs *outside* the events (the driver loop below) so sinks can
/// borrow caller state; dispatch order is deterministic, so shared
/// sink state (a dedup index, a chunk store) sees the same sequence on
/// every replay — and never sees shed requests at all.
fn run_deferred_sink<'a>(
    run: &Run,
    bindings: &mut [Option<SinkBinding<'a>>],
    stage_map: &[Vec<usize>],
    plans: &[SessionPlan],
    chunk_sets: &[Vec<Chunk>],
    buffer_size: usize,
    sid: usize,
) {
    let Some(SinkBinding { mut sink, data }) = bindings[sid].take() else {
        return;
    };
    let nbuf = plans[sid].buffers.len();
    let (_, per_buffer) =
        crate::sink::drive_sink_functional(&mut *sink, &chunk_sets[sid], &data, nbuf, buffer_size);
    let map = &stage_map[sid];
    let mut st = run.st.borrow_mut();
    st.service.session_service[sid] = per_buffer.iter().flatten().copied().sum();
    st.sink_work[sid] = per_buffer
        .into_iter()
        .map(|services| {
            services
                .into_iter()
                .enumerate()
                .map(|(k, d)| (map[k], d))
                .collect()
        })
        .collect();
}

/// Runs all planned sessions through one shared simulation: arrival
/// events, the service-level admission queue, the chunking pipeline and
/// the downstream sink stages all on one virtual clock.
fn simulate_service<'a>(
    config: &ShredderConfig,
    plans: &[SessionPlan],
    policy: AdmissionPolicy,
    chunk_sets: &[Vec<Chunk>],
    inputs: ServiceInputs<'_, 'a>,
) -> SimResult {
    let mut sim = Simulation::new();

    // `ShredderEngine::run` rejects `gpus == 0` with `InvalidConfig`;
    // on the infallible analytic path (`simulate_synthetic`) the pool's
    // own non-empty assert fires instead of silently coercing to 1.
    let gpus = config.gpus;
    let pool = DevicePool::homogeneous(
        gpus,
        &config.device,
        config.twin_buffers,
        config.ring_slots(),
    );
    // Faults already in force at t = 0 are pre-existing conditions:
    // they bias the initial placement (LeastLoaded routes around known
    // stragglers and skips dead devices). Every fault event — t = 0
    // included — still fires in the calendar below, so the counters and
    // the pool's health always reflect the full plan.
    let mut dead0 = vec![false; gpus];
    let mut ppm0 = vec![PPM; gpus];
    for ev in &config.faults.events {
        if ev.at == Dur::ZERO {
            match ev.kind {
                FaultKind::DeviceDeath { device } => dead0[device] = true,
                FaultKind::Straggler { device, slowdown } => {
                    ppm0[device] = (slowdown * PPM as f64) as u64;
                }
            }
        }
    }
    let placement = place_sessions_degraded(plans, gpus, config.placement, &dead0, &ppm0);
    let faults = (!config.faults.is_empty()).then(|| FaultRt {
        attempt: plans.iter().map(|p| vec![0u32; p.buffers.len()]).collect(),
        inflight: plans.iter().map(|p| vec![false; p.buffers.len()]).collect(),
        report: FaultReport {
            injected: config.faults.len(),
            ..FaultReport::default()
        },
    });
    // Telemetry mirrors the fault runtime's contract: the recorder only
    // exists when the config asks for it, so a disabled run allocates
    // nothing and takes the exact pre-telemetry code path.
    let trace = config
        .telemetry
        .enabled
        .then(|| Rc::new(RefCell::new(TraceRecorder::new(&config.telemetry))));
    if let Some(t) = &trace {
        // Device-engine lanes: every completed H2D/kernel/D2H interval
        // lands in the trace alongside the pool's busy accounting.
        pool.attach_recorder(t);
    }

    // Without the ring, the host allocates a fresh pageable buffer every
    // iteration (§4.1.2's counterfactual). Host cores scan the bytes
    // where the reader lands them.
    let (host_kind, prep_time) = if config.host_cores.is_some() {
        (HostMemKind::Resident, Dur::ZERO)
    } else if config.pinned_ring {
        (HostMemKind::Pinned, Dur::ZERO)
    } else {
        let alloc = HostAllocModel::new().alloc_time(HostMemKind::Pageable, config.buffer_size);
        (HostMemKind::Pageable, alloc)
    };

    // Engine-global sink stage list (deduplicated by name across
    // sessions) plus each session's local → global stage map. Built
    // up-front from the sinks' stage descriptors; the per-buffer demand
    // arrives later via the deferred functional pass.
    let mut specs: Vec<StageSpec> = Vec::new();
    let stage_map: Vec<Vec<usize>> = inputs
        .bindings
        .iter()
        .map(|binding| match binding {
            Some(b) => b
                .sink
                .stages()
                .iter()
                .map(
                    |spec| match specs.iter().position(|s| s.name == spec.name) {
                        Some(i) => i,
                        None => {
                            specs.push(*spec);
                            specs.len() - 1
                        }
                    },
                )
                .collect(),
            None => Vec::new(),
        })
        .collect();

    let n = plans.len();
    let (clients, think) = match inputs.arrivals {
        ArrivalSchedule::Closed { clients, think } => (clients, think),
        // Open loop: no request follows another.
        ArrivalSchedule::Open(_) => (n, Dur::ZERO),
    };
    let run = Rc::new(Run {
        reader: BandwidthChannel::new(
            "san-reader",
            config.reader_bandwidth,
            Dur::from_nanos(calibration::READER_IO_LATENCY_NS),
        ),
        class_links: inputs
            .classes
            .iter()
            .map(|c| {
                c.ingest_bw
                    .map(|bw| BandwidthChannel::new(format!("ingest-{}", c.name), bw, Dur::ZERO))
            })
            .collect(),
        class_of: plans.iter().map(|p| p.class).collect(),
        prep: FifoServer::new("host-prep", 1),
        store: FifoServer::new("store-thread", 1),
        pool,
        stage_servers: specs
            .iter()
            .map(|s| FifoServer::new(s.name.to_string(), 1))
            .collect(),
        stage_names: specs.iter().map(|s| s.name).collect(),
        buffers: plans.iter().map(|p| p.buffers.clone()).collect(),
        host_kind,
        variant: config.kernel,
        pinned_ring: config.stages_through_ring(),
        prep_time,
        pipeline_depth: config.pipeline_depth,
        slots: inputs.control.slots.max(1),
        queue_depth: inputs.control.queue_depth,
        max_queue_delay: inputs.control.max_queue_delay,
        next_req: (0..n)
            .map(|sid| Some(sid + clients).filter(|&next| next < n))
            .collect(),
        think,
        trace,
        st: RefCell::new(RunState {
            buffer_queue: FairPicker::new(policy, plans.iter().map(|p| p.weight).collect()),
            in_flight: 0,
            head_since: vec![SimTime::ZERO; n],
            first_admit: vec![None; n],
            completion: vec![SimTime::ZERO; n],
            queue_wait: vec![Dur::ZERO; n],
            timelines: plans
                .iter()
                .map(|p| {
                    p.buffers
                        .iter()
                        .enumerate()
                        .map(|(i, b)| BufferTimeline {
                            index: i,
                            bytes: b.bytes as usize,
                            read_start: SimTime::ZERO,
                            read_end: SimTime::ZERO,
                            transfer_end: SimTime::ZERO,
                            kernel_end: SimTime::ZERO,
                            store_end: SimTime::ZERO,
                        })
                        .collect()
                })
                .collect(),
            request_queue: FairPicker::new(
                inputs.control.policy,
                inputs.classes.iter().map(|c| c.weight).collect(),
            ),
            waiting: 0,
            running: 0,
            remaining: plans.iter().map(|p| p.buffers.len()).collect(),
            service: ServiceSimOut {
                arrival: vec![SimTime::ZERO; n],
                admit: vec![None; n],
                first_chunk: vec![None; n],
                done: vec![None; n],
                shed: vec![None; n],
                depth_points: Vec::new(),
                max_depth: 0,
                session_service: vec![Dur::ZERO; n],
            },
            faults,
            stage_acct: vec![(Dur::ZERO, 0u64); specs.len()],
            sink_work: vec![Vec::new(); n],
            pending_sinks: VecDeque::new(),
            placement,
        }),
    });

    // Fault events enter the calendar before the arrivals, so a t = 0
    // fault precedes same-instant arrivals (the calendar breaks ties by
    // scheduling order). An empty plan schedules nothing at all — the
    // fault-free calendar is untouched.
    for ev in &config.faults.events {
        let r = run.clone();
        let kind = ev.kind;
        sim.schedule_at_or_now(SimTime::ZERO + ev.at, move |sim| apply_fault(&r, sim, kind));
    }

    // Arrival events enter the calendar up-front (open loop) or chain
    // off completions (closed loop, seeded with each client's first
    // request).
    let first_arrivals = match &inputs.arrivals {
        ArrivalSchedule::Open(times) => times.clone(),
        ArrivalSchedule::Closed { clients, .. } => vec![SimTime::ZERO; n.min(*clients)],
    };
    for (sid, at) in first_arrivals.into_iter().enumerate() {
        let r = run.clone();
        sim.schedule_at(at, move |sim| arrive(&r, sim, sid));
    }

    // The driver loop: between events, run the deferred sink passes of
    // requests dispatched by the event that just executed. The demands
    // are always ready before any of that request's buffers reach the
    // sink stage chain (a buffer must clear read → H2D → kernel → store
    // first, all strictly later in virtual time).
    let mut bindings = inputs.bindings;
    loop {
        loop {
            let next = run.st.borrow_mut().pending_sinks.pop_front();
            let Some(sid) = next else { break };
            run_deferred_sink(
                &run,
                &mut bindings,
                &stage_map,
                plans,
                chunk_sets,
                config.buffer_size,
                sid,
            );
        }
        if !sim.step() {
            break;
        }
    }

    let devices: Vec<DeviceSim> = run
        .pool
        .devices()
        .iter()
        .map(|d| DeviceSim {
            buffers: d.jobs(),
            bytes: d.bytes(),
            transfer_busy: d.transfer_busy(),
            kernel_busy: d.kernel_busy(),
            return_busy: d.d2h_busy(),
            busy_span: d.busy_span(),
            overlap: d.overlap_fraction(),
        })
        .collect();

    let stage_busy = StageBusy {
        read: run.reader.busy_time() + run.prep.busy_time(),
        transfer: devices.iter().map(|d| d.transfer_busy).sum(),
        kernel: devices.iter().map(|d| d.kernel_busy).sum(),
        store: devices.iter().map(|d| d.return_busy).sum::<Dur>() + run.store.busy_time(),
    };

    let mut st = run.st.borrow_mut();
    let stages = specs
        .iter()
        .enumerate()
        .map(|(k, spec)| StageReport {
            kind: spec.kind,
            name: spec.name.to_string(),
            busy: run.stage_servers[k].busy_time(),
            queue_wait: st.stage_acct[k].0,
            jobs: st.stage_acct[k].1,
        })
        .collect();

    let timelines = std::mem::take(&mut st.timelines);
    let sessions: Vec<SessionSim> = timelines
        .into_iter()
        .enumerate()
        .map(|(s, timeline)| SessionSim {
            first_admit: st.first_admit[s].unwrap_or(SimTime::ZERO),
            completion: st.completion[s],
            queue_wait: st.queue_wait[s],
            timeline,
        })
        .collect();

    let service = std::mem::take(&mut st.service);
    // The effective end of the run: the last completion, shed or
    // arrival. (The raw calendar can run longer — a no-op shed timer of
    // an already-admitted request still fires — but dead timers are not
    // service activity and must not inflate the makespan.)
    let end = sessions
        .iter()
        .map(|s| s.completion)
        .chain(service.done.iter().chain(&service.shed).flatten().copied())
        .chain(service.arrival.iter().copied())
        .fold(SimTime::ZERO, SimTime::max);

    let faults = match st.faults.take() {
        Some(mut f) => {
            f.report.dead_devices = (0..gpus)
                .filter(|&d| !run.pool.device(d).is_alive())
                .collect();
            f.report.slowdowns = (0..gpus)
                .filter_map(|d| {
                    let s = run.pool.device(d).slowdown();
                    (s != 1.0).then_some((d, s))
                })
                .collect();
            f.report
        }
        None => FaultReport::default(),
    };
    let placement = std::mem::take(&mut st.placement);
    drop(st);

    // Drain the recorder into a report, first deriving the
    // request-lane spans and summary metrics from the service
    // timestamps the run already keeps — the "reports are views" hook:
    // the same numbers ServiceReport is built from, as trace records.
    let telemetry = run.trace.as_ref().map(|t| {
        let makespan = end.saturating_since(SimTime::ZERO);
        let mut rec = t.borrow_mut();
        for sid in 0..n {
            let lane = Lane::Request { id: sid as u64 };
            let arrival = service.arrival[sid];
            let class = inputs.classes[plans[sid].class].name.as_str();
            rec.metrics_mut().incr("shredder_requests_total");
            if let Some(done) = service.done[sid] {
                rec.span(
                    lane.clone(),
                    "request",
                    arrival,
                    done,
                    vec![
                        ("bytes", ArgValue::U64(plans[sid].bytes)),
                        ("class", ArgValue::Text(class.to_string())),
                    ],
                );
                if let Some(admit) = service.admit[sid] {
                    rec.span(lane.clone(), "queued", arrival, admit, Vec::new());
                }
                // The session's buffer-level lifetime: first buffer
                // admission → last buffer completion. Nested inside
                // the request span, after the queued interval.
                let first = sessions[sid].first_admit;
                let last = sessions[sid].completion;
                if last > SimTime::ZERO && first <= last {
                    rec.span(lane.clone(), "session", first, last, Vec::new());
                }
                if let Some(fc) = service.first_chunk[sid] {
                    rec.instant(lane.clone(), "first-chunk", fc, Vec::new());
                }
                let latency = done.saturating_since(arrival).as_nanos();
                rec.metrics_mut().incr("shredder_requests_completed");
                rec.metrics_mut()
                    .observe("shredder_request_latency_ns", latency);
                rec.metrics_mut()
                    .observe(&format!("shredder_request_latency_ns:{class}"), latency);
            } else if let Some(shed_at) = service.shed[sid] {
                rec.instant(
                    lane,
                    "shed",
                    shed_at,
                    vec![("class", ArgValue::Text(class.to_string()))],
                );
            }
        }
        for &(at, depth) in &service.depth_points {
            rec.metrics_mut()
                .sample("shredder_admission_queue_depth", at, depth);
        }
        rec.metrics_mut().set_gauge(
            "shredder_admission_queue_depth_max",
            service.max_depth as f64,
        );
        for (i, d) in devices.iter().enumerate() {
            let util = if makespan.is_zero() {
                0.0
            } else {
                d.kernel_busy.as_secs_f64() / makespan.as_secs_f64()
            };
            rec.metrics_mut()
                .set_gauge(&format!("shredder_device_utilization:{i}"), util);
        }
        rec.finish_report()
    });

    SimResult {
        sessions,
        placement,
        devices,
        stage_busy,
        stages,
        end,
        service,
        faults,
        telemetry,
    }
}

/// Assembles the [`ServiceReport`] from the simulation's raw service
/// timestamps: offered vs. achieved load, the queue-depth timeline, and
/// per-class latency percentiles.
fn build_service_report(
    plans: &[SessionPlan],
    classes: &[ClassRuntime],
    svc: &ServiceSimOut,
    makespan: Dur,
) -> ServiceReport {
    let requests: Vec<RequestReport> = plans
        .iter()
        .enumerate()
        .map(|(sid, plan)| RequestReport {
            id: sid,
            name: plan.name.clone(),
            class: classes[plan.class].name.clone(),
            bytes: plan.bytes,
            arrival: svc.arrival[sid],
            admit: svc.admit[sid],
            first_chunk: svc.first_chunk[sid],
            done: svc.done[sid],
            shed_at: svc.shed[sid],
        })
        .collect();

    let completed = requests.iter().filter(|r| r.done.is_some()).count();
    let shed = requests.iter().filter(|r| r.is_shed()).count();

    // Offered load is measured over the arrival span; a batch workload
    // (every arrival at one instant) falls back to the makespan.
    let first_arrival = requests.iter().map(|r| r.arrival).min();
    let last_arrival = requests.iter().map(|r| r.arrival).max();
    let arrival_span = match (first_arrival, last_arrival) {
        (Some(a), Some(b)) => {
            let span = b.saturating_since(a);
            if span.is_zero() {
                makespan
            } else {
                span
            }
        }
        _ => makespan,
    };
    let offered_bytes: u64 = requests.iter().map(|r| r.bytes).sum();
    let achieved_bytes: u64 = requests
        .iter()
        .filter(|r| r.done.is_some())
        .map(|r| r.bytes)
        .sum();
    let rate = |count: f64, over: Dur| {
        if over.is_zero() {
            0.0
        } else {
            count / over.as_secs_f64()
        }
    };
    let offered_rps = rate(requests.len() as f64, arrival_span);
    let achieved_rps = rate(completed as f64, makespan);
    let offered_gbps = rate(offered_bytes as f64 / 1e9, arrival_span);
    let achieved_gbps = rate(achieved_bytes as f64 / 1e9, makespan);

    let class_reports = classes
        .iter()
        .enumerate()
        .map(|(ci, class)| {
            let of_class: Vec<&RequestReport> = requests
                .iter()
                .filter(|r| plans[r.id].class == ci)
                .collect();
            let mut latencies: Vec<Dur> = of_class.iter().filter_map(|r| r.latency()).collect();
            latencies.sort_unstable();
            let done: Vec<&&RequestReport> = of_class.iter().filter(|r| r.done.is_some()).collect();
            let mean_queue_delay = if done.is_empty() {
                Dur::ZERO
            } else {
                let total: Dur = done.iter().map(|r| r.queue_delay()).sum();
                Dur::from_secs_f64(total.as_secs_f64() / done.len() as f64)
            };
            ClassLatency {
                class: class.name.clone(),
                completed: latencies.len(),
                shed: of_class.iter().filter(|r| r.is_shed()).count(),
                p50: percentile(&latencies, 0.50),
                p95: percentile(&latencies, 0.95),
                p99: percentile(&latencies, 0.99),
                max: latencies.last().copied().unwrap_or(Dur::ZERO),
                mean_queue_delay,
            }
        })
        .collect();

    let mut queue_depth = TimeSeries::new("admission-queue-depth");
    for &(at, depth) in &svc.depth_points {
        queue_depth.record(at, depth);
    }

    ServiceReport {
        requests,
        offered_rps,
        achieved_rps,
        offered_gbps,
        achieved_gbps,
        completed,
        shed,
        queue_depth,
        max_queue_depth: svc.max_depth,
        classes: class_reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SliceSource;
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

    fn small_config() -> ShredderConfig {
        ShredderConfig::gpu_streams_memory().with_buffer_size(128 << 10)
    }

    #[test]
    fn multi_session_chunks_equal_sequential_per_stream() {
        let streams: Vec<Vec<u8>> = (0..5)
            .map(|s| pseudo_random(300_000 + s * 77_000, s as u64 + 1))
            .collect();
        let mut engine = ShredderEngine::new(small_config());
        for s in &streams {
            engine.open_session(SliceSource::new(s));
        }
        let out = engine.run().unwrap();
        assert_eq!(out.sessions.len(), 5);
        for (session, data) in out.sessions.iter().zip(&streams) {
            assert_eq!(session.chunks, chunk_all(data, &ChunkParams::paper()));
        }
        let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
        assert_eq!(out.report.bytes, total);
    }

    #[test]
    fn steady_state_sessions_are_allocation_free() {
        let data = pseudo_random(512 << 10, 11);
        let mut engine = ShredderEngine::new(small_config());
        // Warm-up run: the pool learns the session's buffer shapes.
        engine.open_session(SliceSource::new(&data));
        engine.run().unwrap();
        let warm = engine.buffer_pool().allocations();
        assert!(warm > 0, "warm-up must have leased something");
        // Steady state: identical sessions lease everything from the
        // pool — the hot loop makes zero new allocations.
        for _ in 0..4 {
            engine.open_session(SliceSource::new(&data));
            engine.run().unwrap();
        }
        assert_eq!(
            engine.buffer_pool().allocations(),
            warm,
            "steady-state sessions must not allocate"
        );
        assert!(engine.buffer_pool().recycles() >= 4);
    }

    #[test]
    fn round_robin_interleaves_admissions() {
        let a = pseudo_random(512 << 10, 7);
        let b = pseudo_random(512 << 10, 8);
        let mut engine = ShredderEngine::new(small_config());
        engine.open_session(SliceSource::new(&a));
        engine.open_session(SliceSource::new(&b));
        let out = engine.run().unwrap();

        // Under round-robin, both sessions start immediately and their
        // admissions interleave: session 1 is not delayed until session
        // 0 drains.
        let r = &out.report.sessions;
        assert_eq!(r[0].first_admit, SimTime::ZERO);
        assert!(
            r[1].first_admit < r[0].timeline.last().unwrap().read_start,
            "session 1 first admit {:?} waited for session 0 to finish",
            r[1].first_admit
        );
    }

    #[test]
    fn session_order_drains_sequentially() {
        let a = pseudo_random(512 << 10, 9);
        let b = pseudo_random(512 << 10, 10);
        let mut engine =
            ShredderEngine::new(small_config()).with_policy(AdmissionPolicy::SessionOrder);
        engine.open_session(SliceSource::new(&a));
        engine.open_session(SliceSource::new(&b));
        let out = engine.run().unwrap();
        let r = &out.report.sessions;
        // All of session 0's buffers are admitted before any of session 1's.
        let last_a_admit = r[0].timeline.last().unwrap().read_start;
        assert!(r[1].first_admit >= last_a_admit);
    }

    #[test]
    fn weighted_policy_favors_heavy_session() {
        let a = pseudo_random(1 << 20, 11);
        let b = pseudo_random(1 << 20, 12);
        let run = |wa: u32, wb: u32| {
            let mut engine = ShredderEngine::new(
                ShredderConfig::gpu_streams_memory().with_buffer_size(64 << 10),
            )
            .with_policy(AdmissionPolicy::Weighted);
            engine.open_named_session("a", wa, SliceSource::new(&a));
            engine.open_named_session("b", wb, SliceSource::new(&b));
            let out = engine.run().unwrap();
            out.report.sessions[0].completion
        };
        let even = run(1, 1);
        let favored = run(4, 1);
        assert!(
            favored < even,
            "weight-4 session should finish earlier: {favored:?} !< {even:?}"
        );
    }

    #[test]
    fn shared_pipeline_beats_sequential_runs() {
        // N concurrent tenants through one engine finish sooner than the
        // same N streams run back to back (pipeline fill/drain overlaps
        // across tenants) — the Figure 12 story under multi-tenancy.
        let streams: Vec<Vec<u8>> = (0..4).map(|s| pseudo_random(1 << 20, 20 + s)).collect();
        let cfg = ShredderConfig::gpu_streams_memory().with_buffer_size(256 << 10);

        let mut engine = ShredderEngine::new(cfg.clone());
        for s in &streams {
            engine.open_session(SliceSource::new(s));
        }
        let shared = engine.run().unwrap().report.makespan;

        let sequential: Dur = streams
            .iter()
            .map(|s| {
                let mut e = ShredderEngine::new(cfg.clone());
                e.open_session(SliceSource::new(s));
                e.run().unwrap().report.makespan
            })
            .sum();

        assert!(
            shared < sequential,
            "shared {shared:?} !< sequential {sequential:?}"
        );
    }

    #[test]
    fn window_zero_is_rejected_not_panicking() {
        let mut params = ChunkParams::paper();
        params.window = 0;
        let cfg = ShredderConfig::gpu_streams_memory().with_params(params);
        let data = pseudo_random(10_000, 13);
        let mut engine = ShredderEngine::new(cfg);
        engine.open_session(SliceSource::new(&data));
        match engine.run() {
            Err(ChunkError::InvalidConfig(msg)) => assert!(msg.contains("window")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn empty_engine_and_empty_sessions() {
        let mut engine = ShredderEngine::new(small_config());
        let out = engine.run().unwrap();
        assert!(out.sessions.is_empty());
        assert_eq!(out.report.bytes, 0);
        assert_eq!(out.report.makespan, Dur::ZERO);

        let mut engine = ShredderEngine::new(small_config());
        engine.open_session(SliceSource::new(&[]));
        let out = engine.run().unwrap();
        assert!(out.sessions[0].chunks.is_empty());
        assert_eq!(out.report.sessions[0].buffers, 0);
    }

    #[test]
    fn single_byte_stream() {
        let mut engine = ShredderEngine::new(small_config());
        engine.open_session(SliceSource::new(&[42u8]));
        let out = engine.run().unwrap();
        assert_eq!(
            out.sessions[0].chunks,
            chunk_all(&[42u8], &ChunkParams::paper())
        );
        assert_eq!(out.sessions[0].chunks.len(), 1);
        assert_eq!(out.report.sessions[0].buffers, 1);
        assert_eq!(out.report.bytes, 1);
    }

    #[test]
    fn stream_shorter_than_rabin_window() {
        // Shorter than the window: no full window ever forms, so the
        // stream is one chunk — and the `window − 1` carry must not
        // invent boundaries or read out of bounds.
        let params = ChunkParams::paper();
        assert!(params.window > 2, "test needs a window > 2");
        for len in [1usize, 2, params.window - 1] {
            let data = pseudo_random(len, 90 + len as u64);
            let mut engine = ShredderEngine::new(small_config());
            engine.open_session(SliceSource::new(&data));
            let out = engine.run().unwrap();
            assert_eq!(
                out.sessions[0].chunks,
                chunk_all(&data, &params),
                "len {len}"
            );
            assert_eq!(out.sessions[0].chunks.len(), 1, "len {len}");
        }
    }

    #[test]
    fn stream_straddling_the_carry_boundary() {
        // Lengths right around buffer_size ± (window − 1): the carry
        // path must keep boundaries identical to a sequential scan.
        let params = ChunkParams::paper();
        let buffer = 64 << 10;
        let cfg = ShredderConfig::gpu_streams_memory().with_buffer_size(buffer);
        for delta in [
            -(params.window as i64 - 1),
            -1,
            0,
            1,
            params.window as i64 - 1,
        ] {
            let len = (buffer as i64 + delta) as usize;
            let data = pseudo_random(len, 200 + delta.unsigned_abs());
            let mut engine = ShredderEngine::new(cfg.clone());
            engine.open_session(SliceSource::new(&data));
            let out = engine.run().unwrap();
            assert_eq!(
                out.sessions[0].chunks,
                chunk_all(&data, &params),
                "len {len}"
            );
        }
    }

    #[test]
    fn engine_run_is_deterministic() {
        let streams: Vec<Vec<u8>> = (0..4).map(|s| pseudo_random(400_000, 40 + s)).collect();
        let run = || {
            let mut engine = ShredderEngine::new(small_config());
            for (i, s) in streams.iter().enumerate() {
                engine.open_named_session(format!("t{i}"), 1 + i as u32, SliceSource::new(s));
            }
            engine.run().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.report, b.report);
        assert_eq!(a.sessions, b.sessions);
    }

    #[test]
    fn timelines_causally_ordered_per_session() {
        let streams: Vec<Vec<u8>> = (0..3).map(|s| pseudo_random(600_000, 60 + s)).collect();
        let mut engine = ShredderEngine::new(small_config());
        for s in &streams {
            engine.open_session(SliceSource::new(s));
        }
        let out = engine.run().unwrap();
        for r in &out.report.sessions {
            assert_eq!(r.timeline.len(), r.buffers);
            for t in &r.timeline {
                assert!(t.read_start <= t.read_end);
                assert!(t.read_end <= t.transfer_end);
                assert!(t.transfer_end <= t.kernel_end);
                assert!(t.kernel_end <= t.store_end);
            }
            for pair in r.timeline.windows(2) {
                assert!(pair[0].store_end <= pair[1].store_end);
            }
        }
    }

    #[test]
    fn session_ids_and_names_round_trip() {
        let data = pseudo_random(64 << 10, 70);
        let mut engine = ShredderEngine::new(small_config());
        let id0 = engine.open_named_session("alpha", 2, SliceSource::new(&data));
        let id1 = engine.open_session(SliceSource::new(&data));
        assert_eq!(id0.index(), 0);
        assert_eq!(id1.index(), 1);
        assert_eq!(engine.session_count(), 2);
        let out = engine.run().unwrap();
        assert_eq!(out.sessions[0].name, "alpha");
        assert_eq!(out.report.sessions[0].weight, 2);
        assert_eq!(out.sessions[1].name, "session-1");
        assert_eq!(engine.session_count(), 0, "run consumes sessions");
    }

    #[test]
    fn least_loaded_placement_balances_bytes() {
        let sizes = [800_000usize, 400_000, 300_000, 250_000];
        let streams: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| pseudo_random(n, 300 + i as u64))
            .collect();
        let mut engine = ShredderEngine::new(small_config().with_gpus(2));
        for s in &streams {
            engine.open_session(SliceSource::new(s));
        }
        let out = engine.run().unwrap();
        // Open order: s0→d0, s1→d1, s2→d1 (400k < 800k), s3→d1 (700k).
        let devs: Vec<usize> = out.report.sessions.iter().map(|r| r.device).collect();
        assert_eq!(devs, vec![0, 1, 1, 1]);
        assert_eq!(out.report.devices.len(), 2);
        assert_eq!(out.report.devices[0].sessions, 1);
        assert_eq!(out.report.devices[1].sessions, 3);
        assert_eq!(out.report.devices[0].bytes, 800_000);
        assert_eq!(out.report.devices[1].bytes, 950_000);
        // Per-device buffer counts add up to the engine total.
        let dev_buffers: u64 = out.report.devices.iter().map(|d| d.buffers).sum();
        assert_eq!(dev_buffers, out.report.buffers as u64);
    }

    #[test]
    fn round_robin_placement_rotates() {
        let streams: Vec<Vec<u8>> = (0..5).map(|s| pseudo_random(200_000, 320 + s)).collect();
        let mut engine = ShredderEngine::new(
            small_config()
                .with_gpus(3)
                .with_placement(PlacementPolicy::RoundRobin),
        );
        for s in &streams {
            engine.open_session(SliceSource::new(s));
        }
        let out = engine.run().unwrap();
        let devs: Vec<usize> = out.report.sessions.iter().map(|r| r.device).collect();
        assert_eq!(devs, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn pinned_sessions_override_policy() {
        let a = pseudo_random(300_000, 330);
        let b = pseudo_random(300_000, 331);
        let c = pseudo_random(300_000, 332);
        let mut engine = ShredderEngine::new(
            small_config()
                .with_gpus(2)
                .with_placement(PlacementPolicy::Pinned),
        );
        engine.open_pinned_session("pinned-1", 1, 1, SliceSource::new(&a));
        engine.open_pinned_session("pinned-also-1", 1, 1, SliceSource::new(&b));
        // Unpinned under the Pinned policy falls back to least-loaded:
        // device 0 carries no bytes yet.
        engine.open_named_session("free", 1, SliceSource::new(&c));
        let out = engine.run().unwrap();
        let devs: Vec<usize> = out.report.sessions.iter().map(|r| r.device).collect();
        assert_eq!(devs, vec![1, 1, 0]);
        // Chunks are still bit-identical per stream.
        for (session, data) in out.sessions.iter().zip([&a, &b, &c]) {
            assert_eq!(session.chunks, chunk_all(data, &ChunkParams::paper()));
        }
    }

    #[test]
    fn pin_out_of_range_is_rejected() {
        let data = pseudo_random(10_000, 340);
        let mut engine = ShredderEngine::new(small_config().with_gpus(2));
        engine.open_named_session("good", 1, SliceSource::new(&data));
        engine.open_pinned_session("bad", 1, 2, SliceSource::new(&data));
        match engine.run() {
            Err(ChunkError::InvalidConfig(msg)) => {
                assert!(msg.contains("pinned to device 2"), "{msg}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // The failed validation must not consume the queued sessions
        // (the window/gpus error paths leave them intact too).
        assert_eq!(engine.session_count(), 2);
    }

    #[test]
    fn small_pinned_ring_backpressures_admission() {
        // One staging slot serializes read→H2D cycles; the same work
        // takes longer than with a depth-sized ring.
        let data = pseudo_random(2 << 20, 350);
        let run = |slots: Option<usize>| {
            let mut cfg = small_config();
            if let Some(s) = slots {
                cfg = cfg.with_ring_slots(s);
            }
            let mut engine = ShredderEngine::new(cfg);
            engine.open_session(SliceSource::new(&data));
            engine.run().unwrap().report.makespan
        };
        let roomy = run(None);
        let starved = run(Some(1));
        assert!(starved > roomy, "ring=1 {starved:?} !> default {roomy:?}");
    }

    #[test]
    fn two_devices_beat_one_when_reader_is_not_the_bottleneck() {
        let streams: Vec<Vec<u8>> = (0..6).map(|s| pseudo_random(3 << 20, 360 + s)).collect();
        let run = |gpus: usize| {
            let cfg = ShredderConfig::gpu_streams_memory()
                .with_buffer_size(1 << 20)
                .with_reader_bandwidth(32e9)
                .with_gpus(gpus)
                .with_pipeline_depth(4 * gpus);
            let mut engine = ShredderEngine::new(cfg);
            for s in &streams {
                engine.open_session(SliceSource::new(s));
            }
            engine.run().unwrap()
        };
        let one = run(1);
        let two = run(2);
        assert!(
            two.report.aggregate_gbps() > one.report.aggregate_gbps() * 1.3,
            "2 devices {:.3} GB/s !> 1.3 × 1 device {:.3} GB/s",
            two.report.aggregate_gbps(),
            one.report.aggregate_gbps()
        );
        // Identical chunks under both pool sizes.
        for (a, b) in one.sessions.iter().zip(&two.sessions) {
            assert_eq!(a.chunks, b.chunks);
        }
        // Both devices genuinely worked and overlapped copy with compute.
        for d in &two.report.devices {
            assert!(
                d.utilization > 0.2,
                "device {} util {}",
                d.id,
                d.utilization
            );
            assert!(d.overlap > 0.2, "device {} overlap {}", d.id, d.overlap);
        }
    }

    #[test]
    fn multi_gpu_run_is_deterministic() {
        let streams: Vec<Vec<u8>> = (0..5).map(|s| pseudo_random(500_000, 370 + s)).collect();
        let run = || {
            let mut engine = ShredderEngine::new(small_config().with_gpus(3));
            for (i, s) in streams.iter().enumerate() {
                engine.open_named_session(format!("t{i}"), 1, SliceSource::new(s));
            }
            engine.run().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.report, b.report);
        assert_eq!(a.sessions, b.sessions);
    }

    #[test]
    fn single_device_report_covers_all_work() {
        let data = pseudo_random(1 << 20, 380);
        let mut engine = ShredderEngine::new(small_config());
        engine.open_session(SliceSource::new(&data));
        let out = engine.run().unwrap();
        assert_eq!(out.report.devices.len(), 1);
        let d = &out.report.devices[0];
        assert_eq!(d.sessions, 1);
        assert_eq!(d.bytes, 1 << 20);
        assert!(d.utilization > 0.0 && d.utilization <= 1.0);
        assert!((0.0..=1.0).contains(&d.overlap));
        assert!(d.busy_span <= out.report.makespan);
        assert_eq!(out.report.device(0).unwrap(), d);
        assert!(out.report.device(1).is_none());
    }

    #[test]
    fn aggregate_accounting_is_conserved() {
        let streams: Vec<Vec<u8>> = (0..3).map(|s| pseudo_random(256 << 10, 80 + s)).collect();
        let mut engine = ShredderEngine::new(small_config());
        for s in &streams {
            engine.open_session(SliceSource::new(s));
        }
        let out = engine.run().unwrap();
        let by_session: u64 = out.report.sessions.iter().map(|r| r.bytes).sum();
        assert_eq!(out.report.bytes, by_session);
        let buffers: usize = out.report.sessions.iter().map(|r| r.buffers).sum();
        assert_eq!(out.report.buffers, buffers);
        let wait: Dur = out.report.sessions.iter().map(|r| r.queue_wait).sum();
        assert_eq!(out.report.queue_wait, wait);
        assert!(out.report.aggregate_gbps() > 0.0);
    }
}
