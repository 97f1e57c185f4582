//! The four workloads, generated from one seed each, and the helpers
//! they share: the reference replay of `rabin` and `hash` on a
//! workload's inputs, and the accumulation of the model's outputs.

use shredder_core::EngineReport;
use shredder_des::{nearest_rank, Dur};
use shredder_hash::{sha256, Digest, SeededRng};
use shredder_rabin::{chunk_all, Chunk, ChunkParams};

use crate::trace::Pass;

mod backup_nightly;
mod fleet_repair;
mod incremental_wordcount;
mod service_small;

/// How many times a pass restores everything it restores. A small
/// restore takes microseconds and a large one tens of milliseconds;
/// reading everything several times makes the timed section long
/// enough to be steady.
pub(crate) const RESTORE_ROUNDS: usize = 3;

/// Input sizes: `Full` is what the benchmark measures, `Tiny` is a
/// smoke-test size that runs in well under a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Benchmark size.
    Full,
    /// Smoke-test size.
    Tiny,
}

impl Size {
    /// `full` at benchmark size, `tiny` otherwise.
    pub(crate) fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many tiny requests through the online service.
    ServiceSmall,
    /// The §7 nightly backup case study.
    BackupNightly,
    /// The §6 incremental MapReduce case study.
    IncrementalWordcount,
    /// A four-node fleet through a node death and its repair.
    FleetRepair,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ServiceSmall,
        Workload::BackupNightly,
        Workload::IncrementalWordcount,
        Workload::FleetRepair,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServiceSmall => "service_small",
            Workload::BackupNightly => "backup_nightly",
            Workload::IncrementalWordcount => "incremental_wordcount",
            Workload::FleetRepair => "fleet_repair",
        }
    }

    /// Why the workload is in the benchmark, with its input sizes.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServiceSmall => service_small::WHY,
            Workload::BackupNightly => backup_nightly::WHY,
            Workload::IncrementalWordcount => incremental_wordcount::WHY,
            Workload::FleetRepair => fleet_repair::WHY,
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generates the workload's inputs from `seed`.
    pub(crate) fn generate(self, seed: u64, size: Size) -> Inputs {
        match self {
            Workload::ServiceSmall => Inputs::ServiceSmall(service_small::Inputs::new(seed, size)),
            Workload::BackupNightly => {
                Inputs::BackupNightly(backup_nightly::Inputs::new(seed, size))
            }
            Workload::IncrementalWordcount => {
                Inputs::IncrementalWordcount(incremental_wordcount::Inputs::new(seed, size))
            }
            Workload::FleetRepair => Inputs::FleetRepair(fleet_repair::Inputs::new(seed, size)),
        }
    }
}

/// One workload's generated inputs.
pub(crate) enum Inputs {
    /// See [`service_small`].
    ServiceSmall(service_small::Inputs),
    /// See [`backup_nightly`].
    BackupNightly(backup_nightly::Inputs),
    /// See [`incremental_wordcount`].
    IncrementalWordcount(incremental_wordcount::Inputs),
    /// See [`fleet_repair`].
    FleetRepair(fleet_repair::Inputs),
}

impl Inputs {
    /// Runs one pass over the inputs: every layer call, every check.
    pub(crate) fn run(&self, pass: &mut Pass) {
        match self {
            Inputs::ServiceSmall(i) => i.run(pass),
            Inputs::BackupNightly(i) => i.run(pass),
            Inputs::IncrementalWordcount(i) => i.run(pass),
            Inputs::FleetRepair(i) => i.run(pass),
        }
    }
}

/// The reference boundary scan: `chunk_all` over each input, timed as
/// one `rabin` call.
pub(crate) fn reference_chunks(
    pass: &mut Pass,
    inputs: &[&[u8]],
    params: &ChunkParams,
) -> Vec<Vec<Chunk>> {
    let (chunks, _) = pass.span("rabin.chunk_all", |_| {
        inputs
            .iter()
            .map(|d| chunk_all(d, params))
            .collect::<Vec<_>>()
    });
    pass.add("rabin.bytes", inputs.iter().map(|d| d.len() as f64).sum());
    pass.add("rabin.chunks", chunks.iter().map(|c| c.len() as f64).sum());
    chunks
}

/// The reference fingerprints: `sha256` of every chunk of each input,
/// timed as one `hash` call.
pub(crate) fn reference_digests(
    pass: &mut Pass,
    inputs: &[&[u8]],
    chunks: &[Vec<Chunk>],
) -> Vec<Vec<Digest>> {
    let (digests, _) = pass.span("hash.sha256", |_| {
        inputs
            .iter()
            .zip(chunks)
            .map(|(d, cs)| cs.iter().map(|c| sha256(c.slice(d))).collect())
            .collect::<Vec<Vec<Digest>>>()
    });
    pass.add("hash.bytes", inputs.iter().map(|d| d.len() as f64).sum());
    digests
}

/// `n` pseudo-random bytes from `rng`.
pub(crate) fn random_bytes(rng: &mut SeededRng, n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(n + 8);
    while out.len() < n {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(n);
    out
}

/// Accumulates the model's simulated-time outputs over one pass's
/// engine runs and turns them into the `sim.*` metrics.
#[derive(Debug, Default)]
pub(crate) struct SimTotals {
    bytes: u64,
    makespan: Dur,
    rps_time: f64,
    shed: usize,
    latencies: Vec<Dur>,
    queue_delays: Vec<Dur>,
    stage: [Dur; 4],
    sinks: [[Dur; 2]; 4],
    utilization_time: f64,
    overlap_time: f64,
}

const SINK_STAGES: [&str; 4] = ["fingerprint", "dedup", "ship", "store-commit"];

impl SimTotals {
    /// Adds one engine run.
    pub(crate) fn add_engine(&mut self, report: &EngineReport) {
        self.bytes += report.bytes;
        self.makespan += report.makespan;
        let busy = &report.stage_busy;
        for (acc, d) in
            self.stage
                .iter_mut()
                .zip([busy.read, busy.transfer, busy.kernel, busy.store])
        {
            *acc += d;
        }
        for stage in &report.sink_stages {
            if let Some(k) = SINK_STAGES.iter().position(|s| *s == stage.name) {
                self.sinks[k][0] += stage.busy;
                self.sinks[k][1] += stage.queue_wait;
            }
        }
        let span = report.makespan.as_secs_f64();
        if !report.devices.is_empty() {
            let n = report.devices.len() as f64;
            self.utilization_time +=
                span * report.devices.iter().map(|d| d.utilization).sum::<f64>() / n;
            self.overlap_time += span * report.devices.iter().map(|d| d.overlap).sum::<f64>() / n;
        }
        if let Some(service) = &report.service {
            self.rps_time += service.achieved_rps * span;
            self.shed += service.shed;
            for r in &service.requests {
                if let Some(latency) = r.latency() {
                    self.latencies.push(latency);
                    self.queue_delays.push(r.queue_delay());
                }
            }
        }
    }

    /// Adds a run the model reports only as bytes and a rate over a
    /// makespan (the fleet, a host-chunker upload).
    pub(crate) fn add_run(&mut self, bytes: u64, makespan: Dur, achieved_rps: f64) {
        self.bytes += bytes;
        self.makespan += makespan;
        self.rps_time += achieved_rps * makespan.as_secs_f64();
    }

    /// Writes the `sim.*` metrics.
    pub(crate) fn finish(mut self, pass: &mut Pass) {
        let span = self.makespan.as_secs_f64();
        let per_span = |x: f64| if span > 0.0 { x / span } else { 0.0 };
        pass.set("sim.gbps", per_span(self.bytes as f64) / 1e9);
        pass.set("sim.achieved_rps", per_span(self.rps_time));
        pass.set("sim.gpu.utilization", per_span(self.utilization_time));
        pass.set("sim.gpu.overlap", per_span(self.overlap_time));
        pass.set("sim.shed", self.shed as f64);
        self.latencies.sort_unstable();
        self.queue_delays.sort_unstable();
        let ms = |sorted: &[Dur], q| nearest_rank(sorted, q).map_or(0.0, Dur::as_millis_f64);
        pass.set("sim.p50_ms", ms(&self.latencies, 0.50));
        pass.set("sim.p99_ms", ms(&self.latencies, 0.99));
        pass.set("sim.admission_wait_p99_ms", ms(&self.queue_delays, 0.99));
        let [read, transfer, kernel, store] = self.stage.map(Dur::as_millis_f64);
        pass.set("sim.stage.read_busy_ms", read);
        pass.set("sim.stage.transfer_busy_ms", transfer);
        pass.set("sim.stage.kernel_busy_ms", kernel);
        pass.set("sim.stage.store_busy_ms", store);
        const NAMES: [[&str; 2]; 4] = [
            [
                "sim.sink.fingerprint.busy_ms",
                "sim.sink.fingerprint.queue_wait_ms",
            ],
            ["sim.sink.dedup.busy_ms", "sim.sink.dedup.queue_wait_ms"],
            ["sim.sink.ship.busy_ms", "sim.sink.ship.queue_wait_ms"],
            [
                "sim.sink.store-commit.busy_ms",
                "sim.sink.store-commit.queue_wait_ms",
            ],
        ];
        for (names, [busy, wait]) in NAMES.iter().zip(self.sinks) {
            pass.set(names[0], busy.as_millis_f64());
            pass.set(names[1], wait.as_millis_f64());
        }
    }
}
