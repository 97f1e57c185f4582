//! Golden reports: the engine's observable output, pinned bit for bit.
//!
//! Every scenario below runs one fixed configuration and hashes the
//! `Debug` form of its report (`EngineReport` with its `ServiceReport`,
//! `FaultReport` and `TelemetryReport`, or the fleet's `FleetReport`)
//! and of its per-session chunks with SHA-256. The expected digests
//! were recorded before the engine runtime was restructured; a refactor
//! of the scheduler or the stage machine must leave every one of them
//! unchanged. A changed digest means a changed schedule, a changed
//! report field or changed chunks — update it only together with a
//! deliberate, documented model change.
//!
//! The grid: closed batches under each buffer-level admission policy on
//! one and two devices; Poisson arrivals with queue-depth and
//! queue-delay shedding across two weighted tenant classes (one with an
//! ingest cap); per-class round-robin dispatch; a closed loop with
//! think time; a two-device fault plan with a straggler, a device death
//! and a skipped last-survivor death; a telemetry-on run; and a small
//! replicated fleet.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt::Debug;
use std::rc::Rc;

use shredder::cluster::{FleetConfig, FleetRequest, ShredderFleet};
use shredder::core::{
    AdmissionControl, AdmissionPolicy, ChunkRequest, DedupSink, DedupSinkConfig, FaultPlan,
    MemorySource, ServiceOutcome, Shredder, ShredderConfig, ShredderEngine, ShredderService,
    SinkPipelineHints, SliceSource, TelemetryConfig, TenantClass, Workload,
};
use shredder::des::Dur;
use shredder::hash::{sha256, Digest};
use shredder::workloads;

/// Asserts that the SHA-256 of `value`'s `Debug` form is `expected`.
fn pin(label: &str, value: &impl Debug, expected: &str) {
    let got = sha256(format!("{value:?}").as_bytes()).to_hex();
    assert_eq!(got, expected, "golden digest of {label} changed");
}

fn config() -> ShredderConfig {
    ShredderConfig::gpu_streams_memory().with_buffer_size(32 << 10)
}

fn sink_config() -> DedupSinkConfig {
    DedupSinkConfig {
        hash_bw: 1.5e9,
        index_lookup: Dur::from_micros(7),
        index_insert: Dur::from_micros(10),
        ship_bw: 0.9e9,
        pointer_bytes: 40,
        ship_chunk_overhead: Dur::from_micros(2),
        hints: SinkPipelineHints::default(),
    }
}

/// Four streams of different lengths; the last repeats the first so a
/// shared dedup index sees duplicates.
fn streams() -> Vec<Vec<u8>> {
    let mut s: Vec<Vec<u8>> = [96usize << 10, 160 << 10, 40 << 10]
        .iter()
        .enumerate()
        .map(|(i, &len)| workloads::random_bytes(len, 0x601d + i as u64))
        .collect();
    s.push(s[0].clone());
    s
}

/// A closed batch through `ShredderEngine::run`: two plain sessions,
/// one empty session and two sink sessions sharing one dedup index.
fn batch(policy: AdmissionPolicy, gpus: usize, report: &str, chunks: &str) {
    let data = streams();
    let index: Rc<RefCell<HashSet<Digest>>> = Rc::default();
    let mut engine = ShredderEngine::new(config().with_gpus(gpus)).with_policy(policy);
    engine.open_named_session("plain-0", 1, SliceSource::new(&data[0]));
    engine.open_named_session("plain-1", 3, SliceSource::new(&data[1]));
    engine.open_session(SliceSource::new(&[]));
    for (i, d) in data[2..].iter().enumerate() {
        engine.open_sink_session(
            format!("sink-{i}"),
            2,
            SliceSource::new(d),
            DedupSink::new(sink_config(), index.clone()),
        );
    }
    let out = engine.run().expect("batch run failed");
    pin("batch report", &out.report, report);
    pin("batch chunks", &out.sessions, chunks);
}

/// Pins a service run: its report, and each request's chunks or error.
fn pin_service(out: &ServiceOutcome, report: &str, chunks: &str) {
    pin("service report", &out.report, report);
    let outcomes: Vec<_> = out.requests.iter().map(|r| &r.outcome).collect();
    pin("service chunks", &outcomes, chunks);
}

/// Twenty requests over two weighted classes (`gold` ingest-capped),
/// every other one with a dedup sink.
fn classed_service<'a>(
    config: ShredderConfig,
    control: AdmissionControl,
    index: &Rc<RefCell<HashSet<Digest>>>,
) -> ShredderService<'a> {
    let mut service = ShredderService::new(config)
        .with_admission(control)
        .with_engine_policy(AdmissionPolicy::Weighted);
    service.define_class(
        TenantClass::new("gold")
            .with_weight(3)
            .with_ingest_bw(0.4e9),
    );
    service.define_class(TenantClass::new("bronze").with_weight(1));
    for t in 0..20u64 {
        let class = if t % 3 == 0 { "bronze" } else { "gold" };
        let mut request = ChunkRequest::new(MemorySource::pseudo_random(
            (24 << 10) + (t as usize % 4) * (8 << 10),
            t % 7,
        ))
        .named(format!("req-{t}"))
        .with_class(class)
        .with_weight(1 + (t % 2) as u32);
        if t % 2 == 0 {
            request = request.with_sink(DedupSink::new(sink_config(), index.clone()));
        }
        service.submit(request);
    }
    service
}

#[test]
fn golden_batch_round_robin_one_gpu() {
    batch(
        AdmissionPolicy::RoundRobin,
        1,
        "3adefbdaa82edbfe9b28cdae4c5acf66768ca977015ac1609462cbf783166100",
        "1318931e23b6a9017c683a1e7c205527e01d40bfeffafb4441ce8f40c76e8d43",
    );
}

#[test]
fn golden_batch_round_robin_two_gpus() {
    batch(
        AdmissionPolicy::RoundRobin,
        2,
        "d152b7c41099f1c30ea18d3055372ed0cd2d04425fdf49c37fa2a56f25baee10",
        "1318931e23b6a9017c683a1e7c205527e01d40bfeffafb4441ce8f40c76e8d43",
    );
}

#[test]
fn golden_batch_weighted_one_gpu() {
    batch(
        AdmissionPolicy::Weighted,
        1,
        "a5e46006f3202a9f830b1156cca5ba88d252aeb57c8685d649b8e2d7b335659a",
        "1318931e23b6a9017c683a1e7c205527e01d40bfeffafb4441ce8f40c76e8d43",
    );
}

#[test]
fn golden_batch_weighted_two_gpus() {
    batch(
        AdmissionPolicy::Weighted,
        2,
        "86205b0a55f5f80894e7fdfaa6e1b4cbbe4db4ef3c4538b46a4d1f50291a660e",
        "1318931e23b6a9017c683a1e7c205527e01d40bfeffafb4441ce8f40c76e8d43",
    );
}

#[test]
fn golden_batch_session_order_one_gpu() {
    batch(
        AdmissionPolicy::SessionOrder,
        1,
        "df900ac53daa30c944ddca802c187916194ece9bde2b91ee3b85fa54f38be390",
        "1318931e23b6a9017c683a1e7c205527e01d40bfeffafb4441ce8f40c76e8d43",
    );
}

#[test]
fn golden_batch_session_order_two_gpus() {
    batch(
        AdmissionPolicy::SessionOrder,
        2,
        "e0ca18e1203168c1a79c2195f03f15c9433bf5eb1446893ebe33abc8931cafa3",
        "1318931e23b6a9017c683a1e7c205527e01d40bfeffafb4441ce8f40c76e8d43",
    );
}

#[test]
fn golden_poisson_weighted_classes_with_shedding() {
    let index = Rc::default();
    let control = AdmissionControl::fifo(2)
        .with_policy(AdmissionPolicy::Weighted)
        .with_queue_depth(4)
        .with_max_queue_delay(Dur::from_micros(150));
    let mut service = classed_service(config(), control, &index);
    let out = service
        .run(&Workload::poisson(40_000.0, 9))
        .expect("poisson run failed");
    assert!(out.service().shed > 0, "the scenario must shed");
    pin_service(
        &out,
        "5a5959e162c7bd806a111471e7de3e9ab7da20ee683284280ca2783d310c1568",
        "f9e42268b9da5c5725ae4e7acc4626fa876832c71c6d18f1f0f43b81228fa451",
    );
}

#[test]
fn golden_poisson_round_robin_classes() {
    let index = Rc::default();
    let control = AdmissionControl::fifo(3).with_policy(AdmissionPolicy::RoundRobin);
    let mut service = classed_service(config().with_gpus(2), control, &index);
    let out = service
        .run(&Workload::poisson(20_000.0, 4))
        .expect("poisson run failed");
    pin_service(
        &out,
        "d0d0626e377b409bbcf6f9d2c1958932db8f1ff89448a3a13b56400dc2c3c580",
        "4ab54bfa97ecdb92545f1cbc30c710108b47bad925d3f48d282a71f49a6812ee",
    );
}

#[test]
fn golden_closed_loop_with_think_time() {
    let index = Rc::default();
    let mut service = classed_service(config(), AdmissionControl::fifo(2), &index);
    let out = service
        .run(&Workload::closed_loop(3, Dur::from_micros(40)))
        .expect("closed-loop run failed");
    pin_service(
        &out,
        "f3eb96189499c219cca650aabaa72c497e88e8ab5ddcec606ad85e7906d21fc6",
        "4ab54bfa97ecdb92545f1cbc30c710108b47bad925d3f48d282a71f49a6812ee",
    );
}

/// Two devices, four sessions: device 0 straggles from the start,
/// device 1 dies mid-run (requeueing its in-flight buffers onto
/// device 0), and a second death of device 1 is a no-op.
fn faulted_service<'a>(config: ShredderConfig, data: &'a [Vec<u8>]) -> ShredderService<'a> {
    let plan = FaultPlan::new()
        .straggler(Dur::ZERO, 0, 2.0)
        .device_death(Dur::from_micros(120), 1)
        .device_death(Dur::from_micros(400), 1);
    let mut service = ShredderService::new(
        config
            .with_gpus(2)
            .with_pipeline_depth(8)
            .with_reader_bandwidth(16e9)
            .with_faults(plan),
    )
    .with_admission(AdmissionControl::fifo(4));
    let index: Rc<RefCell<HashSet<Digest>>> = Rc::default();
    for (t, d) in data.iter().enumerate() {
        let request = ChunkRequest::new(SliceSource::new(d)).named(format!("tenant-{t}"));
        service.submit(if t % 2 == 1 {
            request.with_sink(DedupSink::new(sink_config(), index.clone()))
        } else {
            request
        });
    }
    service
}

#[test]
fn golden_faults_straggler_death_and_double_kill() {
    let data = streams();
    let out = faulted_service(config(), &data)
        .run(&Workload::Batch)
        .expect("faulted run failed");
    let faults = &out.report.faults;
    assert_eq!(faults.device_deaths, 1, "{faults:?}");
    assert!(faults.requeued_buffers > 0, "{faults:?}");
    pin_service(
        &out,
        "9578f3af42f93818e68c6e30abd8a6c63647b561f876247005a86e0d9705a40d",
        "c4b43f21455f64cd9f09e29a3dace86b7bc8625dc5911fd096dcbd98d610528d",
    );
}

/// The last-survivor guard. `ShredderConfig::validate` rejects a plan
/// that kills every device, so only the unvalidated timing-only path
/// can schedule one: device 1 dies mid-run, and the later death of
/// device 0 — the last survivor — must be skipped for the run to
/// finish.
#[test]
fn golden_synthetic_skipped_last_survivor_death() {
    let plan = FaultPlan::new()
        .straggler(Dur::ZERO, 0, 2.0)
        .device_death(Dur::from_micros(120), 1)
        .device_death(Dur::from_micros(400), 0);
    let shredder = Shredder::new(config().with_gpus(2).with_faults(plan));
    let report = shredder.simulate_synthetic(24, 32 << 10, Dur::from_micros(30), 4);
    assert_eq!(report.timeline.len(), 24);
    assert!(report.makespan > Dur::from_micros(400));
    pin(
        "synthetic report",
        &report,
        "fab9220ffcd9d0ac7fe1cc321fb91bcbe27c83e3d722a9f849ec58acacb9496f",
    );
}

#[test]
fn golden_telemetry_on() {
    let data = streams();
    let config = config().with_telemetry(TelemetryConfig::enabled());
    let out = faulted_service(config, &data)
        .run(&Workload::poisson(30_000.0, 5))
        .expect("telemetry run failed");
    assert!(out.report.telemetry.is_some());
    pin_service(
        &out,
        "05b5417811ada754c6ec9dfbbdd9cb95a00430786e22924e3489f75cb8d1ec6e",
        "c4b43f21455f64cd9f09e29a3dace86b7bc8625dc5911fd096dcbd98d610528d",
    );
}

#[test]
fn golden_fleet_two_nodes_two_replicas() {
    let data: Vec<Vec<u8>> = (0..8)
        .map(|t| workloads::random_bytes(48 << 10, 0xf1ee7 + t % 5))
        .collect();
    let mut fleet = ShredderFleet::new(FleetConfig::new(2, config()).with_replication(2));
    for (t, d) in data.iter().enumerate() {
        fleet.submit(
            FleetRequest::new(format!("tenant-{}", t % 3), SliceSource::new(d))
                .named(format!("req-{t}")),
        );
    }
    let out = fleet
        .run(&Workload::poisson(5_000.0, 3))
        .expect("fleet run failed");
    pin(
        "fleet report",
        &out.report,
        "0af33828cd4ff49ae772c76c766ee7ffc53def6ace6c5dca763161cd121010ca",
    );
    let outcomes: Vec<_> = out.requests.iter().map(|r| &r.outcome).collect();
    pin(
        "fleet outcomes",
        &outcomes,
        "e5a876334239ef7d98fa415e2f63aa2d430c5ccdcfbcfdcb6de32528713ab308",
    );
}
