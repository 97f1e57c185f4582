//! `fleet_repair`: a four-node fleet with two-way replication loses a
//! node a third of the way in, takes it back two thirds in and repairs
//! it from replicas.
//!
//! The only workload for the `cluster` layer: routing, dedup-aware
//! replication, rebalance and repair over the nodes' simulations.

use std::collections::BTreeMap;

use shredder_cluster::{
    FleetConfig, FleetRequest, FleetRequestOutcome, MembershipPlan, ShredderFleet,
};
use shredder_core::{
    AdmissionControl, FaultPlan, ShredderConfig, SliceSource, TenantClass, Workload,
};
use shredder_des::SimTime;
use shredder_hash::{sha256, Digest, SeededRng};

use super::{random_bytes, reference_chunks, SimTotals, Size, RESTORE_ROUNDS};
use crate::trace::Pass;

/// Why this workload is in the benchmark.
pub(crate) const WHY: &str =
    "512 requests of 64 KiB from 16 tenants in 4 content-sharing families on 4 \
nodes with R=2, Poisson; node 1 dies at 1/3 and rejoins at 2/3 for repair: the cluster layer";

const NODES: usize = 4;
const TENANTS: usize = 16;
const FAMILIES: usize = 4;
const DEAD_NODE: usize = 1;

/// Offered load, requests per simulated second: below the fleet's
/// modelled capacity for this mix, so the model completes it at the
/// offered rate with nothing shed (simulated p99 under 1 ms).
const RATE_RPS: f64 = 6_000.0;

/// The generated requests: `(tenant stream, class, bytes)`.
pub(crate) struct Inputs {
    seed: u64,
    requests: Vec<(String, &'static str, Vec<u8>)>,
}

fn config() -> FleetConfig {
    FleetConfig::new(
        NODES,
        ShredderConfig::gpu_streams_memory().with_buffer_size(64 << 10),
    )
    .with_admission(AdmissionControl::fifo(2))
    .with_replication(2)
    .with_class(TenantClass::new("vm").with_weight(2))
    .with_class(TenantClass::new("db"))
}

impl Inputs {
    /// Generates the requests. Each tenant belongs to one of four
    /// families; a request is its family's base image with two 4 KiB
    /// blocks rewritten, so tenants share most content across nodes.
    pub(crate) fn new(seed: u64, size: Size) -> Self {
        let n = size.pick(512, 32);
        let request_bytes = size.pick(64 << 10, 16 << 10);
        let mut rng = SeededRng::new(seed ^ 0xf1ee_7000);
        let bases: Vec<Vec<u8>> = (0..FAMILIES)
            .map(|_| random_bytes(&mut rng, request_bytes))
            .collect();
        let requests = (0..n)
            .map(|_| {
                let tenant = rng.next_below(TENANTS as u64) as usize;
                let mut data = bases[tenant % FAMILIES].clone();
                for _ in 0..2 {
                    let at = rng.next_below((request_bytes - 4096) as u64) as usize;
                    data[at..at + 4096].copy_from_slice(&random_bytes(&mut rng, 4096));
                }
                let class = if tenant.is_multiple_of(3) { "db" } else { "vm" };
                (format!("tenant-{tenant}"), class, data)
            })
            .collect();
        Inputs { seed, requests }
    }

    /// One pass: run the fleet through the death and the rejoin, check
    /// every completed request's chunks, restore every stream's
    /// generations from its owner and scrub the repaired node.
    pub(crate) fn run(&self, pass: &mut Pass) {
        let n = self.requests.len();
        let workload = Workload::poisson(RATE_RPS, self.seed);
        let arrivals = workload
            .arrivals(n)
            .expect("Poisson arrivals are precomputable");
        let death_at = arrivals[n / 3] - SimTime::ZERO;
        let rejoin_at = arrivals[2 * n / 3] - SimTime::ZERO;
        let config = config()
            .with_faults(FaultPlan::new().device_death(death_at, DEAD_NODE))
            .with_membership(MembershipPlan::new().join(rejoin_at, DEAD_NODE));
        let final_ring = config.initial_ring();
        let params = config.node.params.clone();

        let mut fleet = ShredderFleet::new(config);
        for (k, (stream, class, data)) in self.requests.iter().enumerate() {
            fleet.submit(
                FleetRequest::new(stream.clone(), SliceSource::new(data))
                    .named(format!("req-{k}"))
                    .with_class(*class),
            );
        }
        let (outcome, run_s) = pass.span("cluster.run", |_| fleet.run(&workload));
        drop(fleet);
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => return pass.check(false, || format!("fleet run failed: {e}")),
        };
        let report = &outcome.report;
        pass.model("fleet", report);

        let inputs: Vec<&[u8]> = self.requests.iter().map(|(_, _, d)| d.as_slice()).collect();
        let chunks = reference_chunks(pass, &inputs, &params);
        let (digests, _) = pass.span("hash.sha256", |_| {
            inputs.iter().map(|d| sha256(d)).collect::<Vec<Digest>>()
        });
        pass.add("hash.bytes", inputs.iter().map(|d| d.len() as f64).sum());
        // Per store stream: the digests of its completed requests' bytes.
        let mut committed: BTreeMap<&str, Vec<Digest>> = BTreeMap::new();
        let mut lost = 0usize;
        for (k, request) in outcome.requests.iter().enumerate() {
            match &request.outcome {
                FleetRequestOutcome::Completed(session) => {
                    pass.check(session.chunks == chunks[k], || {
                        format!("{}: boundaries differ from chunk_all", request.name)
                    });
                    committed
                        .entry(&request.store_stream)
                        .or_default()
                        .push(digests[k]);
                }
                FleetRequestOutcome::Shed(e) => {
                    pass.check(false, || format!("{}: {e}", request.name));
                }
                // Lost with the planned node death: reported, not failed.
                FleetRequestOutcome::Lost => lost += 1,
            }
        }

        // Every generation of every stream, restored from the stream's
        // owner on the final ring, is one of its completed requests.
        let mut restore_s = 0.0;
        let mut restored_bytes = 0u64;
        for _ in 0..RESTORE_ROUNDS {
            let (restored, secs) = pass.span("store.restore", |_| {
                committed
                    .keys()
                    .map(|store_stream| {
                        let owner = final_ring
                            .route(tenant_of(store_stream))
                            .expect("ring has nodes");
                        let store = outcome.store(owner).expect("owner is a fleet node");
                        let store = store.borrow();
                        let generations: Vec<_> = store
                            .generations(store_stream)
                            .iter()
                            .map(|&g| store.restore(store_stream, g).ok())
                            .collect();
                        (*store_stream, generations)
                    })
                    .collect::<Vec<_>>()
            });
            restore_s += secs;
            for (store_stream, generations) in restored {
                let known = &committed[store_stream];
                pass.check(!generations.is_empty(), || {
                    format!("{store_stream}: no generation at its owner")
                });
                for bytes in generations {
                    let ok = bytes.as_ref().is_some_and(|b| known.contains(&sha256(b)));
                    pass.check(ok, || {
                        format!(
                            "{store_stream}: a generation does not restore to a committed request"
                        )
                    });
                    restored_bytes += bytes.map_or(0, |b| b.len() as u64);
                }
            }
        }

        let repaired = outcome.store(DEAD_NODE).expect("the dead node rejoined");
        let (scrub, _) = pass.span("cluster.scrub", |_| repaired.borrow().scrub().map(|_| ()));
        pass.check(scrub.is_ok(), || {
            format!("repaired node's scrub failed: {scrub:?}")
        });

        let (physical, logical, segments) = (0..NODES).filter_map(|node| outcome.store(node)).fold(
            (0u64, 0u64, 0usize),
            |(p, l, s), store| {
                let store = store.borrow();
                (
                    p + store.physical_bytes(),
                    l + store.logical_bytes(),
                    s + store.segment_count(),
                )
            },
        );
        pass.set("req_per_s", report.completed as f64 / run_s);
        pass.set("ingest_mb_per_s", report.ingest_bytes as f64 / 1e6 / run_s);
        pass.set("restore_mb_per_s", restored_bytes as f64 / 1e6 / restore_s);
        pass.set("job_s", run_s);
        pass.set("core.requests", report.completed as f64);
        pass.set(
            "cluster.replication_amplification",
            report.replication_amplification(),
        );
        pass.set(
            "cluster.cross_node_dup_fraction",
            report.cross_node_dup_fraction(),
        );
        pass.set("cluster.repair_bytes", report.repair.bytes_copied as f64);
        pass.set(
            "cluster.rebalance_moved_fraction",
            report.rebalance.max_moved_fraction,
        );
        pass.set("cluster.lost", lost as f64);
        pass.set(
            "store.physical_per_logical",
            physical as f64 / logical.max(1) as f64,
        );
        pass.set("store.segments", segments as f64);

        let mut sim = SimTotals::default();
        sim.add_run(report.ingest_bytes, report.makespan, report.achieved_rps);
        sim.finish(pass);
        pass.set("sim.p50_ms", report.p50.as_millis_f64());
        pass.set("sim.p99_ms", report.p99.as_millis_f64());
        pass.set("sim.shed", report.shed as f64);
    }
}

/// The tenant stream a store stream (`<tenant>@e<epoch>`) belongs to.
fn tenant_of(store_stream: &str) -> &str {
    store_stream
        .rsplit_once('@')
        .map_or(store_stream, |(tenant, _)| tenant)
}
