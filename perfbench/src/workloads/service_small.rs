//! `service_small`: order-10⁴ tiny requests through `ShredderService`.
//!
//! Per-request fixed cost dominates here — `core` scheduling and `des`
//! dispatch — while `rabin`, `hash` and `store` have little to do. This
//! is where a cheaper simulator core must show its gain.

use std::cell::RefCell;
use std::rc::Rc;

use shredder_core::{
    AdmissionControl, AdmissionPolicy, ChunkRequest, ShredderConfig, ShredderService, SliceSource,
    StoreSink, StoreSinkConfig, TenantClass, Workload,
};
use shredder_hash::SeededRng;
use shredder_store::ChunkStore;

use super::{random_bytes, reference_chunks, reference_digests, SimTotals, Size, RESTORE_ROUNDS};
use crate::trace::Pass;

/// Why this workload is in the benchmark.
pub(crate) const WHY: &str =
    "8192 requests of 512 B-4 KiB, Poisson at half the modelled capacity, two \
weighted classes, half repeated content, into one store: per-request core and des cost dominates";

/// Offered load, requests per simulated second: half the capacity the
/// model reports for this request mix under `Workload::Batch`
/// (19.5k req/s), so no backlog builds.
const RATE_RPS: f64 = 9_750.0;

/// The generated requests.
pub(crate) struct Inputs {
    seed: u64,
    requests: Vec<(Vec<u8>, &'static str)>,
}

fn config() -> ShredderConfig {
    ShredderConfig::gpu_streams_memory().with_buffer_size(64 << 10)
}

impl Inputs {
    /// Generates the requests: sizes uniform in 512 B–4 KiB, half of
    /// them repeating an earlier request's content, one in four in the
    /// heavier-weighted class.
    pub(crate) fn new(seed: u64, size: Size) -> Self {
        let n = size.pick(8192, 64);
        let mut rng = SeededRng::new(seed ^ 0x5e41_ce00);
        let mut requests: Vec<(Vec<u8>, &'static str)> = Vec::with_capacity(n);
        for i in 0..n {
            let data = if i > 0 && rng.next_below(2) == 0 {
                requests[rng.next_below(i as u64) as usize].0.clone()
            } else {
                let len = 512 + rng.next_below(4096 - 512 + 1) as usize;
                random_bytes(&mut rng, len)
            };
            let class = if rng.next_below(4) == 0 {
                "gold"
            } else {
                "bronze"
            };
            requests.push((data, class));
        }
        Inputs { seed, requests }
    }

    /// One pass: serve every request, check chunks and digests against
    /// the reference, restore every committed request.
    pub(crate) fn run(&self, pass: &mut Pass) {
        let n = self.requests.len();
        let store = Rc::new(RefCell::new(ChunkStore::new()));
        let mut sinks: Vec<StoreSink> = (0..n)
            .map(|i| {
                StoreSink::new(
                    format!("req-{i}"),
                    StoreSinkConfig::default(),
                    store.clone(),
                )
            })
            .collect();
        let mut service = ShredderService::new(config())
            .with_admission(AdmissionControl::fifo(4).with_policy(AdmissionPolicy::Weighted));
        service.define_class(TenantClass::new("gold").with_weight(3));
        service.define_class(TenantClass::new("bronze"));
        for (i, ((data, class), sink)) in self.requests.iter().zip(sinks.iter_mut()).enumerate() {
            service.submit(
                ChunkRequest::new(SliceSource::new(data))
                    .named(format!("req-{i}"))
                    .with_class(*class)
                    .with_sink(sink),
            );
        }
        let workload = Workload::poisson(RATE_RPS, self.seed);
        let (outcome, run_s) = pass.span("core.run", |_| service.run(&workload));
        drop(service);
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => return pass.check(false, || format!("service run failed: {e}")),
        };
        pass.model("service", &outcome.report);
        let svc = outcome.service();
        pass.check(svc.achieved_rps >= 0.9 * svc.offered_rps, || {
            format!(
                "backlog: {:.0} req/s achieved of {:.0} offered",
                svc.achieved_rps, svc.offered_rps
            )
        });

        let inputs: Vec<&[u8]> = self.requests.iter().map(|(d, _)| d.as_slice()).collect();
        let chunks = reference_chunks(pass, &inputs, &config().params);
        let digests = reference_digests(pass, &inputs, &chunks);

        let store = store.borrow();
        let mut completed = 0usize;
        let mut ingested = 0u64;
        let mut committed = Vec::new();
        for (i, request) in outcome.requests.iter().enumerate() {
            let session = match &request.outcome {
                Ok(session) => session,
                Err(e) => {
                    pass.check(false, || format!("{}: {e}", request.name));
                    continue;
                }
            };
            completed += 1;
            ingested += inputs[i].len() as u64;
            pass.check(session.chunks == chunks[i], || {
                format!("{}: boundaries differ from chunk_all", request.name)
            });
            let stored = sinks[i]
                .generation()
                .and_then(|g| store.manifest(&format!("req-{i}"), g).map(|m| (g, m)));
            let Some((generation, manifest)) = stored else {
                pass.check(false, || format!("{}: no committed manifest", request.name));
                continue;
            };
            let same = manifest.entries.len() == digests[i].len()
                && manifest
                    .entries
                    .iter()
                    .zip(&digests[i])
                    .all(|(e, d)| e.digest == *d);
            pass.check(same, || {
                format!("{}: digests differ from sha256", request.name)
            });
            committed.push((i, generation));
        }

        let mut restore_s = 0.0;
        let mut restored_bytes = 0u64;
        for _ in 0..RESTORE_ROUNDS {
            let (restored, secs) = pass.span("store.restore", |_| {
                committed
                    .iter()
                    .map(|&(i, g)| (i, store.restore(&format!("req-{i}"), g)))
                    .collect::<Vec<_>>()
            });
            restore_s += secs;
            for (i, bytes) in restored {
                let ok = bytes.as_deref().is_ok_and(|b| b == inputs[i]);
                pass.check(ok, || format!("req-{i}: restore differs from its input"));
                restored_bytes += inputs[i].len() as u64;
            }
        }

        let chunk_puts: usize = sinks.iter().map(StoreSink::chunks).sum();
        pass.set("req_per_s", completed as f64 / run_s);
        pass.set("ingest_mb_per_s", ingested as f64 / 1e6 / run_s);
        pass.set("restore_mb_per_s", restored_bytes as f64 / 1e6 / restore_s);
        pass.set("job_s", run_s);
        pass.set("core.requests", completed as f64);
        pass.set(
            "store.physical_per_logical",
            store.physical_bytes() as f64 / store.logical_bytes().max(1) as f64,
        );
        pass.set(
            "store.index_hit_rate",
            store.dedup_hits() as f64 / chunk_puts.max(1) as f64,
        );
        pass.set("store.segments", store.segment_count() as f64);

        let mut sim = SimTotals::default();
        sim.add_engine(&outcome.report);
        sim.finish(pass);
    }
}
