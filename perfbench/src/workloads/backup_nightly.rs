//! `backup_nightly`: the paper's §7 backup case study, night after
//! night, with restore, retention and garbage collection.
//!
//! Large inputs and few requests: `rabin`, `hash` and `store` do the
//! work and the simulator dispatches few events. Writes, reads and GC
//! are mixed, so a gain for ingest that costs restore shows up.

use shredder_backup::{BackupConfig, BackupServer};
use shredder_core::{AdmissionControl, Shredder, ShredderConfig, Workload};
use shredder_rabin::ChunkParams;
use shredder_store::StoreConfig;
use shredder_workloads::{MasterImage, SimilarityTable};

use super::{reference_chunks, reference_digests, SimTotals, Size, RESTORE_ROUNDS};
use crate::trace::Pass;

/// Why this workload is in the benchmark.
pub(crate) const WHY: &str = "4 nights x 2 VM images derived from an 8 MiB master (skewed similarity) \
through backup_service, restore all 3x, expire half, GC, restore survivors 3x: rabin, hash and store work";

const NIGHTS: usize = 4;
const IMAGES_PER_NIGHT: usize = 2;
const BUFFER_BYTES: usize = 4 << 20;

/// The generated images, night by night.
pub(crate) struct Inputs {
    nights: Vec<Vec<Vec<u8>>>,
}

impl Inputs {
    /// Synthesizes the master image and derives every night's images
    /// from it: a tenth of the segments are hot (half of them change
    /// per image), the rest change with probability 0.02.
    pub(crate) fn new(seed: u64, size: Size) -> Self {
        let master = MasterImage::synthesize(size.pick(8 << 20, 512 << 10), 256 << 10, seed);
        let table = SimilarityTable::skewed(master.segments(), 0.1, 0.5, 0.02);
        let nights = (0..NIGHTS)
            .map(|night| {
                (0..IMAGES_PER_NIGHT)
                    .map(|k| {
                        let derive_seed = seed
                            .wrapping_mul(0x9e37_79b9)
                            .wrapping_add((night * IMAGES_PER_NIGHT + k) as u64);
                        master.derive(&table, derive_seed)
                    })
                    .collect()
            })
            .collect();
        Inputs { nights }
    }

    /// One pass: back up every night, restore every image, expire the
    /// older half, collect garbage and restore the survivors.
    pub(crate) fn run(&self, pass: &mut Pass) {
        let params = ChunkParams::backup();
        let shredder = Shredder::new(
            ShredderConfig::gpu_streams_memory()
                .with_params(params.clone())
                .with_buffer_size(BUFFER_BYTES),
        );
        let mut server = BackupServer::with_store_config(
            BackupConfig {
                buffer_size: BUFFER_BYTES,
                ..BackupConfig::paper()
            },
            StoreConfig {
                segment_bytes: 4 << 20,
                gc_threshold: 0.5,
                retention: None,
            },
        );

        let mut sim = SimTotals::default();
        let mut backed_up: Vec<(usize, &[u8])> = Vec::new();
        let mut chunk_counts = Vec::new();
        let mut backup_s = 0.0;
        let mut image_bytes = 0u64;
        let mut dedup_bytes = 0u64;
        for (night, images) in self.nights.iter().enumerate() {
            let images: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
            let (outcome, secs) = pass.span("backup.service", |_| {
                server.backup_service(
                    &images,
                    &shredder,
                    &Workload::Batch,
                    AdmissionControl::fifo(IMAGES_PER_NIGHT),
                )
            });
            backup_s += secs;
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(e) => return pass.check(false, || format!("night {night}: {e}")),
            };
            pass.model("night", &outcome.engine);
            sim.add_engine(&outcome.engine);
            for (report, image) in outcome.reports.iter().zip(&images) {
                match report {
                    Ok(report) => {
                        pass.model("image", report);
                        image_bytes += report.image_bytes;
                        dedup_bytes += report.dedup_bytes;
                        chunk_counts.push(report.chunks);
                        backed_up.push((report.image_id, image));
                        pass.check(true, String::new);
                    }
                    Err(e) => pass.check(false, || format!("night {night}: {e}")),
                }
            }
        }

        // Every image's chunks are the reference scan's, and every
        // reference fingerprint is held at the site.
        let inputs: Vec<&[u8]> = backed_up.iter().map(|(_, d)| *d).collect();
        let chunks = reference_chunks(pass, &inputs, &params);
        let digests = reference_digests(pass, &inputs, &chunks);
        for (k, (reference, count)) in chunks.iter().zip(&chunk_counts).enumerate() {
            pass.check(reference.len() == *count, || {
                format!(
                    "image {k}: {count} chunks, chunk_all finds {}",
                    reference.len()
                )
            });
            let held = digests[k].iter().all(|d| server.site().holds(d));
            pass.check(held, || {
                format!("image {k}: a sha256 digest is not at the site")
            });
        }
        let physical_per_logical =
            server.site().physical_bytes() as f64 / server.site().logical_bytes().max(1) as f64;

        let mut restored_bytes = 0u64;
        let mut restore_s = restore_all(pass, &server, &backed_up, &mut restored_bytes);

        let keep_from = backed_up.len() / 2;
        let through = backed_up[keep_from - 1].0;
        let expired = server.expire_images(through);
        pass.check(expired == keep_from, || {
            format!("expired {expired} images, expected {keep_from}")
        });
        let (gc, _) = pass.span("store.gc", |_| server.collect_garbage());
        for (id, _) in &backed_up[..keep_from] {
            pass.check(server.site().restore(*id).is_none(), || {
                format!("expired image {id} still restores")
            });
        }
        restore_s += restore_all(pass, &server, &backed_up[keep_from..], &mut restored_bytes);
        let after = server.site().report();

        let images = backed_up.len() as f64;
        pass.set("req_per_s", images / backup_s);
        pass.set("ingest_mb_per_s", image_bytes as f64 / 1e6 / backup_s);
        pass.set("restore_mb_per_s", restored_bytes as f64 / 1e6 / restore_s);
        pass.set("job_s", backup_s);
        pass.set("core.requests", images);
        pass.set(
            "backup.dedup_fraction",
            dedup_bytes as f64 / image_bytes.max(1) as f64,
        );
        pass.set("store.physical_per_logical", physical_per_logical);
        let index = server.index();
        pass.set(
            "store.index_hit_rate",
            index.hits() as f64 / index.lookups().max(1) as f64,
        );
        pass.set("store.gc_reclaim_fraction", gc.reclaim_fraction());
        pass.set("store.segments", after.segment_count as f64);
        drop(index);
        sim.finish(pass);
    }
}

/// Restores every image in `images` `RESTORE_ROUNDS` times and checks
/// each copy against its original; returns the restore wall time.
fn restore_all(
    pass: &mut Pass,
    server: &BackupServer,
    images: &[(usize, &[u8])],
    restored_bytes: &mut u64,
) -> f64 {
    let mut total_s = 0.0;
    for (id, original) in (0..RESTORE_ROUNDS).flat_map(|_| images) {
        let (bytes, secs) = pass.span("store.restore", |_| server.site().restore(*id));
        total_s += secs;
        pass.check(bytes.as_deref() == Some(*original), || {
            format!("image {id}: restore differs from the original")
        });
        *restored_bytes += original.len() as u64;
    }
    total_s
}
