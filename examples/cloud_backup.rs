//! Case study II: consolidated cloud backup with dedup (paper §7).
//!
//! Run with `cargo run --release --example cloud_backup`.
//!
//! Emulates the §7.3 environment: a master VM image, nightly snapshots
//! derived through a segment-similarity table, and a backup server that
//! chunks each snapshot with Shredder (min/max chunk sizes enabled),
//! deduplicates against the index, and ships only new chunks to the
//! backup site — which restores and verifies every image.

use shredder::backup::{BackupConfig, BackupServer};
use shredder::core::{AdmissionControl, Shredder, ShredderConfig, Workload};
use shredder::rabin::ChunkParams;
use shredder::workloads::{MasterImage, SimilarityTable};

fn main() {
    // A 64 MiB master image split into 256 KiB segments; 10% of segments
    // change per nightly snapshot.
    let master = MasterImage::synthesize(64 << 20, 256 << 10, 99);
    let table = SimilarityTable::uniform(master.segments(), 0.10);

    // The fully optimized GPU chunking service with backup chunk-size
    // constraints (min 2 KiB / max 16 KiB, §7.3).
    let service = Shredder::new(
        ShredderConfig::gpu_streams_memory()
            .with_params(ChunkParams::backup())
            .with_buffer_size(16 << 20),
    );

    let mut server = BackupServer::new(BackupConfig::paper());

    // Night 0: full backup of the master image.
    let full = server.backup_image(master.data(), &service).unwrap();
    println!(
        "night 0 : {:>6} chunks, {:>5} MiB shipped, {:>5.2} Gbps",
        full.chunks,
        full.new_bytes >> 20,
        full.bandwidth_gbps()
    );

    // Nights 1-5: incremental snapshots.
    for night in 1..=5u64 {
        let snapshot = master.derive(&table, night);
        let report = server.backup_image(&snapshot, &service).unwrap();
        let restored = server
            .site()
            .restore(report.image_id)
            .expect("restore must succeed");
        assert_eq!(restored, snapshot, "integrity check failed");
        println!(
            "night {night} : {:>6} chunks, {:>5} MiB shipped ({:>4.1}% dedup), {:>5.2} Gbps",
            report.chunks,
            report.new_bytes >> 20,
            report.dedup_fraction() * 100.0,
            report.bandwidth_gbps()
        );
    }

    println!(
        "\nbackup site: {} images, {} MiB physical for {} MiB logical ({:.1}x dedup)",
        server.site().image_count(),
        server.site().physical_bytes() >> 20,
        server.site().logical_bytes() >> 20,
        server.site().dedup_ratio()
    );
    println!(
        "index: {} fingerprints, {} lookups, {} duplicate hits",
        server.index().len(),
        server.index().lookups(),
        server.index().hits()
    );

    // Night 6: four remote sites consolidated in ONE batch. Chunking,
    // fingerprinting, index lookup and shipping for all sites run in one
    // shared simulation — the per-stage report below comes from it, and
    // the makespan being smaller than the summed stage busy times is the
    // overlap the staged sink API exists for.
    let snapshots: Vec<Vec<u8>> = (10..14u64)
        .map(|site| master.derive(&table, site))
        .collect();
    let images: Vec<&[u8]> = snapshots.iter().map(|s| s.as_slice()).collect();
    let batch = server
        .backup_service(
            &images,
            &service,
            &Workload::Batch,
            AdmissionControl::unbounded(),
        )
        .unwrap();
    println!(
        "\nnight 6 (4 sites, one engine): {:.2} Gbps aggregate, makespan {:.2} ms",
        batch.aggregate_bandwidth_gbps(),
        batch.engine.makespan.as_millis_f64()
    );
    for stage in &batch.engine.sink_stages {
        println!(
            "  stage {:<12} busy {:>8.2} ms   queue wait {:>8.2} ms",
            stage.name,
            stage.busy.as_millis_f64(),
            stage.queue_wait.as_millis_f64()
        );
    }
    let busy_sum = batch.engine.stage_busy.read
        + batch.engine.stage_busy.transfer
        + batch.engine.stage_busy.kernel
        + batch.engine.stage_busy.store
        + batch
            .engine
            .sink_stages
            .iter()
            .map(|s| s.busy)
            .sum::<shredder::des::Dur>();
    println!(
        "  overlap: makespan {:.2} ms < stage busy sum {:.2} ms",
        batch.engine.makespan.as_millis_f64(),
        busy_sum.as_millis_f64()
    );
    for (report, snapshot) in batch.reports.iter().flatten().zip(&snapshots) {
        assert_eq!(
            &server.site().restore(report.image_id).unwrap(),
            snapshot,
            "batched restore mismatch"
        );
    }
}
