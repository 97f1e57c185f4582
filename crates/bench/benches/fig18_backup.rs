//! Figure 18: backup bandwidth improvement due to Shredder with varying
//! image similarity ratios.
//!
//! The §7.3 emulation: a master VM image in memory, snapshot images
//! derived through a similarity table (probability of each segment being
//! replaced), a 10 Gbps image source, min/max chunk sizes enabled. Each
//! snapshot is backed up through the pthreads-CPU engine and through the
//! fully-optimized Shredder-GPU engine; restored images are verified
//! byte-identical.

use shredder_backup::{BackupConfig, BackupServer};
use shredder_bench::{check, dump_bench_json, header, table};
use shredder_core::{
    AdmissionControl, HostChunker, HostChunkerConfig, Shredder, ShredderConfig, Workload,
};
use shredder_rabin::ChunkParams;
use shredder_workloads::{MasterImage, SimilarityTable};

const CHANGE_PROBS: [f64; 5] = [0.05, 0.10, 0.15, 0.20, 0.25];

fn main() {
    header(
        "Figure 18",
        "Backup bandwidth vs probability of segment changes (10 Gbps source)",
    );

    let mb = std::env::var("SHREDDER_FIG18_MB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(128);
    let master = MasterImage::synthesize(mb << 20, 256 << 10, 0xf18);

    // The §7.2 server reuses Shredder's streaming pipeline as a stage of
    // its own: one shared buffer size end to end, on host cores and on
    // the GPU alike. The sink stages batch their work per pipeline
    // buffer, so the buffer size sets the hash/lookup/ship pipelining
    // grain — 4 MiB keeps the downstream stages overlapped with chunking
    // (Figure 3 shows DMA is already near peak bandwidth at this size),
    // and streams the image through enough admissions to reach steady
    // state (the paper's servers stream far more data than fits one
    // pipeline fill).
    let host = HostChunkerConfig {
        params: ChunkParams::backup(),
        ..HostChunkerConfig::optimized()
    };
    let cpu = HostChunker::new(ShredderConfig::from(host).with_buffer_size(4 << 20));
    let gpu = Shredder::new(
        ShredderConfig::gpu_streams_memory()
            .with_params(ChunkParams::backup())
            .with_buffer_size(4 << 20),
    );

    let mut rows = Vec::new();
    let mut cpu_curve = Vec::new();
    let mut gpu_curve = Vec::new();

    for &p in &CHANGE_PROBS {
        let table_p = SimilarityTable::uniform(master.segments(), p);
        let snapshot = master.derive(&table_p, (p * 1000.0) as u64);

        let run = |service: &Shredder| {
            let mut server = BackupServer::new(BackupConfig::paper());
            server
                .backup_image(master.data(), service)
                .expect("backup failed"); // seed the site
            let report = server
                .backup_image(&snapshot, service)
                .expect("backup failed");
            let restored = server
                .site()
                .restore(report.image_id)
                .expect("restore must succeed");
            assert_eq!(restored, snapshot, "restored image differs");
            report.bandwidth_gbps()
        };

        let cpu_bw = run(&cpu);
        let gpu_bw = run(&gpu);
        cpu_curve.push(cpu_bw);
        gpu_curve.push(gpu_bw);
        rows.push((
            format!("p = {p:.2}"),
            vec![format!("{cpu_bw:.2} Gbps"), format!("{gpu_bw:.2} Gbps")],
        ));
    }

    table(&["Pthreads-CPU", "Shredder-GPU"], &rows);
    println!("  (every backed-up snapshot restored byte-identical at the backup site)");

    println!();
    let speedup: Vec<f64> = cpu_curve
        .iter()
        .zip(&gpu_curve)
        .map(|(c, g)| g / c)
        .collect();
    let mean_speedup = speedup.iter().sum::<f64>() / speedup.len() as f64;
    check(
        &format!("Shredder ~2.5x the pthreads backup bandwidth (paper: 2.5x; measured {mean_speedup:.1}x)"),
        (1.8..3.5).contains(&mean_speedup),
    );
    check(
        "Shredder keeps backup bandwidth near the 10 Gbps target at high similarity",
        gpu_curve[0] > 6.0,
    );
    check(
        "GPU bandwidth declines as similarity decreases (unoptimized index/network)",
        gpu_curve[0] > gpu_curve[4],
    );
    check(
        "CPU stays chunking-bound and roughly flat (within 25% across the sweep)",
        {
            let max = cpu_curve.iter().cloned().fold(f64::MIN, f64::max);
            let min = cpu_curve.iter().cloned().fold(f64::MAX, f64::min);
            (max - min) / max < 0.25
        },
    );

    // ----- Multi-site consolidation: the session engine (§7.2). -----
    // The same nightly snapshots from four remote sites, backed up as
    // ONE batch: every site is a session on one shared chunking
    // pipeline instead of a serial backup_image loop.
    println!();
    header(
        "Figure 18 (extended)",
        "Consolidated multi-site backup through the session engine",
    );
    let table_sites = SimilarityTable::uniform(master.segments(), 0.10);
    let snapshots: Vec<Vec<u8>> = (1..=4u64)
        .map(|site| master.derive(&table_sites, 100 + site))
        .collect();
    let images: Vec<&[u8]> = snapshots.iter().map(|s| s.as_slice()).collect();

    let mut batch_server = BackupServer::new(BackupConfig::paper());
    batch_server
        .backup_image(master.data(), &gpu)
        .expect("seed backup failed");
    let batch = batch_server
        .backup_service(
            &images,
            &gpu,
            &Workload::Batch,
            AdmissionControl::unbounded(),
        )
        .expect("batch backup failed");
    let reports: Vec<_> = batch.reports.iter().flatten().collect();
    assert_eq!(
        reports.len(),
        images.len(),
        "an unbounded batch sheds nothing"
    );

    for (report, snapshot) in reports.iter().zip(&snapshots) {
        let restored = batch_server
            .site()
            .restore(report.image_id)
            .expect("restore must succeed");
        assert_eq!(&restored, snapshot, "batched site restored differently");
    }
    println!("  (all 4 batched site snapshots restored byte-identical)");
    for (i, r) in batch.engine.sessions.iter().enumerate() {
        println!(
            "  site-{i}: makespan {:>7.2} ms (sink demand {:>7.2} ms), queueing {:>7.2} ms, dedup {:>5.1}%",
            r.makespan.as_millis_f64(),
            r.sink_service.as_millis_f64(),
            r.queue_wait.as_millis_f64(),
            reports[i].dedup_fraction() * 100.0,
        );
    }
    // Per-stage accounting of the full graph, all from the ONE shared
    // simulation: the chunking pipeline plus the hash → dedup → ship
    // sink stages the sites contend on.
    println!();
    println!(
        "  chunk pipeline busy: read {:>7.2} ms, transfer {:>7.2} ms, kernel {:>7.2} ms, store {:>7.2} ms",
        batch.engine.stage_busy.read.as_millis_f64(),
        batch.engine.stage_busy.transfer.as_millis_f64(),
        batch.engine.stage_busy.kernel.as_millis_f64(),
        batch.engine.stage_busy.store.as_millis_f64(),
    );
    for stage in &batch.engine.sink_stages {
        println!(
            "  sink stage {:<12} busy {:>7.2} ms, queue wait {:>7.2} ms, {:>3} batches",
            stage.name,
            stage.busy.as_millis_f64(),
            stage.queue_wait.as_millis_f64(),
            stage.jobs,
        );
    }
    check(
        "batched sites share one engine (every site session reported)",
        batch.engine.sessions.len() == 4,
    );
    let best_single_site = batch
        .engine
        .sessions
        .iter()
        .map(|r| r.throughput_gbps())
        .fold(f64::MIN, f64::max);
    check(
        "consolidated chunking aggregate exceeds any single site's own rate (overlap)",
        batch.engine.aggregate_gbps() > best_single_site,
    );
    let busy_sum = batch.engine.stage_busy.read
        + batch.engine.stage_busy.transfer
        + batch.engine.stage_busy.kernel
        + batch.engine.stage_busy.store
        + batch
            .engine
            .sink_stages
            .iter()
            .map(|s| s.busy)
            .sum::<shredder_des::Dur>();
    check(
        "hashing overlaps chunking (end-to-end makespan < sum of stage busy times)",
        batch.engine.makespan < busy_sum,
    );
    check(
        "batch backup bandwidth is reported and finite",
        batch.aggregate_bandwidth_gbps() > 0.0 && batch.aggregate_bandwidth_gbps().is_finite(),
    );
    check(
        "dedup-index counters are surfaced (hit rate within (0, 1))",
        batch.index_hit_rate() > 0.0 && batch.index_hit_rate() < 1.0,
    );

    // Perf-trajectory dump so the backup-bandwidth figure is tracked
    // release over release (uploaded by the CI bench job).
    dump_bench_json(&format!(
        concat!(
            "{{\n",
            "  \"name\": \"fig18_backup\",\n",
            "  \"cpu_gbps_p05\": {:.6},\n",
            "  \"gpu_gbps_p05\": {:.6},\n",
            "  \"cpu_gbps_p25\": {:.6},\n",
            "  \"gpu_gbps_p25\": {:.6},\n",
            "  \"mean_speedup\": {:.6},\n",
            "  \"batch_aggregate_gbps\": {:.6},\n",
            "  \"index_hit_rate\": {:.6}\n",
            "}}\n"
        ),
        cpu_curve[0],
        gpu_curve[0],
        cpu_curve[4],
        gpu_curve[4],
        mean_speedup,
        batch.aggregate_bandwidth_gbps(),
        batch.index_hit_rate(),
    ));
}
