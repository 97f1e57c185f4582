//! Integration: case study II end to end.
//!
//! Multi-night VM snapshot backups through CPU and GPU chunking engines:
//! every image restores byte-identical; dedup grows with similarity;
//! Shredder-GPU sustains higher backup bandwidth than pthreads-CPU.

use shredder::backup::{BackupConfig, BackupServer};
use shredder::core::{HostChunker, HostChunkerConfig, Shredder, ShredderConfig};
use shredder::rabin::ChunkParams;
use shredder::workloads::{MasterImage, SimilarityTable};

fn cpu_service() -> HostChunker {
    HostChunker::new(HostChunkerConfig {
        params: ChunkParams::backup(),
        ..HostChunkerConfig::optimized()
    })
}

fn gpu_service() -> Shredder {
    Shredder::new(
        ShredderConfig::gpu_streams_memory()
            .with_params(ChunkParams::backup())
            .with_buffer_size(1 << 20),
    )
}

fn test_config() -> BackupConfig {
    BackupConfig {
        buffer_size: 1 << 20,
        ..BackupConfig::paper()
    }
}

#[test]
fn week_of_snapshots_restores_bit_exact() {
    let master = MasterImage::synthesize(4 << 20, 64 << 10, 1);
    let table = SimilarityTable::uniform(master.segments(), 0.15);
    let svc = cpu_service();

    let mut server = BackupServer::new(test_config());
    let mut snapshots = vec![master.data().to_vec()];
    for night in 1..=6u64 {
        snapshots.push(master.derive(&table, night));
    }
    let mut reports = Vec::new();
    for snap in &snapshots {
        reports.push(server.backup_image(snap, &svc).unwrap());
    }
    for (i, snap) in snapshots.iter().enumerate() {
        assert_eq!(
            &server.site().restore(reports[i].image_id).unwrap(),
            snap,
            "night {i} restore mismatch"
        );
    }
    // Later nights dedup most content against the accumulated index.
    for report in &reports[1..] {
        assert!(
            report.dedup_fraction() > 0.6,
            "dedup {}",
            report.dedup_fraction()
        );
    }
    // The site stores far less than the logical total.
    assert!(server.site().dedup_ratio() > 3.0);
}

#[test]
fn gpu_and_cpu_agree_on_what_is_new() {
    let master = MasterImage::synthesize(2 << 20, 64 << 10, 2);
    let table = SimilarityTable::uniform(master.segments(), 0.10);
    let snap = master.derive(&table, 9);

    let run = |svc: &Shredder| {
        let mut server = BackupServer::new(test_config());
        server.backup_image(master.data(), svc).unwrap();
        server.backup_image(&snap, svc).unwrap()
    };
    let cpu = run(&cpu_service());
    let gpu = run(&gpu_service());

    // Identical chunking -> identical dedup decisions.
    assert_eq!(cpu.chunks, gpu.chunks);
    assert_eq!(cpu.new_chunks, gpu.new_chunks);
    assert_eq!(cpu.new_bytes, gpu.new_bytes);
    // ...but the GPU engine is faster end to end.
    assert!(
        gpu.bandwidth_gbps() > cpu.bandwidth_gbps(),
        "gpu {} !> cpu {}",
        gpu.bandwidth_gbps(),
        cpu.bandwidth_gbps()
    );
}

#[test]
fn min_max_chunk_sizes_enforced_in_backup() {
    let master = MasterImage::synthesize(2 << 20, 64 << 10, 3);
    let mut server = BackupServer::new(test_config());
    let report = server.backup_image(master.data(), &cpu_service()).unwrap();
    assert!(report.chunks > 0);

    let params = ChunkParams::backup();
    // Verify via the manifest: restore and re-chunk.
    let restored = server.site().restore(report.image_id).unwrap();
    let chunks = shredder::rabin::chunk_all(&restored, &params);
    for (i, c) in chunks.iter().enumerate() {
        assert!(c.len <= params.max_size);
        if i + 1 != chunks.len() {
            assert!(c.len >= params.min_size, "chunk {i}: {}", c.len);
        }
    }
}

#[test]
fn skewed_similarity_tables_dedup_accordingly() {
    let master = MasterImage::synthesize(4 << 20, 64 << 10, 4);
    // Hot 20% of segments change almost always; cold 80% almost never.
    let skewed = SimilarityTable::skewed(master.segments(), 0.2, 0.95, 0.01);
    let snap = master.derive(&skewed, 5);

    let mut server = BackupServer::new(test_config());
    server.backup_image(master.data(), &cpu_service()).unwrap();
    let report = server.backup_image(&snap, &cpu_service()).unwrap();

    let expected_change = skewed.expected_change();
    let new_fraction = report.new_bytes as f64 / report.image_bytes as f64;
    assert!(
        (new_fraction - expected_change).abs() < 0.15,
        "new fraction {new_fraction} vs expected change {expected_change}"
    );
    assert_eq!(server.site().restore(report.image_id).unwrap(), snap);
}

#[test]
fn index_statistics_track_dedup() {
    let image = shredder::workloads::compressible_bytes(1 << 20, 64, 6);
    let mut server = BackupServer::new(test_config());
    let first = server.backup_image(&image, &cpu_service()).unwrap();
    let lookups_after_first = server.index().lookups();
    assert_eq!(lookups_after_first, first.chunks as u64);

    let second = server.backup_image(&image, &cpu_service()).unwrap();
    assert_eq!(second.new_chunks, 0);
    assert_eq!(
        server.index().hits(),
        first.chunks as u64 - first.new_chunks as u64 + second.chunks as u64
    );
}
