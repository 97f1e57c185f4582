//! Integration: small-scale versions of the paper's headline shapes, so
//! plain `cargo test` exercises what the full bench harness validates.

use shredder::core::{HostChunker, HostChunkerConfig, Shredder, ShredderConfig};
use shredder::gpu::dma::Direction;
use shredder::gpu::kernel::{ChunkKernel, KernelVariant};
use shredder::gpu::{DeviceConfig, DmaModel, HostMemKind, PinnedRing};
use shredder::rabin::ChunkParams;
use shredder::workloads;

#[test]
fn fig3_shape_pinned_vs_pageable() {
    let dma = DmaModel::new();
    let h2d = Direction::HostToDevice;
    let small_pinned = dma.effective_bandwidth(h2d, HostMemKind::Pinned, 4 << 10);
    let big_pinned = dma.effective_bandwidth(h2d, HostMemKind::Pinned, 64 << 20);
    let big_pageable = dma.effective_bandwidth(h2d, HostMemKind::Pageable, 64 << 20);
    assert!(small_pinned < big_pinned / 5.0);
    assert!(big_pinned > big_pageable);
    assert!(big_pinned / big_pageable < 2.0, "gap should narrow at 64M");
}

#[test]
fn fig6_shape_ring_amortizes_pinning() {
    let ring = PinnedRing::new(4, 32 << 20);
    assert!(
        ring.per_buffer_time_without_ring().as_secs_f64()
            > 10.0 * ring.per_buffer_time().as_secs_f64()
    );
}

#[test]
fn fig11_shape_coalescing_speedup() {
    let cfg = DeviceConfig::tesla_c2050();
    let data = workloads::random_bytes(8 << 20, 1);
    let basic = ChunkKernel::new(ChunkParams::paper(), KernelVariant::Basic)
        .run(&cfg, &data)
        .unwrap();
    let coal = ChunkKernel::new(ChunkParams::paper(), KernelVariant::Coalesced)
        .run(&cfg, &data)
        .unwrap();
    let speedup = basic.stats.duration.as_secs_f64() / coal.stats.duration.as_secs_f64();
    assert!(
        (4.0..13.0).contains(&speedup),
        "coalescing speedup {speedup}"
    );
}

#[test]
fn fig12_shape_engine_ordering() {
    let data = workloads::random_bytes(16 << 20, 2);
    let buffer = 2 << 20;
    let throughput = |svc: &Shredder| {
        let out = svc.chunk_stream(&data).unwrap();
        out.report.bytes as f64 / out.report.makespan.as_secs_f64()
    };

    let cpu_malloc = throughput(&HostChunker::new(HostChunkerConfig::unoptimized()));
    let cpu_hoard = throughput(&HostChunker::new(HostChunkerConfig::optimized()));
    let basic = throughput(&Shredder::new(
        ShredderConfig::gpu_basic().with_buffer_size(buffer),
    ));
    let streams = throughput(&Shredder::new(
        ShredderConfig::gpu_streams().with_buffer_size(buffer),
    ));
    let full = throughput(&Shredder::new(
        ShredderConfig::gpu_streams_memory().with_buffer_size(buffer),
    ));

    assert!(cpu_malloc < cpu_hoard);
    assert!(cpu_hoard < basic);
    assert!(basic < streams);
    assert!(streams < full);
    assert!(
        full / cpu_hoard > 4.0,
        "full Shredder only {:.1}x over host",
        full / cpu_hoard
    );
}

#[test]
fn fig9_shape_pipeline_depth() {
    let kernel_dur = shredder::des::Dur::from_millis(20);
    let makespan = |depth: usize| {
        Shredder::new(
            ShredderConfig::gpu_streams()
                .with_buffer_size(32 << 20)
                .with_pipeline_depth(depth),
        )
        .simulate_synthetic(16, 32 << 20, kernel_dur, 4000)
        .makespan
    };
    let seq = makespan(1);
    let two = makespan(2);
    let four = makespan(4);
    assert!(two < seq);
    assert!(four <= two);
    let speedup = seq.as_secs_f64() / four.as_secs_f64();
    assert!((1.4..3.0).contains(&speedup), "4-stage speedup {speedup}");
}

#[test]
fn table2_shape_host_idle_during_async_work() {
    // The device execution of a 16 MB buffer leaves the host tens of
    // millions of cycles idle — the motivation for the pipeline.
    let cfg = DeviceConfig::tesla_c2050();
    let data = workloads::random_bytes(16 << 20, 3);
    let out = ChunkKernel::new(ChunkParams::paper(), KernelVariant::Basic)
        .run(&cfg, &data)
        .unwrap();
    let launch = out.stats.simt.launch_overhead;
    let ticks = out.stats.duration.as_secs_f64() * shredder::gpu::calibration::HOST_CLOCK_HZ;
    assert!(launch.as_millis_f64() < 0.1);
    assert!(ticks > 1e7, "only {ticks:.1e} spare ticks");
}
