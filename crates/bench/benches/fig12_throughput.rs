//! Figure 12: throughput comparison of content-based chunking between
//! CPU and GPU versions.
//!
//! The five systems of the figure, end to end on the same stream:
//!
//! * CPU w/o Hoard — 12 pthreads, serializing `malloc`;
//! * CPU w/  Hoard — 12 pthreads, scalable allocator (§5.1);
//! * GPU Basic — the §3.1 design (pageable buffers, serialized
//!   copy/exec, unoptimized kernel);
//! * GPU Streams — + double buffering, pinned ring, 4-stage pipeline;
//! * GPU Streams + Memory — + the coalesced kernel (§4.3).
//!
//! All five chunk the stream for real; every engine must produce
//! identical boundaries or the harness fails.

use shredder_bench::{check, dump_bench_json, gbps, header, result_line};
use shredder_core::{HostChunker, HostChunkerConfig, Shredder, ShredderConfig};
use shredder_gpu::kernel::KernelVariant;

fn main() {
    header(
        "Figure 12",
        "Chunking throughput: CPU vs GPU versions (same 4 KB-expected-chunk stream)",
    );

    let data = shredder_workloads::random_bytes(shredder_bench::experiment_bytes(), 0xf12);
    let buffer = 32 << 20;

    let engines: Vec<(&str, Shredder)> = vec![
        (
            "CPU w/o Hoard",
            HostChunker::new(HostChunkerConfig::unoptimized()),
        ),
        (
            "CPU w/ Hoard",
            HostChunker::new(HostChunkerConfig::optimized()),
        ),
        (
            "GPU Basic",
            Shredder::new(ShredderConfig::gpu_basic().with_buffer_size(buffer)),
        ),
        (
            "GPU Streams",
            Shredder::new(ShredderConfig::gpu_streams().with_buffer_size(buffer)),
        ),
        (
            "GPU Streams + Memory",
            Shredder::new(ShredderConfig::gpu_streams_memory().with_buffer_size(buffer)),
        ),
    ];

    let mut throughputs = Vec::new();
    let mut boundaries: Option<Vec<shredder_rabin::Chunk>> = None;
    for (name, engine) in &engines {
        let outcome = engine.chunk_stream(&data).expect("chunking failed");
        let bps = outcome.report.bytes as f64 / outcome.report.makespan.as_secs_f64();
        result_line(name, gbps(bps));
        throughputs.push(bps);
        match &boundaries {
            None => boundaries = Some(outcome.chunks),
            Some(expected) => assert_eq!(
                &outcome.chunks, expected,
                "{name} produced different chunk boundaries"
            ),
        }
    }
    println!("  (all five engines produced identical chunk boundaries)");

    // Sixth system, beyond the figure: the fully optimized pipeline
    // with the Gear/FastCDC kernel (chunk_kernel = GearCoalesced).
    // Boundaries are content-defined but differ from Rabin's (it is a
    // different hash), so it stays outside the equality assert above.
    let gear_engine = Shredder::new(
        ShredderConfig::gpu_streams_memory()
            .with_buffer_size(buffer)
            .with_chunk_kernel(KernelVariant::GearCoalesced),
    );
    let gear_outcome = gear_engine.chunk_stream(&data).expect("chunking failed");
    let gear = gear_outcome.report.bytes as f64 / gear_outcome.report.makespan.as_secs_f64();
    result_line("GPU Streams + Memory (Gear)", gbps(gear));

    let cpu_malloc = throughputs[0];
    let cpu_hoard = throughputs[1];
    let gpu_basic = throughputs[2];
    let gpu_streams = throughputs[3];
    let gpu_full = throughputs[4];

    println!();
    check(
        "Hoard improves the CPU baseline (§5.1)",
        cpu_hoard > cpu_malloc,
    );
    let basic_x = gpu_basic / cpu_hoard;
    check(
        &format!("naive GPU ~2x over optimized host (paper: 2x; measured {basic_x:.1}x)"),
        (1.5..3.0).contains(&basic_x),
    );
    check(
        "each optimization tier improves throughput (basic < streams < streams+memory)",
        gpu_basic < gpu_streams && gpu_streams < gpu_full,
    );
    let full_x = gpu_full / cpu_hoard;
    check(
        &format!("full Shredder over 5x the optimized host (paper: >5x; measured {full_x:.1}x)"),
        full_x > 4.5,
    );
    check(
        "full Shredder is bounded by the 2 GB/s reader I/O (Table 1), not the kernel",
        (1.5e9..2.05e9).contains(&gpu_full),
    );
    check(
        &format!(
            "Gear kernel beats Rabin end to end ({:.3} vs {:.3} GB/s)",
            gear / 1e9,
            gpu_full / 1e9
        ),
        gear > gpu_full,
    );

    // Perf-trajectory dump for the CI bench gate: `aggregate_gbps` is
    // the headline series (the fully optimized system), the rest gives
    // the gate context when it trips.
    let json = format!(
        "{{\n  \"aggregate_gbps\": {:.6},\n  \"cpu_malloc_gbps\": {:.6},\n  \"cpu_hoard_gbps\": {:.6},\n  \"gpu_basic_gbps\": {:.6},\n  \"gpu_streams_gbps\": {:.6},\n  \"gear_gbps\": {:.6},\n  \"speedup_over_host\": {:.6}\n}}\n",
        gpu_full / 1e9,
        cpu_malloc / 1e9,
        cpu_hoard / 1e9,
        gpu_basic / 1e9,
        gpu_streams / 1e9,
        gear / 1e9,
        full_x,
    );
    dump_bench_json(&json);
}
