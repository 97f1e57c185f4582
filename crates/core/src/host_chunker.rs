//! The host-only parallel chunker: the paper's pthreads baseline
//! (§5.1), as a device of the engine's pool.
//!
//! A [`HostChunkerConfig`] builds a [`ShredderConfig`] whose pool is one
//! host-core device ([`ShredderConfig::host_cores`]). Its functional
//! pass scans one resident copy of the stream on `threads` real OS
//! threads (the SPMD region split + boundary merge of
//! [`ParallelChunker`](shredder_rabin::ParallelChunker)). Its DMA is
//! free, and its kernel time is the calibrated per-byte Xeon cost less
//! the allocator-contention loss ([`HostCores::bandwidth`]) — the
//! with/without-Hoard distinction of Figure 12's two CPU bars. Host runs
//! pass through the same reader, Store thread and sink stages as GPU
//! runs.
//!
//! [`HostChunkerConfig`]: crate::HostChunkerConfig
//! [`ShredderConfig`]: crate::ShredderConfig
//! [`ShredderConfig::host_cores`]: crate::ShredderConfig
//! [`HostCores::bandwidth`]: crate::HostCores::bandwidth

use crate::pipeline::Shredder;

/// The host-only (CPU) chunking engine: a [`Shredder`] built from a
/// [`HostChunkerConfig`](crate::HostChunkerConfig).
///
/// # Examples
///
/// ```
/// use shredder_core::{HostChunker, HostChunkerConfig};
///
/// let data = vec![0x42u8; 1 << 18];
/// let with_hoard = HostChunker::new(HostChunkerConfig::optimized());
/// let without = HostChunker::new(HostChunkerConfig::unoptimized());
///
/// let a = with_hoard.chunk_stream(&data).unwrap();
/// let b = without.chunk_stream(&data).unwrap();
/// assert_eq!(a.chunks, b.chunks); // same boundaries
/// // Hoard removes allocator serialization (§5.1).
/// assert!(a.report.throughput_gbps() > b.report.throughput_gbps());
/// ```
pub type HostChunker = Shredder;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HostChunkerConfig, ShredderConfig};
    use crate::error::ChunkError;
    use shredder_des::Dur;
    use shredder_rabin::{chunk_all, ChunkParams};

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    fn optimized() -> HostChunker {
        HostChunker::new(HostChunkerConfig::optimized())
    }

    fn bandwidth(chunker: &HostChunker) -> f64 {
        chunker.config().host_cores.expect("host pool").bandwidth()
    }

    #[test]
    fn boundaries_match_sequential() {
        let data = pseudo_random(1 << 20, 5);
        let out = optimized().chunk_stream(&data).unwrap();
        assert_eq!(out.chunks, chunk_all(&data, &ChunkParams::paper()));
    }

    #[test]
    fn materialization_is_allocation_free_in_steady_state() {
        let data = pseudo_random(768 << 10, 9);
        let chunker = optimized();
        // Warm-up call leases (and so allocates) the stream and scratch
        // buffers; every repeat call reuses them.
        chunker.chunk_stream(&data).unwrap();
        let warm = chunker.buffer_pool().allocations();
        for _ in 0..5 {
            chunker.chunk_stream(&data).unwrap();
        }
        assert_eq!(
            chunker.buffer_pool().allocations(),
            warm,
            "steady-state materialization must not allocate"
        );
        assert!(chunker.buffer_pool().recycles() >= 10);
    }

    #[test]
    fn optimized_bandwidth_near_figure12() {
        // ~0.4 GB/s for 12 threads with Hoard.
        let bw = bandwidth(&optimized());
        assert!(bw > 0.35e9 && bw < 0.45e9, "{bw}");
    }

    #[test]
    fn hoard_beats_malloc() {
        let hoard = optimized();
        let malloc = HostChunker::new(HostChunkerConfig::unoptimized());
        assert!(bandwidth(&hoard) > bandwidth(&malloc));
        // Both still compute identical chunks.
        let data = pseudo_random(1 << 19, 6);
        assert_eq!(
            hoard.chunk_stream(&data).unwrap().chunks,
            malloc.chunk_stream(&data).unwrap().chunks
        );
    }

    #[test]
    fn chunk_time_scales_linearly() {
        // Each buffer's kernel time is its bytes at the threads' rate.
        let c = HostChunker::new(ShredderConfig {
            buffer_size: 64 << 10,
            ..HostChunkerConfig::optimized().into()
        });
        let kernel = |len| {
            c.chunk_stream(&pseudo_random(len, 8))
                .unwrap()
                .report
                .kernel_time
        };
        let ratio = kernel(1 << 20).as_secs_f64() / kernel(1 << 19).as_secs_f64();
        assert!((ratio - 2.0).abs() < 0.001, "{ratio}");
        assert_eq!(kernel(0), Dur::ZERO);
    }

    #[test]
    fn report_contents() {
        let data = pseudo_random(1 << 18, 7);
        let out = optimized().chunk_stream(&data).unwrap();
        let r = &out.report;
        assert_eq!(r.bytes, data.len() as u64);
        // The host-core device: a kernel at the threads' rate, no ring.
        assert_eq!(
            r.kernel_time,
            Dur::from_bytes_at(data.len() as u64, bandwidth(&optimized()))
        );
        assert_eq!(r.ring_setup, Dur::ZERO);
        assert!(
            r.makespan > r.kernel_time,
            "reader and Store thread add time"
        );
        assert!(r.throughput_gbps() > 0.0);
    }

    #[test]
    fn service_name_mentions_configuration() {
        let name = optimized().service_name();
        assert!(name.contains("12"));
        assert!(name.contains("hoard"));
    }

    /// Builds a host chunker from `config` (which must not panic) and
    /// expects its run to fail with `InvalidConfig` naming `field`.
    fn assert_invalid(config: HostChunkerConfig, field: &str) {
        let chunker = HostChunker::new(config);
        match chunker.chunk_stream(&pseudo_random(4096, 3)) {
            Err(ChunkError::InvalidConfig(msg)) => assert!(msg.contains(field), "{msg}"),
            other => panic!("expected InvalidConfig naming {field}, got {other:?}"),
        }
    }

    #[test]
    fn zero_window_is_an_invalid_config() {
        let mut config = HostChunkerConfig::optimized();
        config.params.window = 0;
        assert_invalid(config, "chunking params");
    }

    #[test]
    fn zero_threads_is_an_invalid_config() {
        let config = HostChunkerConfig {
            threads: 0,
            ..HostChunkerConfig::optimized()
        };
        assert_invalid(config, "thread count");
    }

    #[test]
    fn zero_clock_is_an_invalid_config() {
        let config = HostChunkerConfig {
            clock_hz: 0.0,
            ..HostChunkerConfig::optimized()
        };
        assert_invalid(config, "clock");
    }
}
