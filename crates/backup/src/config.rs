//! Backup-pipeline parameters (§7.3 emulation environment).

use serde::{Deserialize, Serialize};
use shredder_des::Dur;
use shredder_rabin::ChunkParams;

/// Configuration of the backup server pipeline.
///
/// The defaults reproduce the §7.3 setup: the image source is kept at
/// 10 Gbps "to closely simulate the I/O processing rate of modern
/// X-series" \[30\]; min/max chunk sizes are enabled "as used in practice
/// by many commercial backup systems"; and the index/network stage is
/// deliberately *unoptimized* — the paper attributes the bandwidth
/// decline at lower similarity to "the unoptimized index lookup and
/// network access, … not a limitation of our chunking scheme".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackupConfig {
    /// Chunking parameters (min/max enabled).
    pub params: ChunkParams,
    /// Image ingest rate: 10 Gbps (§7.3).
    pub ingest_bw: f64,
    /// Store-thread hashing bandwidth (SHA over chunk payloads across
    /// the Store pipeline stage), bytes/s.
    pub hash_bw: f64,
    /// Per-fingerprint index lookup cost (the unoptimized, single
    /// lookup-thread index; ChunkStash-style indexes would cut this,
    /// §7.3/§8).
    pub index_lookup: Dur,
    /// Additional cost to insert a new fingerprint.
    pub index_insert: Dur,
    /// Backup-site network bandwidth for shipping new chunks, bytes/s.
    pub ship_bw: f64,
    /// Per-shipped-chunk protocol overhead.
    pub ship_chunk_overhead: Dur,
    /// Pointer size shipped for a duplicate chunk, bytes.
    pub pointer_bytes: usize,
    /// Not read. The pipeline buffer, one Reader admission unit, is the
    /// chunking engine's `ShredderConfig::buffer_size`. The field stays
    /// only because the wall-clock benchmark (`perfbench/`) sets it, and
    /// goes with the next change to that benchmark.
    pub buffer_size: usize,
}

impl BackupConfig {
    /// The §7.3 emulation parameters.
    pub fn paper() -> Self {
        BackupConfig {
            params: ChunkParams::backup(),
            ingest_bw: 1.25e9, // 10 Gbps
            hash_bw: 1.5e9,
            index_lookup: Dur::from_micros(7),
            index_insert: Dur::from_micros(10),
            ship_bw: 0.9e9,
            ship_chunk_overhead: Dur::from_micros(2),
            pointer_bytes: 40, // digest + offset/len bookkeeping
            buffer_size: 32 << 20,
        }
    }

    /// Sets the ingest (image generation) rate in Gbps.
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not positive.
    pub fn with_ingest_gbps(mut self, gbps: f64) -> Self {
        assert!(gbps > 0.0, "ingest rate must be positive");
        self.ingest_bw = gbps * 1e9 / 8.0;
        self
    }
}

impl Default for BackupConfig {
    fn default() -> Self {
        BackupConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = BackupConfig::paper();
        assert!((c.ingest_bw - 1.25e9).abs() < 1.0);
        assert!(c.params.min_size > 0);
        assert!(c.params.max_size < usize::MAX);
    }

    #[test]
    fn ingest_gbps_conversion() {
        let c = BackupConfig::paper().with_ingest_gbps(8.0);
        assert!((c.ingest_bw - 1e9).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ingest_panics() {
        let _ = BackupConfig::paper().with_ingest_gbps(0.0);
    }
}
