//! The consolidated cloud-backup system (paper §7, case study II).
//!
//! In the paper's target architecture (Figure 16), VM image snapshots
//! are mounted by a backup agent on a dedicated backup server, which
//! deduplicates them with Shredder before shipping to the backup site
//! (Figure 17):
//!
//! > "The Reader thread on the backup server reads the incoming data and
//! > pushes that into Shredder to form chunks. Once the chunks are
//! > formed, the Store thread computes a hash for the overall chunk …
//! > these hashes … are batched together to enqueue in an index lookup
//! > queue. Finally, a lookup thread picks up the enqueued chunk
//! > fingerprints and looks up in the index whether a particular chunk
//! > needs to be backed up or is already present in the backup site."
//!
//! * [`config`] — the §7.3 emulation parameters: 10 Gbps image source,
//!   the *unoptimized* index/network stage the paper names as the
//!   bandwidth limiter, min/max chunk sizes on.
//! * [`index`] — the dedup index (digest → present-at-site), re-exported
//!   from `shredder-store`'s unified sharded index.
//! * [`site`] — the backup site: the receiving Shredder agent, now a
//!   client of the versioned store — every image is one generation,
//!   restores verify every digest, and expired images are
//!   garbage-collected with segment compaction.
//! * [`server`] — the backup server pipeline: ingest → chunk → hash →
//!   index lookup → ship, with end-to-end bandwidth accounting
//!   (Figure 18), plus the retention path:
//!   [`BackupServer::expire_images`] →
//!   [`BackupServer::collect_garbage`] (which also evicts freed
//!   fingerprints from the dedup index).
//!
//! # Examples
//!
//! ```
//! use shredder_backup::{BackupConfig, BackupServer};
//! use shredder_core::{HostChunker, HostChunkerConfig};
//! use shredder_rabin::ChunkParams;
//!
//! let mut server = BackupServer::new(BackupConfig::paper());
//! let service = HostChunker::new(HostChunkerConfig {
//!     params: ChunkParams::backup(),
//!     ..HostChunkerConfig::optimized()
//! });
//!
//! let image = shredder_workloads::compressible_bytes(1 << 20, 256, 1);
//! let report = server.backup_image(&image, &service).unwrap();
//! assert_eq!(server.site().restore(report.image_id).unwrap(), image);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod index;
pub mod server;
pub mod site;

pub use config::BackupConfig;
pub use index::DedupIndex;
pub use server::{BackupReport, BackupServer, ServiceBackupReport};
pub use site::BackupSite;
