//! Inc-HDFS: an HDFS-like distributed file system with content-based
//! chunking (paper §6.2–§6.3, case study I substrate).
//!
//! Plain HDFS splits files at fixed offsets, so a one-byte insertion
//! changes every downstream split and defeats computation reuse.
//! Inc-HDFS instead splits with Shredder's content-defined chunking,
//! "ensuring that small changes to the input lead to small changes in the
//! set of chunks that are provided as input to Map tasks".
//!
//! * [`store`] — the content-addressed chunk store each DataNode holds.
//! * [`namenode`] — file → version → split metadata, DataNode placement.
//! * [`input_format`] — the semantic-chunking framework of §6.3: snap
//!   content-defined cuts to record boundaries so a split never cuts a
//!   record in half (reusing the job's `InputFormat` notion).
//! * [`sink`] — the ingestion consumer: a
//!   [`RecordAlignedSink`] performs record
//!   alignment incrementally and fingerprints every aligned split as an
//!   in-simulation stage, so hashing overlaps chunking.
//! * [`fs`] — the client API: `copy_from_local` (fixed-size, plain HDFS
//!   behaviour) and `copy_from_local_gpu` (content-based via a
//!   [`Shredder`](shredder_core::Shredder) on GPUs or host cores — the
//!   `copyFromLocalGPU` shell command of §6.3).
//!
//! # Examples
//!
//! ```
//! use shredder_core::{HostChunker, HostChunkerConfig};
//! use shredder_hdfs::{input_format::TextInputFormat, IncHdfs};
//!
//! let mut fs = IncHdfs::new(4);
//! let service = HostChunker::new(HostChunkerConfig::optimized());
//! let data = b"record one\nrecord two\nrecord three\n".repeat(2000);
//!
//! let report = fs
//!     .copy_from_local_gpu("/logs/day1", &data, &service, &TextInputFormat)
//!     .unwrap();
//! assert_eq!(report.total_bytes, data.len() as u64);
//! assert_eq!(fs.read("/logs/day1").unwrap(), data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fs;
pub mod input_format;
pub mod namenode;
pub mod sink;
pub mod store;

pub use fs::{HdfsError, IncHdfs, SplitData, UploadReport};
pub use input_format::{apply_input_format, InputFormat, TextInputFormat};
pub use namenode::{FileVersion, NameNode, SplitMeta};
pub use sink::RecordAlignedSink;
pub use store::ChunkStore;
