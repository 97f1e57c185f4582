//! Wall-clock benchmark of the Shredder reproduction.
//!
//! Four workloads exercise the stack end to end — the online service,
//! the nightly backup case study, incremental WordCount over Inc-HDFS
//! and a repaired fleet — and every run checks its outputs. The
//! end-to-end metrics time the program, not the model: the model's
//! simulated-time outputs are reported per layer and fingerprinted.
//! See `README.md` for the metrics and how to run it.

pub mod machine;
pub mod metrics;
pub mod runner;
pub mod trace;
pub mod workloads;
