//! `incremental_wordcount`: the paper's §6 Incoop flow — upload a
//! corpus to Inc-HDFS, run WordCount, change 5% of it, upload again and
//! re-run incrementally.
//!
//! The `hdfs` upload (host chunker, post-hoc sink timing) and the
//! `mapreduce` memo do the work; the engine's DES is not on this path,
//! so an engine change should predict no change here.

use shredder_core::{HostChunker, HostChunkerConfig};
use shredder_hash::{sha256, SeededRng};
use shredder_hdfs::{apply_input_format, IncHdfs, SplitData, TextInputFormat, UploadReport};
use shredder_mapreduce::apps::WordCount;
use shredder_mapreduce::{ClusterConfig, IncrementalRunner};
use shredder_rabin::{chunk_all, ChunkParams};
use shredder_workloads::words_corpus;

use super::{reference_chunks, SimTotals, Size, RESTORE_ROUNDS};
use crate::trace::Pass;

/// Why this workload is in the benchmark.
pub(crate) const WHY: &str =
    "8 MiB word corpus in 4 files to Inc-HDFS, WordCount, middle thirds of splits \
making 15% of each file rewritten (5% of bytes), re-upload, incremental re-run: hdfs and mapreduce memo, no engine DES";

const FILES: usize = 4;
/// Share of each file, in percent, that version 2 changes splits of:
/// the work the incremental re-run redoes.
const REDONE_PERCENT: usize = 15;

/// Corpus versions 1 and 2, file by file.
pub(crate) struct Inputs {
    v1: Vec<Vec<u8>>,
    v2: Vec<Vec<u8>>,
}

fn chunker() -> HostChunker {
    // Never more OS threads than the machine has cores, at most the two
    // the benchmark is specified for.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    HostChunker::new(HostChunkerConfig {
        params: params(),
        threads: cores.min(2),
        ..HostChunkerConfig::optimized()
    })
}

/// Map-task sized splits: about 128 KiB expected.
fn params() -> ChunkParams {
    ChunkParams::paper().with_expected_size(128 << 10)
}

impl Inputs {
    /// Generates each file from a 2000-word vocabulary. Version 2
    /// rewrites the middle third of some of the file's splits with fresh
    /// text: splits picked in a seeded order, first fit, until they make
    /// up `REDONE_PERCENT` of the file. A split's first and last thirds
    /// stay, so its neighbours keep their bytes and the re-run redoes
    /// about the same share of the input for every seed; changing bytes
    /// at fixed positions instead made it redo 20-36% by seed.
    pub(crate) fn new(seed: u64, size: Size) -> Self {
        let file_bytes = size.pick(2 << 20, 128 << 10);
        let corpus_seed = |f: usize, version: u64| {
            seed.wrapping_mul(31)
                .wrapping_add(f as u64)
                .wrapping_add(version << 32)
        };
        let v1: Vec<Vec<u8>> = (0..FILES)
            .map(|f| words_corpus(file_bytes, 2000, corpus_seed(f, 1)))
            .collect();
        let v2 = v1
            .iter()
            .enumerate()
            .map(|(f, data)| {
                let cuts: Vec<u64> = chunk_all(data, &params()).iter().map(|c| c.end()).collect();
                let splits = apply_input_format(data, &cuts, &TextInputFormat);
                let mut rng = SeededRng::new(corpus_seed(f, 3));
                let mut order: Vec<usize> = (0..splits.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
                }
                let budget = data.len() * REDONE_PERCENT / 100;
                let mut redone = 0;
                let mut thirds = Vec::new();
                for k in order {
                    if redone + splits[k].len <= budget {
                        redone += splits[k].len;
                        let third = splits[k].len / 3;
                        thirds.push((splits[k].offset as usize + third, third));
                    }
                }
                let fresh =
                    words_corpus(thirds.iter().map(|(_, n)| n).sum(), 2000, corpus_seed(f, 2));
                let mut out = data.clone();
                let mut from = 0;
                for (at, n) in thirds {
                    out[at..at + n].copy_from_slice(&fresh[from..from + n]);
                    from += n;
                }
                out
            })
            .collect();
        Inputs { v1, v2 }
    }

    /// One pass: upload v1, run, upload v2, re-run incrementally, check
    /// against a from-scratch run, read both versions back.
    pub(crate) fn run(&self, pass: &mut Pass) {
        let chunker = chunker();
        let mut fs = IncHdfs::new(20);
        let paths: Vec<String> = (0..FILES).map(|f| format!("/corpus/part-{f}")).collect();
        let mut sim = SimTotals::default();
        let mut upload_s = 0.0;

        if upload(
            pass,
            &mut fs,
            &paths,
            &self.v1,
            &chunker,
            &mut upload_s,
            &mut sim,
        )
        .is_none()
        {
            return;
        }
        let Some(splits) = all_splits(pass, &fs, &paths) else {
            return;
        };
        let mut runner = IncrementalRunner::new(WordCount, ClusterConfig::paper());
        let (first, _) = pass.span("mapreduce.initial_job", |_| runner.run(&splits));
        pass.model("initial", &first.stats);

        let Some(v2_reports) = upload(
            pass,
            &mut fs,
            &paths,
            &self.v2,
            &chunker,
            &mut upload_s,
            &mut sim,
        ) else {
            return;
        };
        let Some(splits) = all_splits(pass, &fs, &paths) else {
            return;
        };
        let (incremental, job_s) = pass.span("mapreduce.incremental_job", |_| runner.run(&splits));
        let (full, _) = pass.span("mapreduce.full_job", |_| {
            IncrementalRunner::new(WordCount, ClusterConfig::paper()).run(&splits)
        });
        pass.model("incremental", &incremental.stats);
        pass.model("full", &full.stats);
        pass.check(incremental.output == full.output, || {
            "incremental WordCount output differs from the from-scratch output".to_string()
        });

        // Every split's digest is the SHA-256 of its bytes.
        let (hashed, _) = pass.span("hash.sha256", |_| {
            splits
                .iter()
                .map(|s| sha256(&s.bytes) == s.meta.digest)
                .collect::<Vec<bool>>()
        });
        pass.add(
            "hash.bytes",
            splits.iter().map(|s| s.bytes.len() as f64).sum(),
        );
        for (k, ok) in hashed.into_iter().enumerate() {
            pass.check(ok, || {
                format!("split {k}: digest is not the sha256 of its bytes")
            });
        }
        // Every version's splits are the reference scan's cuts snapped
        // to record boundaries.
        let inputs: Vec<&[u8]> = self.v1.iter().chain(&self.v2).map(Vec::as_slice).collect();
        let chunks = reference_chunks(pass, &inputs, &params());
        for (k, (data, reference)) in inputs.iter().zip(&chunks).enumerate() {
            let (path, version) = (&paths[k % FILES], k / FILES);
            let cuts: Vec<u64> = reference.iter().map(|c| c.end()).collect();
            let expected: Vec<(u64, usize)> = apply_input_format(data, &cuts, &TextInputFormat)
                .iter()
                .map(|c| (c.offset, c.len))
                .collect();
            let stored: Option<Vec<(u64, usize)>> = fs
                .namenode()
                .version(path, version)
                .map(|v| v.splits.iter().map(|m| (m.offset, m.len)).collect());
            pass.check(stored.as_ref() == Some(&expected), || {
                format!("{path} version {version}: splits differ from chunk_all's cuts")
            });
        }

        let mut read_s = 0.0;
        let mut read_bytes = 0u64;
        for _ in 0..RESTORE_ROUNDS {
            let (read, secs) = pass.span("store.restore", |_| {
                paths
                    .iter()
                    .flat_map(|p| [fs.read_version(p, 0), fs.read_version(p, 1)])
                    .collect::<Vec<_>>()
            });
            read_s += secs;
            let expected = self.v1.iter().zip(&self.v2).flat_map(|(a, b)| [a, b]);
            for (k, (bytes, original)) in read.iter().zip(expected).enumerate() {
                pass.check(bytes.as_ref().is_ok_and(|b| b == original), || {
                    format!("read {k}: differs from the uploaded file")
                });
                read_bytes += original.len() as u64;
            }
        }

        let total: u64 = inputs.iter().map(|d| d.len() as u64).sum();
        let v2_total: u64 = v2_reports.iter().map(|r| r.total_bytes).sum();
        let v2_dedup: u64 = v2_reports.iter().map(|r| r.dedup_bytes).sum();
        pass.set("req_per_s", inputs.len() as f64 / upload_s);
        pass.set("ingest_mb_per_s", total as f64 / 1e6 / upload_s);
        pass.set("restore_mb_per_s", read_bytes as f64 / 1e6 / read_s);
        pass.set("job_s", job_s);
        pass.set(
            "hdfs.dedup_fraction",
            v2_dedup as f64 / v2_total.max(1) as f64,
        );
        pass.set("mapreduce.memo_reuse", incremental.stats.reuse_fraction());
        pass.set(
            "store.physical_per_logical",
            fs.physical_bytes() as f64 / total as f64,
        );
        sim.finish(pass);
    }
}

/// Uploads one version of every file; `None` if an upload failed.
fn upload(
    pass: &mut Pass,
    fs: &mut IncHdfs,
    paths: &[String],
    files: &[Vec<u8>],
    chunker: &HostChunker,
    upload_s: &mut f64,
    sim: &mut SimTotals,
) -> Option<Vec<UploadReport>> {
    let mut reports = Vec::with_capacity(files.len());
    for (path, data) in paths.iter().zip(files) {
        let (report, secs) = pass.span("hdfs.upload", |_| {
            fs.copy_from_local_gpu(path, data, chunker, &TextInputFormat)
        });
        *upload_s += secs;
        match report {
            Ok(report) => {
                pass.check(true, String::new);
                pass.model("upload", &report);
                sim.add_run(report.total_bytes, report.upload_makespan, 0.0);
                reports.push(report);
            }
            Err(e) => {
                pass.check(false, || format!("upload {path}: {e}"));
                return None;
            }
        }
    }
    Some(reports)
}

/// The latest version's splits of every file, in file order.
fn all_splits(pass: &mut Pass, fs: &IncHdfs, paths: &[String]) -> Option<Vec<SplitData>> {
    let mut out = Vec::new();
    for path in paths {
        match fs.splits(path) {
            Ok(splits) => out.extend(splits),
            Err(e) => {
                pass.check(false, || format!("splits of {path}: {e}"));
                return None;
            }
        }
    }
    Some(out)
}
