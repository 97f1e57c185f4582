//! One benchmark run: set up a workload several times, run passes over
//! it until the time is up, and reduce the passes to metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::machine::{at_reference_speed, Reference};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::trace::{Pass, PassResult, Tracer};
use crate::workloads::{Size, Workload};

/// A run generates its inputs at least `SETUP_REPS` times, and more
/// (up to `SETUP_MAX_REPS`) until `SETUP_MIN_SECONDS` have passed, so
/// that `setup_s`, the median, rests on enough samples when set-up is
/// quick.
const SETUP_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 20;
const SETUP_MIN_SECONDS: f64 = 1.0;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed its inputs are generated from.
    pub seed: u64,
    /// How long to keep starting passes.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// What a run measured.
#[derive(Debug)]
pub struct RunOutcome {
    /// The metrics to report, by name: every end-to-end metric for an
    /// untraced run, at reference machine speed, and every per-layer
    /// metric for a traced one.
    pub metrics: Vec<(&'static str, f64)>,
    /// An untraced run's end-to-end metrics as the wall clock read them,
    /// and the median slowdown of the machine against the reference
    /// they were scaled by (see [`crate::machine`]).
    pub wall_clock: Vec<(&'static str, f64)>,
    /// See `wall_clock`.
    pub slowdown: f64,
    /// Checked operations over all passes.
    pub attempted: u64,
    /// Failed checked operations over all passes.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
    /// The model fingerprint of the first pass.
    pub fingerprint: String,
    /// Passes run (traced and untraced).
    pub passes: usize,
    /// The spans of the traced passes.
    pub tracer: Tracer,
}

/// Runs one benchmark run.
pub fn run(config: &RunConfig) -> RunOutcome {
    let reference = Reference::new();
    let mut setup = Vec::new();
    let mut setup_slowdown = Vec::new();
    let mut inputs = None;
    while setup.len() < SETUP_REPS
        || (setup.len() < SETUP_MAX_REPS && setup.iter().sum::<f64>() < SETUP_MIN_SECONDS)
    {
        drop(inputs.take());
        let start = Instant::now();
        inputs = Some(black_box(
            config.workload.generate(config.seed, config.size),
        ));
        setup.push(start.elapsed().as_secs_f64());
        setup_slowdown.push(reference.slowdown());
    }
    let inputs = inputs.expect("SETUP_REPS > 0");
    let mut setup_at_reference: Vec<f64> = setup
        .iter()
        .zip(&setup_slowdown)
        .map(|(s, slow)| s / slow)
        .collect();
    let setup_at_reference = median(&mut setup_at_reference);
    let setup_s = median(&mut setup);

    // A traced run alternates untraced and traced passes, so the two
    // see the same machine state and their ratio is the tracing cost.
    let min_passes = if config.trace { 4 } else { 3 };
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    let mut tracer = Tracer::new();
    let mut plain: Vec<(PassResult, f64)> = Vec::new();
    // The machine's slowdown right after each untraced pass.
    let mut slowdown: Vec<f64> = Vec::new();
    let mut traced: Vec<(PassResult, f64)> = Vec::new();
    let mut id = 0u32;
    // Peak resident memory over set-up and the first `min_passes`
    // passes: a fixed amount of work, so the figure does not depend on
    // how many passes the machine's speed let the run fit in.
    let mut peak_rss = 0.0;
    while (id as usize) < min_passes || Instant::now() < deadline {
        let trace_this = config.trace && id % 2 == 1;
        let start = Instant::now();
        let mut pass = Pass::new(id, trace_this.then_some(&mut tracer));
        inputs.run(&mut pass);
        let result = pass.finish();
        let wall = start.elapsed().as_secs_f64();
        if trace_this {
            traced.push((result, wall));
        } else {
            plain.push((result, wall));
            if !config.trace {
                slowdown.push(reference.slowdown());
            }
        }
        id += 1;
        if id as usize == min_passes {
            peak_rss = peak_rss_mb();
        }
    }
    drop(inputs);

    let all: Vec<&PassResult> = plain.iter().chain(&traced).map(|(r, _)| r).collect();
    let fingerprint = all[0].fingerprint.clone();
    let mut attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = all.iter().map(|r| r.failed).sum();
    let mut failures: Vec<String> = all.iter().flat_map(|r| r.failures.clone()).collect();
    attempted += 1;
    if all.iter().any(|r| r.fingerprint != fingerprint) {
        failed += 1;
        failures.push("model fingerprint differs between passes".to_string());
    }

    let mut wall_clock = Vec::new();
    let metrics: Vec<(&'static str, f64)> = if config.trace {
        let mut per_pass: Vec<BTreeMap<&'static str, f64>> = traced
            .iter()
            .map(|(r, _)| layer_metrics(r, &tracer))
            .collect();
        let mut plain_wall: Vec<f64> = plain.iter().map(|(_, w)| *w).collect();
        let mut traced_wall: Vec<f64> = traced.iter().map(|(_, w)| *w).collect();
        let overhead = median(&mut traced_wall) / median(&mut plain_wall) - 1.0;
        for m in &mut per_pass {
            m.insert("workloads.gen_s", setup_s);
            m.insert("telemetry.overhead_frac", overhead);
        }
        PER_LAYER
            .iter()
            .map(|m| (m.name, median_of(&per_pass, m.name)))
            .collect()
    } else {
        let per_pass: Vec<BTreeMap<&'static str, f64>> =
            plain.iter().map(|(r, _)| r.values.clone()).collect();
        let scaled: Vec<BTreeMap<&'static str, f64>> = per_pass
            .iter()
            .zip(&slowdown)
            .map(|(values, &slow)| {
                END_TO_END
                    .iter()
                    .filter_map(|m| {
                        let value = *values.get(m.name)?;
                        Some((m.name, at_reference_speed(m.unit, value, slow)))
                    })
                    .collect()
            })
            .collect();
        let mut metrics = Vec::new();
        for m in END_TO_END {
            let (value, wall) = match m.name {
                "setup_s" => (setup_at_reference, setup_s),
                "peak_rss_mb" => (peak_rss, peak_rss),
                name => (median_of(&scaled, name), median_of(&per_pass, name)),
            };
            metrics.push((m.name, value));
            wall_clock.push((m.name, wall));
        }
        metrics
    };

    for (name, value) in &metrics {
        attempted += 1;
        if !value.is_finite() {
            failed += 1;
            failures.push(format!("{name} is {value}"));
        }
    }

    slowdown.extend(setup_slowdown);
    RunOutcome {
        metrics,
        wall_clock,
        slowdown: median(&mut slowdown),
        attempted,
        failed,
        failures,
        fingerprint,
        passes: id as usize,
        tracer,
    }
}

/// Spans that wrap a call into the engine's front doors.
const ENGINE_SPANS: [&str; 3] = ["core.run", "backup.service", "cluster.run"];

/// Per-layer spans whose self time is reported as-is.
const LAYER_TIMES: [(&str, &str); 7] = [
    ("store.restore_s", "store.restore"),
    ("store.gc_s", "store.gc"),
    ("backup.service_s", "backup.service"),
    ("hdfs.upload_s", "hdfs.upload"),
    ("mapreduce.full_job_s", "mapreduce.full_job"),
    ("cluster.run_s", "cluster.run"),
    ("cluster.scrub_s", "cluster.scrub"),
];

/// The per-layer metrics of one traced pass: wall-clock ones from its
/// spans' self times, the rest as the workload set them.
fn layer_metrics(pass: &PassResult, tracer: &Tracer) -> BTreeMap<&'static str, f64> {
    let self_time = tracer.self_times(pass.id);
    let time = |name: &str| self_time.get(name).copied().unwrap_or(0.0);
    let value = |name: &str| pass.values.get(name).copied().unwrap_or(0.0);
    let rate = |bytes: f64, secs: f64| if secs > 0.0 { bytes / 1e6 / secs } else { 0.0 };

    let mut out = pass.values.clone();
    for (metric, span) in LAYER_TIMES {
        out.insert(metric, time(span));
    }
    let engine: f64 = ENGINE_SPANS.iter().map(|s| time(s)).sum();
    let requests = value("core.requests");
    out.insert("core.run_s", engine);
    out.insert(
        "core.us_per_request",
        if requests > 0.0 {
            engine / requests * 1e6
        } else {
            0.0
        },
    );
    // The engine's own cost beyond the scan and hashing it does: the
    // reference replay of the same inputs stands in for those.
    out.insert(
        "core.overhead_s",
        if engine > 0.0 {
            engine - time("rabin.chunk_all") - time("hash.sha256")
        } else {
            0.0
        },
    );
    out.insert(
        "rabin.scan_mb_per_s",
        rate(value("rabin.bytes"), time("rabin.chunk_all")),
    );
    out.insert(
        "hash.sha256_mb_per_s",
        rate(value("hash.bytes"), time("hash.sha256")),
    );
    out
}

fn median_of(passes: &[BTreeMap<&'static str, f64>], name: &str) -> f64 {
    let mut values: Vec<f64> = passes
        .iter()
        .map(|p| p.get(name).copied().unwrap_or(0.0))
        .collect();
    median(&mut values)
}

/// The median (mean of the middle two for an even count; 0 if empty).
fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}
