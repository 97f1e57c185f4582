//! Metric and workload definitions, and the two JSON documents built
//! from them: `BENCHMARK.json` and the result line a run ends with.
//!
//! The definitions here are the single source of truth: `BENCHMARK.json`
//! is generated from them (`perfbench --manifest`), and a test checks
//! that the committed file still matches.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system sees, gated with a regression bound.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A metric of one layer, reported by the traced run, not gated.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name (`<layer>.<quantity>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

/// Seconds each run measures for (after set-up).
pub const RUN_SECONDS: u64 = 30;

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them; see `perfbench/README.md` for what each means on
/// each workload.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("req_per_s", "1/s", Better::Higher, 0.25),
    e2e("ingest_mb_per_s", "MB/s", Better::Higher, 0.25),
    e2e("restore_mb_per_s", "MB/s", Better::Higher, 0.25),
    e2e("job_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics, measured by the traced run. Wall-clock ones come
/// from spans around calls into each layer; `sim.*` are the model's
/// simulated-time outputs. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    layer("workloads.gen_s", "s", Lower),
    layer("core.run_s", "s", Lower),
    layer("core.us_per_request", "us", Lower),
    layer("core.overhead_s", "s", Lower),
    layer("rabin.scan_mb_per_s", "MB/s", Higher),
    layer("rabin.chunks", "count", Higher),
    layer("hash.sha256_mb_per_s", "MB/s", Higher),
    layer("store.restore_s", "s", Lower),
    layer("store.gc_s", "s", Lower),
    layer("store.physical_per_logical", "ratio", Lower),
    layer("store.index_hit_rate", "ratio", Higher),
    layer("store.gc_reclaim_fraction", "ratio", Higher),
    layer("store.segments", "count", Lower),
    layer("backup.service_s", "s", Lower),
    layer("backup.dedup_fraction", "ratio", Higher),
    layer("hdfs.upload_s", "s", Lower),
    layer("hdfs.dedup_fraction", "ratio", Higher),
    layer("mapreduce.full_job_s", "s", Lower),
    layer("mapreduce.memo_reuse", "ratio", Higher),
    layer("cluster.run_s", "s", Lower),
    layer("cluster.scrub_s", "s", Lower),
    layer("cluster.replication_amplification", "ratio", Lower),
    layer("cluster.cross_node_dup_fraction", "ratio", Lower),
    layer("cluster.repair_bytes", "bytes", Lower),
    layer("cluster.rebalance_moved_fraction", "ratio", Lower),
    layer("cluster.lost", "count", Lower),
    layer("sim.achieved_rps", "1/s", Higher),
    layer("sim.p50_ms", "ms", Lower),
    layer("sim.p99_ms", "ms", Lower),
    layer("sim.admission_wait_p99_ms", "ms", Lower),
    layer("sim.shed", "count", Lower),
    layer("sim.stage.read_busy_ms", "ms", Lower),
    layer("sim.stage.transfer_busy_ms", "ms", Lower),
    layer("sim.stage.kernel_busy_ms", "ms", Lower),
    layer("sim.stage.store_busy_ms", "ms", Lower),
    layer("sim.sink.fingerprint.busy_ms", "ms", Lower),
    layer("sim.sink.fingerprint.queue_wait_ms", "ms", Lower),
    layer("sim.sink.dedup.busy_ms", "ms", Lower),
    layer("sim.sink.dedup.queue_wait_ms", "ms", Lower),
    layer("sim.sink.ship.busy_ms", "ms", Lower),
    layer("sim.sink.ship.queue_wait_ms", "ms", Lower),
    layer("sim.sink.store-commit.busy_ms", "ms", Lower),
    layer("sim.sink.store-commit.queue_wait_ms", "ms", Lower),
    layer("sim.gpu.utilization", "ratio", Higher),
    layer("sim.gpu.overlap", "ratio", Higher),
    layer("sim.gbps", "GB/s", Higher),
    layer("telemetry.overhead_frac", "ratio", Lower),
];

/// Looks up the unit of an end-to-end or per-layer metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// True if `name` is a legal metric or workload name: 1–64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `BENCHMARK.json`, generated from the definitions above.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"python3\", \"perfbench/run.py\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let workloads = crate::workloads::Workload::ALL;
    for (i, w) in workloads.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": {}, \"why\": {}}}",
            quote(w.name()),
            quote(w.why())
        );
        out.push_str(if i + 1 < workloads.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str()),
            m.bound
        );
        out.push_str(if i + 1 < END_TO_END.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str())
        );
        out.push_str(if i + 1 < PER_LAYER.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The result line a run ends with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let unit = unit_of(name).unwrap_or("count");
        // JSON has no infinities or NaN; the run counts them as failed.
        let value = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(name),
            quote(unit)
        );
    }
    out.push_str("}}");
    out
}

/// A JSON string literal.
pub(crate) fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
