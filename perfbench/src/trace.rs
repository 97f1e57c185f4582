//! Wall-clock spans recorded in the benchmark's own code, around each
//! call into a layer's public functions. Nothing here reaches inside
//! the program.
//!
//! Every pass over a workload gets one [`Pass`]: it times each call
//! (always — the end-to-end metrics come from those timings), and in a
//! traced pass it also records the call as a [`Span`] in the run's
//! [`Tracer`], kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::{Debug, Write as _};
use std::time::Instant;

use shredder_hash::Sha256;

/// One timed call: name, start, end and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, `<layer>.<call>`.
    pub name: &'static str,
    /// The pass this span belongs to (one id per workload pass).
    pub pass: u32,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Start, seconds since the tracer was created.
    pub start: f64,
    /// End, seconds since the tracer was created.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The spans of a run, in the order they opened.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn open(&mut self, name: &'static str, pass: u32, at: Instant) -> usize {
        let index = self.spans.len();
        let at = at.duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            pass,
            parent: self.open.last().copied(),
            start: at,
            end: at,
        });
        self.open.push(index);
        index
    }

    fn close(&mut self, index: usize, at: Instant) {
        self.spans[index].end = at.duration_since(self.origin).as_secs_f64();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(index), "spans close in LIFO order");
    }

    /// Self time per span name within one pass: each span's duration
    /// minus the part its child spans cover.
    pub fn self_times(&self, pass: u32) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.duration();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_time) {
            if span.pass == pass {
                *out.entry(span.name).or_insert(0.0) += span.duration() - children;
            }
        }
        out
    }

    /// The spans as JSON, one object per span.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"spans\": [\n",
            crate::metrics::quote(workload)
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": {}, \"pass\": {}, \"parent\": {parent}, \
                 \"start_s\": {:?}, \"end_s\": {:?}}}",
                crate::metrics::quote(s.name),
                s.pass,
                s.start,
                s.end
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// One pass over a workload: timings, checks, counters and the model
/// fingerprint.
pub struct Pass<'t> {
    id: u32,
    tracer: Option<&'t mut Tracer>,
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    model: Sha256,
}

impl<'t> Pass<'t> {
    /// A pass numbered `id`; spans go to `tracer` if there is one.
    pub fn new(id: u32, tracer: Option<&'t mut Tracer>) -> Self {
        Pass {
            id,
            tracer,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            model: Sha256::new(),
        }
    }

    /// Runs `f` as the layer call `name` and returns its result with its
    /// wall time in seconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let start = Instant::now();
        let index = self
            .tracer
            .as_deref_mut()
            .map(|t| t.open(name, self.id, start));
        let result = f(self);
        let end = Instant::now();
        if let (Some(tracer), Some(index)) = (self.tracer.as_deref_mut(), index) {
            tracer.close(index, end);
        }
        (result, end.duration_since(start).as_secs_f64())
    }

    /// Counts one checked operation; a false `ok` counts it as failed.
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    /// Sets a metric of this pass (end-to-end or per-layer).
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds to a metric of this pass.
    pub(crate) fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_insert(0.0) += value;
    }

    /// Feeds a simulated-time output into the model fingerprint.
    pub(crate) fn model(&mut self, label: &str, output: &impl Debug) {
        self.model.update(label.as_bytes());
        self.model.update(format!("{output:?}").as_bytes());
    }

    /// Ends the pass.
    pub(crate) fn finish(self) -> PassResult {
        PassResult {
            id: self.id,
            values: self.values,
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
            fingerprint: self.model.finalize().to_hex(),
        }
    }
}

/// What one pass measured.
#[derive(Debug, Clone)]
pub(crate) struct PassResult {
    /// The pass id.
    pub id: u32,
    /// Metrics set by the workload.
    pub values: BTreeMap<&'static str, f64>,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
    /// SHA-256 over the pass's simulated-time outputs.
    pub fingerprint: String,
}
