//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written out when the run ends, one JSON
//! object per line: `{id, parent, tx, layer, name, start_ns, end_ns}`.
//! `parent` is the span that caused this one (0 for a transaction's root
//! span); the spans of one transaction share `tx`. A layer's self time is
//! its span's duration minus what its child spans cover.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub tx: u32,
    /// The crate the timed call lives in.
    pub layer: &'static str,
    /// What was called: `"handle"`, `"tick"`, `"encode"`, …
    pub op: &'static str,
    /// Which kind: a `Msg::kind()`, a tick name, or `""`.
    pub kind: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn name(&self) -> String {
        if self.kind.is_empty() {
            self.op.to_string()
        } else {
            format!("{}.{}", self.op, self.kind)
        }
    }
}

/// What a span timed: `(layer, op, kind)`.
pub type Label = (&'static str, &'static str, &'static str);

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `at` on this tracer's time axis (0 for instants before its epoch).
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        parent: u32,
        tx: u32,
        (layer, op, kind): Label,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            tx,
            layer,
            op,
            kind,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span whose end is not known yet (a transaction's root):
    /// children can name it as parent before [`Tracer::close`] sets its end.
    pub fn open(&mut self, tx: u32, label: Label) -> u32 {
        let now = self.now_ns();
        self.record(0, tx, label, now, now)
    }

    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span with this `op` and `kind`.
    pub fn durations(&self, op: &str, kind: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.op == op && s.kind == kind)
            .map(|s| s.nanos() as f64)
            .collect()
    }

    /// Total nanoseconds of every span of `layer` with this `op` that
    /// belongs to a transaction.
    pub fn total_ns(&self, layer: &str, op: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.tx != 0 && s.layer == layer && s.op == op)
            .map(|s| s.nanos() as f64)
            .sum()
    }

    /// Writes every span to `path` as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"tx\":{},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.tx,
                s.layer,
                s.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
