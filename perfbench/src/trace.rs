//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it (the
//! operation it belongs to). Spans stay in memory while the run measures
//! and are written out once, after the run.

use std::io::Write;
use std::time::Instant;

/// Parent id of a span that no other span caused.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer metric the span feeds, e.g. `proto.render_ldif_ns`.
    pub name: &'static str,
    /// Index of the causing span, or [`ROOT`].
    pub parent: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Length of the span in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Disabled tracers record nothing and the workloads skip
/// every layer call made only for tracing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`]. Returns its id.
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
    }

    /// Record `f` as one span and return what it returned.
    pub fn time<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
        out
    }

    /// Length (ns) of the most recently recorded span.
    pub fn last_ns(&self) -> f64 {
        self.spans.last().map_or(0.0, |s| s.ns() as f64)
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span with this name.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Write every span as tab-separated `id parent name start_ns end_ns`
    /// lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_records_one_span_with_parent() {
        let mut t = Tracer::new(true);
        let op = t.open("op", ROOT);
        let v = t.time("inner", op, || 41 + 1);
        t.close(op);
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, op);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
