//! In-memory spans around the calls into each layer.
//!
//! The traced run wraps every public call it makes into the program in a
//! span — name, start, end, the span that caused it, and the event it
//! belongs to — keeps them all in memory, and writes them out in Chrome
//! trace format when the run ends. Nothing inside the program records a
//! span: what a layer costs is what its caller waits for it.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crayfish::sim::now;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The record (or probe round) the span belongs to.
    pub event: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: now(),
            spans: Vec::new(),
        }
    }

    fn clock_ns(&self) -> u64 {
        u64::try_from(now().duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span now; [`Tracer::end`] closes it.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, event: u64) -> SpanId {
        let start_ns = self.clock_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            event,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.clock_ns();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = end_ns;
        }
    }

    /// Run `call` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        event: u64,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, event);
        let out = call();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Write every span as a Chrome-trace complete event (`ph: "X"`), one
    /// track per top-level span name so probes and trips sit side by side.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                write!(out, ",")?;
            }
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{},\"event\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64),
                s.event
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that child spans cover. Children may nest further (only direct children
/// count), overlap each other (covered once), or stick out of the parent
/// (clipped to it).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            event: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100, child 10..40, grandchild 20..30 (inside the child).
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // children 10..50 and 30..70 overlap on 30..50: 60 ns covered.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child that outlives its parent covers only the shared part; one
        // wholly outside covers nothing.
        let spans = [
            span(10, 50, None),
            span(40, 90, Some(0)),
            span(60, 80, Some(0)),
            span(0, 20, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn a_contained_child_between_two_others_adds_nothing() {
        let spans = [
            span(0, 100, None),
            span(0, 60, Some(0)),
            span(10, 20, Some(0)),
            span(50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn tracer_nests_and_times_calls() {
        let mut t = Tracer::new();
        let root = t.begin("trip", None, 7);
        let v = t.time("layer", Some(root), 7, || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.durations_us("layer").len(), 1);
    }
}
