//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSONL when the run ends.
//!
//! A disabled [`Tracer`] makes every call a single branch, so untraced
//! operations and the traced envelope execute the same code.

use std::io::Write;
use std::time::Instant;

/// One closed (or still open) interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.absorb`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; equals `start_ns` for
    /// zero-length marks.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time covered, in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Spans nest by call order: a span entered while another
/// is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
pub type SpanId = Option<usize>;

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn enabled() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::disabled()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::enter`], and any spans still open
    /// inside it.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records a zero-length mark under the innermost open span.
    pub fn mark(&mut self, name: &'static str) {
        if self.enabled {
            let now = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent: self.open.last().copied(),
            });
        }
    }

    /// Every span recorded so far, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span: `id`, `name`, `start_ns`,
    /// `end_ns`, `parent` (an `id` or null) and `run_id`.
    pub fn write_jsonl(&self, out: &mut impl Write, run_id: &str) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run_id\":\"{run_id}\"}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Wall nanoseconds one recorded span costs the code it wraps — an enter
/// and an exit, storage included — timed over many spans on a fresh
/// tracer. Untraced and traced operations run the same code, so this cost
/// times the spans recorded is what tracing adds to an operation.
pub fn span_cost_ns() -> f64 {
    const SPANS: u32 = 200_000;
    let mut tracer = Tracer::enabled();
    let start = Instant::now();
    for _ in 0..SPANS {
        let id = tracer.enter("cost");
        tracer.exit(id);
    }
    start.elapsed().as_nanos() as f64 / f64::from(SPANS)
}

/// Total length of the union of `intervals`, each clipped to `within`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, within: (u64, u64)) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = within.0;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(within.1));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

fn child_intervals(spans: &[Span], parent: usize) -> Vec<(u64, u64)> {
    spans
        .iter()
        .filter(|s| s.parent == Some(parent))
        .map(|s| (s.start_ns, s.end_ns))
        .collect()
}

/// A span's duration minus the part of it its children cover.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let s = &spans[id];
    s.duration_ns() - covered_ns(child_intervals(spans, id), (s.start_ns, s.end_ns))
}

/// Share of a root span's wall time covered by its direct children.
pub fn coverage(spans: &[Span], root: usize) -> f64 {
    let r = &spans[root];
    covered_ns(child_intervals(spans, root), (r.start_ns, r.end_ns)) as f64
        / r.duration_ns().max(1) as f64
}

/// Durations, in nanoseconds, of every span named `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Seconds summed over every span named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    durations_ns(spans, name).iter().sum::<u64>() as f64 / 1e9
}

/// Seconds of self time summed over every span named `name`.
pub fn self_total_s(spans: &[Span], name: &str) -> f64 {
    (0..spans.len())
        .filter(|&i| spans[i].name == name)
        .map(|i| self_time_ns(spans, i))
        .sum::<u64>() as f64
        / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 35, Some(1)),
            span("b", 30, 60, Some(0)),  // overlaps `a`: counted once
            span("c", 90, 120, Some(0)), // runs past the root: clipped
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - (60 - 10) - (100 - 90));
        assert_eq!(self_time_ns(&spans, 1), 30 - 20);
        assert_eq!(self_time_ns(&spans, 2), 20);
        assert_eq!(self_total_s(&spans, "a"), 10e-9);
        assert!((coverage(&spans, 0) - 0.6).abs() < 1e-12);
        assert_eq!(total_s(&spans, "b"), 30e-9);
    }

    #[test]
    fn tracer_nests_by_call_order_and_closes_abandoned_children() {
        let mut t = Tracer::enabled();
        let root = t.enter("root");
        t.span("first", || ());
        let outer = t.enter("outer");
        t.mark("tick");
        let _abandoned = t.enter("inner");
        t.exit(outer);
        t.exit(root);
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[3].duration_ns(), 0);
        assert_eq!(s[4].parent, Some(2));
        assert_eq!(s[4].end_ns, s[2].end_ns, "closed with its parent");
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        let mut out = Vec::new();
        t.write_jsonl(&mut out, "w-1").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.starts_with("{\"id\":0,\"name\":\"root\""));
        assert!(text.contains("\"parent\":2,\"run_id\":\"w-1\""));
    }

    #[test]
    fn a_span_costs_little_but_something() {
        let ns = span_cost_ns();
        assert!(ns > 0.0 && ns < 100_000.0, "{ns} ns a span");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let id = t.enter("x");
        assert_eq!(id, None);
        t.exit(id);
        t.mark("m");
        assert!(t.spans().is_empty());
    }
}
