//! In-memory span recording for the traced run.
//!
//! Spans are recorded from outside the program, around the benchmark's
//! calls into each layer's public functions: one root span per operation
//! and one child span per layer call inside it. Each client thread owns
//! its [`Tracer`]; nothing is shared or written while the clock runs.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub id: u32,
    /// Id of the enclosing span of the same op; 0 for an op's root span.
    pub parent: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// A per-thread span recorder; when disabled it only runs the closures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    next_id: u32,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer { enabled, epoch, op: 0, next_id: 1, stack: Vec::new(), spans: Vec::new() }
    }

    /// Starts a new operation: later spans carry op id `op`.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
        self.next_id = 1;
        self.stack.clear();
    }

    /// Opens a span named `name` under the innermost open one; `None`
    /// when tracing is off.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        Some(Open { id, parent, name, start: self.now() })
    }

    /// Closes a span [`Tracer::enter`] opened.
    #[inline]
    pub fn exit(&mut self, open: Option<Open>) {
        if let Some(o) = open {
            let end = self.now();
            self.stack.pop();
            self.spans.push(Span {
                op: self.op,
                id: o.id,
                parent: o.parent,
                name: o.name,
                start: o.start,
                end,
            });
        }
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A span that is open: entered, not yet exited.
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    start: u64,
}

/// Each span's self time: its duration minus the part of it that its
/// child spans cover. Returned per span name, in recording order.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    // Spans of one op are contiguous in a tracer's buffer; children end
    // before (so are recorded before) their parent.
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut i = 0;
    while i < spans.len() {
        let op = spans[i].op;
        let mut j = i;
        while j < spans.len() && spans[j].op == op {
            j += 1;
        }
        let group = &spans[i..j];
        for s in group {
            let mut kids: Vec<(u64, u64)> = group
                .iter()
                .filter(|c| c.parent == s.id)
                .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            out.entry(s.name).or_default().push((s.end - s.start).saturating_sub(covered));
        }
        i = j;
    }
    out
}

/// Durations per span name.
pub fn durations(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name).or_default().push(s.end - s.start);
    }
    out
}

/// Starts a span file: creates it (and its directory) holding only the
/// header line of the tab-separated `op id parent name start_ns end_ns`
/// records [`append_spans`] adds.
pub fn start_span_file(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, "op\tid\tparent\tname\tstart_ns\tend_ns\n")
}

/// Appends spans to a file [`start_span_file`] started.
pub fn append_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new().append(true).open(path)?;
    let mut w = std::io::BufWriter::new(file);
    for s in spans {
        writeln!(w, "{}\t{}\t{}\t{}\t{}\t{}", s.op, s.id, s.parent, s.name, s.start, s.end)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span { op, id, parent, name, start, end }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = [
            span(1, 2, 1, "a", 10, 30),
            span(1, 3, 1, "b", 25, 50), // overlaps a: union is 10..50
            span(1, 1, 0, "op", 0, 100),
            span(2, 2, 1, "a", 5, 6),
            span(2, 1, 0, "op", 0, 10),
        ];
        let st = self_times(&spans);
        assert_eq!(st["op"], vec![60, 9]);
        assert_eq!(st["a"], vec![20, 1]);
        assert_eq!(st["b"], vec![25]);
        assert_eq!(durations(&spans)["op"], vec![100, 10]);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::new(true, Instant::now());
        for op in [7, 8] {
            t.begin_op(op);
            let root = t.enter("op");
            assert_eq!(t.span("child", || 5), 5);
            t.span("child", || ());
            t.exit(root);
        }
        let shape: Vec<_> = t.spans.iter().map(|s| (s.op, s.id, s.parent, s.name)).collect();
        assert_eq!(
            shape,
            vec![
                (7, 2, 1, "child"),
                (7, 3, 1, "child"),
                (7, 1, 0, "op"),
                (8, 2, 1, "child"),
                (8, 3, 1, "child"),
                (8, 1, 0, "op"),
            ]
        );
        assert!(t.spans.iter().all(|s| s.start <= s.end));

        let mut off = Tracer::new(false, Instant::now());
        assert!(off.enter("op").is_none());
        assert_eq!(off.span("x", || 5), 5);
        assert!(off.spans.is_empty());
    }
}
