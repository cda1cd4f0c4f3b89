//! In-memory spans for the traced run.
//!
//! The harness opens a span around each call it makes into a layer's
//! public functions. Spans nest (a span opened while another is open is
//! its child), carry the id of the operation that caused them, and stay
//! in memory until the run ends, when [`Tracer::write_tsv`] writes them
//! out. A layer's self time is its span's duration minus the part of it
//! its direct children cover ([`Tracer::self_times`]).

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (set-up registration, publish or churn pair) the
    /// span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let start = self.now();
        self.push(name, op, start, start)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let now = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = now;
    }

    /// Times `f` as a span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Opens a span with the given times as a child of the innermost
    /// open span.
    fn push(&mut self, name: &'static str, op: u64, start: u64, end: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Opens a span at an explicit time.
    #[cfg(test)]
    pub fn open_at(&mut self, name: &'static str, op: u64, start: u64) -> usize {
        self.push(name, op, start, start)
    }

    /// Closes the innermost open span, which must be `id`, at `end`.
    #[cfg(test)]
    pub fn close_at(&mut self, id: usize, end: u64) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = end;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the union of its direct
    /// children's intervals, clipped to the span.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| span.duration() - covered(span.start, span.end, kids))
            .collect()
    }

    /// Writes every span as one tab-separated line:
    /// `index name op start_ns end_ns parent self_ns` (`-` for no
    /// parent).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\top\tstart_ns\tend_ns\tparent\tself_ns")?;
        for (i, (span, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{parent}\t{self_ns}",
                span.name, span.op, span.start, span.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> Tracer {
        Tracer::new(Instant::now())
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = tracer();
        let root = t.open_at("unit", 1, 0);
        let a = t.open_at("a", 1, 10);
        let leaf = t.open_at("leaf", 1, 12);
        t.close_at(leaf, 18);
        t.close_at(a, 30);
        let b = t.open_at("b", 1, 40);
        t.close_at(b, 70);
        t.close_at(root, 100);
        let spans = t.spans();
        assert_eq!(spans[a].parent, Some(root));
        assert_eq!(spans[leaf].parent, Some(a));
        assert_eq!(spans[b].parent, Some(root));
        let self_ns = t.self_times();
        // root: 100 − (20 + 30); the grandchild is inside `a` already.
        assert_eq!(self_ns[root], 50);
        assert_eq!(self_ns[a], 20 - 6);
        assert_eq!(self_ns[leaf], 6);
        assert_eq!(self_ns[b], 30);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut t = tracer();
        let root = t.open_at("root", 0, 100);
        // Two children replayed with overlapping intervals, one of which
        // starts before the parent.
        let c1 = t.open_at("c1", 0, 90);
        t.close_at(c1, 130);
        let c2 = t.open_at("c2", 0, 120);
        t.close_at(c2, 150);
        t.close_at(root, 200);
        // Covered: [100, 150) = 50 of the parent's 100.
        assert_eq!(t.self_times()[root], 50);
    }

    #[test]
    fn measured_spans_nest() {
        let mut t = tracer();
        let outer = t.begin("outer", 3);
        t.time("inner", 3, || {
            std::hint::black_box((0..1000_u64).sum::<u64>())
        });
        let id = outer + 1;
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans[id].parent, Some(outer));
        assert!(spans[outer].start <= spans[id].start);
        assert!(spans[id].end <= spans[outer].end);
        assert_eq!(spans[id].op, 3);
        let self_ns = t.self_times();
        assert_eq!(
            self_ns[outer],
            spans[outer].duration() - spans[id].duration()
        );
    }
}
