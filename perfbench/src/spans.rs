//! In-memory spans recorded around the library's public calls.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! common origin), the span that caused it and the operation it belongs to.
//! Each thread records into its own [`Spans`]; [`Spans::absorb`] merges
//! them at the end, and [`Spans::write_jsonl`] writes them out once the
//! run is over, so no I/O happens while anything is timed.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Marks a root span.
pub const NO_PARENT: usize = usize::MAX;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `trace.read_block`.
    pub name: &'static str,
    /// Start, in nanoseconds since the common origin.
    pub start: u64,
    /// End, in nanoseconds since the common origin.
    pub end: u64,
    /// Index of the causing span, or [`NO_PARENT`].
    pub parent: usize,
    /// The operation (analysis or session) the span serves.
    pub op: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            list: Vec::new(),
        }
    }

    /// The instant all span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: usize, op: u64) -> usize {
        let start = self.now();
        self.list.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        self.list.len() - 1
    }

    /// Closes the span `id`.
    pub fn close(&mut self, id: usize) {
        self.list[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn wrap<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Spans) {
        let offset = self.list.len();
        self.list.extend(other.list.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += offset;
            }
            s
        }));
    }

    /// Every recorded span.
    pub fn list(&self) -> &[Span] {
        &self.list
    }

    /// Total duration of the spans named `name`, in nanoseconds.
    pub fn busy_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::ns).sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.list.iter().filter(move |s| s.name == name)
    }

    /// Per span name: (total, self) time in nanoseconds, where self time is
    /// a span's duration minus the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.list.len()];
        for s in &self.list {
            if s.parent != NO_PARENT {
                child_ns[s.parent] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, children) in self.list.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += s.ns();
            e.1 += s.ns().saturating_sub(children);
        }
        out
    }

    /// Nanoseconds of `[from, to)` covered by at least one span that has
    /// no children (the innermost recorded calls).
    pub fn leaf_coverage_ns(&self, from: u64, to: u64) -> u64 {
        let mut has_child = vec![false; self.list.len()];
        for s in &self.list {
            if s.parent != NO_PARENT {
                has_child[s.parent] = true;
            }
        }
        let mut iv: Vec<(u64, u64)> = self
            .list
            .iter()
            .zip(has_child)
            .filter(|(_, parent)| !parent)
            .map(|(s, _)| (s.start.max(from), s.end.min(to)))
            .filter(|(a, b)| a < b)
            .collect();
        iv.sort_unstable();
        let (mut covered, mut reach) = (0u64, from);
        for (a, b) in iv {
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
        }
        covered
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.list.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: usize) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_coverage_merges_leaves() {
        let mut spans = Spans::new(Instant::now());
        spans.list = vec![
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 30, 60, 0),
            span("c", 80, 90, NO_PARENT),
        ];
        let t = spans.self_times();
        assert_eq!(t["root"], (100, 40));
        assert_eq!(t["a"], (30, 30));
        // a ∪ b = [10, 60), c = [80, 90)
        assert_eq!(spans.leaf_coverage_ns(0, 100), 60);
        assert_eq!(spans.leaf_coverage_ns(50, 85), 15);
    }
}
