//! In-memory spans around the benchmark's calls into each layer.
//!
//! The program under test has no tracing of its own yet (ROADMAP item 1),
//! so spans are recorded here, from outside, around public calls. Each span
//! carries its name, start, end, the span that caused it and the request it
//! belongs to; they stay in memory until the run ends and are then written
//! to a file. A layer's self time is its span minus the part of that
//! interval its children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; it must be closed with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, request: u32, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record a span around `f`, returning `f`'s value and the span's
    /// duration in seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.enter(name, request, parent);
        let out = std::hint::black_box(f());
        self.exit(id);
        (out, self.spans[id].duration_ns() as f64 / 1e9)
    }

    /// One line per span: id, parent, request, name, start, end, self time.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".into());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns, self_ns[id]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its direct children's intervals, each clipped to the span. Children may
/// overlap one another (parallel parts) and are counted once where they do;
/// grandchildren are already inside their parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times_ns(&[span(None, 10, 110)]), vec![100]);
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // root 0..100 ⊃ child 10..60 ⊃ grandchild 20..30
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(1), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two parallel children 10..50 and 30..70 cover 60 of the parent.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 50),
            span(Some(0), 30, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 40, 40]);
        // A child contained in a sibling adds nothing.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 90),
            span(Some(0), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn child_outliving_its_parent_is_clipped() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 80, 150),
            span(Some(0), 200, 300),
        ];
        assert_eq!(self_times_ns(&spans)[0], 80);
    }

    #[test]
    fn tracer_records_parent_and_request() {
        let mut t = Tracer::new();
        let root = t.enter("request", 7, None);
        let (v, secs) = t.span("layer", 7, Some(root), || 41 + 1);
        t.exit(root);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert_eq!(t.spans[1].parent, Some(root));
        assert_eq!(t.spans[1].request, 7);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }
}
