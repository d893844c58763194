//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is one call: its name, start and end (nanoseconds since the
//! tracer was created), the span that caused it, and the request it belongs
//! to. Spans stay in memory while the workload runs and are written out
//! when it ends. A layer's *self time* is its span's duration minus the
//! part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a recorded span, usable as a parent.
pub type SpanId = usize;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `net.roundtrip`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Identifier shared by every span of one request.
    pub request: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a call that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::close`] once its children
    /// have been recorded.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = end;
    }

    /// Renames a recorded span, for calls whose kind is known only once
    /// they have returned.
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times in nanoseconds, grouped by span name.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            by_name.entry(span.name).or_default().push(self_ns as f64);
        }
        by_name
    }

    /// Writes every span as one tab-separated line:
    /// `id name start_ns end_ns parent request` (`parent` is `-` for roots).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Runs `f` and returns its value and how long it took; with a tracer,
/// also records the call as a span named `name`.
pub fn time<T>(
    tracer: Option<&mut Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    request: u64,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    let end = Instant::now();
    if let Some(t) = tracer {
        t.record(name, parent, request, start, end);
    }
    (value, end - start)
}

/// Self time of every span, in the order given: its duration minus the
/// union of its children's intervals, each clipped to the parent's
/// interval (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent.filter(|&p| p < spans.len()) {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn a_leaf_span_is_all_self_time() {
        assert_eq!(self_times(&[span("a", 10, 35, None)]), vec![25]);
    }

    #[test]
    fn children_are_subtracted_from_their_parent_only() {
        let spans = [
            span("root", 0, 100, None),
            span("child", 10, 30, Some(0)),
            span("child", 50, 60, Some(0)),
            span("grandchild", 12, 20, Some(1)),
        ];
        // root: 100 - (20 + 10); child 1: 20 - 8; child 2: 10; grandchild: 8.
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            // Nested inside `a`'s interval entirely.
            span("c", 20, 40, Some(0)),
        ];
        // Union of children is [10, 70): 60 ns covered.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = [
            span("root", 100, 200, None),
            // Starts before and ends after the parent: covers all of it.
            span("spill", 50, 250, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![0, 200]);
        let spans = [
            span("root", 100, 200, None),
            span("late", 180, 260, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 80);
    }

    #[test]
    fn time_records_a_span_only_with_a_tracer() {
        let (value, took) = time(None, "untraced", None, 0, || 6 * 7);
        assert_eq!(value, 42);
        let mut tracer = Tracer::new();
        let (_, traced) = time(Some(&mut tracer), "leaf", Some(3), 9, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(traced >= std::time::Duration::from_millis(1) && took < traced);
        let span = tracer.spans()[0];
        assert_eq!((span.name, span.parent, span.request), ("leaf", Some(3), 9));
        assert_eq!(u128::from(span.duration_ns()), traced.as_nanos());
    }

    #[test]
    fn tracer_groups_self_times_by_name() {
        let mut tracer = Tracer::new();
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_micros(5);
        let t2 = t0 + std::time::Duration::from_micros(8);
        let root = tracer.record("root", None, 7, t0, t2);
        tracer.record("leaf", Some(root), 7, t0, t1);
        let by_name = tracer.self_times_by_name();
        assert_eq!(by_name["leaf"], vec![5_000.0]);
        assert_eq!(by_name["root"], vec![3_000.0]);
        assert_eq!(tracer.spans()[1].request, 7);
    }
}
