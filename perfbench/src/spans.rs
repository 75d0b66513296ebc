//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's side, around the calls it
//! makes into the system's public entry points; they stay in memory
//! and are written out once, when the run ends.

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.shard.step`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request (or one pass).
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one time origin.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The recorder's time origin.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch at `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span and return its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
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

    /// Append spans recorded elsewhere (another thread's recorder with
    /// the same epoch), re-basing their parent indices.
    pub fn absorb(&mut self, other: Vec<Span>, parent: Option<usize>) {
        let base = self.spans.len();
        for mut s in other {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            self.spans.push(s);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move the spans out (for [`absorb`](Self::absorb)).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// A recorder on an existing epoch (for worker threads).
    pub fn with_epoch(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Write every span as one JSON line:
    /// `{"id","name","start_ns","end_ns","parent","request","self_ns"}`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, selfs[i]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover.  Overlapping children (parallel
/// shards) are merged first, so covered time is never counted twice,
/// and child time outside the parent's interval is clipped.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(cursor);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
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
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
            span("b.inner", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        // Two shards stepping in parallel under one pass span.
        let spans = vec![
            span("pass", 0, 100, None),
            span("shard0", 10, 80, Some(0)),
            span("shard1", 20, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("p", 10, 20, None), span("c", 0, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
        let spans = vec![span("p", 10, 20, None), span("c", 0, 40, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut main = Recorder::new();
        let t = main.epoch();
        let root = main.record("root", t, t, None, 1);
        let worker = vec![span("w", 1, 2, None), span("w.child", 1, 2, Some(0))];
        main.absorb(worker, Some(root));
        assert_eq!(main.spans()[1].parent, Some(root));
        assert_eq!(main.spans()[2].parent, Some(1));
    }
}
