//! In-memory spans recorded around calls into each layer, written out
//! once the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    /// Layer-qualified name, e.g. `aspect.weave`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once, and child
/// time outside the parent's interval is ignored).
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    parent.duration_ns() - covered
}

/// Collects spans in memory; nothing is written until [`Tracer::to_jsonl`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `at`.
    fn stamp(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished interval and returns its id.
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.stamp(start),
            end_ns: self.stamp(end),
        });
        id
    }

    /// Runs `f` inside a span named `name`, returning its value and the
    /// span's duration in nanoseconds.
    pub fn time<T>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        self.record(name, parent, start, end);
        (value, end.duration_since(start).as_nanos() as u64)
    }

    /// Reserves an id for a span whose interval is recorded later with
    /// [`Tracer::close`] (so its children can name it as their parent).
    pub fn open(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records the interval of a span reserved with [`Tracer::open`].
    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.stamp(start),
            end_ns: self.stamp(end),
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span and line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> Span {
        Span {
            id: 0,
            parent: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let parent = span(100, 200);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        // Disjoint children: 10 + 20 covered.
        assert_eq!(
            self_time_ns(&parent, &[&span(110, 120), &span(150, 170)]),
            70
        );
        // Overlapping children count once: [110, 160) covered.
        assert_eq!(
            self_time_ns(&parent, &[&span(110, 140), &span(130, 160)]),
            50
        );
        // Nested child inside another: only the outer counts.
        assert_eq!(
            self_time_ns(&parent, &[&span(110, 190), &span(120, 130)]),
            20
        );
        // Children sticking out of the parent are clipped to it.
        assert_eq!(
            self_time_ns(&parent, &[&span(50, 120), &span(190, 260)]),
            70
        );
        // A child entirely outside covers nothing.
        assert_eq!(self_time_ns(&parent, &[&span(0, 50)]), 100);
        // Fully covered parent has no self time.
        assert_eq!(self_time_ns(&parent, &[&span(100, 200)]), 0);
    }

    #[test]
    fn tracer_links_children_to_parents() {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch);
        let root = tracer.open();
        let start = Instant::now();
        let ((), _) = tracer.time("child", root, || {});
        tracer.close(root, "root", 0, start, Instant::now());
        let children: Vec<&Span> = tracer.spans().iter().filter(|s| s.parent == root).collect();
        assert_eq!(children.len(), 1);
        assert_eq!(children[0].name, "child");
        let root_span = tracer.spans().iter().find(|s| s.id == root).unwrap();
        assert!(self_time_ns(root_span, &children) <= root_span.duration_ns());
        assert_eq!(tracer.to_jsonl().lines().count(), 2);
    }
}
