//! Spans around the calls the benchmark makes into each layer.
//!
//! A [`Recorder`] keeps the spans of one scenario in memory: a name, the
//! enclosing span and the start and end times, plus counters read where
//! the work happened. The per-layer times of every scenario are folded
//! from these spans; with tracing on, the spans of each workload's last
//! timed scenario are also written out as JSON lines once the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, such as `core.schedule`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span stack.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    notes: Vec<(usize, &'static str, f64)>,
}

impl Recorder {
    pub fn new() -> Self {
        // Sized for every scenario, so that recording allocates nothing
        // inside the scenario whose allocations are counted.
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(256),
            open: Vec::with_capacity(8),
            notes: Vec::with_capacity(256),
        }
    }

    /// Forgets every span, keeping the buffers so that recording the next
    /// scenario allocates nothing once they have grown.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.open.clear();
        self.notes.clear();
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Attaches a counter to the innermost open span.
    pub fn note(&mut self, key: &'static str, value: f64) {
        if let Some(&id) = self.open.last() {
            self.notes.push((id, key, value));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total milliseconds spent in spans named `name`, or `None` if the
    /// scenario made no such call.
    pub fn total_ms(&self, name: &str) -> Option<f64> {
        let mut found = false;
        let mut ns = 0;
        for span in self.spans.iter().filter(|s| s.name == name) {
            found = true;
            ns += span.duration_ns();
        }
        found.then_some(ns as f64 / 1e6)
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The parts of the recorded scenario, in call order: every call
    /// inside its phases (the spans two levels below the `scenario` root),
    /// then the rest of the root's time, which none of them covers. Their
    /// durations sum to the root's. Empty if no scenario was recorded.
    pub fn parts(&self) -> Vec<(&'static str, u64)> {
        let Some(root) = self
            .spans
            .iter()
            .position(|s| s.parent.is_none() && s.name == "scenario")
        else {
            return Vec::new();
        };
        let mut parts: Vec<(&'static str, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].parent == Some(root)))
            .map(|s| (s.name, s.duration_ns()))
            .collect();
        let covered: u64 = parts.iter().map(|(_, ns)| ns).sum();
        parts.push(("scenario", self.spans[root].duration_ns() - covered));
        parts
    }

    /// Appends one JSON object per span to `out`, with its counters.
    pub fn write_jsonl(&self, out: &mut String, workload: &str, scenario: &str) {
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"workload\": \"{workload}\", \
                 \"scenario\": \"{scenario}\", \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"counters\": {{",
                span.name, span.start_ns, span.end_ns
            );
            let notes = self.notes.iter().filter(|(owner, _, _)| *owner == id);
            for (i, (_, key, value)) in notes.enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{key}\": {value}");
            }
            out.push_str("}}\n");
        }
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Children that overlap each other, as
/// concurrent calls would, are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("scenario", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),  // overlaps `a` on 30..40
            span("c", Some(0), 35, 50),  // inside `b`
            span("d", Some(0), 90, 120), // runs past its parent's end
            span("a.leaf", Some(1), 15, 20),
        ];
        let self_ns = self_times_ns(&spans);
        // The union of the children is 10..60 and 90..100: 60 ns.
        assert_eq!(self_ns[0], 100 - 60);
        assert_eq!(self_ns[1], 30 - 5);
        assert_eq!(self_ns[2], 30);
        assert_eq!(self_ns[5], 5);
    }

    #[test]
    fn self_times_of_nested_spans_sum_to_the_root() {
        let mut rec = Recorder::new();
        rec.span("scenario", |rec| {
            rec.span("setup", |rec| {
                rec.span("core.schedule", |_| {
                    std::hint::black_box(vec![0u8; 1 << 16])
                });
                rec.note("tasks", 3.0);
            });
            rec.span("run", |rec| rec.span("sim.engine.run", |_| ()));
        });
        let self_ns = self_times_ns(rec.spans());
        let root = rec.spans()[0].duration_ns();
        assert_eq!(self_ns.iter().sum::<u64>(), root);
        let parts = rec.parts();
        let names: Vec<&str> = parts.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["core.schedule", "sim.engine.run", "scenario"]);
        assert_eq!(parts.iter().map(|(_, ns)| ns).sum::<u64>(), root);
        assert_eq!(rec.calls("sim.engine.run"), 1);
        assert!(rec.total_ms("core.schedule").is_some());
        assert_eq!(rec.total_ms("core.delta_plan"), None);

        let mut jsonl = String::new();
        rec.write_jsonl(&mut jsonl, "toy", "traced");
        assert_eq!(jsonl.lines().count(), 5);
        assert!(jsonl.contains("\"name\": \"setup\""));
        assert!(jsonl.contains("\"counters\": {\"tasks\": 3}"));
        assert!(jsonl.lines().next().unwrap().contains("\"parent\": null"));
    }
}
