//! Spans recorded from outside the program: the benchmark wraps each
//! call it makes into a layer's public API in a span and keeps every
//! span in memory until the run ends.

use regwin_sweep::json::{obj, Value};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<usize>,
    /// `layer.operation` name; the layer is the part before the first dot.
    pub name: String,
    /// Which unit of work (pass, request, job, cell) the span belongs to.
    pub unit: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn len_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer this span belongs to.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// An in-memory span recorder, shareable across threads.
#[derive(Debug)]
pub struct Recorder {
    base: Instant,
    /// Cost of one `Instant::now()` pair, subtracted from every span.
    pair_ns: u64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose clock starts now, with the cost of an
    /// `Instant::now()` pair calibrated once.
    pub fn new() -> Recorder {
        Recorder {
            base: Instant::now(),
            pair_ns: instant_pair_ns() as u64,
            spans: Mutex::default(),
        }
    }

    /// Times `f` as a span named `name` under `parent`, returning the
    /// span id and `f`'s result.
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        unit: u64,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = self.base.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.base.elapsed().as_nanos() as u64;
        let id =
            self.record(name, parent, unit, start, end.saturating_sub(self.pair_ns).max(start));
        (id, out)
    }

    /// Opens a span now; close it with [`Recorder::end`]. For spans
    /// whose children are recorded inside them.
    pub fn begin(&self, name: &str, parent: Option<usize>, unit: u64) -> usize {
        let start = self.base.elapsed().as_nanos() as u64;
        self.record(name, parent, unit, start, start)
    }

    /// Closes a span opened with [`Recorder::begin`].
    pub fn end(&self, id: usize) {
        let end = self.base.elapsed().as_nanos() as u64;
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let s = &mut spans[id];
        s.end_ns = end.saturating_sub(self.pair_ns).max(s.start_ns);
    }

    /// Records a span timed elsewhere (e.g. inside a job on a worker
    /// thread) from its start and end instants.
    pub fn record_span(
        &self,
        name: &str,
        parent: Option<usize>,
        unit: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.base).as_nanos() as u64;
        let (start, end) = (at(start), at(end));
        self.record(name, parent, unit, start, end.saturating_sub(self.pair_ns).max(start))
    }

    fn record(&self, name: &str, parent: Option<usize>, unit: u64, start: u64, end: u64) -> usize {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let id = spans.len();
        spans.push(Span { id, parent, name: name.to_string(), unit, start_ns: start, end_ns: end });
        id
    }

    /// The duration of span `id`, ns.
    pub fn len_ns(&self, id: usize) -> u64 {
        self.spans.lock().expect("span recorder poisoned")[id].len_ns()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let v = obj(vec![
                ("id", Value::Int(s.id as u64)),
                ("parent", s.parent.map_or(Value::Null, |p| Value::Int(p as u64))),
                ("name", Value::Str(s.name.clone())),
                ("unit", Value::Int(s.unit)),
                ("start_ns", Value::Int(s.start_ns)),
                ("end_ns", Value::Int(s.end_ns)),
            ]);
            out.push_str(&v.to_json());
            out.push('\n');
        }
        out
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children. Children may overlap one another (parallel
/// work) or touch end to start; covered time is counted once either way,
/// and only inside the parent's interval. Indexed by span id.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.len_ns() - covered.min(s.len_ns())
        })
        .collect()
}

/// The median cost in nanoseconds of two back-to-back `Instant::now()`
/// calls — what timing a call from outside adds to it.
pub fn instant_pair_ns() -> f64 {
    let mut samples: Vec<f64> = (0..2001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span { id, parent, name: format!("l.s{id}"), unit: 0, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ b [20,30)
        let spans = vec![span(0, None, 0, 100), span(1, Some(0), 10, 40), span(2, Some(1), 20, 30)];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn self_time_counts_adjacent_and_overlapping_children_once() {
        // Adjacent children [10,20) [20,35), an overlapping one [30,50)
        // and one spilling past the parent's end [90,120).
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 20),
            span(2, Some(0), 20, 35),
            span(3, Some(0), 30, 50),
            span(4, Some(0), 90, 120),
        ];
        // Covered: [10,50) = 40 plus [90,100) = 10.
        assert_eq!(self_times(&spans)[0], 50);
        // Zero-length children cover nothing.
        let spans = vec![span(0, None, 0, 10), span(1, Some(0), 5, 5), span(2, Some(0), 5, 5)];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn recorder_nests_and_subtracts_the_calibrated_pair() {
        let r = Recorder::new();
        let root = r.begin("w.pass", None, 0);
        let (child, v) = r.time("l.call", Some(root), 3, || 7);
        r.end(root);
        assert_eq!(v, 7);
        let spans = r.spans();
        assert_eq!(spans[child].parent, Some(root));
        assert_eq!(spans[child].layer(), "l");
        assert!(spans[root].start_ns <= spans[child].start_ns);
        assert!(r.to_jsonl().lines().count() == 2);
    }
}
