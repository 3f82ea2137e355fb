//! The benchmark's span recorder.
//!
//! Spans are recorded by the benchmark's own files around the calls into
//! each layer of the program; nothing inside the program is instrumented.
//! They stay in memory until the run ends.  A span's self time is its
//! duration minus the part of that interval its child spans cover, so
//! nested and overlapping children are never counted twice.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{obj, Value};

/// One recorded interval, in nanoseconds since the recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation share this identifier.
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    rec: &'a Recorder,
    id: usize,
}

impl Guard<'_> {
    pub fn id(&self) -> usize {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let now = self.rec.now_ns();
        self.rec.spans.lock().expect("span list lock")[self.id].end_ns = now;
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                open.remove(pos);
            }
        });
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under this thread's innermost open span.
    pub fn enter(&self, name: &'static str, op_id: u64) -> Guard<'_> {
        let parent = self.current();
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list lock");
        let id = spans.len();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        drop(spans);
        OPEN.with(|open| open.borrow_mut().push(id));
        Guard { rec: self, id }
    }

    /// This thread's innermost open span.
    pub fn current(&self) -> Option<usize> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// When span `id` was opened.
    pub fn start_of(&self, id: usize) -> u64 {
        self.spans.lock().expect("span list lock")[id].start_ns
    }

    /// Record a finished interval the program reported about itself (a
    /// server-side phase, the runtime's own wall time) under `parent`.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        parent: Option<usize>,
        op_id: u64,
    ) {
        self.spans.lock().expect("span list lock").push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent,
            op_id,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, each clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
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
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span name: how many spans, their total duration and total self time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// The spans as a JSON array, for `perf/out/<workload>.trace.json`.
pub fn spans_to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                obj(vec![
                    ("name", s.name.into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    ("parent", s.parent.map_or(Value::Null, Value::from)),
                    ("op_id", s.op_id.into()),
                ])
            })
            .collect(),
    )
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
            op_id: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        let spans = vec![
            span("op", 0, 100, None),
            span("run", 10, 90, Some(0)),
            span("task", 20, 50, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 50, 30]);
    }

    #[test]
    fn overlapping_children_cover_their_union() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            // Contained in `a`: adds nothing to the union.
            span("c", 20, 30, Some(0)),
            // Sticks out of the parent: only the inside part counts.
            span("d", 90, 130, Some(0)),
        ];
        // Union is [10, 80) and [90, 100): 80 covered, 20 left.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn guards_nest_on_one_thread_and_totals_add_up() {
        let rec = Recorder::new();
        {
            let op = rec.enter("op", 7);
            {
                let _inner = rec.enter("inner", 7);
            }
            rec.record("reported", rec.now_ns(), 0, Some(op.id()), 7);
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op_id == 7));
        let totals = totals_by_name(&spans);
        assert_eq!(totals["op"].count, 1);
        assert_eq!(
            totals["op"].self_ns + totals["inner"].total_ns,
            totals["op"].total_ns
        );
        let json = spans_to_json(&spans);
        assert_eq!(json.as_arr().len(), 3);
        assert_eq!(json.as_arr()[1].get("parent").unwrap().as_f64(), Some(0.0));
    }
}
