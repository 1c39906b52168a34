//! Spans the benchmark records around its calls into each layer.
//!
//! A span has a name, a start, an end, a parent and the id of the
//! operation (solve or request) it belongs to. Spans stay in memory and are
//! written out when the run ends. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One recorded interval, in seconds since the run's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Solve or request id shared by every span of one operation.
    pub op: u64,
    pub start: f64,
    pub end: f64,
}

/// A span that has started and not yet ended.
#[must_use = "an open span records nothing until it is closed"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    op: u64,
    start: f64,
}

impl Open {
    /// Id children of this span name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Per-thread span store. Recorders forked from one another share the
/// run's epoch and one id counter, so merged spans keep unique ids.
pub struct Recorder {
    epoch: Instant,
    ids: Arc<AtomicU64>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            ids: Arc::new(AtomicU64::new(0)),
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self) -> Self {
        Recorder {
            epoch: self.epoch,
            ids: Arc::clone(&self.ids),
            spans: Vec::new(),
        }
    }

    /// A fresh span id, unique across forked recorders.
    pub fn next_id(&self) -> u64 {
        // Relaxed: the counter only has to hand out distinct values.
        self.ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub fn open(&mut self, name: &'static str, parent: Option<u64>, op: u64) -> Open {
        Open {
            id: self.next_id(),
            parent,
            name,
            op,
            start: self.now(),
        }
    }

    pub fn close(&mut self, open: Open) {
        let end = self.now();
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            op: open.op,
            start: open.start,
            end,
        });
    }

    /// Record a span with an explicit id and interval (a root assembled
    /// after its children, e.g. a request timed from its due time).
    pub fn push_span(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0.0, |c| union_within(c, s.start, s.end));
            s.end - s.start - covered
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self times grouped by span name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        by_name.entry(s.name).or_default().push(t);
    }
    by_name
}

/// The spans as a JSON array.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"start_s\":{},\"end_s\":{}}}",
            s.id, s.name, s.op, s.start, s.end
        );
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        // root [0, 10] has children a [1, 4] and b [3, 6] (overlapping:
        // union 5) and c [9, 12] (clipped to 1). a has child d [2, 3].
        let spans = vec![
            span(1, None, "root", 0.0, 10.0),
            span(2, Some(1), "a", 1.0, 4.0),
            span(3, Some(1), "b", 3.0, 6.0),
            span(4, Some(1), "c", 9.0, 12.0),
            span(5, Some(2), "d", 2.0, 3.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![4.0, 2.0, 3.0, 3.0, 1.0]);
        // Grandchildren do not count against the root twice.
        let by = self_times_by_name(&spans);
        assert_eq!(by["root"], vec![4.0]);
    }

    #[test]
    fn nested_child_inside_another_is_counted_once() {
        let spans = vec![
            span(1, None, "root", 0.0, 8.0),
            span(2, Some(1), "a", 1.0, 7.0),
            span(3, Some(1), "b", 2.0, 3.0),
        ];
        assert_eq!(self_times(&spans)[0], 2.0);
    }

    #[test]
    fn forked_recorders_keep_ids_unique() {
        let mut a = Recorder::new(Instant::now());
        let mut b = a.fork();
        let pa = a.open("p", None, 7);
        let c = b.open("c", Some(pa.id()), 7);
        b.close(c);
        a.close(pa);
        let mut spans = a.into_spans();
        spans.extend(b.into_spans());
        assert_ne!(spans[0].id, spans[1].id);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert!(to_json(&spans).contains("\"name\":\"c\""));
    }
}
