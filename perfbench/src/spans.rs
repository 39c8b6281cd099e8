//! In-memory span recorder for the traced run.
//!
//! A span is (name, start, end, parent, pass id), timed from outside
//! around one call into a layer's public function. Spans stay in memory
//! and are written out once, when the run ends. Counts recorded at the
//! same call sites sit beside them, keyed by (pass, name), so ratios are
//! formed from work counted where it happened.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;

/// Identifies a span so children can name it as their parent.
pub type SpanId = usize;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, Serialize)]
pub struct Span {
    pub id: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub pass: usize,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans and counts from any number of threads.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<(usize, &'static str), f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span. `f` receives the new span's id so the
    /// calls it makes can record child spans under it.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        pass: usize,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            pass,
        });
        out
    }

    /// Adds `v` to the count `name` of pass `pass`.
    pub fn count(&self, pass: usize, name: &'static str, v: f64) {
        *self
            .counts
            .lock()
            .expect("count map poisoned")
            .entry((pass, name))
            .or_insert(0.0) += v;
    }

    /// Every span and count recorded so far.
    pub fn finish(self) -> (Vec<Span>, BTreeMap<(usize, &'static str), f64>) {
        (
            self.spans.into_inner().expect("span list poisoned"),
            self.counts.into_inner().expect("count map poisoned"),
        )
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
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

/// Self time of every span, in span order: its duration minus the part
/// of its interval that its direct children cover. Children running in
/// parallel on other threads overlap, so their union is subtracted, not
/// their sum; self time is never negative.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Per-pass totals of self time (seconds) for each span name.
pub fn self_seconds_by_pass(spans: &[Span]) -> BTreeMap<(usize, &'static str), f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry((s.pass, s.name)).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

/// Per-pass totals of wall duration (seconds) for each span name.
pub fn wall_seconds_by_pass(spans: &[Span]) -> BTreeMap<(usize, &'static str), f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry((s.pass, s.name)).or_insert(0.0) += s.duration_ns() as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            id,
            name: "t",
            start_ns,
            end_ns,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent [0, 100]; children overlap ([10, 30] and [20, 50]) and
        // one runs past the parent's end ([90, 120], clipped to 10 ns).
        // Covered: [10, 50] + [90, 100] = 50 ns, so self = 50 ns.
        let spans = vec![
            span(0, 0, 100, None),
            span(1, 10, 30, Some(0)),
            span(2, 20, 50, Some(0)),
            span(3, 90, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 30, 30]);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = vec![
            span(0, 0, 100, None),
            span(1, 0, 60, Some(0)),
            span(2, 0, 40, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn parallel_children_covering_the_parent_leave_no_self_time() {
        let spans = vec![
            span(0, 0, 100, None),
            span(1, 0, 100, Some(0)),
            span(2, 0, 100, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn tracer_records_nesting_and_counts() {
        let tracer = Tracer::default();
        tracer.span("outer", None, 3, |outer| {
            tracer.span("inner", Some(outer), 3, |_| ());
            tracer.count(3, "items", 2.0);
            tracer.count(3, "items", 1.0);
        });
        let (spans, counts) = tracer.finish();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(counts[&(3, "items")], 3.0);
        let by_pass = self_seconds_by_pass(&spans);
        assert!(by_pass[&(3, "outer")] <= wall_seconds_by_pass(&spans)[&(3, "outer")]);
    }
}
