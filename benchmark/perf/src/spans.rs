//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `(name, start, end, parent, op id)`. Spans stay in memory
//! while the run is measured and are written as JSON lines when it ends.
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover, so nested layers (a storage append
//! inside a protocol step) are not counted twice.

use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder's
/// epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    pub name: &'static str,
    /// The 8-byte identifier carried in the op's payload (0 = not tied
    /// to one op).
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A shared, append-only span store. Cloning shares the store; each
/// replica thread holds a clone and appends under an uncontended lock.
#[derive(Clone)]
pub struct Recorder {
    epoch: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
    next_id: Arc<std::sync::atomic::AtomicU64>,
    /// The span enclosing whatever runs now, for single-threaded callers
    /// that nest layers (the replay); 0 on the live path.
    ambient: Arc<std::sync::atomic::AtomicU64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::new())),
            next_id: Arc::new(std::sync::atomic::AtomicU64::new(1)),
            ambient: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `at` on the recorder's clock (0 for instants before its epoch).
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id, for a parent whose children must name it before
    /// it ends.
    pub fn fresh_id(&self) -> u64 {
        // Relaxed: the counter publishes nothing but itself.
        self.next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// The id wrapped layers use as their parent (0 = none set).
    pub fn ambient(&self) -> u64 {
        // Relaxed: set and read by the one thread that nests the calls.
        self.ambient.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Times `f` as one span that is the ambient parent while it runs.
    pub fn time_as_parent<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.fresh_id();
        let outer = self.ambient.swap(id, std::sync::atomic::Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.ambient
            .store(outer, std::sync::atomic::Ordering::Relaxed);
        self.push(Span {
            id,
            parent: outer,
            name,
            op,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a finished span under a caller-chosen id.
    pub fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span store lock (a recording thread panicked)")
            .push(span);
    }

    /// Times `f` as one span and returns its result.
    pub fn time<R>(&self, name: &'static str, parent: u64, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.fresh_id();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every span recorded so far, in recording order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store lock (a recording thread panicked)")
            .clone()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Overlapping children (the four replicas executing one
/// request at once) are counted once, and a child reaching outside its
/// parent is clipped to the parent.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map(|kids| covered_ns(kids, s.start_ns, s.end_ns))
                .unwrap_or(0);
            (s.id, s.duration_ns() - covered.min(s.duration_ns()))
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Sums count, duration and self time by span name.
pub fn totals_by_name(spans: &[Span]) -> HashMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: HashMap<&'static str, NameTotal> = HashMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += selfs[&s.id];
    }
    out
}

/// Durations of the spans called `name`, nanoseconds, ascending.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Writes the spans as JSON lines, one object per span.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 7,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = vec![
            span(1, 0, "step", 0, 100),
            span(2, 1, "execute", 10, 30),
            span(3, 1, "append", 50, 60),
            span(4, 3, "write", 52, 58),
        ];
        let selfs = self_times(&spans);
        assert_eq!(
            selfs[&1],
            100 - 20 - 10,
            "grandchildren are not subtracted twice"
        );
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 10 - 6);
        assert_eq!(selfs[&4], 6);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_parent() {
        let spans = vec![
            span(1, 0, "request", 100, 200),
            // Four replicas executing the same op at overlapping times.
            span(2, 1, "execute", 120, 150),
            span(3, 1, "execute", 130, 160),
            span(4, 1, "execute", 140, 145),
            // Starts before and ends after the parent.
            span(5, 1, "execute", 190, 260),
            span(6, 1, "execute", 50, 105),
        ];
        let selfs = self_times(&spans);
        // Covered: [100,105) + [120,160) + [190,200) = 5 + 40 + 10.
        assert_eq!(selfs[&1], 100 - 55);
        // A child that covers the whole parent leaves zero, not underflow.
        let spans = vec![span(1, 0, "p", 10, 20), span(2, 1, "c", 0, 40)];
        assert_eq!(self_times(&spans)[&1], 0);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span(1, 0, "step", 0, 100),
            span(2, 1, "execute", 10, 30),
            span(3, 0, "step", 200, 250),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["step"],
            NameTotal {
                count: 2,
                total_ns: 150,
                self_ns: 130
            }
        );
        assert_eq!(durations_of(&spans, "step"), vec![50.0, 100.0]);
    }

    #[test]
    fn recorder_times_and_writes_json_lines() {
        let rec = Recorder::new();
        let parent = rec.fresh_id();
        let v = rec.time("inner", parent, 9, || 5);
        assert_eq!(v, 5);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            (spans[0].parent, spans[0].op, spans[0].name),
            (parent, 9, "inner")
        );
        assert!(spans[0].end_ns >= spans[0].start_ns);
        let mut buf = Vec::new();
        write_jsonl(&spans, &mut buf).expect("write");
        let line = String::from_utf8(buf).expect("utf8");
        let doc = crate::json::Json::parse(line.trim()).expect("each line is JSON");
        assert_eq!(doc.get("name").and_then(|n| n.as_str()), Some("inner"));
        assert_eq!(doc.get("op").and_then(|n| n.as_f64()), Some(9.0));
    }
}
