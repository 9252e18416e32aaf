//! Spans around the calls the harness makes into each layer.
//!
//! The traced pass wraps every such call in [`Tracer::span`]: name, start,
//! end, the span that caused it, and the cell it belongs to. Spans stay in
//! memory until the run ends, then go to a Chrome trace-event file and
//! into the self-time table. With the tracer off a span is a plain call.

use pi2_bench::perf::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// Handle to a recorded span, passed to the spans it causes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The parent of top-level spans.
    pub const ROOT: SpanId = SpanId(0);
}

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Clone, Debug)]
pub struct Span {
    /// Its own id (1-based; 0 is [`SpanId::ROOT`]).
    pub id: u32,
    /// Id of the span that caused it.
    pub parent: u32,
    /// The function called, as the self-time table names it.
    pub name: &'static str,
    /// Cell (or slice) index within the repetition, if any.
    pub cell: Option<u32>,
    /// Small integer naming the recording thread.
    pub tid: u32,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);
thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Relaxed);
}

impl Tracer {
    /// A tracer; when `enabled` is false every span is just its call.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span. `f` receives the span's id to hand to the
    /// spans it causes, on this or another thread.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        cell: Option<u32>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.enabled {
            return f(SpanId::ROOT);
        }
        let id = self.next_id.fetch_add(1, Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(SpanId(id));
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let span = Span {
            id,
            parent: parent.0,
            name,
            cell,
            tid: TID.with(|t| *t),
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
            .push(span);
        out
    }

    /// Every span recorded so far, in order of completion.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no span is recorded while panicking"),
        )
    }
}

/// One row of the self-time table.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the part their children cover.
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`. Children on
/// parallel threads overlap; the union counts covered time once.
fn cover_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time per span name: a span's duration minus the part of it its
/// child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let kids = children.get(&s.id).cloned().unwrap_or_default();
        let row = table.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += dur;
        row.self_ns += dur - cover_ns(kids, s.start_ns, s.end_ns);
    }
    table
}

/// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![
                ("id".to_string(), Json::Num(f64::from(s.id))),
                ("parent".to_string(), Json::Num(f64::from(s.parent))),
                ("workload".to_string(), Json::Str(workload.to_string())),
            ];
            if let Some(c) = s.cell {
                args.push(("cell".to_string(), Json::Num(f64::from(c))));
            }
            Json::Obj(vec![
                ("name".to_string(), Json::Str(s.name.to_string())),
                ("ph".to_string(), Json::Str("X".to_string())),
                ("ts".to_string(), Json::Num(s.start_ns as f64 / 1e3)),
                (
                    "dur".to_string(),
                    Json::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                ),
                ("pid".to_string(), Json::Num(1.0)),
                ("tid".to_string(), Json::Num(f64::from(s.tid))),
                ("args".to_string(), Json::Obj(args)),
            ])
        })
        .collect();
    Json::Obj(vec![("traceEvents".to_string(), Json::Arr(events))]).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            cell: None,
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span(1, 0, "rep", 0, 100),
            span(2, 1, "run", 10, 70),
            span(3, 2, "slice", 20, 40),
            span(4, 1, "summarise", 70, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["rep"],
            SelfTime {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(
            t["run"],
            SelfTime {
                count: 1,
                total_ns: 60,
                self_ns: 40
            }
        );
        assert_eq!(t["slice"].self_ns, 20);
        assert_eq!(t["summarise"].self_ns, 20);
        // Self times add up to the root's duration.
        assert_eq!(t.values().map(|r| r.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two workers under one parallel map, overlapping in time, one of
        // them running past the parent's end (clipped).
        let spans = [
            span(1, 0, "par_map", 0, 100),
            span(2, 1, "cell", 0, 60),
            span(3, 1, "cell", 40, 90),
            span(4, 1, "cell", 95, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t["par_map"].self_ns, 100 - 90 - 5);
        assert_eq!(
            t["cell"],
            SelfTime {
                count: 3,
                total_ns: 60 + 50 + 25,
                self_ns: 135
            }
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", SpanId::ROOT, None, |id| id), SpanId::ROOT);
        assert!(t.take().is_empty());
    }

    #[test]
    fn spans_nest_across_threads_and_export_as_json() {
        let t = Tracer::new(true);
        t.span("outer", SpanId::ROOT, None, |outer| {
            std::thread::scope(|s| {
                s.spawn(|| t.span("inner", outer, Some(7), |_| ()));
            });
        });
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(
            (inner.name, inner.parent, inner.cell),
            ("inner", outer.id, Some(7))
        );
        assert_ne!(inner.tid, outer.tid);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let doc = Json::parse(&chrome_trace("w", &spans)).expect("trace re-parses");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("event array");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("cell"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
    }
}
