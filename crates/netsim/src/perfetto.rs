//! Chrome trace-event JSON export — timelines the Perfetto UI opens
//! directly (<https://ui.perfetto.dev>, fully offline).
//!
//! [`PerfettoSink`] maps the simulator's telemetry stream onto tracks:
//!
//! * one *process* per hop (`pid = hop + 1`) carrying counter tracks for
//!   queue depth, per-packet sojourn, and — from the [`AqmState`] probes —
//!   queue delay and the controller's probabilities (`p'`, `p`, scalable);
//! * one *process* for flows (`pid = 100`), with a thread per flow whose
//!   lifetime renders as a single slice and whose drops/marks render as
//!   instant events on that thread's track;
//! * a global annotation track for scheduled disturbances and audit
//!   annotations via [`PerfettoSink::instant`].
//!
//! The output is the legacy JSON trace format (`{"traceEvents":[...]}`),
//! chosen over protobuf deliberately: it needs no dependency, diffs in
//! code review, and Perfetto's importer treats it as a first-class input.
//! Timestamps are microseconds; we render them from the simulator's
//! nanosecond clock with integer math only, so the file is byte-for-byte
//! deterministic across runs and platforms.
//!
//! Like every [`TraceSink`], the sink is a pure observer: attaching it
//! cannot perturb a run, and a traced simulation stays bit-identical to an
//! untraced one.

use crate::aqm::AqmState;
use crate::textbuf::{put, text, Fixed, Put};
use crate::trace::{TraceEvent, TraceSink};
use pi2_simcore::{Duration, Time};
use std::io::{self, Write};

/// The synthetic process id hosting all per-flow tracks. Hop processes
/// occupy `1..=hops`, so any hop count below 99 stays clear of it.
pub const FLOW_PID: u32 = 100;

/// A nanosecond timestamp as microseconds with a fixed three-digit
/// fraction, integer math only (no float rounding → deterministic output).
fn ts_us(ns: u64) -> Fixed<3> {
    Fixed(ns)
}

/// A nanosecond span as milliseconds with a fixed six-digit fraction
/// (negative spans clamp to zero).
fn ms(span: Duration) -> Fixed<6> {
    Fixed(span.as_nanos().max(0) as u64)
}

/// A finite JSON number; non-finite values clamp to 0 (Perfetto rejects
/// `null` samples in counter tracks, and the controllers never legitimately
/// produce them).
fn num(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Escape a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// First/last event timestamps observed for one flow (drives the lifetime
/// slice emitted at close).
#[derive(Clone, Copy)]
struct FlowSpan {
    first_ns: u64,
    last_ns: u64,
}

/// Streaming Chrome-JSON trace writer (see the module docs for the track
/// schema). Every record is built in one buffer the sink reuses and handed
/// to the writer in one `write_all`, so a sink past its first records
/// never allocates. Write errors are sticky and reported by
/// [`TraceSink::flush`]; the first `flush` finalizes the file (flow
/// lifetime slices, track metadata, closing bracket) and further events
/// are ignored.
pub struct PerfettoSink<W: Write> {
    w: W,
    err: Option<io::Error>,
    records: u64,
    closed: bool,
    buf: Vec<u8>,
    /// Running queue depth per hop (admissions minus departures), the
    /// source of the `queue_depth_pkts` counter track.
    depth: Vec<i64>,
    /// Per-flow first/last event times, indexed by `FlowId`.
    spans: Vec<Option<FlowSpan>>,
}

impl<W: Write> PerfettoSink<W> {
    /// Stream onto `w`, writing the JSON preamble immediately.
    pub fn new(w: W) -> Self {
        let mut sink = PerfettoSink {
            w,
            err: None,
            records: 0,
            closed: false,
            buf: Vec::with_capacity(256),
            depth: Vec::new(),
            spans: Vec::new(),
        };
        if let Err(e) = sink.w.write_all(b"{\"traceEvents\":[") {
            sink.err = Some(e);
        }
        sink
    }

    /// Trace records successfully written so far (events + metadata).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Unwrap the underlying writer (tests reading a `Vec<u8>` back).
    pub fn into_inner(self) -> W {
        self.w
    }

    /// Write one trace record: the separator from the previous record,
    /// then whatever `body` appends.
    fn record(&mut self, body: impl FnOnce(&mut Vec<u8>)) {
        if self.err.is_some() || self.closed {
            return;
        }
        self.buf.clear();
        put!(&mut self.buf, if self.records == 0 { "\n" } else { ",\n" });
        body(&mut self.buf);
        match self.w.write_all(&self.buf) {
            Ok(()) => self.records += 1,
            Err(e) => self.err = Some(e),
        }
    }

    /// One sample on the counter track `name` (a literal that needs no
    /// JSON escaping) of the hop's process.
    fn counter(&mut self, hop: u32, t_ns: u64, name: &str, value: impl Put) {
        let pid = u64::from(hop) + 1;
        self.record(|buf| {
            put!(buf, "{\"ph\":\"C\",\"pid\":", pid, ",\"tid\":0,\"ts\":", ts_us(t_ns));
            put!(buf, ",\"name\":\"", name, "\",\"args\":{\"value\":", value, "}}");
        });
    }

    /// A `mark` or `drop` instant (`name`, a literal) on the flow's track.
    fn flow_instant(&mut self, flow: u32, t_ns: u64, name: &str, hop: u32, prob: f64) {
        let (pid, tid) = (u64::from(FLOW_PID), u64::from(flow) + 1);
        self.record(|buf| {
            put!(buf, "{\"ph\":\"i\",\"s\":\"t\",\"pid\":", pid, ",\"tid\":", tid);
            put!(buf, ",\"ts\":", ts_us(t_ns), ",\"name\":\"", name);
            put!(buf, "\",\"args\":{\"hop\":", u64::from(hop), ",\"prob\":", num(prob), "}}");
        });
    }

    /// Emit a global instant event (scope `g`) on the annotation track —
    /// scheduled disturbances, audit annotations. Callers must emit
    /// same-named instants in non-decreasing time order to keep the
    /// per-track monotonicity guarantee.
    pub fn instant(&mut self, t: Time, name: &str) {
        let name = esc(name);
        self.record(|buf| {
            put!(buf, "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"ts\":", ts_us(t.as_nanos()));
            put!(buf, ",\"name\":\"", name.as_str(), "\"}");
        });
    }

    /// A `process_name` / `thread_name` record naming a track (written
    /// at finalization only, so it may allocate).
    fn metadata(&mut self, pid: u32, tid: usize, kind: &str, label: &str) {
        let rec = format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{kind}\",\
             \"args\":{{\"name\":\"{label}\"}}}}"
        );
        self.record(|buf| put!(buf, rec.as_str()));
    }

    fn touch_flow(&mut self, flow: u32, t_ns: u64) {
        let idx = flow as usize;
        if idx >= self.spans.len() {
            self.spans.resize(idx + 1, None);
        }
        let first_seen = FlowSpan { first_ns: t_ns, last_ns: t_ns };
        self.spans[idx].get_or_insert(first_seen).last_ns = t_ns;
    }

    fn depth_at(&mut self, hop: u32, delta: i64) -> i64 {
        let idx = hop as usize;
        if idx >= self.depth.len() {
            self.depth.resize(idx + 1, 0);
        }
        self.depth[idx] += delta;
        self.depth[idx]
    }

    /// Finalize the trace: per-flow lifetime slices, process/thread
    /// metadata, the closing bracket. Idempotent — later calls (and
    /// [`TraceSink::flush`]) are no-ops beyond flushing the writer.
    pub fn finish(&mut self) -> io::Result<()> {
        if !self.closed {
            for idx in 0..self.spans.len() {
                let Some(span) = self.spans[idx] else { continue };
                let ts = text(|buf| put!(buf, ts_us(span.first_ns)));
                let dur = text(|buf| put!(buf, ts_us(span.last_ns - span.first_ns)));
                let rec = format!(
                    "{{\"ph\":\"X\",\"pid\":{FLOW_PID},\"tid\":{},\"ts\":{ts},\"dur\":{dur},\
                     \"name\":\"flow {idx}\"}}",
                    idx + 1
                );
                self.record(|buf| put!(buf, rec.as_str()));
            }
            for hop in 0..self.depth.len() {
                let label = if hop == 0 {
                    "hop 0 (bottleneck)".to_string()
                } else {
                    format!("hop {hop}")
                };
                self.metadata(hop as u32 + 1, 0, "process_name", &label);
            }
            if !self.spans.is_empty() {
                self.metadata(FLOW_PID, 0, "process_name", "flows");
                for idx in 0..self.spans.len() {
                    if self.spans[idx].is_some() {
                        self.metadata(FLOW_PID, idx + 1, "thread_name", &format!("flow {idx}"));
                    }
                }
            }
            if self.err.is_none() {
                if let Err(e) = self.w.write_all(b"\n]}\n") {
                    self.err = Some(e);
                }
            }
            self.closed = true;
        }
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.w.flush()
    }
}

/// Every hop renders the same way: hop 0's hooks are the `on_hop_*` pair
/// at `hop` = 0.
impl<W: Write> TraceSink for PerfettoSink<W> {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.on_hop_event(0, ev);
    }
    fn on_aqm_state(&mut self, t: Time, state: &AqmState) {
        self.on_hop_aqm_state(0, t, state);
    }

    fn on_hop_event(&mut self, hop: u32, ev: &TraceEvent) {
        let t_ns = ev.time().as_nanos();
        match *ev {
            TraceEvent::Enqueue { .. } => {
                let depth = self.depth_at(hop, 1);
                self.counter(hop, t_ns, "queue_depth_pkts", depth);
            }
            TraceEvent::Dequeue { sojourn, .. } => {
                let depth = self.depth_at(hop, -1);
                self.counter(hop, t_ns, "queue_depth_pkts", depth);
                self.counter(hop, t_ns, "sojourn_ms", ms(sojourn));
            }
            TraceEvent::Mark { flow, prob, .. } => {
                self.flow_instant(flow.0, t_ns, "mark", hop, prob);
            }
            TraceEvent::Drop { flow, prob, .. } => {
                self.flow_instant(flow.0, t_ns, "drop", hop, prob);
            }
        }
        self.touch_flow(ev.flow().0, t_ns);
    }

    fn on_hop_aqm_state(&mut self, hop: u32, t: Time, st: &AqmState) {
        let t_ns = t.as_nanos();
        self.counter(hop, t_ns, "qdelay_ms", ms(st.qdelay));
        self.counter(hop, t_ns, "p_prime", num(st.p_prime));
        self.counter(hop, t_ns, "prob", num(st.prob));
        self.counter(hop, t_ns, "scalable_prob", num(st.scalable_prob));
    }

    fn flush(&mut self) -> io::Result<()> {
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Ecn, FlowId};

    fn events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Enqueue {
                t: Time::from_millis(1),
                flow: FlowId(0),
                seq: 0,
                ecn: Ecn::NotEct,
            },
            TraceEvent::Mark {
                t: Time::from_millis(2),
                flow: FlowId(1),
                seq: 0,
                prob: 0.25,
            },
            TraceEvent::Enqueue {
                t: Time::from_millis(2),
                flow: FlowId(1),
                seq: 0,
                ecn: Ecn::Ce,
            },
            TraceEvent::Drop {
                t: Time::from_millis(3),
                flow: FlowId(0),
                seq: 1,
                prob: 0.5,
            },
            TraceEvent::Dequeue {
                t: Time::from_millis(4),
                flow: FlowId(0),
                seq: 0,
                sojourn: Duration::from_micros(1500),
            },
        ]
    }

    #[test]
    fn emits_counters_instants_and_lifetimes() {
        let mut sink = PerfettoSink::new(Vec::new());
        for ev in events() {
            sink.on_event(&ev);
        }
        sink.on_aqm_state(Time::from_millis(16), &AqmState::default());
        sink.on_hop_event(
            2,
            &TraceEvent::Enqueue {
                t: Time::from_millis(5),
                flow: FlowId(0),
                seq: 2,
                ecn: Ecn::NotEct,
            },
        );
        sink.finish().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        // Queue-depth counters track the running enq-deq balance.
        assert!(text.contains("\"name\":\"queue_depth_pkts\",\"args\":{\"value\":2}"));
        assert!(text.contains("\"name\":\"queue_depth_pkts\",\"args\":{\"value\":1}"));
        // Drops and marks are flow-track instants.
        assert!(text.contains("\"ph\":\"i\",\"s\":\"t\",\"pid\":100,\"tid\":2,\"ts\":2000.000,\"name\":\"mark\""));
        assert!(text.contains("\"name\":\"drop\",\"args\":{\"hop\":0,\"prob\":0.5}"));
        // Sojourn + AQM-state counters land on the hop-0 process (pid 1).
        assert!(text.contains("\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":4000.000,\"name\":\"sojourn_ms\",\"args\":{\"value\":1.500000}"));
        assert!(text.contains("\"name\":\"qdelay_ms\""));
        assert!(text.contains("\"name\":\"p_prime\""));
        // The hop event opened a second hop process (pid 3 = hop 2 + 1).
        assert!(text.contains("\"ph\":\"C\",\"pid\":3,\"tid\":0"));
        assert!(text.contains("\"args\":{\"name\":\"hop 2\"}"));
        // Lifetimes close as X slices with metadata naming each flow.
        assert!(text.contains("\"ph\":\"X\",\"pid\":100,\"tid\":1,\"ts\":1000.000,\"dur\":4000.000,\"name\":\"flow 0\""));
        assert!(text.contains("\"args\":{\"name\":\"flow 1\"}"));
        assert!(text.contains("\"args\":{\"name\":\"hop 0 (bottleneck)\"}"));
    }

    #[test]
    fn finish_is_idempotent_and_closes_the_stream() {
        let mut sink = PerfettoSink::new(Vec::new());
        sink.on_event(&events()[0]);
        sink.finish().unwrap();
        let n = sink.records();
        // Events after close are ignored; finishing again adds nothing.
        sink.on_event(&events()[3]);
        sink.finish().unwrap();
        assert_eq!(sink.records(), n);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.matches("]}").count(), 1);
    }

    #[test]
    fn instants_escape_names_and_use_the_annotation_track() {
        let mut sink = PerfettoSink::new(Vec::new());
        sink.instant(Time::from_millis(30_000), "rate \"step\" 40->10");
        sink.finish().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.contains(
            "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"ts\":30000000.000,\
             \"name\":\"rate \\\"step\\\" 40->10\"}"
        ));
    }

    #[test]
    fn non_finite_samples_clamp_to_zero() {
        let mut sink = PerfettoSink::new(Vec::new());
        sink.on_event(&TraceEvent::Drop {
            t: Time::from_millis(1),
            flow: FlowId(0),
            seq: 0,
            prob: f64::NAN,
        });
        let st = AqmState {
            p_prime: f64::INFINITY,
            prob: f64::NEG_INFINITY,
            ..AqmState::default()
        };
        sink.on_aqm_state(Time::from_millis(2), &st);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.contains("\"name\":\"drop\",\"args\":{\"hop\":0,\"prob\":0}}"));
        assert!(text.contains("\"name\":\"p_prime\",\"args\":{\"value\":0}}"));
        assert!(text.contains("\"name\":\"prob\",\"args\":{\"value\":0}}"));
        assert!(!text.contains("NaN") && !text.contains("inf"));
    }

    #[test]
    fn timestamps_are_integer_exact_microseconds() {
        let ts = |ns| text(|buf| put!(buf, ts_us(ns)));
        assert_eq!(ts(0), "0.000");
        assert_eq!(ts(1), "0.001");
        assert_eq!(ts(999), "0.999");
        assert_eq!(ts(1_000), "1.000");
        assert_eq!(ts(1_234_567), "1234.567");
        let ms = |ns| text(|buf| put!(buf, ms(Duration::from_nanos(ns))));
        assert_eq!(ms(1_500_000), "1.500000");
        assert_eq!(ms(42), "0.000042");
        assert_eq!(ms(-42), "0.000000");
    }
}
