//! Streaming run telemetry: per-packet bottleneck events and per-tick
//! AQM control-state snapshots.
//!
//! The original tracer buffered every event in a `Vec`, costing memory
//! proportional to the packet count — so it stayed off for exactly the
//! long runs where packet-level evidence matters. This module replaces it
//! with a [`TraceSink`] trait the simulator streams into:
//!
//! * [`MemorySink`] — a bounded in-memory buffer for tests and the
//!   benchmark's sink layer (the old `Trace` behaviour);
//! * [`JsonlSink`] / [`CsvSink`] — line-oriented writers over any
//!   [`std::io::Write`], for exporting full runs at O(1) memory;
//! * [`CountingSink`] — per-flow event totals via [`TraceCounts`], the
//!   same counters [`crate::sim::SimCore`] keeps always-on.
//!
//! Sinks are pure observers: they never touch the RNG or the queue, so an
//! attached sink cannot perturb a run — a traced simulation is
//! bit-identical to an untraced one (asserted by the determinism tests).

use crate::aqm::AqmState;
use crate::packet::{Ecn, FlowId};
use crate::textbuf::{put, text, Put};
use pi2_simcore::{ckpt_fields, Duration, Time};
use std::cell::RefCell;
use std::io::{self, Write};
use std::marker::PhantomData;
use std::rc::Rc;

/// One traced bottleneck event.
///
/// ## Event contract
///
/// * Every admitted packet produces exactly one `Enqueue`, every departure
///   exactly one `Dequeue`, and every AQM/overflow discard exactly one
///   `Drop` (a dropped packet produces no `Enqueue` and no `Dequeue`).
/// * A CE-marked admission is reported as a `Mark` **immediately followed
///   by** an `Enqueue` (with the ECN field already CE) for the same
///   packet. The `Mark` annotates the admission, it is not a second
///   admission: consumers counting admissions must count `Enqueue` events
///   only — counting `Mark` as well double-counts marked packets.
///   [`TraceCounts`] implements this contract.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// Packet admitted to the queue.
    Enqueue {
        /// When.
        t: Time,
        /// Owning flow.
        flow: FlowId,
        /// Sequence number.
        seq: u64,
        /// ECN field at admission (post-marking).
        ecn: Ecn,
    },
    /// Packet CE-marked on admission (also reported as an Enqueue; see the
    /// event contract above).
    Mark {
        /// When.
        t: Time,
        /// Owning flow.
        flow: FlowId,
        /// Sequence number.
        seq: u64,
        /// The probability that produced the mark.
        prob: f64,
    },
    /// Packet dropped (AQM decision or buffer overflow).
    Drop {
        /// When.
        t: Time,
        /// Owning flow.
        flow: FlowId,
        /// Sequence number.
        seq: u64,
        /// The probability that produced the drop (1.0 for overflow).
        prob: f64,
    },
    /// Packet finished transmission.
    Dequeue {
        /// When.
        t: Time,
        /// Owning flow.
        flow: FlowId,
        /// Sequence number.
        seq: u64,
        /// Queueing + serialization time.
        sojourn: Duration,
    },
}

impl TraceEvent {
    /// What every variant carries: timestamp, owning flow, sequence number.
    fn ids(&self) -> (Time, FlowId, u64) {
        match *self {
            TraceEvent::Enqueue { t, flow, seq, .. }
            | TraceEvent::Mark { t, flow, seq, .. }
            | TraceEvent::Drop { t, flow, seq, .. }
            | TraceEvent::Dequeue { t, flow, seq, .. } => (t, flow, seq),
        }
    }

    /// The event's timestamp.
    pub fn time(&self) -> Time {
        self.ids().0
    }

    /// The owning flow.
    pub fn flow(&self) -> FlowId {
        self.ids().1
    }

    /// The event's tag in the JSONL `ev` field and the CSV `event` column.
    fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Enqueue { .. } => "enq",
            TraceEvent::Mark { .. } => "mark",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::Dequeue { .. } => "deq",
        }
    }

    /// Append the event as one JSON object, no trailing newline. See
    /// `EXPERIMENTS.md` for the schema; floats use Rust's
    /// shortest-roundtrip formatting, so the output is deterministic and
    /// parses back exactly.
    pub fn write_jsonl(&self, buf: &mut Vec<u8>) {
        let (t, flow, seq) = self.ids();
        put!(buf, "{\"ev\":\"", self.kind(), "\",\"t_ns\":", t.as_nanos());
        put!(buf, ",\"flow\":", u64::from(flow.0), ",\"seq\":", seq);
        match *self {
            TraceEvent::Enqueue { ecn, .. } => put!(buf, ",\"ecn\":\"", ecn.name(), "\"}"),
            TraceEvent::Mark { prob, .. } | TraceEvent::Drop { prob, .. } => {
                put!(buf, ",\"prob\":", prob, "}")
            }
            TraceEvent::Dequeue { sojourn, .. } => put!(buf, ",\"sojourn_ns\":", sojourn, "}"),
        }
    }

    /// [`TraceEvent::write_jsonl`] as a `String`.
    pub fn jsonl(&self) -> String {
        text(|buf| self.write_jsonl(buf))
    }

    /// Append the event as one CSV row matching [`CSV_HEADER`], no
    /// trailing newline.
    pub fn write_csv(&self, buf: &mut Vec<u8>) {
        let (t, flow, seq) = self.ids();
        put!(buf, self.kind(), ",", t.as_nanos(), ",", u64::from(flow.0), ",", seq);
        // Fifteen columns: each arm fills its own and leaves the rest blank.
        match *self {
            TraceEvent::Enqueue { ecn, .. } => put!(buf, ",", ecn.name(), ",,,,,,,,,,"),
            TraceEvent::Mark { prob, .. } | TraceEvent::Drop { prob, .. } => {
                put!(buf, ",,", prob, ",,,,,,,,,")
            }
            TraceEvent::Dequeue { sojourn, .. } => put!(buf, ",,,", sojourn, ",,,,,,,,"),
        }
    }

    /// [`TraceEvent::write_csv`] as a `String`.
    pub fn csv(&self) -> String {
        text(|buf| self.write_csv(buf))
    }
}

/// The column header shared by every [`CsvSink`] row (packet events leave
/// the AQM columns blank and vice versa).
pub const CSV_HEADER: &str = "event,t_ns,flow,seq,ecn,prob,sojourn_ns,p_prime,aqm_prob,\
                              scalable_prob,alpha_term,beta_term,burst_ns,est_rate_Bps,qdelay_ns";

/// Quote one CSV field per RFC 4180: a field containing a comma, a double
/// quote, or a line break is wrapped in double quotes with embedded quotes
/// doubled; anything else passes through unchanged. Every free-text label
/// column (scenario names, flow labels) must go through this — an
/// unescaped comma silently shifts every column after it.
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        s.to_string()
    }
}

/// The snapshot's serialized fields: JSONL key and value, in the order
/// of the [`CSV_HEADER`] columns they fill.
fn aqm_fields(st: &AqmState) -> [(&'static str, &dyn Put); 8] {
    [
        ("p_prime", &st.p_prime),
        ("prob", &st.prob),
        ("scalable_prob", &st.scalable_prob),
        ("alpha_term", &st.alpha_term),
        ("beta_term", &st.beta_term),
        ("burst_ns", &st.burst_allowance),
        ("est_rate_Bps", &st.est_rate_bytes_per_sec),
        ("qdelay_ns", &st.qdelay),
    ]
}

/// Append the `"ev":"aqm"` JSONL line for a control-state snapshot at `t`.
pub fn write_aqm_state_jsonl(t: Time, st: &AqmState, buf: &mut Vec<u8>) {
    put!(buf, "{\"ev\":\"aqm\",\"t_ns\":", t.as_nanos());
    for (key, value) in aqm_fields(st) {
        put!(buf, ",\"", key, "\":");
        value.put(buf);
    }
    put!(buf, "}");
}

/// [`write_aqm_state_jsonl`] as a `String`.
pub fn aqm_state_jsonl(t: Time, st: &AqmState) -> String {
    text(|buf| write_aqm_state_jsonl(t, st, buf))
}

/// Append the `aqm` CSV row for a control-state snapshot at `t`.
pub fn write_aqm_state_csv(t: Time, st: &AqmState, buf: &mut Vec<u8>) {
    put!(buf, "aqm,", t.as_nanos(), ",,,,,");
    for (_, value) in aqm_fields(st) {
        put!(buf, ",");
        value.put(buf);
    }
}

/// [`write_aqm_state_csv`] as a `String`.
pub fn aqm_state_csv(t: Time, st: &AqmState) -> String {
    text(|buf| write_aqm_state_csv(t, st, buf))
}

/// A consumer of the simulator's telemetry stream.
///
/// Every hop runs the same code and emits the same events; the hooks
/// differ only in which hop they carry. The simulator calls
/// [`TraceSink::on_event`] for every packet event at hop 0 (the primary
/// bottleneck) and [`TraceSink::on_aqm_state`] at each of its AQM update
/// ticks, and the `on_hop_*` pair for the same things at every other
/// hop, all in simulation order. Implementations must be pure observers
/// — they see the stream, they cannot influence the run.
pub trait TraceSink {
    /// A packet event occurred at hop 0.
    fn on_event(&mut self, ev: &TraceEvent);

    /// Hop 0's periodic AQM update ran; `state` is its post-update
    /// control state. Default: ignore.
    fn on_aqm_state(&mut self, t: Time, state: &AqmState) {
        let _ = (t, state);
    }

    /// A packet event occurred at a hop other than the primary bottleneck
    /// (`hop >= 1`). Default: ignore — line-oriented sinks stay pinned to
    /// the hop-0 stream their golden files cover, while sinks that follow
    /// the whole network (the invariant auditor,
    /// [`crate::perfetto::PerfettoSink`]'s per-hop tracks) override it.
    fn on_hop_event(&mut self, hop: u32, ev: &TraceEvent) {
        let _ = (hop, ev);
    }

    /// The periodic controller of a hop other than the primary bottleneck
    /// ran (`hop >= 1`); `state` is its post-update control state.
    /// Default: ignore.
    fn on_hop_aqm_state(&mut self, hop: u32, t: Time, state: &AqmState) {
        let _ = (hop, t, state);
    }

    /// Flush any buffered output (file-backed sinks). Reports the first
    /// write error encountered since the last flush.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A shared handle to a sink: lets the caller keep reading a sink that
/// has been handed to the simulator (single-threaded interior mutability).
impl<S: TraceSink> TraceSink for Rc<RefCell<S>> {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.borrow_mut().on_event(ev);
    }
    fn on_aqm_state(&mut self, t: Time, state: &AqmState) {
        self.borrow_mut().on_aqm_state(t, state);
    }
    fn on_hop_event(&mut self, hop: u32, ev: &TraceEvent) {
        self.borrow_mut().on_hop_event(hop, ev);
    }
    fn on_hop_aqm_state(&mut self, hop: u32, t: Time, state: &AqmState) {
        self.borrow_mut().on_hop_aqm_state(hop, t, state);
    }
    fn flush(&mut self) -> io::Result<()> {
        self.borrow_mut().flush()
    }
}

/// Per-flow event totals, O(1) memory per flow.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowCounts {
    /// Packets admitted to the queue (marked admissions count once —
    /// see the [`TraceEvent`] contract).
    pub enqueued: u64,
    /// Packets CE-marked on admission.
    pub marked: u64,
    /// Packets dropped (AQM decision or overflow).
    pub dropped: u64,
    /// Packets that completed transmission.
    pub dequeued: u64,
}

ckpt_fields!(FlowCounts { enqueued, marked, dropped, dequeued });

impl FlowCounts {
    fn add(&mut self, other: &FlowCounts) {
        self.enqueued += other.enqueued;
        self.marked += other.marked;
        self.dropped += other.dropped;
        self.dequeued += other.dequeued;
    }
}

/// Always-on per-flow event counters.
///
/// [`crate::sim::SimCore`] keeps one of these regardless of whether any
/// sink is attached — plain integer increments, cheap enough to never
/// turn off. The same totals are reachable through the sink interface via
/// [`CountingSink`], which is how exported traces are cross-checked
/// against the live run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceCounts {
    flows: Vec<FlowCounts>,
    /// Number of AQM update ticks observed.
    pub aqm_updates: u64,
}

ckpt_fields!(TraceCounts { flows, aqm_updates });

impl TraceCounts {
    /// An empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, flow: FlowId) -> &mut FlowCounts {
        let idx = flow.idx();
        if idx >= self.flows.len() {
            self.flows.resize(idx + 1, FlowCounts::default());
        }
        &mut self.flows[idx]
    }

    /// Count an admission.
    pub fn note_enqueue(&mut self, flow: FlowId) {
        self.ensure(flow).enqueued += 1;
    }

    /// Count a CE mark (the accompanying admission is counted separately
    /// by [`TraceCounts::note_enqueue`]).
    pub fn note_mark(&mut self, flow: FlowId) {
        self.ensure(flow).marked += 1;
    }

    /// Count a drop.
    pub fn note_drop(&mut self, flow: FlowId) {
        self.ensure(flow).dropped += 1;
    }

    /// Count a departure.
    pub fn note_dequeue(&mut self, flow: FlowId) {
        self.ensure(flow).dequeued += 1;
    }

    /// Count an AQM update tick.
    pub fn note_aqm_update(&mut self) {
        self.aqm_updates += 1;
    }

    /// Count one trace event, honouring the Mark⇒Enqueue contract: a
    /// `Mark` increments only `marked` (its admission arrives as the
    /// following `Enqueue` event).
    pub fn count(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::Enqueue { flow, .. } => self.note_enqueue(*flow),
            TraceEvent::Mark { flow, .. } => self.note_mark(*flow),
            TraceEvent::Drop { flow, .. } => self.note_drop(*flow),
            TraceEvent::Dequeue { flow, .. } => self.note_dequeue(*flow),
        }
    }

    /// This flow's totals (zero for flows never seen).
    pub fn flow(&self, flow: FlowId) -> FlowCounts {
        self.flows.get(flow.idx()).copied().unwrap_or_default()
    }

    /// Per-flow totals, indexed by [`FlowId`]; flows with no events yet
    /// may be absent from the tail.
    pub fn flows(&self) -> &[FlowCounts] {
        &self.flows
    }

    /// Totals summed over all flows.
    pub fn totals(&self) -> FlowCounts {
        let mut sum = FlowCounts::default();
        for f in &self.flows {
            sum.add(f);
        }
        sum
    }
}

/// A sink that only counts (the streaming face of [`TraceCounts`]).
#[derive(Clone, Debug, Default)]
pub struct CountingSink {
    /// The running totals.
    pub counts: TraceCounts,
}

impl CountingSink {
    /// A sink with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for CountingSink {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.counts.count(ev);
    }
    fn on_aqm_state(&mut self, _t: Time, _state: &AqmState) {
        self.counts.note_aqm_update();
    }
}

/// A bounded in-memory sink (recording stops at capacity, it never
/// evicts — the head of a run is usually what debugging needs).
#[derive(Clone, Debug)]
pub struct MemorySink {
    events: Vec<TraceEvent>,
    aqm_states: Vec<(Time, AqmState)>,
    capacity: usize,
}

impl MemorySink {
    /// A sink holding at most `capacity` events (and as many AQM-state
    /// snapshots).
    pub fn new(capacity: usize) -> Self {
        MemorySink {
            events: Vec::new(),
            aqm_states: Vec::new(),
            capacity,
        }
    }

    /// A sink with no bound (tests on small scenarios).
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The recorded `(tick time, state)` AQM snapshots, in order.
    pub fn aqm_states(&self) -> &[(Time, AqmState)] {
        &self.aqm_states
    }
}

impl TraceSink for MemorySink {
    fn on_event(&mut self, ev: &TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(*ev);
        }
    }
    fn on_aqm_state(&mut self, t: Time, state: &AqmState) {
        if self.aqm_states.len() < self.capacity {
            self.aqm_states.push((t, *state));
        }
    }
}

/// How a [`LineSink`] renders the stream: an optional header row, and
/// the writers of one line (no trailing newline) per packet event and per
/// AQM snapshot.
pub trait LineFormat {
    /// Written as the first line on construction, if any.
    const HEADER: Option<&'static str>;
    /// Appends one packet event.
    const EVENT: fn(&TraceEvent, &mut Vec<u8>);
    /// Appends one control-state snapshot.
    const AQM_STATE: fn(Time, &AqmState, &mut Vec<u8>);
}

/// One JSON object per line (the [`JsonlSink`] format).
#[derive(Debug)]
pub struct Jsonl;

impl LineFormat for Jsonl {
    const HEADER: Option<&'static str> = None;
    const EVENT: fn(&TraceEvent, &mut Vec<u8>) = TraceEvent::write_jsonl;
    const AQM_STATE: fn(Time, &AqmState, &mut Vec<u8>) = write_aqm_state_jsonl;
}

/// One table under [`CSV_HEADER`] (the [`CsvSink`] format); packet events
/// and AQM snapshots share it, blank where a column does not apply.
#[derive(Debug)]
pub struct Csv;

impl LineFormat for Csv {
    const HEADER: Option<&'static str> = Some(CSV_HEADER);
    const EVENT: fn(&TraceEvent, &mut Vec<u8>) = TraceEvent::write_csv;
    const AQM_STATE: fn(Time, &AqmState, &mut Vec<u8>) = write_aqm_state_csv;
}

/// A streaming line writer over any [`Write`]: packet events and AQM
/// snapshots interleaved in simulation order, one line each, rendered by
/// `F`. Every line is built in one buffer the sink reuses and handed to
/// the writer in one `write_all`, so a sink past its first lines never
/// allocates; wrap the writer in a [`std::io::BufWriter`] for file
/// output. Write errors are sticky and reported by [`TraceSink::flush`].
#[derive(Debug)]
pub struct LineSink<F, W: Write> {
    w: W,
    lines: u64,
    err: Option<io::Error>,
    buf: Vec<u8>,
    format: PhantomData<F>,
}

/// A streaming JSONL writer: one JSON object per line.
pub type JsonlSink<W> = LineSink<Jsonl, W>;

/// A streaming CSV writer with the [`CSV_HEADER`] columns (written on
/// construction).
pub type CsvSink<W> = LineSink<Csv, W>;

impl<F: LineFormat, W: Write> LineSink<F, W> {
    /// Stream onto `w`, writing the format's header row (if it has one)
    /// immediately.
    pub fn new(w: W) -> Self {
        let mut sink = LineSink {
            w,
            lines: 0,
            err: None,
            buf: Vec::with_capacity(256),
            format: PhantomData,
        };
        if let Some(header) = F::HEADER {
            sink.write_line(|buf| put!(buf, header));
        }
        sink
    }

    /// Lines successfully written so far (including the header).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Unwrap the underlying writer (tests reading a `Vec<u8>` back).
    pub fn into_inner(self) -> W {
        self.w
    }

    fn write_line(&mut self, line: impl FnOnce(&mut Vec<u8>)) {
        if self.err.is_some() {
            return;
        }
        self.buf.clear();
        line(&mut self.buf);
        self.buf.push(b'\n');
        match self.w.write_all(&self.buf) {
            Ok(()) => self.lines += 1,
            Err(e) => self.err = Some(e),
        }
    }
}

impl<F: LineFormat, W: Write> TraceSink for LineSink<F, W> {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.write_line(|buf| (F::EVENT)(ev, buf));
    }
    fn on_aqm_state(&mut self, t: Time, state: &AqmState) {
        self.write_line(|buf| (F::AQM_STATE)(t, state, buf));
    }
    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enq(i: u64) -> TraceEvent {
        TraceEvent::Enqueue {
            t: Time::from_millis(i),
            flow: FlowId(0),
            seq: i,
            ecn: Ecn::NotEct,
        }
    }

    #[test]
    fn memory_sink_is_bounded() {
        let mut tr = MemorySink::new(2);
        for i in 0..5 {
            tr.on_event(&enq(i));
        }
        assert_eq!(tr.events().len(), 2);
        assert_eq!(tr.events()[1].time(), Time::from_millis(1));
    }

    #[test]
    fn counting_does_not_double_count_marked_admissions() {
        // A marked admission arrives as Mark + Enqueue; the enqueue total
        // must rise by exactly one.
        let mut counts = TraceCounts::new();
        let f = FlowId(1);
        counts.count(&TraceEvent::Mark {
            t: Time::ZERO,
            flow: f,
            seq: 0,
            prob: 0.1,
        });
        counts.count(&TraceEvent::Enqueue {
            t: Time::ZERO,
            flow: f,
            seq: 0,
            ecn: Ecn::Ce,
        });
        counts.count(&TraceEvent::Enqueue {
            t: Time::ZERO,
            flow: f,
            seq: 1,
            ecn: Ecn::Ect0,
        });
        counts.count(&TraceEvent::Drop {
            t: Time::ZERO,
            flow: f,
            seq: 2,
            prob: 0.2,
        });
        counts.count(&TraceEvent::Dequeue {
            t: Time::ZERO,
            flow: f,
            seq: 0,
            sojourn: Duration::ZERO,
        });
        let c = counts.flow(f);
        assert_eq!(c.enqueued, 2, "Mark must not count as an admission");
        assert_eq!(c.marked, 1);
        assert_eq!(c.dropped, 1);
        assert_eq!(c.dequeued, 1);
        // Unseen flows read as zero.
        assert_eq!(counts.flow(FlowId(9)), FlowCounts::default());
        assert_eq!(counts.totals(), c);
    }

    #[test]
    fn counting_sink_matches_direct_counts() {
        let evs = [
            enq(0),
            TraceEvent::Mark {
                t: Time::ZERO,
                flow: FlowId(2),
                seq: 3,
                prob: 0.5,
            },
            TraceEvent::Dequeue {
                t: Time::from_millis(1),
                flow: FlowId(0),
                seq: 0,
                sojourn: Duration::from_micros(10),
            },
        ];
        let mut sink = CountingSink::new();
        let mut direct = TraceCounts::new();
        for ev in &evs {
            sink.on_event(ev);
            direct.count(ev);
        }
        sink.on_aqm_state(Time::ZERO, &AqmState::default());
        direct.note_aqm_update();
        assert_eq!(sink.counts, direct);
        assert_eq!(sink.counts.aqm_updates, 1);
    }

    #[test]
    fn jsonl_sink_emits_one_parseable_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.on_event(&enq(5));
        sink.on_event(&TraceEvent::Drop {
            t: Time::from_millis(6),
            flow: FlowId(1),
            seq: 9,
            prob: 0.0625,
        });
        sink.on_aqm_state(
            Time::from_millis(32),
            &AqmState {
                p_prime: 0.125,
                prob: 0.015625,
                ..AqmState::default()
            },
        );
        sink.flush().unwrap();
        assert_eq!(sink.lines(), 3);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"ev\":\"enq\",\"t_ns\":5000000,\"flow\":0,\"seq\":5,\"ecn\":\"NotEct\"}"
        );
        assert_eq!(
            lines[1],
            "{\"ev\":\"drop\",\"t_ns\":6000000,\"flow\":1,\"seq\":9,\"prob\":0.0625}"
        );
        assert!(lines[2].starts_with("{\"ev\":\"aqm\",\"t_ns\":32000000,\"p_prime\":0.125"));
    }

    #[test]
    fn csv_sink_has_header_and_consistent_columns() {
        let mut sink = CsvSink::new(Vec::new());
        sink.on_event(&enq(1));
        sink.on_event(&TraceEvent::Dequeue {
            t: Time::from_millis(2),
            flow: FlowId(0),
            seq: 1,
            sojourn: Duration::from_micros(1200),
        });
        sink.on_aqm_state(Time::from_millis(32), &AqmState::default());
        sink.flush().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let cols = lines[0].split(',').count();
        assert!(lines[0].starts_with("event,t_ns,flow,seq,"));
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
        assert!(lines[1].starts_with("enq,1000000,0,1,NotEct,"));
        assert!(lines[2].starts_with("deq,2000000,0,1,,,1200000,"));
        assert!(lines[3].starts_with("aqm,32000000,,,,,,0,0,0,"));
    }

    #[test]
    fn write_forms_append_and_equal_the_string_wrappers() {
        let (t, flow, seq) = (Time::from_millis(7), FlowId(3), 41);
        let events = [
            TraceEvent::Enqueue { t, flow, seq, ecn: Ecn::Ect1 },
            TraceEvent::Mark { t, flow, seq, prob: 0.1 + 0.2 },
            TraceEvent::Drop { t, flow, seq, prob: 1.0 },
            TraceEvent::Dequeue { t, flow, seq, sojourn: Duration::from_micros(-3) },
        ];
        let st = AqmState {
            p_prime: 0.125,
            burst_allowance: Duration::from_millis(100),
            ..AqmState::default()
        };
        let appended = |put: &dyn Fn(&mut Vec<u8>)| {
            let mut buf = b"prefix|".to_vec();
            put(&mut buf);
            String::from_utf8(buf).unwrap()
        };
        for ev in &events {
            assert_eq!(appended(&|b| ev.write_jsonl(b)), format!("prefix|{}", ev.jsonl()));
            assert_eq!(appended(&|b| ev.write_csv(b)), format!("prefix|{}", ev.csv()));
        }
        assert_eq!(
            appended(&|b| write_aqm_state_jsonl(t, &st, b)),
            format!("prefix|{}", aqm_state_jsonl(t, &st))
        );
        assert_eq!(
            appended(&|b| write_aqm_state_csv(t, &st, b)),
            format!("prefix|{}", aqm_state_csv(t, &st))
        );
        assert_eq!(
            events[3].jsonl(),
            "{\"ev\":\"deq\",\"t_ns\":7000000,\"flow\":3,\"seq\":41,\"sojourn_ns\":-3000}"
        );
        assert_eq!(events[1].csv(), "mark,7000000,3,41,,0.30000000000000004,,,,,,,,,");
    }

    /// Pinned, not endorsed: a non-finite value reaches the line formats
    /// as Rust prints it (the auditor is what rejects it upstream).
    #[test]
    fn non_finite_values_keep_their_display_text() {
        let drop = |prob| TraceEvent::Drop {
            t: Time::ZERO,
            flow: FlowId(0),
            seq: 0,
            prob,
        };
        assert!(drop(f64::NAN).jsonl().ends_with("\"prob\":NaN}"));
        assert!(drop(f64::INFINITY).jsonl().ends_with("\"prob\":inf}"));
        assert_eq!(drop(f64::NEG_INFINITY).csv(), "drop,0,0,0,,-inf,,,,,,,,,");
        let st = AqmState {
            alpha_term: f64::NAN,
            ..AqmState::default()
        };
        assert!(aqm_state_jsonl(Time::ZERO, &st).contains("\"alpha_term\":NaN,"));
        assert!(aqm_state_csv(Time::ZERO, &st).contains(",NaN,"));
    }

    #[test]
    fn shared_handle_lets_caller_keep_reading() {
        let mem = Rc::new(RefCell::new(MemorySink::new(10)));
        let mut handle: Box<dyn TraceSink> = Box::new(Rc::clone(&mem));
        handle.on_event(&enq(0));
        assert_eq!(mem.borrow().events().len(), 1);
    }

    #[test]
    fn csv_field_quotes_per_rfc4180() {
        assert_eq!(csv_field("pi2"), "pi2");
        assert_eq!(csv_field("rate step"), "rate step");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
        assert_eq!(csv_field(""), "");
    }

    #[test]
    fn hop_events_default_to_ignored_and_forward_through_shared_handles() {
        // A sink that only overrides the hop hooks must still satisfy the
        // trait, and the Rc<RefCell> handle must forward both hooks.
        #[derive(Default)]
        struct HopCounter {
            events: usize,
            states: usize,
        }
        impl TraceSink for HopCounter {
            fn on_event(&mut self, _ev: &TraceEvent) {}
            fn on_hop_event(&mut self, _hop: u32, _ev: &TraceEvent) {
                self.events += 1;
            }
            fn on_hop_aqm_state(&mut self, _hop: u32, _t: Time, _state: &AqmState) {
                self.states += 1;
            }
        }
        let hc = Rc::new(RefCell::new(HopCounter::default()));
        let mut handle: Box<dyn TraceSink> = Box::new(Rc::clone(&hc));
        handle.on_hop_event(1, &enq(0));
        handle.on_hop_aqm_state(2, Time::ZERO, &AqmState::default());
        assert_eq!(hc.borrow().events, 1);
        assert_eq!(hc.borrow().states, 1);

        // Line-oriented sinks ignore hop traffic entirely: their output
        // stays pinned to the hop-0 stream the golden files cover.
        let mut jsonl = JsonlSink::new(Vec::new());
        jsonl.on_hop_event(1, &enq(0));
        jsonl.on_hop_aqm_state(1, Time::ZERO, &AqmState::default());
        assert_eq!(jsonl.lines(), 0);
    }
}
