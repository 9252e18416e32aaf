//! Streaming-telemetry integration tests: sinks are pure observers (a
//! traced run is bit-identical to an untraced one), every sink sees the
//! same stream, and a small seeded scenario matches its checked-in golden
//! trace byte for byte.

use pi2::netsim::{CountingSink, JsonlSink, MemorySink, TraceEvent};
use pi2::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn build_sim(seed: u64) -> Sim {
    let mut sim = Sim::new(
        SimConfig {
            queue: QueueConfig {
                rate_bps: 10_000_000,
                buffer_bytes: 40_000 * 1500,
            },
            seed,
            monitor: MonitorConfig::default(),
        },
        Box::new(Pi2::new(Pi2Config::default())),
    );
    for _ in 0..2 {
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(20)),
            "reno",
            Time::ZERO,
            |id| {
                Box::new(TcpSource::new(
                    id,
                    CcKind::Reno,
                    EcnSetting::NotEcn,
                    TcpConfig::default(),
                ))
            },
        );
    }
    sim
}

/// Compare `got` with `tests/golden/<file>` byte for byte, or rewrite the
/// file when `PI2_BLESS` is set.
fn check_golden(file: &str, got: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("PI2_BLESS").is_some() {
        std::fs::write(&path, got).expect("bless golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file (PI2_BLESS=1 to create)");
    // Not `assert_eq!`: a Perfetto golden is thousands of lines.
    let first = got.lines().zip(want.lines()).enumerate().find(|(_, (g, w))| g != w);
    assert!(
        got == want,
        "output diverged from golden file {path}; first differing line (got, want): {first:?}"
    );
}

/// Attaching sinks must not change the simulation: sinks never touch the
/// RNG or the event queue, so a traced run and an untraced run of the
/// same seed are the same run.
#[test]
fn sinks_do_not_perturb_the_simulation() {
    let mut plain = build_sim(3);
    plain.run_until(Time::from_secs(5));

    let mut traced = build_sim(3);
    traced
        .core
        .add_trace_sink(Box::new(MemorySink::unbounded()));
    traced.core.add_trace_sink(Box::new(CountingSink::default()));
    traced.run_until(Time::from_secs(5));

    assert_eq!(plain.core.events.popped(), traced.core.events.popped());
    assert_eq!(plain.core.counters, traced.core.counters);
    assert_eq!(plain.core.monitor.sojourn_ms, traced.core.monitor.sojourn_ms);
    for (a, b) in plain
        .core
        .monitor
        .flows
        .iter()
        .zip(&traced.core.monitor.flows)
    {
        assert_eq!(a.dequeued_bytes, b.dequeued_bytes);
        assert_eq!(a.dropped_postwarm, b.dropped_postwarm);
        assert_eq!(a.marked_postwarm, b.marked_postwarm);
    }
}

/// Every sink receives the identical stream: a JSONL sink writing to a
/// byte buffer must render exactly what a memory sink recorded.
#[test]
fn jsonl_sink_matches_memory_sink_stream() {
    let mut sim = build_sim(4);
    let jsonl = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
    let mem = Rc::new(RefCell::new(MemorySink::unbounded()));
    sim.core.add_trace_sink(Box::new(Rc::clone(&jsonl)));
    sim.core.add_trace_sink(Box::new(Rc::clone(&mem)));
    sim.run_until(Time::from_secs(3));
    sim.core.flush_trace_sinks().expect("flush");
    drop(sim.core.take_trace_sinks());

    let jsonl = Rc::try_unwrap(jsonl).expect("sole owner").into_inner();
    let mem = Rc::try_unwrap(mem).expect("sole owner").into_inner();
    let text = String::from_utf8(jsonl.into_inner()).expect("utf8");

    // Split the written stream into event lines and AQM probe lines
    // (interleaved on disk, stored separately by the memory sink).
    let mut ev_lines = Vec::new();
    let mut aqm_lines = Vec::new();
    for line in text.lines() {
        if line.starts_with("{\"ev\":\"aqm\"") {
            aqm_lines.push(line);
        } else {
            ev_lines.push(line);
        }
    }
    assert_eq!(ev_lines.len(), mem.events().len());
    for (line, ev) in ev_lines.iter().zip(mem.events()) {
        assert_eq!(*line, ev.jsonl());
    }
    assert_eq!(aqm_lines.len(), mem.aqm_states().len());
    for (line, (t, st)) in aqm_lines.iter().zip(mem.aqm_states()) {
        assert_eq!(*line, pi2::netsim::trace::aqm_state_jsonl(*t, st));
    }
}

/// The in-memory trace agrees with the always-on counters, event by
/// event.
#[test]
fn trace_counting_sink_and_monitor_agree() {
    let mut sim = build_sim(5);
    let mem = Rc::new(RefCell::new(MemorySink::unbounded()));
    sim.core.add_trace_sink(Box::new(Rc::clone(&mem)));
    sim.run_until(Time::from_secs(5));

    let mut marks = 0u64;
    let mut drops = 0u64;
    let mut enqs = 0u64;
    let mut deqs = 0u64;
    for ev in mem.borrow().events() {
        match ev {
            TraceEvent::Enqueue { .. } => enqs += 1,
            TraceEvent::Mark { .. } => marks += 1,
            TraceEvent::Drop { .. } => drops += 1,
            TraceEvent::Dequeue { .. } => deqs += 1,
        }
    }
    let t = sim.core.counters.totals();
    assert!(enqs > 0 && deqs > 0);
    assert_eq!(enqs, t.enqueued);
    assert_eq!(marks, t.marked);
    assert_eq!(drops, t.dropped);
    assert_eq!(deqs, t.dequeued);
}

/// A run restored from a mid-run checkpoint writes a trace that starts at
/// the restore point; it must verify against the counting sink attached
/// with it, as `pi2sim --restore --trace-out` checks it. The same file
/// with one line deleted must not.
#[test]
fn a_restored_runs_trace_verifies_against_its_own_stream() {
    use pi2::netsim::CountingSink;
    use pi2_bench::jsonl_check::verify_jsonl_trace;

    let end = Time::from_secs(6);
    let mut saver = build_sim(8);
    saver.run_until(Time::from_secs(3));
    let blob = saver.save();

    let mut sim = build_sim(8);
    let jsonl = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
    let counts = Rc::new(RefCell::new(CountingSink::new()));
    sim.core.add_trace_sink(Box::new(Rc::clone(&jsonl)));
    sim.core.add_trace_sink(Box::new(Rc::clone(&counts)));
    sim.restore(&blob).expect("restore");
    sim.run_until(end);
    sim.core.flush_trace_sinks().expect("flush");
    drop(sim.core.take_trace_sinks());
    let text = String::from_utf8(
        Rc::try_unwrap(jsonl).expect("sole owner").into_inner().into_inner(),
    )
    .expect("utf8");
    let streamed = &counts.borrow().counts;
    // The stream is the restored half only: fewer departures than the
    // whole run's always-on counters hold.
    assert!(streamed.totals().dequeued < sim.core.counters.totals().dequeued);
    assert_eq!(verify_jsonl_trace(&text, streamed), Ok(text.lines().count()));

    let cut = text.lines().count() / 2;
    let short: String = (text.lines().enumerate())
        .filter(|&(i, _)| i != cut)
        .map(|(_, l)| format!("{l}\n"))
        .collect();
    assert!(verify_jsonl_trace(&short, streamed).is_err());
}

/// The invariant auditor is a pure observer too: an audited run is
/// bit-identical to an unaudited one. Audit state is controlled through
/// the explicit API (not the `PI2_AUDIT` env knob) so the test is
/// immune to the environment and to the debug-build default: the
/// "unaudited" arm detaches whatever `Sim::with_qdisc` attached.
#[test]
fn audit_does_not_perturb_the_simulation() {
    let mut plain = build_sim(3);
    drop(plain.core.take_audit());
    plain.run_until(Time::from_secs(5));

    let mut audited = build_sim(3);
    audited
        .core
        .enable_audit(pi2::netsim::AuditSink::new(3).expect_squared(pi2::fluid::law::CLASSIC_CAP));
    audited.run_until(Time::from_secs(5));

    let audit = audited.core.audit().expect("auditor still attached");
    assert!(audit.events_seen() > 0, "auditor saw the event stream");
    assert!(audit.probes_seen() > 0, "auditor saw the AQM probes");

    assert_eq!(plain.core.events.popped(), audited.core.events.popped());
    assert_eq!(plain.core.counters, audited.core.counters);
    assert_eq!(plain.core.monitor.sojourn_ms, audited.core.monitor.sojourn_ms);
    for (a, b) in plain
        .core
        .monitor
        .flows
        .iter()
        .zip(&audited.core.monitor.flows)
    {
        assert_eq!(a.dequeued_bytes, b.dequeued_bytes);
        assert_eq!(a.dropped_postwarm, b.dropped_postwarm);
        assert_eq!(a.marked_postwarm, b.marked_postwarm);
    }
}

/// Auditing composes with tracing: the audited run's JSONL stream is
/// byte-identical to the unaudited run's (the auditor sees the same
/// stream the sinks do, and changes nothing).
#[test]
fn audited_trace_matches_unaudited_trace_byte_for_byte() {
    let run = |audit: bool| -> String {
        let mut sim = build_sim(6);
        if audit {
            sim.core.enable_audit(pi2::netsim::AuditSink::new(6));
        } else {
            drop(sim.core.take_audit());
        }
        let jsonl = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
        sim.core.add_trace_sink(Box::new(Rc::clone(&jsonl)));
        sim.run_until(Time::from_secs(3));
        sim.core.flush_trace_sinks().expect("flush");
        drop(sim.core.take_trace_sinks());
        String::from_utf8(
            Rc::try_unwrap(jsonl).expect("sole owner").into_inner().into_inner(),
        )
        .expect("utf8")
    };
    let unaudited = run(false);
    let audited = run(true);
    assert!(!unaudited.is_empty());
    assert_eq!(unaudited, audited);
}

/// Golden-file regression: a tiny seeded scenario's trace is stable byte
/// for byte in all three export formats (JSONL, CSV, Perfetto JSON).
/// Regenerate with `PI2_BLESS=1 cargo test --test trace_streaming golden`
/// after an intentional behavior change.
#[test]
fn golden_trace_for_small_scenario() {
    use pi2::netsim::{CsvSink, PerfettoSink};

    let mut sim = Sim::new(
        SimConfig {
            queue: QueueConfig {
                rate_bps: 1_000_000,
                buffer_bytes: 20 * 1500,
            },
            seed: 11,
            monitor: MonitorConfig::default(),
        },
        Box::new(Pi2::new(Pi2Config::default())),
    );
    let jsonl = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
    let csv = Rc::new(RefCell::new(CsvSink::new(Vec::new())));
    let perfetto = Rc::new(RefCell::new(PerfettoSink::new(Vec::new())));
    sim.core.add_trace_sink(Box::new(Rc::clone(&jsonl)));
    sim.core.add_trace_sink(Box::new(Rc::clone(&csv)));
    sim.core.add_trace_sink(Box::new(Rc::clone(&perfetto)));
    sim.add_flow(
        PathConf::symmetric(Duration::from_millis(20)),
        "udp",
        Time::ZERO,
        |id| Box::new(pi2::netsim::UdpCbrSource::new(id, 1_500_000, 1500, Ecn::NotEct)),
    );
    sim.run_until(Time::from_millis(200));
    sim.core.flush_trace_sinks().expect("flush");
    drop(sim.core.take_trace_sinks());
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf8");
    let jsonl = text(Rc::try_unwrap(jsonl).expect("sole owner").into_inner().into_inner());
    let csv = text(Rc::try_unwrap(csv).expect("sole owner").into_inner().into_inner());
    let Ok(perfetto) = Rc::try_unwrap(perfetto) else {
        panic!("sole owner of the perfetto sink");
    };
    let perfetto = text(perfetto.into_inner().into_inner());
    assert!(!jsonl.is_empty(), "scenario produced no events");
    assert!(
        jsonl.contains("\"ev\":\"drop\"") && jsonl.contains("\"ev\":\"aqm\""),
        "the golden must cover drops and AQM probes"
    );

    check_golden("trace_small.jsonl", &jsonl);
    check_golden("trace_small.csv", &csv);
    check_golden("trace_small.perfetto.json", &perfetto);
}

/// Golden-file regression for the fault-injection layer: a tiny seeded
/// TCP scenario under a seeded weather layer (loss + duplication +
/// jitter) is stable byte for byte. TCP is closed-loop, so lost and
/// reordered packets change the ACK clock and the retransmission
/// pattern — the impaired trace genuinely diverges from a clean run,
/// and the golden pins the layer's draw order and its accounting (the
/// trailing `impair` line). Regenerate with
/// `PI2_BLESS=1 cargo test --test trace_streaming golden`.
#[test]
fn golden_trace_for_impaired_scenario() {
    let mut sim = Sim::new(
        SimConfig {
            queue: QueueConfig {
                rate_bps: 1_000_000,
                buffer_bytes: 20 * 1500,
            },
            seed: 11,
            monitor: MonitorConfig::default(),
        },
        Box::new(Pi2::new(Pi2Config::default())),
    );
    sim.core
        .set_impairments(LinkImpairments::new(0x7EA7).symmetric(ImpairmentConf {
            loss: 0.05,
            dup: 0.02,
            jitter: Duration::from_millis(1),
        }));
    let jsonl = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
    sim.core.add_trace_sink(Box::new(Rc::clone(&jsonl)));
    sim.add_flow(
        PathConf::symmetric(Duration::from_millis(20)),
        "reno",
        Time::ZERO,
        |id| {
            Box::new(TcpSource::new(
                id,
                CcKind::Reno,
                EcnSetting::NotEcn,
                TcpConfig::default(),
            ))
        },
    );
    sim.run_until(Time::from_secs(1));
    sim.core.flush_trace_sinks().expect("flush");
    let s = sim.core.impairments().expect("weather attached").stats();
    assert!(
        s.fwd_lost > 0 && s.rev_lost > 0,
        "the golden must capture an actually-impaired run: {s:?}"
    );
    drop(sim.core.take_trace_sinks());
    let trace = String::from_utf8(
        Rc::try_unwrap(jsonl).expect("sole owner").into_inner().into_inner(),
    )
    .expect("utf8");
    assert!(!trace.is_empty(), "scenario produced no events");
    // Pin the layer's books alongside the event stream.
    let got = format!(
        "{trace}{{\"impair\":{{\"fwd_offered\":{},\"fwd_lost\":{},\"fwd_dup\":{},\
         \"rev_offered\":{},\"rev_lost\":{},\"rev_dup\":{}}}}}\n",
        s.fwd_offered, s.fwd_lost, s.fwd_dup, s.rev_offered, s.rev_lost, s.rev_dup
    );

    check_golden("trace_small_impaired.jsonl", &got);
}

/// Golden-file regression for a 3-hop parking-lot chain: an end-to-end
/// CBR flow crosses three bottlenecks while per-hop cross traffic loads
/// the later hops. The JSONL stream stays a hop-0 stream by design, so
/// the golden pins (a) that later hops never leak events into it and
/// (b) the per-hop, per-flow egress byte rows appended after the trace —
/// the multi-hop state itself. Regenerate with
/// `PI2_BLESS=1 cargo test --test trace_streaming golden`.
#[test]
fn golden_trace_for_parking_lot_scenario() {
    let fifo_hop = |rate_bps: u64| -> Box<dyn pi2::netsim::Qdisc> {
        Box::new(pi2::netsim::BottleneckQueue::new(
            QueueConfig {
                rate_bps,
                buffer_bytes: 20 * 1500,
            },
            Box::new(PassAqm),
        ))
    };
    let mut sim = Sim::new(
        SimConfig {
            queue: QueueConfig {
                rate_bps: 1_000_000,
                buffer_bytes: 20 * 1500,
            },
            seed: 11,
            monitor: MonitorConfig::default(),
        },
        Box::new(Pi2::new(Pi2Config::default())),
    );
    let h1 = sim.add_hop(fifo_hop(1_000_000), Duration::from_millis(2));
    let h2 = sim.add_hop(fifo_hop(500_000), Duration::from_millis(2));
    let jsonl = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
    sim.core.add_trace_sink(Box::new(Rc::clone(&jsonl)));
    let e2e = sim.add_flow(
        PathConf::symmetric(Duration::from_millis(20)),
        "e2e",
        Time::ZERO,
        |id| Box::new(pi2::netsim::UdpCbrSource::new(id, 600_000, 1000, Ecn::NotEct)),
    );
    sim.set_route(e2e, vec![0, h1, h2]);
    for hop in [h1, h2] {
        let cross = sim.add_flow(
            PathConf::symmetric(Duration::from_millis(10)),
            "cross",
            Time::ZERO,
            |id| Box::new(pi2::netsim::UdpCbrSource::new(id, 200_000, 500, Ecn::NotEct)),
        );
        sim.set_route(cross, vec![hop]);
    }
    sim.run_until(Time::from_millis(300));
    sim.core.flush_trace_sinks().expect("flush");
    drop(sim.core.take_trace_sinks());
    let trace = String::from_utf8(
        Rc::try_unwrap(jsonl).expect("sole owner").into_inner().into_inner(),
    )
    .expect("utf8");
    assert!(!trace.is_empty(), "scenario produced no events");
    // The stream must stay hop-0-only: the cross flows (ids 1 and 2)
    // never touch the primary bottleneck, so they never appear in it.
    for line in trace.lines() {
        assert!(
            !line.contains("\"flow\":1") && !line.contains("\"flow\":2"),
            "later-hop traffic leaked into the hop-0 stream: {line}"
        );
    }
    // Pin the multi-hop state alongside the event stream.
    let rows: Vec<String> = (0..sim.core.hop_count() as u32)
        .map(|h| {
            let row: Vec<String> = sim
                .core
                .hop_flow_bytes(h)
                .iter()
                .map(|b| b.to_string())
                .collect();
            format!("[{}]", row.join(","))
        })
        .collect();
    let got = format!("{trace}{{\"hop_flow_bytes\":[{}]}}\n", rows.join(","));

    check_golden("trace_parking_lot.jsonl", &got);
}

/// RFC 4180 regression: `csv_field` escaping survives a round trip
/// through a standards-compliant field splitter, and the CSV sink's
/// stream parses into exactly the header's column count on every line.
#[test]
fn csv_escaping_round_trips_per_rfc4180() {
    use pi2::netsim::{csv_field, trace::CSV_HEADER, CsvSink};

    // A minimal RFC 4180 reader: split one record into its fields,
    // honouring quoted fields and doubled quotes.
    fn split(record: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut quoted = false;
        let mut chars = record.chars().peekable();
        while let Some(c) = chars.next() {
            match (quoted, c) {
                (false, ',') => fields.push(std::mem::take(&mut cur)),
                (false, '"') if cur.is_empty() => quoted = true,
                (true, '"') => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        quoted = false;
                    }
                }
                (_, c) => cur.push(c),
            }
        }
        fields.push(cur);
        fields
    }

    for nasty in [
        "plain",
        "with,comma",
        "with \"quotes\"",
        "both,\"of\",them",
        "multi\nline",
        "cr\rhere",
    ] {
        let row = format!("{},{}", csv_field(nasty), csv_field("x"));
        assert_eq!(
            split(&row),
            vec![nasty.to_string(), "x".to_string()],
            "field {nasty:?} did not round-trip"
        );
    }

    // The streaming CSV sink's output stays a rectangular table.
    let mut sim = build_sim(7);
    let csv = Rc::new(RefCell::new(CsvSink::new(Vec::new())));
    sim.core.add_trace_sink(Box::new(Rc::clone(&csv)));
    sim.run_until(Time::from_secs(2));
    sim.core.flush_trace_sinks().expect("flush");
    drop(sim.core.take_trace_sinks());
    let text = String::from_utf8(
        Rc::try_unwrap(csv).expect("sole owner").into_inner().into_inner(),
    )
    .expect("utf8");
    let ncols = CSV_HEADER.split(',').count();
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some(CSV_HEADER), "header row first");
    let mut rows = 0usize;
    for line in lines {
        assert_eq!(split(line).len(), ncols, "ragged row: {line}");
        rows += 1;
    }
    assert!(rows > 100, "expected a real stream, got {rows} rows");
}
