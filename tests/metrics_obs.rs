//! Observability integration tests: the metrics registry and the
//! event-loop profiler are pure observers (a metered run is bit-identical
//! to a bare one), exports pass their own lints, and an invariant
//! violation dumps the flight recorder next to the replay seed.

use pi2::netsim::aqm::QueueSnapshot;
use pi2::netsim::AuditSink;
use pi2::prelude::*;
use pi2_bench::perf::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// The registry never touches the RNG, the queue, or the event heap, so
/// a metrics-on run and a metrics-off run of the same seed are the same
/// run — and the registry's counters must agree with the independent
/// counting sink.
#[test]
fn metrics_do_not_perturb_the_simulation() {
    let mut plain = build_sim(3);
    plain.run_until(Time::from_secs(5));

    let mut metered = build_sim(3);
    metered.core.enable_metrics();
    metered.run_until(Time::from_secs(5));

    assert_eq!(plain.core.events.popped(), metered.core.events.popped());
    assert_eq!(plain.core.counters, metered.core.counters);
    assert_eq!(plain.core.monitor.sojourn_ms, metered.core.monitor.sojourn_ms);
    for (a, b) in plain
        .core
        .monitor
        .flows
        .iter()
        .zip(&metered.core.monitor.flows)
    {
        assert_eq!(a.dequeued_bytes, b.dequeued_bytes);
        assert_eq!(a.dropped_postwarm, b.dropped_postwarm);
        assert_eq!(a.marked_postwarm, b.marked_postwarm);
    }

    let t = metered.core.counters.totals();
    let m = metered.core.take_metrics().expect("metrics were enabled");
    assert_eq!(m.enqueued(), t.enqueued);
    assert_eq!(m.marked(), t.marked);
    assert_eq!(m.dropped(), t.dropped);
    assert_eq!(m.dequeued(), t.dequeued);
    assert_eq!(m.aqm_updates(), metered.core.counters.aqm_updates);
    assert_eq!(m.events_processed(), metered.core.events.popped());
    assert_eq!(m.sojourn().count(), t.dequeued, "one sojourn sample per departure");
}

/// The self-profiler reads the wall clock but never writes simulation
/// state: a profiled run is bit-identical too, and its per-class event
/// counts sum to the dispatch loop's total.
#[test]
fn profiler_does_not_perturb_the_simulation() {
    let mut plain = build_sim(4);
    plain.run_until(Time::from_secs(5));

    let mut profiled = build_sim(4);
    profiled.enable_profiler();
    profiled.run_until(Time::from_secs(5));

    assert_eq!(plain.core.events.popped(), profiled.core.events.popped());
    assert_eq!(plain.core.counters, profiled.core.counters);
    assert_eq!(plain.core.monitor.sojourn_ms, profiled.core.monitor.sojourn_ms);

    let prof = profiled.take_profiler().expect("profiler was enabled");
    assert_eq!(prof.total_events(), profiled.core.events.popped());
    assert!(!prof.rows().is_empty());
    assert!(prof.render_table().contains("dequeue"));
}

/// A real run's exports pass their own validation: the Prometheus text
/// lints clean, and the JSON snapshot parses as schema 1 with its three
/// sections and every histogram's summary fields.
#[test]
fn exports_from_a_real_run_validate() {
    let mut sim = build_sim(5);
    sim.core.enable_metrics();
    sim.run_until(Time::from_secs(5));
    let m = sim.core.take_metrics().expect("metrics were enabled");

    let prom = m.registry().to_prometheus();
    let samples = pi2::obs::prom_lint(&prom).expect("exposition text lints clean");
    assert!(samples >= 10, "expected a full metric set, got {samples} samples");

    let json = Json::parse(&m.registry().to_json()).expect("the snapshot parses");
    assert_eq!(json.get("schema").and_then(Json::as_f64), Some(1.0));
    for section in ["counters", "gauges", "histograms"] {
        assert!(matches!(json.get(section), Some(Json::Obj(_))), "\"{section}\" is not an object");
    }
    assert!(json.get("counters").unwrap().get("pi2_enqueued_total").is_some());
    let Some(Json::Obj(hists)) = json.get("histograms") else { unreachable!() };
    assert!(hists.iter().any(|(name, _)| name == "pi2_sojourn_ns"));
    for (name, h) in hists {
        for field in ["count", "sum", "mean", "stddev", "p50", "p90", "p99"] {
            assert!(h.get(field).is_some(), "histogram {name} lacks \"{field}\"");
        }
    }
}

/// An AQM that reports an out-of-range drop probability after admitting
/// some traffic — enough history for the flight recorder to be worth
/// dumping when the auditor trips over it.
struct BrokenAqm {
    decisions: u64,
}

impl Aqm for BrokenAqm {
    fn on_enqueue(
        &mut self,
        _pkt: &Packet,
        _snap: &QueueSnapshot,
        _now: Time,
        _rng: &mut pi2::simcore::Rng,
    ) -> Decision {
        self.decisions += 1;
        if self.decisions > 50 {
            // Probability 1.5 violates the auditor's [0, 1] bound.
            Decision::drop(1.5)
        } else {
            Decision::pass(0.0)
        }
    }
    fn name(&self) -> &'static str {
        "broken"
    }
}
pi2::simcore::ckpt_fields!(BrokenAqm {});

/// The acceptance scenario for the flight recorder: a deliberately broken
/// AQM trips the auditor, the panic names the dump file, and that file
/// holds the recent trace window as JSONL plus a closing violation record
/// with the replay seed.
#[test]
fn broken_aqm_violation_dumps_the_flight_recorder() {
    // Unique seed → unique default dump path (no env mutation, which
    // would race parallel tests).
    let seed = 0xB20_CE41_u64;
    let dump = std::env::temp_dir().join(format!("pi2_flight_seed{seed}.jsonl"));
    let _ = std::fs::remove_file(&dump);

    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Sim::new(
            SimConfig {
                queue: QueueConfig {
                    rate_bps: 10_000_000,
                    buffer_bytes: 40_000 * 1500,
                },
                seed,
                monitor: MonitorConfig::default(),
            },
            Box::new(BrokenAqm { decisions: 0 }),
        );
        sim.core.enable_audit(AuditSink::new(seed).with_label("broken"));
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
        sim.run_until(Time::from_secs(10));
    }));
    let err = result.expect_err("the auditor must panic on prob 1.5");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("drop probability"), "unexpected panic: {msg}");
    assert!(msg.contains("flight recorder"), "panic must name the dump: {msg}");

    let body = std::fs::read_to_string(&dump).expect("flight-recorder dump exists");
    let lines: Vec<&str> = body.lines().collect();
    assert!(lines.len() >= 2, "dump holds the event window: {body}");
    for line in &lines[..lines.len() - 1] {
        assert!(line.starts_with("{\"ev\":"), "not a trace line: {line}");
    }
    let last = lines.last().unwrap();
    assert!(last.contains("\"ev\":\"violation\""), "missing closing record: {last}");
    assert!(last.contains(&format!("\"seed\":{seed}")), "missing seed: {last}");
    let _ = std::fs::remove_file(&dump);
}

/// A FIFO hop that misreports one admission: the 30th packet offered is
/// queued but announced as dropped, so it later leaves a queue the event
/// stream never saw it enter.
struct LyingQdisc {
    inner: pi2::netsim::BottleneckQueue,
    offers: u64,
}

impl pi2::netsim::Qdisc for LyingQdisc {
    fn offer(&mut self, pkt: Packet, now: Time, rng: &mut pi2::simcore::Rng) -> Decision {
        self.offers += 1;
        let verdict = self.inner.offer(pkt, now, rng);
        if self.offers == 30 {
            Decision::drop(0.0)
        } else {
            verdict
        }
    }
    fn pop(&mut self, now: Time) -> Option<(Packet, Duration)> {
        self.inner.pop(now)
    }
    fn start_tx(&mut self) -> Option<usize> {
        self.inner.start_tx()
    }
    fn len_bytes(&self) -> usize {
        self.inner.len_bytes()
    }
    fn len_pkts(&self) -> usize {
        self.inner.len_pkts()
    }
    fn link(&self) -> &pi2::netsim::Link {
        self.inner.link()
    }
    fn link_mut(&mut self) -> &mut pi2::netsim::Link {
        self.inner.link_mut()
    }
    fn update(&mut self, now: Time) {
        self.inner.update(now);
    }
    fn update_interval(&self) -> Option<Duration> {
        self.inner.update_interval()
    }
    fn probe(&self) -> pi2::netsim::AqmState {
        self.inner.probe()
    }
}
pi2::simcore::ckpt_fields!(LyingQdisc {});

/// Every link of the broken-hop parking lot.
const LOT_QUEUE: QueueConfig = QueueConfig {
    rate_bps: 1_000_000,
    buffer_bytes: 40_000 * 1500,
};

/// Run an audited 3-hop parking lot whose hop 2 is `broken`, under one
/// end-to-end CBR flow, and return the auditor's panic message and the
/// lines of its flight-recorder dump.
fn hop2_violation(seed: u64, broken: Box<dyn pi2::netsim::Qdisc>) -> (String, Vec<String>) {
    let dump = std::env::temp_dir().join(format!("pi2_flight_seed{seed}.jsonl"));
    let _ = std::fs::remove_file(&dump);
    let result = catch_unwind(AssertUnwindSafe(move || {
        let cfg = SimConfig {
            queue: LOT_QUEUE,
            seed,
            monitor: MonitorConfig::default(),
        };
        let mut sim = Sim::new(cfg, Box::new(PassAqm));
        sim.core.enable_audit(AuditSink::new(seed).with_label("lot"));
        let topo = pi2::netsim::Topology::parking_lot(3, Duration::from_millis(2));
        let mut broken = Some(broken);
        topo.install(&mut sim.core, |hop| match hop {
            2 => broken.take().expect("hop 2 is built once"),
            _ => Box::new(pi2::netsim::BottleneckQueue::new(LOT_QUEUE, Box::new(PassAqm))),
        });
        let e2e = sim.add_flow(
            PathConf::symmetric(Duration::from_millis(20)),
            "e2e",
            Time::ZERO,
            |id| Box::new(pi2::netsim::UdpCbrSource::new(id, 600_000, 1000, Ecn::NotEct)),
        );
        sim.set_route(e2e, topo.path("e2e").to_vec());
        sim.run_until(Time::from_secs(10));
    }));
    let err = result.expect_err("the auditor must panic on the broken hop");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    let body = std::fs::read_to_string(&dump).expect("flight-recorder dump exists");
    let _ = std::fs::remove_file(&dump);
    (msg, body.lines().map(str::to_string).collect())
}

/// What auditing every hop buys: a fault two hops past the primary
/// bottleneck — an out-of-range probability, then a departure that was
/// never admitted — panics through the auditor with the replayable seed,
/// names hop 2, and leaves a flight-recorder dump whose last trace line
/// is the violating event at that hop.
#[test]
fn broken_hop_two_is_caught_by_the_auditor() {
    let bad_prob =
        pi2::netsim::BottleneckQueue::new(LOT_QUEUE, Box::new(BrokenAqm { decisions: 0 }));
    let phantom = LyingQdisc {
        inner: pi2::netsim::BottleneckQueue::new(LOT_QUEUE, Box::new(PassAqm)),
        offers: 0,
    };
    let cases: [(u64, Box<dyn pi2::netsim::Qdisc>, &str, &str); 2] = [
        (0xB20_CE42, Box::new(bad_prob), "drop probability = 1.5", "\"ev\":\"drop\""),
        (0xB20_CE43, Box::new(phantom), "queue depth went negative", "\"ev\":\"deq\""),
    ];
    for (seed, broken, what, last_ev) in cases {
        let (msg, lines) = hop2_violation(seed, broken);
        assert!(msg.contains("INVARIANT VIOLATION"), "{msg}");
        assert!(msg.contains(&format!("hop 2: {what}")), "{msg}");
        assert!(msg.contains(&format!("seed: {seed}")), "seed must be replayable: {msg}");
        assert!(msg.contains("flight recorder"), "panic must name the dump: {msg}");
        let [.., violating, closing] = lines.as_slice() else {
            panic!("dump holds the event window: {lines:?}");
        };
        assert!(violating.contains(last_ev), "dump must end on the violating event: {violating}");
        assert!(violating.ends_with(",\"hop\":2}"), "violating event is hop 2's: {violating}");
        assert!(closing.contains("\"ev\":\"violation\""), "missing closing record: {closing}");
    }
}
