//! Live-observability integration tests: the HTTP exposition server is a
//! pure observer with a schema-stable /metrics body under concurrent
//! scrapes, and the Perfetto timeline exporter round-trips the golden
//! parking-lot scenario and an annotated family cell through the
//! workspace's own structural validator without perturbing the run.

use pi2::netsim::{PerfettoSink, TraceEvent, TraceSink};
use pi2::obs::{http_get, Histogram, ObsServer};
use pi2::prelude::*;
use pi2_bench::perfetto_check::check_perfetto;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Batched quantiles must agree with single calls, stay ordered, merge
/// commutatively, and degrade to zero on an empty histogram.
#[test]
fn histogram_quantiles_batch_merge_and_empty_cases() {
    let empty = Histogram::new();
    assert_eq!(empty.quantiles([0.0, 0.5, 1.0]), [0, 0, 0]);

    let mut low = Histogram::new();
    let mut high = Histogram::new();
    for v in 1..=500u64 {
        low.record(v);
        high.record(v + 10_000);
    }
    let [p25, p50, p75, p99] = low.quantiles([0.25, 0.5, 0.75, 0.99]);
    assert_eq!(p25, low.quantile(0.25));
    assert_eq!(p50, low.quantile(0.5));
    assert_eq!(p75, low.quantile(0.75));
    assert_eq!(p99, low.quantile(0.99));
    assert!(p25 <= p50 && p50 <= p75 && p75 <= p99, "quantiles ordered");

    // Merging the high half shifts the median into the upper range, and
    // a merge in either direction yields the same quantiles.
    let mut ab = low.clone();
    ab.merge(&high);
    let mut ba = high.clone();
    ba.merge(&low);
    assert_eq!(ab.quantiles([0.5, 0.9]), ba.quantiles([0.5, 0.9]));
    assert_eq!(ab.count(), 1000);
    assert!(ab.quantile(0.75) > 10_000, "upper quartile is in the high half");
    assert!(ab.quantile(0.25) <= 500, "lower quartile is in the low half");
}

fn small_metered_run(seed: u64) -> pi2::netsim::SimMetrics {
    let mut sim = Sim::new(
        SimConfig {
            queue: QueueConfig {
                rate_bps: 5_000_000,
                buffer_bytes: 40_000 * 1500,
            },
            seed,
            monitor: MonitorConfig::default(),
        },
        Box::new(Pi2::new(Pi2Config::default())),
    );
    sim.core.enable_metrics();
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
    *sim.core.take_metrics().expect("metrics enabled")
}

/// The metric-name set of a /metrics scrape: every non-comment sample
/// line's name token.
fn name_set(body: &str) -> Vec<String> {
    let mut names: Vec<String> = body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.split_whitespace().next().unwrap_or("").to_string())
        .collect();
    names.sort();
    names.dedup();
    names
}

/// Scrapes racing a publisher that keeps folding new cells into the
/// snapshot must always see a complete, lint-clean body with the same
/// metric-name schema — never a torn or shrinking one.
#[test]
fn concurrent_scrapes_see_a_stable_schema() {
    let srv = Arc::new(ObsServer::bind("127.0.0.1:0").expect("bind"));
    let addr = srv.addr();

    // Seed the snapshot with one real cell so early scrapes see the
    // full schema, then keep republishing merged snapshots.
    let mut merged = small_metered_run(1);
    srv.publish_metrics(merged.registry().to_prometheus());
    let want_names = name_set(&merged.registry().to_prometheus());
    assert!(!want_names.is_empty());

    let stop = Arc::new(AtomicBool::new(false));
    let publisher = {
        let srv = Arc::clone(&srv);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seed = 2u64;
            while !stop.load(Ordering::Relaxed) {
                merged.merge(&small_metered_run(seed));
                srv.publish_metrics(merged.registry().to_prometheus());
                seed += 1;
            }
            seed
        })
    };

    let scrapers: Vec<_> = (0..4)
        .map(|_| {
            let want = want_names.clone();
            std::thread::spawn(move || {
                let mut seen = 0usize;
                for _ in 0..25 {
                    let (status, body) = http_get(addr, "/metrics").expect("scrape");
                    assert!(status.contains("200"), "{status}");
                    pi2::obs::prom_lint(&body).expect("every scrape lints clean");
                    assert_eq!(name_set(&body), want, "schema drifted mid-sweep");
                    seen += 1;
                }
                seen
            })
        })
        .collect();
    for s in scrapers {
        assert_eq!(s.join().expect("scraper"), 25);
    }
    stop.store(true, Ordering::Relaxed);
    let _ = publisher.join().expect("publisher");

    // /progress and /healthz answer alongside the scrape storm.
    srv.publish_progress("{\"cells_done\":3,\"cells_total\":4}\n".to_string());
    let (st, body) = http_get(addr, "/progress").expect("progress");
    assert!(st.contains("200") && body.contains("cells_done"));
    let (st, body) = http_get(addr, "/healthz").expect("healthz");
    assert!(st.contains("200") && body.contains("ok"));
}

/// `GET /cancel` from a fresh client, on a thread of its own so that a
/// handler stuck on somebody else's connection fails the test instead of
/// hanging it.
fn cancel_is_answered_promptly(srv: &ObsServer) {
    let addr = srv.addr();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(http_get(addr, "/cancel")));
    let (status, _) = rx
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("/cancel unanswered after 5 s: a stalled client holds the handler")
        .expect("cancel");
    assert!(status.contains("200"), "{status}");
    assert!(srv.cancel_requested());
}

/// The server has one handler thread. A client that connects and says
/// nothing is refused with 408 after the request deadline, and the next
/// client's `/cancel` gets through.
#[test]
fn a_silent_client_cannot_hold_cancel_off() {
    use std::io::Read;
    let srv = ObsServer::bind("127.0.0.1:0").expect("bind");
    let mut silent = std::net::TcpStream::connect(srv.addr()).expect("connect");
    cancel_is_answered_promptly(&srv);
    let mut answer = String::new();
    silent.read_to_string(&mut answer).expect("the refusal");
    assert!(answer.starts_with("HTTP/1.1 408 "), "{answer}");
}

/// Nor can a client whose header line never ends: the server stops
/// reading at its request-size cap and drops the connection, which is
/// what ends the writer below.
#[test]
fn an_endless_header_line_cannot_hold_cancel_off() {
    use std::io::Write;
    let srv = ObsServer::bind("127.0.0.1:0").expect("bind");
    let mut endless = std::net::TcpStream::connect(srv.addr()).expect("connect");
    let writer = std::thread::spawn(move || -> std::io::Error {
        let mut chunk: &[u8] = b"GET /metrics HTTP/1.1\r\nX-Filler: ";
        loop {
            if let Err(gone) = endless.write_all(chunk) {
                return gone;
            }
            chunk = &[b'a'; 1024];
        }
    });
    cancel_is_answered_promptly(&srv);
    writer.join().expect("the writer ends once the server hangs up");
}

/// Counts every drop/mark the sim reports on any hop — the independent
/// tally the Perfetto instants must match.
#[derive(Default)]
struct AllHopCounts {
    drops: u64,
    marks: u64,
    enqueues: u64,
    dequeues: u64,
}

impl TraceSink for AllHopCounts {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.on_hop_event(0, ev);
    }
    fn on_hop_event(&mut self, _hop: u32, ev: &TraceEvent) {
        match ev {
            TraceEvent::Drop { .. } => self.drops += 1,
            TraceEvent::Mark { .. } => self.marks += 1,
            TraceEvent::Enqueue { .. } => self.enqueues += 1,
            TraceEvent::Dequeue { .. } => self.dequeues += 1,
        }
    }
}

/// The golden parking-lot scenario (same construction as the JSONL
/// golden in `trace_streaming.rs`), with trace sinks attached via
/// `prepare`. Run for 1.5 s rather than the golden's 300 ms: the 500
/// kb/s hop sheds its 300 kb/s excess into a 30 kB buffer, so the
/// longer horizon guarantees overflow drops for the instant-event
/// cross-check. Returns the finished sim.
fn parking_lot_run(prepare: impl FnOnce(&mut Sim)) -> Sim {
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
    prepare(&mut sim);
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
    sim.run_until(Time::from_millis(1500));
    sim
}

/// The Perfetto export of the golden parking-lot scenario round-trips
/// through the structural validator (valid JSON, per-track monotonic
/// timestamps), its drop instants match an independent all-hop tally,
/// attaching the exporter does not perturb the run, and the file matches
/// its checked-in golden.
#[test]
fn perfetto_export_of_golden_parking_lot_round_trips() {
    let plain = parking_lot_run(|_| {});

    let sink = Rc::new(RefCell::new(PerfettoSink::new(Vec::new())));
    let counts = Rc::new(RefCell::new(AllHopCounts::default()));
    let (s, c) = (Rc::clone(&sink), Rc::clone(&counts));
    let mut traced = parking_lot_run(move |sim| {
        sim.core.add_trace_sink(Box::new(s));
        sim.core.add_trace_sink(Box::new(c));
    });
    traced.core.flush_trace_sinks().expect("flush finalizes");
    drop(traced.core.take_trace_sinks());

    // Pure observer: the traced run is the same run.
    assert_eq!(plain.core.events.popped(), traced.core.events.popped());
    assert_eq!(plain.core.counters, traced.core.counters);
    for h in 0..plain.core.hop_count() as u32 {
        assert_eq!(plain.core.hop_flow_bytes(h), traced.core.hop_flow_bytes(h));
    }

    let Ok(sink) = Rc::try_unwrap(sink) else {
        panic!("sole owner of the perfetto sink");
    };
    let body = String::from_utf8(sink.into_inner().into_inner()).expect("utf8");
    let report = check_perfetto(&body).expect("timeline validates");
    let counts = counts.borrow();
    assert!(counts.drops > 0, "the 500 kb/s hop must shed load");
    assert_eq!(report.drops, counts.drops as usize, "every drop is an instant");
    assert_eq!(report.marks, counts.marks as usize, "every mark is an instant");
    assert!(
        report.counters as u64 >= counts.enqueues + counts.dequeues,
        "depth counters cover every enqueue and dequeue"
    );
    // Three hop processes plus the flow process, each with tracks.
    assert!(report.tracks >= 4, "got {} tracks", report.tracks);
    assert_eq!(report.slices, 3, "one lifetime slice per flow");

    // Byte for byte: the `on_hop_*` path (pid = hop + 1, `"hop":2` drop
    // instants) has no other golden. Regenerate with
    // `PI2_BLESS=1 cargo test --test obs_server perfetto`.
    assert!(body.contains("\"pid\":3,") && body.contains("\"hop\":2,"));
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/trace_parking_lot.perfetto.json"
    );
    if std::env::var_os("PI2_BLESS").is_some() {
        std::fs::write(path, &body).expect("bless golden");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file (PI2_BLESS=1 to create)");
    assert!(body == want, "timeline diverged from golden file {path}");
}

/// The timeline `pi2sim --scenario dynamics/rate-step --trace-format
/// perfetto` writes, through the structural validator: the sink `pi2sim`
/// builds opens with the cell's two edges as instants (the golden above
/// has drop and mark instants only). Four simulated seconds of the cell
/// keep it cheap in a debug build; the edges lie beyond them.
#[test]
fn a_family_cells_timeline_with_its_marks_validates() {
    let argv: Vec<String> = ["--scenario", "dynamics/rate-step", "--aqm", "pi2", "--seed", "4"]
        .map(String::from)
        .to_vec();
    let a = pi2_bench::cli::parse_args(&argv).expect("a pi2sim command line");
    let sink = Rc::new(RefCell::new(a.perfetto_sink(Vec::new())));
    let mut sim = a.to_scenario().build().expect("the cell builds");
    sim.core.add_trace_sink(Box::new(Rc::clone(&sink)));
    sim.run_until(Time::from_secs(4));
    sim.core.flush_trace_sinks().expect("flush finalizes");
    drop(sim.core.take_trace_sinks());

    let Ok(sink) = Rc::try_unwrap(sink) else {
        panic!("sole owner of the perfetto sink");
    };
    let body = String::from_utf8(sink.into_inner().into_inner()).expect("utf8");
    let report = check_perfetto(&body).expect("timeline validates");
    let marks = a.scenario.expect("the line names a cell").marks();
    for (_, label) in marks {
        assert!(body.contains(&format!("\"name\":\"{label}\"")), "no instant {label}");
    }
    assert_eq!(report.instants, report.drops + report.marks + marks.len());
    assert!(report.counters > 0 && report.slices > 0, "the run itself is on the timeline");
}

/// Everything one parking-lot run leaves behind that an observer could
/// have perturbed.
#[derive(PartialEq)]
struct ParkingLotOutcome {
    hop0_trace: Vec<u8>,
    hop_flow_bytes: Vec<Vec<u64>>,
    metrics_json: String,
    counters: pi2::netsim::TraceCounts,
    events_popped: u64,
    all_hop_events: u64,
}

/// Auditing every hop is pure and complete on the golden parking-lot
/// scenario: the audited run's hop-0 trace, per-hop flow bytes, metrics
/// and counters are bit-identical to the unaudited run's, and the
/// auditor saw exactly the events the independent all-hop tally counted
/// — not only hop 0's.
#[test]
fn auditing_every_hop_is_pure_and_sees_the_whole_stream() {
    let run = |audit: bool| {
        let jsonl = Rc::new(RefCell::new(pi2::netsim::JsonlSink::new(Vec::new())));
        let counts = Rc::new(RefCell::new(AllHopCounts::default()));
        let (j, c) = (Rc::clone(&jsonl), Rc::clone(&counts));
        let mut sim = parking_lot_run(move |sim| {
            // Explicit either way, so neither the debug-build default nor
            // `PI2_AUDIT` decides what the arms compare.
            drop(sim.core.take_audit());
            if audit {
                sim.core.enable_audit(pi2::netsim::AuditSink::new(11));
            }
            sim.core.enable_metrics();
            sim.core.add_trace_sink(Box::new(j));
            sim.core.add_trace_sink(Box::new(c));
        });
        sim.core.flush_trace_sinks().expect("flush");
        drop(sim.core.take_trace_sinks());
        let c = counts.borrow();
        let outcome = ParkingLotOutcome {
            hop0_trace: Rc::try_unwrap(jsonl).expect("sole owner").into_inner().into_inner(),
            hop_flow_bytes: (0..sim.core.hop_count() as u32)
                .map(|h| sim.core.hop_flow_bytes(h).to_vec())
                .collect(),
            metrics_json: sim.core.take_metrics().expect("metrics on").registry().to_json(),
            counters: sim.core.counters.clone(),
            events_popped: sim.core.events.popped(),
            all_hop_events: c.drops + c.marks + c.enqueues + c.dequeues,
        };
        (outcome, sim.core.audit().map(|a| a.events_seen()))
    };
    let (plain, unaudited) = run(false);
    let (audited, seen) = run(true);
    assert_eq!(unaudited, None);
    assert!(plain == audited, "attaching the auditor changed the run");
    // The JSONL stream is hop 0's: one line per packet event plus one
    // per controller tick.
    let hop0_events = plain.hop0_trace.iter().filter(|&&b| b == b'\n').count() as u64
        - plain.counters.aqm_updates;
    assert!(plain.all_hop_events > hop0_events, "hops past the first carry traffic");
    assert_eq!(seen, Some(plain.all_hop_events), "the auditor sees every hop's events");
}
