//! Backend conformance suite: the paper's scenario grid under all three
//! execution backends (`packet`, `fluid`, `hybrid`), certified against
//! the shared `pi2_validate::bands()` tolerance table.
//!
//! The contract under test:
//!
//! * **fluid** — compiling a scenario onto the flow-level engine (no
//!   packet events at all) lands inside the same per-metric bands the
//!   fluid⇄packet differential harness uses: congestion-signal
//!   probability, mean queue delay, utilization, and a rate ratio of
//!   exactly 1 for identical flows;
//! * **hybrid** — moving most of a scenario's population into the fluid
//!   background aggregate must not move the foreground's steady state
//!   outside those bands relative to the all-packet reference;
//! * **identity** — a hybrid run with zero background flows is the
//!   packet run, bit for bit (event trace, metrics registry JSON,
//!   monitor accounts), under the parallel sweep executor at 1, 2 and
//!   4 workers;
//! * **determinism** — hybrid runs are a pure function of the seed,
//!   including the background's granted-rate track.

use pi2::experiments::runner::par_map_threads;
use pi2::experiments::{
    run_fluid, summarize_scenario_run, AqmKind, Backend, BackendSummary, BgGroup, FlowGroup,
    RunResult, Scenario,
};
use pi2::netsim::JsonlSink;
use pi2::prelude::*;
use pi2::validate::bands;
use std::cell::RefCell;
use std::rc::Rc;

/// One conformance cell: an AQM family × a homogeneous traffic class,
/// at the differential harness's operating point (12 Mb/s, 50 ms RTT,
/// 5 flows, 60 s with a 20 s warm-up).
#[derive(Clone, Copy, Debug)]
struct Cell {
    name: &'static str,
    aqm: fn() -> AqmKind,
    cc: CcKind,
    ecn: EcnSetting,
    /// Judge the pure-fluid backend against the packet reference. Off
    /// for DualPI2: its L queue step-marks at the ~1 ms threshold, which
    /// no PI fluid law reproduces — the packet side settles an order of
    /// magnitude below the Classic target. (Hybrid mode is unaffected:
    /// the background feeds on the real AQM's probed probabilities.)
    fluid: bool,
}

/// The grid covers every fluid-encodable controller family (Squared,
/// Direct, TunedDirect, and both coupled variants) and both window laws.
const GRID: &[Cell] = &[
    Cell {
        name: "pi2-reno",
        aqm: || AqmKind::Pi2(pi2::aqm::Pi2Config::default()),
        cc: CcKind::Reno,
        ecn: EcnSetting::NotEcn,
        fluid: true,
    },
    Cell {
        name: "coupled-scal",
        aqm: || AqmKind::Coupled(pi2::aqm::CoupledPi2Config::default()),
        cc: CcKind::ScalableHalfPkt,
        ecn: EcnSetting::Scalable,
        fluid: true,
    },
    Cell {
        name: "pie-reno",
        aqm: || AqmKind::Pie(pi2::aqm::PieConfig::paper_default()),
        cc: CcKind::Reno,
        ecn: EcnSetting::NotEcn,
        fluid: true,
    },
    Cell {
        name: "dualq-scal",
        aqm: || AqmKind::DualQ(pi2::aqm::DualPi2Config::for_link(RATE)),
        cc: CcKind::ScalableHalfPkt,
        ecn: EcnSetting::Scalable,
        fluid: false,
    },
];

const RATE: u64 = 12_000_000;
const N_FLOWS: usize = 5;
const FG_FLOWS: usize = 2;
const RTT: Duration = Duration::from_millis(50);

/// The all-packet reference scenario: every flow is a real TCP source.
fn packet_scenario(cell: &Cell) -> Scenario {
    let mut sc = Scenario::new((cell.aqm)(), RATE);
    sc.tcp
        .push(FlowGroup::new(N_FLOWS, cell.cc, cell.ecn, "fg", RTT));
    sc.duration = Time::from_secs(60);
    sc.warmup = Duration::from_secs(20);
    sc.seed = 7;
    sc
}

/// The hybrid counterpart: the same population, but only `FG_FLOWS` stay
/// packet-level — the rest ride in the fluid background aggregate.
fn hybrid_scenario(cell: &Cell) -> Scenario {
    let mut sc = packet_scenario(cell);
    sc.tcp[0].count = FG_FLOWS;
    sc.backend = Backend::Hybrid;
    sc.background = vec![BgGroup::new(N_FLOWS - FG_FLOWS, cell.cc, RTT, "bg")];
    sc
}

fn check(cell: &str, backend: &str, metric: &str, got: f64, reference: f64, tol: pi2::validate::Tol) -> Option<String> {
    if tol.ok(reference, got) {
        None
    } else {
        Some(format!(
            "{cell}/{backend}: {metric} {got:.5} vs packet {reference:.5} \
             (band rel {} abs {})",
            tol.rel, tol.abs
        ))
    }
}

/// Judge a backend's summary against the packet reference under the
/// shared validate bands. The fluid side's identical flows make its
/// rate ratio exactly 1, so the packet reference is judged against 1 the
/// same way the differential harness does it.
fn judge(cell: &str, backend: &str, got: &BackendSummary, reference: &BackendSummary) -> Vec<String> {
    let b = bands();
    [
        check(cell, backend, "signal", got.signal, reference.signal, b.signal),
        check(cell, backend, "qdelay_s", got.qdelay_s, reference.qdelay_s, b.qdelay),
        check(cell, backend, "utilization", got.utilization, reference.utilization, b.util),
        check(cell, backend, "rate_ratio", got.rate_ratio, reference.rate_ratio, b.rate_ratio),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// The conformance headline: every grid cell, all three backends, every
/// metric inside the shared tolerance bands.
#[test]
fn all_backends_agree_inside_the_validate_bands() {
    let failures: Vec<String> = par_map_threads(2, GRID, |cell| {
        let mut fails = Vec::new();

        let psc = packet_scenario(cell);
        let pref = summarize_scenario_run(&psc, &psc.run());

        // Fluid: the whole population on the flow-level engine.
        if cell.fluid {
            let fluid = run_fluid(&psc).expect("grid cells are fluid-encodable");
            fails.extend(judge(cell.name, "fluid", &fluid.summary, &pref));
            assert!(
                (fluid.summary.rate_ratio - 1.0).abs() < 1e-9,
                "{}: identical fluid flows must share exactly (ratio {})",
                cell.name,
                fluid.summary.rate_ratio
            );
        }

        // Hybrid: 2 packet foreground flows + 3 in the fluid background.
        let hsc = hybrid_scenario(cell);
        let hrun = hsc.run();
        let bg = hrun.background.as_ref().expect("hybrid run has background");
        assert_eq!(bg.flow_count, (N_FLOWS - FG_FLOWS) as u64);
        assert!(bg.ticks > 0, "{}: background never ticked", cell.name);
        fails.extend(judge(
            cell.name,
            "hybrid",
            &summarize_scenario_run(&hsc, &hrun),
            &pref,
        ));
        fails
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failures.is_empty(),
        "{} conformance violations:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Everything a packet/hybrid run observably produces, for bit-identity:
/// the JSONL event stream, the metrics JSON, the per-flow accounts, the
/// sojourn samples and the background's rate track.
type Fingerprint = (Vec<u8>, String, Vec<(u64, u64, u64, u64)>, Vec<f32>, Vec<(f64, u64)>);

fn fingerprint_of(trace: Vec<u8>, run: RunResult) -> Fingerprint {
    let metrics_json = run.metrics.as_ref().expect("scenario runs record metrics").registry().to_json();
    let flows = run
        .monitor
        .flows
        .iter()
        .map(|f| (f.sent_pkts, f.dequeued_bytes, f.marked, f.dropped))
        .collect();
    let bg_series = run.background.map_or(Vec::new(), |b| b.series);
    (trace, metrics_json, flows, run.monitor.sojourn_ms, bg_series)
}

/// Build, attach a JSONL sink to the built simulator, run, finish.
fn fingerprint(sc: &Scenario) -> Fingerprint {
    let sink = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
    let mut sim = sc.build().expect("grid cells build");
    sim.core.add_trace_sink(Box::new(Rc::clone(&sink)));
    sim.run_until(sc.duration);
    let run = sc.finish(sim);
    let trace = Rc::try_unwrap(sink).expect("sim dropped").into_inner().into_inner();
    fingerprint_of(trace, run)
}

/// A sink attached to a built simulator sees the run from its first
/// event, and the observed run is the bare `run()`, bit for bit.
#[test]
fn a_sink_attached_after_build_sees_the_whole_run_and_changes_nothing() {
    let mut sc = hybrid_scenario(&GRID[0]);
    sc.duration = Time::from_secs(8);
    sc.warmup = Duration::from_secs(2);
    sc.seed = 55;
    let observed = fingerprint(&sc);
    let bare = sc.run();
    let (totals, aqm_updates) = (bare.counters.totals(), bare.counters.aqm_updates);
    let bare = fingerprint_of(Vec::new(), bare);
    assert_eq!(observed.1, bare.1, "metrics JSON");
    assert_eq!(observed.2, bare.2, "flow accounts");
    assert_eq!(observed.3, bare.3, "sojourn samples");
    assert_eq!(observed.4, bare.4, "background rate track");
    assert!(!bare.4.is_empty(), "the cell must be a hybrid one");
    // The stream is complete: it holds every event the always-on
    // counters saw, from t = 0 on.
    let text = String::from_utf8(observed.0).expect("JSONL is UTF-8");
    let count = |ev: &str| {
        let tag = format!("{{\"ev\":\"{ev}\"");
        text.lines().filter(|l| l.starts_with(&tag)).count() as u64
    };
    assert_eq!(count("deq"), totals.dequeued);
    assert_eq!(count("drop"), totals.dropped);
    assert_eq!(count("mark"), totals.marked);
    assert_eq!(count("aqm"), aqm_updates);
    assert!(totals.dequeued > 1000 && totals.dropped > 0);
}

/// A hybrid scenario with zero background flows must be the packet run,
/// bit for bit — nothing may be attached at all. Three AQM × mix cells,
/// under the parallel executor at 1, 2 and 4 workers.
#[test]
fn zero_background_hybrid_is_bit_identical_to_packet() {
    let cells: Vec<(&Cell, u64)> = vec![(&GRID[0], 101), (&GRID[1], 102), (&GRID[3], 103)];
    for threads in [1usize, 2, 4] {
        let failures: Vec<String> = par_map_threads(threads, &cells, |(cell, seed)| {
            let mut packet = packet_scenario(cell);
            packet.duration = Time::from_secs(6);
            packet.warmup = Duration::from_secs(2);
            packet.seed = *seed;
            let mut hybrid = packet.clone();
            hybrid.backend = Backend::Hybrid;
            hybrid.background = vec![BgGroup::new(0, cell.cc, RTT, "bg")];

            let p = fingerprint(&packet);
            let h = fingerprint(&hybrid);
            if !h.4.is_empty() {
                return Some(format!("{}: empty background left a rate track", cell.name));
            }
            if p.0 != h.0 {
                return Some(format!("{}: traces differ", cell.name));
            }
            if p.1 != h.1 {
                return Some(format!("{}: metrics JSON differs", cell.name));
            }
            if p.2 != h.2 || p.3 != h.3 {
                return Some(format!("{}: monitor accounts differ", cell.name));
            }
            None
        })
        .into_iter()
        .flatten()
        .collect();
        assert!(
            failures.is_empty(),
            "at {threads} workers:\n{}",
            failures.join("\n")
        );
    }
}

/// Hybrid runs are a pure function of the seed: the trace, the metrics
/// registry, and the background's granted-rate track all repeat exactly.
#[test]
fn hybrid_runs_are_seed_deterministic() {
    let make = || {
        let mut sc = hybrid_scenario(&GRID[0]);
        sc.duration = Time::from_secs(8);
        sc.warmup = Duration::from_secs(2);
        sc.seed = 55;
        sc
    };
    let a = fingerprint(&make());
    let b = fingerprint(&make());
    assert!(!a.4.is_empty(), "background must produce a rate track");
    assert_eq!(a.0, b.0, "traces");
    assert_eq!(a.1, b.1, "metrics JSON");
    assert_eq!(a.2, b.2, "flow accounts");
    assert_eq!(a.4, b.4, "background rate track");
    // And the background actually shapes the run: the same foreground
    // without the aggregate sees a different trace.
    let mut solo = make();
    solo.background.clear();
    let c = fingerprint(&solo);
    assert_ne!(a.0, c.0, "the background aggregate must bite");
}
