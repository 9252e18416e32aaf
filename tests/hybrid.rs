//! Backend conformance suite: the one model-agreement grid
//! (`pi2_validate::grid`) under all three execution backends, plus the
//! hybrid identity and determinism oracles.
//!
//! The contract under test:
//!
//! * **agreement** — every (cell, model) pair of the grid — the delay-ODE,
//!   the flow-level engine (no packet events at all) and hybrid mode (most
//!   of the population moved into the fluid background aggregate) — lands
//!   inside the `pi2_validate::bands()` table against the cell's
//!   all-packet reference, and `pi2fig validate_grid` prints
//!   `results/validate_grid.txt` byte for byte;
//! * **identity** — a hybrid run with zero background flows is the
//!   packet run, bit for bit (event trace, metrics registry JSON,
//!   monitor accounts), under the parallel sweep executor at 1, 2 and
//!   4 workers;
//! * **determinism** — hybrid runs are a pure function of the seed,
//!   including the background's granted-rate track.

use pi2::experiments::runner::par_map_threads;
use pi2::experiments::{Backend, BgGroup, RunResult, Scenario};
use pi2::netsim::{JsonlSink, RunColumn};
use pi2::prelude::*;
use pi2::validate::differential::BASE_RTT;
use pi2::validate::{grid, Cell};
use pi2_bench::figures::{select, Knobs, Session};
use std::cell::RefCell;
use std::rc::Rc;

/// A cell of the validate grid, by name; every test below sets its own
/// seed on the scenarios it builds from it.
fn cell(name: &str) -> Cell {
    let found = grid(0).into_iter().find(|c| c.name == name);
    found.unwrap_or_else(|| panic!("no cell {name} in the grid"))
}

/// The conformance headline: every grid cell, every model judged on it,
/// every metric inside the shared tolerance bands — through the figure
/// row, which fails on a pair outside its band, and held to its archive.
#[test]
fn all_backends_agree_inside_the_validate_bands() {
    let row = select(&["validate_grid".to_string()]).expect("a pi2fig row")[0];
    let mut out = Vec::new();
    let verdict = row.render(&Session::new(Knobs::default()), &mut out);
    let text = String::from_utf8(out).expect("the table is UTF-8");
    assert!(verdict.is_ok(), "{verdict:?}\n{text}");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/validate_grid.txt");
    let archived = std::fs::read_to_string(path).expect("the archive");
    assert!(text == archived, "pi2fig validate_grid no longer prints {path}:\n{text}");
}

/// Everything a packet/hybrid run observably produces, for bit-identity:
/// the JSONL event stream, the metrics JSON, the per-flow accounts, the
/// sojourn samples and the background's rate track.
type Fingerprint = (Vec<u8>, String, Vec<(u64, u64, u64, u64)>, RunColumn, Vec<(f64, u64)>);

fn fingerprint_of(trace: Vec<u8>, run: RunResult) -> Fingerprint {
    let metrics_json = run.metrics.as_ref().expect("scenario runs record metrics").registry().to_json();
    let flows = (run.monitor.flows.iter().enumerate())
        .map(|(i, f)| {
            let c = run.counters.flow(FlowId(i as u32));
            (f.sent_pkts, f.dequeued_bytes, c.marked, c.dropped)
        })
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
    let mut sc = cell("pi2-reno").hybrid_scenario();
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
    let cells = [(cell("pi2-reno"), 101u64), (cell("pi2-scal"), 102), (cell("dualq-scal"), 103)];
    for threads in [1usize, 2, 4] {
        let failures: Vec<String> = par_map_threads(threads, &cells, |(cell, seed)| {
            let mut packet = cell.packet_scenario();
            packet.duration = Time::from_secs(6);
            packet.warmup = Duration::from_secs(2);
            packet.seed = *seed;
            let mut hybrid = packet.clone();
            hybrid.backend = Backend::Hybrid;
            hybrid.background = vec![BgGroup::new(0, cell.cc, BASE_RTT, "bg")];

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
        let mut sc = cell("pi2-reno").hybrid_scenario();
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
