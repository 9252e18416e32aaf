//! Backend scaling bench: wall-clock cost of the packet backend at
//! 1 000 flows vs the fluid backend from 1 000 up to 1 000 000 flows,
//! one 1 000-class fluid cell, plus two hybrid cells (packet foreground +
//! fluid background): one class of 990 flows, and the 1 000 classes.
//!
//! The fluid engine's cost per step depends on the class count and not on
//! the flow population, so the headline claim — a 100 000-flow fluid run
//! finishes in less wall time than a 1 000-flow packet run — is enforced
//! here as a gate (exit 1 on violation). The population cells have one
//! class and run in about a millisecond, inside timer noise, so each is
//! repeated until a sample spans 100 ms and reported per run.
//!
//! The 1 000-class cell is the one that exercises the allocator: a step is
//! one pass over the classes, a repair of the water-filling order kept
//! from the step before, and one fill. Windows drift smoothly, so
//! neighbours in demand order rarely swap within one step and the repair
//! finds almost nothing to move; `fluid_1kclass_order_moves` counts the
//! entries it did move (deterministic: `bench_compare` diffs it exactly)
//! and `fluid_1kclass_ns_per_class_step` is the cost (gated like
//! `*_ns_per_pkt`). Sorting from scratch every step, as the engine once
//! did, reads about three times dearer. The same population as the
//! background of a hybrid cell under ten UDP probes is the coupling's row:
//! the packet side is ten CBR flows, so `hybrid_1kclass_ns_per_class_step`
//! (wall over classes × 1 ms sub-steps) is `FlowLevelSim::tick_external`.
//!
//! Recorded under the `hybrid` bench name in the history file
//! (`PI2_BENCH_OUT`, default the committed `BENCH_pi2.json`).

use pi2_aqm::Pi2Config;
use pi2_bench::header;
use pi2_experiments::{
    run_fluid, summarize_scenario_run, AqmKind, BgGroup, FlowGroup, FluidRunResult, Scenario,
    UdpGroup,
};
use pi2_simcore::{Duration, Rng, Time};
use pi2_transport::{CcKind, EcnSetting};
use std::time::Instant;

/// Per-flow capacity share: 100 kb/s each keeps every population at the
/// same sane operating point (the fluid engine's wall cost does not
/// depend on the rates, only the class count and step count).
const BPS_PER_FLOW: u64 = 100_000;

fn scenario(n_flows: usize, secs: u64) -> Scenario {
    let mut sc = Scenario::new(
        AqmKind::Pi2(Pi2Config::default()),
        BPS_PER_FLOW * n_flows as u64,
    );
    sc.tcp.push(FlowGroup::new(
        n_flows,
        CcKind::Reno,
        EcnSetting::NotEcn,
        "reno",
        Duration::from_millis(50),
    ));
    sc.duration = Time::from_secs(secs);
    sc.warmup = Duration::from_secs((secs / 4) as i64);
    sc.seed = 7;
    sc
}

const KCLASS_CLASSES: usize = 1_000;

fn many_class_scenario(secs: u64) -> Scenario {
    let mut sc = scenario(KCLASS_CLASSES * 1_000, secs);
    sc.aqm = AqmKind::coupled_default();
    let mut rng = Rng::new(sc.seed);
    sc.tcp = (0..KCLASS_CLASSES)
        .map(|i| {
            let rtt = Duration::from_micros(rng.range_u64(5_000, 200_000) as i64);
            let (cc, ecn) = if i % 2 == 0 {
                (CcKind::Reno, EcnSetting::NotEcn)
            } else {
                (CcKind::Dctcp, EcnSetting::Scalable)
            };
            FlowGroup::new(1_000, cc, ecn, "class", rtt)
        })
        .collect();
    sc
}

/// Run `sc` on the fluid backend until 100 ms have passed; the result of
/// the last run and the mean wall seconds of one.
fn time_fluid(sc: &Scenario) -> (FluidRunResult, f64) {
    let wall = Instant::now();
    let mut runs = 0u32;
    loop {
        let r = run_fluid(sc).expect("the AQM maps onto the fluid engine");
        runs += 1;
        let elapsed = wall.elapsed().as_secs_f64();
        if elapsed >= 0.1 {
            return (r, elapsed / f64::from(runs));
        }
    }
}

fn main() {
    header(
        "Backend scaling: packet vs fluid vs hybrid",
        "PI2, Reno, 100 kb/s per flow, 20 simulated seconds per cell",
    );
    let secs = 20u64;
    let mut metrics: Vec<(String, f64)> = vec![("sim_secs".to_string(), secs as f64)];

    // Packet reference: 1 000 flows, every packet an event.
    let sc = scenario(1_000, secs);
    let wall = Instant::now();
    let run = sc.run();
    let packet_wall = wall.elapsed().as_secs_f64();
    let s = summarize_scenario_run(&sc, &run);
    println!(
        "packet   {:>9} flows  wall {packet_wall:>8.3} s   util {:>5.1} %  qdelay {:>6.2} ms",
        1_000,
        100.0 * s.utilization,
        s.qdelay_s * 1e3
    );
    metrics.push(("packet_1k_wall_secs".to_string(), packet_wall));
    metrics.push(("packet_1k_utilization".to_string(), s.utilization));

    // Fluid sweep: same scenario shape, population 1k → 1M.
    let mut fluid_100k_wall = f64::INFINITY;
    for n in [1_000usize, 10_000, 100_000, 1_000_000] {
        let sc = scenario(n, secs);
        let (r, w) = time_fluid(&sc);
        println!(
            "fluid    {:>9} flows  wall {w:>8.6} s   util {:>5.1} %  qdelay {:>6.2} ms",
            r.flow_count,
            100.0 * r.summary.utilization,
            r.summary.qdelay_s * 1e3
        );
        let tag = if n == 1_000_000 {
            "1m".to_string()
        } else {
            format!("{}k", n / 1_000)
        };
        metrics.push((format!("fluid_{tag}_wall_secs"), w));
        if n == 100_000 {
            fluid_100k_wall = w;
            metrics.push(("fluid_100k_utilization".to_string(), r.summary.utilization));
            metrics.push(("fluid_100k_qdelay_s".to_string(), r.summary.qdelay_s));
        }
    }

    // 1 000 classes of 1 000 flows, base RTTs spread over 5–200 ms, Reno
    // and DCTCP alternating: the allocator has a real order to keep.
    let sc = many_class_scenario(secs);
    let (r, w) = time_fluid(&sc);
    let class_steps = (KCLASS_CLASSES as u64 * secs * 1_000) as f64;
    let ns_per_class_step = w * 1e9 / class_steps;
    println!(
        "fluid    {:>9} flows  wall {w:>8.6} s   util {:>5.1} %  qdelay {:>6.2} ms  \
         ({KCLASS_CLASSES} classes: {ns_per_class_step:.1} ns per class-step, \
         {} order entries moved, {} reallocations)",
        r.flow_count,
        100.0 * r.summary.utilization,
        r.summary.qdelay_s * 1e3,
        r.order_moves,
        r.alloc_events
    );
    metrics.push((
        "fluid_1kclass_ns_per_class_step".to_string(),
        ns_per_class_step,
    ));
    metrics.push((
        "fluid_1kclass_order_moves".to_string(),
        r.order_moves as f64,
    ));

    // One hybrid cell: 10 packet foreground flows riding on a 990-flow
    // fluid background — the mode's intended shape (inspect a few real
    // flows inside a population too big to simulate per-packet).
    let mut sc = scenario(1_000, secs);
    sc.tcp[0].count = 10;
    sc.backend = pi2_experiments::Backend::Hybrid;
    sc.background = vec![BgGroup::new(
        990,
        CcKind::Reno,
        Duration::from_millis(50),
        "bg-reno",
    )];
    let wall = Instant::now();
    let run = sc.run();
    let hybrid_wall = wall.elapsed().as_secs_f64();
    let s = summarize_scenario_run(&sc, &run);
    let bg = run.background.as_ref().expect("hybrid run carries background");
    println!(
        "hybrid   {:>9} flows  wall {hybrid_wall:>8.3} s   util {:>5.1} %  qdelay {:>6.2} ms  \
         ({} packet + {} fluid)",
        1_000,
        100.0 * s.utilization,
        s.qdelay_s * 1e3,
        10,
        bg.flow_count
    );
    metrics.push(("hybrid_1k_wall_secs".to_string(), hybrid_wall));
    metrics.push(("hybrid_1k_utilization".to_string(), s.utilization));

    // The 1 000 classes again, as the background of ten UDP probes: the
    // packet side does next to nothing, so this is the cost of the
    // coupling — every class advanced in 1 ms sub-steps, tick by tick.
    let mut sc = many_class_scenario(secs);
    sc.backend = pi2_experiments::Backend::Hybrid;
    let classes = std::mem::take(&mut sc.tcp);
    let as_background = |g: &FlowGroup| BgGroup::new(g.count, g.cc, g.rtt, "bg");
    sc.background = classes.iter().map(as_background).collect();
    let probes = UdpGroup::paper_probes(10, Duration::from_millis(50));
    sc.udp.push(probes);
    let wall = Instant::now();
    let run = sc.run();
    let hybrid_wall = wall.elapsed().as_secs_f64();
    let s = summarize_scenario_run(&sc, &run);
    let bg = run
        .background
        .as_ref()
        .expect("hybrid run carries background");
    let ns_per_class_step = hybrid_wall * 1e9 / class_steps;
    println!(
        "hybrid   {:>9} flows  wall {hybrid_wall:>8.3} s   util {:>5.1} %  qdelay {:>6.2} ms  \
         ({KCLASS_CLASSES} classes: {ns_per_class_step:.1} ns per class-step, {} ticks)",
        bg.flow_count,
        100.0 * s.utilization,
        s.qdelay_s * 1e3,
        bg.ticks
    );
    metrics.push((
        "hybrid_1kclass_ns_per_class_step".to_string(),
        ns_per_class_step,
    ));

    let speedup = packet_wall / fluid_100k_wall.max(1e-9);
    metrics.push(("fluid_100k_speedup_vs_packet_1k".to_string(), speedup));
    println!(
        "fluid 100k vs packet 1k: {speedup:.0}x faster \
         ({fluid_100k_wall:.3} s vs {packet_wall:.3} s)"
    );
    // The headline claim is a gate, not just a record.
    if fluid_100k_wall >= packet_wall {
        eprintln!(
            "BACKEND GATE FAILED: fluid at 100k flows ({fluid_100k_wall:.3} s) \
             must beat packet at 1k flows ({packet_wall:.3} s)"
        );
        std::process::exit(1);
    }
    pi2_bench::perf::record_and_report("hybrid", metrics);
}
