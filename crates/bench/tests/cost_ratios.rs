//! Cost ratios that hold on any host.
//!
//! Absolute nanoseconds on a shared machine say little: the clock here
//! throttles, and the same binary reads several times dearer from one
//! minute to the next. A ratio of two runs made back to back in one
//! process moves with neither, so each check below times its two sides
//! in pairs, alternating which goes first, and judges the median of the
//! per-pair ratios. Absolute costs are the `benchmark/` package's job.
//!
//! Release only (an unoptimised build prices debug assertions, not the
//! engine), and serialised, so no pair shares the machine with another
//! test of this binary. So the tier-1 `cargo test`, a debug build, runs
//! none of it, and `scripts/ci.sh`'s release workspace stage is where
//! these bands are checked. Built in debug for six runs on 2 vCPUs, all
//! three held: fluid / packet 0.018–0.025, metrics on / off 1.009–1.067,
//! PIE / PI2 1.083–1.140.

#![cfg(not(debug_assertions))]

mod common;

use pi2_aqm::{Pi2Config, Pie, PieConfig};
use pi2_bench::perf::median;
use pi2_experiments::{run_fluid, AqmKind, FlowGroup, Scenario};
use pi2_netsim::Sim;
use pi2_simcore::{Duration, Time};
use pi2_transport::{CcKind, EcnSetting};
use std::sync::Mutex;
use std::time::Instant;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The bare cell's base RTT.
const RTT: Duration = Duration::from_millis(20);

/// Median of `num() / den()` over `pairs` back-to-back pairs, after one
/// discarded warm-up pair.
fn paired_ratio(pairs: usize, mut num: impl FnMut() -> f64, mut den: impl FnMut() -> f64) -> f64 {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let ratios: Vec<f64> = (0..=pairs)
        .map(|i| {
            if i % 2 == 0 {
                let n = num();
                n / den()
            } else {
                let d = den();
                num() / d
            }
        })
        .skip(1)
        .collect();
    median(&ratios)
}

/// Wall nanoseconds per dequeued packet of five simulated seconds of the
/// bare cell. Per packet, not per event: a run simulates the same packets
/// whatever the engine does with its timers.
fn ns_per_pkt(mut sim: Sim) -> f64 {
    let wall = Instant::now();
    sim.run_until(Time::from_secs(5));
    let ns = wall.elapsed().as_nanos() as f64;
    ns / sim.core.counters.totals().dequeued as f64
}

/// The `pi2_obs` registry is a pure observer and must stay a cheap one:
/// at most 15 % on the cost of a packet.
#[test]
fn metrics_cost_at_most_15_percent_per_packet() {
    let ratio = paired_ratio(
        15,
        || {
            let mut sim = common::build(common::pi2(), RTT);
            sim.core.enable_metrics();
            ns_per_pkt(sim)
        },
        || ns_per_pkt(common::build(common::pi2(), RTT)),
    );
    eprintln!("metrics on / off, per packet: {ratio:.3}");
    assert!(ratio <= 1.15, "metrics on / off = {ratio:.3}, allowed 1.15");
}

/// Both AQMs run on the identical engine, so this ratio isolates what is
/// specific to one of them: outside the band, PIE's or PI2's own code (or
/// the traffic it shapes) changed.
#[test]
fn pie_costs_between_0_9_and_2_times_pi2_per_packet() {
    let ratio = paired_ratio(
        15,
        || ns_per_pkt(common::build(Box::new(Pie::new(PieConfig::paper_default())), RTT)),
        || ns_per_pkt(common::build(common::pi2(), RTT)),
    );
    eprintln!("PIE / PI2, per packet: {ratio:.3}");
    assert!(
        (0.9..=2.0).contains(&ratio),
        "PIE / PI2 = {ratio:.3}, band 0.9..=2.0"
    );
}

/// `n_flows` Reno flows at 100 kb/s each under PI2, 50 ms RTT, 20 s: the
/// same operating point at every population.
fn population(n_flows: usize) -> Scenario {
    let mut sc = Scenario::new(
        AqmKind::Pi2(Pi2Config::default()),
        100_000 * n_flows as u64,
    );
    sc.tcp.push(FlowGroup::new(
        n_flows,
        CcKind::Reno,
        EcnSetting::NotEcn,
        "reno",
        Duration::from_millis(50),
    ));
    sc.duration = Time::from_secs(20);
    sc.warmup = Duration::from_secs(5);
    sc.seed = 7;
    sc
}

fn wall_secs(run: impl FnOnce()) -> f64 {
    let wall = Instant::now();
    run();
    wall.elapsed().as_secs_f64()
}

/// The fluid engine's cost depends on the class count and not on the
/// population, which is the reason it exists: a hundred times the flows
/// must still take less wall time than the packet engine.
#[test]
fn fluid_at_100k_flows_is_faster_than_packet_at_1k() {
    let (fluid, packet) = (population(100_000), population(1_000));
    let ratio = paired_ratio(
        5,
        || wall_secs(|| drop(run_fluid(&fluid).expect("PI2 maps onto the fluid engine"))),
        || wall_secs(|| drop(packet.run())),
    );
    eprintln!("fluid 100k / packet 1k, wall: {ratio:.4}");
    assert!(ratio < 1.0, "fluid 100k / packet 1k = {ratio:.4}, must be < 1");
}
