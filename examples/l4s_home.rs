//! "Data Centre to the Home" — the paper's destination, demonstrated.
//!
//! A home link carries a mix the single queue cannot serve well: bulk
//! Cubic downloads, a DCTCP-style low-latency app (cloud gaming / remote
//! desktop), and a video call. Compare the paper's single-queue coupled
//! AQM (Scalable traffic shares the 20 ms Classic queue) against the
//! DualPI2 extension (Scalable traffic gets its own sub-millisecond
//! queue), at equal throughputs.
//!
//! ```text
//! cargo run --release --example l4s_home
//! ```

use pi2::aqm::{DualPi2, DualPi2Config};
use pi2::netsim::Qdisc;
use pi2::prelude::*;
use pi2::stats::Summary;

struct Outcome {
    name: &'static str,
    game_delay: Summary,
    bulk_delay: Summary,
    game_mbps: f64,
    bulk_mbps: f64,
    call_p99: f64,
}

fn scenario(sim: &mut Sim) {
    let rtt = Duration::from_millis(20);
    // Two bulk Cubic downloads.
    for _ in 0..2 {
        sim.add_flow(PathConf::symmetric(rtt), "bulk", Time::ZERO, |id| {
            Box::new(TcpSource::new(
                id,
                CcKind::Cubic,
                EcnSetting::NotEcn,
                TcpConfig::default(),
            ))
        });
    }
    // The low-latency app: a DCTCP (Scalable/L4S) flow.
    sim.add_flow(PathConf::symmetric(rtt), "game", Time::ZERO, |id| {
        Box::new(TcpSource::new(
            id,
            CcKind::Dctcp,
            EcnSetting::Scalable,
            TcpConfig::default(),
        ))
    });
    // A 1 Mb/s video call (unresponsive, Not-ECT -> Classic queue).
    sim.add_flow(PathConf::symmetric(rtt), "call", Time::ZERO, |id| {
        Box::new(UdpCbrSource::new(id, 1_000_000, 500, Ecn::NotEct))
    });
}

fn monitor_cfg() -> MonitorConfig {
    MonitorConfig {
        warmup: Duration::from_secs(15),
        record_flow_sojourns: true,
        ..MonitorConfig::default()
    }
}

fn harvest(sim: &Sim, name: &'static str) -> Outcome {
    let m = &sim.core.monitor;
    Outcome {
        name,
        game_delay: Summary::over(m.labelled("game").map(|f| &f.sojourn_ms[..]), f64::from),
        bulk_delay: Summary::over(m.labelled("bulk").map(|f| &f.sojourn_ms[..]), f64::from),
        game_mbps: m.pooled_mean_tput_mbps("game"),
        bulk_mbps: m.pooled_mean_tput_mbps("bulk"),
        call_p99: Summary::over(m.labelled("call").map(|f| &f.sojourn_ms[..]), f64::from).p99,
    }
}

fn main() {
    let rate = 50_000_000;
    println!("home link: 50 Mb/s, 20 ms RTT; 2 Cubic bulk + 1 DCTCP app + 1 video call\n");

    // Single-queue coupled PI2 (the paper's interim arrangement).
    let mut sim = Sim::new(
        SimConfig {
            queue: QueueConfig {
                rate_bps: rate,
                buffer_bytes: 40_000 * 1500,
            },
            seed: 7,
            monitor: monitor_cfg(),
        },
        Box::new(CoupledPi2::new(CoupledPi2Config::default())),
    );
    scenario(&mut sim);
    sim.run_until(Time::from_secs(60));
    let single = harvest(&sim, "coupled single-queue");

    // DualPI2 (the paper's recommended destination).
    let mut sim = Sim::with_qdisc(
        SimConfig {
            seed: 7,
            monitor: monitor_cfg(),
            ..SimConfig::default()
        },
        Box::new(DualPi2::new(DualPi2Config::for_link(rate))) as Box<dyn Qdisc>,
    );
    scenario(&mut sim);
    sim.run_until(Time::from_secs(60));
    let dual = harvest(&sim, "DualPI2 two-queue");

    println!(
        "{:<22} {:>14} {:>14} {:>10} {:>10} {:>12}",
        "qdisc", "app p50/p99 ms", "bulk p50/p99", "app Mb/s", "bulk Mb/s", "call p99 ms"
    );
    for o in [&single, &dual] {
        println!(
            "{:<22} {:>6.2} /{:>6.2} {:>6.1} /{:>6.1} {:>10.1} {:>10.1} {:>12.1}",
            o.name,
            o.game_delay.p50,
            o.game_delay.p99,
            o.bulk_delay.p50,
            o.bulk_delay.p99,
            o.game_mbps,
            o.bulk_mbps,
            o.call_p99,
        );
    }
    println!(
        "\nIn the single queue the low-latency app stands in the same 20 ms line as\n\
         the downloads. The DualQ gives it its own sub-millisecond queue while the\n\
         Classic traffic keeps its usual service — same link, same flows, ~20x\n\
         less latency for the app that cares. (The video call is Not-ECT, so it\n\
         stays in the Classic queue; marking it ECT(1) would move it to the fast\n\
         lane — the L4S deployment incentive in one line of config.)"
    );
}
