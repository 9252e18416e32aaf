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

use pi2::experiments::{AqmKind, FlowGroup, RunResult, Scenario, UdpGroup};
use pi2::prelude::*;

const RATE_BPS: u64 = 50_000_000;

fn run(aqm: AqmKind) -> RunResult {
    let mut sc = Scenario::new(aqm, RATE_BPS);
    let rtt = Duration::from_millis(20);
    // Two bulk Cubic downloads.
    sc.tcp.push(FlowGroup::new(2, CcKind::Cubic, EcnSetting::NotEcn, "bulk", rtt));
    // The low-latency app: a DCTCP (Scalable/L4S) flow.
    sc.tcp.push(FlowGroup::new(1, CcKind::Dctcp, EcnSetting::Scalable, "game", rtt));
    // A 1 Mb/s video call (unresponsive, Not-ECT -> Classic queue).
    sc.udp.push(UdpGroup {
        rate_bps: 1_000_000,
        pkt_size: 500,
        label: "call".into(),
        ..UdpGroup::paper_probes(1, rtt)
    });
    sc.duration = Time::from_secs(60);
    sc.warmup = Duration::from_secs(15);
    sc.seed = 7;
    sc.per_flow_sojourns = true;
    sc.run()
}

fn main() {
    println!("home link: 50 Mb/s, 20 ms RTT; 2 Cubic bulk + 1 DCTCP app + 1 video call\n");
    let outcomes = [
        // Single-queue coupled PI2 (the paper's interim arrangement).
        ("coupled single-queue", run(AqmKind::coupled_default())),
        // DualPI2 (the paper's recommended destination).
        ("DualPI2 two-queue", run(AqmKind::dualq_default(RATE_BPS))),
    ];

    println!(
        "{:<22} {:>14} {:>14} {:>10} {:>10} {:>12}",
        "qdisc", "app p50/p99 ms", "bulk p50/p99", "app Mb/s", "bulk Mb/s", "call p99 ms"
    );
    for (qdisc, r) in &outcomes {
        let (game, bulk) = (r.flow_delay_summary("game"), r.flow_delay_summary("bulk"));
        println!(
            "{:<22} {:>6.2} /{:>6.2} {:>6.1} /{:>6.1} {:>10.1} {:>10.1} {:>12.1}",
            qdisc,
            game.p50,
            game.p99,
            bulk.p50,
            bulk.p99,
            r.tput_mbps("game"),
            r.tput_mbps("bulk"),
            r.flow_delay_summary("call").p99,
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
