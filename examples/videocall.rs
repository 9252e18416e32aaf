//! A latency-sensitive application sharing the bottleneck with bulk TCP —
//! the motivating scenario of the paper's introduction.
//!
//! A 1 Mb/s CBR "video call" shares a 10 Mb/s link with four Cubic
//! uploads. The call's packets ride the same queue, so its end-to-end
//! latency is base RTT + whatever queue the AQM tolerates. We compare
//! tail-drop (bufferbloat), PIE and PI2 on the call's per-packet delay
//! distribution.
//!
//! ```text
//! cargo run --release --example videocall
//! ```

use pi2::experiments::{AqmKind, FlowGroup, Scenario, UdpGroup};
use pi2::prelude::*;

fn run(aqm: AqmKind) {
    let name = aqm.name();
    let mut sc = Scenario::new(aqm, 10_000_000);
    // A sensible home-router buffer (200 pkts) so tail-drop bloat is
    // visible but bounded.
    sc.buffer_bytes = 200 * 1500;
    let rtt = Duration::from_millis(30);
    // Four competing Cubic uploads.
    sc.tcp.push(FlowGroup::new(4, CcKind::Cubic, EcnSetting::NotEcn, "bulk", rtt));
    // The call: 1 Mb/s of 500 B packets (≈ 250 pps).
    sc.udp.push(UdpGroup {
        rate_bps: 1_000_000,
        pkt_size: 500,
        label: "call".into(),
        ..UdpGroup::paper_probes(1, rtt)
    });
    sc.duration = Time::from_secs(60);
    sc.warmup = Duration::from_secs(10);
    sc.seed = 99;
    let r = sc.run();
    let delay = r.delay_summary();
    let call = FlowId(r.monitor.flows_labelled("call")[0] as u32);
    let sent = r.monitor.flow(call).sent_pkts;
    let loss_pct = 100.0 * (sent - r.counters.flow(call).dequeued) as f64 / sent.max(1) as f64;
    println!(
        "{:<9} queue delay mean {:>6.1} ms  p99 {:>6.1} ms | call loss {:>5.2} % | bulk {:>5.2} Mb/s",
        name,
        delay.mean,
        delay.p99,
        loss_pct,
        r.tput_mbps("bulk"),
    );
}

fn main() {
    println!("1 Mb/s video call + 4 Cubic uploads on a 10 Mb/s link (RTT 30 ms)\n");
    run(AqmKind::TailDrop);
    run(AqmKind::pie_default());
    run(AqmKind::pi2_default());
    println!(
        "\nTail-drop fills the whole buffer (~240 ms of bloat); the AQMs hold the\n\
         shared queue near their targets, giving the call a usable latency while\n\
         the uploads keep nearly all their throughput."
    );
}
