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

use pi2::prelude::*;

fn run(aqm: Box<dyn Aqm>, name: &'static str) {
    let rate = 10_000_000;
    let mut sim = Sim::new(
        SimConfig {
            queue: QueueConfig {
                rate_bps: rate,
                // A sensible home-router buffer (200 pkts) so tail-drop
                // bloat is visible but bounded.
                buffer_bytes: 200 * 1500,
            },
            seed: 99,
            monitor: MonitorConfig {
                warmup: Duration::from_secs(10),
                ..MonitorConfig::default()
            },
        },
        aqm,
    );
    let rtt = Duration::from_millis(30);
    // The call: 1 Mb/s of 500 B packets (≈ 250 pps).
    sim.add_flow(PathConf::symmetric(rtt), "call", Time::ZERO, |id| {
        Box::new(UdpCbrSource::new(id, 1_000_000, 500, Ecn::NotEct))
    });
    // Four competing Cubic uploads.
    for _ in 0..4 {
        sim.add_flow(PathConf::symmetric(rtt), "bulk", Time::ZERO, |id| {
            Box::new(TcpSource::new(
                id,
                CcKind::Cubic,
                EcnSetting::NotEcn,
                TcpConfig::default(),
            ))
        });
    }
    sim.run_until(Time::from_secs(60));
    let m = &sim.core.monitor;
    let delay = pi2::stats::Summary::of_f32(&m.sojourn_ms);
    let call = m.flow(FlowId(0));
    let loss_pct = 100.0
        * (call.sent_pkts - sim.core.counters.flow(FlowId(0)).dequeued) as f64
        / call.sent_pkts.max(1) as f64;
    println!(
        "{:<9} queue delay mean {:>6.1} ms  p99 {:>6.1} ms | call loss {:>5.2} % | bulk {:>5.2} Mb/s",
        name,
        delay.mean,
        delay.p99,
        loss_pct,
        m.pooled_mean_tput_mbps("bulk"),
    );
}

fn main() {
    println!("1 Mb/s video call + 4 Cubic uploads on a 10 Mb/s link (RTT 30 ms)\n");
    run(Box::new(PassAqm), "taildrop");
    run(Box::new(Pie::new(PieConfig::paper_default())), "pie");
    run(Box::new(Pi2::new(Pi2Config::default())), "pi2");
    println!(
        "\nTail-drop fills the whole buffer (~240 ms of bloat); the AQMs hold the\n\
         shared queue near their targets, giving the call a usable latency while\n\
         the uploads keep nearly all their throughput."
    );
}
