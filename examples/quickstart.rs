//! Quickstart: one PI2 AQM, five Reno flows, 10 Mb/s — watch the queue
//! settle at the 20 ms target while utilization stays high.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pi2::prelude::*;

fn main() {
    // A 10 Mb/s bottleneck with the paper's Table 1 buffer, guarded by a
    // PI2 AQM at its defaults (target 20 ms, alpha = 5/16, beta = 50/16).
    let mut sim = Sim::new(
        SimConfig {
            queue: QueueConfig {
                rate_bps: 10_000_000,
                buffer_bytes: 40_000 * 1500,
            },
            seed: 42,
            monitor: MonitorConfig {
                warmup: Duration::from_secs(10),
                ..MonitorConfig::default()
            },
        },
        Box::new(Pi2::new(Pi2Config::default())),
    );

    // Five long-running Reno flows over a 100 ms path.
    for _ in 0..5 {
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(100)),
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

    sim.run_until(Time::from_secs(60));

    let m = &sim.core.monitor;
    println!("t[s]  queue delay [ms]   utilization [%]");
    for ((t, d), (_, u)) in m.qdelay_series().iter().zip(&m.util_series()) {
        if *t as u64 % 5 == 0 {
            println!("{t:>4.0}  {d:>16.1}   {:>15.1}", 100.0 * u);
        }
    }

    let delay = pi2::stats::Summary::of_f32(&m.sojourn_ms);
    println!();
    println!(
        "per-packet queue delay: mean {:.1} ms, p99 {:.1} ms (target 20 ms)",
        delay.mean, delay.p99,
    );
    let tput = m.pooled_mean_tput_mbps("reno");
    println!("aggregate goodput: {tput:.2} Mb/s of 10 Mb/s");
    let f = m.flow(FlowId(0));
    println!(
        "flow 0: sent {} pkts, {} dropped by the AQM ({:.2} %)",
        f.sent_pkts,
        sim.core.counters.flow(FlowId(0)).dropped,
        100.0 * f.signal_fraction()
    );
}
