//! Quickstart: one PI2 AQM, five Reno flows, 10 Mb/s — watch the queue
//! settle at the 20 ms target while utilization stays high.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pi2::experiments::{AqmKind, FlowGroup, Scenario};
use pi2::prelude::*;

fn main() {
    // A 10 Mb/s bottleneck with the paper's Table 1 buffer, guarded by a
    // PI2 AQM at its defaults (target 20 ms, alpha = 5/16, beta = 50/16).
    let mut sc = Scenario::new(AqmKind::pi2_default(), 10_000_000);
    // Five long-running Reno flows over a 100 ms path.
    let rtt = Duration::from_millis(100);
    sc.tcp.push(FlowGroup::new(5, CcKind::Reno, EcnSetting::NotEcn, "reno", rtt));
    sc.duration = Time::from_secs(60);
    sc.warmup = Duration::from_secs(10);
    sc.seed = 42;
    let r = sc.run();

    let m = &r.monitor;
    println!("t[s]  queue delay [ms]   utilization [%]");
    for ((t, d), (_, u)) in m.qdelay_series().iter().zip(&m.util_series()) {
        if *t as u64 % 5 == 0 {
            println!("{t:>4.0}  {d:>16.1}   {:>15.1}", 100.0 * u);
        }
    }

    let delay = r.delay_summary();
    println!();
    println!(
        "per-packet queue delay: mean {:.1} ms, p99 {:.1} ms (target 20 ms)",
        delay.mean, delay.p99,
    );
    println!("aggregate goodput: {:.2} Mb/s of 10 Mb/s", r.tput_mbps("reno"));
    let f = m.flow(FlowId(0));
    println!(
        "flow 0: sent {} pkts, {} dropped by the AQM ({:.2} %)",
        f.sent_pkts,
        r.counters.flow(FlowId(0)).dropped,
        100.0 * f.signal_fraction()
    );
}
