//! Coexistence demo — the paper's headline result.
//!
//! One Cubic flow and one DCTCP flow share a 40 Mb/s bottleneck. Under
//! PIE, DCTCP's aggressive response starves Cubic (~10×). Under the
//! coupled PI2 AQM, marking DCTCP with `p'` and dropping Cubic with
//! `(p'/2)²` rebalances them to ≈ equal rates.
//!
//! ```text
//! cargo run --release --example coexistence
//! ```

use pi2::experiments::{AqmKind, FlowGroup, RunResult, Scenario};
use pi2::prelude::*;

fn run(aqm: AqmKind) -> RunResult {
    let mut sc = Scenario::new(aqm, 40_000_000);
    let rtt = Duration::from_millis(10);
    sc.tcp.push(FlowGroup::new(1, CcKind::Cubic, EcnSetting::NotEcn, "cubic", rtt));
    sc.tcp.push(FlowGroup::new(1, CcKind::Dctcp, EcnSetting::Scalable, "dctcp", rtt));
    sc.duration = Time::from_secs(60);
    sc.warmup = Duration::from_secs(15);
    sc.seed = 5;
    sc.run()
}

fn main() {
    println!("one Cubic vs one DCTCP flow, 40 Mb/s, RTT 10 ms, 60 s\n");
    let outcomes = [
        ("PIE", run(AqmKind::pie_default())),
        ("coupled PI2 (k=2)", run(AqmKind::coupled_default())),
    ];
    println!(
        "{:<18} {:>11} {:>11} {:>12} {:>12} {:>12} {:>12}",
        "AQM", "cubic Mb/s", "dctcp Mb/s", "ratio c/d", "qdelay ms", "cubic sig %", "dctcp sig %"
    );
    for (aqm, r) in &outcomes {
        let (cubic, dctcp) = (r.tput_mbps("cubic"), r.tput_mbps("dctcp"));
        println!(
            "{:<18} {:>11.2} {:>11.2} {:>12.3} {:>12.1} {:>12.3} {:>12.2}",
            aqm,
            cubic,
            dctcp,
            cubic / dctcp,
            r.delay_summary().mean,
            100.0 * r.monitor.flows[0].signal_fraction(),
            100.0 * r.monitor.flows[1].signal_fraction()
        );
    }
    println!(
        "\nPIE applies the same probability to both flows, so DCTCP (window 2/p)\n\
         crushes Cubic (window 1.68/sqrt(p)). The coupled AQM counterbalances the\n\
         aggression: DCTCP sees the much stronger signal ps while Cubic sees only\n\
         (ps/2)^2, and the rates meet in the middle."
    );
}
