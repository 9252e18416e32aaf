//! Figure 14: CDFs of queue delay at 5 ms and 20 ms targets.
//!
//! Two panels — (a) 20 TCP flows, (b) 5 TCP + 2 UDP — each run with the
//! delay target at 5 ms (upper row) and 20 ms (lower row), PIE vs PI2.
//! The paper's claim is a negative one: the CDFs are essentially the
//! same, i.e. PI2's simplicity costs nothing in delay distribution.

use crate::scenario::{AqmKind, FlowGroup, Scenario, UdpGroup};
use pi2_aqm::{Pi2Config, PieConfig};
use pi2_simcore::{Duration, Time};
use pi2_stats::Cdf;
use pi2_transport::{CcKind, EcnSetting};

/// One AQM × target × panel result.
#[derive(Clone, Debug)]
pub struct Fig14Run {
    /// AQM name.
    pub aqm: &'static str,
    /// Delay target in ms (5 or 20).
    pub target_ms: i64,
    /// Panel: true for the UDP mix (b), false for 20 TCP (a).
    pub udp_mix: bool,
    /// The per-packet queue-delay CDF.
    pub cdf: Cdf,
}

/// Run one combination.
pub fn run_one(pie: bool, target_ms: i64, udp_mix: bool, seed: u64) -> Fig14Run {
    let target = Duration::from_millis(target_ms);
    let aqm = if pie {
        AqmKind::Pie(PieConfig {
            target,
            ..PieConfig::paper_default()
        })
    } else {
        AqmKind::Pi2(Pi2Config {
            target,
            ..Pi2Config::default()
        })
    };
    let rtt = Duration::from_millis(100);
    let mut sc = Scenario::new(aqm, 10_000_000);
    let tcp_count = if udp_mix { 5 } else { 20 };
    sc.tcp.push(FlowGroup::new(tcp_count, CcKind::Reno, EcnSetting::NotEcn, "reno", rtt));
    if udp_mix {
        sc.udp.push(UdpGroup::paper_probes(2, rtt));
    }
    sc.duration = Time::from_secs(100);
    sc.warmup = Duration::from_secs(20);
    sc.seed = seed;
    let r = sc.run();
    Fig14Run {
        aqm: if pie { "pie" } else { "pi2" },
        target_ms,
        udp_mix,
        cdf: Cdf::from_f32(&r.monitor.sojourn_ms),
    }
}

/// The full figure: 2 AQMs × 2 targets × 2 panels, every run at `seed`.
pub fn fig14(seed: u64) -> Vec<Fig14Run> {
    let mut out = Vec::new();
    for &udp_mix in &[false, true] {
        for &target in &[5i64, 20] {
            out.push(run_one(true, target, udp_mix, seed));
            out.push(run_one(false, target, udp_mix, seed));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smaller_target_shifts_the_cdf_left() {
        let d5 = run_one(false, 5, false, 7);
        let d20 = run_one(false, 20, false, 7);
        let m5 = d5.cdf.quantile(0.5);
        let m20 = d20.cdf.quantile(0.5);
        assert!(
            m5 < m20,
            "5 ms target median {m5:.1} ms should be below 20 ms target median {m20:.1} ms"
        );
    }
}
