//! The DualQ Coupled extension experiment ("Data Centre to the Home").
//!
//! The single-queue arrangement evaluated in the paper forces Scalable
//! traffic to suffer the Classic queue's 20 ms. Section 7 points to the
//! DualQ as the recommended deployment; this experiment demonstrates it:
//! DCTCP and Cubic share a DualPI2 bottleneck at ≈ equal windows while
//! the DCTCP packets wait 1.3 to 2.1 packet serialisation times (their
//! own included: the link sends what it committed to when it started, so
//! an L packet that arrives behind a C packet on the wire waits for it)
//! and the Cubic packets their usual near-target delay.

use crate::isolation::scenario;
use crate::scenario::AqmKind;
use pi2_simcore::Duration;
use pi2_stats::Summary;

/// Result of one DualQ run.
#[derive(Clone, Debug)]
pub struct DualQResult {
    /// Per-flow Cubic throughput (Mb/s).
    pub cubic_mbps: f64,
    /// Per-flow DCTCP throughput (Mb/s).
    pub dctcp_mbps: f64,
    /// Queue delay seen by DCTCP (L-queue) packets, ms.
    pub l_delay: Summary,
    /// Queue delay seen by Cubic (C-queue) packets, ms.
    pub c_delay: Summary,
    /// Mean utilization (%).
    pub util_pct: f64,
}

/// Run `n_cubic` Cubic + `n_dctcp` DCTCP flows over a DualPI2 bottleneck.
pub fn run(
    rate_bps: u64,
    rtt: Duration,
    n_cubic: usize,
    n_dctcp: usize,
    duration_s: u64,
    seed: u64,
) -> DualQResult {
    let aqm = AqmKind::dualq_default(rate_bps);
    let r = scenario(aqm, rate_bps, rtt, (n_cubic, n_dctcp), duration_s, seed).run();
    let m = &r.monitor;
    let util_samples = m.util_samples();
    let util: f64 = if util_samples.is_empty() {
        0.0
    } else {
        100.0 * util_samples.iter().map(|&x| x as f64).sum::<f64>()
            / util_samples.len() as f64
    };
    DualQResult {
        cubic_mbps: r.per_flow_tput_mbps("cubic"),
        dctcp_mbps: r.per_flow_tput_mbps("dctcp"),
        l_delay: r.flow_delay_summary("dctcp"),
        c_delay: r.flow_delay_summary("cubic"),
        util_pct: util,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dualq_gives_scalable_low_latency_and_balance() {
        let r = run(
            40_000_000,
            Duration::from_millis(10),
            1,
            1,
            40,
            0xd0a1,
        );
        // Rate balance within a small factor of 1. The DualQ equalizes
        // *windows*; rates additionally scale with 1/RTT, and the DCTCP
        // flow's RTT excludes the 20 ms Classic queue it no longer stands
        // in — so a ratio below 1 (toward ~RTT_L/RTT_C * 1.68) is the
        // expected, documented behaviour (cf. RFC 9332's discussion).
        let ratio = r.cubic_mbps / r.dctcp_mbps;
        assert!(
            (0.25..2.5).contains(&ratio),
            "DualQ rate ratio {ratio:.2} (cubic {:.1}, dctcp {:.1})",
            r.cubic_mbps,
            r.dctcp_mbps
        );
        // The headline: L-queue delay is an order of magnitude below the
        // Classic queue's.
        assert!(
            r.l_delay.p99 < r.c_delay.p50,
            "L p99 {:.2} ms should undercut C median {:.2} ms",
            r.l_delay.p99,
            r.c_delay.p50
        );
        assert!(
            r.l_delay.mean < 5.0,
            "L-queue mean delay {:.2} ms should be a few ms at most",
            r.l_delay.mean
        );
        // No throughput sacrifice.
        assert!(r.util_pct > 85.0, "utilization {:.1}%", r.util_pct);
    }

    #[test]
    fn dualq_works_with_classic_only_traffic() {
        // With no Scalable flows the DualQ degenerates to PI2 behaviour.
        let r = run(10_000_000, Duration::from_millis(40), 3, 0, 40, 7);
        assert!(r.cubic_mbps * 3.0 > 8.0, "cubic total {:.1}", r.cubic_mbps * 3.0);
        assert!(
            (5.0..45.0).contains(&r.c_delay.mean),
            "C delay {:.1} ms",
            r.c_delay.mean
        );
    }

    #[test]
    fn dualq_works_with_scalable_only_traffic() {
        // With no Classic traffic the native ramp governs: ultra-low delay.
        let r = run(10_000_000, Duration::from_millis(10), 0, 3, 40, 8);
        assert!(r.dctcp_mbps * 3.0 > 8.0, "dctcp total {:.1}", r.dctcp_mbps * 3.0);
        assert!(
            r.l_delay.mean < 5.0,
            "L-only mean delay {:.2} ms",
            r.l_delay.mean
        );
    }
}
