//! The isolation alternative (paper §1): per-flow queuing vs coupled
//! signalling.
//!
//! The introduction weighs per-flow queuing as the known way to protect
//! flows from each other, at the cost of flow inspection and per-flow
//! state. This experiment runs the coexistence workload (Cubic vs DCTCP)
//! over FQ-DRR and over the paper's coupled single-queue PI2, comparing
//! what each buys: FQ isolates by scheduling (each flow gets a fair rate
//! and its own queue), the coupled AQM balances by signalling in one
//! FIFO.

use crate::scenario::{AqmKind, FlowGroup, RunResult, Scenario};
use pi2_aqm::FqConfig;
use pi2_simcore::{Duration, Time};
use pi2_stats::Summary;
use pi2_transport::{CcKind, EcnSetting};

/// Result of one isolation run.
#[derive(Clone, Debug)]
pub struct IsolationResult {
    /// Scheme name.
    pub scheme: &'static str,
    /// Cubic/DCTCP per-flow rate ratio.
    pub ratio: f64,
    /// Queue delay seen by Cubic packets (ms).
    pub cubic_delay: Summary,
    /// Queue delay seen by DCTCP packets (ms).
    pub dctcp_delay: Summary,
}

/// The one-Cubic-one-ECN coexistence cell: a Cubic flow and the `ecn`
/// group at its RTT behind `aqm`, the first third of the run warm-up.
pub fn coexistence(
    aqm: AqmKind,
    rate_bps: u64,
    ecn: FlowGroup,
    duration_s: u64,
    seed: u64,
) -> Scenario {
    let mut sc = Scenario::new(aqm, rate_bps);
    sc.tcp
        .push(FlowGroup::new(1, CcKind::Cubic, EcnSetting::NotEcn, "cubic", ecn.rtt));
    sc.tcp.push(ecn);
    sc.duration = Time::from_secs(duration_s);
    sc.warmup = Duration::from_secs(duration_s as i64 / 3);
    sc.seed = seed;
    sc
}

/// The coexistence cell with `flows.0` Cubic and `flows.1` DCTCP flows,
/// sojourns recorded per flow.
pub fn scenario(
    aqm: AqmKind,
    rate_bps: u64,
    rtt: Duration,
    flows: (usize, usize),
    duration_s: u64,
    seed: u64,
) -> Scenario {
    let dctcp = FlowGroup::new(flows.1, CcKind::Dctcp, EcnSetting::Scalable, "dctcp", rtt);
    let mut sc = coexistence(aqm, rate_bps, dctcp, duration_s, seed);
    sc.tcp[0].count = flows.0;
    sc.per_flow_sojourns = true;
    sc
}

fn harvest(r: &RunResult) -> IsolationResult {
    let m = &r.monitor;
    let c = m.pooled_mean_tput_mbps("cubic");
    let d = m.pooled_mean_tput_mbps("dctcp");
    IsolationResult {
        scheme: r.aqm,
        ratio: if d > 0.0 { c / d } else { f64::INFINITY },
        cubic_delay: r.flow_delay_summary("cubic"),
        dctcp_delay: r.flow_delay_summary("dctcp"),
    }
}

/// Run Cubic vs DCTCP over FQ-DRR.
pub fn run_fq(rate_bps: u64, rtt: Duration, duration_s: u64, seed: u64) -> IsolationResult {
    let aqm = AqmKind::Fq(FqConfig::for_link(rate_bps));
    harvest(&scenario(aqm, rate_bps, rtt, (1, 1), duration_s, seed).run())
}

/// Run the same workload over the coupled single-queue PI2.
pub fn run_coupled(rate_bps: u64, rtt: Duration, duration_s: u64, seed: u64) -> IsolationResult {
    harvest(&scenario(AqmKind::coupled_default(), rate_bps, rtt, (1, 1), duration_s, seed).run())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fq_balances_rates_but_not_latency() {
        let r = run_fq(40_000_000, Duration::from_millis(10), 40, 0xf0);
        assert!(
            (0.5..2.0).contains(&r.ratio),
            "FQ should equalize rates by scheduling: {:.2}",
            r.ratio
        );
        // The instructive half: with no per-queue AQM, even DCTCP (which
        // receives no marks here and falls back to loss probing) bloats
        // its own queue to the backlog cap. Scheduling fixes fairness,
        // not latency.
        assert!(
            r.dctcp_delay.mean > 40.0 && r.cubic_delay.mean > 40.0,
            "without AQM both queues should bloat: {:.1} / {:.1} ms",
            r.dctcp_delay.mean,
            r.cubic_delay.mean
        );
    }

    #[test]
    fn coupled_shares_one_queue() {
        let r = run_coupled(40_000_000, Duration::from_millis(10), 40, 0xf0);
        // Single FIFO: both flows see the same ~20 ms queue.
        assert!(
            (r.cubic_delay.mean - r.dctcp_delay.mean).abs() < 5.0,
            "single-queue delays should match: {:.1} vs {:.1} ms",
            r.cubic_delay.mean,
            r.dctcp_delay.mean
        );
        assert!((0.4..2.5).contains(&r.ratio));
    }
}
