//! Appendix A: steady-state window laws, validated in the packet
//! simulator.
//!
//! A single flow runs against a fixed-probability signaller
//! ([`pi2_aqm::FixedProb`]) on an over-provisioned link, so the window is
//! purely signal-limited. The measured mean window (throughput × RTT ÷
//! segment size) is compared with the closed form:
//!
//! | control | law |
//! |---|---|
//! | Reno | `1.22/√p` (eq. 5) |
//! | CReno (Cubic at small BDP) | `1.68/√p` (eq. 7) |
//! | DCTCP, probabilistic marking | `2/p` (eq. 11) |
//! | Scalable half-packet | `2/p` |

use crate::isolation::coexistence;
use crate::scenario::{AqmKind, FlowGroup, RunResult, Scenario};
use pi2_aqm::StepMarkConfig;
use pi2_simcore::{Duration, Time};
use pi2_transport::{CcKind, EcnSetting, TcpConfig};

/// One law-validation measurement.
#[derive(Clone, Debug)]
pub struct LawPoint {
    /// Congestion control name.
    pub cc: &'static str,
    /// The fixed signal probability.
    pub p: f64,
    /// Measured mean window in packets.
    pub measured_w: f64,
    /// The closed-form prediction.
    pub predicted_w: f64,
    /// Relative error.
    pub rel_err: f64,
}

/// Base RTT of the law-validation cells.
pub const LAW_RTT: Duration = Duration::from_millis(40);

/// One `cc` flow under fixed signal probability `p`, 120 s.
pub fn law_scenario(cc: CcKind, ecn: EcnSetting, tcp: TcpConfig, p: f64, seed: u64) -> Scenario {
    // Over-provisioned link: the window never fills the pipe, so RTT stays
    // at base and W = rate·RTT/mss.
    let mut sc = Scenario::new(AqmKind::FixedProb(p), 2_000_000_000);
    sc.buffer_bytes = usize::MAX;
    let mut flow = FlowGroup::new(1, cc, ecn, "flow", LAW_RTT);
    flow.tcp = tcp;
    sc.tcp.push(flow);
    sc.duration = Time::from_secs(120);
    sc.warmup = Duration::from_secs(30);
    sc.seed = seed;
    sc
}

/// Mean post-warm-up window of a run's first flow, in packets, at round
/// trip `rtt_s`.
pub fn mean_window(r: &RunResult, rtt_s: f64) -> f64 {
    let tput_bps = r.monitor.flows[0].mean_tput_mbps(r.monitor.measurement_span()) * 1e6;
    tput_bps * rtt_s / (1500.0 * 8.0)
}

/// Measure the steady-state window of `cc` at fixed probability `p`.
pub fn measure(cc: CcKind, ecn: EcnSetting, p: f64, seed: u64) -> LawPoint {
    let r = law_scenario(cc, ecn, TcpConfig::default(), p, seed).run();
    let measured_w = mean_window(&r, LAW_RTT.as_secs_f64());
    let probe = cc.build(10.0);
    let predicted_w = probe.steady_state_window(p, LAW_RTT).unwrap_or(f64::NAN);
    LawPoint {
        cc: probe.name(),
        p,
        measured_w,
        predicted_w,
        rel_err: (measured_w - predicted_w).abs() / predicted_w,
    }
}

/// The full Appendix A table: each control at several probabilities at `seed`.
pub fn appendix_a(seed: u64) -> Vec<LawPoint> {
    let mut out = Vec::new();
    for &p in &[0.02, 0.05, 0.1] {
        out.push(measure(CcKind::Reno, EcnSetting::NotEcn, p, seed));
        out.push(measure(CcKind::Cubic, EcnSetting::NotEcn, p, seed));
    }
    for &p in &[0.05, 0.1, 0.2] {
        out.push(measure(CcKind::Dctcp, EcnSetting::Scalable, p, seed));
        out.push(measure(CcKind::ScalableHalfPkt, EcnSetting::Scalable, p, seed));
    }
    out
}

/// Base RTT of the [`step_vs_probabilistic`] cells.
const MARKING_RTT: Duration = Duration::from_millis(20);

/// One DCTCP flow saturating a 40 Mb/s bottleneck marked by `aqm`, 80 s.
pub fn marking_scenario(aqm: AqmKind, seed: u64) -> Scenario {
    let mut sc = Scenario::new(aqm, 40_000_000);
    sc.buffer_bytes = usize::MAX;
    sc.tcp.push(FlowGroup::new(
        1,
        CcKind::Dctcp,
        EcnSetting::Scalable,
        "dctcp",
        MARKING_RTT,
    ));
    sc.duration = Time::from_secs(80);
    sc.warmup = Duration::from_secs(20);
    sc.seed = seed;
    sc
}

/// Eq. (11) vs eq. (12): DCTCP's window law depends on *how* it is
/// marked. Run one DCTCP flow over a bottleneck it saturates, marked
/// either by a step threshold (eq. (12): `W = 2/p²`, i.e. `p = √(2/W)`)
/// or by a fixed probability chosen to match the step's realized fraction
/// (eq. (11): `W = 2/p`), at `seed` and `seed + 1`. Returns
/// `(realized step fraction, W under step, W under probabilistic)`.
pub fn step_vs_probabilistic(seed: u64) -> (f64, f64, f64) {
    let run = |aqm: AqmKind, seed: u64| -> (f64, f64) {
        let r = marking_scenario(aqm, seed).run();
        // Effective RTT = base + mean queue delay.
        let sojourns: Vec<f64> = r.monitor.sojourn_ms.iter().map(|&x| x as f64).collect();
        let eff_rtt = MARKING_RTT.as_secs_f64() + pi2_stats::mean(&sojourns) / 1000.0;
        let marked = r.counters.flows()[0].marked;
        (marked as f64 / r.monitor.flows[0].sent_pkts.max(1) as f64, mean_window(&r, eff_rtt))
    };
    let (p_step, w_step) = run(AqmKind::StepMark(StepMarkConfig::default()), seed);
    // Probabilistic marking at the same fraction.
    let (_, w_prob) = run(AqmKind::FixedProb(p_step), seed.wrapping_add(1));
    (p_step, w_step, w_prob)
}

/// The coupling-law check behind eq. (14): run Cubic and DCTCP through a
/// coupled AQM and report how the realized probabilities relate
/// (`pc ≟ (ps/k)²`).
pub fn coupling_check(k: f64, seed: u64) -> (RunResult, f64, f64) {
    let mut cfg = pi2_aqm::CoupledPi2Config::default();
    cfg.k = k;
    let dctcp = FlowGroup::new(
        1,
        CcKind::Dctcp,
        EcnSetting::Scalable,
        "dctcp",
        Duration::from_millis(10),
    );
    let r = coexistence(AqmKind::Coupled(cfg), 40_000_000, dctcp, 60, seed).run();
    let pc = r.monitor.flows[0].signal_fraction();
    let ps = r.monitor.flows[1].signal_fraction();
    (r, pc, ps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reno_tracks_mathis_law() {
        let pt = measure(CcKind::Reno, EcnSetting::NotEcn, 0.05, 1);
        assert!(
            pt.rel_err < 0.25,
            "Reno at p=0.05: measured {:.1} vs predicted {:.1}",
            pt.measured_w,
            pt.predicted_w
        );
    }

    #[test]
    fn dctcp_tracks_2_over_p() {
        let pt = measure(CcKind::Dctcp, EcnSetting::Scalable, 0.1, 1);
        assert!(
            pt.rel_err < 0.3,
            "DCTCP at p=0.1: measured {:.1} vs predicted {:.1}",
            pt.measured_w,
            pt.predicted_w
        );
    }

    #[test]
    fn step_marking_obeys_eq_12_probabilistic_eq_11() {
        let (p, w_step, w_prob) = step_vs_probabilistic(0x57e9);
        // Under a step threshold (eq. 12): W = 2/p².
        let law_step = 2.0 / (p * p);
        let err_step = (w_step - law_step).abs() / law_step;
        assert!(
            err_step < 0.45,
            "step: W {w_step:.1} vs 2/p² = {law_step:.1} at p = {p:.4}"
        );
        // The same fraction applied probabilistically (eq. 11): W = 2/p —
        // a much smaller window; the exponent change must be unmistakable.
        let law_prob = 2.0 / p;
        let err_prob = (w_prob - law_prob).abs() / law_prob;
        assert!(
            err_prob < 0.45,
            "prob: W {w_prob:.1} vs 2/p = {law_prob:.1} at p = {p:.4}"
        );
        assert!(
            w_step > 3.0 * w_prob,
            "the exponent change should separate the windows: {w_step:.1} vs {w_prob:.1}"
        );
    }

    #[test]
    fn coupled_probabilities_follow_the_square_relation() {
        // The relation pc = (ps/2)² holds *instantaneously*; comparing
        // time-averages directly would be biased by Jensen's inequality
        // (E[(ps/2)²] > (E[ps]/2)² since ps fluctuates with the Cubic
        // sawtooth). So compare the mean applied Classic probability with
        // the mean of (ps/2)² computed from the per-packet Scalable
        // probability samples.
        let (r, pc_realized, ps_realized) = coupling_check(2.0, 3);
        assert!(pc_realized > 0.0 && ps_realized > 0.0);
        let probs = |label| r.monitor.labelled(label).flat_map(|f| f.prob_samples.iter());
        let pc_applied: Vec<f64> = probs("cubic").map(|&p| p as f64).collect();
        let ps_applied: Vec<f64> = probs("dctcp").map(|&p| (p as f64 / 2.0).powi(2)).collect();
        let mean_pc = pi2_stats::mean(&pc_applied);
        let mean_sq = pi2_stats::mean(&ps_applied);
        let err = (mean_pc - mean_sq).abs() / mean_sq;
        assert!(
            err < 0.25,
            "E[pc] {mean_pc:.5} vs E[(ps/2)²] {mean_sq:.5}"
        );
        // The realized per-flow signal fraction tracks the applied mean,
        // modulo arrival weighting: the Cubic flow offers the most packets
        // exactly when its window (and hence p') is about to peak, so the
        // realized fraction sits somewhat above the unweighted mean.
        let ferr = (pc_realized - mean_pc).abs() / mean_pc;
        assert!(ferr < 0.7, "realized pc {pc_realized:.5} vs applied {mean_pc:.5}");
    }
}
