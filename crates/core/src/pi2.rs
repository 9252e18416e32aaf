//! The PI2 AQM (paper Section 4–5, Figure 8).
//!
//! PI2's insight: run the PI controller of eq. (4) on a pseudo-probability
//! `p'` that is *linear* in load (for Classic TCP, load ∝ √p, so
//! `p' = √p`), then square it at the drop/mark decision, `p = p'²`. The
//! squaring counterbalances the square root in the Classic window law, so
//! the loop gain no longer varies diagonally with load (Figure 7) and:
//!
//! * the heuristic tune table disappears — constant α and β suffice;
//! * the flat gain margin leaves room to raise the gains ×2.5 over PIE
//!   (total loop gain ≈ ×3.5, since `K_PI2/K_PIE ≈ 2.5·√2`), making PI2
//!   more responsive without instability.
//!
//! The squaring itself can be computed two ways (Section 5): multiply `p'`
//! by itself, or compare `p'` against the **maximum of two** pseudo-random
//! variables — "think once to mark, think twice to drop". Both are
//! provided; a test asserts they agree in distribution.

use crate::estimator::DelayEstimator;
use crate::pi::{PiAqm, PiCore};
use pi2_fluid::law::{OutputLaw, PiGains};
use pi2_simcore::{Duration, Rng};

/// How the squared decision is evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SquareMode {
    /// Compute `p'²` and compare one random variable (natural in software).
    Multiply,
    /// Compare `p'` against `max(Y₁, Y₂)` of two random variables (natural
    /// in hardware; needs only half the random bits per variable).
    TwoCompare,
}

impl SquareMode {
    /// Evaluate the squared Bernoulli decision for pseudo-probability `pp`:
    /// true with probability `pp²`.
    #[inline]
    pub fn signal(self, pp: f64, rng: &mut Rng) -> bool {
        match self {
            SquareMode::Multiply => rng.chance(pp * pp),
            // P[max(Y1,Y2) < pp] = pp² for independent uniforms.
            SquareMode::TwoCompare => {
                let y1 = rng.next_f64();
                let y2 = rng.next_f64();
                y1.max(y2) < pp
            }
        }
    }
}

/// PI2 configuration (defaults: Figure 6/7's α = 0.3125, β = 3.125 —
/// 2.5× the PIE gains — target 20 ms, T = 32 ms). The Classic probability
/// is capped at the law's `CLASSIC_CAP` (25 %); tail-drop handles
/// anything beyond it.
#[derive(Clone, Copy, Debug)]
pub struct Pi2Config {
    /// Delay target τ₀.
    pub target: Duration,
    /// Update interval T.
    pub t_update: Duration,
    /// Integral gain α in Hz (on the *linear* variable `p'`).
    pub alpha_hz: f64,
    /// Proportional gain β in Hz.
    pub beta_hz: f64,
    /// Squaring implementation.
    pub square_mode: SquareMode,
    /// Queue-delay estimation strategy.
    pub estimator: DelayEstimator,
}

impl Default for Pi2Config {
    fn default() -> Self {
        let gains = PiGains::pi2();
        Pi2Config {
            target: Duration::from_millis(20),
            t_update: Duration::from_millis(32),
            alpha_hz: gains.alpha,
            beta_hz: gains.beta,
            square_mode: SquareMode::Multiply,
            estimator: DelayEstimator::QlenOverRate,
        }
    }
}

/// The standalone PI2 AQM for Classic traffic (Figure 8): [`PiAqm`] under
/// the squared law with `inv_k = 1`.
///
/// Every packet receives the squared probability `(p')²`; ECN-capable
/// packets are marked, others dropped. For mixed Classic/Scalable traffic
/// use [`crate::CoupledPi2`], which adds the ECN classifier and coupling.
///
/// ```
/// use pi2_aqm::{Pi2, Pi2Config};
/// use pi2_netsim::{Aqm, QueueSnapshot};
/// use pi2_simcore::{Duration, Time};
///
/// let mut aqm = Pi2::new(Pi2Config::default());
/// let congested = QueueSnapshot {
///     qlen_bytes: 75_000, // 60 ms at 10 Mb/s, target is 20 ms
///     qlen_pkts: 50,
///     link_rate_bps: 10_000_000,
///     last_sojourn: None,
/// };
/// for _ in 0..100 {
///     aqm.update(&congested, Time::ZERO); // one tick per T = 32 ms
/// }
/// // p' rose linearly; the applied probability is its square.
/// assert!(aqm.p_prime() > 0.0);
/// assert!((aqm.classic_prob() - (aqm.p_prime() * aqm.p_prime()).min(0.25)).abs() < 1e-12);
/// ```
pub type Pi2 = PiAqm;

impl From<Pi2Config> for PiAqm {
    fn from(cfg: Pi2Config) -> Self {
        PiAqm {
            core: PiCore::new(cfg.alpha_hz, cfg.beta_hz, cfg.target, cfg.t_update),
            estimator: cfg.estimator,
            // Multiplying by 1.0 is exact: PI2 is the coupled law at k = 1
            // without a Scalable class.
            law: OutputLaw::Squared { inv_k: 1.0, scalable: None },
            mode: cfg.square_mode,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_netsim::{Action, Aqm, Ecn, FlowId, Packet, QueueSnapshot};
    use pi2_simcore::Time;

    fn snap(qlen_bytes: usize) -> QueueSnapshot {
        QueueSnapshot {
            qlen_bytes,
            qlen_pkts: qlen_bytes / 1500,
            link_rate_bps: 10_000_000,
            last_sojourn: None,
        }
    }

    fn pi2_with_pp(pp: f64) -> Pi2 {
        let mut a = Pi2::new(Pi2Config::default());
        a.core.set_p(pp);
        a
    }

    #[test]
    fn applied_probability_is_square_of_p_prime() {
        let a = pi2_with_pp(0.3);
        assert!((a.classic_prob() - 0.09).abs() < 1e-12);
    }

    #[test]
    fn classic_cap_limits_applied_probability() {
        let a = pi2_with_pp(1.0);
        assert_eq!(a.classic_prob(), 0.25);
    }

    #[test]
    fn drop_frequency_matches_square() {
        let mut a = pi2_with_pp(0.3);
        let mut rng = Rng::new(11);
        let pkt = Packet::data(FlowId(0), 0, 1500, Ecn::NotEct, Time::ZERO);
        let s = snap(30_000);
        let n = 200_000;
        let drops = (0..n)
            .filter(|_| a.on_enqueue(&pkt, &s, Time::ZERO, &mut rng).action == Action::Drop)
            .count();
        let f = drops as f64 / n as f64;
        assert!((f - 0.09).abs() < 0.005, "drop frequency {f} vs 0.09");
    }

    #[test]
    fn two_compare_mode_matches_multiply_in_distribution() {
        let mut rng = Rng::new(13);
        let n = 400_000;
        for pp in [0.05, 0.3, 0.7] {
            let mut hits = [0usize; 2];
            for _ in 0..n {
                if SquareMode::Multiply.signal(pp, &mut rng) {
                    hits[0] += 1;
                }
                if SquareMode::TwoCompare.signal(pp, &mut rng) {
                    hits[1] += 1;
                }
            }
            let f0 = hits[0] as f64 / n as f64;
            let f1 = hits[1] as f64 / n as f64;
            assert!(
                (f0 - f1).abs() < 0.01,
                "modes diverge at pp={pp}: {f0} vs {f1}"
            );
            assert!((f0 - pp * pp).abs() < 0.01, "multiply off at pp={pp}: {f0}");
        }
    }

    #[test]
    fn ect_marked_not_dropped() {
        let mut a = pi2_with_pp(1.0);
        let mut rng = Rng::new(5);
        let ect = Packet::data(FlowId(0), 0, 1500, Ecn::Ect0, Time::ZERO);
        let s = snap(30_000);
        for _ in 0..1000 {
            let d = a.on_enqueue(&ect, &s, Time::ZERO, &mut rng);
            assert_ne!(d.action, Action::Drop, "PI2 marks ECT packets");
        }
    }

    #[test]
    fn tiny_queue_guard() {
        let mut a = pi2_with_pp(1.0);
        let mut rng = Rng::new(5);
        let pkt = Packet::data(FlowId(0), 0, 1500, Ecn::NotEct, Time::ZERO);
        let d = a.on_enqueue(&pkt, &snap(3000), Time::ZERO, &mut rng);
        assert_eq!(d.action, Action::Pass);
    }

    #[test]
    fn update_is_the_plain_pi_equation() {
        // PI2's update must have no tune scaling: two updates with a
        // constant 30 ms delay raise p' by exactly α·err each (after the
        // first which also sees the growth term).
        let mut a = Pi2::new(Pi2Config::default());
        let s = snap(37_500); // 30 ms at 10 Mb/s
        a.update(&s, Time::ZERO);
        let p1 = a.p_prime();
        a.update(&s, Time::ZERO);
        let p2 = a.p_prime();
        let expect = 0.3125 * 0.010; // α · (30ms − 20ms)
        assert!(((p2 - p1) - expect).abs() < 1e-12);
    }

    #[test]
    fn probe_reports_linear_and_squared_probabilities() {
        let mut a = Pi2::new(Pi2Config::default());
        let s = snap(37_500); // 30 ms at 10 Mb/s
        a.update(&s, Time::ZERO);
        let st = a.probe();
        assert_eq!(st.p_prime, a.p_prime());
        assert_eq!(st.prob, a.classic_prob());
        assert!(st.prob < st.p_prime, "output is the square of p'");
        assert_eq!(st.qdelay, Duration::from_millis(30));
        // 10 ms standing error, 30 ms growth from zero history.
        assert!((st.alpha_term - 0.3125 * 0.010).abs() < 1e-12);
        assert!((st.beta_term - 3.125 * 0.030).abs() < 1e-12);
        assert_eq!(st.scalable_prob, 0.0);
    }
}
