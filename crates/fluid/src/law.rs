//! The one control law: the PI gains, the step of eq. (4), PIE's tune
//! table and the output law that turns the controlled variable `p` into the
//! probability a packet or a fluid class sees. Three clocks evaluate it:
//! the packet AQMs in `pi2-aqm` (per update on `Duration` delays, per
//! packet), [`crate::FluidSim`] and [`crate::FlowLevelSim`] (per tick on
//! `f64` seconds). Each works out the delay error and growth on its own
//! clock; everything after that is written here, once.

/// The cap on the Classic probability: the paper replaces PIE's overload
/// heuristics with a flat 25 % maximum and leaves anything beyond it to
/// tail-drop. A constant of the law: nothing sets another.
pub const CLASSIC_CAP: f64 = 0.25;

/// PI gains and timing (Table 1).
#[derive(Clone, Copy, Debug)]
pub struct PiGains {
    /// Integral gain α in Hz.
    pub alpha: f64,
    /// Proportional gain β in Hz.
    pub beta: f64,
    /// Update interval T in seconds.
    pub t_update: f64,
}

impl PiGains {
    /// PIE's Table 1 gains, 2/16 and 20/16 Hz.
    pub fn pie() -> Self {
        PiGains {
            alpha: 0.125,
            beta: 1.25,
            t_update: 0.032,
        }
    }

    /// PI2's Figure 7 gains, ×2.5 PIE's: 0.3125 and 3.125 Hz, exactly.
    pub fn pi2() -> Self {
        PiGains::pie().scaled(2.5)
    }

    /// The Scalable-PI Figure 7 gains (Table 1's `PI/PI2+DCTCP`), ×2 PI2's:
    /// 0.625 and 6.25 Hz, exactly.
    pub fn scal_pi() -> Self {
        PiGains::pi2().scaled(2.0)
    }

    /// Scale both gains by a factor (PIE's tune, or ablation sweeps).
    pub fn scaled(self, f: f64) -> Self {
        PiGains {
            alpha: self.alpha * f,
            beta: self.beta * f,
            ..self
        }
    }
}

/// The two terms of one step of eq. (4),
/// `p(t) = p(t−T) + α·(τ − τ₀) + β·(τ − τ_prev)`, before any scaling.
#[derive(Clone, Copy, Debug, Default)]
pub struct PiStep {
    /// `α·(τ − τ₀)`: the integral term, against the standing error.
    pub alpha_term: f64,
    /// `β·(τ − τ_prev)`: the proportional term, against queue growth.
    pub beta_term: f64,
}

impl PiStep {
    /// The terms for gains `alpha`, `beta` (Hz), a delay error `err` and a
    /// delay growth `growth` (seconds).
    #[inline]
    pub fn new(alpha: f64, beta: f64, err: f64, growth: f64) -> Self {
        PiStep {
            alpha_term: alpha * err,
            beta_term: beta * growth,
        }
    }

    /// Δp, `α·err + β·growth`. PIE multiplies it by [`tune_factor`].
    #[inline]
    pub fn delta(self) -> f64 {
        self.alpha_term + self.beta_term
    }
}

/// PIE's stepwise Δp scaling (RFC 8033 §4.2, extended during IETF review
/// down to 0.0001 % — the paper's Figure 5). Rows are
/// `(upper bound on p, divisor)`: while `p` is below the bound, Δp is
/// divided by the divisor.
pub const TUNE_TABLE: &[(f64, f64)] = &[
    (0.000001, 2048.0),
    (0.00001, 512.0),
    (0.0001, 128.0),
    (0.001, 32.0),
    (0.01, 8.0),
    (0.1, 2.0),
];

/// The auto-tune factor for a given probability: `1/divisor`, or 1 above
/// 10 %. This is the stepped curve of Figure 5.
pub fn tune_factor(p: f64) -> f64 {
    for &(bound, div) in TUNE_TABLE {
        if p < bound {
            return 1.0 / div;
        }
    }
    1.0
}

/// How a controller's variable `p` becomes the probability each class of
/// traffic sees (Figures 6–9).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OutputLaw {
    /// `p` itself for all traffic: Figure 6's `pi`, Figure 7's `scal pi`,
    /// and PIE (whose tune scales the step, not the output).
    Direct,
    /// Classic traffic sees `min((p·inv_k)², CLASSIC_CAP)` (Figure 8 at
    /// `inv_k = 1`, Figure 9's Classic branch at `1/k`). Scalable traffic
    /// sees `min(k_s·p, 1)` under `scalable: Some(k_s)` (Figure 9 at
    /// `k_s = 1`, DualPI2's coupled L marking at `k`) and the Classic
    /// probability under `None`.
    Squared {
        /// Classic coupling divisor `1/k` (exactly 1.0 for plain PI2).
        inv_k: f64,
        /// The Scalable coupling factor `k_s`; `None` for a Classic-only law.
        scalable: Option<f64>,
    },
}

impl OutputLaw {
    /// The probability Classic traffic sees at controlled variable `p`.
    #[inline]
    pub fn classic(&self, p: f64) -> f64 {
        match *self {
            OutputLaw::Direct => p,
            OutputLaw::Squared { inv_k, .. } => {
                let pp = p * inv_k;
                (pp * pp).min(CLASSIC_CAP)
            }
        }
    }

    /// The probability Scalable traffic sees at controlled variable `p`.
    #[inline]
    pub fn scalable(&self, p: f64) -> f64 {
        match *self {
            OutputLaw::Squared { scalable: Some(k_s), .. } => (k_s * p).min(1.0),
            _ => self.classic(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gains_presets_are_table_1() {
        let (pie, pi2, scal) = (PiGains::pie(), PiGains::pi2(), PiGains::scal_pi());
        assert_eq!((pie.alpha, pie.beta), (2.0 / 16.0, 20.0 / 16.0));
        assert_eq!((pi2.alpha, pi2.beta), (0.3125, 3.125));
        assert_eq!((scal.alpha, scal.beta), (10.0 / 16.0, 100.0 / 16.0));
    }

    #[test]
    fn tune_table_matches_figure_5_steps() {
        assert_eq!(tune_factor(1e-7), 1.0 / 2048.0);
        assert_eq!(tune_factor(5e-6), 1.0 / 512.0);
        assert_eq!(tune_factor(5e-5), 1.0 / 128.0);
        assert_eq!(tune_factor(5e-4), 1.0 / 32.0);
        assert_eq!(tune_factor(5e-3), 1.0 / 8.0);
        assert_eq!(tune_factor(0.05), 1.0 / 2.0);
        assert_eq!(tune_factor(0.5), 1.0);
    }

    #[test]
    fn tune_table_tracks_sqrt_2p() {
        // Figure 5's claim: the stepped factor broadly fits √(2p). Check
        // each step's midpoint (geometric) is within a factor ~2.1 of the
        // continuous curve — the step quantization itself is a factor 2.
        for w in TUNE_TABLE.windows(2) {
            let (lo, _) = w[0];
            let (hi, div) = w[1];
            let mid = (lo * hi).sqrt();
            let continuous = (2.0 * mid).sqrt();
            let stepped = 1.0 / div;
            let ratio = stepped / continuous;
            assert!(
                (0.4..2.5).contains(&ratio),
                "step at p={mid:e}: stepped {stepped:e} vs sqrt(2p) {continuous:e}"
            );
        }
    }

    #[test]
    fn the_laws_of_pi2_coupled_pi2_and_dualpi2() {
        let pi2 = OutputLaw::Squared { inv_k: 1.0, scalable: None };
        let coupled = OutputLaw::Squared { inv_k: 0.5, scalable: Some(1.0) };
        let dualq = OutputLaw::Squared { inv_k: 1.0, scalable: Some(2.0) };
        assert_eq!((pi2.classic(0.3), pi2.scalable(0.3)), (0.3 * 0.3, 0.3 * 0.3));
        assert_eq!((coupled.classic(0.4), coupled.scalable(0.4)), (0.2 * 0.2, 0.4));
        assert_eq!((dualq.classic(0.4), dualq.scalable(0.4)), (0.4 * 0.4, 0.8));
        // Capped: Classic at 25 % (the packet path caps p·inv_k at its
        // square root, 0.5, before squaring), Scalable at 100 %.
        assert_eq!((pi2.classic(1.0), coupled.classic(1.0)), (CLASSIC_CAP, CLASSIC_CAP));
        assert_eq!((0.5 * 0.5, dualq.scalable(0.7)), (CLASSIC_CAP, 1.0));
    }
}
