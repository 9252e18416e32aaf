//! The loop transfer functions of Appendix B (eqs. (29)–(37)).
//!
//! All three loops share the PI + queue block `A(s)` of eq. (31),
//!
//! ```text
//! A(s) = κ_A (s/z_A + 1) / (W₀ · s · (s/s_A + 1)),
//!   κ_A = α·R₀/T,   z_A = α / (T(β + α/2)),   s_A = 1/R₀,
//! ```
//!
//! and differ in the TCP/marking block (eqs. (32)–(34)). The `W₀` factors
//! cancel in the complete loops (35)–(37), which is what this module
//! evaluates on the `s = jω` axis. The gains and PIE's tune table are the
//! ones every engine runs, from [`crate::law`].

use crate::complex::Complex;
use crate::law::{tune_factor, PiGains};

/// Which of the paper's three loops to evaluate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoopKind {
    /// Eq. (35): TCP Reno driven directly by `p` (PIE's structure).
    RenoOnP,
    /// Eq. (36): TCP Reno driven by a squared `p'` (PI2's structure).
    RenoOnPSquared,
    /// Eq. (37): a scalable control (−½ packet per mark) driven by `p'`.
    ScalableOnP,
}

/// A fully parameterized loop transfer function at one operating point.
#[derive(Clone, Copy, Debug)]
pub struct LoopTf {
    /// Loop structure.
    pub kind: LoopKind,
    /// PI gains (already tune-scaled if modelling PIE).
    pub gains: PiGains,
    /// Round-trip time R₀ in seconds at the operating point.
    pub r0: f64,
    /// The *scalable* pseudo-probability p₀′ at the operating point. For
    /// [`LoopKind::RenoOnP`] pass `p₀′ = √p₀`; the κ/s parameters below
    /// absorb the difference exactly as in the paper
    /// (`s_R = √2·p₀′/R₀ = √(2p₀)/R₀`, `κ_R = κ_S/2`).
    pub p0_prime: f64,
}

impl LoopTf {
    /// κ_A = α·R₀/T.
    fn kappa_a(&self) -> f64 {
        self.gains.alpha * self.r0 / self.gains.t_update
    }

    /// z_A = α / (T(β + α/2)).
    fn z_a(&self) -> f64 {
        self.gains.alpha / (self.gains.t_update * (self.gains.beta + self.gains.alpha / 2.0))
    }

    /// s_A = 1/R₀.
    fn s_a(&self) -> f64 {
        1.0 / self.r0
    }

    /// κ_S = 1/p₀′.
    ///
    /// Derived from the linearized window equations: for Reno on `p'²`
    /// (eq. (20)) the TCP-block numerator is `√2·C/N · R₀²C/(2N) =
    /// W₀²p₀'/2 = W₀·(1/p₀')` at the operating point `W₀²p₀'² = 2`; the
    /// scalable case (eq. (24)) gives the same `W₀·(1/p₀')` at
    /// `W₀p₀' = 2`. Together with `s_R = √2p₀'/R₀` this makes the
    /// low-frequency loop gain `κ_S·s_R = √2/R₀` independent of the
    /// operating point — the flatness PI2 is built on. (κ_R below stays
    /// `1/(2p₀) = κ_S/(2p₀')`, reproducing the diagonal PIE margin.)
    fn kappa_s(&self) -> f64 {
        1.0 / self.p0_prime
    }

    /// s_S = p₀′/(2R₀).
    fn s_s(&self) -> f64 {
        self.p0_prime / (2.0 * self.r0)
    }

    /// s_R = √2·p₀′/R₀.
    fn s_r(&self) -> f64 {
        std::f64::consts::SQRT_2 * self.p0_prime / self.r0
    }

    /// Evaluate the open-loop transfer function at `s = jω`.
    pub fn eval(&self, w: f64) -> Complex {
        let s = Complex::jw(w);
        let delay = (s * -self.r0).exp(); // e^{−sR₀}
        let pi_queue = (s / self.z_a() + 1.0) * self.kappa_a()
            / (s * (s / self.s_a() + 1.0));
        match self.kind {
            LoopKind::RenoOnP => {
                // κ_R = 1/(2p₀) = 1/(2p₀′²).
                let kappa_r = 1.0 / (2.0 * self.p0_prime * self.p0_prime);
                let denom = s / self.s_r() + (delay + 1.0) / 2.0;
                pi_queue * delay * kappa_r / denom
            }
            LoopKind::RenoOnPSquared => {
                let denom = s / self.s_r() + (delay + 1.0) / 2.0;
                pi_queue * delay * self.kappa_s() / denom
            }
            LoopKind::ScalableOnP => {
                let denom = s / self.s_s() + delay;
                pi_queue * delay * self.kappa_s() / denom
            }
        }
    }

    /// Convenience: the Figure 4 PIE loop at drop probability `p` with
    /// auto-tuned gains.
    pub fn pie_auto(p: f64, r0: f64) -> LoopTf {
        LoopTf {
            kind: LoopKind::RenoOnP,
            gains: PiGains::pie().scaled(tune_factor(p)),
            r0,
            p0_prime: p.sqrt(),
        }
    }

    /// Convenience: the Figure 7 PI2 loop at pseudo-probability `p'`.
    pub fn pi2(p_prime: f64, r0: f64) -> LoopTf {
        LoopTf {
            kind: LoopKind::RenoOnPSquared,
            gains: PiGains::pi2(),
            r0,
            p0_prime: p_prime,
        }
    }

    /// Convenience: the Figure 7 scalable-PI loop at `p'`.
    pub fn scal_pi(p_prime: f64, r0: f64) -> LoopTf {
        LoopTf {
            kind: LoopKind::ScalableOnP,
            gains: PiGains::scal_pi(),
            r0,
            p0_prime: p_prime,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrator_dominates_at_low_frequency() {
        // |L| ~ κ/ω as ω→0 for all three loops.
        for kind in [
            LoopKind::RenoOnP,
            LoopKind::RenoOnPSquared,
            LoopKind::ScalableOnP,
        ] {
            let tf = LoopTf {
                kind,
                gains: PiGains::pi2(),
                r0: 0.1,
                p0_prime: 0.1,
            };
            let g1 = tf.eval(1e-4).abs();
            let g2 = tf.eval(2e-4).abs();
            assert!(
                (g1 / g2 - 2.0).abs() < 0.01,
                "{kind:?}: low-freq slope not −20 dB/dec ({g1} vs {g2})"
            );
        }
    }

    #[test]
    fn gain_rolls_off_at_high_frequency() {
        let tf = LoopTf::pi2(0.1, 0.1);
        assert!(tf.eval(1e4).abs() < 1e-2);
    }

    #[test]
    fn squared_loop_gain_is_2p_prime_times_the_p_loop() {
        // κ_S/κ_R = 2p₀′ with identical denominators — the Section 4
        // factor `2Kp₀'` by which squaring scales the effective gain
        // relative to incrementing p directly.
        let p0_prime = 0.05;
        let a = LoopTf {
            kind: LoopKind::RenoOnP,
            gains: PiGains::pie(),
            r0: 0.1,
            p0_prime,
        };
        let b = LoopTf {
            kind: LoopKind::RenoOnPSquared,
            gains: PiGains::pie(),
            r0: 0.1,
            p0_prime,
        };
        for w in [0.01, 0.1, 1.0, 10.0] {
            let ratio = b.eval(w).abs() / a.eval(w).abs();
            assert!(
                (ratio - 2.0 * p0_prime).abs() < 1e-9,
                "ratio {ratio} at ω={w}"
            );
        }
    }

    #[test]
    fn pi2_loop_gain_is_flat_above_the_tcp_pole() {
        // The headline property: above the TCP pole s_R the squared loop's
        // gain κ_S·s_R = √2/R₀ is independent of the operating point, so
        // the loop gain barely moves while p₀′ sweeps a decade-plus.
        // Pick ω above s_R = √2p'/R₀ for the whole p' range (s_R ≤ 14).
        let w = 50.0;
        let g_lo = LoopTf::pi2(0.05, 0.1).eval(w).abs();
        let g_hi = LoopTf::pi2(1.0, 0.1).eval(w).abs();
        let ratio = g_lo / g_hi;
        assert!(
            (0.5..2.0).contains(&ratio),
            "PI2 loop gain varies {ratio:.2}× across p' — should be ≈flat"
        );
        // Contrast: the unsquared Reno loop with the same fixed gains
        // varies as 1/p₀′ over the same sweep.
        let mk = |pp: f64| LoopTf {
            kind: LoopKind::RenoOnP,
            gains: PiGains::pie(),
            r0: 0.1,
            p0_prime: pp,
        };
        let ratio_pie = mk(0.05).eval(w).abs() / mk(1.0).eval(w).abs();
        assert!(
            ratio_pie > 10.0,
            "untuned Reno-on-p loop should vary steeply: {ratio_pie:.1}×"
        );
    }

    #[test]
    fn delay_term_has_unit_magnitude() {
        let tf = LoopTf::pi2(0.1, 0.1);
        // Sanity via linearity: |L(jω)| continuous, finite at moderate ω.
        let g = tf.eval(1.0);
        assert!(g.abs().is_finite());
    }
}
