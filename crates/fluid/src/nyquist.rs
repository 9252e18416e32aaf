//! Nyquist stability test, complementing the Bode margins.
//!
//! Gain/phase margins read off single crossover points and can mislead
//! for conditionally stable loops (multiple crossings — possible here
//! because the delay term winds the phase indefinitely). The Nyquist
//! criterion is global: the closed loop `L/(1+L)` is stable iff the
//! Nyquist plot of `L(jω)` does not encircle `−1` (the open loops
//! (35)–(37) have no right-half-plane poles — one integrator on the axis,
//! handled by the standard indentation, plus stable first-order factors —
//! so the required encirclement count is zero).

use crate::complex::Complex;
use crate::tf::LoopTf;

/// Outcome of the Nyquist test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stability {
    /// No net encirclement of −1: the closed loop is stable.
    Stable,
    /// Net encirclements detected: the closed loop is unstable.
    Unstable,
}

/// Winding number of the Nyquist curve of `tf` around −1, counted over
/// `ω ∈ [w_min, w_max]` and closed by conjugate symmetry (negative
/// frequencies mirror the positive ones).
///
/// Returns the *net* number of counter-clockwise encirclements.
pub fn winding_number(tf: &LoopTf, w_min: f64, w_max: f64, n: usize) -> i32 {
    assert!(w_min > 0.0 && w_max > w_min && n >= 64);
    let minus_one = Complex::real(-1.0);
    // Accumulate the continuous argument of L(jω) − (−1) over the sweep.
    let log_lo = w_min.ln();
    let log_hi = w_max.ln();
    let mut total = 0.0f64;
    let mut prev = tf.eval(w_min) - minus_one;
    for i in 1..n {
        let w = (log_lo + (log_hi - log_lo) * i as f64 / (n - 1) as f64).exp();
        let z = tf.eval(w) - minus_one;
        // Angle increment between consecutive samples, in (−π, π].
        let d = (z / prev).arg();
        total += d;
        prev = z;
    }
    // Close the contour: the ω < 0 half contributes the same sweep by
    // conjugate symmetry, and the indentation around the integrator pole
    // at the origin maps to an infinite-radius arc sweeping −π.
    let closed = 2.0 * total - std::f64::consts::PI;
    (closed / std::f64::consts::TAU).round() as i32
}

/// The Nyquist verdict with a default sweep wide enough that `|L|` is
/// far from −1 at both ends (integrator dominance below, roll-off above).
pub fn nyquist(tf: &LoopTf) -> Stability {
    if winding_number(tf, 1e-4, 1e4, 200_000) == 0 {
        Stability::Stable
    } else {
        Stability::Unstable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bode::margins;
    use crate::law::PiGains;
    use crate::tf::LoopKind;

    #[test]
    fn pi2_is_nyquist_stable_over_the_load_range() {
        for i in 0..15 {
            let pp = 10f64.powf(-3.0 + 3.0 * i as f64 / 14.0);
            assert_eq!(
                nyquist(&LoopTf::pi2(pp, 0.1)),
                Stability::Stable,
                "at p' = {pp:.4}"
            );
        }
    }

    #[test]
    fn untuned_pie_is_nyquist_unstable_at_low_p() {
        let tf = LoopTf {
            kind: LoopKind::RenoOnP,
            gains: PiGains::pie(),
            r0: 0.1,
            p0_prime: (1e-5f64).sqrt(),
        };
        assert_eq!(nyquist(&tf), Stability::Unstable);
    }

    #[test]
    fn nyquist_agrees_with_margin_signs() {
        // Wherever both margins are comfortably positive the loop must be
        // Nyquist-stable, and where the gain margin is clearly negative it
        // must not be.
        for i in 0..12 {
            let p = 10f64.powf(-6.0 + 6.0 * i as f64 / 11.0);
            let tf = LoopTf {
                kind: LoopKind::RenoOnP,
                gains: PiGains::pie(),
                r0: 0.1,
                p0_prime: p.sqrt(),
            };
            let m = margins(&tf);
            let verdict = nyquist(&tf);
            if m.gain_margin_db > 2.0 && m.phase_margin_deg > 5.0 {
                assert_eq!(verdict, Stability::Stable, "p = {p:e}, {m:?}");
            }
            if m.gain_margin_db < -2.0 {
                assert_eq!(verdict, Stability::Unstable, "p = {p:e}, {m:?}");
            }
        }
    }

    #[test]
    fn excess_gain_flips_the_verdict() {
        let base = LoopTf::pi2(0.05, 0.1);
        assert_eq!(nyquist(&base), Stability::Stable);
        let mut hot = base;
        hot.gains = hot.gains.scaled(20.0);
        assert_eq!(nyquist(&hot), Stability::Unstable);
    }
}
