//! Gain and phase margins (Figures 4 and 7).
//!
//! The loop is evaluated along `s = jω` on a logarithmic grid; the phase
//! is unwrapped (the delay term `e^{−jωR}` winds it down indefinitely) and
//! the two classical margins are read off:
//!
//! * **phase margin** — `180° + ∠L(jω_gc)` at the gain-crossover
//!   frequency `|L(jω_gc)| = 1`;
//! * **gain margin** — `−20·log₁₀|L(jω_pc)|` at the phase-crossover
//!   frequency `∠L(jω_pc) = −180°`.
//!
//! Negative margins mean the closed loop is unstable — the oscillating
//! queues of Figure 6's fixed-gain `pi` curve.

use crate::tf::LoopTf;

/// The two stability margins at one operating point.
#[derive(Clone, Copy, Debug)]
pub struct Margins {
    /// Gain margin in dB (`f64::INFINITY` if the phase never crosses
    /// −180° in the swept band).
    pub gain_margin_db: f64,
    /// Phase margin in degrees (`f64::INFINITY` if the gain never crosses
    /// unity in the swept band).
    pub phase_margin_deg: f64,
    /// Gain-crossover frequency in rad/s, if found.
    pub crossover_w: Option<f64>,
}

/// Compute margins for a loop transfer function.
///
/// Sweeps `ω ∈ [w_min, w_max]` with `n` log-spaced points; the defaults in
/// [`margins`] cover the paper's operating range comfortably.
pub fn margins_swept(tf: &LoopTf, w_min: f64, w_max: f64, n: usize) -> Margins {
    assert!(w_min > 0.0 && w_max > w_min && n >= 16);
    let log_lo = w_min.ln();
    let log_hi = w_max.ln();

    let mut prev_w = w_min;
    let mut prev = tf.eval(w_min);
    let mut prev_mag = prev.abs();
    let mut prev_phase = prev.arg(); // unwrapped phase accumulator
    let mut gain_margin_db = f64::INFINITY;
    let mut phase_margin_deg = f64::INFINITY;
    let mut crossover_w = None;
    let mut found_pc = false;
    let mut found_gc = false;

    for i in 1..n {
        let w = (log_lo + (log_hi - log_lo) * i as f64 / (n - 1) as f64).exp();
        let z = tf.eval(w);
        let mag = z.abs();
        // Unwrap: choose the branch of arg(z) closest to the previous
        // accumulated phase.
        let mut phase = z.arg();
        let two_pi = std::f64::consts::TAU;
        while phase - prev_phase > std::f64::consts::PI {
            phase -= two_pi;
        }
        while phase - prev_phase < -std::f64::consts::PI {
            phase += two_pi;
        }

        // Gain crossover: |L| falls through 1 (integrator ⇒ starts above).
        if !found_gc && prev_mag >= 1.0 && mag < 1.0 {
            // Log-linear interpolation on magnitude.
            let t = (prev_mag.ln() - 0.0) / (prev_mag.ln() - mag.ln());
            let wc = prev_w * (w / prev_w).powf(t);
            let ph = prev_phase + (phase - prev_phase) * t;
            phase_margin_deg = 180.0 + ph.to_degrees();
            crossover_w = Some(wc);
            found_gc = true;
        }
        // Phase crossover: unwrapped phase falls through −180°.
        let neg_pi = -std::f64::consts::PI;
        if !found_pc && prev_phase > neg_pi && phase <= neg_pi {
            let t = (prev_phase - neg_pi) / (prev_phase - phase);
            let m = prev_mag.ln() + (mag.ln() - prev_mag.ln()) * t;
            gain_margin_db = -20.0 * (m.exp()).log10();
            found_pc = true;
        }
        if found_gc && found_pc {
            break;
        }
        prev_w = w;
        prev_mag = mag;
        prev_phase = phase;
        prev = z;
        let _ = prev;
    }

    Margins {
        gain_margin_db,
        phase_margin_deg,
        crossover_w,
    }
}

/// Margins with the default sweep (10⁻⁴ … 10⁴ rad/s, 20 000 points) —
/// ample for R₀ up to seconds and T = 32 ms.
///
/// ```
/// use pi2_fluid::{margins, LoopTf};
/// let m = margins(&LoopTf::pi2(0.05, 0.1)); // p' = 5%, RTT 100 ms
/// assert!(m.gain_margin_db > 0.0);
/// assert!(m.phase_margin_deg > 0.0);
/// ```
pub fn margins(tf: &LoopTf) -> Margins {
    margins_swept(tf, 1e-4, 1e4, 20_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::law::PiGains;
    use crate::tf::{LoopKind, LoopTf};

    #[test]
    fn pi2_margins_positive_over_full_load_range() {
        // Section 4's claim: with the ×2.5 gains, PI2's gain margin never
        // dips below zero anywhere over the full load range.
        for i in 0..40 {
            let p_prime = 10f64.powf(-3.0 + 3.0 * i as f64 / 39.0); // 1e-3..1
            let m = margins(&LoopTf::pi2(p_prime, 0.1));
            assert!(
                m.gain_margin_db > 0.0,
                "PI2 gain margin {:.2} dB at p'={p_prime:.4}",
                m.gain_margin_db
            );
            assert!(
                m.phase_margin_deg > 0.0,
                "PI2 phase margin {:.1}° at p'={p_prime:.4}",
                m.phase_margin_deg
            );
        }
    }

    #[test]
    fn pi2_gain_margin_is_flat() {
        // Figure 7: the PI2 gain margin stays within a narrow band while
        // p' sweeps two decades (PIE's untuned margin would vary by
        // ~20 dB/decade).
        let mut gms = Vec::new();
        for i in 0..20 {
            let p_prime = 10f64.powf(-2.0 + 2.0 * i as f64 / 19.0);
            gms.push(margins(&LoopTf::pi2(p_prime, 0.1)).gain_margin_db);
        }
        let max = gms.iter().cloned().fold(f64::MIN, f64::max);
        let min = gms.iter().cloned().fold(f64::MAX, f64::min);
        let pi2_span = max - min;
        // Contrast with the untuned Reno-on-p loop over the same sweep:
        // its margin is diagonal (~20 dB/decade), PI2's is flattened out.
        let mut pie_gms = Vec::new();
        for i in 0..20 {
            let p_prime: f64 = 10f64.powf(-2.0 + 2.0 * i as f64 / 19.0);
            let tf = LoopTf {
                kind: LoopKind::RenoOnP,
                gains: PiGains::pie(),
                r0: 0.1,
                p0_prime: p_prime,
            };
            pie_gms.push(margins(&tf).gain_margin_db);
        }
        let pie_span = pie_gms.iter().cloned().fold(f64::MIN, f64::max)
            - pie_gms.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            pi2_span < 12.0,
            "PI2 gain margin spans {min:.1}..{max:.1} dB over two decades"
        );
        assert!(
            pie_span > 2.5 * pi2_span,
            "PIE-untuned span {pie_span:.1} dB should dwarf PI2's {pi2_span:.1} dB"
        );
    }

    #[test]
    fn untuned_pie_margin_is_diagonal_and_goes_negative() {
        // Figure 4's tune=1 curve: fixed gains on the Reno-on-p loop give
        // a gain margin that falls as p shrinks and eventually goes
        // negative (instability at low load).
        let gm_at = |p: f64| {
            let tf = LoopTf {
                kind: LoopKind::RenoOnP,
                gains: PiGains::pie(), // no tune scaling
                r0: 0.1,
                p0_prime: p.sqrt(),
            };
            margins(&tf).gain_margin_db
        };
        let hi = gm_at(0.1);
        let mid = gm_at(1e-3);
        let lo = gm_at(1e-5);
        assert!(hi > mid && mid > lo, "margin not diagonal: {hi} {mid} {lo}");
        assert!(lo < 0.0, "expected instability at p=1e-5, got {lo:.1} dB");
        assert!(hi > 0.0);
    }

    #[test]
    fn auto_tuned_pie_margins_stay_positive() {
        // Figure 4's tune=auto curve: the lookup table keeps the margins
        // above zero across the whole range.
        for i in 0..30 {
            let p = 10f64.powf(-6.0 + 6.0 * i as f64 / 29.0);
            let m = margins(&LoopTf::pie_auto(p, 0.1));
            assert!(
                m.gain_margin_db > 0.0,
                "tuned PIE gain margin {:.1} dB at p={p:e}",
                m.gain_margin_db
            );
        }
    }

    #[test]
    fn scal_pi_margins_similar_to_pi2() {
        // Figure 7: the scal-pi curves sit close to reno-pi2 (the doubled
        // gains exactly offset the doubled TCP-block gain).
        for p_prime in [0.01, 0.05, 0.2, 0.8] {
            let a = margins(&LoopTf::pi2(p_prime, 0.1)).gain_margin_db;
            let b = margins(&LoopTf::scal_pi(p_prime, 0.1)).gain_margin_db;
            assert!(
                (a - b).abs() < 6.0,
                "margins diverge at p'={p_prime}: pi2 {a:.1} dB vs scal {b:.1} dB"
            );
        }
    }

    #[test]
    fn raising_gain_lowers_gain_margin() {
        let base = LoopTf::pi2(0.1, 0.1);
        let mut hot = base;
        hot.gains = hot.gains.scaled(4.0);
        let m0 = margins(&base).gain_margin_db;
        let m1 = margins(&hot).gain_margin_db;
        assert!(
            (m0 - m1 - 20.0 * 4f64.log10()).abs() < 1.0,
            "gain margin should drop by ~12 dB: {m0:.1} -> {m1:.1}"
        );
    }

    #[test]
    fn longer_rtt_erodes_margins() {
        let short = margins(&LoopTf::pi2(0.1, 0.02)).phase_margin_deg;
        let long = margins(&LoopTf::pi2(0.1, 0.3)).phase_margin_deg;
        assert!(long < short, "RTT 300 ms should have less margin: {long} vs {short}");
    }
}
