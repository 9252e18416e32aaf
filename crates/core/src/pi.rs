//! The Proportional-Integral core (paper eq. (4)) and the one PI AQM.
//!
//! Every controller in this crate is built around the same two-term
//! update, run every interval `T`:
//!
//! ```text
//! p(t) = p(t−T) + α·(τ(t) − τ₀) + β·(τ(t) − τ(t−T))
//! ```
//!
//! where `τ` is the queuing delay, `τ₀` the target, and α, β gains in Hz.
//! The proportional term (β) pushes against queue *growth*; the integral
//! term (α) removes the standing error. What differs between PIE, PI and
//! PI2 is only (a) how the gains are scaled and (b) how the controlled
//! variable is encoded into a drop/mark probability.
//!
//! PIE scales the gains (its tune table). PI, PI2 and the coupled AQM do
//! not, so they are one type, [`PiAqm`]: one loop with an output law —
//! `p` itself, `(p')²`, or `p'` for Scalable packets and `(p'/k)²` for
//! Classic ones (Figures 6–9).
//! The step, gains and output law are [`pi2_fluid::law`]'s, which the fluid
//! engines evaluate too; the per-packet draw stays here ([`decide`]).

use crate::estimator::DelayEstimator;
use crate::pi2::SquareMode;
use pi2_fluid::law::{OutputLaw, PiGains, PiStep};
use pi2_netsim::{Aqm, AqmState, Decision, Packet, QueueSnapshot};
use pi2_simcore::{ckpt_fields, Duration, Rng, Time};

/// The shared PI state machine.
///
/// ```
/// use pi2_aqm::PiCore;
/// use pi2_simcore::Duration;
/// let mut pi = PiCore::new(0.3125, 3.125, Duration::from_millis(20), Duration::from_millis(32));
/// // Queue delay above target: the probability must rise.
/// let p1 = pi.update(Duration::from_millis(30));
/// let p2 = pi.update(Duration::from_millis(30));
/// assert!(p2 > p1 && p1 > 0.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PiCore {
    /// Integral gain α in Hz.
    pub alpha_hz: f64,
    /// Proportional gain β in Hz.
    pub beta_hz: f64,
    /// Queuing-delay target τ₀.
    pub target: Duration,
    /// Update interval T.
    pub t_update: Duration,
    prev_qdelay: Duration,
    p: f64,
    last: PiStep,
}

impl PiCore {
    /// Create a PI core with probability 0 and no delay history.
    pub fn new(alpha_hz: f64, beta_hz: f64, target: Duration, t_update: Duration) -> Self {
        assert!(alpha_hz > 0.0 && beta_hz > 0.0, "gains must be positive");
        assert!(t_update > Duration::ZERO, "update interval must be positive");
        PiCore {
            alpha_hz,
            beta_hz,
            target,
            t_update,
            prev_qdelay: Duration::ZERO,
            p: 0.0,
            last: PiStep::default(),
        }
    }

    /// The current controlled variable, in `[0, 1]`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Force the controlled variable (used by PIE's heuristics).
    pub fn set_p(&mut self, p: f64) {
        self.p = p.clamp(0.0, 1.0);
    }

    /// The raw Δp eq. (4) would apply for the given delay, *without*
    /// integrating it — callers scale it first (PIE's tune) or just add
    /// it. Records the two unscaled contributions for telemetry probes
    /// ([`PiCore::last_terms`]).
    pub fn delta(&mut self, qdelay: Duration) -> f64 {
        let err = (qdelay - self.target).as_secs_f64();
        let growth = (qdelay - self.prev_qdelay).as_secs_f64();
        self.last = PiStep::new(self.alpha_hz, self.beta_hz, err, growth);
        self.last.delta()
    }

    /// The `(α·(τ − τ₀), β·(τ − τ_prev))` contributions of the most recent
    /// [`PiCore::delta`] evaluation, before any caller-side scaling.
    pub fn last_terms(&self) -> (f64, f64) {
        (self.last.alpha_term, self.last.beta_term)
    }

    /// Integrate a (possibly scaled) Δp and record the delay history.
    /// Returns the new controlled variable.
    pub fn integrate(&mut self, delta: f64, qdelay: Duration) -> f64 {
        self.p = (self.p + delta).clamp(0.0, 1.0);
        self.prev_qdelay = qdelay;
        self.p
    }

    /// Plain eq.-(4) update: integrate the unscaled delta.
    pub fn update(&mut self, qdelay: Duration) -> f64 {
        let d = self.delta(qdelay);
        self.integrate(d, qdelay)
    }

    /// Previous update's queue delay (PIE's `qdelay_old`).
    pub fn prev_qdelay(&self) -> Duration {
        self.prev_qdelay
    }

    fn check(&self) -> Result<(), &'static str> {
        if !(0.0..=1.0).contains(&self.p) {
            return Err("PI probability outside [0, 1]");
        }
        Ok(())
    }
}

// The mutable controller state; gains, target and interval are
// configuration and stay with the instance.
ckpt_fields!(PiCore { prev_qdelay, p, last.alpha_term, last.beta_term } check PiCore::check);

/// Configuration of the plain PI controller ([`Pi`]).
#[derive(Clone, Copy, Debug)]
pub struct PiConfig {
    /// Integral gain α in Hz. Default: the paper's Scalable-PI gains
    /// (Table 1, `PI/PI2+DCTCP`: α = 10/16).
    pub alpha_hz: f64,
    /// Proportional gain β in Hz (Table 1: β = 100/16).
    pub beta_hz: f64,
    /// Delay target τ₀ (Table 1: 20 ms).
    pub target: Duration,
    /// Update interval T (paper: 32 ms).
    pub t_update: Duration,
    /// Queue-delay estimation strategy.
    pub estimator: DelayEstimator,
}

impl Default for PiConfig {
    fn default() -> Self {
        let gains = PiGains::scal_pi();
        PiConfig {
            alpha_hz: gains.alpha,
            beta_hz: gains.beta,
            target: Duration::from_millis(20),
            t_update: Duration::from_millis(32),
            estimator: DelayEstimator::QlenOverRate,
        }
    }
}

impl PiConfig {
    /// The fixed-gain configuration of Figure 6's `pi` curve: PIE's gains
    /// (α = 0.125, β = 1.25) with auto-tuning removed — the straw man that
    /// oscillates at low load.
    pub fn untuned_pie_gains() -> Self {
        let gains = PiGains::pie();
        PiConfig {
            alpha_hz: gains.alpha,
            beta_hz: gains.beta,
            ..PiConfig::default()
        }
    }
}

/// The verdict on `pkt` under `law` at controlled variable `p` with
/// `qlen_pkts` queued: a signal marks an ECN-capable packet and drops the
/// rest. A squared law draws the Classic square by `mode` and signals no
/// packet while two or fewer are queued (the Linux tiny-queue guard).
#[inline]
pub(crate) fn decide(
    law: OutputLaw,
    mode: SquareMode,
    p: f64,
    pkt: &Packet,
    qlen_pkts: usize,
    rng: &mut Rng,
) -> Decision {
    let (prob, signal) = match law {
        OutputLaw::Direct => (p, rng.chance(p)),
        OutputLaw::Squared { scalable: Some(_), .. } if pkt.ecn.is_scalable() => {
            let ps = law.scalable(p);
            (ps, qlen_pkts > 2 && rng.chance(ps))
        }
        OutputLaw::Squared { inv_k, .. } => {
            // The cap, exactly, before squaring: 0.5 = √CLASSIC_CAP (the
            // per-packet path takes no square root).
            let pp = (p * inv_k).min(0.5);
            (law.classic(p), qlen_pkts > 2 && mode.signal(pp, rng))
        }
    };
    if !signal {
        Decision::pass(prob)
    } else if pkt.ecn.is_ect() {
        Decision::mark(prob)
    } else {
        Decision::drop(prob)
    }
}

/// One PI loop on the estimated queue delay, with an output law.
///
/// [`Pi`], [`crate::Pi2`] and [`crate::CoupledPi2`] are this type, built
/// from their configurations: the `scal pi`/`pi` controller of Figures 6
/// and 7 (`Direct`), PI2 (`Squared`, `inv_k = 1`) and the
/// coupled AQM (`Squared`, `inv_k = 1/k`, a Scalable class at `k_s = 1`).
#[derive(Clone, Copy, Debug)]
pub struct PiAqm {
    pub(crate) core: PiCore,
    pub(crate) estimator: DelayEstimator,
    pub(crate) law: OutputLaw,
    pub(crate) mode: SquareMode,
}

/// The plain PI controller: [`PiAqm`] under the `Direct` law.
pub type Pi = PiAqm;

impl PiAqm {
    /// Build from a configuration ([`PiConfig`], [`crate::Pi2Config`] or
    /// [`crate::CoupledPi2Config`]).
    pub fn new(cfg: impl Into<PiAqm>) -> Self {
        cfg.into()
    }

    /// The controlled variable (PI2's linear pseudo-probability `p'`).
    pub fn p_prime(&self) -> f64 {
        self.core.p()
    }

    /// The probability Classic packets see.
    pub fn classic_prob(&self) -> f64 {
        self.law.classic(self.core.p())
    }

    /// The probability Scalable packets see; 0 for a law without them.
    pub fn scalable_prob(&self) -> f64 {
        match self.law {
            OutputLaw::Squared { scalable: Some(_), .. } => self.law.scalable(self.core.p()),
            _ => 0.0,
        }
    }
}

impl From<PiConfig> for PiAqm {
    fn from(cfg: PiConfig) -> Self {
        PiAqm {
            core: PiCore::new(cfg.alpha_hz, cfg.beta_hz, cfg.target, cfg.t_update),
            estimator: cfg.estimator,
            law: OutputLaw::Direct,
            mode: SquareMode::Multiply,
        }
    }
}

impl Aqm for PiAqm {
    fn on_enqueue(
        &mut self,
        pkt: &Packet,
        snap: &QueueSnapshot,
        _now: Time,
        rng: &mut Rng,
    ) -> Decision {
        decide(self.law, self.mode, self.core.p(), pkt, snap.qlen_pkts, rng)
    }

    fn on_dequeue(&mut self, pkt: &Packet, _sojourn: Duration, snap: &QueueSnapshot, now: Time) {
        self.estimator.on_dequeue(pkt.size, snap.qlen_bytes, now);
    }

    fn update(&mut self, snap: &QueueSnapshot, _now: Time) {
        // One unscaled eq.-(4) update, whatever the law: no tune table.
        let qdelay = self.estimator.estimate(snap);
        self.core.update(qdelay);
    }

    fn update_interval(&self) -> Option<Duration> {
        Some(self.core.t_update)
    }

    fn probe(&self) -> AqmState {
        let (alpha_term, beta_term) = self.core.last_terms();
        AqmState {
            p_prime: self.core.p(),
            prob: self.classic_prob(),
            scalable_prob: self.scalable_prob(),
            alpha_term,
            beta_term,
            est_rate_bytes_per_sec: self.estimator.rate_estimate().unwrap_or(0.0),
            qdelay: self.core.prev_qdelay(),
            ..AqmState::default()
        }
    }

    fn name(&self) -> &'static str {
        match self.law {
            OutputLaw::Direct => "pi",
            OutputLaw::Squared { scalable: None, .. } => "pi2",
            OutputLaw::Squared { .. } => "coupled-pi2",
        }
    }
}

// The law is configuration; only the controller and the estimator carry run
// state.
ckpt_fields!(PiAqm { core, estimator });

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_netsim::{Ecn, FlowId};

    fn snap(qlen_bytes: usize) -> QueueSnapshot {
        QueueSnapshot {
            qlen_bytes,
            qlen_pkts: qlen_bytes / 1500,
            link_rate_bps: 10_000_000,
            last_sojourn: None,
        }
    }

    fn core() -> PiCore {
        PiCore::new(
            0.3125,
            3.125,
            Duration::from_millis(20),
            Duration::from_millis(32),
        )
    }

    #[test]
    fn p_starts_at_zero_and_stays_bounded() {
        let mut c = core();
        assert_eq!(c.p(), 0.0);
        for _ in 0..10_000 {
            c.update(Duration::from_secs(10)); // absurd delay
        }
        assert_eq!(c.p(), 1.0);
        for _ in 0..10_000 {
            c.update(Duration::ZERO);
        }
        assert_eq!(c.p(), 0.0);
    }

    #[test]
    fn integral_term_raises_p_on_standing_error() {
        let mut c = core();
        // Constant delay above target: first update has a growth term,
        // later ones only the integral part.
        let d1 = c.update(Duration::from_millis(30));
        let d2 = c.update(Duration::from_millis(30));
        let d3 = c.update(Duration::from_millis(30));
        assert!(d1 > 0.0);
        // Steady error of 10 ms: Δp = α·0.01 each tick.
        assert!(((d3 - d2) - 0.3125 * 0.01).abs() < 1e-12);
    }

    #[test]
    fn proportional_term_reacts_to_growth() {
        let mut c = core();
        // Delay at target (no integral error) but growing by 5 ms per tick.
        c.update(Duration::from_millis(20));
        let before = c.p();
        let after = c.update(Duration::from_millis(25));
        // err = 5ms·α, growth = 5ms·β.
        let expect = 0.3125 * 0.005 + 3.125 * 0.005;
        assert!(((after - before) - expect).abs() < 1e-12);
    }

    #[test]
    fn negative_error_pulls_p_down() {
        let mut c = core();
        c.set_p(0.5);
        c.update(Duration::from_millis(20)); // prime history at target
        let p1 = c.p();
        let p2 = c.update(Duration::from_millis(5)); // below target, shrinking
        assert!(p2 < p1);
    }

    #[test]
    fn pi_aqm_marks_ect_and_drops_not_ect() {
        let mut pi = Pi::new(PiConfig::default());
        pi.core.set_p(1.0);
        let mut rng = Rng::new(3);
        let s = snap(30_000);
        let ect = Packet::data(FlowId(0), 0, 1500, Ecn::Ect1, Time::ZERO);
        let not = Packet::data(FlowId(0), 0, 1500, Ecn::NotEct, Time::ZERO);
        let d1 = pi.on_enqueue(&ect, &s, Time::ZERO, &mut rng);
        let d2 = pi.on_enqueue(&not, &s, Time::ZERO, &mut rng);
        assert_eq!(d1.action, pi2_netsim::Action::Mark);
        assert_eq!(d2.action, pi2_netsim::Action::Drop);
    }

    #[test]
    fn pi_aqm_signal_frequency_tracks_p() {
        let mut pi = Pi::new(PiConfig::default());
        pi.core.set_p(0.3);
        let mut rng = Rng::new(5);
        let s = snap(30_000);
        let pkt = Packet::data(FlowId(0), 0, 1500, Ecn::Ect1, Time::ZERO);
        let n = 100_000;
        let marks = (0..n)
            .filter(|_| {
                pi.on_enqueue(&pkt, &s, Time::ZERO, &mut rng).action == pi2_netsim::Action::Mark
            })
            .count();
        let f = marks as f64 / n as f64;
        assert!((f - 0.3).abs() < 0.01, "mark frequency {f}");
    }

    #[test]
    fn update_interval_matches_config() {
        let pi = Pi::new(PiConfig::default());
        assert_eq!(pi.update_interval(), Some(Duration::from_millis(32)));
    }
}
