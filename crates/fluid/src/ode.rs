//! Nonlinear delay-ODE integration of the fluid model (eqs. (15)–(26)).
//!
//! The packet-level simulator in `pi2-netsim` is the ground truth of this
//! reproduction; this integrator is the fast cross-check. It integrates
//! the window/queue fluid equations of Misra et al. with the actual delay
//! terms (`W(t−R)`, `p(t−R)`) and a discrete PI controller ticking every
//! `T`, reproducing Figure 6-style dynamics in microseconds of CPU time:
//!
//! ```text
//! Reno:      dW/dt = 1/R(t) − ½·W(t)·W(t−R)/R(t−R) · s(t−R)     (15)/(18)
//! Scalable:  dW/dt = 1/R(t) − ½·W(t−R)/R(t−R) · s(t−R)          (22)
//! Queue:     dq/dt = N·W(t)/R(t) − C                            (16)
//! ```
//!
//! where `s` is the applied congestion signal: `p'` directly, `p'²`
//! capped at 25 % (PI2), or `p` from tune-scaled gains (PIE) — the output
//! law and the step of [`crate::law`], the ones the packet AQMs evaluate.

use crate::law::{tune_factor, OutputLaw, PiGains, PiStep};

/// Which window law to integrate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FluidTcpKind {
    /// TCP Reno: multiplicative decrease ∝ W(t)·W(t−R).
    Reno,
    /// The scalable half-packet-per-mark control: decrease ∝ W(t−R).
    Scalable,
}

/// How the controller's variable is encoded into the applied signal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FluidControllerKind {
    /// Apply `p'` directly (plain PI; `scal pi` when paired with
    /// [`FluidTcpKind::Scalable`], the unstable `pi` when with Reno).
    Direct,
    /// Apply `(p')²` (PI2).
    Squared,
    /// Apply `p` directly with PIE's tune-scaled gains.
    TunedDirect,
}

impl FluidControllerKind {
    /// The output law this encoder names, coupled at `scalable`, and
    /// whether PIE's tune table scales the step: the one reader of the kind.
    pub fn law(self, scalable: Option<f64>) -> (OutputLaw, bool) {
        match self {
            FluidControllerKind::Direct => (OutputLaw::Direct, false),
            FluidControllerKind::TunedDirect => (OutputLaw::Direct, true),
            FluidControllerKind::Squared => (OutputLaw::Squared { inv_k: 1.0, scalable }, false),
        }
    }
}

/// Fluid-model configuration.
#[derive(Clone, Debug)]
pub struct FluidConfig {
    /// Link capacity in packets per second.
    pub capacity_pps: f64,
    /// Two-way propagation delay Tp in seconds (RTT excluding queue).
    pub base_rtt: f64,
    /// Flow-count schedule: `(time, N)` steps, first entry at t = 0.
    pub n_flows: Vec<(f64, f64)>,
    /// Window law.
    pub tcp: FluidTcpKind,
    /// Signal encoding.
    pub encoder: FluidControllerKind,
    /// PI gains.
    pub gains: PiGains,
    /// Delay target τ₀ in seconds.
    pub target: f64,
    /// Integration step in seconds (must divide the controller period).
    pub dt: f64,
}

impl Default for FluidConfig {
    fn default() -> Self {
        FluidConfig {
            capacity_pps: 10_000_000.0 / 8.0 / 1500.0, // 10 Mb/s of 1500 B packets
            base_rtt: 0.1,
            n_flows: vec![(0.0, 5.0)],
            tcp: FluidTcpKind::Reno,
            encoder: FluidControllerKind::Squared,
            gains: PiGains::pi2(),
            target: 0.020,
            dt: 0.001,
        }
    }
}

/// One integration sample.
#[derive(Clone, Copy, Debug)]
pub struct FluidSample {
    /// Time in seconds.
    pub t: f64,
    /// Queue delay τ = q/C in seconds.
    pub qdelay: f64,
    /// The controller's variable p'.
    pub p_prime: f64,
    /// Per-flow window in packets.
    pub w: f64,
}

/// The integrator.
///
/// ```
/// use pi2_fluid::{FluidConfig, FluidSim};
/// let samples = FluidSim::new(FluidConfig::default()).run(60.0, 0.1);
/// let late: Vec<f64> = samples.iter().filter(|s| s.t > 40.0).map(|s| s.qdelay).collect();
/// let mean = late.iter().sum::<f64>() / late.len() as f64;
/// assert!((mean - 0.020).abs() < 0.005); // settles on the 20 ms target
/// ```
pub struct FluidSim {
    cfg: FluidConfig,
    /// The encoder's law, and whether the tune table scales its step.
    law: OutputLaw,
    tuned: bool,
    /// History of (W, R, applied signal) per step, for the delay terms.
    hist_w: Vec<f64>,
    hist_r: Vec<f64>,
    hist_s: Vec<f64>,
    w: f64,
    q: f64,
    p_prime: f64,
    prev_qdelay: f64,
    t: f64,
    steps: u64,
    ctrl_every: u64,
}

impl FluidSim {
    /// Create an integrator at the initial condition W = 1, q = 0, p' = 0.
    pub fn new(cfg: FluidConfig) -> Self {
        assert!(cfg.dt > 0.0 && cfg.capacity_pps > 0.0 && cfg.base_rtt > 0.0);
        assert!(!cfg.n_flows.is_empty(), "need at least one flow-count step");
        let ctrl_every = (cfg.gains.t_update / cfg.dt).round().max(1.0) as u64;
        let (law, tuned) = cfg.encoder.law(None);
        FluidSim {
            law,
            tuned,
            hist_w: Vec::new(),
            hist_r: Vec::new(),
            hist_s: Vec::new(),
            w: 1.0,
            q: 0.0,
            p_prime: 0.0,
            prev_qdelay: 0.0,
            t: 0.0,
            steps: 0,
            ctrl_every,
            cfg,
        }
    }

    fn n_at(&self, t: f64) -> f64 {
        let mut n = self.cfg.n_flows[0].1;
        for &(at, nn) in &self.cfg.n_flows {
            if t >= at {
                n = nn;
            }
        }
        n
    }

    /// Look a round-trip into the past (clamped to the start of history).
    fn delayed(&self, r: f64) -> (f64, f64, f64) {
        let lag = (r / self.cfg.dt).round() as usize;
        let idx = self.hist_w.len().saturating_sub(lag.max(1));
        if self.hist_w.is_empty() {
            (self.w, self.cfg.base_rtt, 0.0)
        } else {
            (self.hist_w[idx], self.hist_r[idx], self.hist_s[idx])
        }
    }

    /// Integrate one step; returns the sample after the step.
    pub fn step(&mut self) -> FluidSample {
        let c = self.cfg.capacity_pps;
        let qdelay = self.q / c;
        let r = qdelay + self.cfg.base_rtt;
        let n = self.n_at(self.t);

        // Controller tick.
        if self.steps % self.ctrl_every == 0 {
            let (err, growth) = (qdelay - self.cfg.target, qdelay - self.prev_qdelay);
            let g = &self.cfg.gains;
            let mut delta = PiStep::new(g.alpha, g.beta, err, growth).delta();
            if self.tuned {
                delta *= tune_factor(self.p_prime);
            }
            self.p_prime = (self.p_prime + delta).clamp(0.0, 1.0);
            self.prev_qdelay = qdelay;
        }

        // Record history *before* updating, so delayed() sees the past.
        self.hist_w.push(self.w);
        self.hist_r.push(r);
        // The applied signal; the ODE's law has no Scalable coupling.
        self.hist_s.push(self.law.classic(self.p_prime));

        let (w_d, r_d, s_d) = self.delayed(r);
        let decrease = match self.cfg.tcp {
            FluidTcpKind::Reno => 0.5 * self.w * w_d / r_d * s_d,
            FluidTcpKind::Scalable => 0.5 * w_d / r_d * s_d,
        };
        let dw = 1.0 / r - decrease;
        let dq = n * self.w / r - c;

        self.w = (self.w + dw * self.cfg.dt).max(1e-3);
        self.q = (self.q + dq * self.cfg.dt).max(0.0);
        self.t += self.cfg.dt;
        self.steps += 1;

        FluidSample {
            t: self.t,
            qdelay: self.q / c,
            p_prime: self.p_prime,
            w: self.w,
        }
    }

    /// Run until `t_end`, sampling every `sample_every` seconds.
    pub fn run(&mut self, t_end: f64, sample_every: f64) -> Vec<FluidSample> {
        let mut out = Vec::new();
        let mut next_sample = 0.0;
        while self.t < t_end {
            let s = self.step();
            if s.t >= next_sample {
                out.push(s);
                next_sample += sample_every;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::law::CLASSIC_CAP;

    fn settle(cfg: FluidConfig, secs: f64) -> Vec<FluidSample> {
        FluidSim::new(cfg).run(secs, 0.01)
    }

    fn tail(samples: &[FluidSample], frac: f64) -> &[FluidSample] {
        let start = (samples.len() as f64 * (1.0 - frac)) as usize;
        &samples[start..]
    }

    #[test]
    fn pi2_reno_settles_on_target_delay() {
        let samples = settle(FluidConfig::default(), 120.0);
        let late = tail(&samples, 0.25);
        let mean: f64 = late.iter().map(|s| s.qdelay).sum::<f64>() / late.len() as f64;
        assert!(
            (mean - 0.020).abs() < 0.004,
            "fluid PI2 queue delay settles at {:.1} ms",
            mean * 1000.0
        );
    }

    #[test]
    fn reno_operating_point_matches_w0_sq_p0_sq_eq_2() {
        // Eq. (19): W₀²·p₀′² = 2 at equilibrium for Reno on a squared p'.
        let samples = settle(FluidConfig::default(), 200.0);
        let late = tail(&samples, 0.2);
        let w: f64 = late.iter().map(|s| s.w).sum::<f64>() / late.len() as f64;
        let pp: f64 = late.iter().map(|s| s.p_prime).sum::<f64>() / late.len() as f64;
        let product = w * w * pp * pp;
        assert!(
            (product - 2.0).abs() < 0.4,
            "W₀²p₀′² = {product:.2}, expected 2 (W={w:.1}, p'={pp:.4})"
        );
    }

    #[test]
    fn scalable_operating_point_matches_w0_p0_eq_2() {
        // Eq. (23): W₀·p₀′ = 2 for the scalable control on direct p'.
        let cfg = FluidConfig {
            tcp: FluidTcpKind::Scalable,
            encoder: FluidControllerKind::Direct,
            gains: PiGains::scal_pi(),
            ..FluidConfig::default()
        };
        let samples = settle(cfg, 200.0);
        let late = tail(&samples, 0.2);
        let w: f64 = late.iter().map(|s| s.w).sum::<f64>() / late.len() as f64;
        let pp: f64 = late.iter().map(|s| s.p_prime).sum::<f64>() / late.len() as f64;
        let product = w * pp;
        assert!(
            (product - 2.0).abs() < 0.4,
            "W₀p₀′ = {product:.2}, expected 2"
        );
    }

    #[test]
    fn untuned_pi_oscillates_where_pi2_does_not() {
        // Figure 6's premise at fluid level: few flows on a fast link keep
        // p very low, where fixed-gain PI on Reno loses its margins. The
        // deterministic fluid model damps the full packet-level limit
        // cycle, but the residual oscillation contrast is stark: PI2 is
        // quiescent to machine precision, fixed-gain PI is not.
        let base = FluidConfig {
            capacity_pps: 100_000_000.0 / 8.0 / 1500.0,
            base_rtt: 0.010,
            n_flows: vec![(0.0, 4.0)],
            dt: 0.0002,
            ..FluidConfig::default()
        };
        let pi = FluidConfig {
            tcp: FluidTcpKind::Reno,
            encoder: FluidControllerKind::Direct,
            gains: PiGains::pie(), // fixed, untuned
            ..base.clone()
        };
        let pi2 = FluidConfig {
            tcp: FluidTcpKind::Reno,
            encoder: FluidControllerKind::Squared,
            gains: PiGains::pi2(),
            ..base
        };
        let std_of = |cfg: FluidConfig| {
            let samples = settle(cfg, 60.0);
            let late = tail(&samples, 0.5);
            let mean: f64 = late.iter().map(|s| s.qdelay).sum::<f64>() / late.len() as f64;
            (late
                .iter()
                .map(|s| (s.qdelay - mean).powi(2))
                .sum::<f64>()
                / late.len() as f64)
                .sqrt()
        };
        let s_pi = std_of(pi);
        let s_pi2 = std_of(pi2);
        assert!(
            s_pi > 2e-4,
            "fixed-gain PI should show residual oscillation, std {:.3} ms",
            s_pi * 1000.0
        );
        assert!(
            s_pi2 < 1e-4,
            "PI2 should be quiescent, std {:.3} ms",
            s_pi2 * 1000.0
        );
    }

    #[test]
    fn load_step_raises_p_prime() {
        let cfg = FluidConfig {
            n_flows: vec![(0.0, 5.0), (60.0, 30.0)],
            ..FluidConfig::default()
        };
        let samples = settle(cfg, 120.0);
        let before: f64 = samples
            .iter()
            .filter(|s| s.t > 40.0 && s.t < 60.0)
            .map(|s| s.p_prime)
            .sum::<f64>()
            / samples.iter().filter(|s| s.t > 40.0 && s.t < 60.0).count() as f64;
        let after: f64 = samples
            .iter()
            .filter(|s| s.t > 100.0)
            .map(|s| s.p_prime)
            .sum::<f64>()
            / samples.iter().filter(|s| s.t > 100.0).count() as f64;
        // Section 4: load ∝ 1/W ∝ N, and p' is linear in load, so 6× the
        // flows must drive p' up ≈6× (and p = p'² up 36×).
        let ratio = after / before;
        assert!(
            (4.5..7.5).contains(&ratio),
            "p' ratio after 5→30 flows: {ratio:.2} (expected ≈ 6)"
        );
    }

    #[test]
    fn an_overloaded_reno_population_is_signalled_at_most_the_classic_cap() {
        // The flow-level engine's test of the same name, on the ODE.
        let mut sim = FluidSim::new(FluidConfig {
            capacity_pps: 1.0e6 / 8.0 / 1500.0,
            base_rtt: 0.020,
            n_flows: vec![(0.0, 1_000.0)],
            ..FluidConfig::default()
        });
        for _ in 0..20_000 {
            let s = sim.step();
            let applied = *sim.hist_s.last().unwrap();
            assert!(applied <= CLASSIC_CAP, "t = {}: signal {applied}", s.t);
            assert_eq!(applied, sim.law.classic(s.p_prime), "t = {}", s.t);
        }
        assert_eq!(sim.p_prime, 1.0, "the population saturates p'");
    }

    #[test]
    fn queue_never_negative_and_w_bounded() {
        let samples = settle(FluidConfig::default(), 30.0);
        for s in &samples {
            assert!(s.qdelay >= 0.0);
            assert!(s.w.is_finite() && s.w > 0.0);
            assert!((0.0..=1.0).contains(&s.p_prime));
        }
    }
}
