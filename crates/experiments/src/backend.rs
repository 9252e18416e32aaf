//! Execution backends: packet, fluid, and the hybrid coupling.
//!
//! One [`Scenario`] can execute three ways:
//!
//! * **packet** — the default `pi2-netsim` discrete-event run, every
//!   packet simulated ([`Scenario::run`]);
//! * **fluid** — the same scenario compiled onto the flow-level engine
//!   ([`pi2_fluid::FlowLevelSim`]): no per-packet events, so 100k–1M-flow
//!   populations cost the same as 5 ([`run_fluid`]);
//! * **hybrid** — the foreground flow groups run packet-level while a
//!   background population ([`Scenario::background`]) is carried by the
//!   fluid engine, coupled to the *real* AQM's probabilities and queue
//!   delay each controller tick and stealing bottleneck capacity in
//!   return (see [`pi2_netsim::background`]).
//!
//! [`BackendSummary`] reduces any backend's output to the four
//! band-checked conformance metrics (utilization, mean queue delay,
//! signal probability, per-flow rate ratio), which is what `pi2-validate`
//! judges the flow-level engine, hybrid mode and the delay-ODE on against
//! pure packet runs.

use crate::scenario::{AqmKind, RunResult, Scenario};
use pi2_fluid::{
    FlowClass, FlowLevelConfig, FlowLevelSample, FlowLevelSim, FluidControllerKind,
    FluidTcpKind, PiGains,
};
use pi2_netsim::BackgroundAggregate;
use pi2_simcore::ckpt::SchemaHasher;
use pi2_simcore::{ckpt_fields, Duration};
use pi2_transport::CcKind;

/// MTU-sized segments, as everywhere else in the repo.
const PKT_BYTES: f64 = 1500.0;

/// Which execution backend runs a scenario.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Backend {
    /// Full packet-level discrete-event simulation.
    #[default]
    Packet,
    /// Flow-level fluid engine, no per-packet events.
    Fluid,
    /// Packet-level foreground + fluid background aggregate.
    Hybrid,
}

impl Backend {
    /// Parse a `--backend` value.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "packet" => Some(Backend::Packet),
            "fluid" => Some(Backend::Fluid),
            "hybrid" => Some(Backend::Hybrid),
            _ => None,
        }
    }

    /// CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Packet => "packet",
            Backend::Fluid => "fluid",
            Backend::Hybrid => "hybrid",
        }
    }
}

/// A homogeneous background flow population for hybrid mode (the
/// flow-level analogue of [`crate::scenario::FlowGroup`]).
#[derive(Clone, Debug)]
pub struct BgGroup {
    /// Number of flows the aggregate represents.
    pub count: usize,
    /// Congestion control (mapped onto the closest fluid window law).
    pub cc: CcKind,
    /// Base RTT.
    pub rtt: Duration,
    /// Label for reporting.
    pub label: String,
}

impl BgGroup {
    /// A background group of `count` flows.
    pub fn new(count: usize, cc: CcKind, rtt: Duration, label: &str) -> Self {
        BgGroup {
            count,
            cc,
            rtt,
            label: label.to_string(),
        }
    }
}

/// The closest fluid window law for a packet-level congestion control:
/// the AIMD family follows Reno's `W ∝ 1/√p`, everything scalable the
/// `W ∝ 1/p` law.
pub fn cc_fluid_kind(cc: CcKind) -> FluidTcpKind {
    match cc {
        CcKind::Reno | CcKind::Cubic => FluidTcpKind::Reno,
        _ => FluidTcpKind::Scalable,
    }
}

/// How a packet-level AQM's controller maps onto the fluid encoders.
#[derive(Clone, Copy, Debug)]
pub struct FluidEncoding {
    /// Signal encoder (`p'`, `p'²`, or tune-scaled `p`).
    pub encoder: FluidControllerKind,
    /// Controller gains.
    pub gains: PiGains,
    /// Delay target in seconds.
    pub target: f64,
    /// Scalable coupling factor k (meaningful for the PI2 family).
    pub coupling: f64,
    /// Whether the AQM exposes a distinct scalable-side probability.
    pub coupled: bool,
}

/// Which fluid law an AQM is — the one AQM → fluid table, read by both
/// fluid constructors here and by every model half `pi2-validate` judges.
/// Derived from the scenario's actual AQM configuration (gains, target,
/// update interval, coupling), not from presets. Curvy RED, tail-drop,
/// FQ and the fixed and step markers have no PI-family fluid model: `Err`
/// names them.
pub fn fluid_encoding(aqm: &AqmKind) -> Result<FluidEncoding, String> {
    use FluidControllerKind::{Direct, Squared, TunedDirect};
    // (encoder, α, β, T, τ₀, coupling k, a distinct Scalable probability)
    let (encoder, alpha, beta, t_update, target, coupling, coupled) = match aqm {
        AqmKind::Pi2(c) => (Squared, c.alpha_hz, c.beta_hz, c.t_update, c.target, 2.0, false),
        // The fluid p' is the coupled AQM's p'/k, so its gains are ÷k.
        AqmKind::Coupled(c) => {
            (Squared, c.alpha_hz / c.k, c.beta_hz / c.k, c.t_update, c.target, c.k, true)
        }
        AqmKind::DualQ(c) => (Squared, c.alpha_hz, c.beta_hz, c.t_update, c.target, c.k, true),
        AqmKind::Pi(c) => (Direct, c.alpha_hz, c.beta_hz, c.t_update, c.target, 1.0, false),
        AqmKind::Pie(c) => (TunedDirect, c.alpha_hz, c.beta_hz, c.t_update, c.target, 1.0, false),
        other => {
            return Err(format!(
                "backend fluid/hybrid needs a PI-family AQM (pi, pi2, pie, coupled-pi2, dualpi2); '{}' has no fluid model",
                other.name()
            ))
        }
    };
    let t_update = t_update.as_secs_f64();
    Ok(FluidEncoding {
        encoder,
        gains: PiGains { alpha, beta, t_update },
        target: target.as_secs_f64(),
        coupling,
        coupled,
    })
}

/// The engine configuration both fluid constructors build, with what
/// [`FlowLevelSim::new`] asserts on checked first: the link rate and the
/// class RTTs come straight from the command line (`--rtt 0ms`), and a
/// description the engine cannot run is the user's error, not a panic.
fn engine_config(
    encoding: &FluidEncoding,
    rate_bps: u64,
    classes: Vec<FlowClass>,
) -> Result<FlowLevelConfig, String> {
    if rate_bps == 0 {
        return Err("the link rate must be positive".to_string());
    }
    let bad_rtt = |cl: &&FlowClass| !(cl.base_rtt > 0.0 && cl.base_rtt.is_finite());
    if let Some(cl) = classes.iter().find(bad_rtt) {
        return Err(format!(
            "every flow class needs a positive base RTT, got {} s",
            cl.base_rtt
        ));
    }
    Ok(FlowLevelConfig {
        capacity_pps: rate_bps as f64 / 8.0 / PKT_BYTES,
        classes,
        encoder: encoding.encoder,
        gains: encoding.gains,
        target: encoding.target,
        coupling: encoding.coupling,
        dt: 0.001,
    })
}

/// The fluid background aggregate for hybrid mode: wraps the flow-level
/// engine and implements the capacity-stealing coupling contract of
/// [`pi2_netsim::background::BackgroundAggregate`].
pub struct FluidBackground {
    sim: FlowLevelSim,
    /// Use the AQM's scalable-side probability for scalable classes
    /// (coupled AQMs); otherwise every class sees the classic one.
    coupled: bool,
    flows: u64,
    fingerprint: u64,
}

impl FluidBackground {
    /// Build the aggregate for `groups` behind an `aqm` at `rate_bps`.
    pub fn new(groups: &[BgGroup], aqm: &AqmKind, rate_bps: u64) -> Result<Self, String> {
        let encoding = fluid_encoding(aqm)?;
        let classes: Vec<FlowClass> = groups
            .iter()
            .filter(|g| g.count > 0)
            .map(|g| FlowClass::new(g.count as f64, cc_fluid_kind(g.cc), g.rtt.as_secs_f64()))
            .collect();
        if classes.is_empty() {
            return Err("hybrid background needs at least one flow".to_string());
        }
        let mut h = SchemaHasher::new();
        h.update_u64(classes.len() as u64);
        for (g, cl) in groups.iter().filter(|g| g.count > 0).zip(&classes) {
            h.update_u64(g.count as u64);
            h.update_u64(matches!(cl.tcp, FluidTcpKind::Scalable) as u64);
            h.update_u64(g.rtt.as_nanos() as u64);
            h.update_str(&g.label);
        }
        let flows = groups.iter().map(|g| g.count as u64).sum();
        let cfg = engine_config(&encoding, rate_bps, classes)?;
        Ok(FluidBackground {
            sim: FlowLevelSim::new(cfg),
            coupled: encoding.coupled,
            flows,
            fingerprint: h.finish(),
        })
    }
}

impl BackgroundAggregate for FluidBackground {
    fn on_tick(
        &mut self,
        dt: Duration,
        classic_prob: f64,
        scalable_prob: f64,
        qdelay: Duration,
    ) -> u64 {
        let scal = if self.coupled { scalable_prob } else { classic_prob };
        let pps = self.sim.tick_external(
            dt.as_secs_f64(),
            classic_prob,
            scal,
            qdelay.as_secs_f64(),
        );
        (pps * PKT_BYTES * 8.0).round() as u64
    }

    fn flow_count(&self) -> u64 {
        self.flows
    }

    fn schema_fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

// The engine's run state; the rest is configuration.
ckpt_fields!(FluidBackground { sim });

/// Post-run background accounting captured into [`RunResult`].
#[derive(Clone, Debug)]
pub struct BackgroundRun {
    /// Flows the aggregate represented.
    pub flow_count: u64,
    /// Total background volume served, bytes (full run).
    pub bg_bytes: f64,
    /// Coupling ticks taken.
    pub ticks: u64,
    /// The aggregate-rate counter track: `(t seconds, granted bits/s)`.
    pub series: Vec<(f64, u64)>,
}

impl BackgroundRun {
    /// Background bits served from `from_s` to the end of the run,
    /// integrated over the rate track.
    pub fn bits_after(&self, from_s: f64) -> f64 {
        let mut bits = 0.0;
        for i in 0..self.series.len() {
            let (t, bps) = self.series[i];
            let dt = if i + 1 < self.series.len() {
                self.series[i + 1].0 - t
            } else if i > 0 {
                t - self.series[i - 1].0
            } else {
                0.0
            };
            if t >= from_s {
                bits += bps as f64 * dt;
            }
        }
        bits
    }
}

/// The four conformance metrics every backend reduces to.
#[derive(Clone, Copy, Debug)]
pub struct BackendSummary {
    /// Bottleneck utilization over the measurement window, 0..1
    /// (hybrid: foreground + background against nominal capacity).
    pub utilization: f64,
    /// Mean queue delay in seconds (packet: mean sojourn minus one
    /// serialization time).
    pub qdelay_s: f64,
    /// Congestion-signal probability (marked+dropped over sent).
    pub signal: f64,
    /// Max/min per-flow mean rate (packet side: foreground flows).
    pub rate_ratio: f64,
}

/// Reduce a packet or hybrid [`RunResult`] to the conformance metrics.
/// `capacity_bps` is the scenario's nominal bottleneck rate; `warmup_s`
/// the measurement-window start.
pub fn summarize_run(run: &RunResult, capacity_bps: u64, warmup_s: f64) -> BackendSummary {
    summarize_flows(run, 0..run.monitor.flows.len(), capacity_bps, warmup_s)
}

/// [`summarize_run`] over a subset of the run's flows (monitor indices,
/// e.g. `run.monitor.flows_labelled(..)`): the one body of the
/// steady-state reduction. Signal, rate ratio and the foreground share of
/// the utilization count only `flows`; the queue delay is the shared
/// queue's.
pub fn summarize_flows(
    run: &RunResult,
    flows: impl IntoIterator<Item = usize>,
    capacity_bps: u64,
    warmup_s: f64,
) -> BackendSummary {
    let span = run.monitor.measurement_span();
    let span_s = span.as_secs_f64();
    let (mut sent, mut signalled) = (0u64, 0u64);
    let (mut min, mut max) = (f64::INFINITY, 0.0f64);
    let mut fg_bits = 0.0;
    for i in flows {
        let f = &run.monitor.flows[i];
        sent += f.sent_pkts_postwarm;
        signalled += f.dropped_postwarm + f.marked_postwarm;
        let t = f.mean_tput_mbps(span);
        fg_bits += t * 1e6 * span_s;
        if t > 0.0 {
            min = min.min(t);
            max = max.max(t);
        }
    }
    let signal = if sent == 0 {
        0.0
    } else {
        signalled as f64 / sent as f64
    };
    // Sojourns are recorded when a packet finishes transmitting, at the
    // (possibly reduced) foreground drain rate; the fluid q/C is the wait
    // before transmission, so remove one serialization time.
    let serialization = PKT_BYTES * 8.0 / run.rate_bps.max(1) as f64;
    let qdelay_s = if run.monitor.sojourn_ms.is_empty() {
        0.0
    } else {
        let mean_ms = run.monitor.sojourn_ms.iter().map(|&v| v as f64).sum::<f64>()
            / run.monitor.sojourn_ms.len() as f64;
        (mean_ms / 1e3 - serialization).max(0.0)
    };
    let bg_bits = run
        .background
        .as_ref()
        .map_or(0.0, |bg| bg.bits_after(warmup_s));
    let utilization = if span_s > 0.0 && capacity_bps > 0 {
        ((fg_bits + bg_bits) / (capacity_bps as f64 * span_s)).min(1.0)
    } else {
        0.0
    };
    BackendSummary {
        utilization,
        qdelay_s,
        signal,
        rate_ratio: max_over_min(min, max),
    }
}

/// Max/min of the positive rates seen; infinite when there were none.
fn max_over_min(min: f64, max: f64) -> f64 {
    if min.is_finite() && min > 0.0 {
        max / min
    } else {
        f64::INFINITY
    }
}

/// The output of a fluid-backend run.
#[derive(Clone, Debug)]
pub struct FluidRunResult {
    /// Class labels, in scenario order (TCP groups then UDP groups).
    pub labels: Vec<String>,
    /// Flows per class.
    pub counts: Vec<f64>,
    /// Mean per-flow rate of each class over the measurement window, pps.
    pub class_rates_pps: Vec<f64>,
    /// Total flows simulated.
    pub flow_count: u64,
    /// Sampled trajectory (`sample_interval` spacing).
    pub samples: Vec<FlowLevelSample>,
    /// Rate reallocation events taken by the engine.
    pub alloc_events: u64,
    /// Entries the engine's kept water-filling order shifted over the run
    /// ([`FlowLevelSim::order_moves`]).
    pub order_moves: u64,
    /// The measurement-window conformance metrics.
    pub summary: BackendSummary,
}

/// Execute a scenario on the fluid backend: compile its flow groups onto
/// the flow-level engine and integrate, no packet events at all. TCP
/// groups become responsive classes; UDP groups become rate-capped
/// classes (unresponsive up to their CBR rate). Scheduled rate changes
/// and impairments have no fluid equivalent and are rejected.
pub fn run_fluid(sc: &Scenario) -> Result<FluidRunResult, String> {
    let encoding = fluid_encoding(&sc.aqm)?;
    if !sc.rate_changes.is_empty() {
        return Err("backend fluid does not support scheduled rate changes".to_string());
    }
    if sc.impairments.is_some_and(|i| !i.is_off()) {
        return Err("backend fluid does not support path impairments".to_string());
    }
    let mut classes = Vec::new();
    let mut labels = Vec::new();
    for g in &sc.tcp {
        if g.count == 0 {
            continue;
        }
        let mut cl = FlowClass::new(g.count as f64, cc_fluid_kind(g.cc), g.rtt.as_secs_f64());
        cl.start = g.start.as_secs_f64();
        cl.stop = g.stop.map(|t| t.as_secs_f64());
        classes.push(cl);
        labels.push(g.label.clone());
    }
    for g in &sc.udp {
        if g.count == 0 {
            continue;
        }
        let mut cl = FlowClass::new(g.count as f64, FluidTcpKind::Reno, g.rtt.as_secs_f64());
        cl.rate_cap_pps = Some(g.rate_bps as f64 / 8.0 / PKT_BYTES);
        cl.start = g.start.as_secs_f64();
        cl.stop = g.stop.map(|t| t.as_secs_f64());
        classes.push(cl);
        labels.push(g.label.clone());
    }
    if classes.is_empty() {
        return Err("backend fluid needs at least one flow group".to_string());
    }
    let counts: Vec<f64> = classes.iter().map(|c| c.count).collect();
    let flow_count = counts.iter().sum::<f64>() as u64;
    let mut sim = FlowLevelSim::new(engine_config(&encoding, sc.rate_bps, classes)?);
    let warmup = sc.warmup.as_secs_f64();
    let t_end = sc.duration.as_secs_f64();
    let sample_every = sc.sample_interval.as_secs_f64();
    let mut samples = sim.run(warmup.min(t_end), sample_every);
    sim.begin_measurement();
    samples.extend(sim.run(t_end, sample_every));
    let class_rates_pps = sim.mean_class_rates_pps();

    let meas: Vec<&FlowLevelSample> = samples.iter().filter(|s| s.t >= warmup).collect();
    let n = meas.len().max(1) as f64;
    let utilization = meas.iter().map(|s| s.util).sum::<f64>() / n;
    let qdelay_s = meas.iter().map(|s| s.qdelay).sum::<f64>() / n;
    let signal = meas.iter().map(|s| s.signal).sum::<f64>() / n;
    let (min, max) = class_rates_pps
        .iter()
        .filter(|&&r| r > 0.0)
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    let rate_ratio = max_over_min(min, max);
    Ok(FluidRunResult {
        labels,
        counts,
        class_rates_pps,
        flow_count,
        alloc_events: sim.alloc_events(),
        order_moves: sim.order_moves(),
        samples,
        summary: BackendSummary {
            utilization,
            qdelay_s,
            signal,
            rate_ratio,
        },
    })
}

/// Convenience: the warmup-relative summary of a packet/hybrid scenario
/// run (pairs with [`run_fluid`]'s `summary` for conformance checks).
pub fn summarize_scenario_run(sc: &Scenario, run: &RunResult) -> BackendSummary {
    summarize_run(run, sc.rate_bps, sc.warmup.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::FlowGroup;
    use pi2_simcore::{CkptError, Time};
    use pi2_transport::EcnSetting;

    fn base_scenario() -> Scenario {
        let mut sc = Scenario::new(AqmKind::pi2_default(), 12_000_000);
        sc.tcp.push(FlowGroup::new(
            5,
            CcKind::Reno,
            EcnSetting::NotEcn,
            "reno",
            Duration::from_millis(50),
        ));
        sc.duration = Time::from_secs(60);
        sc.warmup = Duration::from_secs(20);
        sc
    }

    #[test]
    fn backend_parse_round_trips() {
        for b in [Backend::Packet, Backend::Fluid, Backend::Hybrid] {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("quantum"), None);
    }

    #[test]
    fn fluid_backend_matches_packet_equilibrium() {
        let sc = base_scenario();
        let fluid = run_fluid(&sc).unwrap();
        assert_eq!(fluid.flow_count, 5);
        // Settles near the 20 ms target with a saturated link.
        assert!(
            (fluid.summary.qdelay_s - 0.020).abs() < 0.006,
            "fluid qdelay {:.1} ms",
            fluid.summary.qdelay_s * 1e3
        );
        assert!(fluid.summary.utilization > 0.9);
        // Identical classes: ratio exactly 1.
        assert!((fluid.summary.rate_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fluid_backend_rejects_unsupported_aqm() {
        let mut sc = base_scenario();
        sc.aqm = AqmKind::TailDrop;
        assert!(run_fluid(&sc).is_err());
    }

    #[test]
    fn fluid_backend_rejects_a_zero_rtt_and_a_zero_rate() {
        // `pi2sim --backend fluid --rtt 0ms` used to reach the engine's
        // assert; it is a usage error.
        let mut sc = base_scenario();
        sc.tcp[0].rtt = Duration::ZERO;
        let err = run_fluid(&sc).unwrap_err();
        assert!(err.contains("positive base RTT"), "{err}");
        let mut sc = base_scenario();
        sc.rate_bps = 0;
        let err = run_fluid(&sc).unwrap_err();
        assert!(err.contains("link rate"), "{err}");
    }

    #[test]
    fn hybrid_background_rejects_a_zero_rtt_and_a_zero_rate() {
        let aqm = AqmKind::pi2_default();
        let bg = |rtt| [BgGroup::new(100, CcKind::Reno, rtt, "bg")];
        let err = FluidBackground::new(&bg(Duration::ZERO), &aqm, 12_000_000)
            .err()
            .expect("a zero RTT is refused");
        assert!(err.contains("positive base RTT"), "{err}");
        let err = FluidBackground::new(&bg(Duration::from_millis(-5)), &aqm, 12_000_000)
            .err()
            .expect("a negative RTT is refused");
        assert!(err.contains("positive base RTT"), "{err}");
        let err = FluidBackground::new(&bg(Duration::from_millis(50)), &aqm, 0)
            .err()
            .expect("a zero link rate is refused");
        assert!(err.contains("link rate"), "{err}");
        // And through the scenario, as `pi2sim --backend hybrid` builds it.
        let mut sc = base_scenario();
        sc.backend = Backend::Hybrid;
        sc.background = bg(Duration::ZERO).to_vec();
        assert!(sc.build().is_err());
    }

    #[test]
    fn a_checkpoint_with_a_hostile_window_is_a_typed_error() {
        // A real hybrid run, saved mid-way. The aggregate is the last thing
        // in the blob and ends `w[n]`, `alloc_events: u64`, then the binding
        // row: its length and `n` bytes.
        let mut sc = base_scenario();
        sc.backend = Backend::Hybrid;
        sc.tcp[0].count = 2;
        sc.background = vec![
            BgGroup::new(3, CcKind::Reno, Duration::from_millis(50), "bg-reno"),
            BgGroup::new(2, CcKind::Dctcp, Duration::from_millis(20), "bg-dctcp"),
        ];
        let n = sc.background.len();
        let mut sim = sc.build().unwrap();
        sim.run_until(Time::from_secs(2));
        let blob = sim.save();
        let window = |i: usize| blob.len() - n - 8 - 8 - 8 * (n - i);
        for i in 0..n {
            let at = window(i);
            let w = f64::from_le_bytes(blob[at..at + 8].try_into().unwrap());
            assert!(w > 1.0 && w < 1e4, "class {i}: not a window at {at}: {w}");
        }
        let restored = sc.build().unwrap().restore(&blob);
        assert!(restored.is_ok(), "the blob as saved restores: {restored:?}");
        for hostile in [f64::NAN, -1.0, f64::INFINITY] {
            let mut bad = blob.clone();
            bad[window(1)..window(1) + 8].copy_from_slice(&hostile.to_le_bytes());
            match sc.build().unwrap().restore(&bad) {
                Err(CkptError::Corrupt(_)) => {}
                other => panic!("window = {hostile}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn hybrid_background_steals_capacity() {
        let mut sc = base_scenario();
        sc.backend = Backend::Hybrid;
        sc.tcp[0].count = 2;
        sc.background = vec![BgGroup::new(3, CcKind::Reno, Duration::from_millis(50), "bg")];
        let run = sc.run();
        let bg = run.background.as_ref().expect("hybrid run records background");
        assert_eq!(bg.flow_count, 3);
        assert!(bg.ticks > 100, "coupling ticked {} times", bg.ticks);
        assert!(bg.bg_bytes > 1e6, "background moved {} bytes", bg.bg_bytes);
        // The foreground drain rate ends up visibly below capacity.
        assert!(run.rate_bps < sc.rate_bps);
        // And the blended utilization is still near full.
        let s = summarize_scenario_run(&sc, &run);
        assert!(s.utilization > 0.85, "hybrid utilization {:.3}", s.utilization);
    }

    #[test]
    fn hybrid_with_empty_background_is_identical_to_packet() {
        let mut hybrid = base_scenario();
        hybrid.backend = Backend::Hybrid;
        hybrid.duration = Time::from_secs(20);
        hybrid.warmup = Duration::from_secs(5);
        let mut packet = hybrid.clone();
        packet.backend = Backend::Packet;
        let a = hybrid.run();
        let b = packet.run();
        assert!(a.background.is_none(), "no flows → no aggregate attached");
        assert_eq!(a.monitor.sojourn_ms.len(), b.monitor.sojourn_ms.len());
        assert_eq!(
            a.monitor.flows[0].dequeued_bytes,
            b.monitor.flows[0].dequeued_bytes
        );
    }

    #[test]
    fn million_flow_fluid_run_is_fast_and_finite() {
        let mut sc = Scenario::new(AqmKind::pi2_default(), 100_000_000_000);
        sc.tcp.push(FlowGroup::new(
            1_000_000,
            CcKind::Reno,
            EcnSetting::NotEcn,
            "reno",
            Duration::from_millis(50),
        ));
        sc.duration = Time::from_secs(60);
        sc.warmup = Duration::from_secs(20);
        let fluid = run_fluid(&sc).unwrap();
        assert_eq!(fluid.flow_count, 1_000_000);
        assert!(fluid.summary.qdelay_s.is_finite());
        assert!(fluid.summary.utilization > 0.5);
    }
}
