//! Metamorphic properties: relations between *runs*, not fixed numbers.
//!
//! A metamorphic test never needs to know the right answer — only how the
//! answer must transform when the input does. Three families are
//! provided as reusable generators, shared between the deterministic
//! tier-1 tests (`crates/validate/tests/metamorphic.rs`) and the
//! feature-gated randomized suite (`tests/proptests.rs`):
//!
//! * **seed invariance** — the RNG seed picks one sample path, not one
//!   physical system: post-warm-up summary metrics must agree across
//!   seeds within a stochastic band;
//! * **rate/MSS scaling symmetry** — multiplying link rate and segment
//!   size by the same factor leaves the system's packet-rate dynamics
//!   (delay in seconds, signal probability, packets per second)
//!   untouched;
//! * **the coupling law** — the coupled AQM gives Classic traffic
//!   `p_C = (p_S / k)²` with k = 2 (paper eq. (6)); both probabilities
//!   are measured from independent per-flow accounting, so the relation
//!   cross-checks the whole mark/drop path, not the controller alone.

use pi2_experiments::{
    summarize_flows, AqmKind, BackendSummary, FlowGroup, RunResult, Scenario,
};
use pi2_simcore::{Duration, Time};
use pi2_transport::{CcKind, EcnSetting, TcpConfig};

/// Post-warm-up summary of one run, for run-to-run comparison.
#[derive(Clone, Copy, Debug)]
pub struct SummaryMetrics {
    /// Mean per-packet queue delay in ms (sojourn minus one MTU's
    /// serialization at the link rate).
    pub qdelay_ms: f64,
    /// Pooled mean throughput over the group, in Mb/s.
    pub tput_mbps: f64,
    /// Pooled congestion-signal probability (marks + drops over sent).
    pub signal: f64,
    /// Max/min per-flow throughput ratio within the group.
    pub rate_ratio: f64,
}

/// The label every [`standard_scenario`] flow group carries.
pub const GROUP: &str = "tcp";

/// A short homogeneous scenario: `n_flows` long-running flows of `cc`
/// through `aqm`, 30 s run with 10 s warm-up. The generator half of the
/// metamorphic suite — property tests vary its inputs and compare
/// [`run_summary`] outputs.
#[allow(clippy::too_many_arguments)]
pub fn standard_scenario(
    aqm: AqmKind,
    n_flows: usize,
    rate_bps: u64,
    rtt: Duration,
    cc: CcKind,
    ecn: EcnSetting,
    mss: usize,
    seed: u64,
) -> Scenario {
    let mut sc = Scenario::new(aqm, rate_bps);
    let mut group = FlowGroup::new(n_flows, cc, ecn, GROUP, rtt);
    group.tcp = TcpConfig {
        mss,
        ..TcpConfig::default()
    };
    sc.tcp.push(group);
    sc.duration = Time::from_secs(30);
    sc.warmup = Duration::from_secs(10);
    sc.seed = seed;
    sc
}

/// The steady-state reduction of `run` over the flows labelled `label`.
fn label_summary(sc: &Scenario, run: &RunResult, label: &str) -> BackendSummary {
    let flows = run.monitor.flows_labelled(label);
    summarize_flows(run, flows, sc.rate_bps, sc.warmup.as_secs_f64())
}

/// Run a scenario and reduce it to its [`SummaryMetrics`] over [`GROUP`].
pub fn run_summary(sc: &Scenario) -> SummaryMetrics {
    let run = sc.run();
    let s = label_summary(sc, &run, GROUP);
    SummaryMetrics {
        qdelay_ms: s.qdelay_s * 1e3,
        tput_mbps: run.tput_mbps(GROUP),
        signal: s.signal,
        rate_ratio: s.rate_ratio,
    }
}

/// A mixed Classic/Scalable scenario through the coupled AQM, the input
/// to the k = 2 coupling-law check: `n_classic` Reno flows (label
/// `"classic"`, signalled by drop) share the queue with `n_scal`
/// half-packet Scalable flows (label `"scal"`, signalled by ECT(1)
/// mark).
pub fn coupling_scenario(n_classic: usize, n_scal: usize, seed: u64) -> Scenario {
    let mut sc = Scenario::new(AqmKind::coupled_default(), 12_000_000);
    let rtt = Duration::from_millis(50);
    sc.tcp.push(FlowGroup::new(
        n_classic,
        CcKind::Reno,
        EcnSetting::NotEcn,
        "classic",
        rtt,
    ));
    sc.tcp.push(FlowGroup::new(
        n_scal,
        CcKind::ScalableHalfPkt,
        EcnSetting::Scalable,
        "scal",
        rtt,
    ));
    sc.duration = Time::from_secs(60);
    sc.warmup = Duration::from_secs(20);
    sc.seed = seed;
    sc
}

/// Pooled post-warm-up signal probability of one label in a finished run
/// of `sc`.
pub fn label_signal(sc: &Scenario, run: &RunResult, label: &str) -> f64 {
    label_summary(sc, run, label).signal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_produce_the_requested_shape() {
        let sc = standard_scenario(
            AqmKind::pi2_default(),
            3,
            10_000_000,
            Duration::from_millis(40),
            CcKind::Reno,
            EcnSetting::NotEcn,
            1500,
            9,
        );
        assert_eq!(sc.tcp.len(), 1);
        assert_eq!(sc.tcp[0].count, 3);
        assert_eq!(sc.tcp[0].tcp.mss, 1500);
        assert_eq!(sc.seed, 9);

        let mixed = coupling_scenario(2, 2, 1);
        assert_eq!(mixed.tcp.len(), 2);
        assert_eq!(mixed.tcp[0].label, "classic");
        assert_eq!(mixed.tcp[1].label, "scal");
    }
}
