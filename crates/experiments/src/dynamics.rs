//! Step-response dynamics: scheduled disturbances and "network weather".
//!
//! The paper's §5 claim is that PI2's linearized controller reacts to
//! operating-point changes at least as fast as PIE's, without PIE's
//! auto-tuned gain heuristics. Figure 12 shows this for one capacity
//! schedule; this family generalizes it into a reusable test surface:
//!
//! * **Rate step** — the bottleneck collapses 40 → 10 Mb/s mid-run and
//!   recovers, the classic "capacity drop" transient;
//! * **Flow churn** — a burst of extra flows joins and later leaves,
//!   quadrupling the offered load without touching the link;
//!
//! each run for PIE, PI2, and the DualPI2 qdisc, with an optional
//! [`LinkImpairments`] layer (random loss, reordering jitter,
//! duplication) riding on the path. Every run is reduced to the two
//! numbers dynamics arguments turn on: the transient **spike height**
//! and the [`pi2_stats::settle_time`] back into the target band.
//!
//! The family table is `pi2fig ext_dynamics`; one cell, under any AQM and
//! every observer, is `pi2sim --scenario dynamics/<disturbance>`.

use crate::scenario::{AqmKind, FlowGroup, RunResult, Scenario};
use pi2_netsim::{ImpairStats, LinkImpairments};
use pi2_simcore::{Duration, Time};
use pi2_transport::{CcKind, EcnSetting};

/// The bottleneck's undisturbed rate, bits/s.
pub const LINK_BPS: u64 = 40_000_000;
/// When the disturbance hits (rate drop / churn flows join), seconds.
pub const STEP_DOWN_S: u64 = 30;
/// When it reverts (rate restored / churn flows leave), seconds.
pub const STEP_UP_S: u64 = 60;
/// Total run length, seconds (leaves a full settle window after each
/// disturbance edge).
pub const DURATION_S: u64 = 85;
/// The AQMs' delay target (ms) the queue must re-settle around.
pub const TARGET_MS: f64 = 20.0;
/// Settle band half-width (ms): "settled" means inside target ± band.
pub const BAND_MS: f64 = 20.0;
/// How long (s) the series must hold the band to count as settled.
pub const HOLD_S: f64 = 5.0;

/// Which disturbance the run applies at [`STEP_DOWN_S`] / [`STEP_UP_S`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disturbance {
    /// Bottleneck rate steps 40 → 10 → 40 Mb/s (a 4× capacity drop).
    RateStep,
    /// 15 extra flows join 5 long-running ones, then leave (4× load).
    FlowChurn,
}

impl Disturbance {
    /// Every disturbance, in table order.
    pub const ALL: [Disturbance; 2] = [Disturbance::RateStep, Disturbance::FlowChurn];

    /// Display name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            Disturbance::RateStep => "rate-step",
            Disturbance::FlowChurn => "flow-churn",
        }
    }

    /// The two disturbance edges as `(second, label)` timeline marks.
    pub fn marks(&self) -> [(u64, &'static str); 2] {
        let (hit, revert) = match self {
            Disturbance::RateStep => ("rate-step: 40 -> 10 Mb/s", "rate-step: 10 -> 40 Mb/s"),
            Disturbance::FlowChurn => ("flow-churn: 15 flows join", "flow-churn: 15 flows leave"),
        };
        [(STEP_DOWN_S, hit), (STEP_UP_S, revert)]
    }
}

/// One AQM × disturbance measurement.
#[derive(Clone, Debug)]
pub struct DynamicsRun {
    /// AQM name.
    pub aqm: &'static str,
    /// Which disturbance was applied.
    pub disturbance: Disturbance,
    /// `(t, queue delay ms)` at 100 ms sampling.
    pub qdelay: Vec<(f64, f64)>,
    /// Peak queue delay (ms) in the 5 s after the disturbance hits.
    pub spike_ms: f64,
    /// Time (s) from the disturbance until the queue holds
    /// [`TARGET_MS`] ± [`BAND_MS`] for [`HOLD_S`]; `None` = never.
    pub settle_s: Option<f64>,
    /// Spike after the disturbance reverts at [`STEP_UP_S`] (ms).
    pub revert_spike_ms: f64,
    /// Impairment accounting, when a weather layer was attached.
    pub impair: Option<ImpairStats>,
}

/// The scenario for one AQM × disturbance cell (before any impairments).
pub fn scenario_for(aqm: AqmKind, d: Disturbance, seed: u64) -> Scenario {
    let mut sc = Scenario::new(aqm, LINK_BPS);
    sc.duration = Time::from_secs(DURATION_S);
    sc.warmup = Duration::from_secs(5);
    sc.sample_interval = Duration::from_millis(100);
    sc.seed = seed;
    let rtt = Duration::from_millis(50);
    match d {
        Disturbance::RateStep => {
            sc.tcp.push(FlowGroup::new(
                10,
                CcKind::Cubic,
                EcnSetting::NotEcn,
                "cubic",
                rtt,
            ));
            sc.rate_changes = vec![
                (Time::from_secs(STEP_DOWN_S), 10_000_000),
                (Time::from_secs(STEP_UP_S), LINK_BPS),
            ];
        }
        Disturbance::FlowChurn => {
            sc.tcp.push(FlowGroup::new(
                5,
                CcKind::Cubic,
                EcnSetting::NotEcn,
                "base",
                rtt,
            ));
            sc.tcp.push(
                FlowGroup::new(15, CcKind::Cubic, EcnSetting::NotEcn, "churn", rtt).between(
                    Time::from_secs(STEP_DOWN_S),
                    Time::from_secs(STEP_UP_S),
                ),
            );
        }
    }
    sc
}

/// Run one cell, optionally under a path-impairment layer.
pub fn run_one(
    aqm: AqmKind,
    d: Disturbance,
    impairments: Option<LinkImpairments>,
    seed: u64,
) -> DynamicsRun {
    let mut sc = scenario_for(aqm, d, seed);
    sc.impairments = impairments;
    report(d, &sc.run())
}

/// Reduce a finished cell to its [`DynamicsRun`].
pub fn report(d: Disturbance, r: &RunResult) -> DynamicsRun {
    let series = r.qdelay_series();
    let hit = STEP_DOWN_S as f64;
    let revert = STEP_UP_S as f64;
    let spike_ms = pi2_stats::peak_in(&series, hit, hit + 5.0).map_or(0.0, |(_, v)| v);
    let revert_spike_ms =
        pi2_stats::peak_in(&series, revert, revert + 5.0).map_or(0.0, |(_, v)| v);
    let settle_s = pi2_stats::settle_time(&series, hit, TARGET_MS, BAND_MS, HOLD_S);
    DynamicsRun {
        aqm: r.aqm,
        disturbance: d,
        qdelay: series,
        spike_ms,
        settle_s,
        revert_spike_ms,
        impair: r.impair,
    }
}

/// The full family: {rate-step, flow-churn} × {PIE, PI2, DualPI2}, fanned
/// out through [`crate::runner::par_map`] (the `PI2_THREADS` knob) with
/// results bit-identical to a serial loop for any thread count.
pub fn dynamics(seed: u64, impairments: Option<LinkImpairments>) -> Vec<DynamicsRun> {
    let mut cells = Vec::new();
    for d in Disturbance::ALL {
        for aqm in [
            AqmKind::pie_default(),
            AqmKind::pi2_default(),
            AqmKind::dualq_default(LINK_BPS),
        ] {
            cells.push((aqm, d));
        }
    }
    crate::runner::par_map(&cells, |(aqm, d)| run_one(aqm.clone(), *d, impairments, seed))
}

/// Render the family as an aligned text table (one row per run) with the
/// spike-height and settling-time columns.
pub fn render_table(runs: &[DynamicsRun]) -> String {
    let mut out = String::from(
        "disturbance   aqm          spike_ms  settle_s  revert_spike_ms  weather\n",
    );
    for r in runs {
        let settle = r
            .settle_s
            .map_or("never".to_string(), |s| format!("{s:.1}"));
        let weather = match &r.impair {
            None => "off".to_string(),
            Some(s) => format!(
                "fwd {}/{} lost, {} dup; rev {}/{} lost, {} dup",
                s.fwd_lost, s.fwd_offered, s.fwd_dup, s.rev_lost, s.rev_offered, s.rev_dup
            ),
        };
        out.push_str(&format!(
            "{:<13} {:<12} {:>8.1}  {:>8}  {:>15.1}  {}\n",
            r.disturbance.name(),
            r.aqm,
            r.spike_ms,
            settle,
            r.revert_spike_ms,
            weather
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_netsim::ImpairmentConf;

    #[test]
    fn rate_step_spikes_then_settles_under_pi2() {
        let r = run_one(AqmKind::pi2_default(), Disturbance::RateStep, None, 3);
        assert!(
            r.spike_ms > BAND_MS + TARGET_MS,
            "a 4x capacity drop must push the queue out of band, got {:.1} ms",
            r.spike_ms
        );
        let settle = r.settle_s.expect("PI2 should re-settle after the drop");
        assert!(
            settle < (STEP_UP_S - STEP_DOWN_S) as f64,
            "settled only after {settle:.1} s"
        );
        assert!(r.impair.is_none(), "no weather requested");
    }

    #[test]
    fn flow_churn_perturbs_the_queue() {
        let r = run_one(AqmKind::pi2_default(), Disturbance::FlowChurn, None, 3);
        // 15 joining flows slam the queue; the controller recovers.
        assert!(r.spike_ms > 30.0, "churn spike {:.1} ms", r.spike_ms);
        assert!(r.settle_s.is_some(), "PI2 should absorb the churn");
    }

    #[test]
    fn weather_layer_reports_accounting() {
        let imp = LinkImpairments::new(0xBAD_5EED).symmetric(ImpairmentConf {
            loss: 0.01,
            dup: 0.0,
            jitter: Duration::ZERO,
        });
        let r = run_one(AqmKind::pi2_default(), Disturbance::RateStep, Some(imp), 3);
        let s = r.impair.expect("weather stats present");
        assert!(s.fwd_offered > 0 && s.fwd_lost > 0, "loss applied: {s:?}");
        // 1% loss keeps the link usable: the run still settles.
        assert!(r.settle_s.is_some());
    }

    #[test]
    fn table_lists_every_run() {
        let runs = vec![
            run_one(AqmKind::pi2_default(), Disturbance::RateStep, None, 5),
            run_one(
                AqmKind::dualq_default(40_000_000),
                Disturbance::RateStep,
                None,
                5,
            ),
        ];
        let t = render_table(&runs);
        assert!(t.contains("pi2") && t.contains("dualpi2"), "{t}");
        assert!(t.contains("rate-step"));
    }
}
