//! The coexistence grid behind Figures 15–18.
//!
//! Link ∈ {4, 12, 40, 120, 200} Mb/s × RTT ∈ {5, 10, 20, 50, 100} ms, one
//! Cubic flow against one ECN-enabled flow (ECN-Cubic as the control pair,
//! DCTCP as the coexistence pair), under PIE and under the coupled PI2.
//! Each cell yields the figures' four panels at once:
//!
//! * Figure 15 — rate balance (non-ECN flow / ECN flow);
//! * Figure 16 — queue delay mean and P99;
//! * Figure 17 — applied mark/drop probability P25/mean/P99 per flow;
//! * Figure 18 — link utilization P1/mean/P99.

use crate::isolation::coexistence;
use crate::scenario::{AqmKind, FlowGroup};
use pi2_netsim::FlowCounts;
use pi2_simcore::Duration;
use pi2_stats::Summary;
use pi2_transport::{CcKind, EcnSetting};

/// The paper's link-rate axis (Mb/s).
pub const LINKS_MBPS: [u64; 5] = [4, 12, 40, 120, 200];
/// The paper's RTT axis (ms).
pub const RTTS_MS: [i64; 5] = [5, 10, 20, 50, 100];

/// Which flow pair shares the bottleneck.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pair {
    /// Cubic (drop) vs ECN-Cubic — the control experiment: same algorithm,
    /// only the signal differs, so the ratio should be ≈1 under both AQMs.
    CubicVsEcnCubic,
    /// Cubic (drop) vs DCTCP — the coexistence experiment.
    CubicVsDctcp,
}

impl Pair {
    /// Label of the ECN-capable flow.
    pub fn ecn_label(self) -> &'static str {
        match self {
            Pair::CubicVsEcnCubic => "ecn-cubic",
            Pair::CubicVsDctcp => "dctcp",
        }
    }

    fn ecn_flow(self, rtt: Duration) -> FlowGroup {
        match self {
            Pair::CubicVsEcnCubic => {
                FlowGroup::new(1, CcKind::Cubic, EcnSetting::Classic, self.ecn_label(), rtt)
            }
            Pair::CubicVsDctcp => {
                FlowGroup::new(1, CcKind::Dctcp, EcnSetting::Scalable, self.ecn_label(), rtt)
            }
        }
    }
}

/// One grid cell's measurements.
#[derive(Clone, Debug)]
pub struct GridCell {
    /// AQM name.
    pub aqm: &'static str,
    /// Flow pair.
    pub pair: Pair,
    /// Link rate in Mb/s.
    pub link_mbps: u64,
    /// Base RTT in ms.
    pub rtt_ms: i64,
    /// Figure 15: non-ECN (Cubic) rate / ECN flow rate.
    pub rate_ratio: f64,
    /// Per-flow throughputs in Mb/s `(cubic, ecn)`.
    pub tputs: (f64, f64),
    /// Figure 16: queue delay (ms) summary.
    pub delay: Summary,
    /// Figure 17: applied probability (%) summary for the Cubic flow.
    pub prob_cubic: Summary,
    /// Figure 17: applied probability (%) summary for the ECN flow.
    pub prob_ecn: Summary,
    /// Figure 18: utilization (%) summary.
    pub util: Summary,
    /// Whole-run event totals from the always-on counting sink.
    pub counts: FlowCounts,
    /// AQM update ticks over the run.
    pub aqm_updates: u64,
    /// Registry-histogram sojourn median (ms), whole run. Unlike
    /// [`GridCell::delay`] (post-warm-up monitor samples) this comes from
    /// the `pi2_obs` log-linear histogram, so it doubles as a cross-check
    /// between the two measurement paths.
    pub sojourn_p50_ms: f64,
    /// Registry-histogram sojourn P99 (ms), whole run.
    pub sojourn_p99_ms: f64,
    /// Events the dispatch loop processed for this cell.
    pub events_processed: u64,
}

/// Run one cell.
pub fn run_cell(
    aqm: AqmKind,
    pair: Pair,
    link_mbps: u64,
    rtt_ms: i64,
    duration_s: u64,
    seed: u64,
) -> GridCell {
    let ecn = pair.ecn_flow(Duration::from_millis(rtt_ms));
    let r = coexistence(aqm, link_mbps * 1_000_000, ecn, duration_s, seed).run();
    let c = r.per_flow_tput_mbps("cubic");
    let e = r.per_flow_tput_mbps(pair.ecn_label());
    let (sojourn_p50_ms, sojourn_p99_ms, events_processed) = match r.metrics.as_deref() {
        Some(m) => (
            m.sojourn().quantile(0.5) as f64 / 1e6,
            m.sojourn().quantile(0.99) as f64 / 1e6,
            m.events_processed(),
        ),
        None => (0.0, 0.0, 0),
    };
    GridCell {
        aqm: r.aqm,
        pair,
        link_mbps,
        rtt_ms,
        rate_ratio: if e > 0.0 { c / e } else { f64::INFINITY },
        tputs: (c, e),
        delay: r.delay_summary(),
        prob_cubic: r.prob_summary("cubic"),
        prob_ecn: r.prob_summary(pair.ecn_label()),
        util: r.util_summary(),
        counts: r.counters.totals(),
        aqm_updates: r.counters.aqm_updates,
        sojourn_p50_ms,
        sojourn_p99_ms,
        events_processed,
    }
}

/// The seed Figures 15–18 run at when `PI2_SEED` is unset.
pub const GRID_SEED: u64 = 0x15c0;

/// The grid's work list in figure order: both pairs × both AQMs × the
/// link and RTT axes, each cell at `seed + link + rtt`.
pub fn cells_at(seed: u64) -> Vec<(AqmKind, Pair, u64, i64, u64)> {
    let mut cells = Vec::with_capacity(100);
    for pair in [Pair::CubicVsEcnCubic, Pair::CubicVsDctcp] {
        for aqm in [AqmKind::pie_default(), AqmKind::coupled_default()] {
            for &link in &LINKS_MBPS {
                for &rtt in &RTTS_MS {
                    cells.push((aqm.clone(), pair, link, rtt, seed.wrapping_add(link + rtt as u64)));
                }
            }
        }
    }
    cells
}

/// The grid at the figures' default seed, [`GRID_SEED`].
pub fn grid_cells() -> Vec<(AqmKind, Pair, u64, i64, u64)> {
    cells_at(GRID_SEED)
}

/// Run the complete grid for both AQMs and both pairs, cells fanned out
/// over the parallel [`crate::runner`] (`PI2_THREADS` governs workers;
/// output order and bits match a serial run).
///
/// `duration_s` trades accuracy for time; the bench binaries use 60 s,
/// tests use much less. Cells are seeded from `seed` as [`cells_at`] says.
pub fn run_grid(duration_s: u64, seed: u64) -> Vec<GridCell> {
    crate::runner::par_map(&cells_at(seed), |(aqm, pair, link, rtt, seed)| {
        run_cell(aqm.clone(), *pair, *link, *rtt, duration_s, *seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pie_lets_dctcp_starve_cubic() {
        let cell = run_cell(
            AqmKind::pie_default(),
            Pair::CubicVsDctcp,
            40,
            10,
            40,
            9,
        );
        assert!(
            cell.rate_ratio < 0.3,
            "under PIE, Cubic/DCTCP should be ≪1, got {:.2}",
            cell.rate_ratio
        );
    }

    #[test]
    fn coupled_pi2_balances_cubic_and_dctcp() {
        let cell = run_cell(
            AqmKind::coupled_default(),
            Pair::CubicVsDctcp,
            40,
            10,
            40,
            9,
        );
        assert!(
            (0.4..2.5).contains(&cell.rate_ratio),
            "under coupled PI2, Cubic/DCTCP should be ≈1, got {:.2}",
            cell.rate_ratio
        );
    }

    #[test]
    fn control_pair_is_balanced_under_both() {
        for aqm in [AqmKind::pie_default(), AqmKind::coupled_default()] {
            let cell = run_cell(aqm, Pair::CubicVsEcnCubic, 40, 10, 40, 9);
            assert!(
                (0.4..2.5).contains(&cell.rate_ratio),
                "{}: Cubic/ECN-Cubic ratio {:.2}",
                cell.aqm,
                cell.rate_ratio
            );
        }
    }

    #[test]
    fn coupled_aqm_balances_the_whole_scalable_family() {
        // The coupled AQM was derived for DCTCP, but any B=1 control with
        // W ≈ 2/p-scale response should coexist comparably. Relentless
        // (W = 1/p) ends up at half DCTCP's window — i.e. Cubic/Relentless
        // lands around 2x — still a far cry from PIE's 10x starvation.
        use crate::scenario::{FlowGroup, Scenario};
        use pi2_simcore::{Duration as D, Time as T};
        for (cc, lo, hi) in [
            (pi2_transport::CcKind::ScalableHalfPkt, 0.4, 2.5),
            (pi2_transport::CcKind::Relentless, 0.8, 5.0),
        ] {
            let mut sc = Scenario::new(AqmKind::coupled_default(), 40_000_000);
            sc.tcp.push(FlowGroup::new(
                1,
                pi2_transport::CcKind::Cubic,
                pi2_transport::EcnSetting::NotEcn,
                "cubic",
                D::from_millis(10),
            ));
            sc.tcp.push(FlowGroup::new(
                1,
                cc,
                pi2_transport::EcnSetting::Scalable,
                "scal",
                D::from_millis(10),
            ));
            sc.duration = T::from_secs(40);
            sc.warmup = D::from_secs(15);
            sc.seed = 0x5ca1;
            let r = sc.run();
            let ratio = r.per_flow_tput_mbps("cubic") / r.per_flow_tput_mbps("scal").max(1e-9);
            assert!(
                (lo..hi).contains(&ratio),
                "{cc:?}: Cubic/scalable ratio {ratio:.2} outside [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn probability_relation_visible_in_grid_data() {
        // Figure 17's key feature: under the coupled AQM, the DCTCP flow's
        // probability is much higher than the Cubic flow's (ps vs (ps/2)²).
        let cell = run_cell(
            AqmKind::coupled_default(),
            Pair::CubicVsDctcp,
            40,
            10,
            40,
            9,
        );
        assert!(
            cell.prob_ecn.mean > 4.0 * cell.prob_cubic.mean,
            "ps (mean {:.2}%) should dwarf pc (mean {:.2}%)",
            cell.prob_ecn.mean,
            cell.prob_cubic.mean
        );
    }
}
