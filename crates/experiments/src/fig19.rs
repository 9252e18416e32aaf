//! Figures 19 and 20: coexistence across flow-count combinations.
//!
//! 40 Mb/s, RTT 10 ms. The number of Cubic flows (A) and ECN flows (B)
//! sweeps through the combinations (0,10), (1,9), …, (10,0); Figure 19
//! plots the per-flow rate ratio A/B, Figure 20 the normalized per-flow
//! rates (per-flow rate ÷ fair share) with P1/mean/P99 across flows.

use crate::scenario::{AqmKind, FlowGroup, Scenario};
use crate::grid::Pair;
use pi2_simcore::{Duration, Time};
use pi2_transport::{CcKind, EcnSetting};

/// One combination's result.
#[derive(Clone, Debug)]
pub struct ComboResult {
    /// AQM name.
    pub aqm: &'static str,
    /// Flow pair type.
    pub pair: Pair,
    /// Number of Cubic (A) flows.
    pub a: usize,
    /// Number of ECN (B) flows.
    pub b: usize,
    /// Per-flow rate ratio A/B (`None` when either side is absent).
    pub ratio: Option<f64>,
    /// Normalized per-flow rates of the A flows (rate ÷ fair share).
    pub norm_a: Vec<f64>,
    /// Normalized per-flow rates of the B flows.
    pub norm_b: Vec<f64>,
}

/// The combination axis used in the figures.
pub fn combos() -> Vec<(usize, usize)> {
    (0..=10).map(|a| (a, 10 - a)).collect()
}

/// Run one combination.
pub fn run_combo(
    aqm: AqmKind,
    pair: Pair,
    a: usize,
    b: usize,
    duration_s: u64,
    seed: u64,
) -> ComboResult {
    let rtt = Duration::from_millis(10);
    let link_bps: u64 = 40_000_000;
    let mut sc = Scenario::new(aqm, link_bps);
    if a > 0 {
        sc.tcp.push(FlowGroup::new(
            a,
            CcKind::Cubic,
            EcnSetting::NotEcn,
            "cubic",
            rtt,
        ));
    }
    if b > 0 {
        let g = match pair {
            Pair::CubicVsEcnCubic => {
                FlowGroup::new(b, CcKind::Cubic, EcnSetting::Classic, pair.ecn_label(), rtt)
            }
            Pair::CubicVsDctcp => {
                FlowGroup::new(b, CcKind::Dctcp, EcnSetting::Scalable, pair.ecn_label(), rtt)
            }
        };
        sc.tcp.push(g);
    }
    sc.duration = Time::from_secs(duration_s);
    sc.warmup = Duration::from_secs(duration_s as i64 / 3);
    sc.seed = seed;
    let r = sc.run();
    let span = r.monitor.measurement_span();
    let fair = link_bps as f64 / 1e6 / (a + b) as f64;
    let per_flow = |label: &str| -> Vec<f64> {
        r.monitor
            .flows_labelled(label)
            .iter()
            .map(|&i| r.monitor.flows[i].mean_tput_mbps(span) / fair)
            .collect()
    };
    let norm_a = per_flow("cubic");
    let norm_b = per_flow(pair.ecn_label());
    let ratio = if a > 0 && b > 0 {
        let ra = r.per_flow_tput_mbps("cubic");
        let rb = r.per_flow_tput_mbps(pair.ecn_label());
        (rb > 0.0).then(|| ra / rb)
    } else {
        None
    };
    ComboResult {
        aqm: r.aqm,
        pair,
        a,
        b,
        ratio,
        norm_a,
        norm_b,
    }
}

/// The full figure: both pairs × both AQMs × all combinations, `(a, b)`
/// at `seed + 16a + b`, fanned out over the parallel [`crate::runner`].
pub fn fig19(duration_s: u64, seed: u64) -> Vec<ComboResult> {
    let mut work = Vec::new();
    for pair in [Pair::CubicVsEcnCubic, Pair::CubicVsDctcp] {
        for aqm in [AqmKind::pie_default(), AqmKind::coupled_default()] {
            for (a, b) in combos() {
                if a + b == 0 {
                    continue;
                }
                work.push((aqm.clone(), pair, a, b, seed.wrapping_add((a * 16 + b) as u64)));
            }
        }
    }
    crate::runner::par_map(&work, |(aqm, pair, a, b, seed)| {
        run_combo(aqm.clone(), *pair, *a, *b, duration_s, *seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combos_cover_the_axis() {
        let c = combos();
        assert_eq!(c.len(), 11);
        assert_eq!(c[0], (0, 10));
        assert_eq!(c[10], (10, 0));
        assert!(c.iter().all(|&(a, b)| a + b == 10));
    }

    #[test]
    fn balance_holds_at_asymmetric_counts() {
        // 8 Cubic vs 2 DCTCP under the coupled AQM: still ≈equal per-flow.
        let r = run_combo(AqmKind::coupled_default(), Pair::CubicVsDctcp, 8, 2, 30, 5);
        let ratio = r.ratio.unwrap();
        assert!(
            (0.35..3.0).contains(&ratio),
            "per-flow ratio at 8:2 should be ≈1, got {ratio:.2}"
        );
    }

    #[test]
    fn normalized_rates_sum_to_capacity() {
        let r = run_combo(AqmKind::coupled_default(), Pair::CubicVsDctcp, 5, 5, 30, 5);
        let total: f64 = r.norm_a.iter().chain(r.norm_b.iter()).sum();
        // 10 flows at fair share 1.0 each: total ≈ 10 (minus AQM headroom).
        assert!(
            (8.0..10.5).contains(&total),
            "normalized rates sum to {total:.1}, expected ≈10"
        );
    }
}
