//! Figure 12: queue delay under varying link capacity.
//!
//! 20 TCP flows; the bottleneck steps 100 → 20 → 100 Mb/s at 50 s and
//! 100 s. The paper samples at 100 ms to expose the transition peaks: PIE
//! peaks at 510 ms when capacity collapses, PI2 at 250 ms, and PIE shows
//! two further >100 ms oscillation peaks where PI2 shows none.

use crate::scenario::{AqmKind, FlowGroup, Scenario};
use pi2_simcore::{Duration, Time};
use pi2_transport::{CcKind, EcnSetting};

/// One AQM's varying-capacity run.
#[derive(Clone, Debug)]
pub struct Fig12Run {
    /// AQM name.
    pub aqm: &'static str,
    /// `(t, queue delay ms)` at 100 ms sampling.
    pub qdelay: Vec<(f64, f64)>,
    /// Peak queue delay in the window following the 50 s rate drop.
    /// `None` means the window held no samples at all — a mis-scheduled
    /// disturbance or truncated run, *not* a perfectly flat queue.
    pub drop_peak_ms: Option<f64>,
    /// Number of ≥100 ms excursions after the initial drop peak has
    /// passed (55 s .. 100 s) — the paper counts 2 for PIE, 0 for PI2.
    pub late_excursions: usize,
    /// Peak after capacity is restored at 100 s (PIE overshoots when the
    /// flows ramp up to fill the new capacity; PI2 shows no visible one).
    /// `None` again means "no samples in the 100–110 s window", which
    /// must stay distinguishable from a true zero peak.
    pub restore_peak_ms: Option<f64>,
    /// Time (s) from the 50 s rate drop until the queue re-enters and
    /// holds the target ± 20 ms band.
    pub settle_s: Option<f64>,
}

/// Run one AQM through the capacity schedule.
pub fn run_one(aqm: AqmKind, seed: u64) -> Fig12Run {
    let mut sc = Scenario::new(aqm, 100_000_000);
    sc.rate_changes = vec![
        (Time::from_secs(50), 20_000_000),
        (Time::from_secs(100), 100_000_000),
    ];
    sc.tcp.push(FlowGroup::new(
        20,
        CcKind::Reno,
        EcnSetting::NotEcn,
        "reno",
        Duration::from_millis(100),
    ));
    sc.duration = Time::from_secs(150);
    sc.warmup = Duration::from_secs(10);
    sc.sample_interval = Duration::from_millis(100);
    sc.seed = seed;
    let r = sc.run();
    let series = r.qdelay_series().to_vec();
    let drop_peak_ms = pi2_stats::peak_in(&series, 50.0, 55.0).map(|(_, v)| v);
    let late_excursions = pi2_stats::excursions_above(&series, 55.0, 100.0, 100.0);
    let restore_peak_ms = pi2_stats::peak_in(&series, 100.0, 110.0).map(|(_, v)| v);
    // Settling after the 50 s capacity collapse: back inside target ± 20 ms
    // and holding for 5 s.
    let settle_s = pi2_stats::settle_time(&series, 50.0, 20.0, 20.0, 5.0);
    Fig12Run {
        aqm: r.aqm,
        qdelay: series,
        drop_peak_ms,
        late_excursions,
        restore_peak_ms,
        settle_s,
    }
}

/// The full figure: PIE vs PI2, both at `seed`.
pub fn fig12(seed: u64) -> Vec<Fig12Run> {
    vec![
        run_one(AqmKind::pie_default(), seed),
        run_one(AqmKind::pi2_default(), seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_drop_produces_a_transient_peak() {
        let run = run_one(AqmKind::pi2_default(), 2);
        // A 5× rate cut with 20 flows must spike the queue well above the
        // 20 ms target before the controller recovers. A `None` peak would
        // mean the disturbance window saw no samples at all.
        let peak = run.drop_peak_ms.expect("samples in the 50-55 s window");
        assert!(peak > 50.0, "expected a transient spike, got {peak:.0} ms");
        assert!(
            run.restore_peak_ms.is_some(),
            "the 100-110 s restore window must contain samples"
        );
        // ... and the controller must bring it back down: the last 20 s at
        // 20 Mb/s should sit near target again.
        let late: Vec<f64> = run
            .qdelay
            .iter()
            .filter(|(t, _)| (80.0..100.0).contains(t))
            .map(|&(_, d)| d)
            .collect();
        let mean = pi2_stats::mean(&late);
        assert!(mean < 60.0, "queue stuck high after drop: {mean:.0} ms");
    }
}
