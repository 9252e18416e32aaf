//! Integration tests of the paper's headline claims — the shapes that a
//! successful reproduction must show (DESIGN.md §6). Kept short enough to
//! run in the normal test suite; the full-scale versions live in the
//! bench binaries.

use pi2::experiments::grid::{run_cell, Pair};
use pi2::experiments::scenario::AqmKind;
use pi2::fluid::{margins, LoopTf};
use pi2::simcore::Duration;

/// Claim (Figures 15/19): PIE lets DCTCP starve Cubic ~10×; the coupled
/// PI2 keeps the ratio near 1. This is the single most important result.
///
/// The bands come from this cell's own spread over seeds 1–100
/// (EXPERIMENTS.md divergence 5): coupled 0.796–1.271 (median 0.994; seed
/// 1 reads 0.941), PIE at most 0.112, and PI2/PIE at least 7.7×. They
/// catch a move of the whole distribution, not a shift of its median by
/// a tenth: one seed cannot see that (ROADMAP items 1d and 17).
#[test]
fn coexistence_headline() {
    let pie = run_cell(AqmKind::pie_default(), Pair::CubicVsDctcp, 40, 10, 40, 1);
    let pi2 = run_cell(
        AqmKind::coupled_default(),
        Pair::CubicVsDctcp,
        40,
        10,
        40,
        1,
    );
    assert!(
        pie.rate_ratio < 0.15,
        "PIE should let DCTCP starve Cubic: ratio {:.3}",
        pie.rate_ratio
    );
    assert!(
        (0.75..=1.35).contains(&pi2.rate_ratio),
        "coupled PI2 should balance: ratio {:.3}",
        pi2.rate_ratio
    );
    // And the improvement factor is roughly the paper's order of
    // magnitude.
    assert!(
        pi2.rate_ratio / pie.rate_ratio > 5.0,
        "improvement {:.1}x",
        pi2.rate_ratio / pie.rate_ratio
    );
}

/// Claim (Figure 16): both AQMs hold the queue near the 20 ms target when
/// coexisting traffic runs; PI2 no worse than PIE.
#[test]
fn delay_no_worse_than_pie() {
    let pie = run_cell(AqmKind::pie_default(), Pair::CubicVsDctcp, 40, 10, 40, 2);
    let pi2 = run_cell(
        AqmKind::coupled_default(),
        Pair::CubicVsDctcp,
        40,
        10,
        40,
        2,
    );
    assert!(
        (5.0..45.0).contains(&pie.delay.mean),
        "PIE mean {:.1} ms",
        pie.delay.mean
    );
    assert!(
        (5.0..45.0).contains(&pi2.delay.mean),
        "PI2 mean {:.1} ms",
        pi2.delay.mean
    );
    assert!(
        pi2.delay.p99 < 2.0 * pie.delay.p99.max(25.0),
        "PI2 p99 {:.0} vs PIE {:.0}",
        pi2.delay.p99,
        pie.delay.p99
    );
}

/// Claim (Figure 6 / Section 4): with constant gains, the un-squared PI
/// mishandles low loads — "any onset of congestion is immediately
/// suppressed very aggressively (p becomes too high, because β is too
/// high), resulting in underutilization".
///
/// In our idealized substrate the dramatic limit cycle of the paper's
/// testbed does not reappear at Figure 6's exact operating point (the
/// Bode margins at the actual ~30 ms loop RTT are still positive there —
/// see EXPERIMENTS.md); the failure mode emerges at lower p. We pin it
/// there: a single high-BDP Reno flow, where fixed-gain PI crushes the
/// queue far below target and loses utilization relative to PI2.
#[test]
fn fixed_gain_pi_oversuppresses_at_low_p() {
    use pi2::experiments::scenario::{FlowGroup, Scenario};
    use pi2::simcore::Time;
    use pi2::transport::{CcKind, EcnSetting};
    let run = |aqm: AqmKind| {
        let mut sc = Scenario::new(aqm, 200_000_000);
        sc.tcp.push(FlowGroup::new(
            1,
            CcKind::Reno,
            EcnSetting::NotEcn,
            "reno",
            Duration::from_millis(100),
        ));
        sc.duration = Time::from_secs(120);
        sc.warmup = pi2::simcore::Duration::from_secs(40);
        sc.seed = 3;
        let r = sc.run();
        (r.delay_summary().mean, r.util_summary().mean)
    };
    let (pi_delay, pi_util) = run(AqmKind::Pi(pi2::aqm::PiConfig::untuned_pie_gains()));
    let (pi2_delay, pi2_util) = run(AqmKind::pi2_default());
    assert!(
        pi_delay < 3.0,
        "fixed-gain PI should over-suppress (target 20 ms), got {pi_delay:.1} ms"
    );
    assert!(
        pi2_util > pi_util + 3.0,
        "PI2 should keep more of the link: {pi2_util:.0}% vs {pi_util:.0}%"
    );
    let _ = pi2_delay;
}

/// Claim (Section 4): PI2's ×2.5 gains keep positive margins over the
/// full load range — at ×10 they would not.
#[test]
fn gain_headroom_is_about_2_5x() {
    use pi2::fluid::{LoopKind, PiGains};
    let min_gm = |mult: f64| {
        let mut min = f64::INFINITY;
        for i in 0..30 {
            let pp = 10f64.powf(-3.0 + 3.0 * i as f64 / 29.0);
            let tf = LoopTf {
                kind: LoopKind::RenoOnPSquared,
                gains: PiGains::pie().scaled(mult),
                r0: 0.1,
                p0_prime: pp,
            };
            min = min.min(margins(&tf).gain_margin_db);
        }
        min
    };
    assert!(min_gm(2.5) > 0.0, "paper's 2.5x must be safe");
    assert!(min_gm(10.0) < 0.0, "10x should blow the margin");
}

/// Determinism across the whole stack: one full experiment twice with the
/// same seed gives bit-identical aggregate results.
#[test]
fn experiments_are_deterministic() {
    let a = run_cell(AqmKind::coupled_default(), Pair::CubicVsDctcp, 12, 20, 20, 77);
    let b = run_cell(AqmKind::coupled_default(), Pair::CubicVsDctcp, 12, 20, 20, 77);
    assert_eq!(a.tputs.0, b.tputs.0);
    assert_eq!(a.tputs.1, b.tputs.1);
    assert_eq!(a.delay.n, b.delay.n);
    assert_eq!(a.delay.p99, b.delay.p99);
}

/// ... and a different seed actually changes the realization.
#[test]
fn different_seeds_differ() {
    let a = run_cell(AqmKind::coupled_default(), Pair::CubicVsDctcp, 12, 20, 20, 77);
    let b = run_cell(AqmKind::coupled_default(), Pair::CubicVsDctcp, 12, 20, 20, 78);
    assert_ne!(
        (a.tputs.0, a.delay.p99),
        (b.tputs.0, b.delay.p99),
        "seeds should decorrelate runs"
    );
}
