//! Deterministic metamorphic tests over the generators in
//! `pi2_validate::metamorphic`: fixed seeds here, the same relations
//! re-checked over random inputs in the feature-gated `proptests` suite.

use pi2_experiments::AqmKind;
use pi2_simcore::Duration;
use pi2_transport::{CcKind, EcnSetting};
use pi2_validate::metamorphic::{
    coupling_scenario, label_signal, run_summary, standard_scenario,
};

fn pi2_reno(mss: usize, rate_bps: u64, seed: u64) -> pi2_experiments::Scenario {
    standard_scenario(
        AqmKind::pi2_default(),
        4,
        rate_bps,
        Duration::from_millis(40),
        CcKind::Reno,
        EcnSetting::NotEcn,
        mss,
        seed,
    )
}

/// The seed selects a sample path, not a physical system: post-warm-up
/// summaries of the same scenario under different seeds stay in a narrow
/// stochastic band.
#[test]
fn summary_metrics_are_seed_invariant() {
    let runs: Vec<_> = [3u64, 17, 4242]
        .iter()
        .map(|&seed| run_summary(&pi2_reno(1500, 12_000_000, seed)))
        .collect();
    let base = runs[0];
    for (i, r) in runs.iter().enumerate().skip(1) {
        assert!(
            (r.qdelay_ms - base.qdelay_ms).abs() <= 0.25 * base.qdelay_ms + 1.0,
            "seed {i}: qdelay {:.2} ms vs {:.2} ms",
            r.qdelay_ms,
            base.qdelay_ms
        );
        assert!(
            (r.signal - base.signal).abs() <= 0.30 * base.signal + 0.002,
            "seed {i}: signal {:.4} vs {:.4}",
            r.signal,
            base.signal
        );
        assert!(
            (r.tput_mbps - base.tput_mbps).abs() <= 0.10 * base.tput_mbps,
            "seed {i}: tput {:.2} vs {:.2} Mb/s",
            r.tput_mbps,
            base.tput_mbps
        );
    }
}

/// Scaling link rate and MSS together is a symmetry: packets per second,
/// windows in packets, and therefore delay and signal probability are
/// unchanged; throughput in bits scales by the factor.
#[test]
fn rate_and_mss_scale_together_without_changing_dynamics() {
    let base = run_summary(&pi2_reno(1500, 12_000_000, 11));
    let scaled = run_summary(&pi2_reno(3000, 24_000_000, 11));
    assert!(
        (scaled.qdelay_ms - base.qdelay_ms).abs() <= 0.25 * base.qdelay_ms + 1.0,
        "qdelay: base {:.2} ms, 2x-scaled {:.2} ms",
        base.qdelay_ms,
        scaled.qdelay_ms
    );
    assert!(
        (scaled.signal - base.signal).abs() <= 0.30 * base.signal + 0.002,
        "signal: base {:.4}, 2x-scaled {:.4}",
        base.signal,
        scaled.signal
    );
    let tput_factor = scaled.tput_mbps / base.tput_mbps;
    assert!(
        (tput_factor - 2.0).abs() < 0.2,
        "throughput should double, got x{tput_factor:.2}"
    );
}

/// Paper eq. (6) with k = 2: through the coupled AQM, Classic traffic's
/// drop probability is the square of half the Scalable mark probability.
/// Both sides are measured from independent per-flow mark/drop counters,
/// so this cross-checks the whole decision path, not the controller.
#[test]
fn coupled_aqm_obeys_the_k2_coupling_law() {
    let sc = coupling_scenario(2, 2, 5);
    let run = sc.run();
    let p_classic = label_signal(&sc, &run, "classic");
    let p_scal = label_signal(&sc, &run, "scal");
    assert!(
        p_classic > 1e-4 && p_scal > 1e-3,
        "both classes must see congestion (classic {p_classic:.5}, scal {p_scal:.5})"
    );
    let predicted = (p_scal / 2.0) * (p_scal / 2.0);
    assert!(
        (p_classic - predicted).abs() <= 0.40 * predicted + 0.002,
        "coupling law: measured p_C {p_classic:.5}, (p_S/2)^2 = {predicted:.5} (p_S {p_scal:.5})"
    );
}

/// The law is seed-robust: a different sample path lands in the same
/// band (this is the metamorphic relation the proptests suite widens).
#[test]
fn coupling_law_holds_across_seeds() {
    for seed in [1u64, 99] {
        let sc = coupling_scenario(2, 2, seed);
        let run = sc.run();
        let p_classic = label_signal(&sc, &run, "classic");
        let p_scal = label_signal(&sc, &run, "scal");
        let predicted = (p_scal / 2.0) * (p_scal / 2.0);
        assert!(
            (p_classic - predicted).abs() <= 0.40 * predicted + 0.002,
            "seed {seed}: p_C {p_classic:.5} vs (p_S/2)^2 {predicted:.5}"
        );
    }
}
