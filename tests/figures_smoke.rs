//! Smoke tests for every figure runner: scaled-down versions of each
//! experiment must execute and produce structurally sane data, so the
//! code paths `pi2fig` drives stay green under `cargo test` even though
//! it runs them at full scale. The second half holds the figure table
//! itself: ids, archive, knobs, and the analytic figures byte for byte.

use pi2::experiments::scenario::AqmKind;
use pi2::simcore::Duration;
use pi2_bench::figures::{select, Knobs, Session, FIGURES};

#[test]
fn fig06_13_runner_smoke() {
    use pi2::experiments::fig06::{run_one, IntensityConfig};
    let cfg = IntensityConfig {
        phase: Duration::from_secs(4),
        ..IntensityConfig::fig13()
    };
    let run = run_one(AqmKind::pi2_default(), &cfg, 13);
    assert_eq!(run.aqm, "pi2");
    assert!(run.qdelay.len() >= 18, "{} samples", run.qdelay.len());
    assert!(run.delay.n > 0);
    assert!(run.steady_phase_std_ms.is_finite());
}

#[test]
fn fig11_runner_smoke() {
    use pi2::experiments::fig11::{run_one, TrafficMix};
    for mix in TrafficMix::all() {
        let run = run_one(AqmKind::pie_default(), mix, 99);
        assert_eq!(run.mix, mix);
        assert!(run.peak_ms > 0.0);
        assert!(!run.qdelay.is_empty());
        assert!(run.util.mean > 50.0, "{} util {:.0}", mix.label(), run.util.mean);
    }
}

#[test]
fn fig14_runner_smoke() {
    use pi2::experiments::fig14::run_one;
    let run = run_one(false, 5, false, 3);
    assert_eq!(run.aqm, "pi2");
    assert_eq!(run.target_ms, 5);
    assert!(run.cdf.len() > 1000);
    // The CDF must actually be a distribution over positive delays.
    assert!(run.cdf.quantile(0.5) > 0.0);
    assert!(run.cdf.quantile(0.99) >= run.cdf.quantile(0.5));
}

#[test]
fn grid_runner_smoke() {
    use pi2::experiments::grid::{run_cell, Pair};
    let cell = run_cell(AqmKind::coupled_default(), Pair::CubicVsEcnCubic, 12, 20, 12, 4);
    assert_eq!(cell.link_mbps, 12);
    assert_eq!(cell.rtt_ms, 20);
    assert!(cell.rate_ratio.is_finite() && cell.rate_ratio > 0.0);
    assert!(cell.tputs.0 + cell.tputs.1 > 8.0, "total {:?}", cell.tputs);
    assert!(cell.util.mean > 70.0);
}

#[test]
fn fig19_runner_smoke() {
    use pi2::experiments::fig19::run_combo;
    use pi2::experiments::grid::Pair;
    let r = run_combo(AqmKind::coupled_default(), Pair::CubicVsDctcp, 3, 7, 12, 4);
    assert_eq!(r.a, 3);
    assert_eq!(r.b, 7);
    assert_eq!(r.norm_a.len(), 3);
    assert_eq!(r.norm_b.len(), 7);
    assert!(r.ratio.unwrap() > 0.0);
    // Edge combos: no ratio when one side is empty.
    let edge = run_combo(AqmKind::coupled_default(), Pair::CubicVsDctcp, 0, 10, 12, 4);
    assert!(edge.ratio.is_none());
    assert!(edge.norm_a.is_empty());
}

#[test]
fn shortflows_runner_smoke() {
    use pi2::experiments::shortflows::{run_one, WebWorkload};
    let w = WebWorkload {
        duration: pi2::simcore::Time::from_secs(25),
        ..WebWorkload::light(0x11eb)
    };
    let r = run_one(AqmKind::pie_default(), &w);
    assert!(r.launched > 20);
    assert!(r.completed > 0);
    assert!(r.short_fct.p50 > 0.0);
}

#[test]
fn overload_runner_smoke() {
    use pi2::experiments::overload::run_point;
    let pt = run_point(AqmKind::pie_default(), 1.5, 5);
    assert!(pt.udp_prob_pct > 1.0, "prob {:.1}%", pt.udp_prob_pct);
    assert!(pt.aqm_loss + pt.overflow_loss > 0.05);
}

#[test]
fn dualq_runner_smoke() {
    use pi2::experiments::dualq::run;
    let r = run(12_000_000, Duration::from_millis(20), 1, 1, 15, 8);
    assert!(r.cubic_mbps > 0.5);
    assert!(r.dctcp_mbps > 0.5);
    assert!(r.l_delay.n > 0 && r.c_delay.n > 0);
}

#[test]
fn isolation_runner_smoke() {
    use pi2::experiments::isolation::{run_coupled, run_fq};
    let a = run_fq(12_000_000, Duration::from_millis(20), 15, 8);
    let b = run_coupled(12_000_000, Duration::from_millis(20), 15, 8);
    assert_eq!(a.scheme, "fq-drr");
    assert_eq!(b.scheme, "coupled-pi2");
    assert!(a.ratio.is_finite() && b.ratio.is_finite());
}

#[test]
fn rttfair_runner_smoke() {
    use pi2::experiments::rttfair::run_one;
    let r = run_one(AqmKind::pi2_default(), 20, 15, 8);
    assert!(r.short_mbps > 0.0 && r.long_mbps > 0.0);
    assert!(r.ratio > 1.0, "short-RTT flow should lead: {:.2}", r.ratio);
}

#[test]
fn appendix_a_runner_smoke() {
    use pi2::experiments::appendix_a::measure;
    use pi2::transport::{CcKind, EcnSetting};
    let pt = measure(CcKind::Reno, EcnSetting::NotEcn, 0.05, 9);
    assert_eq!(pt.cc, "reno");
    assert!(pt.measured_w > 1.0);
    assert!(pt.rel_err < 1.0);
}

#[test]
fn dynamics_runner_smoke() {
    use pi2::experiments::dynamics::{render_table, run_one, Disturbance};
    use pi2::netsim::{ImpairmentConf, LinkImpairments};
    // DualPI2 under churn with light weather: the one family cell the
    // repo-level dynamics tests don't already cover end to end.
    let w = LinkImpairments::new(9).symmetric(ImpairmentConf {
        loss: 0.005,
        dup: 0.0,
        jitter: Duration::from_millis(1),
    });
    let r = run_one(
        AqmKind::dualq_default(40_000_000),
        Disturbance::FlowChurn,
        Some(w),
        9,
    );
    assert_eq!(r.aqm, "dualpi2");
    assert!(!r.qdelay.is_empty());
    assert!(r.spike_ms >= 0.0 && r.revert_spike_ms >= 0.0);
    let s = r.impair.expect("weather accounting attached");
    assert!(s.fwd_offered > 0 && s.fwd_lost > 0, "{s:?}");
    let t = render_table(std::slice::from_ref(&r));
    assert!(t.contains("flow-churn") && t.contains("dualpi2"), "{t}");
    assert!(t.contains("lost"), "weather column missing: {t}");
}

#[test]
fn ablation_runners_smoke() {
    use pi2::experiments::ablation::{gain_sweep, k_sweep, square_mode};
    let ks = k_sweep(&[2.0], 10, 0x5eed);
    assert_eq!(ks.len(), 1);
    assert!(ks[0].ratio > 0.0);
    let gs = gain_sweep(&[2.5], 10);
    assert!(gs[0].peak_ms > 0.0);
    let (a, b) = square_mode(10);
    assert!(a.n > 0 && b.n > 0);
}

// ---- the figure table (`pi2fig`) --------------------------------------

fn rendered(id: &str, knobs: Knobs) -> Vec<u8> {
    let picked = select(&[id.to_string()]).expect("id is in the table");
    let mut out = Vec::new();
    picked[0]
        .render(&Session::new(knobs), &mut out)
        .expect("a Vec takes every write");
    out
}

fn results_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// The analytic figures run in milliseconds, so tier-1 can hold them to
/// the archive byte for byte: header, table and capture plumbing are
/// under test here, the simulated figures under `scripts/ci.sh`.
#[test]
fn analytic_figures_equal_their_archive() {
    for id in ["fig04", "fig05", "fig07"] {
        let archived = std::fs::read(results_dir().join(format!("{id}.txt"))).unwrap();
        assert!(
            rendered(id, Knobs::default()) == archived,
            "pi2fig {id} no longer prints results/{id}.txt"
        );
    }
}

#[test]
fn archived_rows_are_the_results_directory() {
    let mut ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    ids.sort_unstable();
    assert!(ids.windows(2).all(|w| w[0] != w[1]), "duplicate id: {ids:?}");

    let mut archived: Vec<String> = FIGURES
        .iter()
        .filter(|f| f.archived)
        .map(|f| f.id.to_string())
        .collect();
    archived.sort_unstable();
    let mut stems: Vec<String> = std::fs::read_dir(results_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .map(|p| p.file_stem().unwrap().to_str().unwrap().to_string())
        // The one archive of another binary (`pi2sim --backend fluid`).
        .filter(|stem| stem != "fluid_1kclass_ref")
        .collect();
    stems.sort_unstable();
    assert_eq!(archived, stems);
}

#[test]
fn unknown_figure_is_an_error_listing_the_ids() {
    let err = select(&["fig99".to_string()]).err().expect("not an id");
    assert!(err.contains("fig99"), "{err}");
    for fig in FIGURES {
        assert!(err.contains(fig.id), "{} missing from: {err}", fig.id);
    }
    assert!(select(&[]).is_err(), "no arguments is a usage error");
    let all = select(&["all".to_string()]).unwrap();
    assert_eq!(all.len(), FIGURES.iter().filter(|f| f.archived).count());
}

/// `pi2sim --scenario <cell>` and the family sweep behind `pi2fig
/// ext_dynamics` / `ext_topology` build the same run: a cell taken alone
/// through the command line's path (its `--aqm` row built for the cell's
/// link, the family's reduction) prints the rows the sweep's table holds
/// for it.
#[test]
fn a_cell_run_alone_is_its_row_in_the_family_table() {
    use pi2::experiments::{dynamics, topology};
    use pi2_bench::cli::parse_args;
    let alone = |line: &str| {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let a = parse_args(&argv).unwrap_or_else(|e| panic!("{line}: {e}"));
        let sc = a.to_scenario();
        let table = a.scenario.expect("the line names a cell").reduce(&sc, &sc.run());
        // Drop the header line the family's renderer leads with.
        table.split_once('\n').expect("a header and a row").1.to_string()
    };
    let clear = dynamics::render_table(&dynamics::dynamics(4, None));
    let lots = topology::render_table(&topology::topology(9, false));
    for (family, line) in [
        (&clear, "--scenario dynamics/rate-step --aqm pie --seed 4"),
        (&clear, "--scenario dynamics/flow-churn --aqm dualq --seed 4"),
        (&lots, "--scenario topology/parking-lot-3 --aqm dualq --seed 9"),
        (&lots, "--scenario topology/access-core-2 --aqm pi2 --seed 9"),
    ] {
        let rows = alone(line);
        assert!(family.contains(&rows), "{line} printed\n{rows}not in\n{family}");
    }
}

/// A renderer that dropped the knobs it is handed would print the same
/// table at any length, or at any seed.
#[test]
fn a_simulated_figure_follows_its_knobs() {
    let at = |secs, seed| rendered("abl_k", Knobs { secs: Some(secs), seed });
    let two = at(2, None);
    assert!(two == at(2, None), "abl_k at 2 s is not deterministic");
    assert!(two != at(3, None), "abl_k prints the same at 2 s and 3 s");
    let one = at(2, Some(1));
    assert!(one == at(2, Some(1)), "abl_k at one seed is not deterministic");
    assert!(one != at(2, Some(2)), "abl_k prints the same at seeds 1 and 2");
    // A seed is a bit pattern: the largest one offsets its cells by wrapping.
    assert!(one != at(2, Some(u64::MAX)), "abl_k prints the same at seeds 1 and 2^64 - 1");
}

#[test]
fn a_set_knob_a_figure_ignores_is_named_with_what_runs_instead() {
    let row = |id: &str| select(&[id.to_string()]).unwrap()[0];
    let both = Knobs {
        secs: Some(5),
        seed: Some(3),
    };
    // fig11 reads PI2_SEED, so only its fixed length is worth a note.
    assert_eq!(
        row("fig11").ignored(&both).as_deref(),
        Some("fig11 ignores PI2_SECS (it runs 100 s)")
    );
    assert_eq!(row("fig11").ignored(&Knobs::default()), None);
    let seed_only = Knobs {
        secs: None,
        seed: Some(3),
    };
    assert_eq!(
        row("fig04").ignored(&seed_only).as_deref(),
        Some("fig04 ignores PI2_SEED (it runs no simulation)")
    );
}

/// Every row that simulates reads `PI2_SEED`. Rows that print one sweep
/// share it through the session, which runs it at the knobs of whichever
/// row renders first, so their defaults must be equal for the output not
/// to depend on the order rows are named in.
#[test]
fn rows_that_share_a_sweep_share_its_defaults() {
    for fig in FIGURES {
        let analytic = ["fig04", "fig05", "fig07"].contains(&fig.id);
        assert_eq!(fig.seed.when_unset().is_none(), analytic, "{}: seed {:?}", fig.id, fig.seed);
    }
    let sweeps: [&[&str]; 2] = [
        &["fig15", "fig16", "fig17", "fig18", "grid_all"],
        &["fig19", "fig20"],
    ];
    for ids in sweeps {
        let rows: Vec<_> = ids.iter().map(|id| select(&[id.to_string()]).unwrap()[0]).collect();
        for fig in &rows[1..] {
            assert_eq!(
                (fig.secs, fig.seed),
                (rows[0].secs, rows[0].seed),
                "{} and {} print one sweep but differ in their defaults",
                fig.id,
                rows[0].id
            );
        }
    }
}
