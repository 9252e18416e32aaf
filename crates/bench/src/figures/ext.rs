//! Extensions beyond the paper's own figures: DualQ, FQ, RTT fairness,
//! the Scalable family, the §6 short-flow claim, the step-response and
//! multi-hop families, and the model-agreement grid.

use super::{Figure, Session};
use crate::{cli, f, write_rows};
use pi2_experiments::isolation::{coexistence, run_coupled, run_fq};
use pi2_experiments::par_map;
use pi2_experiments::rttfair::{run_one, target_sweep};
use pi2_experiments::scenario::{AqmKind, FlowGroup};
use pi2_experiments::shortflows::{compare, WebWorkload};
use pi2_experiments::{dynamics as dynamics_family, topology as topology_family};
use pi2_netsim::ImpairmentConf;
use pi2_simcore::Duration;
use pi2_transport::{CcKind, EcnSetting};
use std::io::{self, Write};

/// The DualQ Coupled AQM (Section 7's recommended deployment,
/// standardized later as RFC 9332 DualPI2) — "Data Centre to the Home".
///
/// DCTCP and Cubic share a DualPI2 bottleneck: rates stay balanced as in
/// the single-queue coupled AQM, but the Scalable traffic now sees
/// low-millisecond queuing while Classic keeps its 20 ms target.
pub fn dualq(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    let (secs, seed) = (fig.secs(run), fig.seed(run));
    let cols = [
        "scenario",
        "cubic Mb/s",
        "dctcp Mb/s",
        "ratio",
        "L mean ms",
        "L p99 ms",
        "C mean ms",
        "C p99 ms",
        "util %",
    ];
    let scenarios = [
        ("40Mb 10ms 1v1", 40_000_000u64, 10i64, 1usize, 1usize),
        ("40Mb 10ms 5v5", 40_000_000, 10, 5, 5),
        ("12Mb 50ms 1v1", 12_000_000, 50, 1, 1),
        ("120Mb 20ms 2v2", 120_000_000, 20, 2, 2),
    ];
    write_rows(out, cols, scenarios, |(label, link, rtt_ms, nc, nd)| {
        let r = pi2_experiments::dualq::run(
            link,
            Duration::from_millis(rtt_ms),
            nc,
            nd,
            secs,
            seed.wrapping_add(link),
        );
        [
            label.to_string(),
            f(r.cubic_mbps),
            f(r.dctcp_mbps),
            f(r.cubic_mbps / r.dctcp_mbps.max(1e-9)),
            f(r.l_delay.mean),
            f(r.l_delay.p99),
            f(r.c_delay.mean),
            f(r.c_delay.p99),
            f(r.util_pct),
        ]
    })
}

/// Per-flow queuing vs coupled signalling (the trilemma alternative of
/// the paper's introduction).
///
/// Cubic vs DCTCP over FQ-DRR and over the coupled single-queue PI2:
/// both solve coexistence, by different means with different costs —
/// FQ needs flow identification and per-flow state but isolates delays;
/// the coupled AQM keeps one FIFO but both classes share its delay
/// (which is what motivates the DualQ, see `ext_dualq`).
pub fn fq(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    let (secs, seed) = (fig.secs(run), fig.seed(run));
    let rtt = Duration::from_millis(10);
    let runs = [
        run_fq(40_000_000, rtt, secs, seed),
        run_coupled(40_000_000, rtt, secs, seed),
    ];
    let cols = [
        "scheme",
        "ratio c/d",
        "cubic mean ms",
        "cubic p99 ms",
        "dctcp mean ms",
        "dctcp p99 ms",
    ];
    write_rows(out, cols, runs, |r| {
        [
            r.scheme.to_string(),
            f(r.ratio),
            f(r.cubic_delay.mean),
            f(r.cubic_delay.p99),
            f(r.dctcp_delay.mean),
            f(r.dctcp_delay.p99),
        ]
    })
}

/// RTT fairness. The paper's grid keeps coexisting flows at equal base
/// RTTs; here we mix a 10 ms and a 100 ms Reno flow and measure the
/// short/long throughput ratio under each AQM, plus a PI2 target sweep
/// showing the standing queue's equalizing effect — one of the
/// structural arguments for a nonzero delay target.
pub fn rtt(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    let (secs, seed) = (fig.secs(run), fig.seed(run));
    writeln!(out, "--- per-AQM ratio at the default 20 ms target ---")?;
    let aqms = [
        AqmKind::pie_default(),
        AqmKind::pi2_default(),
        AqmKind::TailDrop,
    ];
    let runs = par_map(&aqms, |aqm| run_one(aqm.clone(), 20, secs, seed));
    let cols = ["aqm", "short Mb/s", "long Mb/s", "short/long"];
    write_rows(out, cols, runs, |r| {
        [
            r.aqm.to_string(),
            f(r.short_mbps),
            f(r.long_mbps),
            f(r.ratio),
        ]
    })?;

    writeln!(
        out,
        "--- PI2 target sweep: deeper queues equalize effective RTTs ---"
    )?;
    let sweep = target_sweep(&[5, 10, 20, 40, 80], secs, seed);
    write_rows(out, ["target ms", "short/long ratio"], sweep, |r| {
        [r.target_ms.to_string(), f(r.ratio)]
    })
}

fn family_run(aqm: AqmKind, cc: CcKind, secs: u64, seed: u64) -> (f64, f64, f64) {
    let scal = FlowGroup::new(1, cc, EcnSetting::Scalable, "scal", Duration::from_millis(10));
    let r = coexistence(aqm, 40_000_000, scal, secs, seed).run();
    let c = r.per_flow_tput_mbps("cubic");
    let s = r.per_flow_tput_mbps("scal");
    (c, s, r.monitor.flows[1].signal_fraction())
}

/// The whole Scalable family (paper §5 names "DCTCP, Relentless,
/// Scalable, ...") against Cubic under the coupled AQM.
///
/// All four are B = 1 controls, but their window constants differ —
/// DCTCP `2/p`, half-packet `2/p`, Relentless `1/p`, Scalable TCP
/// `0.08/p` — so the k = 2 coupling tuned for DCTCP lands each at a
/// different (but bounded, predictable) balance point. Compare with
/// PIE, under which every one of them starves Cubic outright.
pub fn family(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    let (secs, seed) = (fig.secs(run), fig.seed(run));
    let mut work = Vec::new();
    for (cc, law) in [
        (CcKind::Dctcp, "2/p"),
        (CcKind::ScalableHalfPkt, "2/p"),
        (CcKind::Relentless, "1/p"),
        (CcKind::ScalableTcp, "0.08/p"),
    ] {
        for aqm in [AqmKind::coupled_default(), AqmKind::pie_default()] {
            work.push((cc, law, aqm));
        }
    }
    let results = par_map(&work, |(cc, law, aqm)| {
        let (c, s, sig) = family_run(aqm.clone(), *cc, secs, seed);
        (format!("{cc:?}"), law.to_string(), aqm.name(), c, s, sig)
    });
    let cols = [
        "scalable cc",
        "law",
        "aqm",
        "cubic Mb/s",
        "scal Mb/s",
        "ratio c/s",
        "scal sig",
    ];
    write_rows(out, cols, results, |(cc, law, name, c, s, sig)| {
        [
            cc,
            law,
            name.to_string(),
            f(c),
            f(s),
            f(c / s.max(1e-9)),
            f(sig),
        ]
    })
}

/// §6 short-flow claim: flow completion times under Web-like workloads
/// are "essentially the same" for PIE, bare-PIE and PI2.
pub fn short(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    let seed = fig.seed(run);
    for (name, w) in [
        ("light", WebWorkload::light(seed)),
        ("heavy", WebWorkload::heavy(seed)),
    ] {
        writeln!(
            out,
            "--- {name} workload: {} flows/s, Pareto sizes, 10 Mb/s, 50 ms ---",
            w.arrivals_per_sec
        )?;
        let cols = [
            "aqm",
            "short p50 s",
            "short p99 s",
            "long p50 s",
            "long p99 s",
            "completed",
            "qdelay ms",
        ];
        let aqms = ["pie (full)", "pie (bare)", "pi2"];
        write_rows(out, cols, aqms.iter().zip(compare(&w)), |(name, r)| {
            [
                name.to_string(),
                f(r.short_fct.p50),
                f(r.short_fct.p99),
                f(r.long_fct.p50),
                f(r.long_fct.p99),
                format!("{}/{}", r.completed, r.launched),
                f(r.qdelay_ms),
            ]
        })?;
    }
    Ok(())
}

/// The step-response family (the paper's §5 claim, Figure 12 generalised):
/// {rate-step, flow-churn} × {PIE, PI2, DualPI2}, once on an ideal path
/// and once under seeded weather — the layer `pi2sim --loss 1% --jitter
/// 2ms` attaches at the same seed.
pub fn dynamics(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    let seed = fig.seed(run);
    let rough = ImpairmentConf {
        loss: 0.01,
        dup: 0.0,
        jitter: Duration::from_millis(2),
    };
    for (sky, conf) in [
        ("clear sky", ImpairmentConf::OFF),
        ("weather: 1% loss, 2 ms reordering jitter", rough),
    ] {
        writeln!(out, "--- {sky} ---")?;
        let runs = dynamics_family::dynamics(seed, cli::weather(seed, conf));
        write!(out, "{}", dynamics_family::render_table(&runs))?;
    }
    Ok(())
}

/// The multi-hop family: {parking-lot-3, access-core-2} × {PI2, DualPI2}
/// under heavy-tailed mice, every cell with the invariant auditor
/// attached (a pure observer: a violation panics, a clean run prints
/// what an unaudited one does).
pub fn topology(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    let runs = topology_family::topology(fig.seed(run), true);
    write!(out, "{}", topology_family::render_table(&runs))
}

/// The model-agreement grid (`pi2_validate::differential`): every cell
/// run once on the packet engine, each model listed for it judged against
/// that run, the achieved disagreement printed beside each band, then a
/// verdict line. A pair outside its band is an error naming it, so
/// `pi2fig` exits 1.
pub fn validate_grid(fig: &Figure, run: &Session, mut out: &mut dyn Write) -> io::Result<()> {
    let cells = pi2_validate::grid(fig.seed(run));
    let report = pi2_validate::run_grid(&cells, &pi2_validate::bands(), &mut out)?;
    let (failed, pairs) = (report.failed(), report.pairs().count());
    if failed.is_empty() {
        writeln!(
            out,
            "verdict: OK — {pairs}/{pairs} (cell, model) pairs within tolerance over {} packet runs",
            report.cells.len()
        )
    } else {
        let what = format!(
            "{} of {pairs} (cell, model) pairs out of tolerance: {}",
            failed.len(),
            failed.join(", ")
        );
        writeln!(out, "verdict: FAIL — {what}")?;
        Err(io::Error::other(what))
    }
}
