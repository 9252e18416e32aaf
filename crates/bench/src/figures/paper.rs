//! The paper's own figures (4–7, 11–14, 19, 20) and Appendix A. The grid
//! figures 15–18 are in [`super::grid`].

use super::{pair_label, Figure, Session};
use crate::{f, series_row, write_rows, write_table};
use pi2_experiments::appendix_a::{appendix_a, coupling_check, step_vs_probabilistic};
use pi2_experiments::fig06::{self, IntensityRun};
use pi2_experiments::fig19::ComboResult;
use pi2_fluid::law::tune_factor;
use pi2_fluid::{margins, LoopKind, LoopTf, PiGains};
use pi2_stats::Summary;
use std::io::{self, Write};

/// Figure 4: Bode gain/phase margins of PIE for p from 0.0001 % to 100 %,
/// with tune ∈ {auto, 1, ½, ⅛}; R = 100 ms, α=0.125·tune, β=1.25·tune,
/// T = 32 ms.
pub fn fig04(_: &Figure, _: &Session, out: &mut dyn Write) -> io::Result<()> {
    let r0 = 0.1;
    let tunes = [
        ("auto", None),
        ("1", Some(1.0)),
        ("1/2", Some(0.5)),
        ("1/8", Some(0.125)),
    ];
    let mut rows = vec![vec!["p [%]".to_string()]];
    for (name, _) in tunes {
        rows[0].push(format!("GM({name}) dB"));
        rows[0].push(format!("PM({name}) deg"));
    }
    for i in 0..25 {
        let p = 10f64.powf(-6.0 + 6.0 * i as f64 / 24.0);
        let mut row = vec![format!("{:.4}", p * 100.0)];
        for (_, tune) in tunes {
            let factor = tune.unwrap_or_else(|| tune_factor(p));
            let tf = LoopTf {
                kind: LoopKind::RenoOnP,
                gains: PiGains::pie().scaled(factor),
                r0,
                p0_prime: p.sqrt(),
            };
            let m = margins(&tf);
            row.push(f(m.gain_margin_db));
            row.push(f(m.phase_margin_deg));
        }
        rows.push(row);
    }
    write_table(out, &rows)
}

/// Figure 5: PIE's stepped `tune` factor vs the continuous `√(2p)` it
/// tracks — the empirical observation that led to PI2's analytic square.
pub fn fig05(_: &Figure, _: &Session, out: &mut dyn Write) -> io::Result<()> {
    let cols = ["p", "tune (stepped)", "sqrt(2p)", "ratio"];
    write_rows(out, cols, 0..29, |i| {
        let p = 10f64.powf(-7.0 + 7.0 * i as f64 / 28.0);
        let stepped = tune_factor(p);
        let continuous = (2.0 * p).sqrt();
        [
            format!("{p:.2e}"),
            format!("{stepped:.2e}"),
            format!("{continuous:.2e}"),
            format!("{:.2}", stepped / continuous),
        ]
    })
}

/// Figure 6: fixed-gain PI vs PI2 under varying traffic intensity,
/// 10:30:50:30:10 flows × 50 s, 100 Mb/s, RTT 10 ms.
pub fn fig06(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    intensity(out, &fig06::fig06(fig.seed(run)))
}

/// Figure 13: PIE vs PI2 under varying traffic intensity,
/// 10:30:50:30:10 flows × 50 s, 10 Mb/s, RTT 100 ms.
pub fn fig13(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    intensity(out, &fig06::fig13(fig.seed(run)))
}

/// The varying-intensity table and series both figures print.
fn intensity(out: &mut dyn Write, runs: &[IntensityRun]) -> io::Result<()> {
    let cols = [
        "aqm",
        "mean ms",
        "p50 ms",
        "p99 ms",
        "max ms",
        "steady-phase std ms",
    ];
    write_rows(out, cols, runs, |r| {
        [
            r.aqm.to_string(),
            f(r.delay.mean),
            f(r.delay.p50),
            f(r.delay.p99),
            f(r.delay.max),
            f(r.steady_phase_std_ms),
        ]
    })?;
    for r in runs {
        writeln!(
            out,
            "{} qdelay(ms) @5s: {}",
            r.aqm,
            series_row(&r.qdelay, 5)
        )?;
    }
    Ok(())
}

/// Figure 7: Bode margins of reno-PIE (auto-tuned), reno-PI2
/// (α=0.3125, β=3.125) and scalable-PI (α=0.625, β=6.25); R = 100 ms.
pub fn fig07(_: &Figure, _: &Session, out: &mut dyn Write) -> io::Result<()> {
    let r0 = 0.1;
    let cols = [
        "p' [%]",
        "GM pie dB",
        "PM pie deg",
        "GM pi2 dB",
        "PM pi2 deg",
        "GM scal dB",
        "PM scal deg",
    ];
    write_rows(out, cols, 0..25, |i| {
        let pp = 10f64.powf(-3.0 + 3.0 * i as f64 / 24.0);
        let pie = margins(&LoopTf::pie_auto(pp * pp, r0));
        let pi2 = margins(&LoopTf::pi2(pp, r0));
        let scal = margins(&LoopTf::scal_pi(pp, r0));
        [
            format!("{:.3}", pp * 100.0),
            f(pie.gain_margin_db),
            f(pie.phase_margin_deg),
            f(pi2.gain_margin_db),
            f(pi2.phase_margin_deg),
            f(scal.gain_margin_db),
            f(scal.phase_margin_deg),
        ]
    })
}

/// Figure 11: queue delay + throughput under (a) 5 TCP, (b) 50 TCP,
/// (c) 5 TCP + 2×6 Mb/s UDP; 10 Mb/s, RTT 100 ms; PIE vs PI2.
pub fn fig11(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    let runs = pi2_experiments::fig11::fig11(fig.seed(run));
    let cols = [
        "mix",
        "aqm",
        "delay mean ms",
        "delay p99 ms",
        "peak ms",
        "util mean %",
        "util p1 %",
    ];
    write_rows(out, cols, &runs, |r| {
        [
            r.mix.label().to_string(),
            r.aqm.to_string(),
            f(r.delay.mean),
            f(r.delay.p99),
            f(r.peak_ms),
            f(r.util.mean),
            f(r.util.p1),
        ]
    })?;
    for r in &runs {
        writeln!(
            out,
            "{:<14} {:<4} qdelay(ms) @5s: {}",
            r.mix.label(),
            r.aqm,
            series_row(&r.qdelay, 5)
        )?;
    }
    Ok(())
}

/// Figure 12: queue delay under varying link capacity, 100:20:100 Mb/s
/// over 50:50:50 s, 20 Reno flows, 100 ms sampling; PIE vs PI2.
///
/// Paper's headline numbers: peak 510 ms (PIE) vs 250 ms (PI2) at the
/// 50 s rate drop, and two further >100 ms oscillation peaks for PIE vs
/// none for PI2.
pub fn fig12(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    let cols = [
        "aqm",
        "peak after 50s drop (ms)",
        "settling after drop (s)",
        ">=100ms excursions 55-100s",
        "peak after 100s restore (ms)",
    ];
    // A missing peak means the sampling window held no data (mis-scheduled
    // disturbance / truncated run) — print it as such, never as 0.
    let peak = |p: Option<f64>| p.map(f).unwrap_or_else(|| "no samples".into());
    write_rows(out, cols, pi2_experiments::fig12::fig12(fig.seed(run)), |r| {
        [
            r.aqm.to_string(),
            peak(r.drop_peak_ms),
            r.settle_s.map(f).unwrap_or_else(|| "-".into()),
            r.late_excursions.to_string(),
            peak(r.restore_peak_ms),
        ]
    })
}

/// Figure 14: CDFs of per-packet queue delay with 5 ms and 20 ms targets,
/// under (a) 20 TCP and (b) 5 TCP + 2 UDP; PIE vs PI2.
pub fn fig14(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    let runs = pi2_experiments::fig14::fig14(fig.seed(run));
    let cols = [
        "panel", "target", "aqm", "p25 ms", "p50 ms", "p75 ms", "p95 ms", "p99 ms",
    ];
    write_rows(out, cols, &runs, |r| {
        [
            if r.udp_mix { "5TCP+2UDP" } else { "20 TCP" }.to_string(),
            format!("{} ms", r.target_ms),
            r.aqm.to_string(),
            f(r.cdf.quantile(0.25)),
            f(r.cdf.quantile(0.50)),
            f(r.cdf.quantile(0.75)),
            f(r.cdf.quantile(0.95)),
            f(r.cdf.quantile(0.99)),
        ]
    })?;
    // Print one CDF curve pair for plotting.
    writeln!(
        out,
        "CDF curves (20 TCP, 20 ms target): x = delay ms, y = P[delay <= x]"
    )?;
    for r in runs.iter().filter(|r| !r.udp_mix && r.target_ms == 20) {
        let curve = r.cdf.curve(20);
        let pts: Vec<String> = curve
            .iter()
            .map(|&(x, y)| format!("({x:.0},{y:.2})"))
            .collect();
        writeln!(out, "  {}: {}", r.aqm, pts.join(" "))?;
    }
    Ok(())
}

/// The flow-count combinations Figures 19 and 20 both print.
fn combos<'a>(fig: &Figure, run: &'a Session) -> &'a [ComboResult] {
    run.combos
        .get_or_init(|| pi2_experiments::fig19::fig19(fig.secs(run), fig.seed(run)))
}

/// The three columns that name a combination.
fn combo_key(r: &ComboResult) -> [String; 3] {
    [
        format!("A{}-B{}", r.a, r.b),
        pair_label(r.pair).to_string(),
        r.aqm.to_string(),
    ]
}

/// Figure 19: per-flow rate ratio for flow-count combinations A:B from
/// 0:10 to 10:0 (A = Cubic, B = ECN-Cubic or DCTCP); 40 Mb/s, RTT 10 ms.
pub fn fig19(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    let cols = ["combo", "pair", "aqm", "per-flow ratio A/B"];
    write_rows(out, cols, combos(fig, run), |r| {
        let [combo, pair, aqm] = combo_key(r);
        [
            combo,
            pair,
            aqm,
            r.ratio.map(f).unwrap_or_else(|| "-".into()),
        ]
    })
}

/// Figure 20: normalized per-flow rates (rate ÷ fair share) with
/// P1/mean/P99 across flows, for the same combinations as Figure 19.
pub fn fig20(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    let cols = [
        "combo", "pair", "aqm", "A p1", "A mean", "A p99", "B p1", "B mean", "B p99",
    ];
    write_rows(out, cols, combos(fig, run), |r| {
        let sa = Summary::of(&r.norm_a);
        let sb = Summary::of(&r.norm_b);
        let dash = |s: &Summary, v: f64| if s.n == 0 { "-".to_string() } else { f(v) };
        let [combo, pair, aqm] = combo_key(r);
        [
            combo,
            pair,
            aqm,
            dash(&sa, sa.p1),
            dash(&sa, sa.mean),
            dash(&sa, sa.p99),
            dash(&sb, sb.p1),
            dash(&sb, sb.mean),
            dash(&sb, sb.p99),
        ]
    })
}

/// Appendix A: steady-state window laws validated in the packet
/// simulator, plus the eq. (14) coupling relation: the law table at the
/// row's seed, the other two parts at it XOR a constant of their own.
pub fn app_a(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    let seed = fig.seed(run);
    let cols = ["cc", "p", "measured W", "predicted W", "rel err"];
    write_rows(out, cols, appendix_a(seed), |pt| {
        [
            pt.cc.to_string(),
            f(pt.p),
            f(pt.measured_w),
            f(pt.predicted_w),
            format!("{:.1}%", pt.rel_err * 100.0),
        ]
    })?;

    writeln!(
        out,
        "--- eq. (11) vs eq. (12): how DCTCP is marked changes the exponent ---"
    )?;
    let (p, w_step, w_prob) = step_vs_probabilistic(seed ^ 0x57e3);
    let cols = ["marking", "realized p", "measured W", "2/p", "2/p^2"];
    let markings = [("step threshold", w_step), ("probabilistic", w_prob)];
    write_rows(out, cols, markings, |(marking, w)| {
        [marking.into(), f(p), f(w), f(2.0 / p), f(2.0 / (p * p))]
    })?;

    writeln!(
        out,
        "--- eq. (14) coupling relation: pc = (ps/k)^2, k = 2 ---"
    )?;
    let (_, pc, ps) = coupling_check(2.0, seed ^ 0x9);
    writeln!(
        out,
        "realized: pc = {:.4}, ps = {:.4}, (ps/2)^2 = {:.4}",
        pc,
        ps,
        (ps / 2.0) * (ps / 2.0)
    )
}
