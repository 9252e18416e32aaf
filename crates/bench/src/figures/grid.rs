//! Figures 15–18: four views of one run of the link×RTT coexistence grid
//! (one Cubic flow vs one ECN-Cubic or DCTCP flow; PIE vs coupled PI2).
//! `grid_all` prints all four plus the per-cell counters.

use super::{pair_label, Figure, Session};
use crate::{f, write_table};
use pi2_experiments::grid::{run_grid, GridCell};
use std::io::{self, Write};

/// One view: the columns that name a cell, then `cols`; a row per cell
/// of the session's grid, which the first view to ask runs.
fn view<const N: usize>(
    fig: &Figure,
    run: &Session,
    out: &mut dyn Write,
    cols: [&str; N],
    row: impl Fn(&GridCell) -> [String; N],
) -> io::Result<()> {
    let head = ["cell", "pair", "aqm"].iter().chain(&cols);
    let mut rows = vec![head.map(|s| s.to_string()).collect::<Vec<_>>()];
    for c in run.grid.get_or_init(|| run_grid(fig.secs(run), fig.seed(run))) {
        let key = [
            format!("{}Mb {}ms", c.link_mbps, c.rtt_ms),
            pair_label(c.pair).to_string(),
            c.aqm.to_string(),
        ];
        rows.push(key.into_iter().chain(row(c)).collect());
    }
    write_table(out, &rows)
}

/// Figure 15: throughput-balance ratios.
pub fn fig15(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "--- Figure 15: rate balance (non-ECN flow rate / ECN flow rate) ---"
    )?;
    let cols = ["ratio", "cubic Mb/s", "ecn-flow Mb/s"];
    view(fig, run, out, cols, |c| {
        [f(c.rate_ratio), f(c.tputs.0), f(c.tputs.1)]
    })?;
    writeln!(
        out,
        "shape check: under PIE the Cubic/DCTCP ratio collapses (DCTCP starves\n\
         Cubic ~10x); under coupled PI2 it stays near 1 across the whole grid; the\n\
         Cubic/ECN-Cubic control pair is ~1 under both.\n"
    )
}

/// Figure 16: queue delay mean + P99.
pub fn fig16(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "--- Figure 16: queue delay (ms), mean and P99 ---")?;
    view(fig, run, out, ["mean", "p99"], |c| {
        [f(c.delay.mean), f(c.delay.p99)]
    })?;
    writeln!(
        out,
        "shape check: both AQMs hold the mean near the 20 ms target; PI2 is no\n\
         worse, and at the smallest link rate (4 Mb/s) its P99 beats PIE's.\n"
    )
}

/// Figure 17: applied probability percentiles.
pub fn fig17(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "--- Figure 17: mark/drop probability [%], P25/mean/P99 per flow ---"
    )?;
    let cols = [
        "cubic p25",
        "cubic mean",
        "cubic p99",
        "ecn p25",
        "ecn mean",
        "ecn p99",
    ];
    view(fig, run, out, cols, |c| {
        [
            f(c.prob_cubic.p25),
            f(c.prob_cubic.mean),
            f(c.prob_cubic.p99),
            f(c.prob_ecn.p25),
            f(c.prob_ecn.mean),
            f(c.prob_ecn.p99),
        ]
    })?;
    writeln!(
        out,
        "shape check: under coupled PI2 the DCTCP marking probability sits far\n\
         above the Cubic drop probability (ps vs (ps/2)^2), growing as link rate\n\
         falls; under PIE both flows see the same p.\n"
    )
}

/// Figure 18: utilization percentiles.
pub fn fig18(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "--- Figure 18: link utilization [%], P1/mean/P99 ---")?;
    view(fig, run, out, ["p1", "mean", "p99"], |c| {
        [f(c.util.p1), f(c.util.mean), f(c.util.p99)]
    })?;
    writeln!(
        out,
        "shape check: utilization stays high (>85-90% mean) across the grid for\n\
         both AQMs; dips appear only at large RTT x small rate where two flows\n\
         cannot fill the pipe at the 20 ms target.\n"
    )
}

/// All four views, then per-cell event-counter totals from the always-on
/// counting sink plus the registry-histogram metrics columns (whole-run
/// sojourn P50/P99 and dispatch-loop event count from `pi2_obs`).
pub fn grid_all(fig: &Figure, run: &Session, out: &mut dyn Write) -> io::Result<()> {
    let secs = fig.secs(run);
    eprintln!(
        "running 100 cells x {secs} s simulated ... (set PI2_SECS to trade accuracy for time)"
    );
    for figure in [fig15, fig16, fig17, fig18] {
        figure(fig, run, out)?;
    }
    writeln!(
        out,
        "--- per-cell event counters (whole run, warmup included) ---"
    )?;
    let cols = [
        "enq",
        "mark",
        "drop",
        "deq",
        "aqm upd",
        "soj p50 ms",
        "soj p99 ms",
        "events",
    ];
    view(fig, run, out, cols, |c| {
        [
            c.counts.enqueued.to_string(),
            c.counts.marked.to_string(),
            c.counts.dropped.to_string(),
            c.counts.dequeued.to_string(),
            c.aqm_updates.to_string(),
            f(c.sojourn_p50_ms),
            f(c.sojourn_p99_ms),
            c.events_processed.to_string(),
        ]
    })
}
