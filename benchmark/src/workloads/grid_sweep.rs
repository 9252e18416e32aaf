//! `grid_sweep`: the coexistence grid behind Figures 15–18, the largest
//! job users run and the sweep-throughput number.
//!
//! Every 8th entry of `grid::grid_cells()`: 13 cells spanning 4–200 Mb/s ×
//! 5–100 ms × PIE/coupled PI2 × both flow pairs, at the figures' real
//! length of 60 simulated seconds, so that slow-start overshoot and SACK
//! recovery keep their true share, fanned out over the parallel runner. It
//! is the only workload where the runner, per-cell set-up, the `Monitor`
//! clone and end-of-cell summaries matter. The fluid engine and the
//! observers are bypassed.
//!
//! The cost of a 120–200 Mb/s cell swings by a factor of two with its seed
//! (one slow-start overshoot, repaired at a cost that grows with the
//! window), and a few such cells carry the sweep. On two workers, sweeps
//! that differ only in their seed spread by (standard deviation ÷ mean)
//! 15 % as 50 cells of 10 s or 25 of 30 s, and 10 % as 13 cells of 60 s,
//! all near 1.5 s of wall. Even that is too much for a bound to hold across
//! seeds, so the timed repetitions of a run do not repeat one sweep: the
//! n-th runs seed variant n (`RepCtx::variant`), and the run's median is a
//! median over seeds. Repetitions of one variant (the traced pass's pairs,
//! the 1-worker check) must still agree bit for bit, and `sim_digest` is
//! variant 0's.

use super::{ensure, guarded, Outcome, RepCtx, Workload};
use crate::digest::Digest;
use crate::host;
use crate::span::SpanId;
use pi2_experiments::grid::{grid_cells, run_cell, GridCell, Pair};
use pi2_experiments::runner::par_map_threads;
use pi2_experiments::AqmKind;
use pi2_stats::Summary;
use std::time::Instant;

/// Simulated seconds per cell, as in the figures.
const CELL_SECS: u64 = 60;
/// Every `CELL_STEP`-th cell of the grid.
const CELL_STEP: usize = 8;
/// The same under `--quick`.
const QUICK_CELL_SECS: u64 = 2;
/// Packets the paper's buffer holds (Table 1).
const BUFFER_PKTS: u64 = 40_000;

type Cell = (AqmKind, Pair, u64, i64, u64);

pub struct GridSweep {
    /// The cells, each with its own fixed seed from `grid_cells()`.
    cells: Vec<Cell>,
    /// The run's `--seed`.
    seed: u64,
    cell_secs: u64,
    workers: usize,
}

impl GridSweep {
    pub fn new(seed: u64, quick: bool) -> Self {
        let cells = grid_cells().into_iter().step_by(CELL_STEP).collect();
        GridSweep {
            cells,
            seed,
            cell_secs: if quick { QUICK_CELL_SECS } else { CELL_SECS },
            workers: host::cpus().min(4),
        }
    }

    /// The seed variant `variant` of the run gives cell `cell_seed`: the
    /// run's seed, moved along by the variant, over the cell's own.
    fn seed_of(&self, variant: u64, cell_seed: u64) -> u64 {
        self.seed
            .wrapping_add(variant.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            ^ cell_seed
    }

    /// One pass over the cells on `workers` threads. Returns per cell its
    /// result (or why it panicked) and its host seconds.
    fn sweep(&self, ctx: &RepCtx, workers: usize) -> Vec<(Result<GridCell, String>, f64)> {
        let indexed: Vec<(u32, &Cell)> = (0u32..).zip(&self.cells).collect();
        ctx.tracer.span(
            "runner::par_map_threads",
            ctx.parent,
            None,
            |map: SpanId| {
                par_map_threads(
                    workers,
                    &indexed,
                    |&(i, (aqm, pair, link, rtt, cell_seed))| {
                        let seed = self.seed_of(ctx.variant, *cell_seed);
                        let t0 = Instant::now();
                        let cell = ctx.tracer.span("grid::run_cell", map, Some(i), |_| {
                            guarded(
                                &format!("run_cell {i} ({} {link} Mb/s {rtt} ms)", aqm.name()),
                                seed,
                                || run_cell(aqm.clone(), *pair, *link, *rtt, self.cell_secs, seed),
                            )
                        });
                        (cell, t0.elapsed().as_secs_f64())
                    },
                )
            },
        )
    }
}

fn finite(s: &Summary) -> bool {
    [s.mean, s.p1, s.p25, s.p50, s.p99, s.max]
        .iter()
        .all(|v| v.is_finite())
}

/// The per-cell output checks.
fn check(i: usize, seed: u64, c: &GridCell) -> Result<(), String> {
    let at = || {
        format!(
            "cell {i} ({} {} Mb/s {} ms, seed {seed})",
            c.aqm, c.link_mbps, c.rtt_ms
        )
    };
    let queued = c.counts.enqueued.checked_sub(c.counts.dequeued);
    ensure(queued.is_some_and(|q| q <= BUFFER_PKTS), || {
        format!(
            "{}: enqueued {} − dequeued {} not in 0..=buffer",
            at(),
            c.counts.enqueued,
            c.counts.dequeued
        )
    })?;
    ensure(c.util.mean > 0.0 && c.util.mean <= 100.1, || {
        format!(
            "{}: utilisation {:.2} % not in (0, 100.1]",
            at(),
            c.util.mean
        )
    })?;
    ensure(
        [&c.delay, &c.prob_cubic, &c.prob_ecn, &c.util]
            .into_iter()
            .all(finite),
        || format!("{}: a summary is not finite", at()),
    )
}

fn digest_cell(d: &mut Digest, c: &GridCell) {
    d.u64(c.counts.enqueued)
        .u64(c.counts.marked)
        .u64(c.counts.dropped)
        .u64(c.counts.dequeued);
    d.u64(c.aqm_updates).u64(c.events_processed);
    d.f64(c.rate_ratio).f64(c.tputs.0).f64(c.tputs.1);
    for s in [&c.delay, &c.prob_cubic, &c.prob_ecn, &c.util] {
        d.u64(s.n as u64)
            .f64(s.mean)
            .f64(s.p25)
            .f64(s.p50)
            .f64(s.p99)
            .f64(s.max);
    }
    d.f64(c.sojourn_p50_ms).f64(c.sojourn_p99_ms);
}

/// Digest of a sweep's results alone, to compare two worker counts.
fn digest_sweep(results: &[(Result<GridCell, String>, f64)]) -> u64 {
    let mut d = Digest::new();
    for (cell, _) in results {
        match cell {
            Ok(c) => digest_cell(&mut d, c),
            Err(_) => {
                d.str("panicked");
            }
        }
    }
    d.finish()
}

impl Workload for GridSweep {
    fn run(&self, ctx: &RepCtx) -> Outcome {
        let mut out = Outcome {
            variant: ctx.variant,
            ..Outcome::default()
        };
        let results = self.sweep(ctx, self.workers);
        ctx.tracer.span("summarise", ctx.parent, None, |_| {
            for (i, (cell, secs)) in results.iter().enumerate() {
                out.cell_s.push(*secs);
                match cell {
                    Err(why) => out.op(Err(why.clone())),
                    Ok(c) => {
                        out.op(check(i, self.seed_of(ctx.variant, self.cells[i].4), c));
                        out.events += c.events_processed;
                        out.pkts += c.counts.dequeued;
                        out.offered += c.counts.enqueued + c.counts.dropped;
                        out.drops += c.counts.dropped;
                    }
                }
            }
            out.digest = digest_sweep(&results);
        });
        if ctx.deep {
            // The runner's contract: any worker count gives the bits of a
            // serial loop. The serial pass, against one more parallel pass
            // now that the process is warm, also prices the fan-out.
            let t0 = Instant::now();
            let serial = self.sweep(ctx, 1);
            let serial_s = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            self.sweep(ctx, self.workers);
            let parallel_s = t0.elapsed().as_secs_f64();
            out.par_efficiency = Some(serial_s / (self.workers as f64 * parallel_s));
            let serial_digest = digest_sweep(&serial);
            out.op(ensure(serial_digest == out.digest, || {
                format!(
                    "grid_sweep: {}-worker digest {:016x} differs from the 1-worker digest {serial_digest:016x}",
                    self.workers, out.digest
                )
            }));
        }
        out
    }
}
