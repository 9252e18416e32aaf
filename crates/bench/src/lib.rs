//! # pi2-bench — figure regeneration, `pi2sim`, and the cost-ratio tests
//!
//! Every table and figure of the paper, the ablations and the extensions
//! are rows of one table, [`figures::FIGURES`], printed by one binary
//! (`DESIGN.md` §4 has the index; `results/<id>.txt` is each row's
//! archived output, which `scripts/ci.sh` regenerates and compares byte
//! for byte):
//!
//! ```text
//! cargo run -p pi2-bench --release --bin pi2fig -- list
//! cargo run -p pi2-bench --release --bin pi2fig -- fig06 abl_k
//! cargo run -p pi2-bench --release --bin pi2fig -- fig15 fig16   # one grid run feeds both
//! cargo run -p pi2-bench --release --bin pi2fig -- all           # the archived set
//! ```
//!
//! Environment knobs:
//!
//! * `PI2_SECS=<n>` — simulated seconds per run, for the figures whose
//!   `pi2fig list` row has a default (the others run the paper's fixed
//!   length and say so on stderr when it is set);
//! * `PI2_SEED=<n>` — the seed, for every figure that simulates (all but
//!   the analytic `fig04`, `fig05` and `fig07`, which say so on stderr);
//! * `PI2_THREADS=<n>` — worker count for the parallel sweep executor
//!   (default: available parallelism; output is bit-identical to serial
//!   for any value — see `pi2_experiments::runner`).
//!
//! Costs are measured by one instrument, the `benchmark/` package at the
//! repository root (`BENCHMARK.json` declares its workloads and per-layer
//! rows). What this crate keeps of measurement is what holds on any host,
//! as tests: `tests/cost_ratios.rs` (metrics-on / metrics-off, PIE / PI2,
//! fluid / packet — paired ratios in one process) and `tests/zero_alloc*.rs`
//! (allocator calls, counted by [`alloc_count`]).

use std::io::{self, Write};

use pi2_stats::{format_table, Align};

/// Write a standard experiment header with the Table 1 defaults in force.
pub(crate) fn write_header(out: &mut dyn Write, title: &str) -> io::Result<()> {
    writeln!(out, "== {title}")?;
    writeln!(
        out,
        "   defaults (paper Table 1): target 20 ms, T = 32 ms, buffer 40000 pkt, \
         PIE α=2/16 β=20/16, PI2 α=5/16 β=50/16, coupled-PI α=10/16 β=100/16, k=2"
    )?;
    writeln!(out)
}

/// Write rows as an aligned table with the first column left-aligned.
pub(crate) fn write_table(out: &mut dyn Write, rows: &[Vec<String>]) -> io::Result<()> {
    writeln!(out, "{}", format_table(rows, &[Align::Left]))
}

/// Write a table of `cols` and one row per item. The array lengths make
/// a row with a cell missing or to spare a compile error.
pub(crate) fn write_rows<T, const N: usize>(
    out: &mut dyn Write,
    cols: [&str; N],
    items: impl IntoIterator<Item = T>,
    row: impl FnMut(T) -> [String; N],
) -> io::Result<()> {
    let mut rows = vec![cols.map(String::from).to_vec()];
    rows.extend(items.into_iter().map(row).map(Vec::from));
    write_table(out, &rows)
}

/// Format a float with sensible width.
pub fn f(x: f64) -> String {
    if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// Render a `(t, v)` series as a compact sparkline-style row of values at
/// the given stride, for eyeballing time series in a terminal.
pub fn series_row(series: &[(f64, f64)], stride: usize) -> String {
    series
        .iter()
        .step_by(stride.max(1))
        .map(|&(_, v)| format!("{v:.0}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_formatting_scales() {
        assert_eq!(f(512.3), "512");
        assert_eq!(f(12.345), "12.35");
        assert_eq!(f(0.0123), "0.0123");
    }

    #[test]
    fn series_row_strides() {
        let s = vec![(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)];
        assert_eq!(series_row(&s, 2), "1 3");
    }
}

pub mod alloc_count;
pub mod cli;
pub mod figures;
pub mod jsonl_check;
pub mod perf;
pub mod perfetto_check;
