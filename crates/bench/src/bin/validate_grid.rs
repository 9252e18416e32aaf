//! Model-agreement validation over the one grid.
//!
//! Runs every cell of `pi2_validate::grid()` once on the packet engine
//! and judges each model listed for it (delay-ODE, flow-level engine,
//! hybrid mode) against that run, prints the side-by-side comparison with
//! the achieved disagreement beside each band, and writes the
//! machine-readable JSONL agreement report. Exits non-zero if any
//! tolerance is violated, so it can gate CI. `results/validate_grid.txt`
//! is what it prints with no flags.
//!
//! ```text
//! validate_grid [--out report.jsonl] [--tighten F] [--only NAME]
//!
//!   --out PATH    write the JSONL report to PATH (default: stdout,
//!                 after the human-readable table)
//!   --tighten F   scale every tolerance by F (e.g. 0.01 demonstrates
//!                 that a deliberately failed tolerance exits non-zero)
//!   --only NAME   run just the named cell (e.g. pi2-reno), all its models
//! ```

use pi2_validate::{bands, grid, run_grid};
use std::io::Write;

const USAGE: &str = "usage: validate_grid [--out report.jsonl] [--tighten F] [--only NAME]";

/// A command-line mistake: say what, print the usage line, exit 2.
fn usage_error(what: &str) -> ! {
    eprintln!("validate_grid: {what}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut tighten: f64 = 1.0;
    let mut only: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--out" => out_path = Some(value()),
            "--tighten" => {
                let v = value();
                tighten = v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--tighten factor must be a number, got '{v}'"))
                });
            }
            "--only" => only = Some(value()),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }

    let mut cells = grid();
    if let Some(name) = &only {
        cells.retain(|c| c.name == name);
        if cells.is_empty() {
            usage_error(&format!("no such config: {name}"));
        }
    }

    // The table streams to stdout as cells finish; the JSONL follows it
    // there, or goes to --out.
    let mut jsonl: Vec<u8> = Vec::new();
    let (tol, mut table) = (bands().scaled(tighten), std::io::stdout());
    let report = run_grid(&cells, &tol, &mut table, &mut jsonl).expect("stdout is writable");
    match &out_path {
        Some(p) => std::fs::write(p, &jsonl).unwrap_or_else(|e| {
            eprintln!("cannot write {p}: {e}");
            std::process::exit(2);
        }),
        None => table.write_all(&jsonl).expect("stdout is writable"),
    }

    // One-line verdict on stderr either way, so harnesses that keep
    // stdout for the report still see the outcome next to the exit code.
    let (failed, pairs) = (report.failed(), report.pairs().count());
    if failed.is_empty() {
        eprintln!(
            "validate_grid: OK — {pairs}/{pairs} (cell, model) pairs within tolerance over {} packet runs",
            report.cells.len()
        );
    } else {
        eprintln!(
            "validate_grid: FAIL — {} of {pairs} (cell, model) pairs out of tolerance: {}",
            failed.len(),
            failed.join(", ")
        );
        std::process::exit(1);
    }
}
