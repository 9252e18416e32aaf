//! Differential fluid ⇄ packet validation over the standard grid.
//!
//! Runs every matched configuration ({PI, PI2, PIE} × {Reno, Scalable})
//! through both the packet simulator and the fluid ODE, prints the
//! side-by-side comparison, and writes the machine-readable JSONL
//! agreement report. Exits non-zero if any tolerance is violated, so it
//! can gate CI.
//!
//! ```text
//! validate_grid [--out report.jsonl] [--tighten F] [--only NAME]
//!
//!   --out PATH    write the JSONL report to PATH (default: stdout,
//!                 after the human-readable table)
//!   --tighten F   scale every tolerance by F (e.g. 0.01 demonstrates
//!                 that a deliberately failed tolerance exits non-zero)
//!   --only NAME   run just the named configuration (e.g. pi2-reno)
//! ```

use pi2_validate::differential::{default_grid, run_config};
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

    let mut grid = default_grid();
    if let Some(name) = &only {
        grid.retain(|c| &c.name == name);
        if grid.is_empty() {
            usage_error(&format!("no such config: {name}"));
        }
    }
    for cfg in &mut grid {
        cfg.tol = cfg.tol.scaled(tighten);
    }

    // Stream the human-readable table as configs finish; collect JSONL.
    let mut jsonl: Vec<u8> = Vec::new();
    let mut all_pass = true;
    let mut reports = Vec::new();
    for cfg in &grid {
        let report = run_config(cfg);
        print!("{}", report.table());
        all_pass &= report.pass;
        reports.push(report);
    }
    // Re-emit through run_grid's writer path for the summary line without
    // re-running: serialize what we already have.
    for r in &reports {
        writeln!(jsonl, "{}", r.jsonl()).unwrap();
    }
    let failed: Vec<String> = reports
        .iter()
        .filter(|c| !c.pass)
        .map(|c| format!("\"{}\"", c.name))
        .collect();
    writeln!(
        jsonl,
        "{{\"summary\":{{\"configs\":{},\"pass\":{},\"failed\":[{}]}}}}",
        reports.len(),
        all_pass,
        failed.join(",")
    )
    .unwrap();

    match &out_path {
        Some(p) => std::fs::write(p, &jsonl).unwrap_or_else(|e| {
            eprintln!("cannot write {p}: {e}");
            std::process::exit(2);
        }),
        None => std::io::stdout().write_all(&jsonl).unwrap(),
    }

    // One-line verdict on stderr either way, so harnesses that keep
    // stdout for the report still see the outcome next to the exit code.
    if all_pass {
        eprintln!(
            "validate_grid: OK — {}/{} configs within tolerance",
            reports.len(),
            reports.len()
        );
    } else {
        eprintln!(
            "validate_grid: FAIL — {} of {} configs out of tolerance: [{}]",
            failed.len(),
            reports.len(),
            failed.join(",")
        );
        std::process::exit(1);
    }
}
