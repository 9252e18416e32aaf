//! Diff the newest recorded benchmark run against its predecessor, and
//! (optionally) gate on the result.
//!
//! ```text
//! cargo run -p pi2-bench --release --bin bench_compare                  # newest vs previous, all benches
//! cargo run ... --bin bench_compare -- --bench sim_throughput          # one bench only
//! cargo run ... --bin bench_compare -- --baseline BENCH_pi2.json \
//!                                       --candidate /tmp/smoke.json    # fresh run vs committed trajectory
//! ```
//!
//! With one history file (default: `PI2_BENCH_OUT` or the committed
//! `BENCH_pi2.json`), the newest run of each bench is compared against
//! the previous run of the same bench. With `--baseline`/`--candidate`,
//! the newest run per bench in the candidate file is compared against
//! the **fastest of the trailing five** runs in the baseline file — the
//! trailing-min is deliberate: this host's clock throttles bimodally
//! (the committed trajectory has same-code runs 25–180% apart, see
//! EXPERIMENTS.md "Timing variance"), so a single baseline sample may
//! itself be a slow-mode artifact.
//!
//! ## `PI2_PERF_GATE`
//!
//! `PI2_PERF_GATE=1` turns the comparison into a CI gate (exit 1) when
//! any check fails. Costs are per unit of simulated work, never wall
//! time: per dequeued **packet** for `sim_throughput` — not per event: a
//! change that removes events (lazy timers dropped a quarter of them)
//! reads as no gain, or a loss, in ns/event while the run itself got
//! faster — and per **class-step** for the `hybrid` bench's 1 000-class
//! fluid cell.
//!
//! * **absolute**: a `*_ns_per_pkt` or `*_ns_per_class_step` metric
//!   worsened by more than `PI2_PERF_TOL` (default 0.35 — generous, for
//!   the clock bimodality) against the baseline. A fluid engine that
//!   sorts its allocation order from scratch every step reads about 3×
//!   on `fluid_1kclass_ns_per_class_step`: past the default tolerance,
//!   inside the 7× CI passes. `overshoot_1flow_1gbps_ns_per_pkt` is
//!   the price of one loss episode: a scoreboard operation that costs a
//!   pass over the holes makes it six to nine times dearer (1.33 s against
//!   0.22 s per run where this was written). That is far past the default
//!   tolerance and at the edge of the 7× CI passes, so the guard CI can
//!   rely on is the time limit in `tests/sack_recovery.rs`;
//! * **relative**: the candidate's PIE/PI2 per-packet cost ratio leaves
//!   `[0.9, 2.0]`. Both AQMs run the identical engine, so host throttling
//!   scales them together and this ratio is machine-mode-independent; it
//!   pins down AQM-specific regressions that absolute numbers cannot
//!   (the committed 169 → 211 ns/event "regression" was throttling: the
//!   ratio stayed 1.44 → 1.40);
//! * **work**: the PI2 case pops more than 3.1 events per dequeued packet.
//!   A packet needs three (dequeue, deliver, ack); the count is
//!   deterministic, so this one is exact on any host;
//! * **exact**: a `*_order_moves` metric (entries the fluid engine's kept
//!   water-filling order shifted over a fixed run) differs from the
//!   baseline's newest run at all. It is a deterministic work count: a
//!   change means the dynamics or the repair changed, and belongs in
//!   CHANGES.md with a fresh baseline record.

use pi2_bench::perf::{history_path, load_history, RunRecord};
use pi2_bench::table;
use std::path::PathBuf;
use std::process::exit;

/// Metrics that participate in the absolute gate check.
fn is_gated_metric(name: &str) -> bool {
    name.ends_with("_ns_per_pkt") || name.ends_with("_ns_per_class_step")
}

/// Deterministic work counts of a fixed-size run: any difference from the
/// baseline's newest run is a violation.
fn is_exact_metric(name: &str) -> bool {
    name.ends_with("_order_moves")
}

/// Ceiling on events popped per dequeued packet in the PI2 case.
const MAX_EVENTS_PER_PKT: f64 = 3.1;

/// Newest run of `bench`, plus (for baseline use) the per-metric minimum
/// over the trailing `window` runs of that bench.
fn newest<'a>(history: &'a [RunRecord], bench: &str) -> Option<&'a RunRecord> {
    history.iter().rev().find(|r| r.bench == bench)
}

fn trailing_min(history: &[RunRecord], bench: &str, window: usize) -> Option<RunRecord> {
    let runs: Vec<&RunRecord> = history
        .iter()
        .rev()
        .filter(|r| r.bench == bench)
        .take(window)
        .collect();
    let newest = *runs.first()?;
    let mut metrics = Vec::new();
    for (k, v) in &newest.metrics {
        let best = if is_exact_metric(k) {
            *v
        } else {
            runs.iter()
                .filter_map(|r| r.metrics.iter().find(|(rk, _)| rk == k).map(|(_, rv)| *rv))
                .fold(*v, f64::min)
        };
        metrics.push((k.clone(), best));
    }
    Some(RunRecord {
        timestamp_unix: newest.timestamp_unix,
        bench: bench.to_string(),
        metrics,
    })
}

fn parse_args() -> (Option<PathBuf>, Option<PathBuf>, Option<String>) {
    let mut baseline = None;
    let mut candidate = None;
    let mut bench = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => baseline = args.next().map(PathBuf::from),
            "--candidate" => candidate = args.next().map(PathBuf::from),
            "--bench" => bench = args.next(),
            "--help" | "-h" => {
                println!(
                    "usage: bench_compare [--bench <name>] [--baseline <path>] [--candidate <path>]"
                );
                exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                exit(2);
            }
        }
    }
    (baseline, candidate, bench)
}

/// One bench's comparison. Returns the gate violations found.
fn compare_bench(bench: &str, cur: &RunRecord, base: Option<&RunRecord>) -> Vec<String> {
    let mut violations = Vec::new();
    let tol = std::env::var("PI2_PERF_TOL")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.35);

    println!("== {bench}: newest run (timestamp_unix {})", cur.timestamp_unix);
    let Some(base) = base else {
        println!("   no baseline run to compare against");
        return violations;
    };

    let mut rows = vec![vec![
        "metric".to_string(),
        "baseline".into(),
        "current".into(),
        "delta".into(),
    ]];
    for (k, v) in &cur.metrics {
        let Some((_, b)) = base.metrics.iter().find(|(bk, _)| bk == k) else {
            continue;
        };
        let delta = if *b != 0.0 {
            format!("{:+.1}%", (v / b - 1.0) * 100.0)
        } else {
            "n/a".to_string()
        };
        rows.push(vec![k.clone(), pi2_bench::f(*b), pi2_bench::f(*v), delta]);
        if is_gated_metric(k) && *b > 0.0 && v / b > 1.0 + tol {
            violations.push(format!(
                "{k}: {v:.1} ns vs baseline {b:.1} (+{:.0}%, allowed +{:.0}%)",
                (v / b - 1.0) * 100.0,
                tol * 100.0
            ));
        }
        if is_exact_metric(k) && v != b {
            violations.push(format!(
                "{k}: {v} vs baseline {b} — a deterministic work count moved"
            ));
        }
    }
    table(&rows);

    // Machine-mode-independent pin: PIE and PI2 share the engine, so
    // host throttling cancels out of their ratio.
    if bench == "sim_throughput" {
        let get = |r: &RunRecord, k: &str| {
            r.metrics
                .iter()
                .find(|(mk, _)| mk == k)
                .map(|(_, v)| *v)
        };
        if let (Some(pie), Some(pi2)) = (
            get(cur, "pie_10flows_50mbps_ns_per_pkt"),
            get(cur, "pi2_10flows_50mbps_ns_per_pkt"),
        ) {
            let ratio = pie / pi2;
            println!("PIE/PI2 per-packet cost ratio: {ratio:.3} (band 0.9..=2.0)");
            if !(0.9..=2.0).contains(&ratio) {
                violations.push(format!(
                    "PIE/PI2 ns/pkt ratio {ratio:.3} outside [0.9, 2.0] — AQM-specific regression"
                ));
            }
        }
        if let Some(per_pkt) = get(cur, "pi2_10flows_50mbps_events_per_pkt") {
            println!("PI2 events per dequeued packet: {per_pkt:.3} (ceiling {MAX_EVENTS_PER_PKT})");
            if per_pkt > MAX_EVENTS_PER_PKT {
                violations.push(format!(
                    "pi2_10flows_50mbps_events_per_pkt {per_pkt:.3} above {MAX_EVENTS_PER_PKT} — \
                     the dispatch loop is popping events that move no packet"
                ));
            }
        }
    }
    violations
}

fn main() {
    let (baseline, candidate, bench_filter) = parse_args();
    let two_files = baseline.is_some() || candidate.is_some();
    let cand_path = candidate.unwrap_or_else(history_path);
    let base_path = baseline.unwrap_or_else(|| cand_path.clone());

    let cand_hist = load_history(&cand_path).unwrap_or_else(|e| {
        eprintln!("cannot read candidate history: {e}");
        exit(2);
    });
    let base_hist = load_history(&base_path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline history: {e}");
        exit(2);
    });
    if cand_hist.is_empty() {
        eprintln!("candidate history {} has no runs", cand_path.display());
        exit(2);
    }

    let mut benches: Vec<String> = Vec::new();
    for r in &cand_hist {
        if !benches.contains(&r.bench) {
            benches.push(r.bench.clone());
        }
    }
    if let Some(b) = &bench_filter {
        benches.retain(|x| x == b);
        if benches.is_empty() {
            eprintln!("no runs of bench '{b}' in {}", cand_path.display());
            exit(2);
        }
    }

    let mut violations = Vec::new();
    for bench in &benches {
        let cur = newest(&cand_hist, bench).expect("bench name came from this history");
        // Same-file mode diffs newest vs previous; two-file mode diffs
        // the candidate against the trailing-min of the baseline
        // trajectory (robust to one slow-mode baseline sample).
        let base = if two_files {
            trailing_min(&base_hist, bench, 5)
        } else {
            let prior: Vec<RunRecord> = base_hist
                .iter()
                .filter(|r| &r.bench == bench)
                .cloned()
                .collect();
            if prior.len() >= 2 {
                Some(prior[prior.len() - 2].clone())
            } else {
                None
            }
        };
        violations.extend(compare_bench(bench, cur, base.as_ref()));
    }

    if std::env::var("PI2_PERF_GATE").ok().as_deref() == Some("1") && !violations.is_empty() {
        eprintln!("PERF GATE FAILED:");
        for v in &violations {
            eprintln!("  {v}");
        }
        exit(1);
    }
    if !violations.is_empty() {
        println!("(informational — set PI2_PERF_GATE=1 to fail on these)");
        for v in &violations {
            println!("  {v}");
        }
    }
}
