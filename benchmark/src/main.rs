//! The repository's benchmark: five named workloads timed end to end
//! under a rule that survives this host's noise, and a cost number for
//! every layer. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! benchmark/run.sh                      every workload, untraced then traced
//! benchmark/run.sh --workload bulk_run --seed 7 --seconds 20 --trace 0
//! benchmark/run.sh selfcheck            two untraced sets must agree
//! ```

mod calib;
mod digest;
mod host;
mod layers;
mod report;
mod span;
mod timing;
mod workloads;

use layers::Measured;
use pi2_bench::alloc_count::{self, CountingAlloc};
use pi2_bench::perf::{median, Json};
use report::{Better, Report, END_TO_END};
use span::{self_times, SpanId, Tracer};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use timing::{estimate, Rep, Timer, Turn};
use workloads::{Outcome, RepCtx, Workload};

/// Counts allocator calls for `harness.alloc_*`. It counts in both passes
/// (a binary has one allocator): two relaxed atomic adds per call, on a
/// simulator whose event loop does not allocate.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
const DEFAULT_SECONDS: f64 = 20.0;
/// The same under `--quick`.
const QUICK_SECONDS: f64 = 1.0;
/// Share of `--seconds` the traced pass spends on paired repetitions; the
/// deep warm-up and the layer drivers take the rest.
const TRACED_SHARE: f64 = 0.3;
/// Where traces and suite results go, from the repository root.
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage: pi2-benchmark [selfcheck] [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--quick]\n\
                     \x20 no --workload: run every workload, each in its own process, untraced then\n\
                     \x20   traced (or only the pass --trace names); write benchmark/out/results.json\n\
                     \x20 selfcheck: run the untraced suite twice; fail unless set B is within each\n\
                     \x20   metric's bound of set A and the digests are equal\n\
                     \x20 --quick: smoke-test sizes";

struct Args {
    selfcheck: bool,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        selfcheck: false,
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "selfcheck" => a.selfcheck = true,
            "--quick" => a.quick = true,
            "--workload" => {
                let w = value("a workload name")?;
                if !workloads::NAMES.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?}; one of {:?}",
                        workloads::NAMES
                    ));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is not in (0, 60]"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: want 0 or 1")),
                })
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // Arguments only: the repository's environment knobs must not reach
    // the simulations (an inherited PI2_AUDIT=1 would audit every cell).
    for knob in ["PI2_AUDIT", "PI2_PROFILE", "PI2_THREADS"] {
        std::env::remove_var(knob);
    }
    std::env::set_var("PI2_QUIET", "1");
    // An auditor violation dumps its flight recorder; keep it in the tree.
    std::env::set_var("PI2_FLIGHT_OUT", format!("{OUT_DIR}/audit_flight.jsonl"));

    let ok = if args.selfcheck {
        selfcheck(&args)
    } else if let Some(name) = &args.workload {
        run_one(name, &args)
    } else {
        suite(&args).ok
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// One workload, one pass, in this process
// ---------------------------------------------------------------------------

/// Harness init and input generation: what a process does between its
/// start and its first repetition. `setup_s` times it before every
/// repetition of the untraced pass.
fn set_up(name: &str, args: &Args) -> (Timer, Box<dyn Workload>) {
    let timer = Timer::new();
    let workload = workloads::build(name, args.seed, args.quick).expect("name was checked");
    (timer, workload)
}

/// One line per repetition: what was measured and whether it counts.
fn print_turns(turns: &[Turn<Outcome>], cpus: usize) {
    for (i, t) in turns.iter().enumerate() {
        let r = &t.rep;
        println!(
            "  rep {i:>2}: set-up {:.3} ms, wall {:.4} s, kernel {:.3}/{:.3} ms, steal {:.1}% → {:.4} s {}",
            t.prepare_s * 1e3,
            r.wall_s,
            r.calib_before_s * 1e3,
            r.calib_after_s * 1e3,
            100.0 * r.steal_frac(cpus),
            r.rescale(r.wall_s),
            if r.is_clean(cpus) { "clean" } else { "dirty" },
        );
    }
}

fn run_one(name: &str, args: &Args) -> bool {
    let traced = args.trace.unwrap_or(false);
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let (mut timer, workload) = set_up(name, args);
    println!(
        "workload {name} seed {} pass {} seconds {seconds} cpus {} {}{}",
        args.seed,
        if traced { "traced" } else { "untraced" },
        timer.cpus,
        calib::VERSION,
        if args.quick { " quick" } else { "" },
    );

    let off = Tracer::new(false);
    let mut result = Report::default();
    // One untimed warm-up repetition: caches fill, the allocator maps its
    // arenas. In the traced pass it also runs the deep cross-checks.
    let warm = workload.run(&RepCtx {
        tracer: &off,
        parent: SpanId::ROOT,
        variant: 0,
        warmup: true,
        deep: traced,
    });
    result.absorb(&warm);

    if traced {
        traced_pass(
            name,
            args,
            seconds,
            &mut timer,
            workload.as_ref(),
            &warm,
            &mut result,
        );
    } else {
        // Every repetition starts from a set-up of its own, timed apart.
        let mut variant = 0;
        let turns = timer.repeat(
            seconds,
            || set_up(name, args).1,
            |fresh| {
                variant += 1;
                fresh.run(&RepCtx::timed(&off, SpanId::ROOT, variant))
            },
        );
        for t in &turns {
            result.absorb(&t.out);
        }
        print_turns(&turns, timer.cpus);
        let walls: Vec<(Rep, f64)> = turns.iter().map(|t| (t.rep, t.rep.wall_s)).collect();
        let setups: Vec<(Rep, f64)> = turns.iter().map(|t| (t.rep, t.prepare_s)).collect();
        let wall = estimate(&walls, timer.cpus);
        let setup = estimate(&setups, timer.cpus);
        let events = warm.events as f64;
        println!("wall_ref_s  {}", wall.render("s"));
        if events > 0.0 {
            println!(
                "            {:.1} ns/event over {events} events",
                wall.value * 1e9 / events
            );
        }
        println!("setup_s     {}", setup.render("s"));
        result.metrics.insert("wall_ref_s", wall.value);
        result.metrics.insert("setup_s", setup.value);
        match host::peak_rss_mb() {
            Some(mb) => {
                println!("peak_rss_mb {mb:.3} MB");
                result.metrics.insert("peak_rss_mb", mb);
            }
            None => result
                .failures
                .push("no VmHWM line in /proc/self/status".to_string()),
        }
    }

    println!("sim_digest {:016x}", result.digest());
    let (correct, line) = result.to_json(traced);
    println!(
        "ops_failed_frac {} ({} failed of {} attempted)",
        result.failures.len() as f64 / result.attempted.max(1) as f64,
        result.failures.len(),
        result.attempted
    );
    for f in &result.failures {
        println!("FAILED: {f}");
    }
    println!("{line}");
    correct
}

fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The traced pass: paired untraced/traced repetitions (the median of their
/// ratios is the tracing overhead), the self-time table, the trace file, the layer
/// drivers, and the per-workload counts from the deep warm-up.
fn traced_pass(
    name: &str,
    args: &Args,
    seconds: f64,
    timer: &mut Timer,
    workload: &dyn Workload,
    warm: &Outcome,
    result: &mut Report,
) {
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let (mut plain, mut spanned): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let mut shares = Vec::new();
    let mut allocs = Vec::new();
    let start = Instant::now();
    while plain.len() < 2 || start.elapsed().as_secs_f64() < TRACED_SHARE * seconds {
        // Both halves of a pair run the same variant of the inputs.
        let variant = plain.len() as u64 + 1;
        let ctx = RepCtx::timed(&off, SpanId::ROOT, variant);
        let (rep, o) = timer.time(|| workload.run(&ctx));
        result.absorb(&o);
        plain.push(rep);

        let before = alloc_count::stats();
        let (rep, o) = timer.time(|| {
            on.span("repetition", SpanId::ROOT, None, |id| {
                workload.run(&RepCtx::timed(&on, id, variant))
            })
        });
        allocs.push(alloc_count::stats().since(&before));
        result.absorb(&o);
        spanned.push(rep);
        let total: f64 = o.cell_s.iter().sum();
        shares.push(o.cell_s.iter().cloned().fold(0.0, f64::max) / total.max(1e-12));
    }

    let spans = on.take();
    let table = self_times(&spans);
    let rep_total = table.get("repetition").map_or(0, |r| r.total_ns).max(1);
    println!(
        "self time per layer call, {} traced repetitions:",
        spanned.len()
    );
    println!(
        "  {:<28} {:>7} {:>12} {:>12} {:>7}",
        "span", "count", "total ms", "self ms", "share"
    );
    for (span, row) in &table {
        println!(
            "  {span:<28} {:>7} {:>12.3} {:>12.3} {:>6.1}%",
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            100.0 * row.self_ns as f64 / rep_total as f64
        );
    }
    let unattributed = table.get("repetition").map_or(0, |r| r.self_ns);
    println!(
        "  named layer calls account for {:.1}% of the repetitions' wall",
        100.0 * (1.0 - unattributed as f64 / rep_total as f64)
    );
    let trace_path = format!("{OUT_DIR}/trace_{name}.json");
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&trace_path, span::chrome_trace(name, &spans)));
    match written {
        Ok(()) => println!("  {} spans written to {trace_path}", spans.len()),
        Err(e) => result
            .failures
            .push(format!("cannot write {trace_path}: {e}")),
    }

    let cpus = timer.cpus;
    // Pair by pair: the two halves ran the same inputs back to back, so
    // host drift and (for `grid_sweep`) the variant's cost cancel.
    let overheads: Vec<f64> = plain
        .iter()
        .zip(&spanned)
        .map(|(p, s)| s.rescale(s.wall_s) / p.rescale(p.wall_s))
        .collect();
    let all: Vec<Rep> = plain.iter().chain(&spanned).cloned().collect();
    let clean = all.iter().filter(|r| r.is_clean(cpus)).count();
    let wall_sum: f64 = all.iter().map(|r| r.wall_s).sum();
    let kpkts = (warm.pkts as f64 / 1e3).max(1e-9);
    let alloc_calls = median_by(&allocs, |a| a.allocs as f64);
    let alloc_bytes = median_by(&allocs, |a| a.bytes as f64);
    let mut exact = |name: &'static str, v: f64| {
        result.metrics.insert(name, v);
    };
    let wall_s = median_by(&plain, |r| r.wall_s);
    exact("harness.wall_s", wall_s);
    exact("harness.calib_s", median_by(&all, Rep::calib_s));
    exact("harness.reps_clean", clean as f64);
    exact("harness.reps_dirty", (all.len() - clean) as f64);
    exact(
        "harness.steal_frac",
        all.iter().map(|r| r.steal_s).sum::<f64>() / (wall_sum * cpus as f64),
    );
    exact("harness.alloc_calls_per_kpkt", alloc_calls / kpkts);
    exact("harness.alloc_mb", alloc_bytes / 1e6);
    exact("harness.trace_overhead", median(&overheads));
    // Counts of the workload itself, from the deep warm-up repetition.
    exact(
        "netsim.sim.events_per_pkt",
        warm.events as f64 / (warm.pkts as f64).max(1.0),
    );
    exact(
        "transport.tcp.retx_per_kpkt",
        1e3 * warm.drops as f64 / (warm.offered as f64).max(1.0),
    );
    // 1 by definition for a one-worker workload.
    let par_efficiency = warm.par_efficiency.unwrap_or(1.0);
    exact("experiments.runner.par_efficiency", par_efficiency);
    exact("experiments.runner.longest_cell_share", median(&shares));

    for (metric, m) in layers::run_all(timer, args.seed, args.quick) {
        result.metrics.insert(metric, m.value());
        if let Measured::Timed(e) = m {
            if !e.resolved() {
                println!(
                    "note: {metric} was measured on a disturbed host (clean {} of {})",
                    e.clean,
                    e.clean + e.dirty
                );
            }
        }
    }
    println!("per-layer metrics:");
    for d in &report::PER_LAYER {
        if let Some(v) = result.metrics.get(d.name) {
            println!("  {:<44} {v:>16.6} {}", d.name, d.unit);
        }
    }
}

// ---------------------------------------------------------------------------
// Every workload, each in its own process
// ---------------------------------------------------------------------------

/// What one child process reported.
struct ChildResult {
    correct: bool,
    failed: f64,
    digest: String,
    /// The `metrics` object of the child's result line, as printed.
    metrics: Json,
}

impl ChildResult {
    fn value(&self, metric: &str) -> f64 {
        let m = self.metrics.get(metric).and_then(|m| m.get("value"));
        m.and_then(Json::as_f64).unwrap_or(f64::NAN)
    }
}

/// Run `name` in a child process of this executable and parse its result
/// line. The child's own output is passed through.
fn spawn(name: &str, args: &Args, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        name,
        "--seed",
        &args.seed.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (body, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{body}");
    let doc = Json::parse(last)
        .map_err(|e| format!("{name}: no result line ({e}); exit {}", out.status))?;
    let Some(metrics) = doc.get("metrics").cloned() else {
        return Err(format!("{name}: result line has no metrics"));
    };
    Ok(ChildResult {
        correct: doc.get("correct") == Some(&Json::Bool(true)) && out.status.success(),
        failed: doc.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN),
        digest: body
            .lines()
            .rev()
            .find_map(|l| l.strip_prefix("sim_digest "))
            .unwrap_or("")
            .to_string(),
        metrics,
    })
}

/// One pass over every workload.
struct Suite {
    ok: bool,
    /// Per workload: its untraced result, if that pass ran.
    untraced: BTreeMap<&'static str, ChildResult>,
}

fn suite(args: &Args) -> Suite {
    let passes: &[bool] = match args.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let mut ok = true;
    let mut untraced = BTreeMap::new();
    let mut by_workload: Vec<(String, Json)> = Vec::new();
    for name in workloads::NAMES {
        let mut entry = Vec::new();
        for &traced in passes {
            match spawn(name, args, traced) {
                Err(why) => {
                    eprintln!("{why}");
                    ok = false;
                }
                Ok(child) => {
                    ok &= child.correct;
                    entry.push((
                        if traced { "per_layer" } else { "end_to_end" }.to_string(),
                        child.metrics.clone(),
                    ));
                    if !traced {
                        entry.push(("sim_digest".to_string(), Json::Str(child.digest.clone())));
                        entry.push(("failed".to_string(), Json::Num(child.failed)));
                        untraced.insert(name, child);
                    }
                }
            }
        }
        by_workload.push((name.to_string(), Json::Obj(entry)));
    }
    let doc = Json::Obj(vec![
        ("seed".to_string(), Json::Num(args.seed as f64)),
        (
            "calibration".to_string(),
            Json::Str(calib::VERSION.to_string()),
        ),
        ("calib_nominal_s".to_string(), Json::Num(calib::NOMINAL_S)),
        ("workloads".to_string(), Json::Obj(by_workload)),
    ]);
    let path = format!("{OUT_DIR}/results.json");
    match std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, doc.to_json() + "\n"))
    {
        Ok(()) => println!("results written to {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            ok = false;
        }
    }
    println!(
        "{}",
        if ok {
            "benchmark: every check passed"
        } else {
            "benchmark: FAILED"
        }
    );
    Suite { ok, untraced }
}

/// The acceptance test kept as a command: two untraced sets of the same
/// code must agree within the benchmark's own bounds.
fn selfcheck(args: &Args) -> bool {
    let args = Args {
        selfcheck: false,
        workload: None,
        seed: args.seed,
        seconds: args.seconds,
        trace: Some(false),
        quick: args.quick,
    };
    let (a, b) = (suite(&args), suite(&args));
    let mut ok = a.ok && b.ok;
    println!("selfcheck: set B against set A");
    for name in workloads::NAMES {
        let (Some(ra), Some(rb)) = (a.untraced.get(name), b.untraced.get(name)) else {
            println!("  {name}: a set is missing");
            ok = false;
            continue;
        };
        let mut verdict = |what: &str, good: bool, detail: String| {
            println!(
                "  {name:<13} {what:<12} {} {detail}",
                if good { "ok  " } else { "FAIL" }
            );
            ok &= good;
        };
        verdict(
            "sim_digest",
            ra.digest == rb.digest && !ra.digest.is_empty(),
            format!("{} / {}", ra.digest, rb.digest),
        );
        verdict(
            "failed",
            ra.failed == rb.failed,
            format!("{} / {}", ra.failed, rb.failed),
        );
        for d in &END_TO_END {
            let (va, vb) = (ra.value(d.name), rb.value(d.name));
            let worse = match d.better {
                Better::Lower => vb / va - 1.0,
                Better::Higher => va / vb - 1.0,
            };
            verdict(
                d.name,
                worse <= d.bound,
                format!(
                    "{va:.6} → {vb:.6} {} ({:+.1}%, bound {:.0}%)",
                    d.unit,
                    100.0 * worse,
                    100.0 * d.bound
                ),
            );
        }
    }
    println!(
        "{}",
        if ok {
            "selfcheck: passed"
        } else {
            "selfcheck: FAILED"
        }
    );
    ok
}
