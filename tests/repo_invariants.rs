//! Structure guards: things the source tree must not contain, checked by
//! reading it. Each row of [`RULES`] says what, where, which files are
//! exempt, and why; a new guard is a new row.

use std::fs;
use std::path::Path;

struct Rule {
    /// None of these may appear. One that starts with a letter matches
    /// only at the start of a word, so `Sim::new(` lets
    /// `FlowLevelSim::new(` pass.
    needles: &'static [&'static str],
    /// Files and directories searched, relative to the repository root.
    roots: &'static [&'static str],
    /// Files under `roots` where the needles may appear.
    allowed: &'static [&'static str],
    /// A file is searched up to the first line equal to this.
    up_to: Option<&'static str>,
    why: &'static str,
}

const RULES: &[Rule] = &[
    Rule {
        needles: &["Sim::new(", "Sim::with_qdisc("],
        roots: &["crates/experiments/src", "crates/bench/src", "examples"],
        allowed: &["crates/experiments/src/scenario.rs"],
        up_to: None,
        why: "Scenario::build is the only place a packet Sim is assembled: a hand-built one \
              is a second pipeline that misses weather, hybrid background, metrics, \
              pre-sizing and every observer (fill a Scenario instead; the facade doctest \
              in src/lib.rs is the one demonstration of the raw Sim API)",
    },
    Rule {
        needles: &[".sort", ".to_vec(", "select_nth"],
        roots: &["crates/stats/src/summary.rs"],
        allowed: &[],
        up_to: Some("#[cfg(test)]"),
        why: "summaries read the columns they are handed where they lie and select order \
              statistics by radix on histograms on the stack: no copy to permute, no \
              comparison selection, no sort; the sort survives only as the test oracle",
    },
    Rule {
        needles: &[
            "BENCH_pi2",
            "PI2_BENCH_OUT",
            "PI2_BENCH_HISTORY",
            "PI2_PERF_GATE",
            "PI2_PERF_TOL",
            "PI2_OVERHEAD_GATE",
            "PI2_OVERHEAD_TOL",
            "PI2_PROFILE",
        ],
        roots: &["crates", "scripts", "tests", "examples", "src"],
        allowed: &["tests/repo_invariants.rs"],
        up_to: None,
        why: "there is one perf instrument, benchmark/; the second one's history file is a \
              frozen record no code reads or writes, and its knobs are gone — as is the \
              environment's way to attach the profiler (--profile, Sim::enable_profiler)",
    },
    Rule {
        needles: &["SweepObserver", "install_observer", "SWEEP_OBSERVER"],
        roots: &["crates", "scripts", "tests", "examples", "src"],
        allowed: &["tests/repo_invariants.rs"],
        up_to: None,
        why: "an observer attaches to a Sim, never to the process: what a sweep shows while \
              it runs is pi2sim --serve on one of its cells (--scenario <family>/<cell>)",
    },
    Rule {
        needles: &[
            "cfg.sack",
            "recovery_inflation",
            "TuneMode",
            "idle_decay",
            "rtt_changes",
            "set_rtt_at",
            "SetPath",
            "record_flow_tput",
            "flow_tput_series",
            "flow_deq_",
            "equalize_slot_capacities",
        ],
        roots: &["crates", "tests", "examples", "src"],
        allowed: &["tests/repo_invariants.rs"],
        up_to: None,
        why: "an option only a test sets is a constant; state nobody reads is not kept \
              (SACK is the sender, PIE's tune table and idle decay are PIE, an RTT is \
              static, per-flow rates come from FlowAccount::dequeued_bytes_postwarm, the \
              wheel keeps its entries in one node slab, so no slot has a capacity to level)",
    },
    Rule {
        needles: &[
            "QueueStats",
            "head_size",
            "squared_signal",
            "l_dequeued_bytes",
            "c_dequeued_bytes",
            "struct Pi {",
            "struct Pi2 {",
            "struct CoupledPi2 {",
        ],
        roots: &["crates", "tests", "examples", "src"],
        allowed: &["tests/repo_invariants.rs"],
        up_to: None,
        why: ONE_LOOP,
    },
    Rule {
        needles: &["VecDeque<(Packet, Time)>"],
        roots: &["crates"],
        allowed: &["crates/netsim/src/queue.rs"],
        up_to: Some("#[cfg(test)]"),
        why: ONE_LOOP,
    },
    Rule {
        needles: &[
            "TUNE_TABLE",
            "pie_tune_factor",
            "max_classic_prob",
            "max_scalable_prob",
            "max_prob",
            "pp_cap",
            "tune_tables_agree_across_crates",
        ],
        roots: &["crates", "tests", "examples", "src"],
        allowed: &["crates/fluid/src/law.rs", "tests/repo_invariants.rs"],
        up_to: None,
        why: "one law: the output law, PI step and tune table live in pi2_fluid::law (the \
              Classic cap is its constant CLASSIC_CAP, not a field of any config)",
    },
    Rule {
        needles: &[
            "metrics_lint",
            "perfetto_lint",
            "ecn_drop_above",
            "PieConfig::linux_default",
            "chrome-json",
            "--trace <n>",
            "events_per_sec",
        ],
        roots: &["crates", "scripts", "tests", "examples", "src"],
        allowed: &["tests/repo_invariants.rs"],
        up_to: None,
        why: "a binary, flag, alias, config field or output nobody reads is not kept (the \
              lint binaries' judgments are tests of the library writers, validate_grid is a \
              pi2fig row, PIE's ECN rule has one value, DESIGN.md's surface table names \
              the reader of everything that stayed)",
    },
    Rule {
        needles: &[
            "write_opt",
            "read_opt",
            "write_seqset",
            "read_seqset",
            "write_rangeset",
            "read_rangeset",
            "write_packet",
            "read_packet",
            "write_ack",
            "read_ack",
            "merged_metrics",
        ],
        roots: &["crates", "tests", "examples", "src"],
        allowed: &["tests/repo_invariants.rs"],
        up_to: None,
        why: "one checkpoint codec: each encoding shape is a Ckpt impl in simcore::ckpt or \
              in the payload's own module, and a field-list layout is stated once through \
              ckpt_fields!; a fold of run registries no reader called is not kept",
    },
    Rule {
        needles: &[
            "RedConfig",
            "CodelConfig",
            "AqmKind::Red",
            "AqmKind::Codel",
            "suppress_when_light",
            "clamp_delta",
            "qdelay_high_rule",
            "l_ramp_min",
            "l_ramp_max",
            "\"--target\"",
        ],
        roots: &["crates", "tests", "examples", "src", "scripts"],
        allowed: &["tests/repo_invariants.rs"],
        up_to: None,
        why: "an AQM, flag or setting only docs read is not kept: RED and CoDel ran in no \
              figure, every --aqm row is built at the Table 1 defaults the figures use, \
              PIE's heuristics are one switch because its callers set them together, and \
              DualPI2's native ramp is derived from the link it is built for",
    },
    Rule {
        needles: &[
            "control_series",
            "record_control_variable",
            "total_tput_series",
            "tput_series",
            "sent_bytes",
            "delivered_bytes_postwarm",
            "with_beta",
            "BACKENDS",
            "run_all",
        ],
        roots: &["crates", "tests", "examples", "src"],
        allowed: &["tests/repo_invariants.rs"],
        up_to: None,
        why: "what is recorded has a reader and what is written once has one home: no \
              series, counter or per-sample word nothing reads, Reno's decrease factor is a \
              constant, --backend is pi2_experiments::Backend, and a batch of scenarios is \
              runner::par_map over Scenario::run",
    },
    Rule {
        needles: &["fn control_variable"],
        roots: &["crates", "tests", "examples", "src"],
        allowed: &[
            "crates/netsim/src/aqm.rs",
            "crates/netsim/src/queue.rs",
            "tests/repo_invariants.rs",
        ],
        up_to: None,
        why: "a controller is read through probe() alone: control_variable is the p' of \
              the probe, provided once by Aqm and once by Qdisc, and never restated",
    },
    Rule {
        needles: &["dequeued_pkts", "end_of_last_run", "trace verification skipped"],
        roots: &["crates", "tests", "examples", "src"],
        allowed: &["tests/repo_invariants.rs"],
        up_to: None,
        why: "one verdict ledger: whole-run per-flow marks, drops and departures are \
              TraceCounts' alone, the monitor's span ends at its last sample, and pi2sim \
              checks every JSONL trace against the counting sink attached with it",
    },
    Rule {
        needles: &["fast_convergence", "acked_acc", "realized_fraction", "format_csv"],
        roots: &["crates", "tests", "examples", "src"],
        allowed: &["tests/repo_invariants.rs"],
        up_to: None,
        why: "run state is what a later step reads and an API has a caller: Cubic's fast \
              convergence is its one code path, DCTCP counts no ACKs it never reads, the \
              step marker keeps no counters, and tables print as text only",
    },
    Rule {
        needles: &[
            "FlowLevelState",
            "restore_state",
            "instrument_counts",
            "counter_at",
            "set_counter_at",
            "gauge_at",
            "set_gauge_at",
            "hist_at",
            "bucket_counts",
            "raw_moments",
            "restore_raw",
            "HIST_BUCKETS",
        ],
        roots: &["crates", "tests", "examples", "src"],
        allowed: &["tests/repo_invariants.rs"],
        up_to: None,
        why: LAYOUT_BESIDE_DATA,
    },
    Rule {
        needles: &["fn state(", "fn config(", "fn render("],
        roots: &["crates/fluid/src/flow.rs", "crates/netsim/src/trace.rs"],
        allowed: &[],
        up_to: None,
        why: LAYOUT_BESIDE_DATA,
    },
    Rule {
        needles: &["knobs.seed", "knobs.secs"],
        roots: &["crates/bench/src/figures"],
        allowed: &["crates/bench/src/figures/mod.rs"],
        up_to: None,
        why: "one reader of the knobs: a figure takes its length and seed from \
              Figure::secs and Figure::seed, which fall back to the row's one default, so \
              no renderer keeps a second default of its own",
    },
];

/// Shared by the two rows that keep each checkpoint layout with its data.
const LAYOUT_BESIDE_DATA: &str = "a layout lives beside its data: the registry, its \
                                  histograms and the flow-level engine are Ckpt impls in \
                                  their own crates, so no mirror struct or index accessor \
                                  exports their state for another crate to write, and a \
                                  trace has two text forms, JSONL and CSV";

/// Shared by the two rows that keep the PI loop and the qdiscs' parts single.
const ONE_LOOP: &str = "one PI loop, one FIFO; a counter nobody reads is not kept (Pi, Pi2 and \
                        CoupledPi2 are PiAqm under an OutputLaw, every qdisc queues through \
                        queue::Fifo and sends over queue::Link, Qdisc::start_tx commits to \
                        the packet the link sends)";

/// Whether `line` holds `needle`, under the word-start rule.
fn holds(line: &str, needle: &str) -> bool {
    let word = needle.starts_with(|c: char| c.is_alphanumeric());
    line.match_indices(needle).any(|(at, _)| {
        let before = line[..at].chars().next_back();
        !(word && before.is_some_and(|c| c.is_alphanumeric() || c == '_'))
    })
}

/// Every regular file at or under `path`, as paths relative to `root`.
fn files_under(root: &Path, path: &str, out: &mut Vec<String>) {
    let full = root.join(path);
    if full.is_dir() {
        let mut names: Vec<String> = fs::read_dir(&full)
            .unwrap_or_else(|e| panic!("{path}: {e}"))
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        for name in names {
            files_under(root, &format!("{path}/{name}"), out);
        }
    } else {
        assert!(full.is_file(), "{path}: a rule names a path that is not there");
        out.push(path.to_string());
    }
}

#[test]
fn the_tree_holds_none_of_what_the_rules_forbid() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut report = String::new();
    for rule in RULES {
        let mut files = Vec::new();
        for path in rule.roots {
            files_under(root, path, &mut files);
        }
        let mut hits = Vec::new();
        for file in files.iter().filter(|f| !rule.allowed.contains(&f.as_str())) {
            let bytes = fs::read(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
            let text = String::from_utf8_lossy(&bytes);
            let searched = text.lines().take_while(|l| Some(*l) != rule.up_to);
            for (n, line) in searched.enumerate() {
                if rule.needles.iter().any(|needle| holds(line, needle)) {
                    hits.push(format!("  {file}:{}: {}\n", n + 1, line.trim()));
                }
            }
        }
        if !hits.is_empty() {
            report += &format!("\n{}:\n{}", rule.why, hits.concat());
        }
    }
    assert!(report.is_empty(), "{report}");
}

#[test]
fn a_needle_that_starts_a_word_matches_only_there() {
    assert!(holds("let sim = Sim::new(cfg);", "Sim::new("));
    assert!(!holds("FlowLevelSim::new(cfg)", "Sim::new("));
    assert!(holds("FlowLevelSim::new(a); Sim::new(b)", "Sim::new("));
    assert!(holds("xs.sort_by(f64::total_cmp)", ".sort"));
    assert!(holds("env::var(\"PI2_PERF_TOL\")", "PI2_PERF_TOL"));
    assert!(!holds("AqmKind::Curvy(CurvyRedConfig::default())", "RedConfig"));
}
