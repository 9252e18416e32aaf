//! Argument parsing for the `pi2sim` command-line runner.
//!
//! Hand-rolled (the workspace has no runtime dependencies) but complete:
//! units for rates (`10M`, `2.5G`, `400k`) and times (`20ms`, `1s`,
//! `500us`), flow-list syntax (`5xreno,1xdctcp,2xecn-cubic`), and helpful
//! errors.

use pi2_aqm::{
    CodelConfig, CoupledPi2Config, CurvyRedConfig, DualPi2Config, FqConfig, Pi2Config, PiConfig,
    PieConfig, RedConfig,
};
use pi2_experiments::AqmKind;
use pi2_simcore::Duration;
use pi2_transport::{CcKind, EcnSetting};

/// A parsed flow group request.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowSpec {
    /// Number of flows.
    pub count: usize,
    /// Congestion control.
    pub cc: CcKind,
    /// ECN mode.
    pub ecn: EcnSetting,
    /// Label for reporting.
    pub label: String,
}

/// The parsed command line.
#[derive(Clone, Debug)]
pub struct CliArgs {
    /// AQM name (validated against the known set).
    pub aqm: String,
    /// Bottleneck rate in bits/s.
    pub rate_bps: u64,
    /// Base RTT.
    pub rtt: Duration,
    /// Flow groups.
    pub flows: Vec<FlowSpec>,
    /// Optional UDP load in bits/s.
    pub udp_bps: Option<u64>,
    /// Run length in seconds.
    pub secs: u64,
    /// Warm-up excluded from aggregates, seconds.
    pub warmup_secs: u64,
    /// RNG seed.
    pub seed: u64,
    /// AQM delay target.
    pub target: Duration,
    /// Emit the queue-delay time series as CSV on stdout.
    pub csv: bool,
    /// Attach the runtime invariant auditor ([`pi2_netsim::AuditSink`])
    /// regardless of build profile (debug builds attach it by default;
    /// see the `PI2_AUDIT` env knob).
    pub audit: bool,
    /// Print the first N per-packet trace events.
    pub trace: usize,
    /// Stream the full event trace to this file.
    pub trace_out: Option<String>,
    /// On-disk trace format for `--trace-out`.
    pub trace_format: TraceFormat,
    /// Write a metrics-registry snapshot to this file at end of run.
    pub metrics_out: Option<String>,
    /// On-disk snapshot format for `--metrics-out`.
    pub metrics_format: MetricsFormat,
    /// Attach the event-loop self-profiler and print the per-class
    /// breakdown.
    pub profile: bool,
    /// Named scenario family to run instead of a single dumbbell run:
    /// `dynamics` (step-response disturbances for PIE vs PI2 vs DualPI2)
    /// or `topology` (multi-hop parking-lot / access-core layouts under
    /// heavy-tailed mice cross-traffic).
    pub scenario: Option<String>,
    /// Path impairment: per-packet random loss probability, applied
    /// symmetrically to both directions. 0 (the default) is exact
    /// identity — no impairment layer is attached at all.
    pub loss: f64,
    /// Path impairment: duplication probability for surviving packets.
    pub dup: f64,
    /// Path impairment: maximum reordering jitter (uniform extra delay
    /// in `[0, jitter]` per surviving packet).
    pub jitter: Duration,
    /// Write a checkpoint of the full simulator state to this file.
    pub checkpoint_out: Option<String>,
    /// Simulation time at which the checkpoint is taken (default: end of
    /// run). Only meaningful with `--checkpoint-out`.
    pub checkpoint_at: Option<Duration>,
    /// Restore simulator state from this checkpoint before running. The
    /// scenario arguments (AQM, rate, flows, seed, ...) must match the
    /// run that produced the checkpoint.
    pub restore: Option<String>,
    /// Serve live metrics/progress over HTTP from this address (e.g.
    /// `127.0.0.1:9100`; port 0 picks an ephemeral port, printed to
    /// stderr). `GET /cancel` stops the run gracefully: single runs
    /// checkpoint for `--restore`, sweeps stop at the next cell boundary.
    pub serve: Option<String>,
    /// Execution backend: `packet` (default, per-packet events), `fluid`
    /// (flow-level ODE, no packets — scales to millions of flows), or
    /// `hybrid` (packet foreground + fluid background aggregate).
    pub backend: String,
    /// Hybrid mode's fluid background population, in the same flow-list
    /// syntax as `--flows`. Empty = no background (hybrid ≡ packet).
    pub bg_flows: Vec<FlowSpec>,
}

/// On-disk format for `--trace-out`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line (the default).
    Jsonl,
    /// Flat CSV with a header row.
    Csv,
    /// Chrome trace-event JSON — open directly in the Perfetto UI.
    Perfetto,
}

/// On-disk format for `--metrics-out`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricsFormat {
    /// A single JSON document (the default).
    Json,
    /// Prometheus text exposition format (version 0.0.4).
    Prom,
}

/// A `--aqm` name and the configuration `--target` and `--rate` give it.
pub type AqmRow = (&'static str, fn(&CliArgs) -> AqmKind);

/// The `--aqm` table: every name `pi2sim` accepts.
pub const AQMS: &[AqmRow] = &[
    ("pi2", |a| AqmKind::Pi2(Pi2Config { target: a.target, ..Pi2Config::default() })),
    ("pie", |a| AqmKind::Pie(PieConfig { target: a.target, ..PieConfig::paper_default() })),
    ("bare-pie", |a| AqmKind::Pie(PieConfig { target: a.target, ..PieConfig::bare() })),
    ("pi", |a| AqmKind::Pi(PiConfig { target: a.target, ..PiConfig::untuned_pie_gains() })),
    ("coupled", |a| {
        AqmKind::Coupled(CoupledPi2Config { target: a.target, ..CoupledPi2Config::default() })
    }),
    ("red", |a| AqmKind::Red(RedConfig::for_link(a.rate_bps, a.target / 2, a.target * 3))),
    ("codel", |a| AqmKind::Codel(CodelConfig { target: a.target / 4, ..CodelConfig::default() })),
    ("curvy", |a| {
        AqmKind::Curvy(CurvyRedConfig { range: a.target * 3, ..CurvyRedConfig::default() })
    }),
    ("taildrop", |_| AqmKind::TailDrop),
    ("dualq", |a| {
        AqmKind::DualQ(DualPi2Config { target: a.target, ..DualPi2Config::for_link(a.rate_bps) })
    }),
    ("fq", |a| AqmKind::Fq(FqConfig::for_link(a.rate_bps))),
];

/// The `--aqm` names, in table order.
fn aqm_names() -> Vec<&'static str> {
    AQMS.iter().map(|(name, _)| *name).collect()
}

impl CliArgs {
    /// The AQM `--aqm`, `--target` and `--rate` describe.
    ///
    /// # Panics
    /// If `aqm` was set by hand to a name [`AQMS`] does not list
    /// ([`parse_args`] refuses those).
    pub fn aqm_kind(&self) -> AqmKind {
        let row = AQMS.iter().find(|(name, _)| *name == self.aqm);
        row.unwrap_or_else(|| panic!("no --aqm named '{}'", self.aqm)).1(self)
    }
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            aqm: "pi2".to_string(),
            rate_bps: 10_000_000,
            rtt: Duration::from_millis(100),
            flows: vec![FlowSpec {
                count: 5,
                cc: CcKind::Reno,
                ecn: EcnSetting::NotEcn,
                label: "reno".to_string(),
            }],
            udp_bps: None,
            secs: 60,
            warmup_secs: 10,
            seed: 1,
            target: Duration::from_millis(20),
            csv: false,
            audit: false,
            trace: 0,
            trace_out: None,
            trace_format: TraceFormat::Jsonl,
            metrics_out: None,
            metrics_format: MetricsFormat::Json,
            profile: false,
            scenario: None,
            loss: 0.0,
            dup: 0.0,
            jitter: Duration::ZERO,
            checkpoint_out: None,
            checkpoint_at: None,
            restore: None,
            serve: None,
            backend: "packet".to_string(),
            bg_flows: Vec::new(),
        }
    }
}

impl CliArgs {
    /// True when any impairment knob is set (a weather layer must be
    /// attached).
    pub fn impaired(&self) -> bool {
        self.loss > 0.0 || self.dup > 0.0 || self.jitter > Duration::ZERO
    }
}

/// The scenario families `--scenario` accepts.
pub const SCENARIOS: &[&str] = &["dynamics", "topology"];

/// The execution backends `--backend` accepts.
pub const BACKENDS: &[&str] = &["packet", "fluid", "hybrid"];

/// Parse a probability in `[0, 1]`, accepting a trailing `%`.
pub fn parse_prob(s: &str) -> Result<f64, String> {
    let s = s.trim();
    let (num, scale) = match s.strip_suffix('%') {
        Some(n) => (n, 0.01),
        None => (s, 1.0),
    };
    let v: f64 = num
        .parse()
        .map_err(|_| format!("bad probability '{s}' (try 0.01 or 1%)"))?;
    let p = v * scale;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability '{s}' must be within [0, 1]"));
    }
    Ok(p)
}

/// Parse a rate like `10M`, `2.5G`, `400k`, `9000`.
pub fn parse_rate(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (num, mult) = match s.chars().last() {
        Some('k') | Some('K') => (&s[..s.len() - 1], 1e3),
        Some('m') | Some('M') => (&s[..s.len() - 1], 1e6),
        Some('g') | Some('G') => (&s[..s.len() - 1], 1e9),
        _ => (s, 1.0),
    };
    let v: f64 = num
        .parse()
        .map_err(|_| format!("bad rate '{s}' (try 10M, 400k, 2.5G)"))?;
    if v <= 0.0 {
        return Err(format!("rate must be positive, got '{s}'"));
    }
    Ok((v * mult) as u64)
}

/// Parse a time like `20ms`, `1s`, `500us`.
pub fn parse_time(s: &str) -> Result<Duration, String> {
    let s = s.trim();
    let (num, scale) = if let Some(n) = s.strip_suffix("ms") {
        (n, 1e-3)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1e-6)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1.0)
    } else {
        (s, 1e-3) // bare number: milliseconds
    };
    let v: f64 = num
        .parse()
        .map_err(|_| format!("bad time '{s}' (try 20ms, 1s, 500us)"))?;
    if v < 0.0 {
        return Err(format!("time must be non-negative, got '{s}'"));
    }
    Ok(Duration::from_secs_f64(v * scale))
}

/// Parse a flow list like `5xreno,1xdctcp,2xecn-cubic`.
pub fn parse_flows(s: &str) -> Result<Vec<FlowSpec>, String> {
    let mut out = Vec::new();
    for part in s.split(',').filter(|p| !p.is_empty()) {
        let (count, name) = match part.split_once('x') {
            Some((c, n)) => (
                c.parse::<usize>()
                    .map_err(|_| format!("bad flow count in '{part}'"))?,
                n,
            ),
            None => (1, part),
        };
        let (cc, ecn) = match name {
            "reno" => (CcKind::Reno, EcnSetting::NotEcn),
            "cubic" => (CcKind::Cubic, EcnSetting::NotEcn),
            "ecn-reno" => (CcKind::Reno, EcnSetting::Classic),
            "ecn-cubic" => (CcKind::Cubic, EcnSetting::Classic),
            "dctcp" => (CcKind::Dctcp, EcnSetting::Scalable),
            "scalable" => (CcKind::ScalableHalfPkt, EcnSetting::Scalable),
            "relentless" => (CcKind::Relentless, EcnSetting::Scalable),
            "stcp" => (CcKind::ScalableTcp, EcnSetting::Scalable),
            other => {
                return Err(format!(
                    "unknown congestion control '{other}' (reno, cubic, \
                     ecn-reno, ecn-cubic, dctcp, scalable, relentless, stcp)"
                ))
            }
        };
        out.push(FlowSpec {
            count,
            cc,
            ecn,
            label: name.to_string(),
        });
    }
    if out.is_empty() {
        return Err("no flows specified".to_string());
    }
    Ok(out)
}

/// Parse the full argument vector (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    let mut out = CliArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--aqm" => {
                let v = value("--aqm")?;
                if !aqm_names().contains(&v.as_str()) {
                    return Err(format!("unknown AQM '{v}' (one of {})", aqm_names().join(", ")));
                }
                out.aqm = v.clone();
            }
            "--rate" => out.rate_bps = parse_rate(value("--rate")?)?,
            "--rtt" => out.rtt = parse_time(value("--rtt")?)?,
            "--flows" => out.flows = parse_flows(value("--flows")?)?,
            "--udp" => out.udp_bps = Some(parse_rate(value("--udp")?)?),
            "--secs" => {
                out.secs = value("--secs")?
                    .parse()
                    .map_err(|_| "bad --secs".to_string())?
            }
            "--warmup" => {
                out.warmup_secs = value("--warmup")?
                    .parse()
                    .map_err(|_| "bad --warmup".to_string())?
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?
            }
            "--target" => out.target = parse_time(value("--target")?)?,
            "--csv" => out.csv = true,
            "--audit" => out.audit = true,
            "--trace" => {
                out.trace = value("--trace")?
                    .parse()
                    .map_err(|_| "bad --trace".to_string())?
            }
            "--trace-out" => out.trace_out = Some(value("--trace-out")?.clone()),
            "--trace-format" => {
                out.trace_format = match value("--trace-format")?.as_str() {
                    "jsonl" => TraceFormat::Jsonl,
                    "csv" => TraceFormat::Csv,
                    "perfetto" | "chrome-json" => TraceFormat::Perfetto,
                    other => {
                        return Err(format!(
                            "bad --trace-format '{other}' (jsonl, csv or perfetto)"
                        ))
                    }
                }
            }
            "--metrics-out" => out.metrics_out = Some(value("--metrics-out")?.clone()),
            "--metrics-format" => {
                out.metrics_format = match value("--metrics-format")?.as_str() {
                    "json" => MetricsFormat::Json,
                    "prom" | "prometheus" => MetricsFormat::Prom,
                    other => {
                        return Err(format!("bad --metrics-format '{other}' (json or prom)"))
                    }
                }
            }
            "--profile" => out.profile = true,
            "--scenario" => {
                let v = value("--scenario")?;
                if !SCENARIOS.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown scenario '{v}' (one of {})",
                        SCENARIOS.join(", ")
                    ));
                }
                out.scenario = Some(v.clone());
            }
            "--loss" => out.loss = parse_prob(value("--loss")?)?,
            "--dup" => out.dup = parse_prob(value("--dup")?)?,
            "--jitter" => out.jitter = parse_time(value("--jitter")?)?,
            "--checkpoint-out" => out.checkpoint_out = Some(value("--checkpoint-out")?.clone()),
            "--checkpoint-at" => out.checkpoint_at = Some(parse_time(value("--checkpoint-at")?)?),
            "--restore" => out.restore = Some(value("--restore")?.clone()),
            "--serve" => out.serve = Some(value("--serve")?.clone()),
            "--backend" => {
                let v = value("--backend")?;
                if !BACKENDS.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown backend '{v}' (one of {})",
                        BACKENDS.join(", ")
                    ));
                }
                out.backend = v.clone();
            }
            "--bg-flows" => out.bg_flows = parse_flows(value("--bg-flows")?)?,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if out.warmup_secs >= out.secs {
        return Err("--warmup must be smaller than --secs".to_string());
    }
    if out.checkpoint_at.is_some() && out.checkpoint_out.is_none() {
        return Err("--checkpoint-at needs --checkpoint-out".to_string());
    }
    if !out.bg_flows.is_empty() && out.backend != "hybrid" {
        return Err("--bg-flows needs --backend hybrid".to_string());
    }
    if out.backend != "packet" && out.scenario.is_some() {
        return Err("--scenario only runs on the packet backend".to_string());
    }
    // A flag a mode has no implementation for is an error, not a silent
    // no-op: the families run their cells through the sweep runner, the
    // fluid engine has no packets to observe. Rows: flag, given, and
    // whether the selected mode lacks it.
    let family = out.scenario.as_deref();
    let fluid = out.backend == "fluid";
    let not_a_single_run = family.is_some() || fluid;
    let unsupported = [
        ("--metrics-out", out.metrics_out.is_some(), not_a_single_run),
        ("--profile", out.profile, not_a_single_run),
        ("--checkpoint-out", out.checkpoint_out.is_some(), not_a_single_run),
        ("--restore", out.restore.is_some(), not_a_single_run),
        ("--trace", out.trace > 0, not_a_single_run),
        ("--audit", out.audit, family == Some("dynamics") || fluid),
        ("--loss/--dup/--jitter", out.impaired(), family == Some("topology") || fluid),
        ("--trace-format csv", out.trace_format == TraceFormat::Csv, family.is_some()),
        ("--trace-out", out.trace_out.is_some(), fluid),
        ("--serve", out.serve.is_some(), fluid),
    ];
    if let Some((flag, ..)) = unsupported.iter().find(|(_, given, lacks)| *given && *lacks) {
        let mode = family.map_or("--backend fluid".to_string(), |f| format!("--scenario {f}"));
        return Err(format!("{mode} does not support {flag}"));
    }
    Ok(out)
}

/// The usage string.
pub fn usage() -> String {
    format!(
        "pi2sim — run a dumbbell scenario against an AQM\n\
         \n\
         options:\n\
         \x20 --aqm <name>      one of {} (default pi2)\n\
         \x20 --rate <bps>      bottleneck rate, e.g. 10M, 400k, 1G (default 10M)\n\
         \x20 --rtt <time>      base RTT, e.g. 100ms (default 100ms)\n\
         \x20 --flows <list>    e.g. 5xreno or 1xcubic,1xdctcp (default 5xreno)\n\
         \x20 --udp <bps>       add one CBR source at this rate\n\
         \x20 --secs <n>        run length (default 60)\n\
         \x20 --warmup <n>      warm-up excluded from stats (default 10)\n\
         \x20 --seed <n>        RNG seed (default 1)\n\
         \x20 --target <time>   AQM delay target (default 20ms)\n\
         \x20 --csv             also print the (t, queue delay ms) series as CSV\n\
         \x20 --audit           attach the invariant auditor (always on in debug\n\
         \x20                   builds; env PI2_AUDIT=1/0 overrides either way)\n\
         \x20 --trace <n>       print the first n per-packet bottleneck events\n\
         \x20 --trace-out <p>   stream every event + AQM state probe to this file\n\
         \x20 --trace-format <f> jsonl (default), csv, or perfetto (Chrome\n\
         \x20                   trace-event JSON for ui.perfetto.dev), for --trace-out\n\
         \x20 --metrics-out <p> write the end-of-run metrics snapshot (counters +\n\
         \x20                   histogram quantiles) to this file\n\
         \x20 --metrics-format <f> json (default) or prom, for --metrics-out\n\
         \x20 --profile         time the event loop per event class and print the\n\
         \x20                   breakdown\n\
         \x20 --scenario <name> run a scenario family instead ({}):\n\
         \x20                   dynamics = rate-step + flow-churn disturbances\n\
         \x20                   for PIE vs PI2 vs DualPI2, with spike/settle table\n\
         \x20 --loss <p>        network weather: random loss probability (0.01 or 1%)\n\
         \x20 --dup <p>         network weather: duplication probability\n\
         \x20 --jitter <time>   network weather: max reordering jitter, e.g. 5ms\n\
         \x20 --checkpoint-out <p> write a full simulator checkpoint to this file\n\
         \x20 --checkpoint-at <time> when to snapshot (default: end of run)\n\
         \x20 --restore <p>     resume from a checkpoint; pass the same scenario\n\
         \x20                   arguments as the run that produced it\n\
         \x20 --serve <addr>    serve /metrics, /progress, /healthz and /cancel over\n\
         \x20                   HTTP while running (e.g. 127.0.0.1:9100; port 0 =\n\
         \x20                   ephemeral, printed to stderr)\n\
         \x20 --backend <b>     execution backend: packet (default), fluid (flow-\n\
         \x20                   level ODE, no packets — handles millions of flows),\n\
         \x20                   or hybrid (packet foreground + fluid background)\n\
         \x20 --bg-flows <list> hybrid only: fluid background population in --flows\n\
         \x20                   syntax, e.g. 1000xreno or 50000xreno,50000xdctcp",
        aqm_names().join("|"),
        SCENARIOS.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn rates_parse_with_units() {
        assert_eq!(parse_rate("10M").unwrap(), 10_000_000);
        assert_eq!(parse_rate("400k").unwrap(), 400_000);
        assert_eq!(parse_rate("2.5G").unwrap(), 2_500_000_000);
        assert_eq!(parse_rate("9000").unwrap(), 9000);
        assert!(parse_rate("fast").is_err());
        assert!(parse_rate("-3M").is_err());
    }

    #[test]
    fn times_parse_with_units() {
        assert_eq!(parse_time("20ms").unwrap(), Duration::from_millis(20));
        assert_eq!(parse_time("1s").unwrap(), Duration::from_secs(1));
        assert_eq!(parse_time("500us").unwrap(), Duration::from_micros(500));
        assert_eq!(parse_time("15").unwrap(), Duration::from_millis(15));
        assert!(parse_time("soon").is_err());
    }

    #[test]
    fn flow_lists_parse() {
        let f = parse_flows("5xreno,1xdctcp").unwrap();
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].count, 5);
        assert_eq!(f[0].cc, CcKind::Reno);
        assert_eq!(f[1].count, 1);
        assert_eq!(f[1].ecn, EcnSetting::Scalable);
        // Bare name means one flow.
        let f = parse_flows("cubic").unwrap();
        assert_eq!(f[0].count, 1);
        assert!(parse_flows("3xwarpspeed").is_err());
        assert!(parse_flows("").is_err());
    }

    #[test]
    fn full_command_line_parses() {
        let a = parse_args(&args(
            "--aqm coupled --rate 40M --rtt 10ms --flows 1xcubic,1xdctcp --secs 30 --seed 7 --trace 50",
        ))
        .unwrap();
        assert_eq!(a.trace, 50);
        assert_eq!(a.aqm, "coupled");
        assert_eq!(a.rate_bps, 40_000_000);
        assert_eq!(a.rtt, Duration::from_millis(10));
        assert_eq!(a.flows.len(), 2);
        assert_eq!(a.secs, 30);
        assert_eq!(a.seed, 7);
        assert_eq!(a.trace_out, None);
        assert_eq!(a.trace_format, TraceFormat::Jsonl);
    }

    #[test]
    fn trace_out_and_format_parse() {
        let a = parse_args(&args("--trace-out /tmp/t.csv --trace-format csv")).unwrap();
        assert_eq!(a.trace_out.as_deref(), Some("/tmp/t.csv"));
        assert_eq!(a.trace_format, TraceFormat::Csv);
        let p = parse_args(&args("--trace-out /tmp/t.json --trace-format perfetto")).unwrap();
        assert_eq!(p.trace_format, TraceFormat::Perfetto);
        let alias = parse_args(&args("--trace-format chrome-json")).unwrap();
        assert_eq!(alias.trace_format, TraceFormat::Perfetto);
        let e = parse_args(&args("--trace-format xml")).unwrap_err();
        assert!(e.contains("jsonl, csv or perfetto"));
    }

    #[test]
    fn serve_flag_parses() {
        let a = parse_args(&args("--serve 127.0.0.1:0")).unwrap();
        assert_eq!(a.serve.as_deref(), Some("127.0.0.1:0"));
        let d = parse_args(&[]).unwrap();
        assert_eq!(d.serve, None, "serving must be opt-in");
        assert!(parse_args(&args("--serve")).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn metrics_and_profile_flags_parse() {
        let a = parse_args(&args("--metrics-out /tmp/m.prom --metrics-format prom --profile"))
            .unwrap();
        assert_eq!(a.metrics_out.as_deref(), Some("/tmp/m.prom"));
        assert_eq!(a.metrics_format, MetricsFormat::Prom);
        assert!(a.profile);
        let d = parse_args(&args("--metrics-out /tmp/m.json")).unwrap();
        assert_eq!(d.metrics_format, MetricsFormat::Json, "json is the default");
        assert!(!d.profile);
        let e = parse_args(&args("--metrics-format yaml")).unwrap_err();
        assert!(e.contains("json or prom"));
    }

    #[test]
    fn bad_aqm_is_rejected_with_the_list() {
        let e = parse_args(&args("--aqm wred")).unwrap_err();
        assert!(e.contains("unknown AQM"));
        assert!(e.contains("pi2"));
    }

    #[test]
    fn warmup_must_be_shorter_than_run() {
        assert!(parse_args(&args("--secs 10 --warmup 20")).is_err());
    }

    #[test]
    fn defaults_are_sane() {
        let a = parse_args(&[]).unwrap();
        assert_eq!(a.aqm, "pi2");
        assert_eq!(a.rate_bps, 10_000_000);
        assert!(!a.csv);
        assert!(!a.audit);
    }

    #[test]
    fn audit_flag_parses() {
        let a = parse_args(&args("--audit")).unwrap();
        assert!(a.audit);
    }

    #[test]
    fn probabilities_parse_with_percent() {
        assert_eq!(parse_prob("0.01").unwrap(), 0.01);
        assert_eq!(parse_prob("1%").unwrap(), 0.01);
        assert_eq!(parse_prob("0").unwrap(), 0.0);
        assert_eq!(parse_prob("100%").unwrap(), 1.0);
        assert!(parse_prob("1.5").is_err());
        assert!(parse_prob("-0.1").is_err());
        assert!(parse_prob("often").is_err());
    }

    #[test]
    fn weather_knobs_parse_and_default_off() {
        let d = parse_args(&[]).unwrap();
        assert!(!d.impaired(), "weather must default off");
        let a = parse_args(&args("--loss 1% --dup 0.005 --jitter 5ms")).unwrap();
        assert!(a.impaired());
        assert_eq!(a.loss, 0.01);
        assert_eq!(a.dup, 0.005);
        assert_eq!(a.jitter, Duration::from_millis(5));
    }

    #[test]
    fn checkpoint_flags_parse() {
        let a = parse_args(&args(
            "--checkpoint-out /tmp/c.ckpt --checkpoint-at 30s --restore /tmp/old.ckpt",
        ))
        .unwrap();
        assert_eq!(a.checkpoint_out.as_deref(), Some("/tmp/c.ckpt"));
        assert_eq!(a.checkpoint_at, Some(Duration::from_secs(30)));
        assert_eq!(a.restore.as_deref(), Some("/tmp/old.ckpt"));
        let d = parse_args(&[]).unwrap();
        assert_eq!(d.checkpoint_out, None);
        assert_eq!(d.restore, None);
        let e = parse_args(&args("--checkpoint-at 10s")).unwrap_err();
        assert!(e.contains("--checkpoint-out"));
    }

    #[test]
    fn backend_flag_parses_and_validates() {
        let d = parse_args(&[]).unwrap();
        assert_eq!(d.backend, "packet", "packet is the default backend");
        assert!(d.bg_flows.is_empty());
        let f = parse_args(&args("--backend fluid --flows 100000xreno")).unwrap();
        assert_eq!(f.backend, "fluid");
        let h = parse_args(&args("--backend hybrid --bg-flows 1000xreno,200xdctcp")).unwrap();
        assert_eq!(h.backend, "hybrid");
        assert_eq!(h.bg_flows.len(), 2);
        assert_eq!(h.bg_flows[0].count, 1000);
        assert_eq!(h.bg_flows[1].cc, CcKind::Dctcp);
        let e = parse_args(&args("--backend quantum")).unwrap_err();
        assert!(e.contains("unknown backend"));
        let e = parse_args(&args("--bg-flows 10xreno")).unwrap_err();
        assert!(e.contains("--backend hybrid"));
        let e = parse_args(&args("--backend fluid --scenario dynamics")).unwrap_err();
        assert!(e.contains("packet backend"));
    }

    /// One test per flag × mode pair `parse_args` rejects; each error
    /// must name the mode and the flag.
    macro_rules! rejected {
        ($($name:ident: $line:expr => $mode:expr, $flag:expr;)*) => {$(
            #[test]
            fn $name() {
                let e = parse_args(&args($line)).unwrap_err();
                assert_eq!(e, format!("{} does not support {}", $mode, $flag));
            }
        )*};
    }

    rejected! {
        dynamics_rejects_metrics_out: "--scenario dynamics --metrics-out m.json" => "--scenario dynamics", "--metrics-out";
        dynamics_rejects_profile: "--scenario dynamics --profile" => "--scenario dynamics", "--profile";
        dynamics_rejects_checkpoint_out: "--scenario dynamics --checkpoint-out c.ckpt --checkpoint-at 3s" => "--scenario dynamics", "--checkpoint-out";
        dynamics_rejects_restore: "--scenario dynamics --restore c.ckpt" => "--scenario dynamics", "--restore";
        dynamics_rejects_trace: "--scenario dynamics --trace 20" => "--scenario dynamics", "--trace";
        dynamics_rejects_audit: "--scenario dynamics --audit" => "--scenario dynamics", "--audit";
        topology_rejects_metrics_out: "--scenario topology --metrics-out m.json" => "--scenario topology", "--metrics-out";
        topology_rejects_profile: "--scenario topology --profile" => "--scenario topology", "--profile";
        topology_rejects_checkpoint_out: "--scenario topology --checkpoint-out c.ckpt" => "--scenario topology", "--checkpoint-out";
        topology_rejects_restore: "--scenario topology --restore c.ckpt" => "--scenario topology", "--restore";
        topology_rejects_trace: "--scenario topology --trace 20" => "--scenario topology", "--trace";
        topology_rejects_weather: "--scenario topology --loss 1%" => "--scenario topology", "--loss/--dup/--jitter";
        dynamics_rejects_csv_traces: "--scenario dynamics --trace-out t.csv --trace-format csv" => "--scenario dynamics", "--trace-format csv";
        topology_rejects_csv_traces: "--scenario topology --trace-out t.csv --trace-format csv" => "--scenario topology", "--trace-format csv";
        fluid_rejects_weather: "--backend fluid --jitter 2ms" => "--backend fluid", "--loss/--dup/--jitter";
        fluid_rejects_metrics_out: "--backend fluid --metrics-out m.json" => "--backend fluid", "--metrics-out";
        fluid_rejects_audit: "--backend fluid --audit" => "--backend fluid", "--audit";
        fluid_rejects_profile: "--backend fluid --profile" => "--backend fluid", "--profile";
        fluid_rejects_trace_out: "--backend fluid --trace-out t.jsonl" => "--backend fluid", "--trace-out";
        fluid_rejects_checkpoint_out: "--backend fluid --checkpoint-out c.ckpt" => "--backend fluid", "--checkpoint-out";
        fluid_rejects_restore: "--backend fluid --restore c.ckpt" => "--backend fluid", "--restore";
        fluid_rejects_serve: "--backend fluid --serve 127.0.0.1:0" => "--backend fluid", "--serve";
        fluid_rejects_trace: "--backend fluid --trace 20" => "--backend fluid", "--trace";
    }

    #[test]
    fn scenario_flag_validates_name() {
        let a = parse_args(&args("--scenario dynamics --seed 9")).unwrap();
        assert_eq!(a.scenario.as_deref(), Some("dynamics"));
        let t = parse_args(&args("--scenario topology --audit")).unwrap();
        assert_eq!(t.scenario.as_deref(), Some("topology"));
        assert!(t.audit);
        let e = parse_args(&args("--scenario figure99")).unwrap_err();
        assert!(e.contains("unknown scenario"));
    }
}
