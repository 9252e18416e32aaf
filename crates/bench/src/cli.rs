//! Argument parsing for the `pi2sim` command-line runner, and the one
//! function from the parsed line to the [`Scenario`] it describes.
//!
//! Hand-rolled (the workspace has no runtime dependencies) but complete:
//! units for rates (`10M`, `2.5G`, `400k`) and times (`20ms`, `1s`,
//! `500us`), flow-list syntax (`5xreno,1xdctcp,2xecn-cubic`), and helpful
//! errors.

use pi2_aqm::{
    CoupledPi2Config, CurvyRedConfig, DualPi2Config, FqConfig, Pi2Config, PiConfig, PieConfig,
};
use pi2_experiments::dynamics::{self, Disturbance};
use pi2_experiments::topology::{self, TopologyKind};
use pi2_experiments::{AqmKind, Backend, BgGroup, FlowGroup, RunResult, Scenario, UdpGroup};
use pi2_netsim::{ImpairmentConf, LinkImpairments, PerfettoSink};
use pi2_simcore::time::NANOS_PER_SEC;
use pi2_simcore::{Duration, Time};
use pi2_transport::{CcKind, EcnSetting};
use std::io::Write;

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
    /// Emit the queue-delay time series as CSV on stdout.
    pub csv: bool,
    /// Attach the runtime invariant auditor ([`pi2_netsim::AuditSink`])
    /// regardless of build profile (debug builds attach it by default;
    /// see the `PI2_AUDIT` env knob).
    pub audit: bool,
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
    /// A family cell to run in place of the dumbbell `--rate`, `--rtt`,
    /// `--flows`, `--udp`, `--secs` and `--warmup` describe; `rate_bps`
    /// then holds the cell's link rate, so a rate-dependent `--aqm` row is
    /// built for it.
    pub scenario: Option<Cell>,
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
    /// stderr). `GET /cancel` stops the run gracefully, leaving a
    /// checkpoint for `--restore`.
    pub serve: Option<String>,
    /// Execution backend: `packet` (default, per-packet events), `fluid`
    /// (flow-level ODE, no packets — scales to millions of flows), or
    /// `hybrid` (packet foreground + fluid background aggregate).
    pub backend: Backend,
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

/// A `--aqm` name and the AQM it builds, at the Table 1 defaults the
/// figures use, for a link of the given rate in bits/s.
pub type AqmRow = (&'static str, fn(u64) -> AqmKind);

/// The `--aqm` table: every name `pi2sim` accepts.
pub const AQMS: &[AqmRow] = &[
    ("pi2", |_| AqmKind::Pi2(Pi2Config::default())),
    ("pie", |_| AqmKind::Pie(PieConfig::paper_default())),
    ("bare-pie", |_| AqmKind::Pie(PieConfig::bare())),
    ("pi", |_| AqmKind::Pi(PiConfig::untuned_pie_gains())),
    ("coupled", |_| AqmKind::Coupled(CoupledPi2Config::default())),
    ("curvy", |_| AqmKind::Curvy(CurvyRedConfig::default())),
    ("taildrop", |_| AqmKind::TailDrop),
    ("dualq", |rate_bps| AqmKind::DualQ(DualPi2Config::for_link(rate_bps))),
    ("fq", |rate_bps| AqmKind::Fq(FqConfig::for_link(rate_bps))),
];

/// The `--aqm` names, in table order.
fn aqm_names() -> Vec<&'static str> {
    AQMS.iter().map(|(name, _)| *name).collect()
}

/// The `--scenario` names, in table order.
fn cell_names() -> Vec<String> {
    Cell::all().into_iter().map(Cell::name).collect()
}

impl CliArgs {
    /// The AQM `--aqm` and `--rate` describe.
    ///
    /// # Panics
    /// If `aqm` was set by hand to a name [`AQMS`] does not list
    /// ([`parse_args`] refuses those).
    pub fn aqm_kind(&self) -> AqmKind {
        let row = AQMS.iter().find(|(name, _)| *name == self.aqm);
        row.unwrap_or_else(|| panic!("no --aqm named '{}'", self.aqm)).1(self.rate_bps)
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
            csv: false,
            audit: false,
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
            backend: Backend::Packet,
            bg_flows: Vec::new(),
        }
    }
}

impl CliArgs {
    /// The `--loss/--dup/--jitter` knobs as an impairment layer; `None`
    /// when all are zero.
    pub fn weather(&self) -> Option<LinkImpairments> {
        weather(
            self.seed,
            ImpairmentConf {
                loss: self.loss,
                dup: self.dup,
                jitter: self.jitter,
            },
        )
    }

    /// The scenario the command line describes, for whichever backend
    /// runs it: the `--scenario` cell as its family builds it, else the
    /// dumbbell; sojourns recorded per flow, under the weather asked for.
    pub fn to_scenario(&self) -> Scenario {
        let mut sc = match self.scenario {
            Some(cell) => cell.scenario(self.aqm_kind(), self.seed),
            None => self.dumbbell(),
        };
        sc.per_flow_sojourns = true;
        sc.impairments = self.weather();
        sc
    }

    /// The `--trace-format perfetto` sink over `w`: a family cell's
    /// timeline is annotated with its disturbance or workload edges.
    pub fn perfetto_sink<W: Write>(&self, w: W) -> PerfettoSink<W> {
        let mut sink = PerfettoSink::new(w);
        for (at_s, label) in self.scenario.iter().flat_map(|cell| cell.marks()) {
            sink.instant(Time::from_secs(at_s), label);
        }
        sink
    }

    fn dumbbell(&self) -> Scenario {
        let mut sc = Scenario::new(self.aqm_kind(), self.rate_bps);
        for spec in &self.flows {
            sc.tcp
                .push(FlowGroup::new(spec.count, spec.cc, spec.ecn, &spec.label, self.rtt));
        }
        if let Some(rate_bps) = self.udp_bps {
            sc.udp.push(UdpGroup {
                rate_bps,
                ..UdpGroup::paper_probes(1, self.rtt)
            });
        }
        sc.duration = Time::from_secs(self.secs);
        sc.warmup = Duration::from_secs(self.warmup_secs as i64);
        sc.seed = self.seed;
        sc.backend = self.backend;
        sc.background = self
            .bg_flows
            .iter()
            .map(|s| BgGroup::new(s.count, s.cc, self.rtt, &s.label))
            .collect();
        // The fluid trajectory (`--csv`) is sampled every 100 ms; packet runs
        // keep the monitor's 1 s tick.
        if sc.backend == Backend::Fluid {
            sc.sample_interval = Duration::from_millis(100);
        }
        sc
    }
}

/// Decorrelates the weather layer's RNG stream from the simulator's root
/// stream when both derive from the same seed.
const WEATHER_SEED_XOR: u64 = 0x57EA_7AE5_0DD5_EED5;

/// `conf` applied symmetrically to both directions of a run seeded with
/// `seed`; `None` when every knob is zero.
pub fn weather(seed: u64, conf: ImpairmentConf) -> Option<LinkImpairments> {
    let imp = LinkImpairments::new(seed ^ WEATHER_SEED_XOR).symmetric(conf);
    (!imp.is_off()).then_some(imp)
}

/// One cell of a scenario family, which `--scenario` names
/// `<family>/<cell>`. The family's whole table is a `pi2fig` row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell {
    /// A step-response disturbance (`pi2fig ext_dynamics`).
    Dynamics(Disturbance),
    /// A multi-hop layout under mice cross-traffic (`pi2fig ext_topology`).
    Topology(TopologyKind),
}

impl Cell {
    /// Every cell, from the tables that define the families.
    pub fn all() -> Vec<Cell> {
        let dynamics = Disturbance::ALL.map(Cell::Dynamics);
        dynamics.into_iter().chain(TopologyKind::ALL.map(Cell::Topology)).collect()
    }

    /// What `--scenario` calls the cell.
    pub fn name(self) -> String {
        match self {
            Cell::Dynamics(d) => format!("dynamics/{}", d.name()),
            Cell::Topology(kind) => format!("topology/{}", kind.name()),
        }
    }

    /// The link rate a rate-dependent AQM is configured for, bits/s.
    pub fn link_bps(self) -> u64 {
        match self {
            Cell::Dynamics(_) => dynamics::LINK_BPS,
            Cell::Topology(_) => topology::LINK_BPS,
        }
    }

    /// The cell under `aqm`, as its family's sweep builds it.
    pub fn scenario(self, aqm: AqmKind, seed: u64) -> Scenario {
        match self {
            Cell::Dynamics(d) => dynamics::scenario_for(aqm, d, seed),
            Cell::Topology(kind) => topology::scenario_for(kind, aqm, seed),
        }
    }

    /// Timeline annotations `(second, label)` for a Perfetto trace.
    pub fn marks(self) -> [(u64, &'static str); 2] {
        match self {
            Cell::Dynamics(d) => d.marks(),
            Cell::Topology(_) => topology::MARKS,
        }
    }

    /// The finished cell as its row of the family table, header included.
    pub fn reduce(self, sc: &Scenario, r: &RunResult) -> String {
        match self {
            Cell::Dynamics(d) => dynamics::render_table(&[dynamics::report(d, r)]),
            Cell::Topology(kind) => topology::render_table(&[topology::report(kind, sc, r)]),
        }
    }
}

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
    // Checked after scaling: the rate is truncated to whole b/s, and a link
    // or source at 0 b/s is a panic further in.
    let bps = v * mult;
    if !(bps >= 1.0) {
        return Err(format!("rate must be at least 1 b/s, got '{s}'"));
    }
    Ok(bps as u64)
}

/// The longest run length, warm-up or time value, in whole seconds: what
/// the simulation clock's signed span holds, so no time a command line
/// gives wraps or panics in a conversion.
const MAX_SECS: u64 = i64::MAX as u64 / NANOS_PER_SEC;

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
    // Also refuses NaN, which every comparison fails.
    if !(v * scale < MAX_SECS as f64) {
        return Err(format!(
            "time '{s}' must be under the {MAX_SECS} s the simulation clock holds"
        ));
    }
    Ok(Duration::from_secs_f64(v * scale))
}

/// Parse a `--secs` or `--warmup` value.
fn parse_secs(flag: &str, s: &str) -> Result<u64, String> {
    let v: u64 = s.parse().map_err(|_| format!("bad {flag}"))?;
    if v > MAX_SECS {
        return Err(format!(
            "{flag} {v} is beyond the {MAX_SECS} s the simulation clock holds"
        ));
    }
    Ok(v)
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
            "--secs" => out.secs = parse_secs("--secs", value("--secs")?)?,
            "--warmup" => out.warmup_secs = parse_secs("--warmup", value("--warmup")?)?,
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?
            }
            "--csv" => out.csv = true,
            "--audit" => out.audit = true,
            "--trace-out" => out.trace_out = Some(value("--trace-out")?.clone()),
            "--trace-format" => {
                out.trace_format = match value("--trace-format")?.as_str() {
                    "jsonl" => TraceFormat::Jsonl,
                    "csv" => TraceFormat::Csv,
                    "perfetto" => TraceFormat::Perfetto,
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
                    "prom" => MetricsFormat::Prom,
                    other => {
                        return Err(format!("bad --metrics-format '{other}' (json or prom)"))
                    }
                }
            }
            "--profile" => out.profile = true,
            "--scenario" => {
                let v = value("--scenario")?;
                let cell = Cell::all().into_iter().find(|c| c.name() == *v);
                out.scenario = Some(cell.ok_or_else(|| {
                    format!(
                        "no scenario cell '{v}' (one of {}; the family tables are \
                         pi2fig ext_dynamics and pi2fig ext_topology)",
                        cell_names().join(", ")
                    )
                })?);
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
                out.backend = Backend::parse(v)
                    .ok_or_else(|| format!("unknown backend '{v}' (packet, fluid or hybrid)"))?;
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
    if !out.bg_flows.is_empty() && out.backend != Backend::Hybrid {
        return Err("--bg-flows needs --backend hybrid".to_string());
    }
    if let Some(cell) = out.scenario {
        if out.backend != Backend::Packet {
            return Err("--scenario only runs on the packet backend".to_string());
        }
        out.rate_bps = cell.link_bps();
    }
    // A flag a mode has no implementation for is an error, not a silent
    // no-op: the fluid engine has no packets to observe. Rows: flag and
    // whether it was given.
    let unsupported = [
        ("--metrics-out", out.metrics_out.is_some()),
        ("--profile", out.profile),
        ("--checkpoint-out", out.checkpoint_out.is_some()),
        ("--restore", out.restore.is_some()),
        ("--audit", out.audit),
        ("--loss/--dup/--jitter", out.weather().is_some()),
        ("--trace-out", out.trace_out.is_some()),
        ("--serve", out.serve.is_some()),
    ];
    let fluid = out.backend == Backend::Fluid;
    if let Some((flag, _)) = unsupported.iter().find(|(_, given)| fluid && *given) {
        return Err(format!("--backend fluid does not support {flag}"));
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
         \x20 --csv             also print the (t, queue delay ms) series as CSV\n\
         \x20 --audit           attach the invariant auditor (always on in debug\n\
         \x20                   builds; env PI2_AUDIT=1/0 overrides either way)\n\
         \x20 --trace-out <p>   stream every event + AQM state probe to this file\n\
         \x20 --trace-format <f> jsonl (default), csv, or perfetto (Chrome\n\
         \x20                   trace-event JSON for ui.perfetto.dev), for --trace-out\n\
         \x20 --metrics-out <p> write the end-of-run metrics snapshot (counters +\n\
         \x20                   histogram quantiles) to this file\n\
         \x20 --metrics-format <f> json (default) or prom, for --metrics-out\n\
         \x20 --profile         time the event loop per event class and print the\n\
         \x20                   breakdown\n\
         \x20 --scenario <cell> run one cell of a scenario family, not the dumbbell:\n\
         \x20                   {}\n\
         \x20                   The cell fixes link, flows and run length; --aqm,\n\
         \x20                   --seed, the weather and every observer apply, and\n\
         \x20                   its row of the family table follows the report.\n\
         \x20                   The tables: pi2fig ext_dynamics|ext_topology\n\
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
        cell_names().join("\n                    ")
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
        // Below 1 b/s truncates to a zero-rate link or source.
        assert!(parse_rate("0.5").is_err());
        assert!(parse_args(&args("--udp 0.2")).is_err());
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
            "--aqm coupled --rate 40M --rtt 10ms --flows 1xcubic,1xdctcp --secs 30 --seed 7",
        ))
        .unwrap();
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

    /// A run length past what the clock holds would wrap in a release
    /// build or reach `Scenario::build`'s reservations, and a time past it
    /// would panic in `Duration::from_secs_f64`: each is a usage error
    /// naming the value.
    #[test]
    fn a_run_length_the_clock_cannot_hold_is_a_usage_error() {
        for line in ["--secs 20000000000", "--secs 100000000000 --warmup 10"] {
            let e = parse_args(&args(line)).unwrap_err();
            assert!(
                e.contains("--secs") && e.contains("simulation clock"),
                "{line}: {e}"
            );
        }
        let e = parse_args(&args("--warmup 9300000000 --secs 9300000001")).unwrap_err();
        assert!(e.contains("--warmup"), "{e}");
        // The bound is the clock's signed span, to the second.
        let ns_per_s = pi2_simcore::time::NANOS_PER_SEC;
        let longest = i64::MAX as u64 / ns_per_s;
        let a = parse_args(&args(&format!("--secs {longest}"))).unwrap();
        assert_eq!(Time::from_secs(a.secs).as_nanos() / ns_per_s, longest);
        assert!(parse_args(&args(&format!("--secs {}", longest + 1))).is_err());
        // A time value the clock cannot hold is refused the same way.
        for line in ["--rtt 1e10s", "--jitter nan", "--checkpoint-at inf"] {
            let e = parse_args(&args(line)).unwrap_err();
            assert!(e.contains("simulation clock"), "{line}: {e}");
        }
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
        assert!(d.weather().is_none(), "weather must default off");
        let a = parse_args(&args("--loss 1% --dup 0.005 --jitter 5ms")).unwrap();
        assert!(a.weather().is_some());
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
        assert_eq!(d.backend, Backend::Packet, "packet is the default backend");
        assert!(d.bg_flows.is_empty());
        let f = parse_args(&args("--backend fluid --flows 100000xreno")).unwrap();
        assert_eq!(f.backend, Backend::Fluid);
        let h = parse_args(&args("--backend hybrid --bg-flows 1000xreno,200xdctcp")).unwrap();
        assert_eq!(h.backend, Backend::Hybrid);
        assert_eq!(h.bg_flows.len(), 2);
        assert_eq!(h.bg_flows[0].count, 1000);
        assert_eq!(h.bg_flows[1].cc, CcKind::Dctcp);
        let e = parse_args(&args("--backend quantum")).unwrap_err();
        assert!(e.contains("unknown backend"));
        let e = parse_args(&args("--bg-flows 10xreno")).unwrap_err();
        assert!(e.contains("--backend hybrid"));
        let e = parse_args(&args("--backend fluid --scenario dynamics/rate-step")).unwrap_err();
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
        fluid_rejects_weather: "--backend fluid --jitter 2ms" => "--backend fluid", "--loss/--dup/--jitter";
        fluid_rejects_metrics_out: "--backend fluid --metrics-out m.json" => "--backend fluid", "--metrics-out";
        fluid_rejects_audit: "--backend fluid --audit" => "--backend fluid", "--audit";
        fluid_rejects_profile: "--backend fluid --profile" => "--backend fluid", "--profile";
        fluid_rejects_trace_out: "--backend fluid --trace-out t.jsonl" => "--backend fluid", "--trace-out";
        fluid_rejects_checkpoint_out: "--backend fluid --checkpoint-out c.ckpt" => "--backend fluid", "--checkpoint-out";
        fluid_rejects_restore: "--backend fluid --restore c.ckpt" => "--backend fluid", "--restore";
        fluid_rejects_serve: "--backend fluid --serve 127.0.0.1:0" => "--backend fluid", "--serve";
    }

    /// The observer flags the sweep modes used to reject, and `--serve`:
    /// a cell is a single run, so each
    /// parses with a cell of either family. What is not a cell, a bare
    /// family name included, is refused with the cells and the figure
    /// rows that print the family tables.
    #[test]
    fn a_scenario_is_one_cell_and_takes_every_observer() {
        let observers = [
            "--metrics-out m.json",
            "--profile",
            "--checkpoint-out c.ckpt --checkpoint-at 3s",
            "--restore c.ckpt",
            "--audit",
            "--loss 1%",
            "--trace-out t.csv --trace-format csv",
            "--serve 127.0.0.1:0",
        ];
        let cells = [
            ("dynamics/rate-step", Cell::Dynamics(Disturbance::RateStep), dynamics::LINK_BPS),
            ("topology/parking-lot-3", Cell::Topology(TopologyKind::ParkingLot3), topology::LINK_BPS),
        ];
        for (name, cell, link_bps) in cells {
            for flags in observers {
                let line = format!("--scenario {name} --rate 1G --aqm dualq {flags}");
                let a = parse_args(&args(&line)).unwrap_or_else(|e| panic!("{line}: {e}"));
                assert_eq!(a.scenario, Some(cell));
                assert_eq!(a.rate_bps, link_bps, "the AQM is built for the cell's link");
            }
        }
        for bad in ["dynamics", "topology", "topology/ring-9", "figure99"] {
            let e = parse_args(&args(&format!("--scenario {bad}"))).unwrap_err();
            for cell in Cell::all() {
                assert!(e.contains(&cell.name()), "{bad}: {e}");
                assert!(usage().contains(&cell.name()), "usage lacks {}", cell.name());
            }
            assert!(e.contains("pi2fig ext_dynamics") && e.contains("pi2fig ext_topology"), "{e}");
        }
    }
}
