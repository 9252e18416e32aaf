//! `pi2sim` — run any dumbbell scenario against any AQM in this
//! workspace, from the command line.
//!
//! ```text
//! cargo run -p pi2-bench --release --bin pi2sim -- \
//!     --aqm coupled --rate 40M --rtt 10ms --flows 1xcubic,1xdctcp --secs 60
//! ```

use pi2_bench::cli::{parse_args, usage, CliArgs, MetricsFormat, TraceFormat};
use pi2_bench::perf::Json;
use pi2_experiments::{
    dynamics, run_fluid, summarize_scenario_run, topology, AqmKind, Backend, BgGroup, FlowGroup,
    Scenario, SweepObserver, UdpGroup,
};
use pi2_netsim::{
    csv_field, AuditSink, CsvSink, ImpairmentConf, JsonlSink, LinkImpairments, MemorySink,
    Monitor, PerfettoSink, Sim, SimMetrics,
};
use pi2_obs::ObsServer;
use pi2_simcore::{Duration, Time};
use pi2_stats::Summary;
use std::cell::RefCell;
use std::fs::File;
use std::io::BufWriter;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// The dumbbell the command line describes, for whichever backend runs it.
fn scenario_from(a: &CliArgs) -> Scenario {
    let mut sc = Scenario::new(a.aqm_kind(), a.rate_bps);
    for spec in &a.flows {
        sc.tcp
            .push(FlowGroup::new(spec.count, spec.cc, spec.ecn, &spec.label, a.rtt));
    }
    if let Some(rate_bps) = a.udp_bps {
        sc.udp.push(UdpGroup {
            rate_bps,
            ..UdpGroup::paper_probes(1, a.rtt)
        });
    }
    sc.duration = Time::from_secs(a.secs);
    sc.warmup = Duration::from_secs(a.warmup_secs as i64);
    sc.seed = a.seed;
    sc.per_flow_sojourns = true;
    sc.impairments = weather(a);
    sc.backend = Backend::parse(&a.backend).expect("validated backend");
    sc.background = a
        .bg_flows
        .iter()
        .map(|s| BgGroup::new(s.count, s.cc, a.rtt, &s.label))
        .collect();
    // The fluid trajectory (`--csv`) is sampled every 100 ms; packet runs
    // keep the monitor's 1 s tick.
    if sc.backend == Backend::Fluid {
        sc.sample_interval = Duration::from_millis(100);
    }
    sc
}

/// [`Scenario::build`], with a description it rejects reported as a usage
/// error.
fn build_or_exit(sc: &Scenario) -> Sim {
    sc.build().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Decorrelates the weather layer's RNG stream from the simulator's root
/// stream when both derive from the same `--seed`.
const WEATHER_SEED_XOR: u64 = 0x57EA_7AE5_0DD5_EED5;

/// The `--loss/--dup/--jitter` knobs as an impairment layer, applied
/// symmetrically to both directions. `None` when all are zero.
fn weather(a: &CliArgs) -> Option<LinkImpairments> {
    if !a.impaired() {
        return None;
    }
    Some(
        LinkImpairments::new(a.seed ^ WEATHER_SEED_XOR).symmetric(ImpairmentConf {
            loss: a.loss,
            dup: a.dup,
            jitter: a.jitter,
        }),
    )
}

/// Bind the `--serve` listener, announcing the bound address on stderr
/// only — stdout must stay bit-identical to an unserved run.
fn bind_server(addr: &str) -> ObsServer {
    let srv = ObsServer::bind(addr).unwrap_or_else(|e| {
        eprintln!("cannot serve on {addr}: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "# pi2sim: serving http://{}/ (/metrics /progress /healthz /cancel /quit)",
        srv.addr()
    );
    srv
}

/// `PI2_SERVE_HOLD=1` keeps the process alive after the run until a
/// client sends `GET /quit`, so a harness can scrape the final snapshots
/// without racing process exit.
fn hold_for_quit(srv: &ObsServer) {
    if std::env::var("PI2_SERVE_HOLD").as_deref() == Ok("1") {
        eprintln!("# pi2sim: run complete, holding for GET /quit (PI2_SERVE_HOLD=1)");
        srv.wait_quit();
    }
}

/// Bridges a running sweep to the [`ObsServer`]: every finished cell's
/// registry is merged commutatively (the same fold as
/// [`pi2_experiments::merged_metrics`]) and republished, so a mid-sweep
/// scrape sees a valid partial snapshot; `/cancel` is polled by the
/// runner at cell boundaries. A pure observer — sweep results stay
/// bit-identical whether or not a server is attached.
struct SweepServer {
    srv: ObsServer,
    scenario: &'static str,
    merged: Mutex<Option<SimMetrics>>,
    wall: std::time::Instant,
}

impl SweepServer {
    /// Bind and install as the sweep observer when `--serve` was given.
    fn install(a: &CliArgs, scenario: &'static str) -> Option<Arc<SweepServer>> {
        let addr = a.serve.as_deref()?;
        let obs = Arc::new(SweepServer {
            srv: bind_server(addr),
            scenario,
            merged: Mutex::new(None),
            wall: std::time::Instant::now(),
        });
        obs.publish_progress(0, 0);
        pi2_experiments::install_observer(obs.clone());
        Some(obs)
    }

    fn publish_progress(&self, done: usize, total: usize) {
        let wall = self.wall.elapsed().as_secs_f64();
        let fraction = if total == 0 {
            0.0
        } else {
            done as f64 / total as f64
        };
        let eta = if fraction >= 1.0 {
            "0.000".to_string()
        } else if done == 0 {
            "null".to_string()
        } else {
            format!("{:.3}", wall * (1.0 - fraction) / fraction)
        };
        let events = self
            .merged
            .lock()
            .unwrap()
            .as_ref()
            .map_or(0, |m| m.events_processed());
        let eps = if wall > 0.0 { events as f64 / wall } else { 0.0 };
        self.srv.publish_progress(format!(
            "{{\"scenario\":\"{}\",\"cells_done\":{done},\"cells_total\":{total},\
             \"fraction\":{fraction:.6},\"events_per_sec\":{eps:.1},\"eta_secs\":{eta}}}\n",
            self.scenario
        ));
    }
}

impl SweepObserver for SweepServer {
    fn cell_done(&self, done: usize, total: usize) {
        self.publish_progress(done, total);
    }

    fn cell_metrics(&self, metrics: &SimMetrics) {
        let mut merged = self.merged.lock().unwrap();
        match merged.as_mut() {
            Some(acc) => acc.merge(metrics),
            None => *merged = Some(metrics.clone()),
        }
        let text = merged.as_ref().expect("just set").registry().to_prometheus();
        self.srv.publish_metrics(text);
    }

    fn cancelled(&self) -> bool {
        self.srv.cancel_requested()
    }

    fn on_cancel(&self, done: usize, total: usize) {
        self.publish_progress(done, total);
        eprintln!(
            "# pi2sim: cancel honoured at a cell boundary ({done}/{total} cells); \
             completed cells are deterministic, so rerunning resumes the rest"
        );
    }
}

/// `--scenario dynamics`: the step-response family (rate-step and
/// flow-churn, PIE vs PI2 vs DualPI2) with its spike/settle table.
fn run_dynamics(a: &CliArgs) {
    let obs = SweepServer::install(a, "dynamics");
    println!(
        "# pi2sim: scenario=dynamics seed={} loss={} dup={} jitter={}",
        a.seed, a.loss, a.dup, a.jitter
    );
    let runs = dynamics::dynamics(a.seed, weather(a));
    // The optional Perfetto rerun below re-executes one cell; detach the
    // observer first so it cannot leak an extra cell into /metrics.
    if obs.is_some() {
        pi2_experiments::clear_observer();
    }
    print!("{}", dynamics::render_table(&runs));
    if let Some(path) = &a.trace_out {
        if a.trace_format == TraceFormat::Perfetto {
            // Rerun one representative cell serially with the timeline
            // sink attached: PI2 under the rate-step disturbance, its
            // edges annotated.
            let mut sc = dynamics::scenario_for(
                AqmKind::pi2_default(),
                dynamics::Disturbance::RateStep,
                a.seed,
            );
            sc.impairments = weather(a);
            let marks = [
                (dynamics::STEP_DOWN_S, "rate-step: 40 -> 10 Mb/s"),
                (dynamics::STEP_UP_S, "rate-step: 10 -> 40 Mb/s"),
            ];
            observe_and_run(a, &sc, &mut build_or_exit(&sc), None, None, &marks);
            println!("dynamics perfetto trace: rate-step/pi2 cell written to {path}");
        } else {
            let mut body = String::new();
            for r in &runs {
                let settle = r.settle_s.map_or("null".to_string(), |s| format!("{s}"));
                let series: Vec<String> = r
                    .qdelay
                    .iter()
                    .map(|(t, v)| format!("[{t},{v}]"))
                    .collect();
                body.push_str(&format!(
                    "{{\"scenario\":\"dynamics\",\"disturbance\":\"{}\",\"aqm\":\"{}\",\
                     \"spike_ms\":{},\"settle_s\":{},\"revert_spike_ms\":{},\"qdelay\":[{}]}}\n",
                    r.disturbance.name(),
                    r.aqm,
                    r.spike_ms,
                    settle,
                    r.revert_spike_ms,
                    series.join(",")
                ));
            }
            if let Err(e) = std::fs::write(path, &body) {
                eprintln!("cannot write dynamics trace {path}: {e}");
                std::process::exit(1);
            }
            println!("dynamics trace: {} runs written to {path}", runs.len());
        }
    }
    if a.csv {
        println!("disturbance,aqm,t_s,qdelay_ms");
        for r in &runs {
            let (dist, aqm) = (csv_field(r.disturbance.name()), csv_field(r.aqm));
            for (t, d) in &r.qdelay {
                println!("{dist},{aqm},{t},{d}");
            }
        }
    }
    if let Some(obs) = obs {
        hold_for_quit(&obs.srv);
    }
}

/// `--scenario topology`: multi-hop parking-lot / access-core layouts
/// under heavy-tailed mice cross-traffic (PI2 vs DualPI2 on every hop),
/// with per-hop fairness and mice-FCT percentile output. `--audit`
/// attaches the invariant auditor (per-hop packet conservation included)
/// to every cell.
fn run_topology(a: &CliArgs) {
    let obs = SweepServer::install(a, "topology");
    println!(
        "# pi2sim: scenario=topology seed={} audit={}",
        a.seed, a.audit
    );
    let runs = topology::topology(a.seed, a.audit);
    // The optional Perfetto rerun below re-executes one cell; detach the
    // observer first so it cannot leak an extra cell into /metrics.
    if obs.is_some() {
        pi2_experiments::clear_observer();
    }
    print!("{}", topology::render_table(&runs));
    if let Some(path) = &a.trace_out {
        if a.trace_format == TraceFormat::Perfetto {
            // Rerun one representative cell serially with the timeline
            // sink attached: the 3-hop parking lot under PI2, the mice
            // window annotated; hop tracks beyond the bottleneck come
            // from the sim's hop-event side channel.
            let kind = topology::TopologyKind::ParkingLot3;
            let sc = topology::scenario_for(kind, AqmKind::pi2_default(), a.seed);
            let audit = a
                .audit
                .then(|| AuditSink::new(a.seed).with_label(kind.name()));
            let marks = [
                (topology::MICE_START_S, "mice arrivals start"),
                (topology::MICE_STOP_S, "mice arrivals stop"),
            ];
            observe_and_run(a, &sc, &mut build_or_exit(&sc), audit, None, &marks);
            println!("topology perfetto trace: parking-lot3/pi2 cell written to {path}");
        } else {
            export_topology_jsonl(&runs, path);
        }
    }
    if a.csv {
        println!("topology,aqm,hop,jain,classic_mbps,scalable_mbps,mice_mbps");
        for r in &runs {
            let (topo, aqm) = (csv_field(r.topology), csv_field(r.aqm));
            for h in &r.hops {
                println!(
                    "{topo},{aqm},{},{},{},{},{}",
                    h.hop, h.fairness, h.classic_mbps, h.scalable_mbps, h.mice_mbps
                );
            }
        }
    }
    if let Some(obs) = obs {
        hold_for_quit(&obs.srv);
    }
}

/// The `--trace-out` JSONL body for the topology family (one line per
/// topology × AQM cell).
fn export_topology_jsonl(runs: &[topology::TopologyRun], path: &str) {
    let mut body = String::new();
    for r in runs {
        let hops: Vec<String> = r
            .hops
            .iter()
            .map(|h| {
                format!(
                    "{{\"hop\":{},\"jain\":{},\"classic_mbps\":{},\
                     \"scalable_mbps\":{},\"mice_mbps\":{}}}",
                    h.hop, h.fairness, h.classic_mbps, h.scalable_mbps, h.mice_mbps
                )
            })
            .collect();
        body.push_str(&format!(
            "{{\"scenario\":\"topology\",\"topology\":\"{}\",\"aqm\":\"{}\",\
             \"mice_launched\":{},\"mice_completed\":{},\
             \"fct_ms\":[{},{},{}],\"rate_ratio\":{},\"hops\":[{}]}}\n",
            r.topology,
            r.aqm,
            r.mice_launched,
            r.mice_completed,
            r.fct_ms.0,
            r.fct_ms.1,
            r.fct_ms.2,
            r.rate_ratio,
            hops.join(",")
        ));
    }
    if let Err(e) = std::fs::write(path, &body) {
        eprintln!("cannot write topology trace {path}: {e}");
        std::process::exit(1);
    }
    println!("topology trace: {} runs written to {path}", runs.len());
}

/// `--backend fluid`: compile the dumbbell onto the flow-level engine and
/// integrate it — no packets, no per-packet events, so flow counts in the
/// millions finish in seconds.
fn run_fluid_backend(a: &CliArgs) {
    let wall = std::time::Instant::now();
    let r = run_fluid(&scenario_from(a)).unwrap_or_else(|e| {
        eprintln!("--backend fluid: {e}");
        std::process::exit(2);
    });
    let wall_s = wall.elapsed().as_secs_f64();
    println!(
        "# pi2sim: backend=fluid aqm={} rate={} rtt={} secs={} seed={}",
        a.aqm, a.rate_bps, a.rtt, a.secs, a.seed
    );
    println!(
        "flows: {} across {} classes, {} rate reallocations, wall {wall_s:.3} s",
        r.flow_count,
        r.labels.len(),
        r.alloc_events
    );
    println!(
        "queue delay [ms]: mean {:.2}   utilization: {:.1} %   signal {:.3} %",
        r.summary.qdelay_s * 1e3,
        100.0 * r.summary.utilization,
        100.0 * r.summary.signal
    );
    for (i, label) in r.labels.iter().enumerate() {
        let per_flow_mbps = r.class_rates_pps[i] * 1500.0 * 8.0 / 1e6;
        println!(
            "{label:>10}: {} flows, {:.4} Mb/s per flow, {:.2} Mb/s total",
            r.counts[i] as u64,
            per_flow_mbps,
            per_flow_mbps * r.counts[i]
        );
    }
    if a.csv {
        println!("t_s,qdelay_ms");
        for s in &r.samples {
            println!("{},{}", s.t, s.qdelay * 1e3);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(if msg == usage() { 0 } else { 2 });
        }
    };
    match a.scenario.as_deref() {
        Some("dynamics") => run_dynamics(&a),
        Some(_) => run_topology(&a),
        None if a.backend == "fluid" => run_fluid_backend(&a),
        None => run_single(&a),
    }
}

/// Attach every observer the command line asks for to a built `Sim`,
/// apply `--restore`/`--checkpoint-out`, run it to the scenario's end
/// (in served slices under `--serve`) and flush the sinks. `marks` are
/// timeline annotations `(second, label)` for a Perfetto `--trace-out`.
/// Every observer is pure, so whatever is attached the run's bits are
/// those of a bare [`Scenario::run`]. Returns the `--trace N` sink.
fn observe_and_run(
    a: &CliArgs,
    sc: &Scenario,
    sim: &mut Sim,
    audit: Option<AuditSink>,
    serve: Option<&ObsServer>,
    marks: &[(u64, &str)],
) -> Option<Rc<RefCell<MemorySink>>> {
    // A checkpoint carries what the sim carries, and `build` leaves two
    // things on it that would change the blob this command line writes:
    // the registry, kept only when asked for (`--metrics-out`, or
    // `--serve` for the /metrics body), and the monitor's reservation
    // hint, spent once every flow is registered (a zero reservation
    // clears it).
    if a.metrics_out.is_none() && serve.is_none() {
        sim.core.take_metrics();
    }
    sim.core.monitor.reserve(0, 0);
    if a.profile {
        sim.enable_profiler();
    }
    // `--audit`: even in release builds (debug builds attach an
    // unlabelled auditor by default).
    if let Some(audit) = audit {
        sim.core.enable_audit(audit);
    }
    // `--trace N`: a bounded in-memory sink we keep a handle to for the
    // post-run rendering.
    let mem_trace = (a.trace > 0).then(|| {
        let h = Rc::new(RefCell::new(MemorySink::new(a.trace)));
        sim.core.add_trace_sink(Box::new(Rc::clone(&h)));
        h
    });
    // `--trace-out PATH`: stream every event and AQM probe to disk.
    if let Some(path) = &a.trace_out {
        let f = File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create trace file {path}: {e}");
            std::process::exit(2);
        });
        let w = BufWriter::new(f);
        match a.trace_format {
            TraceFormat::Jsonl => sim.core.add_trace_sink(Box::new(JsonlSink::new(w))),
            TraceFormat::Csv => sim.core.add_trace_sink(Box::new(CsvSink::new(w))),
            // The flush at end-of-run finalizes the timeline (flow
            // lifetime slices, track metadata, the closing bracket).
            TraceFormat::Perfetto => {
                let mut sink = PerfettoSink::new(w);
                for &(at_s, label) in marks {
                    sink.instant(Time::from_secs(at_s), label);
                }
                sim.core.add_trace_sink(Box::new(sink));
            }
        }
    }
    // `--restore`: replace the freshly built state with the checkpoint's
    // (the blob's schema hash covers the flow set and the background).
    if let Some(path) = &a.restore {
        let blob = std::fs::read(path).unwrap_or_else(|e| {
            eprintln!("cannot read checkpoint {path}: {e}");
            std::process::exit(2);
        });
        if let Err(e) = sim.restore(&blob) {
            eprintln!("checkpoint restore from {path} failed: {e:?}");
            std::process::exit(1);
        }
        println!("# restored {path} at t={}", sim.core.now());
    }
    let end = sc.duration;
    // `--checkpoint-out`: pause mid-run (default: at the end), snapshot,
    // then keep running — saving is read-only, the run's bits don't change.
    if let Some(path) = &a.checkpoint_out {
        let at = a.checkpoint_at.map_or(end, |d| Time::ZERO + d).min(end);
        sim.run_until(at);
        let blob = sim.save();
        if let Err(e) = std::fs::write(path, &blob) {
            eprintln!("cannot write checkpoint {path}: {e}");
            std::process::exit(1);
        }
        println!("# checkpoint: {} bytes written to {path} at t={}", blob.len(), sim.core.now());
    }
    match serve {
        None => sim.run_until(end),
        Some(srv) => run_served(a, srv, sim, end),
    }
    if let Err(e) = sim.core.flush_trace_sinks() {
        eprintln!("trace sink error: {e}");
        std::process::exit(1);
    }
    mem_trace
}

/// The default mode: one dumbbell run on the packet or hybrid backend,
/// observed as asked, then the summary report.
fn run_single(a: &CliArgs) {
    // `--serve`: bind the observability endpoint before the run starts so
    // a harness can watch from t=0.
    let serve = a.serve.as_deref().map(bind_server);
    let sc = scenario_from(a);
    let mut sim = build_or_exit(&sc);
    // Standalone PI2 also gets the squaring-law check, since its probe
    // exposes both p' and the applied p = min(p'², 0.25).
    let audit = a.audit.then(|| {
        let audit = AuditSink::new(a.seed).with_label(&a.aqm);
        if a.aqm == "pi2" {
            audit.expect_squared(0.25)
        } else {
            audit
        }
    });
    let mem_trace = observe_and_run(a, &sc, &mut sim, audit, serve.as_ref(), &[]);
    // Detach the observers the report reads before the run's measurements
    // move into the result.
    let profiler = sim.take_profiler();
    let audit = sim.core.take_audit();
    let r = sc.finish(sim);

    let m = &r.monitor;
    println!(
        "# pi2sim: aqm={} rate={} rtt={} secs={} seed={}",
        a.aqm,
        a.rate_bps,
        a.rtt,
        a.secs,
        a.seed
    );
    let delay = r.delay_summary();
    println!(
        "queue delay [ms]: mean {:.2}  p50 {:.2}  p99 {:.2}  max {:.2}",
        delay.mean, delay.p50, delay.p99, delay.max
    );
    // Hybrid runs: the monitor's samples normalize by the residual
    // foreground rate (capacity minus the background grant), which can
    // exceed 1 while the foreground drains queue. Report the shared link
    // instead — foreground plus granted background bits over nominal
    // capacity.
    let util = if r.background.is_some() {
        summarize_scenario_run(&sc, &r).utilization
    } else {
        let util_samples = m.util_samples();
        if util_samples.is_empty() {
            0.0
        } else {
            util_samples.iter().map(|&x| x as f64).sum::<f64>() / util_samples.len() as f64
        }
    };
    println!("utilization: {:.1} %", 100.0 * util);
    // Per-label rows.
    let mut labels: Vec<String> = m.flows.iter().map(|f| f.label.clone()).collect();
    labels.sort();
    labels.dedup();
    for label in &labels {
        let idxs = m.flows_labelled(label);
        let tput = m.pooled_mean_tput_mbps(label);
        let sig: f64 = idxs
            .iter()
            .map(|&i| m.flows[i].signal_fraction())
            .sum::<f64>()
            / idxs.len().max(1) as f64;
        let sj = Summary::over(m.pooled_sojourns(label), f64::from);
        println!(
            "{label:>10}: {} flows, {tput:.2} Mb/s total, signal {:.3} %, delay p99 {:.1} ms",
            idxs.len(),
            100.0 * sig,
            sj.p99
        );
    }
    // The always-on counting sink, full-run (warmup included).
    let tot = r.counters.totals();
    println!(
        "counters: enq {} mark {} drop {} deq {}  aqm updates {}",
        tot.enqueued, tot.marked, tot.dropped, tot.dequeued, r.counters.aqm_updates
    );
    if let Some(bg) = &r.background {
        let mean_mbps = bg.bg_bytes * 8.0 / a.secs.max(1) as f64 / 1e6;
        println!(
            "background: {} fluid flows, mean {:.2} Mb/s served, {} controller grants",
            bg.flow_count, mean_mbps, bg.ticks
        );
    }
    if let Some(s) = &r.impair {
        println!(
            "weather: fwd {}/{} lost, {} dup; rev {}/{} lost, {} dup",
            s.fwd_lost, s.fwd_offered, s.fwd_dup, s.rev_lost, s.rev_offered, s.rev_dup
        );
    }
    if let Some(audit) = &audit {
        println!(
            "audit: all invariants held over {} events, {} state probes",
            audit.events_seen(),
            audit.probes_seen()
        );
    }
    if let Some(prof) = &profiler {
        println!("# event-loop profile ({} events timed):", prof.total_events());
        print!("{}", prof.render_table());
    }
    if let Some(path) = &a.metrics_out {
        // Only a restored checkpoint can take the registry away: its
        // metrics section is all or nothing.
        let Some(snap) = r.metrics.as_deref() else {
            eprintln!("--metrics-out needs a checkpoint saved with --metrics-out; --restore found no metrics in it");
            std::process::exit(2);
        };
        let body = match a.metrics_format {
            MetricsFormat::Json => snap.registry().to_json(),
            MetricsFormat::Prom => {
                let text = snap.registry().to_prometheus();
                // Our own exposition output must always lint clean; a
                // failure here is a bug, not an input problem.
                if let Err(e) = pi2_obs::prom_lint(&text) {
                    eprintln!("metrics snapshot failed the exposition lint: {e}");
                    std::process::exit(1);
                }
                text
            }
        };
        if let Err(e) = std::fs::write(path, &body) {
            eprintln!("cannot write metrics snapshot {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "metrics snapshot: {} bytes ({}) written to {path}",
            body.len(),
            match a.metrics_format {
                MetricsFormat::Json => "json",
                MetricsFormat::Prom => "prometheus",
            }
        );
    }
    if a.csv {
        println!("t_s,qdelay_ms");
        for (t, d) in r.qdelay_series() {
            println!("{t},{d}");
        }
    }
    if let Some(h) = &mem_trace {
        println!("# first {} bottleneck events:", a.trace);
        print!("{}", h.borrow().render());
    }
    if let Some(path) = &a.trace_out {
        if a.trace_format == TraceFormat::Jsonl {
            match verify_jsonl_trace(path, m) {
                Ok(n) => println!("trace verified: {n} events, per-flow totals match monitor"),
                Err(e) => {
                    eprintln!("trace verification FAILED: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    if let Some(srv) = &serve {
        // Final snapshots carry the post-run registry (which includes the
        // event totals stamped at detach time), then optionally hold.
        if let Some(snap) = &r.metrics {
            srv.publish_metrics(snap.registry().to_prometheus());
        }
        hold_for_quit(srv);
    }
}

/// `--serve` on a single run: advance the sim in 250 ms sim-time slices,
/// refreshing /metrics and /progress between slices and polling /cancel.
/// Slicing is invisible — `run_until` in steps is bit-identical to one
/// call, and all serving chatter goes to stderr — so stdout matches an
/// unserved run. A cancel checkpoints the in-flight sim ([`Sim::save`])
/// and exits 130; the run resumes bit-identically via `--restore`.
fn run_served(a: &CliArgs, srv: &ObsServer, sim: &mut Sim, end: Time) {
    let slice = Duration::from_millis(250);
    let wall = std::time::Instant::now();
    let start = sim.core.now();
    loop {
        publish_single(srv, sim, start, end, wall.elapsed().as_secs_f64());
        let now = sim.core.now();
        if now >= end {
            break;
        }
        if srv.cancel_requested() {
            let path = a
                .checkpoint_out
                .clone()
                .unwrap_or_else(|| "pi2sim-cancel.ckpt".to_string());
            let blob = sim.save();
            if let Err(e) = std::fs::write(&path, &blob) {
                eprintln!("cannot write cancel checkpoint {path}: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "# pi2sim: cancelled at t={}; {} bytes saved; resume with --restore {path}",
                sim.core.now(),
                blob.len()
            );
            std::process::exit(130);
        }
        sim.run_until((now + slice).min(end));
    }
}

/// Refresh the served /metrics and /progress snapshots from a single
/// in-flight run (read-only: live registry text plus the sim-time
/// progress report from [`pi2_simcore::progress`]).
fn publish_single(srv: &ObsServer, sim: &Sim, start: Time, end: Time, wall_secs: f64) {
    if let Some(m) = sim.core.metrics() {
        srv.publish_metrics(m.registry().to_prometheus());
    }
    let now = sim.core.now();
    let p = pi2_simcore::progress(start, now, end, sim.core.events.popped(), wall_secs);
    let eta = p.eta_secs.map_or("null".to_string(), |e| format!("{e:.3}"));
    srv.publish_progress(format!(
        "{{\"cell\":\"single\",\"sim_time_s\":{:.3},\"fraction\":{:.6},\
         \"events_per_sec\":{:.1},\"eta_secs\":{eta}}}\n",
        now.as_secs_f64(),
        p.fraction,
        p.events_per_sec
    ));
}

/// Re-parse a JSONL trace and check its per-flow mark/drop/dequeue totals
/// against the Monitor's independent accounting. Returns the event count.
fn verify_jsonl_trace(path: &str, m: &Monitor) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    if text.is_empty() {
        return Err("trace file is empty".to_string());
    }
    let nflows = m.flows.len();
    let mut marks = vec![0u64; nflows];
    let mut drops = vec![0u64; nflows];
    let mut deqs = vec![0u64; nflows];
    let mut n = 0usize;
    for (i, line) in text.lines().enumerate() {
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        let j = Json::parse(line).map_err(|e| bad(&e))?;
        let ev = j
            .get("ev")
            .and_then(|v| v.as_str())
            .ok_or_else(|| bad("missing \"ev\""))?
            .to_string();
        n += 1;
        if ev == "aqm" {
            continue;
        }
        let flow = j
            .get("flow")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| bad("missing \"flow\""))? as usize;
        if flow >= nflows {
            return Err(bad(&format!("unknown flow {flow}")));
        }
        match ev.as_str() {
            "enq" => {}
            "mark" => marks[flow] += 1,
            "drop" => drops[flow] += 1,
            "deq" => deqs[flow] += 1,
            other => return Err(bad(&format!("unknown event '{other}'"))),
        }
    }
    for (i, f) in m.flows.iter().enumerate() {
        if marks[i] != f.marked || drops[i] != f.dropped || deqs[i] != f.dequeued_pkts {
            return Err(format!(
                "flow {i}: trace mark/drop/deq {}/{}/{} but monitor has {}/{}/{}",
                marks[i], drops[i], deqs[i], f.marked, f.dropped, f.dequeued_pkts
            ));
        }
    }
    Ok(n)
}
