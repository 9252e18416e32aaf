//! `pi2sim` — run one scenario, a dumbbell or a cell of a scenario
//! family, against any AQM in this workspace, from the command line.
//!
//! ```text
//! cargo run -p pi2-bench --release --bin pi2sim -- \
//!     --aqm coupled --rate 40M --rtt 10ms --flows 1xcubic,1xdctcp --secs 60
//! cargo run -p pi2-bench --release --bin pi2sim -- \
//!     --scenario topology/parking-lot-3 --aqm dualq --audit --metrics-out m.json
//! ```

use pi2_bench::cli::{parse_args, usage, CliArgs, MetricsFormat, TraceFormat};
use pi2_bench::jsonl_check::verify_jsonl_trace;
use pi2_experiments::{run_fluid, summarize_scenario_run, Backend, Scenario};
use pi2_fluid::law::CLASSIC_CAP;
use pi2_netsim::{AuditSink, CountingSink, CsvSink, JsonlSink, Sim};
use pi2_obs::ObsServer;
use pi2_simcore::{Duration, Time};
use std::cell::RefCell;
use std::fs::File;
use std::io::BufWriter;
use std::rc::Rc;

/// [`Scenario::build`], with a description it rejects reported as a usage
/// error.
fn build_or_exit(sc: &Scenario) -> Sim {
    sc.build().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
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

/// `--backend fluid`: compile the dumbbell onto the flow-level engine and
/// integrate it — no packets, no per-packet events, so flow counts in the
/// millions finish in seconds.
fn run_fluid_backend(a: &CliArgs) {
    let wall = std::time::Instant::now();
    let r = run_fluid(&a.to_scenario()).unwrap_or_else(|e| {
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
    if a.backend == Backend::Fluid {
        run_fluid_backend(&a);
    } else {
        run_single(&a);
    }
}

/// Attach every observer the command line asks for to a built `Sim`,
/// apply `--restore`/`--checkpoint-out`, run it to the scenario's end
/// (in served slices under `--serve`) and flush the sinks. Every observer
/// is pure, so whatever is attached the run's bits are those of a bare
/// [`Scenario::run`]. A JSONL trace gets a [`CountingSink`] beside it,
/// returned so the file can be checked against the stream it was
/// written from.
fn observe_and_run(
    a: &CliArgs,
    sc: &Scenario,
    sim: &mut Sim,
    audit: Option<AuditSink>,
    serve: Option<&ObsServer>,
) -> Option<Rc<RefCell<CountingSink>>> {
    // A checkpoint carries what the sim carries, and `build` leaves the
    // registry on it, which would change the blob this command line
    // writes: it is kept only when asked for (`--metrics-out`, or
    // `--serve` for the /metrics body).
    if a.metrics_out.is_none() && serve.is_none() {
        sim.core.take_metrics();
    }
    if a.profile {
        sim.enable_profiler();
    }
    // `--audit`: even in release builds (debug builds attach an
    // unlabelled auditor by default).
    if let Some(audit) = audit {
        sim.core.enable_audit(audit);
    }
    // `--trace-out PATH`: stream every event and AQM probe to disk.
    let mut streamed = None;
    if let Some(path) = &a.trace_out {
        let f = File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create trace file {path}: {e}");
            std::process::exit(2);
        });
        let w = BufWriter::new(f);
        match a.trace_format {
            TraceFormat::Jsonl => {
                sim.core.add_trace_sink(Box::new(JsonlSink::new(w)));
                let counts = Rc::new(RefCell::new(CountingSink::new()));
                sim.core.add_trace_sink(Box::new(Rc::clone(&counts)));
                streamed = Some(counts);
            }
            TraceFormat::Csv => sim.core.add_trace_sink(Box::new(CsvSink::new(w))),
            // The flush at end-of-run finalizes the timeline (flow
            // lifetime slices, track metadata, the closing bracket).
            TraceFormat::Perfetto => sim.core.add_trace_sink(Box::new(a.perfetto_sink(w))),
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
    streamed
}

/// The default mode: one scenario on the packet or hybrid backend,
/// observed as asked, then the summary report.
fn run_single(a: &CliArgs) {
    // `--serve`: bind the observability endpoint before the run starts so
    // a harness can watch from t=0.
    let serve = a.serve.as_deref().map(bind_server);
    let sc = a.to_scenario();
    let mut sim = build_or_exit(&sc);
    // Standalone PI2 also gets the squaring-law check, since its probe
    // exposes both p' and the applied p = min(p'², CLASSIC_CAP).
    let audit = a.audit.then(|| {
        let label = a.scenario.map_or(a.aqm.clone(), |cell| cell.name());
        let audit = AuditSink::new(a.seed).with_label(&label);
        if a.aqm == "pi2" {
            audit.expect_squared(CLASSIC_CAP)
        } else {
            audit
        }
    });
    let streamed = observe_and_run(a, &sc, &mut sim, audit, serve.as_ref());
    // Detach the observers the report reads before the run's measurements
    // move into the result.
    let profiler = sim.take_profiler();
    let audit = sim.core.take_audit();
    let r = sc.finish(sim);

    let m = &r.monitor;
    match a.scenario {
        Some(cell) => println!(
            "# pi2sim: scenario={} aqm={} seed={} loss={} dup={} jitter={}",
            cell.name(),
            a.aqm,
            a.seed,
            a.loss,
            a.dup,
            a.jitter
        ),
        None => println!(
            "# pi2sim: aqm={} rate={} rtt={} secs={} seed={}",
            a.aqm, a.rate_bps, a.rtt, a.secs, a.seed
        ),
    }
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
        let sj = r.flow_delay_summary(label);
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
    // A family cell closes with its row of the family's table.
    if let Some(cell) = a.scenario {
        print!("{}", cell.reduce(&sc, &r));
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
    if let (Some(path), Some(streamed)) = (&a.trace_out, streamed) {
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|text| verify_jsonl_trace(&text, &streamed.borrow().counts));
        match verdict {
            Ok(n) => println!("trace verified: {n} events, per-flow totals match the stream"),
            Err(e) => {
                eprintln!("trace verification FAILED: {e}");
                std::process::exit(1);
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
    let p = pi2_simcore::progress(start, now, end, wall_secs);
    let eta = p.eta_secs.map_or("null".to_string(), |e| format!("{e:.3}"));
    srv.publish_progress(format!(
        "{{\"cell\":\"single\",\"sim_time_s\":{:.3},\"fraction\":{:.6},\"eta_secs\":{eta}}}\n",
        now.as_secs_f64(),
        p.fraction
    ));
}
