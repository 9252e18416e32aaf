//! End-to-end simulator throughput: how much wall-clock time one
//! simulated second costs per AQM. Establishes that figure regeneration
//! is dominated by simulated traffic, not AQM overhead. `PI2_SECS` sets
//! the simulated seconds per iteration (default 5); results append to
//! `BENCH_pi2.json`.
//!
//! The unit to compare across commits is **ns per dequeued packet**: a
//! run simulates the same packets whatever the engine does, whereas
//! ns/event also moves when a change adds or removes events — dropping
//! cheap no-op events makes a run faster and its mean event dearer. The
//! record carries both, plus the deterministic work counters behind the
//! difference: events per packet and the pending-event high-water mark.
//!
//! One more case prices a loss episode instead of a steady state:
//! `overshoot_1flow_1gbps`, whose cost is the SACK scoreboard's. Its size
//! (`*_drops_per_kpkt`) repeats exactly; its `*_ns_per_pkt` is held by the
//! same gate as the others and grows six- to ninefold when a scoreboard
//! operation costs a pass over the holes.

use pi2_aqm::{FixedProb, Pi2, Pi2Config, Pie, PieConfig};
use pi2_bench::alloc_count::{self, CountingAlloc};
use pi2_bench::perf::{bench, measurement_rows, record_and_report, Measurement};
use pi2_bench::{header, run_secs, table};
use pi2_netsim::{Aqm, MonitorConfig, PathConf, QueueConfig, Sim, SimConfig};
use pi2_simcore::{Duration, Time};
use pi2_transport::{CcKind, EcnSetting, TcpConfig, TcpSource};

/// Count every allocator call so the steady-state section below can
/// report allocations per event (see `pi2_bench::alloc_count`).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Ten Reno flows over a 50 Mb/s bottleneck, monitoring trimmed to the
/// counters only so the bench measures the engine, not sample recording.
fn build(aqm: Box<dyn Aqm>) -> Sim {
    build_with_sampling(aqm, Duration::from_secs(1))
}

fn build_with_sampling(aqm: Box<dyn Aqm>, sample_interval: Duration) -> Sim {
    let mut sim = Sim::new(
        SimConfig {
            queue: QueueConfig {
                rate_bps: 50_000_000,
                buffer_bytes: 60_000_000,
            },
            seed: 7,
            monitor: MonitorConfig {
                sample_interval,
                record_sojourns: false,
                record_probs: false,
                record_flow_tput: false,
                ..MonitorConfig::default()
            },
        },
        aqm,
    );
    for _ in 0..10 {
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(20)),
            "reno",
            Time::ZERO,
            |id| {
                Box::new(TcpSource::new(
                    id,
                    CcKind::Reno,
                    EcnSetting::NotEcn,
                    TcpConfig::default(),
                ))
            },
        );
    }
    sim
}

fn bench_aqm(name: &str, secs: u64, make: impl Fn() -> Box<dyn Aqm>) -> Measurement {
    bench(name, 1, 7, || {
        // Rebuild each iteration: a warm queue would make later
        // iterations measure a different (congested) regime.
        let mut sim = build(make());
        sim.run_until(Time::from_secs(secs));
        std::hint::black_box(sim.core.events.popped())
    })
}

/// The same PI2 run with the `pi2_obs` registry recording, bounding the
/// metrics overhead (`*_metrics_ns_per_event` vs the plain case above).
fn bench_pi2_metrics_on(secs: u64) -> Measurement {
    bench("pi2_10flows_50mbps_metrics", 1, 7, || {
        let mut sim = build(Box::new(Pi2::new(Pi2Config::default())));
        sim.core.enable_metrics();
        sim.run_until(Time::from_secs(secs));
        std::hint::black_box(
            sim.core
                .take_metrics()
                .map_or(0, |m| m.events_processed()),
        )
    })
}

/// One unclamped Reno flow on 1 Gb/s × 20 ms into a 4 000-packet buffer
/// (the second cell of `tests/sack_recovery.rs`), for one simulated second
/// whatever `PI2_SECS` says: slow start overshoots the buffer once and
/// recovery repairs 5 671 holes.
fn build_overshoot() -> Sim {
    let mut sim = Sim::new(
        SimConfig {
            queue: QueueConfig {
                rate_bps: 1_000_000_000,
                buffer_bytes: 4_000 * 1500,
            },
            seed: 7,
            monitor: MonitorConfig::default(),
        },
        Box::new(FixedProb::new(0.0)),
    );
    sim.add_flow(
        PathConf::symmetric(Duration::from_millis(20)),
        "reno",
        Time::ZERO,
        |id| {
            Box::new(TcpSource::new(
                id,
                CcKind::Reno,
                EcnSetting::NotEcn,
                TcpConfig::default(),
            ))
        },
    );
    sim.run_until(Time::from_secs(1));
    sim
}

/// Default ceiling for the `PI2_OVERHEAD_GATE` check: metrics-on may cost
/// at most this fraction more per event than metrics-off. Documented in
/// EXPERIMENTS.md; override with `PI2_OVERHEAD_TOL` (e.g. `0.25`).
const DEFAULT_OVERHEAD_TOL: f64 = 0.15;

fn main() {
    header(
        "Microbench: simulator throughput",
        "10 Reno flows, 50 Mb/s bottleneck — events/second of wall clock",
    );
    let secs = run_secs(5);
    println!("--- {secs} simulated seconds per iteration, 7 iterations ---");
    let ms = vec![
        bench_aqm("pie_10flows_50mbps", secs, || {
            Box::new(Pie::new(PieConfig::paper_default()))
        }),
        bench_aqm("pi2_10flows_50mbps", secs, || {
            Box::new(Pi2::new(Pi2Config::default()))
        }),
        bench_pi2_metrics_on(secs),
        bench("overshoot_1flow_1gbps", 1, 5, || {
            std::hint::black_box(build_overshoot().core.events.popped())
        }),
    ];
    table(&measurement_rows("event", &ms));

    let mut metrics = vec![("sim_secs".to_string(), secs as f64)];
    for m in &ms {
        metrics.push((format!("{}_events_per_sec", m.name), m.units_per_sec()));
        metrics.push((format!("{}_ns_per_event", m.name), m.ns_per_unit()));
    }

    // Event-loop self-profile of the PI2 case: wall-clock per event class
    // from one instrumented run, folded into the same perf record. The
    // profiled sim samples at 100 ms instead of the default 1 s: the
    // per-class mean of the rare `sample` tick is otherwise an average
    // over ~5 cold invocations — pure cache-miss lottery. 10× the ticks
    // keeps each one just as cold (they are still ~10^3 events apart)
    // while giving the mean statistical footing.
    {
        let mut sim = build_with_sampling(
            Box::new(Pi2::new(Pi2Config::default())),
            Duration::from_millis(100),
        );
        sim.enable_profiler();
        sim.run_until(Time::from_secs(secs));
        let prof = sim.take_profiler().expect("profiler was enabled");
        println!("--- event-loop profile (pi2, {secs} simulated s) ---");
        print!("{}", prof.render_table());
        metrics.extend(prof.metric_pairs());
    }

    // Allocation accounting (not timed): a warm-up past one overflow-
    // wheel rotation brings every pool and pre-sized series to its
    // high-water mark, `equalize_slot_capacities` levels the wheel slots
    // up to their observed peak, and the continuing steady-state loop
    // must then not touch the allocator at all. `tests/zero_alloc.rs`
    // asserts the same delta is exactly zero; here it is recorded in the
    // perf history so a regression shows up as a trajectory break too.
    {
        let mut sim = build(Box::new(Pi2::new(Pi2Config::default())));
        let total_secs = 36usize.saturating_add(secs as usize);
        // Periodic ticks are dominated by the 32 ms AQM control record.
        sim.core.monitor.reserve(total_secs * 40, total_secs * 6000);
        sim.run_until(Time::from_secs(36));
        sim.core.events.equalize_slot_capacities();
        let ev0 = sim.core.events.popped();
        let before = alloc_count::stats();
        sim.run_until(Time::from_secs(36 + secs));
        let d = alloc_count::stats().since(&before);
        let events = sim.core.events.popped() - ev0;
        let per_event = d.allocs as f64 / events.max(1) as f64;
        println!(
            "steady-state allocations: {} allocs / {} frees / {} bytes \
             over {events} events ({per_event:.6} allocs/event)",
            d.allocs, d.deallocs, d.bytes
        );
        metrics.push(("steady_state_allocs".to_string(), d.allocs as f64));
        metrics.push(("steady_state_allocs_per_event".to_string(), per_event));
    }

    // `PI2_OVERHEAD_GATE=1`: fail (exit 1) when the registry costs more
    // per event than the documented tolerance. CI runs this so a future
    // hot-path metrics hook cannot silently regress the simulator.
    let off = ms[1].ns_per_unit();
    let on = ms[2].ns_per_unit();
    let tol = std::env::var("PI2_OVERHEAD_TOL")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(DEFAULT_OVERHEAD_TOL);
    let ratio = if off > 0.0 { on / off } else { 1.0 };
    metrics.push(("metrics_overhead_ratio".to_string(), ratio));
    println!(
        "metrics overhead: {on:.1} ns/event on vs {off:.1} ns/event off \
         (ratio {ratio:.3}, tolerance {:.2})",
        1.0 + tol
    );
    if std::env::var("PI2_OVERHEAD_GATE").ok().as_deref() == Some("1") && ratio > 1.0 + tol {
        eprintln!(
            "OVERHEAD GATE FAILED: metrics-on is {:.1}% slower per event (allowed {:.0}%)",
            100.0 * (ratio - 1.0),
            100.0 * tol
        );
        std::process::exit(1);
    }
    // Work counters from one more (untimed) run per AQM: packet totals
    // from the always-on counting sink, so perf history can spot
    // behavioural drift, and what the engine spent on them. All of these
    // repeat exactly for a given `PI2_SECS`. The run is cut into 1 ms
    // slices only to read the pending-event count at each boundary.
    let makes: [(&Measurement, fn() -> Box<dyn Aqm>); 2] = [
        (&ms[0], || Box::new(Pie::new(PieConfig::paper_default()))),
        (&ms[1], || Box::new(Pi2::new(Pi2Config::default()))),
    ];
    for (m, make) in makes {
        let name = &m.name;
        let mut sim = build(make());
        let mut pending_high_water = 0;
        for ms in 1..=secs * 1000 {
            sim.run_until(Time::from_millis(ms));
            pending_high_water = pending_high_water.max(sim.core.events.len());
        }
        let t = sim.core.counters.totals();
        let pkts = t.dequeued.max(1) as f64;
        let ns_per_pkt = m.median_ns / pkts;
        let events_per_pkt = sim.core.events.popped() as f64 / pkts;
        metrics.push((format!("{name}_enq_pkts"), t.enqueued as f64));
        metrics.push((format!("{name}_marked_pkts"), t.marked as f64));
        metrics.push((format!("{name}_dropped_pkts"), t.dropped as f64));
        metrics.push((format!("{name}_dequeued_pkts"), t.dequeued as f64));
        metrics.push((format!("{name}_ns_per_pkt"), ns_per_pkt));
        metrics.push((format!("{name}_events_per_pkt"), events_per_pkt));
        metrics.push((
            format!("{name}_pending_high_water"),
            pending_high_water as f64,
        ));
        println!(
            "{name}: {ns_per_pkt:.1} ns/pkt, {events_per_pkt:.3} events/pkt, \
             {pending_high_water} events pending at most"
        );
    }
    // The loss episode: its cost per packet, and its size from the
    // monitor's account of the one flow.
    {
        let m = &ms[3];
        let name = &m.name;
        let sim = build_overshoot();
        let flow = &sim.core.monitor.flows[0];
        let pkts = flow.dequeued_pkts.max(1) as f64;
        let ns_per_pkt = m.median_ns / pkts;
        let drops_per_kpkt = 1000.0 * flow.dropped as f64 / pkts;
        metrics.push((format!("{name}_ns_per_pkt"), ns_per_pkt));
        metrics.push((format!("{name}_drops_per_kpkt"), drops_per_kpkt));
        println!(
            "{name}: {ns_per_pkt:.1} ns/pkt repairing {drops_per_kpkt:.3} drops per 1000 packets"
        );
    }
    record_and_report("sim_throughput", metrics);
}
