//! Drivers for what watches a run: the `Monitor`, each trace sink, the
//! auditor, `SimMetrics`, the `obs` registry and histogram, and the
//! `stats` summaries.

use super::{Group, MS, NS, US};
use crate::workloads::{build_sim, bulk_scenario, CountingWriter};
use pi2_netsim::{
    AuditSink, CountingSink, CsvSink, Decision, Ecn, FlowId, JsonlSink, MemorySink, Monitor,
    MonitorConfig, PerfettoSink, SimMetrics, TraceEvent, TraceSink,
};
use pi2_obs::Histogram;
use pi2_simcore::{Duration, Rng, Time};
use pi2_stats::{Cdf, Summary};
use std::hint::black_box;

/// Packets recorded into the monitor drivers.
const MONITOR_PKTS: u64 = 1_000_000;
const FLOWS: u32 = 20;

/// A monitor that has seen [`MONITOR_PKTS`] packets of 20 flows, half of
/// them labelled `a`, half `b`, none in warm-up.
fn recorded_monitor(pkts: u64) -> Monitor {
    let mut m = Monitor::new(MonitorConfig {
        warmup: Duration::ZERO,
        ..MonitorConfig::default()
    });
    m.reserve(64, pkts as usize);
    for f in 0..FLOWS {
        m.register_flow(if f % 2 == 0 { "a" } else { "b" });
    }
    let mut now = Time::from_millis(1);
    for i in 0..pkts {
        let flow = FlowId((i % u64::from(FLOWS)) as u32);
        now += Duration::from_micros(12);
        m.record_send(flow, 1500, Decision::pass(0.01), now);
        m.record_dequeue(
            flow,
            1500,
            Duration::from_micros(20_000 + (i % 977) as i64),
            now,
        );
        m.record_delivered(flow, 1500, now);
    }
    m
}

pub fn monitor(g: &mut Group) {
    let pkts = if g.quick {
        MONITOR_PKTS / 10
    } else {
        MONITOR_PKTS
    };
    g.per_op_heavy("netsim.monitor.record_ns", NS, pkts, || {
        black_box(recorded_monitor(pkts));
    });
    let m = recorded_monitor(pkts);
    let sample_bytes: usize = m.sojourn_ms.len() * 4
        + m.flows
            .iter()
            .map(|f| (f.prob_samples.len() + f.sojourn_ms.len()) * 4)
            .sum::<usize>();
    g.exact(
        "netsim.monitor.bytes_per_pkt",
        sample_bytes as f64 / pkts as f64,
    );
    // What the end of a sweep cell does: clone the monitor out of the
    // simulator, then reduce it to the figures' summaries.
    g.per_op_heavy("netsim.monitor.summarise_ms", MS, 1, || {
        let m = m.clone();
        black_box(Summary::of_f32(&m.sojourn_ms));
        for label in ["a", "b"] {
            let probs: Vec<f64> = m
                .pooled_probs(label)
                .iter()
                .map(|&p| f64::from(p) * 100.0)
                .collect();
            black_box(Summary::of(&probs));
            black_box(m.pooled_mean_tput_mbps(label));
        }
        black_box(m.util_samples());
    });
}

/// A legal bottleneck event stream: every packet is admitted (every 8th
/// CE-marked first) and dequeued 1 ms later; every 64th is dropped.
fn event_stream(pkts: u64) -> Vec<TraceEvent> {
    let mut evs = Vec::new();
    for seq in 0..pkts {
        let t = Time::from_micros(12 * seq);
        let flow = FlowId((seq % u64::from(FLOWS)) as u32);
        if seq % 64 == 63 {
            evs.push(TraceEvent::Drop {
                t,
                flow,
                seq,
                prob: 0.02,
            });
            continue;
        }
        let marked = seq % 8 == 7;
        if marked {
            evs.push(TraceEvent::Mark {
                t,
                flow,
                seq,
                prob: 0.1,
            });
        }
        let ecn = if marked { Ecn::Ce } else { Ecn::NotEct };
        evs.push(TraceEvent::Enqueue { t, flow, seq, ecn });
        evs.push(TraceEvent::Dequeue {
            t,
            flow,
            seq,
            sojourn: Duration::from_millis(1),
        });
    }
    evs
}

fn feed(sink: &mut dyn TraceSink, evs: &[TraceEvent]) {
    for ev in evs {
        sink.on_event(ev);
    }
}

pub fn sinks(g: &mut Group) {
    let evs = event_stream(if g.quick { 2_000 } else { 20_000 });
    let n = evs.len() as u64;
    let w = CountingWriter::default;
    g.per_op_with(
        "netsim.sink.jsonl_ns",
        NS,
        n,
        || JsonlSink::new(w()),
        |mut s| feed(&mut s, &evs),
    );
    g.per_op_with(
        "netsim.sink.csv_ns",
        NS,
        n,
        || CsvSink::new(w()),
        |mut s| feed(&mut s, &evs),
    );
    g.per_op_with(
        "netsim.sink.perfetto_ns",
        NS,
        n,
        || PerfettoSink::new(w()),
        |mut s| feed(&mut s, &evs),
    );
    g.per_op_with(
        "netsim.sink.counting_ns",
        NS,
        n,
        CountingSink::new,
        |mut s| feed(&mut s, &evs),
    );
    g.per_op_with(
        "netsim.sink.memory_ns",
        NS,
        n,
        MemorySink::unbounded,
        |mut s| feed(&mut s, &evs),
    );
    g.per_op_with(
        "netsim.audit.ns",
        NS,
        n,
        || AuditSink::new(1),
        |mut s| feed(&mut s, &evs),
    );
    g.per_op_with("netsim.metrics.note_ns", NS, n, SimMetrics::new, |mut m| {
        for ev in &evs {
            match ev {
                TraceEvent::Enqueue { ecn, .. } => m.note_enqueue(*ecn),
                TraceEvent::Mark { .. } => m.note_mark(),
                TraceEvent::Drop { .. } => m.note_drop(),
                TraceEvent::Dequeue { sojourn, .. } => m.note_dequeue(*sojourn),
            }
        }
        black_box(m.dequeued());
    });
}

/// The registry of a finished `bulk_run` second: its exporters and merge,
/// and the histogram underneath.
pub fn registry(g: &mut Group, seed: u64) {
    let sc = bulk_scenario(seed, 1);
    let mut sim = build_sim(&sc);
    sim.run_until(sc.duration);
    let metrics = sim.core.take_metrics().expect("build_sim enables metrics");
    let reps = 200u64;
    g.per_op("obs.registry.to_json_us", US, reps, || {
        for _ in 0..reps {
            black_box(metrics.registry().to_json());
        }
    });
    g.per_op("obs.registry.to_prometheus_us", US, reps, || {
        for _ in 0..reps {
            black_box(metrics.registry().to_prometheus());
        }
    });
    g.per_op_with(
        "obs.registry.merge_us",
        US,
        reps,
        || metrics.clone(),
        |mut acc| {
            for _ in 0..reps {
                acc.merge(&metrics);
            }
            black_box(acc.dequeued());
        },
    );

    let mut rng = Rng::new(seed);
    let values: Vec<u64> = (0..100_000)
        .map(|_| rng.range_u64(1_000, 50_000_000))
        .collect();
    g.per_op_with(
        "obs.hist.record_ns",
        NS,
        values.len() as u64,
        Histogram::new,
        |mut h| {
            for &v in &values {
                h.record(v);
            }
            black_box(h.count());
        },
    );
    let mut h = Histogram::new();
    values.iter().for_each(|&v| h.record(v));
    let quantiles = 1_000u64;
    g.per_op("obs.hist.quantile_us", US, quantiles, || {
        for i in 0..quantiles {
            black_box(h.quantile(i as f64 / quantiles as f64));
        }
    });
}

pub fn stats(g: &mut Group) {
    let n = if g.quick { 20_000 } else { 200_000 };
    let mut rng = Rng::new(3);
    let samples: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 40.0)).collect();
    g.per_op("stats.summary.ns_per_sample", NS, n, || {
        black_box(Summary::of(&samples));
    });
    g.per_op_with(
        "stats.cdf.ns_per_sample",
        NS,
        n,
        || samples.clone(),
        |v| {
            let cdf = Cdf::new(v);
            black_box(cdf.quantile(0.99));
        },
    );
}
