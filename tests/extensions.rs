//! Integration tests for the extension systems, exercised through the
//! public facade exactly as a downstream user would.

use pi2::aqm::{CurvyRed, CurvyRedConfig, DualPi2, DualPi2Config, FqConfig, FqDrr};
use pi2::netsim::Qdisc;
use pi2::prelude::*;

fn tcp_flow(cc: CcKind, ecn: EcnSetting) -> impl Fn(FlowId) -> Box<dyn Source> {
    move |id| Box::new(TcpSource::new(id, cc, ecn, TcpConfig::default()))
}

/// DualPI2 through `Sim::with_qdisc`: the whole "Data Centre to the Home"
/// pitch in one assertion set.
#[test]
fn dualq_delivers_low_latency_without_throughput_loss() {
    let mut sim = Sim::with_qdisc(
        SimConfig {
            seed: 3,
            monitor: MonitorConfig {
                warmup: Duration::from_secs(10),
                record_flow_sojourns: true,
                ..MonitorConfig::default()
            },
            ..SimConfig::default()
        },
        Box::new(DualPi2::new(DualPi2Config::for_link(40_000_000))) as Box<dyn Qdisc>,
    );
    let rtt = Duration::from_millis(10);
    sim.add_flow(PathConf::symmetric(rtt), "cubic", Time::ZERO, tcp_flow(CcKind::Cubic, EcnSetting::NotEcn));
    sim.add_flow(PathConf::symmetric(rtt), "dctcp", Time::ZERO, tcp_flow(CcKind::Dctcp, EcnSetting::Scalable));
    sim.run_until(Time::from_secs(40));
    let m = &sim.core.monitor;
    let sojourns = |label| -> Vec<f64> {
        m.labelled(label)
            .flat_map(|f| &f.sojourn_ms)
            .map(|&x| x as f64)
            .collect()
    };
    let (l, c) = (sojourns("dctcp"), sojourns("cubic"));
    let l_mean = pi2::stats::mean(&l);
    let c_mean = pi2::stats::mean(&c);
    assert!(l_mean < 2.0, "L-queue mean {l_mean:.2} ms");
    assert!((10.0..35.0).contains(&c_mean), "C-queue mean {c_mean:.2} ms");
    let total = m.pooled_mean_tput_mbps("cubic") + m.pooled_mean_tput_mbps("dctcp");
    assert!(total > 36.0, "total {total:.1} Mb/s of 40");
}

/// DualPI2 sends the packet it committed to when the link started: an L
/// packet that arrives while a C packet is on the wire waits for it, so
/// no DCTCP packet leaves sooner than its own serialisation (1500 B at
/// 40 Mb/s: 0.3 ms). Scheduling at `pop` instead sent two in three early.
#[test]
fn dualq_l_packets_wait_for_the_packet_on_the_wire() {
    use pi2::experiments::{isolation, AqmKind};
    let rate = 40_000_000;
    let rtt = Duration::from_millis(20);
    let sc = isolation::scenario(AqmKind::dualq_default(rate), rate, rtt, (1, 1), 6, 7);
    let m = sc.run().monitor;
    let l: Vec<f32> = m
        .labelled("dctcp")
        .flat_map(|f| f.sojourn_ms.iter().copied())
        .collect();
    assert!(l.len() > 5_000, "{} DCTCP packets", l.len());
    let early = l.iter().filter(|&&ms| f64::from(ms) < 0.3).count();
    assert_eq!(early, 0, "{early} of {} DCTCP sojourns under 0.3 ms", l.len());
}

/// FQ-DRR as a qdisc: n identical flows each get ~1/n of the link.
#[test]
fn fq_shares_equally_across_identical_flows() {
    let mut sim = Sim::with_qdisc(
        SimConfig {
            seed: 5,
            monitor: MonitorConfig {
                warmup: Duration::from_secs(10),
                ..MonitorConfig::default()
            },
            ..SimConfig::default()
        },
        Box::new(FqDrr::new(FqConfig::for_link(30_000_000))) as Box<dyn Qdisc>,
    );
    for i in 0..3 {
        let label = ["a", "b", "c"][i];
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(20)),
            label,
            Time::ZERO,
            tcp_flow(CcKind::Cubic, EcnSetting::NotEcn),
        );
    }
    sim.run_until(Time::from_secs(40));
    let m = &sim.core.monitor;
    let rates: Vec<f64> = ["a", "b", "c"]
        .iter()
        .map(|l| m.pooled_mean_tput_mbps(l))
        .collect();
    let jain = pi2::stats::jain_fairness(&rates);
    assert!(jain > 0.95, "Jain index {jain:.3} for {rates:?}");
}

/// Curvy RED controls a mixed workload without collapse.
#[test]
fn alternative_aqms_remain_stable_on_mixed_traffic() {
    let mut sim = Sim::new(
        SimConfig {
            queue: QueueConfig {
                rate_bps: 10_000_000,
                buffer_bytes: 40_000 * 1500,
            },
            seed: 6,
            monitor: MonitorConfig {
                warmup: Duration::from_secs(10),
                ..MonitorConfig::default()
            },
        },
        Box::new(CurvyRed::new(CurvyRedConfig::default())),
    );
    let rtt = Duration::from_millis(40);
    for _ in 0..4 {
        sim.add_flow(
            PathConf::symmetric(rtt),
            "tcp",
            Time::ZERO,
            tcp_flow(CcKind::Reno, EcnSetting::NotEcn),
        );
    }
    sim.add_flow(PathConf::symmetric(rtt), "udp", Time::ZERO, |id| {
        Box::new(UdpCbrSource::new(id, 2_000_000, 1500, Ecn::NotEct))
    });
    sim.run_until(Time::from_secs(40));
    let m = &sim.core.monitor;
    let s: Vec<f64> = m.sojourn_ms.iter().map(|&x| x as f64).collect();
    let mean = pi2::stats::mean(&s);
    assert!(
        (0.5..80.0).contains(&mean),
        "curvy: mean delay {mean:.1} ms"
    );
    let util_samples = m.util_samples();
    let util: f64 = util_samples.iter().map(|&x| x as f64).sum::<f64>()
        / util_samples.len() as f64;
    assert!(util > 0.85, "curvy: utilization {util:.2}");
}

/// Per-packet tracing: every dequeued packet was admitted first, and the
/// rendered trace is line-per-event.
#[test]
fn trace_records_coherent_packet_lifecycles() {
    use pi2::netsim::{MemorySink, TraceEvent};
    use std::cell::RefCell;
    use std::rc::Rc;
    let mut sim = Sim::new(
        SimConfig {
            queue: QueueConfig {
                rate_bps: 10_000_000,
                buffer_bytes: 40_000 * 1500,
            },
            seed: 9,
            monitor: MonitorConfig::default(),
        },
        Box::new(Pi2::new(Pi2Config::default())),
    );
    let handle = Rc::new(RefCell::new(MemorySink::new(10_000)));
    sim.core.add_trace_sink(Box::new(Rc::clone(&handle)));
    sim.add_flow(
        PathConf::symmetric(Duration::from_millis(20)),
        "f",
        Time::ZERO,
        tcp_flow(CcKind::Reno, EcnSetting::NotEcn),
    );
    sim.run_until(Time::from_secs(5));
    let trace = handle.borrow();
    assert!(!trace.events().is_empty());
    // Timestamps are non-decreasing and every dequeue has a prior enqueue
    // of the same (flow, seq).
    let mut enqueued = std::collections::HashSet::new();
    let mut last = Time::ZERO;
    for ev in trace.events() {
        assert!(ev.time() >= last);
        last = ev.time();
        match *ev {
            TraceEvent::Enqueue { flow, seq, .. } => {
                enqueued.insert((flow, seq));
            }
            TraceEvent::Dequeue { flow, seq, .. } => {
                assert!(
                    enqueued.contains(&(flow, seq)),
                    "dequeue of never-enqueued f{}#{seq}",
                    flow.0
                );
            }
            _ => {}
        }
    }
    let text: String = trace.events().iter().map(|ev| ev.jsonl() + "\n").collect();
    assert_eq!(text.lines().count(), trace.events().len());
    assert!(text.contains("{\"ev\":\"enq\","));
    assert!(text.contains("{\"ev\":\"deq\","));
}

/// The CLI parser round-trips a realistic command line (library-level —
/// the binary itself is exercised manually / in CI).
#[test]
fn pi2sim_cli_parses_realistic_lines() {
    use pi2_bench::cli::{parse_args, parse_flows};
    let argv: Vec<String> = "--aqm dualq --rate 100M --rtt 5ms --flows 2xcubic,2xdctcp --secs 45 --warmup 15 --csv"
        .split_whitespace()
        .map(|s| s.to_string())
        .collect();
    let a = parse_args(&argv).expect("parse");
    assert_eq!(a.aqm, "dualq");
    assert_eq!(a.rate_bps, 100_000_000);
    assert!(a.csv);
    assert_eq!(parse_flows("10xscalable").unwrap()[0].count, 10);
}
