//! Checkpoint/restore determinism oracle.
//!
//! The contract under test: `Sim::save` at any instant, `Sim::restore`
//! into a freshly built simulator of the same configuration, replay to
//! the end — and every observable (the JSONL event trace, the always-on
//! counters, the monitor's per-flow accounts, probability columns and
//! sojourn series, the metrics registry snapshot) is *bit-identical* to
//! the run that never stopped. Any hidden state — a field forgotten by a
//! `save_ckpt`, an estimator cycle, a stale timer id, an RNG draw — shows
//! up here as a diverging trace byte.
//!
//! The oracle runs over a grid of AQM × traffic-mix cells covering every
//! policy family in the workspace (single-queue AQMs, the DualPI2 and FQ
//! qdiscs, tail-drop) plus multi-hop chains with finite ("mouse") flows,
//! with the invariant auditor attached, at several snapshot times
//! (mid-warmup, mid-disturbance, and with far-future scheduled events in
//! the wheel's far list), and under the parallel sweep executor at 1, 2
//! and 4 workers.

use pi2::aqm::{
    CoupledPi2, CoupledPi2Config, CurvyRed, CurvyRedConfig, DualPi2, DualPi2Config, FqConfig,
    FqDrr, Pi, PiConfig, Pi2, Pi2Config, Pie, PieConfig, StepMarkConfig,
};
use pi2::experiments::runner::par_map_threads;
use pi2::experiments::{AqmKind, BgGroup, FlowGroup, FluidBackground, Scenario};
use pi2::netsim::{AuditSink, Event, JsonlSink, Qdisc, QueueSnapshot, TimerKind};
use pi2::prelude::*;
use pi2::simcore::{Ckpt, CkptError, CkptWriter};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// One cell of the oracle grid.
#[derive(Clone, Copy, Debug)]
struct Cell {
    aqm: &'static str,
    mix: &'static str,
    seed: u64,
}

/// Every AQM family × a traffic mix its classifier actually exercises.
const GRID: &[Cell] = &[
    Cell { aqm: "pi2", mix: "classic", seed: 11 },
    Cell { aqm: "pi2", mix: "mixed", seed: 12 },
    Cell { aqm: "pie", mix: "classic", seed: 13 },
    Cell { aqm: "pi", mix: "scalable", seed: 14 },
    Cell { aqm: "coupled", mix: "mixed", seed: 15 },
    Cell { aqm: "dualq", mix: "mixed", seed: 16 },
    Cell { aqm: "fq", mix: "mixed", seed: 17 },
    Cell { aqm: "bare-pie", mix: "classic", seed: 18 },
    Cell { aqm: "curvy", mix: "mixed", seed: 20 },
    Cell { aqm: "taildrop", mix: "udp", seed: 21 },
    // Multi-hop + finite flows: the checkpoint must carry every extra
    // hop's qdisc, transmit latch and flow-byte row, in-flight
    // HopArrive and per-hop Dequeue/AqmUpdate events, and a short
    // flow's completion state.
    Cell { aqm: "pi2", mix: "multihop", seed: 22 },
    Cell { aqm: "dualq", mix: "multihop", seed: 23 },
    // Hybrid backend: the checkpoint must carry the fluid background's
    // full state (per-class windows, the engine clock, served-byte and
    // rate-track accounting, the applied grant) or the replayed grants —
    // and with them the foreground's link rate — diverge.
    Cell { aqm: "pi2", mix: "hybrid", seed: 24 },
    Cell { aqm: "dualq", mix: "hybrid", seed: 25 },
    // Lazy timers: a source's timer is a deadline plus the one wheel event
    // standing in for it, and both must round-trip. The outage leaves
    // every flow inside an RTO backoff episode at the 2.1 s snapshot;
    // delayed ACKs keep a second timer per flow armed and cancelled.
    Cell { aqm: "outage", mix: "classic", seed: 26 },
    Cell { aqm: "pi2", mix: "delack", seed: 27 },
];

const RATE: u64 = 10_000_000;
const T_END: Time = Time::from_secs(4);

/// Drops every packet offered inside `[from, to)`: with no ACKs coming
/// back, each flow's retransmission timer fires and backs off until the
/// outage ends.
struct Outage {
    from: Time,
    to: Time,
}

impl Aqm for Outage {
    fn on_enqueue(&mut self, _: &Packet, _: &QueueSnapshot, now: Time, _: &mut Rng) -> Decision {
        if (self.from..self.to).contains(&now) {
            Decision::drop(1.0)
        } else {
            Decision::pass(0.0)
        }
    }
    fn name(&self) -> &'static str {
        "outage"
    }
}
// The window is configuration; there is no state to carry.
pi2::simcore::ckpt_fields!(Outage {});

/// A small two-class fluid background for the hybrid cells.
fn background(aqm: &str) -> FluidBackground {
    let kind = match aqm {
        "pi2" => AqmKind::Pi2(Pi2Config::default()),
        "dualq" => AqmKind::DualQ(DualPi2Config::for_link(RATE)),
        other => panic!("no hybrid cell for {other}"),
    };
    let groups = [
        BgGroup::new(3, CcKind::Reno, Duration::from_millis(40), "bg-reno"),
        BgGroup::new(2, CcKind::Dctcp, Duration::from_millis(40), "bg-dctcp"),
    ];
    FluidBackground::new(&groups, &kind, RATE).expect("PI-family AQMs are fluid-encodable")
}

fn build_sim(cell: &Cell) -> Sim {
    let cfg = SimConfig {
        queue: QueueConfig {
            rate_bps: RATE,
            buffer_bytes: 40_000 * 1500,
        },
        seed: cell.seed,
        monitor: MonitorConfig::default(),
    };
    let mut sim = match cell.aqm {
        "dualq" => Sim::with_qdisc(
            cfg,
            Box::new(DualPi2::new(DualPi2Config::for_link(RATE))) as Box<dyn Qdisc>,
        ),
        "fq" => Sim::with_qdisc(
            cfg,
            Box::new(FqDrr::new(FqConfig::for_link(RATE))) as Box<dyn Qdisc>,
        ),
        name => {
            let aqm: Box<dyn Aqm> = match name {
                "pi2" => Box::new(Pi2::new(Pi2Config::default())),
                "pie" => Box::new(Pie::new(PieConfig::paper_default())),
                "bare-pie" => Box::new(Pie::new(PieConfig::bare())),
                "pi" => Box::new(Pi::new(PiConfig::default())),
                "coupled" => Box::new(CoupledPi2::new(CoupledPi2Config::default())),
                "curvy" => Box::new(CurvyRed::new(CurvyRedConfig::default())),
                "taildrop" => Box::new(PassAqm),
                "outage" => Box::new(Outage {
                    from: Time::from_millis(1300),
                    to: Time::from_millis(2800),
                }),
                other => panic!("unknown AQM {other}"),
            };
            Sim::new(cfg, aqm)
        }
    };
    let rtt = Duration::from_millis(40);
    let cfg = TcpConfig {
        delayed_ack: cell.mix == "delack",
        ..TcpConfig::default()
    };
    let tcp = |sim: &mut Sim, label: &str, cc: CcKind, ecn: EcnSetting| {
        sim.add_flow(PathConf::symmetric(rtt), label, Time::ZERO, move |id| {
            Box::new(TcpSource::new(id, cc, ecn, cfg))
        });
    };
    match cell.mix {
        "classic" => {
            tcp(&mut sim, "reno", CcKind::Reno, EcnSetting::NotEcn);
            tcp(&mut sim, "reno", CcKind::Reno, EcnSetting::NotEcn);
            tcp(&mut sim, "cubic", CcKind::Cubic, EcnSetting::NotEcn);
        }
        "scalable" => {
            tcp(&mut sim, "dctcp", CcKind::Dctcp, EcnSetting::Scalable);
            tcp(&mut sim, "dctcp", CcKind::Dctcp, EcnSetting::Scalable);
        }
        "mixed" | "delack" => {
            tcp(&mut sim, "cubic", CcKind::Cubic, EcnSetting::NotEcn);
            tcp(&mut sim, "ecn-cubic", CcKind::Cubic, EcnSetting::Classic);
            tcp(&mut sim, "dctcp", CcKind::Dctcp, EcnSetting::Scalable);
        }
        "udp" => {
            tcp(&mut sim, "reno", CcKind::Reno, EcnSetting::NotEcn);
            sim.add_flow(PathConf::symmetric(rtt), "udp", Time::ZERO, |id| {
                Box::new(UdpCbrSource::new(id, 6_000_000, 1500, Ecn::NotEct))
            });
            // An on-off burst exercises the timer round-trip through a
            // checkpointed idle period.
            sim.add_flow(PathConf::symmetric(rtt), "burst", Time::ZERO, |id| {
                Box::new(pi2::netsim::OnOffCbrSource::new(
                    id,
                    4_000_000,
                    1000,
                    Duration::from_millis(300),
                    Duration::from_millis(700),
                ))
            });
        }
        "multihop" => {
            // A 3-hop chain: the primary bottleneck plus two PI2-guarded
            // hops (their own AQM update timers live in the event wheel).
            let hop = |rate: u64| -> Box<dyn Qdisc> {
                Box::new(pi2::netsim::BottleneckQueue::new(
                    QueueConfig {
                        rate_bps: rate,
                        buffer_bytes: 40_000 * 1500,
                    },
                    Box::new(Pi2::new(Pi2Config::default())),
                ))
            };
            let h1 = sim.add_hop(hop(RATE), Duration::from_millis(3));
            let h2 = sim.add_hop(hop(RATE / 2), Duration::from_millis(3));
            tcp(&mut sim, "cubic", CcKind::Cubic, EcnSetting::NotEcn);
            tcp(&mut sim, "dctcp", CcKind::Dctcp, EcnSetting::Scalable);
            sim.set_route(FlowId(0), vec![0, h1, h2]);
            sim.set_route(FlowId(1), vec![h1, h2]);
            // A finite "mouse" whose completion state must round-trip:
            // it starts before the late snapshot and finishes in flight.
            let mouse = sim.add_flow(PathConf::symmetric(rtt), "mouse", Time::from_millis(600), |id| {
                Box::new(TcpSource::new(
                    id,
                    CcKind::Cubic,
                    EcnSetting::NotEcn,
                    TcpConfig {
                        data_limit: Some(60),
                        ..TcpConfig::default()
                    },
                ))
            });
            sim.set_route(mouse, vec![0, h1, h2]);
            // Cross traffic entering at the last hop only.
            let cross = sim.add_flow(PathConf::symmetric(rtt), "cross", Time::ZERO, |id| {
                Box::new(UdpCbrSource::new(id, 2_000_000, 1000, Ecn::NotEct))
            });
            sim.set_route(cross, vec![h2]);
        }
        // Same flow set as "mixed", plus the fluid background — so a
        // hybrid blob offered to a "mixed" sim differs ONLY in the
        // background-presence fold of the schema hash.
        "hybrid" => {
            tcp(&mut sim, "cubic", CcKind::Cubic, EcnSetting::NotEcn);
            tcp(&mut sim, "ecn-cubic", CcKind::Cubic, EcnSetting::Classic);
            tcp(&mut sim, "dctcp", CcKind::Dctcp, EcnSetting::Scalable);
            sim.attach_background(Box::new(background(cell.aqm)));
        }
        other => panic!("unknown mix {other}"),
    }
    // Mid-run disturbances: a rate step down and back and a flow
    // stop/restart — all scheduled up front, so a snapshot taken before
    // they fire must carry them as far-future events.
    sim.set_rate_at(Time::from_millis(1800), RATE / 2);
    sim.set_rate_at(Time::from_millis(2600), RATE);
    sim.stop_flow_at(FlowId(1), Time::from_millis(1900));
    sim.start_flow_at(FlowId(1), Time::from_millis(2800));
    sim
}

/// Attach the full observer set (auditor, metrics, a JSONL sink) to a
/// sim and return the sink handle.
fn observe(sim: &mut Sim, seed: u64) -> Rc<RefCell<JsonlSink<Vec<u8>>>> {
    sim.core.enable_audit(AuditSink::new(seed));
    sim.core.enable_metrics();
    let sink = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
    sim.core.add_trace_sink(Box::new(Rc::clone(&sink)));
    sink
}

/// Drain a sink handle into its accumulated bytes.
fn trace_bytes(sim: &mut Sim, sink: Rc<RefCell<JsonlSink<Vec<u8>>>>) -> Vec<u8> {
    sim.core.flush_trace_sinks().expect("flush");
    drop(sim.core.take_trace_sinks());
    Rc::try_unwrap(sink).expect("sole owner").into_inner().into_inner()
}

/// The end-of-run observables we require to be bit-identical.
struct Observables {
    trace: Vec<u8>,
    metrics_json: String,
    popped: u64,
    pushed: u64,
    totals: (u64, u64, u64, u64),
    aqm_updates: u64,
    /// The run-wide sojourn column, expanded from its runs, as bits.
    sojourn_ms: Vec<u32>,
    /// Each flow's probability column, expanded from its runs, as bits.
    probs: Vec<Vec<u32>>,
    flows: Vec<(u64, u64, u64, u64)>,
    hop_bytes: Vec<Vec<u64>>,
}

fn observables(mut sim: Sim, sink: Rc<RefCell<JsonlSink<Vec<u8>>>>) -> Observables {
    let metrics = sim.core.take_metrics().expect("metrics enabled");
    let t = sim.core.counters.totals();
    Observables {
        trace: trace_bytes(&mut sim, sink),
        metrics_json: metrics.registry().to_json(),
        popped: sim.core.events.popped(),
        pushed: sim.core.events.pushed(),
        totals: (t.enqueued, t.marked, t.dropped, t.dequeued),
        aqm_updates: sim.core.counters.aqm_updates,
        sojourn_ms: sim.core.monitor.sojourn_ms.iter().map(|s| s.to_bits()).collect(),
        probs: (sim.core.monitor.flows.iter())
            .map(|f| f.prob_samples.iter().map(|p| p.to_bits()).collect())
            .collect(),
        flows: (sim.core.monitor.flows.iter().enumerate())
            .map(|(i, f)| {
                let c = sim.core.counters.flow(FlowId(i as u32));
                (f.sent_pkts, f.dequeued_bytes, c.marked, c.dropped)
            })
            .collect(),
        hop_bytes: (0..sim.core.hop_count() as u32)
            .map(|h| sim.core.hop_flow_bytes(h).to_vec())
            .collect(),
    }
}

/// The oracle for one cell and one snapshot time. Returns a description
/// of the first divergence, or `None` when the restored replay is
/// bit-identical to the straight-through run.
fn oracle(cell: &Cell, snap_at: Time) -> Option<String> {
    oracle_from(cell, &format!("@ {snap_at}"), |sim| sim.run_until(snap_at))
}

/// [`oracle`] with the snapshot taken wherever `advance` leaves a freshly
/// built simulator.
fn oracle_from(cell: &Cell, at: &str, advance: impl Fn(&mut Sim)) -> Option<String> {
    let tag = format!("{}×{} {at}", cell.aqm, cell.mix);
    oracle_with(&tag, cell.seed, T_END, || build_sim(cell), advance)
}

/// The oracle over any way to build the simulator: `build` is called
/// three times and must describe the same run, `t_end` long, each time.
fn oracle_with(
    tag: &str,
    seed: u64,
    t_end: Time,
    build: impl Fn() -> Sim,
    advance: impl Fn(&mut Sim),
) -> Option<String> {
    // Arm P: run to the snapshot point, save. Its trace is the prefix the
    // restored arm must never re-emit.
    let mut p_sim = build();
    let p_sink = observe(&mut p_sim, seed);
    advance(&mut p_sim);
    // run_until stops on the last event at or before `snap_at`; the
    // restored clock must match the clock at save time, not the nominal
    // snapshot instant.
    let t_save = p_sim.core.now();
    let blob = p_sim.save();
    let prefix = trace_bytes(&mut p_sim, p_sink);

    // Arm F: the straight-through reference.
    let mut f_sim = build();
    let f_sink = observe(&mut f_sim, seed);
    f_sim.run_until(t_end);
    let f_obs = observables(f_sim, f_sink);
    if !f_obs.trace.starts_with(&prefix) {
        return Some(format!("{tag}: reference trace does not extend the prefix"));
    }

    // Arm R: fresh sim, restore, replay. The auditor is attached before
    // restore (it re-baselines); the trace sink only ever sees the suffix.
    let mut r_sim = build();
    let r_sink = observe(&mut r_sim, seed);
    if let Err(e) = r_sim.restore(&blob) {
        return Some(format!("{tag}: restore failed: {e:?}"));
    }
    if r_sim.core.now() != t_save {
        return Some(format!("{tag}: restored clock {} != {t_save}", r_sim.core.now()));
    }
    // Every field restored is every field saved: the restored sim writes
    // the blob back byte for byte.
    if r_sim.save() != blob {
        return Some(format!("{tag}: re-saving the restored sim changes the blob"));
    }
    r_sim.run_until(t_end);
    let r_obs = observables(r_sim, r_sink);

    let suffix = &f_obs.trace[prefix.len()..];
    if r_obs.trace != suffix {
        let n = r_obs
            .trace
            .iter()
            .zip(suffix)
            .take_while(|(a, b)| a == b)
            .count();
        return Some(format!(
            "{tag}: replay trace diverges from the reference at suffix byte {n} \
             (replay {} bytes, reference suffix {} bytes)",
            r_obs.trace.len(),
            suffix.len()
        ));
    }
    if r_obs.metrics_json != f_obs.metrics_json {
        return Some(format!("{tag}: metrics snapshots differ"));
    }
    if (r_obs.popped, r_obs.pushed) != (f_obs.popped, f_obs.pushed) {
        return Some(format!(
            "{tag}: event totals differ: popped/pushed {}/{} vs {}/{}",
            r_obs.popped, r_obs.pushed, f_obs.popped, f_obs.pushed
        ));
    }
    if r_obs.totals != f_obs.totals || r_obs.aqm_updates != f_obs.aqm_updates {
        return Some(format!(
            "{tag}: counters differ: {:?}+{} vs {:?}+{}",
            r_obs.totals, r_obs.aqm_updates, f_obs.totals, f_obs.aqm_updates
        ));
    }
    if r_obs.sojourn_ms != f_obs.sojourn_ms {
        return Some(format!("{tag}: monitor sojourn series differ"));
    }
    if r_obs.probs != f_obs.probs {
        return Some(format!("{tag}: monitor probability columns differ"));
    }
    if r_obs.flows != f_obs.flows {
        return Some(format!(
            "{tag}: per-flow accounts differ: {:?} vs {:?}",
            r_obs.flows, f_obs.flows
        ));
    }
    if r_obs.hop_bytes != f_obs.hop_bytes {
        return Some(format!(
            "{tag}: per-hop flow-byte rows differ: {:?} vs {:?}",
            r_obs.hop_bytes, f_obs.hop_bytes
        ));
    }
    None
}

/// Snapshot instants: mid-warmup (steady growth), mid-disturbance (the
/// rate step at 1.8 s and the stop/restart events are in flight — some
/// fired, some still scheduled), and late (past every disturbance).
const SNAPS: &[Time] = &[
    Time::from_millis(700),
    Time::from_millis(2100),
    Time::from_millis(3300),
];

/// The full grid, every snapshot time, under the parallel sweep executor
/// at 1, 2 and 4 workers — the restored replay must be bit-identical to
/// the straight-through run in every cell, regardless of how the cells
/// are scheduled onto workers.
#[test]
fn restore_replay_is_bit_identical_across_the_grid() {
    let mut work: Vec<(Cell, Time)> = Vec::new();
    for cell in GRID {
        for &at in SNAPS {
            work.push((*cell, at));
        }
    }
    for threads in [1usize, 2, 4] {
        let failures: Vec<String> = par_map_threads(threads, &work, |(cell, at)| {
            oracle(cell, *at)
        })
        .into_iter()
        .flatten()
        .collect();
        assert!(
            failures.is_empty(),
            "{} cells diverged at {threads} workers:\n{}",
            failures.len(),
            failures.join("\n")
        );
    }
}

/// Whether a policy carries mutable state a checkpoint must hold. No
/// wildcard arm: an eleventh `AqmKind` does not compile until it is
/// classified here and added to the list below.
fn stateful(kind: &AqmKind) -> bool {
    match kind {
        AqmKind::TailDrop | AqmKind::FixedProb(_) | AqmKind::StepMark(_) => false,
        AqmKind::Pie(_)
        | AqmKind::Pi2(_)
        | AqmKind::Pi(_)
        | AqmKind::Coupled(_)
        | AqmKind::DualQ(_)
        | AqmKind::Fq(_)
        | AqmKind::Curvy(_) => true,
    }
}

/// Every `AqmKind` variant through restore ≡ replay, built the way every
/// experiment builds it (`Scenario::build`): save at t/2, restore into a
/// fresh build, and the replay must be the straight-through run. A
/// stateful policy must also *write* something: one whose `save_ckpt`
/// is an empty body fails here by name even if the state it lost happens
/// not to move this short cell.
#[test]
fn every_aqm_kind_restores_to_the_run_that_never_stopped() {
    let kinds = [
        AqmKind::pie_default(),
        AqmKind::pi2_default(),
        AqmKind::Pi(PiConfig::default()),
        AqmKind::coupled_default(),
        AqmKind::TailDrop,
        AqmKind::dualq_default(RATE),
        AqmKind::Fq(FqConfig::for_link(RATE)),
        AqmKind::Curvy(CurvyRedConfig::default()),
        AqmKind::FixedProb(0.02),
        AqmKind::StepMark(StepMarkConfig::default()),
    ];
    let mut names: Vec<&str> = kinds.iter().map(AqmKind::name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 10, "one cell per AqmKind variant: {names:?}");

    let queue = QueueConfig { rate_bps: RATE, buffer_bytes: 40_000 * 1500 };
    let blob_len = |kind: &AqmKind| {
        let mut w = CkptWriter::new();
        kind.build_qdisc(queue).save_ckpt(&mut w);
        w.len()
    };
    let fifo_len = blob_len(&AqmKind::TailDrop);
    let failures: Vec<String> = par_map_threads(2, &kinds, |kind| {
        let name = kind.name();
        // The policy's own section of the blob: what the AQM adds to an
        // empty tail-drop FIFO's, the whole qdisc's for the two that are one.
        let section = match kind {
            AqmKind::DualQ(_) | AqmKind::Fq(_) => blob_len(kind),
            _ => blob_len(kind) - fifo_len,
        };
        if stateful(kind) == (section == 0) {
            return Some(format!(
                "{name}: stateful = {}, but save_ckpt wrote {section} bytes",
                stateful(kind)
            ));
        }
        let mut sc = Scenario::new(kind.clone(), RATE);
        let rtt = Duration::from_millis(20);
        sc.tcp.push(FlowGroup::new(2, CcKind::Reno, EcnSetting::NotEcn, "reno", rtt));
        sc.tcp.push(FlowGroup::new(2, CcKind::Dctcp, EcnSetting::Scalable, "dctcp", rtt));
        sc.duration = T_END;
        sc.warmup = Duration::from_secs(1);
        sc.seed = 31;
        let half = Time::from_secs(2);
        oracle_with(name, sc.seed, T_END, || sc.build().expect("a dumbbell builds"), |sim| {
            sim.run_until(half)
        })
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// What `pi2sim --scenario topology/parking-lot-3 --aqm dualq
/// --checkpoint-out/--restore` rests on: the family's own cell — DualPI2
/// on three hops, a thousand mice starting, finishing and still waiting
/// in the wheel — saved at t/2 restores to the run that never stopped.
/// Every hop is sending then, so each DualPI2 saves the queue whose head
/// it committed to the wire.
#[test]
fn a_topology_family_cell_restores_to_the_run_that_never_stopped() {
    use pi2::experiments::topology::{scenario_for, TopologyKind, LINK_BPS};
    let sc = scenario_for(TopologyKind::ParkingLot3, AqmKind::dualq_default(LINK_BPS), 9);
    let half = Time::ZERO + (sc.duration - Time::ZERO) / 2;
    let diverged = oracle_with(
        "parking-lot-3×dualpi2 @ t/2",
        sc.seed,
        sc.duration,
        || sc.build().expect("the family's cell builds"),
        |sim| {
            sim.run_until(half);
            for hop in 0..3 {
                assert!(sim.core.hop_qdisc(hop).len_pkts() > 0, "hop {hop} idle at t/2");
            }
        },
    );
    assert_eq!(diverged, None);
}

/// Pending timer events of `flow` that satisfy `kind`, in pop order.
fn pending_timers(sim: &Sim, flow: FlowId, kind: impl Fn(TimerKind) -> bool) -> Vec<Time> {
    sim.core
        .events
        .entries_sorted()
        .into_iter()
        .filter(|e| matches!(e.event, Event::Timer { flow: f, kind: k, .. } if f == flow && kind(k)))
        .map(|e| e.time)
        .collect()
}

/// Step until an ACK of `flow` has just been handled.
fn step_past_an_ack_of(sim: &mut Sim, flow: FlowId) {
    loop {
        let next = sim.core.events.entries_sorted()[0];
        let acks_flow =
            matches!(next.event, Event::AckArrive(h) if sim.core.acks.get(h).flow == flow);
        assert!(sim.step(), "the run ended before an ACK of {flow:?}");
        if acks_flow {
            return;
        }
    }
}

/// The grid's snapshot times catch lazy timers in whatever state they
/// happen to be in. These three snapshots are taken in states the test
/// first proves from the pending-event list, because each is a way for a
/// restore to go wrong that a running flow's steady state hides: a
/// stand-in that must wake *before* its deadline and move itself (restore
/// the stand-in but not the deadline, or the reverse, and the timer is
/// lost or fires early); a backed-off RTO, whose deadline lies further out
/// than any un-backed-off arming can; and a pending delayed-ACK timer.
#[test]
fn snapshots_in_named_timer_states_replay_bit_identically() {
    let min_rto = TcpConfig::default().min_rto;
    let rto = |k| k == TimerKind::Rto;

    // Just after an ACK of new data re-armed flow 0's RTO: the deadline is
    // at least min_rto away, so a stand-in due sooner wakes before it.
    // (Past 1 s, when the stand-in of the flow's first arming — the 1 s
    // RTO of a sender without an RTT sample, superseded by the first ACK
    // — has popped and been ignored.)
    let cell = Cell { aqm: "pi2", mix: "classic", seed: 11 };
    let advance = |sim: &mut Sim| {
        sim.run_until(Time::from_millis(1500));
        step_past_an_ack_of(sim, FlowId(0));
    };
    let mut sim = build_sim(&cell);
    advance(&mut sim);
    let standins = pending_timers(&sim, FlowId(0), rto);
    assert_eq!(standins.len(), 1, "one stand-in per armed timer");
    assert!(
        standins[0] < sim.core.now() + min_rto,
        "stand-in at {} is not ahead of a deadline past {}",
        standins[0],
        sim.core.now() + min_rto
    );
    assert_eq!(oracle_from(&cell, "after an ACK", advance), None);

    // 800 ms into the outage every flow has timed out several times: the
    // next timeout is further away than an RTO without backoff can be.
    let cell = Cell { aqm: "outage", mix: "classic", seed: 26 };
    let at = Time::from_millis(2100);
    let mut sim = build_sim(&cell);
    sim.run_until(at);
    let next_rto = pending_timers(&sim, FlowId(0), rto);
    assert!(
        next_rto.last().is_some_and(|&t| t > at + min_rto),
        "no backed-off RTO pending at {at}: {next_rto:?}"
    );
    assert_eq!(oracle(&cell, at), None);

    // A delayed-ACK timer (the source's `User` kind) pending at the
    // snapshot, on top of the RTO's.
    let cell = Cell { aqm: "pi2", mix: "delack", seed: 27 };
    let mut sim = build_sim(&cell);
    sim.run_until(at);
    let delack = (0..3)
        .flat_map(|f| pending_timers(&sim, FlowId(f), |k| matches!(k, TimerKind::User(_))))
        .count();
    assert!(delack > 0, "no delayed-ACK stand-in pending at {at}");
    assert_eq!(oracle(&cell, at), None);
}

/// Weather (the fault-injection layer) carries its own RNG and stats —
/// both must survive the round trip, or losses replay differently.
#[test]
fn restore_replay_is_bit_identical_with_impairments() {
    let cell = Cell { aqm: "pi2", mix: "classic", seed: 31 };
    let weather = || {
        LinkImpairments::new(97).symmetric(ImpairmentConf {
            loss: 0.02,
            dup: 0.01,
            jitter: Duration::from_millis(2),
        })
    };
    let snap_at = Time::from_millis(2100);

    let mut p_sim = build_sim(&cell);
    p_sim.core.set_impairments(weather());
    let p_sink = observe(&mut p_sim, cell.seed);
    p_sim.run_until(snap_at);
    let blob = p_sim.save();
    let prefix = trace_bytes(&mut p_sim, p_sink);

    let mut f_sim = build_sim(&cell);
    f_sim.core.set_impairments(weather());
    let f_sink = observe(&mut f_sim, cell.seed);
    f_sim.run_until(T_END);
    let f_obs = observables(f_sim, f_sink);
    assert!(f_obs.trace.starts_with(&prefix));

    let mut r_sim = build_sim(&cell);
    r_sim.core.set_impairments(weather());
    let r_sink = observe(&mut r_sim, cell.seed);
    r_sim.restore(&blob).expect("restore");
    r_sim.run_until(T_END);
    let r_obs = observables(r_sim, r_sink);

    assert_eq!(r_obs.trace, &f_obs.trace[prefix.len()..], "impaired replay trace");
    assert_eq!(r_obs.metrics_json, f_obs.metrics_json);
    assert_eq!(r_obs.totals, f_obs.totals);
    assert_eq!(r_obs.flows, f_obs.flows);
}

/// A sim missing the impairment layer must refuse a blob that has one
/// (and vice versa) rather than silently dropping the weather.
#[test]
fn impairment_presence_mismatch_is_rejected() {
    let cell = Cell { aqm: "pi2", mix: "classic", seed: 31 };
    let mut with = build_sim(&cell);
    with.core.set_impairments(LinkImpairments::new(97).symmetric(ImpairmentConf {
        loss: 0.02,
        dup: 0.0,
        jitter: Duration::ZERO,
    }));
    with.run_until(Time::from_millis(500));
    let blob = with.save();

    let mut without = build_sim(&cell);
    match without.restore(&blob) {
        Err(CkptError::Corrupt(msg)) => assert!(msg.contains("impairment"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// A sim without the hybrid background aggregate must refuse a blob that
/// has one (and vice versa) rather than silently dropping — or
/// fabricating — a background population.
#[test]
fn background_presence_mismatch_is_rejected() {
    let cell = Cell { aqm: "pi2", mix: "hybrid", seed: 71 };
    let mut with = build_sim(&cell);
    with.run_until(Time::from_millis(500));
    let blob = with.save();

    // Identical flow set ("mixed"), no background: the only schema
    // difference is the background-presence fold, and it must reject.
    let mut without = build_sim(&Cell { aqm: "pi2", mix: "mixed", seed: 71 });
    assert!(matches!(
        without.restore(&blob),
        Err(CkptError::SchemaMismatch { .. })
    ));

    // And the pristine round trip still works.
    let mut target = build_sim(&cell);
    target.restore(&blob).expect("hybrid blob restores");
    assert!(target.background().is_some());
}

/// Saving is read-only: saving twice at the same instant yields the same
/// bytes, and a saved run continues exactly like an unsaved one.
#[test]
fn save_is_read_only_and_deterministic() {
    let cell = Cell { aqm: "coupled", mix: "mixed", seed: 41 };
    let mut a = build_sim(&cell);
    a.run_until(Time::from_secs(1));
    let blob1 = a.save();
    let blob2 = a.save();
    assert_eq!(blob1, blob2, "save must be a pure function of the state");
    a.run_until(Time::from_secs(2));

    let mut b = build_sim(&cell);
    b.run_until(Time::from_secs(2));
    assert_eq!(a.core.events.popped(), b.core.events.popped());
    assert_eq!(a.core.counters, b.core.counters);
}

/// Header validation: magic, version and schema hash are each checked
/// before any state is touched.
#[test]
fn header_mismatches_are_rejected_with_the_right_error() {
    let cell = Cell { aqm: "pi2", mix: "classic", seed: 51 };
    let mut sim = build_sim(&cell);
    sim.run_until(Time::from_millis(300));
    let blob = sim.save();

    // Bad magic.
    let mut bad = blob.clone();
    bad[0] ^= 0xff;
    let mut target = build_sim(&cell);
    assert!(matches!(target.restore(&bad), Err(CkptError::BadMagic)));

    // Future version.
    let mut bad = blob.clone();
    bad[8] = bad[8].wrapping_add(1);
    let mut target = build_sim(&cell);
    assert!(matches!(
        target.restore(&bad),
        Err(CkptError::VersionMismatch { .. })
    ));

    // The previous version: a v13 blob writes the sojourn columns one
    // `f32` per sample, not as runs, and is refused by number.
    let mut bad = blob.clone();
    bad[8..12].copy_from_slice(&13u32.to_le_bytes());
    let mut target = build_sim(&cell);
    assert!(matches!(
        target.restore(&bad),
        Err(CkptError::VersionMismatch {
            found: 13,
            expected: 14
        })
    ));

    // Schema mismatch: a sim with a different flow set.
    let mut other = build_sim(&Cell { aqm: "pi2", mix: "mixed", seed: 51 });
    assert!(matches!(
        other.restore(&blob),
        Err(CkptError::SchemaMismatch { .. })
    ));

    // Trailing garbage.
    let mut bad = blob.clone();
    bad.push(0);
    let mut target = build_sim(&cell);
    assert!(matches!(target.restore(&bad), Err(CkptError::Corrupt(_))));

    // Truncation.
    let bad = &blob[..blob.len() - 3];
    let mut target = build_sim(&cell);
    assert!(matches!(target.restore(bad), Err(CkptError::Truncated)));

    // The pristine blob still restores after all those rejections.
    let mut target = build_sim(&cell);
    target.restore(&blob).expect("pristine blob restores");
    assert_eq!(target.core.now(), Time::from_millis(300));
}

/// Restoring twice from the same blob is idempotent: both replicas
/// replay to identical end states.
#[test]
fn restore_is_idempotent() {
    let cell = Cell { aqm: "dualq", mix: "mixed", seed: 61 };
    let mut sim = build_sim(&cell);
    sim.run_until(Time::from_secs(1));
    let blob = sim.save();

    let run = || {
        let mut r = build_sim(&cell);
        r.restore(&blob).expect("restore");
        r.run_until(Time::from_secs(3));
        (r.core.events.popped(), r.core.counters.clone())
    };
    assert_eq!(run(), run());
}

/// Multi-hop restore with the auditor on, as `PI2_AUDIT=1` runs it: the
/// snapshot is taken while hops 1 and 2 hold packets, and the auditor —
/// which is not checkpointed — must resume every hop's books from that
/// hop's restored occupancy, or the first post-restore departure at a
/// later hop reads as a packet that was never admitted. Both attach
/// orders are covered: before the hops exist (what `Sim::with_qdisc`
/// does under `PI2_AUDIT`) and after. Each arm replays to the end through
/// `run_until`'s `finish_audit` and must match the uninterrupted run.
#[test]
fn multihop_restore_rebaselines_the_auditor_at_every_hop() {
    let seed = 81;
    let build = |audit_before_hops: bool| {
        let queue = QueueConfig {
            rate_bps: RATE,
            buffer_bytes: 40_000 * 1500,
        };
        let cfg = SimConfig {
            queue,
            seed,
            monitor: MonitorConfig::default(),
        };
        let kind = AqmKind::Pi2(Pi2Config::default());
        let mut sim = Sim::with_qdisc(cfg, kind.build_qdisc(queue));
        if audit_before_hops {
            sim.core.enable_audit(AuditSink::new(seed));
        }
        let topo = pi2::netsim::Topology::parking_lot(3, Duration::from_millis(3));
        // Each hop slower than the one before, so every queue stands.
        topo.install(&mut sim.core, |hop| {
            kind.build_qdisc(QueueConfig {
                rate_bps: RATE / (1 + u64::from(hop)),
                ..queue
            })
        });
        if !audit_before_hops {
            sim.core.enable_audit(AuditSink::new(seed));
        }
        for (cc, ecn) in [
            (CcKind::Cubic, EcnSetting::NotEcn),
            (CcKind::Dctcp, EcnSetting::Scalable),
        ] {
            let id = sim.add_flow(
                PathConf::symmetric(Duration::from_millis(40)),
                "long",
                Time::ZERO,
                move |id| Box::new(TcpSource::new(id, cc, ecn, TcpConfig::default())),
            );
            sim.set_route(id, topo.path("e2e").to_vec());
        }
        sim
    };

    let mut straight = build(false);
    straight.run_until(Time::from_millis(1500));
    let blob = straight.save();
    for hop in 1..3 {
        assert!(
            straight.core.hop_qdisc(hop).len_pkts() > 0,
            "the snapshot must catch packets queued at hop {hop}"
        );
    }
    straight.run_until(T_END);
    let want = straight.save();

    for audit_before_hops in [true, false] {
        let mut restored = build(audit_before_hops);
        restored.restore(&blob).expect("restore");
        restored.run_until(T_END);
        assert_eq!(restored.save(), want, "replay diverged after restore");
        let audit = restored.core.audit().expect("auditor attached");
        assert!(audit.events_seen() > 0 && audit.probes_seen() > 0);
    }
}

/// A hybrid blob whose background section is damaged is a typed error,
/// not an abort or a panic: a rate-track length no blob can hold (once an
/// allocation the process died of), a zero capacity, and a grant that
/// leaves the foreground no capacity (the foreground rate is the
/// capacity minus the grant).
#[test]
fn a_damaged_background_section_is_a_typed_error() {
    let cell = Cell { aqm: "pi2", mix: "hybrid", seed: 24 };
    let mut sim = build_sim(&cell);
    sim.run_until(Time::from_millis(700));
    let blob = sim.save();
    let bg = sim.background().expect("a hybrid cell");
    assert!(!bg.series.is_empty() && bg.applied_bps > 0);
    // The background is the blob's last section: capacity, grant, served
    // bytes, ticks, then the rate track's length.
    let mut w = CkptWriter::new();
    bg.save_ckpt(&mut w);
    let at = blob.len() - w.len();
    let with = |field: usize, v: u64| {
        let mut bad = blob.clone();
        bad[at + 8 * field..at + 8 * field + 8].copy_from_slice(&v.to_le_bytes());
        build_sim(&cell).restore(&bad)
    };
    assert_eq!(with(4, 1 << 40), Err(CkptError::Truncated));
    assert!(matches!(with(0, 0), Err(CkptError::Corrupt(_))));
    assert!(matches!(with(1, bg.capacity_bps), Err(CkptError::Corrupt(_))));
    assert!(matches!(with(1, bg.grant_ceiling() + 1), Err(CkptError::Corrupt(_))));
    build_sim(&cell).restore(&blob).expect("the untouched blob restores");
}

/// Damaged blobs are errors, never panics. Three small real blobs — a
/// single-hop PI2 cell with the metrics registry, the DualPI2 multi-hop
/// cell and a hybrid cell — are cut at every length, which must be an
/// error, and have single bytes flipped, which must restore or be an
/// error. Every byte of the first `HEAD` is flipped (the header, the
/// event list and the pools sit there); past it, every `STRIDE`-th. A
/// flip may restore silently: the blob carries no checksum.
#[test]
fn damaged_blobs_are_errors_not_panics() {
    const HEAD: usize = 2048;
    const STRIDE: usize = 7;
    let cells = [
        (Cell { aqm: "pi2", mix: "classic", seed: 11 }, true),
        (Cell { aqm: "dualq", mix: "multihop", seed: 23 }, false),
        (Cell { aqm: "pi2", mix: "hybrid", seed: 24 }, false),
    ];
    let failures: Vec<String> = par_map_threads(3, &cells, |&(cell, metrics)| {
        let tag = format!("{}×{}", cell.aqm, cell.mix);
        let build = || {
            let mut sim = build_sim(&cell);
            if metrics {
                sim.core.enable_metrics();
            }
            sim
        };
        let mut sim = build();
        sim.run_until(Time::from_millis(200));
        let blob = sim.save();
        // The run columns, probabilities and sojourns, hold runs written
        // as repeats and runs written as plain values, so the sweep cuts
        // and flips both.
        let m = &sim.core.monitor;
        let runs: Vec<u32> = (m.flows.iter())
            .flat_map(|f| [&f.prob_samples, &f.sojourn_ms])
            .chain([&m.sojourn_ms])
            .flat_map(|col| col.runs().map(|(_, count)| count))
            .collect();
        let repeats = runs.iter().filter(|&&count| count >= 3).count();
        let plain = runs.len() - repeats;
        assert!(repeats > 0 && plain > 0, "{tag}: {repeats} repeats, {plain} plain values");
        // A panic leaves the target half-restored: rebuild it.
        let mut target = build();
        let mut restore = |bytes: &[u8]| {
            let res = catch_unwind(AssertUnwindSafe(|| target.restore(bytes)));
            if res.is_err() {
                target = build();
            }
            res
        };
        let mut failures = Vec::new();
        for len in 0..blob.len() {
            match restore(&blob[..len]) {
                Ok(Err(_)) => {}
                Ok(Ok(())) => failures.push(format!("{tag}: cut to {len} bytes restores")),
                Err(_) => failures.push(format!("{tag}: cut to {len} bytes panics")),
            }
        }
        let offsets = (0..HEAD.min(blob.len())).chain((HEAD..blob.len()).step_by(STRIDE));
        for at in offsets {
            for flip in [0x01u8, 0x80] {
                let mut bad = blob.clone();
                bad[at] ^= flip;
                if restore(&bad).is_err() {
                    failures.push(format!("{tag}: byte {at} ^ {flip:#04x} panics"));
                }
            }
        }
        assert!(matches!(restore(&blob), Ok(Ok(()))), "{tag}: the untouched blob restores");
        failures
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
