//! Lazy timers: same simulated results, fewer events.
//!
//! A TCP flow re-arms its retransmission timer on every new ACK (and its
//! delayed-ACK timer on every other segment). The timers are
//! `LazyTimer`s: re-arming moves a deadline, and one stand-in event per
//! timer sits in the wheel, so the dispatch loop no longer pops a dead
//! event per re-arm. Every event that has an effect keeps its
//! `(time, seq)` key, so nothing a run computes may move. This file holds
//! both halves:
//!
//! * digests of everything a run computes *except* its event total,
//!   captured at the commit before lazy timers and pinned here, for cells
//!   that drive each timer path: the clean bulk run, RTO backoff under
//!   loss with a flow stopped and restarted, delayed ACKs, a multi-hop
//!   parking lot, and CBR send ticks;
//! * the work counters the change is about: events per dequeued packet on
//!   a clean run, and the pending-event bound at steady state.

use pi2::experiments::{AqmKind, FlowGroup, Scenario};
use pi2::netsim::{Monitor, OnOffCbrSource, Topology, TraceCounts};
use pi2::prelude::*;
use pi2::transport::{CongestionControl, Reno};
use std::cell::RefCell;
use std::rc::Rc;

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }
}

/// Everything a finished run computed, folded into one word: the
/// always-on counters, every per-flow account, the bits of every recorded
/// sojourn and every completion. The event total is deliberately absent —
/// it is the one number lazy timers are meant to change.
fn digest(monitor: &Monitor, counters: &TraceCounts) -> u64 {
    let mut d = Fnv::new();
    let t = counters.totals();
    d.word(t.enqueued)
        .word(t.marked)
        .word(t.dropped)
        .word(t.dequeued)
        .word(counters.aqm_updates);
    for (i, f) in monitor.flows.iter().enumerate() {
        let c = counters.flow(FlowId(i as u32));
        d.word(f.sent_pkts)
            .word(c.dropped)
            .word(c.marked)
            .word(c.dequeued)
            .word(f.dequeued_bytes)
            .word(f.dequeued_bytes_postwarm)
            .word(f.delivered_pkts)
            .word(f.delivered_bytes);
    }
    d.word(monitor.sojourn_ms.len() as u64);
    for &s in &monitor.sojourn_ms {
        d.word(u64::from(s.to_bits()));
    }
    d.word(monitor.completions.len() as u64);
    for &(flow, start, end) in &monitor.completions {
        d.word(u64::from(flow.0))
            .word(start.as_nanos())
            .word(end.as_nanos());
    }
    d.0
}

/// The benchmark's `bulk_run` scenario: coupled PI2 on 1 Gb/s, 20 ms base
/// RTT, 10 Cubic + 10 DCTCP flows.
fn bulk_scenario(sim_secs: u64) -> Scenario {
    let rtt = Duration::from_millis(20);
    let mut sc = Scenario::new(AqmKind::coupled_default(), 1_000_000_000);
    sc.tcp.push(FlowGroup::new(
        10,
        CcKind::Cubic,
        EcnSetting::NotEcn,
        "cubic",
        rtt,
    ));
    sc.tcp.push(FlowGroup::new(
        10,
        CcKind::Dctcp,
        EcnSetting::Scalable,
        "dctcp",
        rtt,
    ));
    sc.duration = Time::from_secs(sim_secs);
    sc.warmup = Duration::from_millis(sim_secs as i64 * 1000 / 3);
    sc.seed = 1;
    sc
}

/// Reno that logs what resets and what raises the RTO backoff: `'a'` for
/// an ACK of new data, `'r'` for a timeout.
struct SpyReno {
    inner: Reno,
    log: Rc<RefCell<Vec<char>>>,
}

impl CongestionControl for SpyReno {
    fn cwnd(&self) -> f64 {
        self.inner.cwnd()
    }
    fn ssthresh(&self) -> f64 {
        self.inner.ssthresh()
    }
    fn on_ack(&mut self, acked: u64, marked: u64, received: u64, rtt: Duration, now: Time) {
        if acked > 0 {
            self.log.borrow_mut().push('a');
        }
        self.inner.on_ack(acked, marked, received, rtt, now);
    }
    fn on_loss(&mut self, now: Time) {
        self.inner.on_loss(now);
    }
    fn on_rto(&mut self, now: Time) {
        self.log.borrow_mut().push('r');
        self.inner.on_rto(now);
    }
    fn name(&self) -> &'static str {
        "spy-reno"
    }
    fn steady_state_window(&self, p: f64, rtt: Duration) -> Option<f64> {
        self.inner.steady_state_window(p, rtt)
    }
}
pi2::simcore::ckpt_fields!(SpyReno { inner });

fn sim(rate_bps: u64, buffer_bytes: usize, seed: u64, aqm: Box<dyn Aqm>) -> Sim {
    Sim::new(
        SimConfig {
            queue: QueueConfig {
                rate_bps,
                buffer_bytes,
            },
            seed,
            monitor: MonitorConfig::default(),
        },
        aqm,
    )
}

#[test]
fn bulk_run_results_are_pinned() {
    let r = bulk_scenario(2).run();
    assert_eq!(
        digest(&r.monitor, &r.counters),
        BULK_2S,
        "bulk scenario, 2 sim-s, seed 1"
    );
}

/// Thirty Reno flows into a six-packet tail-drop buffer: less than one
/// packet of window each, so flows live on their retransmission timers.
/// Flow 1 is stopped with data outstanding and restarted later, the path
/// on which a timer is re-armed while its stand-in is still pending.
#[test]
fn lossy_cell_reaches_rto_backoff_and_is_pinned() {
    let mut sim = sim(10_000_000, 6 * 1500, 3, Box::new(PassAqm));
    let logs: Vec<Rc<RefCell<Vec<char>>>> = (0..30).map(|_| Rc::default()).collect();
    for log in &logs {
        let log = Rc::clone(log);
        sim.add_flow(
            PathConf::symmetric(Duration::from_millis(20)),
            "reno",
            Time::ZERO,
            move |id| {
                let cc = Box::new(SpyReno {
                    inner: Reno::new(10.0),
                    log,
                });
                Box::new(TcpSource::with_cc(
                    id,
                    cc,
                    EcnSetting::NotEcn,
                    TcpConfig::default(),
                ))
            },
        );
    }
    sim.stop_flow_at(FlowId(1), Time::from_millis(1500));
    sim.start_flow_at(FlowId(1), Time::from_millis(3200));
    sim.run_until(Time::from_secs(6));
    let backed_off = logs
        .iter()
        .filter(|l| l.borrow().windows(2).any(|w| w == ['r', 'r']))
        .count();
    assert!(
        backed_off >= 10,
        "only {backed_off} of 30 flows timed out twice in a row"
    );
    assert_eq!(
        digest(&sim.core.monitor, &sim.core.counters),
        LOSSY_6S,
        "lossy cell"
    );
}

#[test]
fn delayed_ack_cell_is_pinned() {
    let mut sc = Scenario::new(AqmKind::pi2_default(), 10_000_000);
    let rtt = Duration::from_millis(30);
    let mut reno = FlowGroup::new(2, CcKind::Reno, EcnSetting::NotEcn, "reno", rtt);
    reno.tcp.delayed_ack = true;
    let mut dctcp = FlowGroup::new(1, CcKind::Dctcp, EcnSetting::Scalable, "dctcp", rtt);
    dctcp.tcp.delayed_ack = true;
    // A short flow with an odd segment count ends on the 40 ms timer.
    let mut mouse = FlowGroup::new(1, CcKind::Cubic, EcnSetting::NotEcn, "mouse", rtt);
    mouse.tcp.delayed_ack = true;
    mouse.tcp.data_limit = Some(41);
    mouse.start = Time::from_millis(700);
    sc.tcp.extend([reno, dctcp, mouse]);
    sc.duration = Time::from_secs(6);
    sc.warmup = Duration::from_secs(1);
    sc.seed = 5;
    let r = sc.run();
    assert_eq!(r.monitor.completions.len(), 1, "the mouse must finish");
    assert_eq!(
        digest(&r.monitor, &r.counters),
        DELACK_6S,
        "delayed-ACK cell"
    );
}

#[test]
fn parking_lot_cell_is_pinned() {
    let rate = 10_000_000;
    let queue = QueueConfig {
        rate_bps: rate,
        buffer_bytes: 40_000 * 1500,
    };
    let kind = AqmKind::pi2_default();
    let mut sim = Sim::with_qdisc(
        SimConfig {
            queue,
            seed: 9,
            monitor: MonitorConfig::default(),
        },
        kind.build_qdisc(queue),
    );
    let topo = Topology::parking_lot(3, Duration::from_millis(3));
    topo.install(&mut sim.core, |hop| {
        kind.build_qdisc(QueueConfig {
            rate_bps: rate / (1 + u64::from(hop)),
            ..queue
        })
    });
    for (cc, ecn, path) in [
        (CcKind::Cubic, EcnSetting::NotEcn, "e2e"),
        (CcKind::Dctcp, EcnSetting::Scalable, "e2e"),
        (CcKind::Reno, EcnSetting::NotEcn, "cross1"),
        (CcKind::Cubic, EcnSetting::NotEcn, "cross2"),
    ] {
        let id = sim.add_flow(
            PathConf::symmetric(Duration::from_millis(40)),
            path,
            Time::ZERO,
            move |id| Box::new(TcpSource::new(id, cc, ecn, TcpConfig::default())),
        );
        sim.set_route(id, topo.path(path).to_vec());
    }
    sim.run_until(Time::from_secs(5));
    let mut d = Fnv::new();
    d.word(digest(&sim.core.monitor, &sim.core.counters));
    for hop in 0..sim.core.hop_count() as u32 {
        for &b in sim.core.hop_flow_bytes(hop) {
            d.word(b);
        }
    }
    assert_eq!(d.0, PARKING_LOT_5S, "parking-lot cell");
}

/// The CBR sources' send tick is the timer that fires every time it is
/// armed. The UDP probe is stopped and restarted inside one 2 ms send
/// interval, so the restart arms while the cancelled tick's event is
/// still pending; the on-off source sleeps through 700 ms gaps.
#[test]
fn cbr_cell_is_pinned() {
    let mut sim = sim(
        10_000_000,
        200 * 1500,
        13,
        Box::new(Pie::new(PieConfig::paper_default())),
    );
    let rtt = PathConf::symmetric(Duration::from_millis(40));
    sim.add_flow(rtt, "reno", Time::ZERO, |id| {
        Box::new(TcpSource::new(
            id,
            CcKind::Reno,
            EcnSetting::NotEcn,
            TcpConfig::default(),
        ))
    });
    let udp = sim.add_flow(rtt, "udp", Time::ZERO, |id| {
        Box::new(UdpCbrSource::new(id, 6_000_000, 1500, Ecn::NotEct))
    });
    sim.add_flow(rtt, "burst", Time::from_millis(100), |id| {
        Box::new(OnOffCbrSource::new(
            id,
            4_000_000,
            1000,
            Duration::from_millis(300),
            Duration::from_millis(700),
        ))
    });
    sim.stop_flow_at(udp, Time::from_millis(2000));
    sim.start_flow_at(udp, Time::from_millis(2001));
    sim.stop_flow_at(udp, Time::from_millis(3000));
    sim.start_flow_at(udp, Time::from_millis(3500));
    sim.run_until(Time::from_secs(5));
    assert_eq!(
        digest(&sim.core.monitor, &sim.core.counters),
        CBR_5S,
        "CBR cell"
    );
}

/// A packet needs three events — dequeue, deliver, ack — and the run ends
/// with a window of packets part-way through theirs. Before lazy timers
/// the clean bulk run popped 3.59 per packet in its first two seconds and
/// 3.95 over twenty: the extra one was the dead RTO event every ACK left
/// behind.
#[test]
fn a_clean_run_pops_three_events_per_packet() {
    let r = bulk_scenario(2).run();
    let events = r
        .metrics
        .as_deref()
        .expect("Scenario::run collects metrics");
    let per_pkt = events.events_processed() as f64 / r.counters.totals().dequeued as f64;
    assert!(
        (2.9..=3.1).contains(&per_pkt),
        "{per_pkt:.3} events per dequeued packet"
    );
}

/// Pending events at steady state: one per packet or ACK in flight, a
/// dequeue per busy link, the controller and sample ticks, and at most
/// two timers per flow with the odd superseded stand-in — not one RTO
/// event per ACK of the last 200 ms.
#[test]
fn pending_events_are_bounded_by_packets_in_flight() {
    let sc = bulk_scenario(2);
    let queue = QueueConfig {
        rate_bps: sc.rate_bps,
        buffer_bytes: sc.buffer_bytes,
    };
    let mut sim = Sim::with_qdisc(
        SimConfig {
            queue,
            seed: sc.seed,
            monitor: MonitorConfig::default(),
        },
        sc.aqm.build_qdisc(queue),
    );
    let mut flows = 0;
    for g in &sc.tcp {
        for _ in 0..g.count {
            let (cc, ecn, tcp) = (g.cc, g.ecn, g.tcp);
            sim.add_flow(PathConf::symmetric(g.rtt), &g.label, g.start, move |id| {
                Box::new(TcpSource::new(id, cc, ecn, tcp))
            });
            flows += 1;
        }
    }
    for ms in (1000..=2000).step_by(100) {
        sim.run_until(Time::from_millis(ms));
        let in_flight =
            sim.core.hop_qdisc(0).len_pkts() + sim.core.packets.in_use() + sim.core.acks.in_use();
        assert!(in_flight > 1000, "the link must be busy at {ms} ms");
        let pending = sim.core.events.len();
        assert!(
            pending <= 3 * in_flight + 4 * flows,
            "{pending} events pending for {in_flight} packets in flight at {ms} ms"
        );
    }
}

// Captured at b789000, the last commit that pushed one wheel event per
// re-arm.
const BULK_2S: u64 = 11369214143650925955;
const LOSSY_6S: u64 = 3324042648347364951;
const DELACK_6S: u64 = 11776002694264688954;
const PARKING_LOT_5S: u64 = 2147189357703968487;
const CBR_5S: u64 = 7321873926105273332;
