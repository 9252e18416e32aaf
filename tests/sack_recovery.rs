//! SACK loss recovery: same simulated results, at a cost per ACK that
//! does not grow with the episode under repair.
//!
//! The sender's scoreboard used to re-test every lost segment against
//! every SACKed range on each block-carrying ACK, and its sets paid a pass
//! over their contents for every trim from the bottom. Recovery now
//! touches only what an ACK adds or removes. Nothing a run computes may
//! move, its event total included, so this file pins digests captured at
//! the commit before that change for the cells that drive each recovery
//! path:
//!
//! * one unclamped Reno flow overshooting a 1 Gb/s link in slow start —
//!   41 667 holes in one episode, which is also the complexity guard: it
//!   took 75–85 s in a release build and takes about a second in a debug
//!   build now, and the test fails past 30 s;
//! * a grid cell of the paper's largest bandwidth-delay product;
//! * ACK reordering, duplication and loss, so stale blocks, blocks below
//!   `snd_una` and already-SACKed blocks reach the scoreboard;
//! * a timeout in the middle of a recovery, which restarts the scoreboard
//!   from nothing.

use pi2::aqm::FixedProb;
use pi2::experiments::grid::GRID_SEED;
use pi2::experiments::{AqmKind, FlowGroup, Scenario};
use pi2::netsim::{Monitor, QueueSnapshot, TraceCounts};
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
/// sojourn, every completion, and the number of events the loop popped.
fn digest(monitor: &Monitor, counters: &TraceCounts, events: u64) -> u64 {
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
    d.word(events);
    d.0
}

fn sim_digest(sim: &Sim) -> u64 {
    digest(
        &sim.core.monitor,
        &sim.core.counters,
        sim.core.events.popped(),
    )
}

fn sim(rate_bps: u64, buffer_pkts: usize, seed: u64, aqm: Box<dyn Aqm>) -> Sim {
    Sim::new(
        SimConfig {
            queue: QueueConfig {
                rate_bps,
                buffer_bytes: buffer_pkts * 1500,
            },
            seed,
            monitor: MonitorConfig::default(),
        },
        aqm,
    )
}

fn add_tcp(sim: &mut Sim, cc: CcKind, rtt_ms: i64, tcp: TcpConfig) -> FlowId {
    sim.add_flow(
        PathConf::symmetric(Duration::from_millis(rtt_ms)),
        "tcp",
        Time::ZERO,
        move |id| Box::new(TcpSource::new(id, cc, EcnSetting::NotEcn, tcp)),
    )
}

/// One Reno flow with no window clamp on 1 Gb/s × 20 ms behind a dropper
/// that never drops: slow start doubles into the tail-drop buffer and
/// loses every other packet of its last round.
fn overshoot(buffer_pkts: usize, secs: u64) -> Sim {
    let mut sim = sim(1_000_000_000, buffer_pkts, 1, Box::new(FixedProb::new(0.0)));
    add_tcp(&mut sim, CcKind::Reno, 20, TcpConfig::default());
    sim.run_until(Time::from_secs(secs));
    sim
}

/// `(events popped, packets dequeued, packets dropped)`.
fn work(sim: &Sim) -> (u64, u64, u64) {
    let t = sim.core.counters.totals();
    (sim.core.events.popped(), t.dequeued, t.dropped)
}

/// `benchmark/README.md` finding 3: 41 667 holes from one overshoot. It
/// guards the complexity as well as the bits: about a second in a debug
/// build, where a scoreboard that costs a pass over the holes per ACK
/// needed 75 s optimised and minutes unoptimised. The limit leaves a
/// loaded host thirty times that second.
#[test]
fn unclamped_gigabit_overshoot_is_pinned() {
    let started = std::time::Instant::now();
    let sim = overshoot(40_000, 2);
    let wall = started.elapsed();
    assert_eq!(work(&sim), (465_135, 155_875, 41_667));
    assert_eq!(sim_digest(&sim), OVERSHOOT_40K_2S, "40 000-packet buffer");
    assert!(
        wall < std::time::Duration::from_secs(30),
        "recovery took {wall:?}: some scoreboard operation scans the holes again"
    );
}

#[test]
fn smaller_overshoot_is_pinned() {
    let sim = overshoot(4_000, 1);
    assert_eq!(work(&sim), (215_132, 72_542, 5_671));
    assert_eq!(sim_digest(&sim), OVERSHOOT_4K_1S, "4 000-packet buffer");
}

/// The grid's largest bandwidth-delay product: 200 Mb/s × 100 ms under
/// PIE, Cubic against DCTCP, as `grid::run_cell` builds it.
#[test]
fn largest_grid_cell_is_pinned() {
    let rtt = Duration::from_millis(100);
    let mut sc = Scenario::new(AqmKind::pie_default(), 200_000_000);
    sc.tcp.push(FlowGroup::new(
        1,
        CcKind::Cubic,
        EcnSetting::NotEcn,
        "cubic",
        rtt,
    ));
    sc.tcp.push(FlowGroup::new(
        1,
        CcKind::Dctcp,
        EcnSetting::Scalable,
        "dctcp",
        rtt,
    ));
    sc.duration = Time::from_secs(10);
    sc.warmup = Duration::from_secs(3);
    sc.seed = GRID_SEED + 200 + 100;
    let r = sc.run();
    let events = r
        .metrics
        .as_deref()
        .expect("Scenario::run collects metrics")
        .events_processed();
    assert!(r.counters.totals().dropped > 0, "no loss episode to repair");
    assert_eq!(
        digest(&r.monitor, &r.counters, events),
        GRID_200M_100MS_10S,
        "200 Mb/s x 100 ms PIE cell"
    );
}

/// A 60-packet buffer keeps three flows in and out of recovery while the
/// return path reorders, duplicates and loses their ACKs and the forward
/// path reorders their data: blocks arrive late, twice, below `snd_una`
/// and over ranges the scoreboard already holds.
#[test]
fn impaired_ack_path_is_pinned() {
    let mut sim = sim(20_000_000, 60, 7, Box::new(PassAqm));
    sim.core.set_impairments(
        LinkImpairments::new(0x5ac4)
            .forward(ImpairmentConf {
                loss: 0.001,
                dup: 0.01,
                jitter: Duration::from_millis(2),
            })
            .reverse(ImpairmentConf {
                loss: 0.05,
                dup: 0.05,
                jitter: Duration::from_millis(4),
            }),
    );
    for cc in [CcKind::Reno, CcKind::Cubic, CcKind::Reno] {
        add_tcp(&mut sim, cc, 30, TcpConfig::default());
    }
    sim.run_until(Time::from_secs(8));
    let s = sim.core.impairments().expect("weather attached").stats();
    assert!(s.rev_dup > 0 && s.rev_lost > 0 && s.fwd_dup > 0, "{s:?}");
    assert!(sim.core.counters.totals().dropped > 100);
    assert_eq!(sim_digest(&sim), IMPAIRED_8S, "impaired cell");
}

/// Drops 200 consecutive first transmissions, then — 70 ms after the
/// first of them, when the sender is repairing that burst — everything
/// for 400 ms, retransmissions included.
struct BurstThenOutage {
    burst: std::ops::Range<u64>,
    outage: Option<(Time, Time)>,
}

impl Aqm for BurstThenOutage {
    fn on_enqueue(
        &mut self,
        pkt: &Packet,
        _snap: &QueueSnapshot,
        now: Time,
        _rng: &mut Rng,
    ) -> Decision {
        let in_burst = !pkt.retransmit && self.burst.contains(&pkt.seq);
        if in_burst && self.outage.is_none() {
            let from = now + Duration::from_millis(70);
            self.outage = Some((from, from + Duration::from_millis(400)));
        }
        let in_outage = self
            .outage
            .is_some_and(|(from, to)| now >= from && now < to);
        if in_burst || in_outage {
            Decision::drop(1.0)
        } else {
            Decision::pass(0.0)
        }
    }

    fn name(&self) -> &'static str {
        "burst-then-outage"
    }
}
// Never checkpointed: the run that uses it goes straight through.
pi2::simcore::ckpt_fields!(BurstThenOutage {});

/// Reno that logs its congestion events: `'l'` for a loss reaction (the
/// entry into recovery), `'r'` for a timeout.
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
        self.inner.on_ack(acked, marked, received, rtt, now);
    }
    fn on_loss(&mut self, now: Time) {
        self.log.borrow_mut().push('l');
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

/// A timeout with the scoreboard full: the sender drops all three sets
/// and rebuilds them from the blocks the receiver still reports.
#[test]
fn timeout_in_mid_recovery_is_pinned() {
    let mut sim = sim(
        50_000_000,
        40_000,
        2,
        Box::new(BurstThenOutage {
            burst: 600..800,
            outage: None,
        }),
    );
    let log = Rc::new(RefCell::new(Vec::new()));
    let spy = Rc::clone(&log);
    sim.add_flow(
        PathConf::symmetric(Duration::from_millis(40)),
        "reno",
        Time::ZERO,
        move |id| {
            let cc = Box::new(SpyReno {
                inner: Reno::new(10.0),
                log: spy,
            });
            Box::new(TcpSource::with_cc(
                id,
                cc,
                EcnSetting::NotEcn,
                TcpConfig::default(),
            ))
        },
    );
    sim.run_until(Time::from_secs(6));
    assert_eq!(
        log.borrow()[..2],
        ['l', 'r'],
        "the first recovery must end in a timeout"
    );
    assert_eq!(sim_digest(&sim), RTO_IN_RECOVERY_6S, "outage cell");
}

// Captured at 2a3b760, the last commit whose scoreboard filtered every
// lost segment on every block-carrying ACK (release build; the first
// cell alone took over a minute there).
const OVERSHOOT_40K_2S: u64 = 10724624012062530223;
const OVERSHOOT_4K_1S: u64 = 6137552576131603965;
const GRID_200M_100MS_10S: u64 = 8234782081402803529;
const IMPAIRED_8S: u64 = 14306877246867815064;
const RTO_IN_RECOVERY_6S: u64 = 14062699898074344453;
