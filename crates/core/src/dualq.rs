//! The DualQ Coupled AQM — the paper's stated destination (Section 7:
//! "The recommended deployment applies each AQM to separate queues"),
//! later standardized as DualPI2 in RFC 9332. Implemented here as the
//! forward-looking extension of the single-queue PI2.
//!
//! Two queues share one link:
//!
//! * the **L queue** holds Scalable (ECT(1)/CE) traffic and is marked by
//!   `max(k·p', ramp(L sojourn))` — the coupled probability from the
//!   Classic controller, floored by a shallow native ramp so the L queue
//!   stays at sub-millisecond depth even without Classic traffic;
//! * the **C queue** holds Classic traffic, dropped/marked with `(p')²`
//!   exactly as in [`crate::Pi2`]; the PI core is driven by the C queue's
//!   delay.
//!
//! The scheduler is the time-shifted FIFO of the DualQ drafts: serve the
//! queue whose head has waited longest, after crediting the L queue with
//! `time_shift` — near-priority for L, with starvation protection for C.
//!
//! The result the paper trails in its conclusion: Scalable traffic gets
//! data-centre-like sub-millisecond queuing delay over the same link on
//! which Classic traffic keeps its usual 20 ms, at equal flow rates.

use crate::pi::{decide, PiCore};
use crate::pi2::SquareMode;
use pi2_fluid::law::{OutputLaw, PiGains};
use pi2_netsim::{Action, AqmState, Decision, Ecn, Fifo, Link, Packet, Qdisc};
use pi2_simcore::{ckpt_fields, Duration, Rng, Time};

/// DualPI2 configuration.
#[derive(Clone, Copy, Debug)]
pub struct DualPi2Config {
    /// Link rate in bits/s; it also sets the native L ramp's floor.
    pub rate_bps: u64,
    /// Shared physical buffer in bytes.
    pub buffer_bytes: usize,
    /// C-queue delay target τ₀ (Table 1: 20 ms).
    pub target: Duration,
    /// PI update interval T.
    pub t_update: Duration,
    /// PI gains on the linear `p'` (PI2 classic defaults).
    pub alpha_hz: f64,
    /// Proportional gain.
    pub beta_hz: f64,
    /// Coupling factor: L marking probability is `k·p'`.
    pub k: f64,
    /// Scheduler time shift credited to the L queue's head.
    pub time_shift: Duration,
    /// Squaring implementation for the Classic decision.
    pub square_mode: SquareMode,
}

impl DualPi2Config {
    /// Defaults for a given link: paper Table 1 parameters on the Classic
    /// side and a 2·target time shift on the L side (the native ramp is
    /// [`DualPi2::new`]'s, from `rate_bps`).
    pub fn for_link(rate_bps: u64) -> Self {
        let gains = PiGains::pi2();
        DualPi2Config {
            rate_bps,
            buffer_bytes: 40_000 * 1500,
            target: Duration::from_millis(20),
            t_update: Duration::from_millis(32),
            alpha_hz: gains.alpha,
            beta_hz: gains.beta,
            k: 2.0,
            time_shift: Duration::from_millis(40),
            square_mode: SquareMode::Multiply,
        }
    }
}

/// The DualQ Coupled qdisc.
///
/// ```
/// use pi2_aqm::{DualPi2, DualPi2Config};
/// use pi2_netsim::{Ecn, FlowId, Packet, Qdisc};
/// use pi2_simcore::{Rng, Time};
///
/// let mut q = DualPi2::new(DualPi2Config::for_link(10_000_000));
/// let mut rng = Rng::new(1);
/// // A Scalable packet lands in the L queue, a Classic one in C...
/// q.offer(Packet::data(FlowId(0), 0, 1500, Ecn::NotEct, Time::ZERO), Time::ZERO, &mut rng);
/// q.offer(Packet::data(FlowId(1), 0, 1000, Ecn::Ect1, Time::from_millis(1)), Time::from_millis(1), &mut rng);
/// // ...and the scheduler serves the L queue first (near-priority).
/// let (first, _) = q.pop(Time::from_millis(2)).unwrap();
/// assert_eq!(first.ecn, Ecn::Ect1);
/// ```
pub struct DualPi2 {
    cfg: DualPi2Config,
    core: PiCore,
    /// The one law of both queues: PI2's `(p')²` for C, guarded by the C
    /// queue's length, and the coupled `min(k·p', 1)` for L.
    law: OutputLaw,
    l: Fifo,
    c: Fifo,
    link: Link,
    /// The queue whose head is on the wire (`true` = L), from
    /// [`Qdisc::start_tx`] until the [`Qdisc::pop`] that sends it.
    on_wire: Option<bool>,
    /// The native L ramp, seconds of L sojourn: marking begins at the
    /// first and reaches probability 1 at the second.
    ramp: (f64, f64),
}

impl DualPi2 {
    /// Build a DualPI2 qdisc with a 1–2 ms native ramp for `cfg.rate_bps`.
    ///
    /// On slow links a 1 ms threshold would be less than a couple of
    /// packets' serialization time — too shallow for a Scalable control to
    /// fill the pipe — so, as RFC 9332 prescribes, the ramp is floored at
    /// two MTU serialization times of the link it is built for.
    pub fn new(cfg: DualPi2Config) -> Self {
        let two_mtu = Duration::serialization(2 * 1500, cfg.rate_bps);
        let ramp_min = Duration::from_millis(1).max(two_mtu);
        DualPi2 {
            core: PiCore::new(cfg.alpha_hz, cfg.beta_hz, cfg.target, cfg.t_update),
            law: OutputLaw::Squared {
                inv_k: 1.0,
                scalable: Some(cfg.k),
            },
            // Pre-sized so steady-state offer/pop never reallocate: the L
            // queue stays packets-deep by design, the C queue holds a
            // ~target's worth of packets.
            l: Fifo::with_capacity(256),
            c: Fifo::with_capacity(1024),
            link: Link::new(cfg.rate_bps, cfg.buffer_bytes),
            on_wire: None,
            ramp: (ramp_min.as_secs_f64(), (ramp_min * 2).as_secs_f64()),
            cfg,
        }
    }

    /// Current L-queue sojourn estimate (backlog over rate).
    fn l_delay(&self) -> Duration {
        Duration::serialization(self.l.bytes(), self.link.rate_bps())
    }

    /// Current C-queue delay estimate: the age of the head packet.
    ///
    /// Unlike a single FIFO, `c_bytes/rate` would underestimate here —
    /// the C queue drains at only its share of the link while the
    /// scheduler serves L. The head packet's actual waiting time measures
    /// the delay the scheduler really imposes (the timestamp approach the
    /// DualQ drafts prescribe).
    fn c_delay(&self, now: Time) -> Duration {
        self.c.front().map_or(Duration::ZERO, |(_, t)| now.saturating_since(*t))
    }

    /// The native L ramp probability for the given sojourn.
    fn ramp(&self, sojourn: Duration) -> f64 {
        let (lo, hi) = self.ramp;
        let x = sojourn.as_secs_f64();
        ((x - lo) / (hi - lo)).clamp(0.0, 1.0)
    }

    /// The L-queue marking probability: `max(min(k·p', 1), ramp)`.
    ///
    /// The coupled term `k·p'` applies *unconditionally* — it signals
    /// Classic-queue congestion, and the L queue being empty (which it
    /// almost always is, thanks to the scheduler) is no reason to withhold
    /// it. The native ramp term naturally vanishes when the L queue is
    /// shallow.
    pub fn l_prob(&self) -> f64 {
        self.law.scalable(self.core.p()).max(self.ramp(self.l_delay()))
    }

    /// The C-queue drop/mark probability `(p')²` (capped).
    pub fn classic_prob(&self) -> f64 {
        self.law.classic(self.core.p())
    }

    /// The scheduler's one rule, `None` when both queues are empty.
    /// Time-shifted FIFO: L's head is served unless C's has waited more
    /// than `time_shift` longer. Both waits are measured to the same
    /// instant, so only the enqueue times enter.
    fn serve_l(&self) -> Option<bool> {
        match (self.l.front(), self.c.front()) {
            (Some((_, l_t)), Some((_, c_t))) => Some(self.cfg.time_shift >= *l_t - *c_t),
            (Some(_), None) => Some(true),
            (None, Some(_)) => Some(false),
            (None, None) => None,
        }
    }

    /// A restored packet on the wire must come from a queue that holds it.
    fn check(&self) -> Result<(), &'static str> {
        let queue = match self.on_wire {
            Some(true) => &self.l,
            Some(false) => &self.c,
            None => return Ok(()),
        };
        if queue.is_empty() {
            return Err("packet on the wire from an empty queue");
        }
        Ok(())
    }
}

impl Qdisc for DualPi2 {
    fn offer(&mut self, mut pkt: Packet, now: Time, rng: &mut Rng) -> Decision {
        let queued = self.len_bytes();
        if pkt.ecn.is_scalable() {
            let p = self.l_prob();
            if !self.link.admits(queued, pkt.size) {
                return Decision::drop(1.0);
            }
            let decision = if rng.chance(p) {
                pkt.ecn = Ecn::Ce;
                Decision::mark(p)
            } else {
                Decision::pass(p)
            };
            self.l.push(pkt, now);
            decision
        } else {
            let p = self.core.p();
            let decision = decide(self.law, self.cfg.square_mode, p, &pkt, self.c.len(), rng);
            if decision.action == Action::Drop {
                return decision;
            }
            if !self.link.admits(queued, pkt.size) {
                return Decision::drop(1.0);
            }
            if decision.action == Action::Mark {
                pkt.ecn = Ecn::Ce;
            }
            self.c.push(pkt, now);
            decision
        }
    }

    /// Schedules once per packet, when the link asks: an L packet that
    /// arrives while a C packet is on the wire waits for it.
    fn start_tx(&mut self) -> Option<usize> {
        let serve_l = self.on_wire.or_else(|| self.serve_l())?;
        self.on_wire = Some(serve_l);
        let queue = if serve_l { &self.l } else { &self.c };
        queue.front().map(|(p, _)| p.size)
    }

    fn pop(&mut self, now: Time) -> Option<(Packet, Duration)> {
        let serve_l = self.on_wire.take().or_else(|| self.serve_l())?;
        let queue = if serve_l { &mut self.l } else { &mut self.c };
        let (pkt, enq) = queue.pop()?;
        self.link.note_sent(pkt.size);
        Some((pkt, now.saturating_since(enq)))
    }

    fn len_bytes(&self) -> usize {
        self.l.bytes() + self.c.bytes()
    }

    fn len_pkts(&self) -> usize {
        self.l.len() + self.c.len()
    }

    fn link(&self) -> &Link {
        &self.link
    }

    fn link_mut(&mut self) -> &mut Link {
        &mut self.link
    }

    fn update(&mut self, now: Time) {
        // The PI core is driven by the C queue's delay, per the DualQ
        // drafts; the L queue is governed by the coupled probability and
        // its native ramp.
        let qdelay = self.c_delay(now);
        self.core.update(qdelay);
    }

    fn update_interval(&self) -> Option<Duration> {
        Some(self.cfg.t_update)
    }

    fn probe(&self) -> AqmState {
        let (alpha_term, beta_term) = self.core.last_terms();
        AqmState {
            p_prime: self.core.p(),
            prob: self.classic_prob(),
            scalable_prob: self.l_prob(),
            alpha_term,
            beta_term,
            // The C-queue delay the PI core last acted on; the head-age
            // measure needs `now`, which this hook does not receive.
            qdelay: self.core.prev_qdelay(),
            ..AqmState::default()
        }
    }

    fn monitor_delay(&self) -> Duration {
        // Report the C backlog over the full rate (a lower bound; exact
        // per-packet delays are recorded at dequeue). The head-age measure
        // needs `now`, which this monitoring hook does not receive.
        Duration::serialization(self.c.bytes(), self.link.rate_bps())
    }
}

ckpt_fields!(DualPi2 { core, l, c, link, on_wire } check DualPi2::check);

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_netsim::FlowId;

    fn dq() -> DualPi2 {
        DualPi2::new(DualPi2Config::for_link(10_000_000))
    }

    fn pkt(ecn: Ecn, size: usize) -> Packet {
        Packet::data(FlowId(0), 0, size, ecn, Time::ZERO)
    }

    #[test]
    fn classifies_by_ecn() {
        let mut q = dq();
        let mut rng = Rng::new(1);
        q.offer(pkt(Ecn::Ect1, 1500), Time::ZERO, &mut rng);
        q.offer(pkt(Ecn::NotEct, 1500), Time::ZERO, &mut rng);
        q.offer(pkt(Ecn::Ect0, 1500), Time::ZERO, &mut rng);
        assert_eq!(q.l.len(), 1);
        assert_eq!(q.c.len(), 2);
        assert_eq!(q.len_pkts(), 3);
        assert_eq!(q.len_bytes(), 4500);
    }

    #[test]
    fn l_queue_has_near_priority() {
        let mut q = dq();
        let mut rng = Rng::new(1);
        // C packet enqueued first, L second: L must still be served first
        // because the time shift exceeds the head age difference.
        q.offer(pkt(Ecn::NotEct, 1500), Time::ZERO, &mut rng);
        q.offer(pkt(Ecn::Ect1, 1000), Time::from_millis(1), &mut rng);
        let (first, _) = q.pop(Time::from_millis(2)).unwrap();
        assert_eq!(first.ecn, Ecn::Ect1);
    }

    #[test]
    fn c_queue_not_starved_beyond_time_shift() {
        let mut q = dq();
        let mut rng = Rng::new(1);
        q.offer(pkt(Ecn::NotEct, 1500), Time::ZERO, &mut rng);
        // An L packet arriving 50 ms later (> 40 ms shift): C goes first.
        q.offer(pkt(Ecn::Ect1, 1000), Time::from_millis(50), &mut rng);
        let (first, _) = q.pop(Time::from_millis(51)).unwrap();
        assert_eq!(first.ecn, Ecn::NotEct);
    }

    #[test]
    fn ramp_floors_the_l_probability() {
        // At 10 Mb/s the ramp spans 2.4 ms (2 MTU) to 4.8 ms, i.e.
        // 3000..6000 bytes of backlog. p' = 0, deep L queue: must mark.
        let with_l_backlog = |pkts| {
            let mut q = dq();
            for _ in 0..pkts {
                q.l.push(pkt(Ecn::Ect1, 1500), Time::ZERO);
            }
            q
        };
        assert_eq!(with_l_backlog(4).l_prob(), 1.0);
        let mid = with_l_backlog(3).l_prob(); // 4500 B: midpoint of the ramp
        assert!((mid - 0.5).abs() < 1e-9, "{mid}");
        let mut q = with_l_backlog(0);
        assert_eq!(q.l_prob(), 0.0);
        q.core.set_p(0.3);
        assert!((q.l_prob() - 0.6).abs() < 1e-12, "k*p' coupling");
    }

    #[test]
    fn coupling_relation_matches_figure_9() {
        let mut q = dq();
        q.core.set_p(0.4);
        assert!((q.classic_prob() - 0.16).abs() < 1e-12);
        assert!((q.l_prob() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn shared_buffer_overflows_jointly() {
        let mut q = DualPi2::new(DualPi2Config {
            buffer_bytes: 3000,
            ..DualPi2Config::for_link(10_000_000)
        });
        let mut rng = Rng::new(1);
        assert_eq!(q.offer(pkt(Ecn::Ect1, 1500), Time::ZERO, &mut rng).action, Action::Pass);
        assert_eq!(q.offer(pkt(Ecn::NotEct, 1500), Time::ZERO, &mut rng).action, Action::Pass);
        let d = q.offer(pkt(Ecn::Ect1, 1500), Time::ZERO, &mut rng);
        assert_eq!((d.action, d.prob), (Action::Drop, 1.0));
        assert_eq!(q.len_pkts(), 2);
    }

    #[test]
    fn scalable_never_dropped_by_aqm() {
        let mut q = dq();
        q.core.set_p(1.0);
        let mut rng = Rng::new(2);
        for i in 0..100 {
            let d = q.offer(pkt(Ecn::Ect1, 100), Time::from_millis(i), &mut rng);
            assert_ne!(d.action, Action::Drop);
        }
    }

    #[test]
    fn probe_reports_coupled_probabilities() {
        let mut q = dq();
        q.core.set_p(0.4);
        let st = q.probe();
        assert!((st.p_prime - 0.4).abs() < 1e-12);
        assert!((st.prob - 0.16).abs() < 1e-12, "classic prob is p'²");
        assert!((st.scalable_prob - 0.8).abs() < 1e-12, "L prob is k·p'");
    }

    #[test]
    fn both_queues_send_over_one_link() {
        let mut q = dq();
        let mut rng = Rng::new(3);
        q.offer(pkt(Ecn::Ect1, 1000), Time::ZERO, &mut rng);
        q.offer(pkt(Ecn::NotEct, 500), Time::ZERO, &mut rng);
        assert_eq!((q.l.bytes(), q.c.bytes()), (1000, 500));
        let sizes: Vec<usize> = (1..=2)
            .map(|ms| q.pop(Time::from_millis(ms)).unwrap().0.size)
            .collect();
        assert_eq!(sizes, [1000, 500], "L first, then C");
        assert_eq!(q.link().dequeued_bytes(), 1500);
        assert_eq!(q.len_pkts(), 0);
    }
}
