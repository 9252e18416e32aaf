//! The per-hop queueing contract and the parts every qdisc is built from.
//!
//! A hop is a [`Qdisc`] over one [`Link`] (rate, the physical buffer and
//! the bytes sent), queueing through one or more [`Fifo`]s (packets with
//! their enqueue times and byte total). [`BottleneckQueue`] is the plain
//! case: one FIFO whose admission is delegated to the attached [`Aqm`],
//! with the hard byte limit on top modelling the physical buffer (Table 1
//! of the paper: 40 000 packets, i.e. effectively "large"), so
//! unresponsive overload is eventually tail-dropped exactly as the paper
//! describes ("if needed, tail-drop will control non-responsive traffic").
//! DualPI2 and FQ (in `pi2-aqm`) use the same two parts.

use crate::aqm::{Action, Aqm, AqmState, Decision, QueueSnapshot};
use crate::packet::{Ecn, Packet};
use pi2_simcore::{ckpt_fields, Ckpt, CkptError, CkptReader, CkptWriter, Duration, Rng, Time};
use std::collections::VecDeque;

/// Static configuration of the bottleneck queue + link.
#[derive(Clone, Copy, Debug)]
pub struct QueueConfig {
    /// Link rate in bits per second.
    pub rate_bps: u64,
    /// Physical buffer limit in bytes; arrivals beyond it are tail-dropped
    /// regardless of the AQM's verdict.
    pub buffer_bytes: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        // Paper Table 1: 40 000 packets of 1500 B ≈ 60 MB — big enough that
        // the AQM, not the buffer, is in control.
        QueueConfig {
            rate_bps: 10_000_000,
            buffer_bytes: 40_000 * 1500,
        }
    }
}

/// Packets with their enqueue times, in arrival order, and their byte
/// total: the one packet queue under every qdisc (the FIFO bottleneck,
/// each of DualPI2's two queues, each flow of FQ).
pub struct Fifo {
    pkts: VecDeque<(Packet, Time)>,
    bytes: usize,
}

impl Fifo {
    /// An empty queue with room for `cap` packets before it reallocates.
    pub fn with_capacity(cap: usize) -> Self {
        Fifo {
            pkts: VecDeque::with_capacity(cap),
            bytes: 0,
        }
    }

    /// Append `pkt`, enqueued at `now`.
    #[inline]
    pub fn push(&mut self, pkt: Packet, now: Time) {
        self.bytes += pkt.size;
        self.pkts.push_back((pkt, now));
    }

    /// Remove the head packet with its enqueue time.
    #[inline]
    pub fn pop(&mut self) -> Option<(Packet, Time)> {
        let head = self.pkts.pop_front()?;
        self.bytes -= head.0.size;
        Some(head)
    }

    /// The head packet and its enqueue time.
    #[inline]
    pub fn front(&self) -> Option<&(Packet, Time)> {
        self.pkts.front()
    }

    /// Packets queued.
    pub fn len(&self) -> usize {
        self.pkts.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pkts.is_empty()
    }

    /// Bytes queued.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

}

/// The packet count, then each packet and its enqueue time. Restore
/// replaces the contents; the byte total is derived from the packets,
/// not trusted.
impl Ckpt for Fifo {
    fn save_ckpt(&self, w: &mut CkptWriter) {
        w.usize(self.pkts.len());
        for entry in &self.pkts {
            entry.save_ckpt(w);
        }
    }

    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        // Each queued packet is followed by its 8-byte enqueue time.
        let n = r.len_of(8)?;
        self.pkts.clear();
        self.bytes = 0;
        for _ in 0..n {
            let mut entry = <(Packet, Time)>::default();
            entry.restore_ckpt(r)?;
            let bytes = self.bytes.checked_add(entry.0.size);
            self.bytes = bytes.ok_or(CkptError::Corrupt("queued bytes overflow"))?;
            self.pkts.push_back(entry);
        }
        Ok(())
    }
}

/// The serialising link under a qdisc: its rate, the physical buffer the
/// qdisc's queues share, and the bytes it has sent.
#[derive(Clone, Copy, Debug)]
pub struct Link {
    rate_bps: u64,
    buffer_bytes: usize,
    dequeued_bytes: u64,
}

impl Link {
    /// A link of `rate_bps` over a `buffer_bytes` buffer.
    pub fn new(rate_bps: u64, buffer_bytes: usize) -> Self {
        assert!(rate_bps > 0, "link rate must be positive");
        Link {
            rate_bps,
            buffer_bytes,
            dequeued_bytes: 0,
        }
    }

    /// Current rate in bits/s.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Change the rate (takes effect from the next transmission; the
    /// packet on the wire finishes at the old rate, as on real
    /// rate-adapting links).
    pub fn set_rate_bps(&mut self, rate_bps: u64) {
        assert!(rate_bps > 0, "link rate must be positive");
        self.rate_bps = rate_bps;
    }

    /// True if `size` more bytes fit in the buffer on top of `queued`;
    /// an arrival that does not is tail-dropped whatever the AQM says.
    pub fn admits(&self, queued: usize, size: usize) -> bool {
        queued + size <= self.buffer_bytes
    }

    /// Bytes that completed transmission.
    pub fn dequeued_bytes(&self) -> u64 {
        self.dequeued_bytes
    }

    /// Count a departure of `size` bytes.
    pub fn note_sent(&mut self, size: usize) {
        self.dequeued_bytes += size as u64;
    }

    fn check(&self) -> Result<(), &'static str> {
        if self.rate_bps == 0 {
            return Err("restored link rate is zero");
        }
        Ok(())
    }
}

// The rate and the sent-byte count; the buffer is configuration.
ckpt_fields!(Link { rate_bps, dequeued_bytes } check Link::check);

/// A queueing discipline attached to a link.
///
/// The simulator interacts with a hop only through this trait, so schemes
/// with internal structure — the DualQ Coupled AQM's two queues, per-flow
/// queuing — plug in alongside the plain FIFO [`BottleneckQueue`]. Every
/// qdisc queues through [`Fifo`]s and sends over one [`Link`]. A qdisc
/// does not schedule events itself; [`crate::sim::SimCore`] owns the event
/// clock and calls `offer`/`pop` at the right instants. Its [`Ckpt`]
/// layout is all mutable qdisc state: queued packets, the link and any
/// embedded AQM's controller state.
pub trait Qdisc: Ckpt {
    /// Offer a packet for admission; the returned decision reflects any
    /// internal AQM verdict or overflow drop.
    fn offer(&mut self, pkt: Packet, now: Time, rng: &mut Rng) -> Decision;

    /// The link is free: commit to the next packet to send and return its
    /// size, `None` when nothing is queued. The next [`Qdisc::pop`]
    /// returns that packet, whatever is offered meanwhile.
    fn start_tx(&mut self) -> Option<usize>;

    /// Remove the packet whose transmission just completed, returning it
    /// and its sojourn time: the one [`Qdisc::start_tx`] committed to, or,
    /// with no `start_tx` before it, the one `start_tx` would choose now.
    fn pop(&mut self, now: Time) -> Option<(Packet, Duration)>;

    /// Total bytes queued across all internal queues.
    fn len_bytes(&self) -> usize;

    /// Total packets queued.
    fn len_pkts(&self) -> usize;

    /// The link the qdisc sends over.
    fn link(&self) -> &Link;

    /// The link, to change its rate.
    fn link_mut(&mut self) -> &mut Link;

    /// Periodic controller update.
    fn update(&mut self, now: Time);

    /// How often [`Qdisc::update`] should run.
    fn update_interval(&self) -> Option<Duration>;

    /// Snapshot the controller state, taken right after each
    /// [`Qdisc::update`] tick: the one way the simulator reads a hop's
    /// controller. The default, all zeros, is for qdiscs without an update
    /// tick, which are never probed.
    fn probe(&self) -> AqmState {
        AqmState::default()
    }

    /// The linear controlled variable, [`AqmState::p_prime`] of
    /// [`Qdisc::probe`].
    fn control_variable(&self) -> f64 {
        self.probe().p_prime
    }

    /// Instantaneous queue-delay estimate for time-series sampling, in
    /// the spirit of the paper's plots (`qlen·8/C` for a FIFO).
    fn monitor_delay(&self) -> Duration {
        Duration::serialization(self.len_bytes(), self.link().rate_bps())
    }
}

/// A FIFO queue with AQM admission and a serializing link.
pub struct BottleneckQueue {
    fifo: Fifo,
    link: Link,
    aqm: Box<dyn Aqm>,
    last_sojourn: Option<Duration>,
}

impl BottleneckQueue {
    /// Create a queue with the given link/buffer configuration and policy.
    pub fn new(cfg: QueueConfig, aqm: Box<dyn Aqm>) -> Self {
        // Pre-size the FIFO for a typical AQM-controlled standing queue so
        // `offer` stays allocation-free in steady state; deep-buffer
        // pathologies (tail-drop bufferbloat) may still grow it, amortized.
        let cap = (cfg.buffer_bytes / 1500).clamp(64, 4096);
        BottleneckQueue {
            fifo: Fifo::with_capacity(cap),
            link: Link::new(cfg.rate_bps, cfg.buffer_bytes),
            aqm,
            last_sojourn: None,
        }
    }

    /// Immutable view handed to the AQM.
    pub fn snapshot(&self) -> QueueSnapshot {
        QueueSnapshot {
            qlen_bytes: self.fifo.bytes,
            qlen_pkts: self.fifo.len(),
            link_rate_bps: self.link.rate_bps,
            last_sojourn: self.last_sojourn,
        }
    }
}

impl Qdisc for BottleneckQueue {
    /// The AQM decides first; a Mark or Pass verdict on a full buffer
    /// becomes an overflow drop with probability 1.
    fn offer(&mut self, mut pkt: Packet, now: Time, rng: &mut Rng) -> Decision {
        let snap = self.snapshot();
        let decision = self.aqm.on_enqueue(&pkt, &snap, now, rng);
        if decision.action == Action::Drop {
            return decision;
        }
        if !self.link.admits(self.fifo.bytes, pkt.size) {
            return Decision::drop(1.0);
        }
        if decision.action == Action::Mark {
            debug_assert!(pkt.ecn.is_ect(), "AQM marked a Not-ECT packet");
            pkt.ecn = Ecn::Ce;
        }
        // `Fifo::push` written out: as a call (inlined or not) the packet
        // is moved through a stack temporary filled field by field and
        // read back as one 16-byte load, which defeats store-to-load
        // forwarding on every admitted packet (≈ +4 ns per offer+pop).
        self.fifo.bytes += pkt.size;
        self.fifo.pkts.push_back((pkt, now));
        decision
    }

    /// The sojourn covers queueing and serialization.
    fn pop(&mut self, now: Time) -> Option<(Packet, Duration)> {
        let (pkt, enq_at) = self.fifo.pop()?;
        self.link.note_sent(pkt.size);
        let sojourn = now.saturating_since(enq_at);
        self.last_sojourn = Some(sojourn);
        let snap = self.snapshot();
        self.aqm.on_dequeue(&pkt, sojourn, &snap, now);
        Some((pkt, sojourn))
    }

    /// Arrivals only append, so the head is committed as it stands.
    fn start_tx(&mut self) -> Option<usize> {
        self.fifo.front().map(|(p, _)| p.size)
    }

    fn len_bytes(&self) -> usize {
        self.fifo.bytes
    }

    fn len_pkts(&self) -> usize {
        self.fifo.len()
    }

    fn link(&self) -> &Link {
        &self.link
    }

    fn link_mut(&mut self) -> &mut Link {
        &mut self.link
    }

    fn update(&mut self, now: Time) {
        let snap = self.snapshot();
        self.aqm.update(&snap, now);
    }

    fn update_interval(&self) -> Option<Duration> {
        self.aqm.update_interval()
    }

    fn probe(&self) -> AqmState {
        self.aqm.probe()
    }
}

ckpt_fields!(BottleneckQueue { fifo, link, last_sojourn, aqm });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aqm::PassAqm;
    use crate::packet::FlowId;

    fn queue(rate: u64, buf: usize) -> BottleneckQueue {
        BottleneckQueue::new(
            QueueConfig {
                rate_bps: rate,
                buffer_bytes: buf,
            },
            Box::new(PassAqm),
        )
    }

    fn pkt(seq: u64, size: usize) -> Packet {
        Packet::data(FlowId(0), seq, size, Ecn::NotEct, Time::ZERO)
    }

    #[test]
    fn a_restored_byte_total_that_overflows_is_corrupt() {
        let mut fifo = Fifo::with_capacity(2);
        let huge = Packet::data(FlowId(0), 0, usize::MAX / 2 + 1, Ecn::NotEct, Time::ZERO);
        fifo.push(huge, Time::ZERO);
        let mut w = CkptWriter::new();
        fifo.save_ckpt(&mut w);
        let one = w.into_bytes();
        Fifo::with_capacity(2).restore_ckpt(&mut CkptReader::new(&one)).unwrap();
        // The same packet twice: each size is well-formed, their sum is not.
        let mut two = one.clone();
        two[..8].copy_from_slice(&2u64.to_le_bytes());
        two.extend_from_slice(&one[8..]);
        assert_eq!(
            Fifo::with_capacity(2).restore_ckpt(&mut CkptReader::new(&two)),
            Err(CkptError::Corrupt("queued bytes overflow"))
        );
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = queue(1_000_000, usize::MAX);
        let mut rng = Rng::new(1);
        for i in 0..5 {
            q.offer(pkt(i, 100), Time::from_millis(i), &mut rng);
        }
        for i in 0..5 {
            let (p, _) = q.pop(Time::from_millis(100)).unwrap();
            assert_eq!(p.seq, i);
        }
        assert!(q.pop(Time::from_millis(100)).is_none());
    }

    #[test]
    fn byte_accounting_is_exact() {
        let mut q = queue(1_000_000, usize::MAX);
        let mut rng = Rng::new(1);
        q.offer(pkt(0, 100), Time::ZERO, &mut rng);
        q.offer(pkt(1, 250), Time::ZERO, &mut rng);
        assert_eq!(q.len_bytes(), 350);
        assert_eq!(q.len_pkts(), 2);
        q.pop(Time::from_millis(1));
        assert_eq!(q.len_bytes(), 250);
        q.pop(Time::from_millis(2));
        assert_eq!(q.len_bytes(), 0);
        assert_eq!(q.len_pkts(), 0);
    }

    #[test]
    fn overflow_tail_drops() {
        let mut q = queue(1_000_000, 250);
        let mut rng = Rng::new(1);
        let d0 = q.offer(pkt(0, 200), Time::ZERO, &mut rng);
        assert_eq!(d0.action, Action::Pass);
        let d1 = q.offer(pkt(1, 100), Time::ZERO, &mut rng);
        assert_eq!((d1.action, d1.prob), (Action::Drop, 1.0));
        assert_eq!(q.len_pkts(), 1);
    }

    #[test]
    fn sojourn_measured_from_enqueue_to_pop() {
        let mut q = queue(1_000_000, usize::MAX);
        let mut rng = Rng::new(1);
        q.offer(pkt(0, 100), Time::from_millis(10), &mut rng);
        let (_, sojourn) = q.pop(Time::from_millis(35)).unwrap();
        assert_eq!(sojourn, Duration::from_millis(25));
        assert_eq!(q.snapshot().last_sojourn, Some(Duration::from_millis(25)));
    }

    #[test]
    fn rate_change_applies() {
        let mut q = queue(1_000_000, usize::MAX);
        q.link_mut().set_rate_bps(2_000_000);
        assert_eq!(q.link().rate_bps(), 2_000_000);
        assert_eq!(q.snapshot().link_rate_bps, 2_000_000);
    }

    #[test]
    fn the_link_counts_the_bytes_popped() {
        let mut q = queue(1_000_000, usize::MAX);
        let mut rng = Rng::new(1);
        q.offer(pkt(0, 100), Time::ZERO, &mut rng);
        q.offer(pkt(1, 250), Time::ZERO, &mut rng);
        q.pop(Time::from_millis(1));
        assert_eq!(q.link().dequeued_bytes(), 100);
        q.pop(Time::from_millis(2));
        assert_eq!(q.link().dequeued_bytes(), 350);
    }

    /// An AQM that marks everything, to probe the mark/overflow interplay.
    struct MarkAlways;
    impl Aqm for MarkAlways {
        fn on_enqueue(
            &mut self,
            _pkt: &Packet,
            _snap: &QueueSnapshot,
            _now: Time,
            _rng: &mut Rng,
        ) -> crate::aqm::Decision {
            crate::aqm::Decision::mark(1.0)
        }
        fn name(&self) -> &'static str {
            "markalways"
        }
    }
    ckpt_fields!(MarkAlways {});

    #[test]
    fn overflow_overrides_mark_decision() {
        // A Mark verdict on a full buffer must become an overflow drop,
        // never an admission.
        let mut q = BottleneckQueue::new(
            QueueConfig {
                rate_bps: 1_000_000,
                buffer_bytes: 1500,
            },
            Box::new(MarkAlways),
        );
        let mut rng = Rng::new(1);
        let mk = |seq| Packet::data(FlowId(0), seq, 1500, Ecn::Ect1, Time::ZERO);
        let d0 = q.offer(mk(0), Time::ZERO, &mut rng);
        assert_eq!(d0.action, Action::Mark);
        let d1 = q.offer(mk(1), Time::ZERO, &mut rng);
        assert_eq!((d1.action, d1.prob), (Action::Drop, 1.0));
        // The admitted packet carries CE; the rejected one left no trace.
        let (pkt, _) = q.pop(Time::from_millis(20)).unwrap();
        assert_eq!((pkt.seq, pkt.ecn), (0, Ecn::Ce));
        assert!(q.pop(Time::from_millis(20)).is_none());
    }

    #[test]
    fn start_tx_commits_to_the_head() {
        let mut q = queue(1_000_000, usize::MAX);
        let mut rng = Rng::new(1);
        assert_eq!(q.start_tx(), None);
        q.offer(pkt(0, 777), Time::ZERO, &mut rng);
        assert_eq!(q.start_tx(), Some(777));
        q.offer(pkt(1, 100), Time::ZERO, &mut rng);
        assert_eq!(q.pop(Time::from_millis(1)).map(|(p, _)| p.seq), Some(0));
    }
}
