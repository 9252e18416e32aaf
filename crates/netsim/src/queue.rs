//! The bottleneck FIFO queue.
//!
//! One queue guards the dumbbell bottleneck. Admission is delegated to the
//! attached [`Aqm`]; a hard byte limit on top models the physical buffer
//! (Table 1 of the paper: 40 000 packets, i.e. effectively "large"), so
//! unresponsive overload is eventually tail-dropped exactly as the paper
//! describes ("if needed, tail-drop will control non-responsive traffic").

use crate::aqm::{Action, Aqm, AqmState, Decision, QueueSnapshot};
use crate::ckpt::{read_packet, write_packet};
use crate::packet::{Ecn, Packet};
use pi2_simcore::{CkptError, CkptReader, CkptWriter, Duration, Rng, Time};
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

/// Aggregate counters kept by the queue.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueStats {
    /// Packets admitted.
    pub enqueued: u64,
    /// Packets that completed transmission.
    pub dequeued: u64,
    /// Bytes that completed transmission.
    pub dequeued_bytes: u64,
    /// Packets dropped by the AQM decision.
    pub aqm_dropped: u64,
    /// Packets CE-marked by the AQM decision.
    pub aqm_marked: u64,
    /// Packets tail-dropped on buffer overflow.
    pub overflowed: u64,
}

impl QueueStats {
    /// Write the six counters, in field order.
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        for v in [
            self.enqueued,
            self.dequeued,
            self.dequeued_bytes,
            self.aqm_dropped,
            self.aqm_marked,
            self.overflowed,
        ] {
            w.u64(v);
        }
    }

    /// Read back what [`save_ckpt`](Self::save_ckpt) wrote.
    pub fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        *self = QueueStats {
            enqueued: r.u64()?,
            dequeued: r.u64()?,
            dequeued_bytes: r.u64()?,
            aqm_dropped: r.u64()?,
            aqm_marked: r.u64()?,
            overflowed: r.u64()?,
        };
        Ok(())
    }
}

/// A queueing discipline attached to the bottleneck link.
///
/// The simulator interacts with the bottleneck only through this trait,
/// so schemes with internal structure — the DualQ Coupled AQM's two
/// queues, per-flow queuing — plug in alongside the plain FIFO
/// [`BottleneckQueue`]. A qdisc does not schedule events itself;
/// [`crate::sim::SimCore`] owns the event clock and calls `offer`/`pop`
/// at the right instants.
pub trait Qdisc {
    /// Offer a packet for admission; the returned decision reflects any
    /// internal AQM verdict or overflow drop.
    fn offer(&mut self, pkt: Packet, now: Time, rng: &mut Rng) -> Decision;

    /// Remove the packet whose transmission just completed, returning it
    /// and its sojourn time.
    fn pop(&mut self, now: Time) -> Option<(Packet, Duration)>;

    /// Size of the next packet to serialize, if any.
    fn head_size(&self) -> Option<usize>;

    /// Total bytes queued across all internal queues.
    fn len_bytes(&self) -> usize;

    /// Total packets queued.
    fn len_pkts(&self) -> usize;

    /// True if nothing is queued.
    fn is_empty(&self) -> bool {
        self.len_pkts() == 0
    }

    /// Current link rate in bits/s.
    fn rate_bps(&self) -> u64;

    /// Change the link rate.
    fn set_rate_bps(&mut self, rate_bps: u64);

    /// Periodic controller update.
    fn update(&mut self, now: Time);

    /// How often [`Qdisc::update`] should run.
    fn update_interval(&self) -> Option<Duration>;

    /// The internal control variable, for monitoring.
    fn control_variable(&self) -> f64;

    /// Snapshot the AQM control state for telemetry, taken right after
    /// each [`Qdisc::update`] tick. The default mirrors
    /// [`Qdisc::control_variable`] into both probability fields.
    fn probe(&self) -> AqmState {
        AqmState {
            p_prime: self.control_variable(),
            prob: self.control_variable(),
            ..AqmState::default()
        }
    }

    /// Aggregate counters.
    fn stats(&self) -> &QueueStats;

    /// Instantaneous queue-delay estimate for time-series sampling, in
    /// the spirit of the paper's plots (`qlen·8/C` for a FIFO).
    fn monitor_delay(&self) -> Duration {
        Duration::serialization(self.len_bytes(), self.rate_bps())
    }

    /// Serialize all mutable qdisc state — queued packets, link rate,
    /// counters and the embedded AQM's controller state — in a fixed
    /// field order (checkpointing).
    fn save_ckpt(&self, w: &mut CkptWriter);

    /// Restore state captured by [`Qdisc::save_ckpt`] into a freshly
    /// constructed qdisc of the same type and configuration.
    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError>;
}

/// A FIFO queue with AQM admission and a serializing link.
///
/// The queue itself does not schedule events; [`crate::sim::SimCore`] owns
/// the event clock and calls [`BottleneckQueue::offer`] / `pop` at the
/// right instants.
pub struct BottleneckQueue {
    fifo: VecDeque<(Packet, Time)>,
    qlen_bytes: usize,
    rate_bps: u64,
    buffer_bytes: usize,
    aqm: Box<dyn Aqm>,
    last_sojourn: Option<Duration>,
    /// Running statistics.
    pub stats: QueueStats,
}

impl BottleneckQueue {
    /// Create a queue with the given link/buffer configuration and policy.
    pub fn new(cfg: QueueConfig, aqm: Box<dyn Aqm>) -> Self {
        assert!(cfg.rate_bps > 0, "link rate must be positive");
        // Pre-size the FIFO for a typical AQM-controlled standing queue so
        // `offer` stays allocation-free in steady state; deep-buffer
        // pathologies (tail-drop bufferbloat) may still grow it, amortized.
        let cap = (cfg.buffer_bytes / 1500).clamp(64, 4096);
        BottleneckQueue {
            fifo: VecDeque::with_capacity(cap),
            qlen_bytes: 0,
            rate_bps: cfg.rate_bps,
            buffer_bytes: cfg.buffer_bytes,
            aqm,
            last_sojourn: None,
            stats: QueueStats::default(),
        }
    }

    /// Current link rate in bits/s.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Change the link rate (takes effect from the next transmission; the
    /// packet currently on the wire finishes at the old rate, as on real
    /// rate-adapting links).
    pub fn set_rate_bps(&mut self, rate_bps: u64) {
        assert!(rate_bps > 0, "link rate must be positive");
        self.rate_bps = rate_bps;
    }

    /// Bytes currently queued.
    pub fn len_bytes(&self) -> usize {
        self.qlen_bytes
    }

    /// Packets currently queued.
    pub fn len_pkts(&self) -> usize {
        self.fifo.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Size in bytes of the packet at the head (the next to serialize).
    pub fn head_size(&self) -> Option<usize> {
        self.fifo.front().map(|(p, _)| p.size)
    }

    /// Immutable view handed to the AQM.
    pub fn snapshot(&self) -> QueueSnapshot {
        QueueSnapshot {
            qlen_bytes: self.qlen_bytes,
            qlen_pkts: self.fifo.len(),
            link_rate_bps: self.rate_bps,
            last_sojourn: self.last_sojourn,
        }
    }

    /// Expose the AQM for monitoring (e.g. sampling its probability).
    pub fn aqm(&self) -> &dyn Aqm {
        self.aqm.as_ref()
    }

    /// Run the periodic AQM update.
    pub fn aqm_update(&mut self, now: Time) {
        let snap = self.snapshot();
        self.aqm.update(&snap, now);
    }

    /// The AQM's requested update period.
    pub fn aqm_update_interval(&self) -> Option<Duration> {
        self.aqm.update_interval()
    }

    /// Offer a packet for admission. Returns the decision that was applied
    /// (after the buffer-limit override, which reports as a drop with
    /// probability 1 and increments the overflow counter).
    pub fn offer(&mut self, mut pkt: Packet, now: Time, rng: &mut Rng) -> Decision {
        let snap = self.snapshot();
        let decision = self.aqm.on_enqueue(&pkt, &snap, now, rng);
        match decision.action {
            Action::Drop => {
                self.stats.aqm_dropped += 1;
                decision
            }
            Action::Mark | Action::Pass => {
                if self.qlen_bytes + pkt.size > self.buffer_bytes {
                    self.stats.overflowed += 1;
                    return Decision::drop(1.0);
                }
                if decision.action == Action::Mark {
                    debug_assert!(pkt.ecn.is_ect(), "AQM marked a Not-ECT packet");
                    pkt.ecn = Ecn::Ce;
                    self.stats.aqm_marked += 1;
                }
                self.qlen_bytes += pkt.size;
                self.stats.enqueued += 1;
                self.fifo.push_back((pkt, now));
                decision
            }
        }
    }

    /// Remove the head packet, whose transmission just completed at `now`.
    /// Returns the packet and its sojourn time (queueing + serialization).
    pub fn pop(&mut self, now: Time) -> Option<(Packet, Duration)> {
        let (pkt, enq_at) = self.fifo.pop_front()?;
        self.qlen_bytes -= pkt.size;
        let sojourn = now.saturating_since(enq_at);
        self.last_sojourn = Some(sojourn);
        self.stats.dequeued += 1;
        self.stats.dequeued_bytes += pkt.size as u64;
        let snap = self.snapshot();
        self.aqm.on_dequeue(&pkt, sojourn, &snap, now);
        Some((pkt, sojourn))
    }
}

impl Qdisc for BottleneckQueue {
    fn offer(&mut self, pkt: Packet, now: Time, rng: &mut Rng) -> Decision {
        BottleneckQueue::offer(self, pkt, now, rng)
    }
    fn pop(&mut self, now: Time) -> Option<(Packet, Duration)> {
        BottleneckQueue::pop(self, now)
    }
    fn head_size(&self) -> Option<usize> {
        BottleneckQueue::head_size(self)
    }
    fn len_bytes(&self) -> usize {
        BottleneckQueue::len_bytes(self)
    }
    fn len_pkts(&self) -> usize {
        BottleneckQueue::len_pkts(self)
    }
    fn rate_bps(&self) -> u64 {
        BottleneckQueue::rate_bps(self)
    }
    fn set_rate_bps(&mut self, rate_bps: u64) {
        BottleneckQueue::set_rate_bps(self, rate_bps)
    }
    fn update(&mut self, now: Time) {
        self.aqm_update(now)
    }
    fn update_interval(&self) -> Option<Duration> {
        self.aqm_update_interval()
    }
    fn control_variable(&self) -> f64 {
        self.aqm().control_variable()
    }
    fn probe(&self) -> AqmState {
        self.aqm().probe()
    }
    fn stats(&self) -> &QueueStats {
        &self.stats
    }
    fn save_ckpt(&self, w: &mut CkptWriter) {
        w.usize(self.fifo.len());
        for (pkt, enq_at) in &self.fifo {
            write_packet(w, pkt);
            w.time(*enq_at);
        }
        w.u64(self.rate_bps);
        w.bool(self.last_sojourn.is_some());
        w.duration(self.last_sojourn.unwrap_or(Duration::ZERO));
        self.stats.save_ckpt(w);
        self.aqm.save_ckpt(w);
    }
    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let n = r.usize()?;
        self.fifo.clear();
        self.qlen_bytes = 0;
        for _ in 0..n {
            let pkt = read_packet(r)?;
            let enq_at = r.time()?;
            self.qlen_bytes += pkt.size;
            self.fifo.push_back((pkt, enq_at));
        }
        self.rate_bps = r.u64()?;
        if self.rate_bps == 0 {
            return Err(CkptError::Corrupt("restored link rate is zero"));
        }
        let has_sojourn = r.bool()?;
        let sojourn = r.duration()?;
        self.last_sojourn = has_sojourn.then_some(sojourn);
        self.stats.restore_ckpt(r)?;
        self.aqm.restore_ckpt(r)
    }
}

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
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_tail_drops() {
        let mut q = queue(1_000_000, 250);
        let mut rng = Rng::new(1);
        let d0 = q.offer(pkt(0, 200), Time::ZERO, &mut rng);
        assert_eq!(d0.action, Action::Pass);
        let d1 = q.offer(pkt(1, 100), Time::ZERO, &mut rng);
        assert_eq!(d1.action, Action::Drop);
        assert_eq!(q.stats.overflowed, 1);
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
        q.set_rate_bps(2_000_000);
        assert_eq!(q.rate_bps(), 2_000_000);
        assert_eq!(q.snapshot().link_rate_bps, 2_000_000);
    }

    #[test]
    fn stats_count_enqueue_dequeue() {
        let mut q = queue(1_000_000, usize::MAX);
        let mut rng = Rng::new(1);
        q.offer(pkt(0, 100), Time::ZERO, &mut rng);
        q.offer(pkt(1, 100), Time::ZERO, &mut rng);
        q.pop(Time::from_millis(1));
        assert_eq!(q.stats.enqueued, 2);
        assert_eq!(q.stats.dequeued, 1);
        assert_eq!(q.stats.dequeued_bytes, 100);
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
        fn save_ckpt(&self, _w: &mut CkptWriter) {}
        fn restore_ckpt(&mut self, _r: &mut CkptReader) -> Result<(), CkptError> {
            Ok(())
        }
    }

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
        assert_eq!(d1.action, Action::Drop);
        assert_eq!(d1.prob, 1.0);
        assert_eq!(q.stats.overflowed, 1);
        assert_eq!(q.stats.aqm_marked, 1, "the rejected packet is not counted as marked");
        // The admitted packet carries CE.
        let (pkt, _) = q.pop(Time::from_millis(20)).unwrap();
        assert_eq!(pkt.ecn, Ecn::Ce);
    }

    #[test]
    fn head_size_reports_next_packet() {
        let mut q = queue(1_000_000, usize::MAX);
        let mut rng = Rng::new(1);
        assert_eq!(q.head_size(), None);
        q.offer(pkt(0, 777), Time::ZERO, &mut rng);
        assert_eq!(q.head_size(), Some(777));
    }
}
