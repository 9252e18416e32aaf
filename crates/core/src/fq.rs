//! Per-flow queuing (deficit round robin), the alternative the paper's
//! introduction weighs: "Per-flow queuing has been used to isolate each
//! flow from the impairments of others, but this adds a new dimension to
//! the trilemma; the need for the network to inspect within the IP layer
//! to identify flows, not to mention the extra complexity of multiple
//! queues."
//!
//! Implemented as a [`Qdisc`]: one FIFO per flow, served by byte-deficit
//! round robin, with optional per-queue AQM-style sojourn-threshold
//! dropping. Used by the isolation ablation to show that FQ solves
//! coexistence by scheduling (at per-flow state cost) where PI2 solves it
//! by coupled signalling in one queue.

use pi2_netsim::{Decision, Fifo, FlowId, Link, Packet, Qdisc};
use pi2_simcore::{Ckpt, CkptError, CkptReader, CkptWriter, Duration, Rng, Time};
use std::collections::{HashMap, VecDeque};

/// FQ configuration.
#[derive(Clone, Copy, Debug)]
pub struct FqConfig {
    /// Link rate in bits/s.
    pub rate_bps: u64,
    /// Shared buffer limit in bytes.
    pub buffer_bytes: usize,
    /// DRR quantum in bytes (one MTU is the classic choice).
    pub quantum: usize,
    /// Optional per-queue sojourn threshold: arriving packets are dropped
    /// (or the per-flow backlog delay capped) once the flow's own backlog
    /// exceeds this delay at the fair rate. `None` = buffer-limit only.
    pub per_flow_delay_cap: Option<Duration>,
}

impl FqConfig {
    /// Defaults for a link.
    pub fn for_link(rate_bps: u64) -> Self {
        FqConfig {
            rate_bps,
            buffer_bytes: 40_000 * 1500,
            quantum: 1514,
            per_flow_delay_cap: Some(Duration::from_millis(50)),
        }
    }
}

struct FlowQueue {
    flow: FlowId,
    fifo: Fifo,
    deficit: i64,
}

/// A deficit-round-robin fair queue.
///
/// ```
/// use pi2_aqm::{FqConfig, FqDrr};
/// use pi2_netsim::{Ecn, FlowId, Packet, Qdisc};
/// use pi2_simcore::{Rng, Time};
///
/// let mut q = FqDrr::new(FqConfig::for_link(10_000_000));
/// let mut rng = Rng::new(1);
/// for seq in 0..4 {
///     q.offer(Packet::data(FlowId(0), seq, 1000, Ecn::NotEct, Time::ZERO), Time::ZERO, &mut rng);
/// }
/// q.offer(Packet::data(FlowId(1), 0, 1000, Ecn::NotEct, Time::ZERO), Time::ZERO, &mut rng);
/// // Flow 1's lone packet is served within the first round despite flow
/// // 0's head start.
/// let mut served_flow1 = false;
/// for _ in 0..2 {
///     served_flow1 |= q.pop(Time::from_millis(1)).unwrap().0.flow == FlowId(1);
/// }
/// assert!(served_flow1);
/// ```
pub struct FqDrr {
    cfg: FqConfig,
    /// A queue per flow seen, in order of first arrival: the round and the
    /// scheduler index it, so only an arrival hashes its flow id.
    queues: Vec<FlowQueue>,
    slot: HashMap<FlowId, usize>,
    /// Backlogged flows' slots in round-robin order.
    round: VecDeque<usize>,
    total_bytes: usize,
    link: Link,
}

impl FqDrr {
    /// Build an FQ instance.
    pub fn new(cfg: FqConfig) -> Self {
        assert!(cfg.quantum > 0);
        FqDrr {
            cfg,
            queues: Vec::new(),
            slot: HashMap::new(),
            round: VecDeque::new(),
            total_bytes: 0,
            link: Link::new(cfg.rate_bps, cfg.buffer_bytes),
        }
    }

    /// The flow DRR serves next: rotate, topping up deficits, until the
    /// front flow's deficit covers its head packet. Idempotent — once the
    /// front flow can send, nothing moves — and arrivals only append, so
    /// the packet it names is the one the next `pop` sends.
    fn next_flow(&mut self) -> Option<usize> {
        let mut guard = self.round.len() + 1;
        while let Some(&i) = self.round.front() {
            guard -= 1;
            let q = &mut self.queues[i];
            let size = q.fifo.front().map(|(p, _)| p.size)?;
            if q.deficit >= size as i64 {
                return Some(i);
            }
            if guard == 0 {
                // Full rotation without service: top everyone up once.
                for &j in &self.round {
                    self.queues[j].deficit += self.cfg.quantum as i64;
                }
                guard = self.round.len();
                continue;
            }
            q.deficit += self.cfg.quantum as i64;
            self.round.rotate_left(1);
        }
        None
    }
}

impl Qdisc for FqDrr {
    fn offer(&mut self, pkt: Packet, now: Time, _rng: &mut Rng) -> Decision {
        if !self.link.admits(self.total_bytes, pkt.size) {
            return Decision::drop(1.0);
        }
        let (flow, queues) = (pkt.flow, &mut self.queues);
        let i = *self.slot.entry(flow).or_insert_with(|| {
            queues.push(FlowQueue {
                flow,
                // Sized past a typical per-flow backlog so the steady-state
                // enqueue path never reallocates.
                fifo: Fifo::with_capacity(64),
                deficit: 0,
            });
            queues.len() - 1
        });
        let q = &mut self.queues[i];
        // Per-flow backlog cap: a flow may not queue more than its delay
        // cap's worth of bytes *at the full link rate* (a conservative
        // bound on its own sojourn given it gets at least a fair share).
        if let Some(cap) = self.cfg.per_flow_delay_cap {
            let cap_bytes = (self.link.rate_bps() as f64 * cap.as_secs_f64() / 8.0) as usize;
            if q.fifo.bytes() + pkt.size > cap_bytes.max(3 * pkt.size) {
                return Decision::drop(1.0);
            }
        }
        let was_empty = q.fifo.is_empty();
        self.total_bytes += pkt.size;
        q.fifo.push(pkt, now);
        if was_empty {
            self.round.push_back(i);
        }
        Decision::pass(0.0)
    }

    fn start_tx(&mut self) -> Option<usize> {
        let i = self.next_flow()?;
        self.queues[i].fifo.front().map(|(p, _)| p.size)
    }

    fn pop(&mut self, now: Time) -> Option<(Packet, Duration)> {
        let i = self.next_flow()?;
        let q = &mut self.queues[i];
        let (pkt, enq) = q.fifo.pop().expect("next_flow names a backlogged flow");
        q.deficit -= pkt.size as i64;
        self.total_bytes -= pkt.size;
        if q.fifo.is_empty() {
            // Flow leaves the round; reset its deficit (DRR rule).
            q.deficit = 0;
            self.round.pop_front();
        }
        self.link.note_sent(pkt.size);
        Some((pkt, now.saturating_since(enq)))
    }

    fn len_bytes(&self) -> usize {
        self.total_bytes
    }

    fn len_pkts(&self) -> usize {
        self.round.iter().map(|&i| self.queues[i].fifo.len()).sum()
    }

    fn link(&self) -> &Link {
        &self.link
    }

    fn link_mut(&mut self) -> &mut Link {
        &mut self.link
    }

    fn update(&mut self, _now: Time) {}

    fn update_interval(&self) -> Option<Duration> {
        None
    }
}

/// Flows in round-robin order, then the link. Flows with an empty FIFO
/// carry no state (deficit resets to 0 on leaving the round), so the round
/// covers everything that matters.
impl Ckpt for FqDrr {
    fn save_ckpt(&self, w: &mut CkptWriter) {
        w.usize(self.round.len());
        for &i in &self.round {
            let q = &self.queues[i];
            w.u32(q.flow.0);
            w.i64(q.deficit);
            q.fifo.save_ckpt(w);
        }
        self.link.save_ckpt(w);
    }

    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        self.queues.clear();
        self.slot.clear();
        self.round.clear();
        self.total_bytes = 0;
        // A flow id, a deficit and at least its FIFO's packet count.
        let flows = r.len_of(4 + 8 + 8)?;
        for _ in 0..flows {
            let flow = FlowId(r.u32()?);
            let deficit = r.i64()?;
            let mut fifo = Fifo::with_capacity(64);
            fifo.restore_ckpt(r)?;
            if fifo.is_empty() {
                return Err(CkptError::Corrupt("backlogged flow with empty queue"));
            }
            if self.slot.insert(flow, self.queues.len()).is_some() {
                return Err(CkptError::Corrupt("duplicate flow in DRR round"));
            }
            let total = self.total_bytes.checked_add(fifo.bytes());
            self.total_bytes = total.ok_or(CkptError::Corrupt("queued bytes overflow"))?;
            self.round.push_back(self.queues.len());
            self.queues.push(FlowQueue { flow, fifo, deficit });
        }
        self.link.restore_ckpt(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_netsim::Ecn;

    fn fq() -> FqDrr {
        FqDrr::new(FqConfig {
            per_flow_delay_cap: None,
            ..FqConfig::for_link(10_000_000)
        })
    }

    fn pkt(flow: u32, seq: u64, size: usize) -> Packet {
        Packet::data(FlowId(flow), seq, size, Ecn::NotEct, Time::ZERO)
    }

    #[test]
    fn single_flow_behaves_fifo() {
        let mut q = fq();
        let mut rng = Rng::new(1);
        for i in 0..5 {
            q.offer(pkt(0, i, 1000), Time::ZERO, &mut rng);
        }
        for i in 0..5 {
            let (p, _) = q.pop(Time::from_millis(1)).unwrap();
            assert_eq!(p.seq, i);
        }
        assert!(q.pop(Time::from_millis(1)).is_none());
    }

    #[test]
    fn a_corrupt_queue_length_is_truncated_not_an_allocation() {
        let mut q = fq();
        let mut rng = Rng::new(1);
        for i in 0..5 {
            q.offer(pkt(3, i, 1000), Time::ZERO, &mut rng);
        }
        let mut w = CkptWriter::new();
        q.save_ckpt(&mut w);
        let mut blob = w.into_bytes();
        fq().restore_ckpt(&mut CkptReader::new(&blob)).expect("the untouched blob restores");
        // Flow count, flow id, deficit: then the flow's packet count.
        let at = 8 + 4 + 8;
        blob[at..at + 8].copy_from_slice(&(u64::MAX >> 1).to_le_bytes());
        assert_eq!(fq().restore_ckpt(&mut CkptReader::new(&blob)), Err(CkptError::Truncated));
    }

    #[test]
    fn two_flows_interleave_fairly() {
        let mut q = fq();
        let mut rng = Rng::new(1);
        // Flow 0 queues 10 packets first, flow 1 queues 10 after — DRR
        // must still alternate service rather than drain flow 0 first.
        for i in 0..10 {
            q.offer(pkt(0, i, 1000), Time::ZERO, &mut rng);
        }
        for i in 0..10 {
            q.offer(pkt(1, i, 1000), Time::ZERO, &mut rng);
        }
        let mut first_ten = Vec::new();
        for _ in 0..10 {
            first_ten.push(q.pop(Time::from_millis(1)).unwrap().0.flow);
        }
        let f0 = first_ten.iter().filter(|f| f.0 == 0).count();
        let f1 = first_ten.iter().filter(|f| f.0 == 1).count();
        assert!((4..=6).contains(&f0), "flow 0 got {f0} of first 10");
        assert!((4..=6).contains(&f1), "flow 1 got {f1} of first 10");
    }

    #[test]
    fn unequal_packet_sizes_get_equal_bytes() {
        let mut q = fq();
        let mut rng = Rng::new(1);
        // Flow 0 sends 1500 B packets, flow 1 sends 500 B packets.
        for i in 0..30 {
            q.offer(pkt(0, i, 1500), Time::ZERO, &mut rng);
            q.offer(pkt(1, i, 500), Time::ZERO, &mut rng);
            q.offer(pkt(1, 100 + i, 500), Time::ZERO, &mut rng);
            q.offer(pkt(1, 200 + i, 500), Time::ZERO, &mut rng);
        }
        let mut bytes = [0usize; 2];
        for _ in 0..40 {
            let (p, _) = q.pop(Time::from_millis(1)).unwrap();
            bytes[p.flow.0 as usize] += p.size;
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!(
            (0.7..1.4).contains(&ratio),
            "byte service should be ~equal: {bytes:?}"
        );
    }

    #[test]
    fn per_flow_cap_drops_only_the_hog() {
        let mut q = FqDrr::new(FqConfig {
            per_flow_delay_cap: Some(Duration::from_millis(10)), // 12.5 kB
            ..FqConfig::for_link(10_000_000)
        });
        let mut rng = Rng::new(1);
        let mut hog_drops = 0;
        for i in 0..100 {
            let d = q.offer(pkt(0, i, 1500), Time::ZERO, &mut rng);
            if d.action == pi2_netsim::Action::Drop {
                hog_drops += 1;
            }
        }
        assert!(hog_drops > 80, "hog should be capped, {hog_drops} drops");
        // A polite second flow is unaffected.
        let d = q.offer(pkt(1, 0, 1500), Time::ZERO, &mut rng);
        assert_eq!(d.action, pi2_netsim::Action::Pass);
    }

    #[test]
    fn byte_accounting_is_exact() {
        let mut q = fq();
        let mut rng = Rng::new(1);
        q.offer(pkt(0, 0, 700), Time::ZERO, &mut rng);
        q.offer(pkt(1, 0, 300), Time::ZERO, &mut rng);
        assert_eq!(q.len_bytes(), 1000);
        assert_eq!(q.len_pkts(), 2);
        q.pop(Time::from_millis(1));
        q.pop(Time::from_millis(1));
        assert_eq!((q.len_bytes(), q.len_pkts()), (0, 0));
        assert!(q.round.is_empty());
    }
}
