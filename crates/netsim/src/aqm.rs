//! The AQM interface between the queue and a drop/mark policy.
//!
//! An [`Aqm`] sees three things, mirroring where a Linux qdisc hooks in:
//!
//! * every **enqueue** attempt, where it must decide to pass, CE-mark, or
//!   drop the packet (Linux PIE and PI2 both decide at enqueue);
//! * every **dequeue**, so it can run a departure-rate estimator the way
//!   Linux PIE does (`dq_rate_estimator`), or read sojourn timestamps;
//! * a periodic **update** tick (the paper's `T` = 32 ms), where the PI
//!   core recomputes its probability.

use crate::packet::Packet;
use pi2_simcore::{ckpt_fields, Ckpt, Duration, Rng, Time};

/// What to do with a packet at enqueue time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// Admit the packet unchanged.
    Pass,
    /// Admit the packet but set its ECN field to CE.
    Mark,
    /// Discard the packet.
    Drop,
}

/// An enqueue decision plus the probability that produced it, for
/// per-packet probability accounting (paper Figure 17 reports P25/mean/P99
/// of the applied mark/drop probability).
#[derive(Clone, Copy, Debug)]
pub struct Decision {
    /// The verdict.
    pub action: Action,
    /// The mark/drop probability that was in force for this packet's
    /// traffic class when the decision was taken.
    pub prob: f64,
}

impl Decision {
    /// A pass decision taken under probability `prob`.
    pub fn pass(prob: f64) -> Self {
        Decision { action: Action::Pass, prob }
    }
    /// A mark decision taken under probability `prob`.
    pub fn mark(prob: f64) -> Self {
        Decision { action: Action::Mark, prob }
    }
    /// A drop decision taken under probability `prob`.
    pub fn drop(prob: f64) -> Self {
        Decision { action: Action::Drop, prob }
    }
}

/// Instantaneous queue state handed to the AQM at each hook.
#[derive(Clone, Copy, Debug)]
pub struct QueueSnapshot {
    /// Bytes currently queued (including the packet in transmission).
    pub qlen_bytes: usize,
    /// Packets currently queued.
    pub qlen_pkts: usize,
    /// Current bottleneck link rate in bits/s.
    pub link_rate_bps: u64,
    /// Sojourn time of the most recently dequeued packet, if any packet
    /// has been dequeued yet (CoDel-style timestamp estimate).
    pub last_sojourn: Option<Duration>,
}

impl QueueSnapshot {
    /// Queue delay estimated from queue length and the configured link
    /// rate (`qlen · 8 / C`). This is the estimate a hardware PIE would
    /// compute when a departure-rate measurement is not yet available.
    pub fn delay_from_qlen(&self) -> Duration {
        Duration::serialization(self.qlen_bytes, self.link_rate_bps)
    }
}

/// A structured snapshot of an AQM's internal control state, captured at
/// each update tick and streamed to trace sinks (`"ev":"aqm"` lines in a
/// JSONL trace).
///
/// Fields an AQM does not maintain stay at their zero defaults — a probe
/// reports what the policy actually computes, e.g. only DualPI2/coupled
/// PI2 fill `scalable_prob`, only PIE fills `burst_allowance`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AqmState {
    /// The linear controlled variable: `p'` for PI2/coupled/DualPI2, `p`
    /// itself for PIE/PI (they control the output probability directly).
    pub p_prime: f64,
    /// The classic-traffic output probability actually applied to
    /// drops/marks (`p = p'²` for PI2, capped `p` for PIE/PI).
    pub prob: f64,
    /// The scalable-traffic (L4S) marking probability, where the scheme
    /// has one (coupled PI2, DualPI2); otherwise 0.
    pub scalable_prob: f64,
    /// The proportional contribution `α·(qdelay − target)` of the last
    /// controller update.
    pub alpha_term: f64,
    /// The integral-path contribution `β·(qdelay − qdelay_prev)` of the
    /// last controller update.
    pub beta_term: f64,
    /// Remaining PIE burst allowance; zero for AQMs without one.
    pub burst_allowance: Duration,
    /// The departure-rate estimator's smoothed rate in bytes/s, when a
    /// RFC 8033-style estimator is active and has sampled; otherwise 0.
    pub est_rate_bytes_per_sec: f64,
    /// The queue-delay input of the last controller update.
    pub qdelay: Duration,
}

/// A drop/mark policy attached to the bottleneck queue. Its [`Ckpt`]
/// layout is every mutable controller field; a policy with no state
/// declares an empty one ([`PassAqm`]), so a stateful one cannot forget it.
pub trait Aqm: Ckpt {
    /// Decide the fate of `pkt`, which the queue is about to admit.
    fn on_enqueue(
        &mut self,
        pkt: &Packet,
        snap: &QueueSnapshot,
        now: Time,
        rng: &mut Rng,
    ) -> Decision;

    /// Observe a departure; `sojourn` is the packet's time in the queue
    /// including its own serialization.
    fn on_dequeue(&mut self, pkt: &Packet, sojourn: Duration, snap: &QueueSnapshot, now: Time) {
        let _ = (pkt, sojourn, snap, now);
    }

    /// Periodic controller update. Called every [`Aqm::update_interval`]
    /// if that returns `Some`.
    fn update(&mut self, snap: &QueueSnapshot, now: Time) {
        let _ = (snap, now);
    }

    /// How often [`Aqm::update`] should run; `None` for stateless AQMs.
    fn update_interval(&self) -> Option<Duration> {
        None
    }

    /// Snapshot the internal control state: the one way the simulator,
    /// its sinks and the hybrid background read a controller. The default,
    /// all zeros, is for policies without an update tick, which are never
    /// probed.
    fn probe(&self) -> AqmState {
        AqmState::default()
    }

    /// The linear controlled variable, [`AqmState::p_prime`] of
    /// [`Aqm::probe`]: `p` for PIE and PI, `p'` for PI2.
    fn control_variable(&self) -> f64 {
        self.probe().p_prime
    }

    /// Human-readable name used in experiment output tables.
    fn name(&self) -> &'static str;
}

/// The trivial AQM: admit everything (tail-drop behaviour comes from the
/// queue's byte limit). Used as the baseline and in substrate tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassAqm;

impl Aqm for PassAqm {
    fn on_enqueue(
        &mut self,
        _pkt: &Packet,
        _snap: &QueueSnapshot,
        _now: Time,
        _rng: &mut Rng,
    ) -> Decision {
        Decision::pass(0.0)
    }

    fn name(&self) -> &'static str {
        "taildrop"
    }
}

ckpt_fields!(PassAqm {});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Ecn, FlowId};

    #[test]
    fn pass_aqm_always_passes() {
        let mut aqm = PassAqm;
        let mut rng = Rng::new(1);
        let snap = QueueSnapshot {
            qlen_bytes: 10_000,
            qlen_pkts: 7,
            link_rate_bps: 10_000_000,
            last_sojourn: None,
        };
        let pkt = Packet::data(FlowId(0), 0, 1500, Ecn::NotEct, Time::ZERO);
        for _ in 0..100 {
            let d = aqm.on_enqueue(&pkt, &snap, Time::ZERO, &mut rng);
            assert_eq!(d.action, Action::Pass);
        }
        assert_eq!(aqm.update_interval(), None);
        assert_eq!(aqm.probe(), AqmState::default());
    }

    #[test]
    fn snapshot_delay_from_qlen() {
        let snap = QueueSnapshot {
            qlen_bytes: 12_500, // 100_000 bits
            qlen_pkts: 10,
            link_rate_bps: 10_000_000, // 10 Mb/s -> 10 ms
            last_sojourn: None,
        };
        assert_eq!(snap.delay_from_qlen(), Duration::from_millis(10));
    }
}
