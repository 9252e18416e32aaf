//! Re-armable per-flow timers that keep one event in the wheel.
//!
//! A retransmission timer is re-armed by every ACK of new data and fires
//! almost never. Pushing a wheel event per arming and abandoning the
//! previous one (lazy *cancellation*) leaves the dispatch loop popping a
//! dead event for every ACK of the last RTO interval. A [`LazyTimer`]
//! re-arms lazily instead: arming moves a deadline, and one *stand-in*
//! event sits in the wheel on the timer's behalf. A stand-in that wakes
//! before the deadline re-pushes itself at the deadline; a new event is
//! pushed at arming time only when there is no stand-in or the deadline
//! moved earlier than it (an RTO shrinking when a backoff resets), in
//! which case the superseded stand-in is ignored when it pops.
//!
//! ## Determinism contract
//!
//! Every arming reserves the tie-break sequence number a pushed event
//! would have consumed ([`EventQueue::reserve_seq`]), and the event that
//! finally finds the timer due carries exactly the `(time, seq)` key of the
//! arming it stands for. So the effective timer event pops where the
//! one-event-per-arming scheme popped it, every other event keeps its own
//! key, and a run differs from that scheme only in the no-op pops it no
//! longer makes.
//!
//! [`EventQueue::reserve_seq`]: pi2_simcore::EventQueue::reserve_seq

use crate::packet::FlowId;
use crate::sim::{Event, SimCore, TimerKind};
use pi2_simcore::{ckpt_fields, Duration, Time};

/// The `(time, seq)` key of a wheel event.
type Key = (Time, u64);

/// One re-armable timer of one flow. The owning [`Source`] keeps it as a
/// field, arms and cancels it, and hands it every [`Event::Timer`] of its
/// kind through [`LazyTimer::wake`].
///
/// [`Source`]: crate::sim::Source
#[derive(Debug)]
pub struct LazyTimer {
    flow: FlowId,
    kind: TimerKind,
    /// Key of the current arming. Stays set once due, until the owner
    /// cancels or re-arms.
    deadline: Option<Key>,
    /// Key of the pending wheel event standing in for the timer; never
    /// later than `deadline` while both are set.
    standin: Option<Key>,
}

impl LazyTimer {
    /// An unarmed timer delivering [`Event::Timer`]s of `kind` to `flow`.
    pub fn new(flow: FlowId, kind: TimerKind) -> Self {
        LazyTimer {
            flow,
            kind,
            deadline: None,
            standin: None,
        }
    }

    /// True from [`arm`](Self::arm) until [`cancel`](Self::cancel) —
    /// including after the timer came due, if the owner let it stand.
    pub fn is_armed(&self) -> bool {
        self.deadline.is_some()
    }

    /// (Re-)arm the timer `delay` from now, replacing any earlier arming.
    pub fn arm(&mut self, core: &mut SimCore, delay: Duration) {
        let key = (core.now() + delay.max_zero(), core.events.reserve_seq());
        self.deadline = Some(key);
        if self.standin.is_none_or(|s| key < s) {
            self.push_standin(core, key);
        }
    }

    /// Disarm. A pending stand-in wakes once more, as a no-op.
    pub fn cancel(&mut self) {
        self.deadline = None;
    }

    /// Handle an [`Event::Timer`] of this timer's kind carrying `id`.
    /// Returns true when the timer is due; the owner then acts on it and
    /// cancels or re-arms. Returns false for a stand-in that woke early
    /// (it has re-pushed itself at the deadline), one that outlived a
    /// cancel, or one superseded by an earlier deadline.
    pub fn wake(&mut self, core: &mut SimCore, id: u64) -> bool {
        let key = (core.now(), id);
        if self.standin != Some(key) {
            return false;
        }
        self.standin = None;
        match self.deadline {
            Some(due) if due == key => true,
            Some(later) => {
                self.push_standin(core, later);
                false
            }
            None => false,
        }
    }

    fn push_standin(&mut self, core: &mut SimCore, key: Key) {
        let (at, seq) = key;
        let event = Event::Timer {
            flow: self.flow,
            kind: self.kind,
            id: seq,
        };
        core.events.push_reserved(at, seq, event);
        self.standin = Some(key);
    }

    fn check(&self) -> Result<(), &'static str> {
        if let (Some(d), Some(s)) = (self.deadline, self.standin) {
            if s > d {
                return Err("timer stand-in later than its deadline");
            }
        }
        Ok(())
    }
}

// The arming and the stand-in; `flow` and `kind` are construction-time
// configuration.
ckpt_fields!(LazyTimer { deadline, standin } check LazyTimer::check);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aqm::PassAqm;
    use crate::sim::{PathConf, Sim, SimConfig};
    use pi2_simcore::{Ckpt, CkptError, CkptReader, CkptWriter};

    const MS: fn(i64) -> Duration = Duration::from_millis;

    /// A core with one flow and nothing in the wheel but the 1 s sample
    /// tick, and a timer for that flow.
    fn core_and_timer() -> (Sim, LazyTimer) {
        let mut sim = Sim::new(SimConfig::default(), Box::new(PassAqm));
        let flow = sim.core.register_flow(PathConf::symmetric(MS(10)), "f");
        (sim, LazyTimer::new(flow, TimerKind::Rto))
    }

    /// Pop the next event; if it is a timer event, hand it to `timer`.
    /// Returns the pop time and what `wake` said (`None` for other events).
    fn pop(core: &mut SimCore, timer: &mut LazyTimer) -> (Time, Option<bool>) {
        let (at, event) = core.events.pop().expect("an event is pending");
        match event {
            Event::Timer { id, .. } => (at, Some(timer.wake(core, id))),
            _ => (at, None),
        }
    }

    /// Re-arming later pushes nothing; the stand-in moves itself, and the
    /// event that finds the timer due pops between the plain events pushed
    /// just before and just after the last arming — where an event pushed
    /// by that arming would have.
    #[test]
    fn the_effective_event_keeps_the_key_of_the_last_arming() {
        let (mut sim, mut timer) = core_and_timer();
        let core = &mut sim.core;
        let due = Time::ZERO + MS(30);
        timer.arm(core, MS(10));
        core.schedule(due, Event::SetLinkRate(1));
        timer.arm(core, MS(30));
        core.schedule(due, Event::SetLinkRate(2));
        assert_eq!(
            core.events.len(),
            4,
            "sample tick, one stand-in, two rate steps"
        );
        assert_eq!(pop(core, &mut timer), (Time::ZERO + MS(10), Some(false)));
        assert_eq!(core.events.len(), 4, "the early stand-in re-pushed itself");
        assert_eq!(pop(core, &mut timer), (due, None));
        assert_eq!(pop(core, &mut timer), (due, Some(true)));
        assert_eq!(pop(core, &mut timer), (due, None));
        assert_eq!(core.events.len(), 1);
    }

    /// A deadline earlier than the stand-in needs an event of its own; the
    /// superseded stand-in then pops as a no-op and pushes nothing.
    #[test]
    fn an_earlier_deadline_pushes_at_once() {
        let (mut sim, mut timer) = core_and_timer();
        let core = &mut sim.core;
        timer.arm(core, MS(30));
        timer.arm(core, MS(10));
        assert_eq!(core.events.len(), 3);
        assert_eq!(pop(core, &mut timer), (Time::ZERO + MS(10), Some(true)));
        timer.cancel();
        assert_eq!(pop(core, &mut timer), (Time::ZERO + MS(30), Some(false)));
        assert_eq!(core.events.len(), 1);
    }

    /// Cancelling leaves the stand-in to wake once, as a no-op; arming
    /// again before that reuses it.
    #[test]
    fn a_cancelled_timer_wakes_once_and_a_rearmed_one_reuses_the_standin() {
        let (mut sim, mut timer) = core_and_timer();
        let core = &mut sim.core;
        timer.arm(core, MS(10));
        timer.cancel();
        assert!(!timer.is_armed());
        timer.arm(core, MS(20));
        assert_eq!(core.events.len(), 2, "no second event");
        timer.cancel();
        assert_eq!(pop(core, &mut timer), (Time::ZERO + MS(10), Some(false)));
        assert_eq!(core.events.len(), 1, "nothing armed, nothing re-pushed");
    }

    /// A due timer stays armed until its owner says otherwise, and has no
    /// event left: the next arming pushes.
    #[test]
    fn a_due_timer_left_standing_is_armed_without_an_event() {
        let (mut sim, mut timer) = core_and_timer();
        let core = &mut sim.core;
        timer.arm(core, MS(10));
        assert_eq!(pop(core, &mut timer).1, Some(true));
        assert!(timer.is_armed());
        assert_eq!(core.events.len(), 1);
        timer.arm(core, MS(10));
        assert_eq!(core.events.len(), 2);
        assert_eq!(pop(core, &mut timer), (Time::ZERO + MS(20), Some(true)));
    }

    #[test]
    fn checkpoint_round_trips_both_keys_and_rejects_a_late_standin() {
        let (mut sim, mut timer) = core_and_timer();
        let core = &mut sim.core;
        timer.arm(core, MS(10));
        timer.arm(core, MS(30));
        let mut w = CkptWriter::new();
        timer.save_ckpt(&mut w);
        let blob = w.into_bytes();
        let mut copy = LazyTimer::new(timer.flow, timer.kind);
        copy.restore_ckpt(&mut CkptReader::new(&blob))
            .expect("restores");
        assert_eq!(
            (copy.deadline, copy.standin),
            (timer.deadline, timer.standin)
        );
        assert!(copy.standin < copy.deadline);

        std::mem::swap(&mut timer.deadline, &mut timer.standin);
        let mut w = CkptWriter::new();
        timer.save_ckpt(&mut w);
        let blob = w.into_bytes();
        assert!(matches!(
            copy.restore_ckpt(&mut CkptReader::new(&blob)),
            Err(CkptError::Corrupt(_))
        ));
    }
}
