//! Timestamped event queue with deterministic FIFO tie-breaking.
//!
//! The simulator is a classic event-driven loop: components schedule
//! `(time, event)` pairs and the main loop pops them in time order. Two
//! events with equal timestamps pop in the order they were pushed (a
//! monotonically increasing sequence number breaks ties), which keeps runs
//! bit-identical across platforms — `BinaryHeap` alone would not guarantee
//! that.
//!
//! [`HeapEventQueue`] is the original `BinaryHeap`-backed implementation.
//! The simulator now runs on the hierarchical timing wheel in
//! [`crate::wheel`] (same API, same `(time, seq)` contract, `O(1)` ops);
//! the heap survives as the obviously-correct reference model that the
//! cross-implementation property tests diff the wheel against.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event: when it fires, its insertion sequence, and a payload.
#[derive(Debug, Clone)]
pub struct EventEntry<E> {
    /// Virtual time at which the event fires.
    pub time: Time,
    /// Monotonic insertion counter; earlier pushes fire first on ties.
    pub seq: u64,
    /// Caller-defined payload.
    pub event: E,
}

impl<E> PartialEq for EventEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for EventEntry<E> {}

impl<E> Ord for EventEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for EventEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The reference `BinaryHeap`-backed deterministic min-priority queue.
///
/// ```
/// use pi2_simcore::{HeapEventQueue, Time};
/// let mut q = HeapEventQueue::new();
/// q.push(Time::from_millis(20), "later");
/// q.push(Time::from_millis(10), "sooner");
/// assert_eq!(q.pop(), Some((Time::from_millis(10), "sooner")));
/// assert_eq!(q.now(), Time::from_millis(10)); // the clock follows pops
/// ```
#[derive(Debug)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<EventEntry<E>>,
    next_seq: u64,
    now: Time,
    popped: u64,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// Create an empty queue positioned at `Time::ZERO`.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue with pre-allocated heap storage. The number
    /// of *pending* events is bounded by in-flight packets + timers, not
    /// by run length, so a modest capacity removes heap regrowth from the
    /// per-event hot path entirely.
    pub fn with_capacity(capacity: usize) -> Self {
        HeapEventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            now: Time::ZERO,
            popped: 0,
        }
    }

    /// Grow the heap so at least `additional` more events fit without
    /// reallocating.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Current heap capacity (diagnostics for allocation-free operation).
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events popped so far; useful for run statistics and
    /// runaway-simulation guards.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Number of events pushed over the queue's lifetime: every event
    /// popped or still pending.
    pub fn pushed(&self) -> u64 {
        self.popped + self.heap.len() as u64
    }

    /// The tie-break sequence number the next push or reservation gets.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock — scheduling into
    /// the past is always a bug in the caller.
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.reserve_seq();
        self.push_reserved(at, seq, event);
    }

    /// Take the next tie-break sequence number without pushing anything
    /// (see [`crate::EventQueue::reserve_seq`]).
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at `at` under a reserved sequence number (see
    /// [`crate::EventQueue::push_reserved`]).
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock, or if `seq` was
    /// never issued.
    pub fn push_reserved(&mut self, at: Time, seq: u64, event: E) {
        assert!(
            at >= self.now,
            "attempted to schedule an event in the past: {:?} < {:?}",
            at,
            self.now
        );
        assert!(
            seq < self.next_seq,
            "seq {seq} was never reserved (next is {})",
            self.next_seq
        );
        self.heap.push(EventEntry { time: at, seq, event });
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "event queue went backwards");
        self.now = entry.time;
        self.popped += 1;
        Some((entry.time, entry.event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }
}

/// The `(time, seq)` contract both queues keep, as one set of unit tests
/// over the queue type `$q` (this module's reference heap and the wheel).
#[cfg(test)]
macro_rules! queue_contract_tests {
    ($q:ident) => {
        #[test]
        fn pops_in_time_order() {
            let mut q = $q::new();
            q.push(Time::from_millis(30), "c");
            q.push(Time::from_millis(10), "a");
            q.push(Time::from_millis(20), "b");
            assert_eq!(q.pop(), Some((Time::from_millis(10), "a")));
            assert_eq!(q.pop(), Some((Time::from_millis(20), "b")));
            assert_eq!(q.pop(), Some((Time::from_millis(30), "c")));
            assert_eq!(q.pop(), None);
        }

        #[test]
        fn equal_times_pop_fifo() {
            let mut q = $q::new();
            let t = Time::from_millis(5);
            for i in 0..100 {
                q.push(t, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop(), Some((t, i)));
            }
        }

        #[test]
        fn clock_advances_with_pops() {
            let mut q = $q::new();
            q.push(Time::from_secs(2), ());
            assert_eq!(q.now(), Time::ZERO);
            q.pop();
            assert_eq!(q.now(), Time::from_secs(2));
            assert_eq!(q.popped(), 1);
            assert_eq!(q.pushed(), 1);
            q.push(Time::from_secs(3), ());
            assert_eq!(q.pushed(), 2);
        }

        #[test]
        #[should_panic(expected = "in the past")]
        fn scheduling_in_the_past_panics() {
            let mut q = $q::new();
            q.push(Time::from_secs(2), ());
            q.pop();
            q.push(Time::from_secs(1), ());
        }

        #[test]
        fn push_at_now_is_allowed() {
            let mut q = $q::new();
            q.push(Time::from_secs(1), 1);
            q.pop();
            q.push(q.now(), 2); // immediate follow-up event
            assert_eq!(q.pop(), Some((Time::from_secs(1), 2)));
        }

        #[test]
        fn peek_does_not_advance() {
            let mut q = $q::new();
            q.push(Time::from_millis(7) + Duration::ZERO, ());
            assert_eq!(q.peek_time(), Some(Time::from_millis(7)));
            assert_eq!(q.now(), Time::ZERO);
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
        }

        #[test]
        fn interleaved_push_pop_stays_ordered() {
            let mut q = $q::new();
            q.push(Time::from_millis(1), 1);
            q.push(Time::from_millis(5), 5);
            assert_eq!(q.pop().unwrap().1, 1);
            q.push(Time::from_millis(3), 3);
            q.push(Time::from_millis(4), 4);
            assert_eq!(q.pop().unwrap().1, 3);
            assert_eq!(q.pop().unwrap().1, 4);
            assert_eq!(q.pop().unwrap().1, 5);
        }
    };
}
#[cfg(test)]
pub(crate) use queue_contract_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn with_capacity_preallocates() {
        let mut q: HeapEventQueue<u32> = HeapEventQueue::with_capacity(128);
        assert!(q.capacity() >= 128);
        let cap = q.capacity();
        for i in 0..128 {
            q.push(Time::from_millis(u64::from(i)), i);
        }
        assert_eq!(q.capacity(), cap, "no regrowth within the reservation");
        q.reserve(256);
        assert!(q.capacity() >= 128 + 256);
    }

    queue_contract_tests!(HeapEventQueue);
}
