//! Hierarchical timing-wheel event scheduler.
//!
//! Drop-in replacement for the original `BinaryHeap`-backed queue (kept as
//! [`crate::event::HeapEventQueue`], the reference model for differential
//! tests). The binary heap pays `O(log n)` sifts over ~100-byte entries on
//! *every* push and pop; with hundreds of pending timers that dominated the
//! simulator's hot path. The wheel makes both operations `O(1)` amortized:
//!
//! * **Near wheel (L0)** — 1024 slots of 2^15 ns (≈ 32.8 µs) each, spanning
//!   ≈ 33.6 ms: sub-RTT granularity, so the packet-lifecycle events
//!   (dequeue/deliver/ACK) that make up the bulk of the load index straight
//!   into a slot.
//! * **Overflow wheel (L1)** — 1024 slots of 2^25 ns (≈ 33.6 ms) each,
//!   spanning ≈ 34.4 s: RTO timers, delayed-ACK timers and sample ticks
//!   land here and cascade into L0 as the clock approaches them.
//! * **Far list** — a sorted spillover for anything beyond ≈ 34.4 s
//!   (heavily backed-off RTOs, scripted scenario disturbances).
//!
//! ## Determinism contract
//!
//! Identical to the documented heap contract: events pop in `(time, seq)`
//! order, where `seq` is the monotonic insertion counter — earliest first,
//! FIFO on timestamp ties. The wheel buckets events by time *tick* only;
//! whenever a slot is promoted to the ready buffer it is sorted by the full
//! `(time, seq)` key, so bucketing can never reorder observable pops. The
//! cross-implementation property suite (`tests/proptests.rs`) checks pop
//! streams against [`crate::event::HeapEventQueue`] on random schedules.
//!
//! ## Internal invariants
//!
//! Let `ready_tick` be the L0 tick the queue has drained up to. Then:
//!
//! 1. every pending event with `tick0 <= ready_tick` sits in `ready`,
//!    sorted descending by `(time, seq)` (minimum at the back, `O(1)` pop);
//! 2. every L0 event has `tick0 - ready_tick` in `[1, 1024]`, so ticks map
//!    to distinct slots and a circular bitmap scan finds the minimum;
//! 3. every L1 event has `tick1 > cur1` (where `cur1 = ready_tick >> 10`)
//!    and `tick1 - cur1 <= 1024`;
//! 4. the far list holds everything else, sorted descending by
//!    `(time, seq)`;
//! 5. `ready` is non-empty whenever the queue is non-empty, which keeps
//!    [`EventQueue::peek_time`] a borrow-only `O(1)` read.
//!
//! Invariant 1 is what makes the jump-ahead pop safe: a handler that runs
//! after a pop may push an event *earlier* than anything buffered (but not
//! earlier than `now`); such a push binary-inserts into `ready` instead of
//! a slot behind the cursor.
//!
//! Both wheels keep their entries in one node slab, and a slot is a list
//! of nodes: an L0 slot holds the head of its list, newest first; an L1
//! slot holds the tail of a circular list, so it walks oldest first. A
//! freed node goes on a LIFO free list, so the slab holds as many nodes as
//! the wheels have held entries at once and the nodes in use stay
//! cache-hot. A cascade relinks nodes from L1 to L0 without moving their
//! entries; promoting an L0 slot moves its entries into the one `ready`
//! buffer. After warm-up, steady-state operation performs no heap
//! allocation at all (verified by the allocation-counting harness in
//! `pi2-bench`).

use crate::event::EventEntry;
use crate::time::Time;

/// log2 of the L0 tick in nanoseconds (2^15 ns ≈ 32.8 µs).
const L0_SHIFT: u32 = 15;
/// log2 of the L1 tick in nanoseconds (2^25 ns ≈ 33.6 ms).
const L1_SHIFT: u32 = 25;
/// log2 of the slot count per wheel.
const SLOT_BITS: u32 = L1_SHIFT - L0_SHIFT;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Occupancy-bitmap words per wheel level.
const BITMAP_WORDS: usize = SLOTS / 64;
/// No node: an empty slot, the end of a list, an empty free list.
const NIL: u32 = u32::MAX;

/// A deterministic min-priority queue of timestamped events.
///
/// ```
/// use pi2_simcore::{EventQueue, Time};
/// let mut q = EventQueue::new();
/// q.push(Time::from_millis(20), "later");
/// q.push(Time::from_millis(10), "sooner");
/// assert_eq!(q.pop(), Some((Time::from_millis(10), "sooner")));
/// assert_eq!(q.now(), Time::from_millis(10)); // the clock follows pops
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Promoted events, sorted descending by `(time, seq)`; min at back.
    ready: Vec<EventEntry<E>>,
    /// The node slab: every L0 and L1 entry; `None` marks a free node.
    nodes: Vec<Option<EventEntry<E>>>,
    /// `links[n]`: the node after `n` in its list. Apart from the entries,
    /// so a list walk chases a dense array and the entry loads overlap.
    links: Vec<u32>,
    /// Head of the free-node list, reused last-freed first.
    free: u32,
    /// Near wheel: one list head per L0 tick within ≈ 33.6 ms.
    l0: Box<[u32; SLOTS]>,
    l0_bits: [u64; BITMAP_WORDS],
    /// Overflow wheel: one list tail per L1 tick within ≈ 34.4 s.
    l1: Box<[u32; SLOTS]>,
    l1_bits: [u64; BITMAP_WORDS],
    /// Beyond the overflow wheel, sorted descending by `(time, seq)`.
    far: Vec<EventEntry<E>>,
    /// The L0 tick `ready` has been filled up to (invariants above).
    ready_tick: u64,
    /// Total pending events across `ready`, both wheels and `far`.
    pending: usize,
    next_seq: u64,
    now: Time,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn tick0(t: Time) -> u64 {
    t.as_nanos() >> L0_SHIFT
}

#[inline]
fn tick1(t: Time) -> u64 {
    t.as_nanos() >> L1_SHIFT
}

impl<E> EventQueue<E> {
    /// Create an empty queue positioned at `Time::ZERO`.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue whose slab has room for `capacity` wheel
    /// entries. The slab grows past that only at a new high of entries
    /// held at once, and freed nodes are reused, so a warmed-up queue
    /// never reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            ready: Vec::new(),
            nodes: Vec::with_capacity(capacity),
            links: Vec::with_capacity(capacity),
            free: NIL,
            l0: Box::new([NIL; SLOTS]),
            l0_bits: [0; BITMAP_WORDS],
            l1: Box::new([NIL; SLOTS]),
            l1_bits: [0; BITMAP_WORDS],
            far: Vec::new(),
            ready_tick: 0,
            pending: 0,
            next_seq: 0,
            now: Time::ZERO,
            popped: 0,
        }
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
    /// popped or still pending, since nothing leaves the queue any other
    /// way. Not the tie-break sequence counter, which
    /// [`reserve_seq`](Self::reserve_seq) advances without a push.
    pub fn pushed(&self) -> u64 {
        self.popped + self.pending as u64
    }

    /// The tie-break sequence number the next push or reservation gets.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock — scheduling into
    /// the past is always a bug in the caller.
    #[inline(always)]
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.reserve_seq();
        self.push_reserved(at, seq, event);
    }

    /// Take the next tie-break sequence number without pushing anything.
    ///
    /// This is how a timer that is re-armed far more often than it fires
    /// stays out of the queue: each arming reserves the slot a push would
    /// have taken — so every other event keeps the `seq` it would have had
    /// — and only the arming still current at its deadline is ever pushed,
    /// with [`push_reserved`](Self::push_reserved).
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at `at` under a sequence number obtained from
    /// [`reserve_seq`](Self::reserve_seq). Against events at the same
    /// instant it pops in reservation order, not push order. The caller
    /// pushes each reserved number at most once at a time: two pending
    /// entries must never share a `(time, seq)` key.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock, or if `seq` was
    /// never issued.
    #[inline(always)]
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
        // Inlined, the common case builds the entry straight in its slot.
        // Passed by reference, the event the caller just built with narrow
        // stores is re-read with one wide load: a store-forwarding stall.
        let entry = EventEntry { time: at, seq, event };
        match self.near_slot(at) {
            Some(slot) if !self.ready.is_empty() => {
                self.pending += 1;
                self.push_l0(slot, entry);
            }
            _ => self.place(entry),
        }
    }

    /// The L0 slot of an event at `at`, if its tick lies in the near
    /// wheel's window `(ready_tick, ready_tick + SLOTS)` (invariant 2).
    #[inline(always)]
    fn near_slot(&self, at: Time) -> Option<usize> {
        let t0 = tick0(at);
        (t0 > self.ready_tick && t0 - self.ready_tick < SLOTS as u64)
            .then_some((t0 & (SLOTS as u64 - 1)) as usize)
    }

    #[inline(always)]
    fn push_l0(&mut self, slot: usize, entry: EventEntry<E>) {
        self.l0[slot] = self.link(entry, self.l0[slot]);
        self.l0_bits[slot >> 6] |= 1 << (slot & 63);
    }

    /// Store `entry` in a free node that points at `next`; return the node.
    #[inline(always)]
    fn link(&mut self, entry: EventEntry<E>, next: u32) -> u32 {
        if self.free == NIL {
            self.grow();
        }
        let n = self.free;
        self.free = std::mem::replace(&mut self.links[n as usize], next);
        self.nodes[n as usize] = Some(entry);
        n
    }

    /// Add one free node: the slab holds a new high of entries. Out of
    /// line and without the entry, so `link` builds it in place.
    #[inline(never)]
    fn grow(&mut self) {
        assert!(self.nodes.len() < NIL as usize, "timing wheel slab is full");
        self.free = self.nodes.len() as u32;
        self.nodes.push(None);
        self.links.push(NIL);
    }

    /// Route one entry into ready / L0 / L1 / far relative to the current
    /// drain cursor, preserving its existing `seq`, then re-establish
    /// invariant 5 so peek stays borrow-only. The slow path of
    /// [`push_reserved`] and the whole of checkpoint restore
    /// ([`EventQueue::from_parts`]).
    ///
    /// [`push_reserved`]: EventQueue::push_reserved
    #[inline(never)]
    fn place(&mut self, entry: EventEntry<E>) {
        self.pending += 1;
        let t1 = tick1(entry.time);
        if let Some(slot) = self.near_slot(entry.time) {
            self.push_l0(slot, entry);
        } else if tick0(entry.time) <= self.ready_tick {
            // Behind (or at) the drain cursor: binary-insert into the
            // sorted ready buffer. This is the jump-ahead case — the
            // cursor may sit past `now` after a pop skipped empty ticks.
            let key = (entry.time, entry.seq);
            let idx = self.ready.partition_point(|e| (e.time, e.seq) > key);
            self.ready.insert(idx, entry);
        } else if t1 - (self.ready_tick >> SLOT_BITS) < SLOTS as u64 {
            let slot = (t1 & (SLOTS as u64 - 1)) as usize;
            // Append: the new node becomes the tail and points at the head.
            let (tail, n) = (self.l1[slot], self.link(entry, NIL));
            self.links[n as usize] = match tail {
                NIL => n,
                _ => std::mem::replace(&mut self.links[tail as usize], n),
            };
            self.l1[slot] = n;
            self.l1_bits[slot >> 6] |= 1 << (slot & 63);
        } else {
            let key = (entry.time, entry.seq);
            let idx = self.far.partition_point(|e| (e.time, e.seq) > key);
            self.far.insert(idx, entry);
        }
        if self.ready.is_empty() {
            self.advance();
        }
    }

    /// Every pending entry in pop order (`(time, seq)` ascending), for
    /// checkpointing. Borrow-only; the queue is untouched. Which level an
    /// entry currently occupies is a function of cursor history, not
    /// state, so the canonical serialized form is simply the sorted entry
    /// list — [`EventQueue::from_parts`] re-buckets on restore.
    pub fn entries_sorted(&self) -> Vec<&EventEntry<E>> {
        let mut v: Vec<&EventEntry<E>> = Vec::with_capacity(self.pending);
        v.extend(self.ready.iter());
        v.extend(self.nodes.iter().flatten());
        v.extend(self.far.iter());
        v.sort_unstable_by_key(|e| (e.time, e.seq));
        debug_assert_eq!(v.len(), self.pending, "pending count out of sync");
        v
    }

    /// Rebuild a queue from checkpointed parts: the clock, the sequence
    /// counter, the lifetime pop counter, and every pending entry (each
    /// keeping its original tie-break `seq`). The drain cursor restarts at
    /// `now`'s tick — any placement satisfying the wheel invariants yields
    /// the same observable pop stream, so the cursor position itself is
    /// not part of the canonical state.
    ///
    /// # Panics
    /// Panics if an entry precedes `now` or carries a `seq` the restored
    /// counter claims was never issued — both mean the blob and the meta
    /// fields disagree.
    pub fn from_parts(
        now: Time,
        next_seq: u64,
        popped: u64,
        entries: Vec<EventEntry<E>>,
    ) -> Self {
        let mut q = Self::with_capacity(entries.len());
        q.now = now;
        q.ready_tick = tick0(now);
        q.next_seq = next_seq;
        q.popped = popped;
        for entry in entries {
            assert!(
                entry.time >= now,
                "checkpointed event at {:?} precedes restored clock {:?}",
                entry.time,
                now
            );
            assert!(
                entry.seq < next_seq,
                "checkpointed event seq {} >= restored next_seq {}",
                entry.seq,
                next_seq
            );
            q.place(entry);
        }
        q
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let entry = self.ready.pop()?;
        debug_assert!(entry.time >= self.now, "event queue went backwards");
        self.now = entry.time;
        self.popped += 1;
        self.pending -= 1;
        if self.ready.is_empty() && self.pending > 0 {
            self.advance();
        }
        Some((entry.time, entry.event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.ready.last().map(|e| e.time)
    }

    /// Smallest occupied L0 tick in `(ready_tick, ready_tick + SLOTS]`,
    /// via a circular occupancy-bitmap scan.
    fn scan_l0(&self) -> Option<u64> {
        Self::scan(&self.l0_bits, self.ready_tick).map(|off| self.ready_tick + off)
    }

    /// Smallest occupied L1 tick in `(cur1, cur1 + SLOTS]`.
    fn scan_l1(&self, cur1: u64) -> Option<u64> {
        Self::scan(&self.l1_bits, cur1).map(|off| cur1 + off)
    }

    /// Distance (in ticks, 1-based) from `from` to the first set bit in a
    /// full circular sweep of the slots. The window `(from, from + SLOTS]`
    /// visits each of the SLOTS slots exactly once, starting at
    /// `(from + 1) % SLOTS`.
    fn scan(bits: &[u64; BITMAP_WORDS], from: u64) -> Option<u64> {
        let start = ((from + 1) & (SLOTS as u64 - 1)) as usize;
        let mut word = start >> 6;
        // First word: mask off bits below the start position.
        let mut w = bits[word] & (!0u64 << (start & 63));
        for step in 0..=BITMAP_WORDS {
            if w != 0 {
                let slot = (word << 6) + w.trailing_zeros() as usize;
                let off = (slot + SLOTS - start) & (SLOTS - 1);
                return Some(off as u64 + 1);
            }
            if step == BITMAP_WORDS {
                break;
            }
            word = (word + 1) % BITMAP_WORDS;
            w = bits[word];
            if word == start >> 6 {
                // Wrapped: only the bits below the start position remain.
                w &= !(!0u64 << (start & 63));
            }
        }
        None
    }

    /// Promote the slot at L0 tick `t0` into the (empty) ready buffer.
    fn drain_l0(&mut self, t0: u64) {
        debug_assert!(self.ready.is_empty());
        let slot = (t0 & (SLOTS as u64 - 1)) as usize;
        self.l0_bits[slot >> 6] &= !(1 << (slot & 63));
        let head = std::mem::replace(&mut self.l0[slot], NIL);
        let (mut n, mut last) = (head, head);
        while n != NIL {
            self.ready.push(self.nodes[n as usize].take().expect("a linked node holds an entry"));
            last = n;
            n = self.links[n as usize];
        }
        // The emptied list goes onto the free list whole.
        self.links[last as usize] = self.free;
        self.free = head;
        // Sort by the determinism key (unique, so an unstable sort is
        // exact), descending. The list is newest first, almost that order
        // already: insertion sort's best case.
        self.ready.sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
        self.ready_tick = t0;
    }

    /// Refill `ready` with the earliest pending slot. Caller guarantees
    /// `ready` is empty and `pending > 0`.
    fn advance(&mut self) {
        loop {
            let cur1 = self.ready_tick >> SLOT_BITS;
            // First L0 tick belonging to the next L1 slot.
            let boundary = (cur1 + 1) << SLOT_BITS;
            let next0 = self.scan_l0();
            if let Some(t0) = next0 {
                if t0 < boundary {
                    // Nothing in L1/far can precede an event within the
                    // current L1 tick (their tick1 is strictly greater).
                    self.drain_l0(t0);
                    return;
                }
            }
            // Compare candidates at L1 granularity; the minimum tick1 wins.
            let next1 = self.scan_l1(cur1);
            let far1 = self.far.last().map(|e| tick1(e.time));
            let l0t1 = next0.map(|t0| t0 >> SLOT_BITS);
            let m = [next1, far1, l0t1]
                .into_iter()
                .flatten()
                .min()
                .expect("advance() on an empty queue");
            if next1 == Some(m) {
                // Cascade the L1 slot into L0. Moving the cursor to the
                // last tick before the slot keeps every migrated tick0
                // within L0's [1, SLOTS] indexing window.
                self.ready_tick = (m << SLOT_BITS) - 1;
                let slot = (m & (SLOTS as u64 - 1)) as usize;
                self.l1_bits[slot >> 6] &= !(1 << (slot & 63));
                // Relink the slot's nodes into L0, oldest first: each is
                // prepended, which leaves every L0 list newest first.
                let tail = std::mem::replace(&mut self.l1[slot], NIL);
                let mut n = self.links[tail as usize];
                loop {
                    let time = self.nodes[n as usize].as_ref().expect("a linked node holds an entry").time;
                    let s0 = (tick0(time) & (SLOTS as u64 - 1)) as usize;
                    let next = std::mem::replace(&mut self.links[n as usize], self.l0[s0]);
                    self.l0[s0] = n;
                    self.l0_bits[s0 >> 6] |= 1 << (s0 & 63);
                    if n == tail {
                        break;
                    }
                    n = next;
                }
                continue;
            }
            if far1 == Some(m) {
                // Migrate the far events of L1 tick `m` straight into L0.
                self.ready_tick = (m << SLOT_BITS) - 1;
                while let Some(e) = self.far.last() {
                    if tick1(e.time) != m {
                        break;
                    }
                    let entry = self.far.pop().expect("checked non-empty");
                    self.push_l0((tick0(entry.time) & (SLOTS as u64 - 1)) as usize, entry);
                }
                continue;
            }
            // Only L0 holds tick1 == m: safe to jump the cursor to it.
            self.drain_l0(next0.expect("l0 candidate vanished"));
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    crate::event::queue_contract_tests!(EventQueue);

    /// The jump-ahead hazard: after popping (which may advance the drain
    /// cursor far beyond `now`), a handler pushes an event earlier than
    /// everything still buffered. It must pop first regardless.
    #[test]
    fn push_below_cursor_after_jump() {
        let mut q = EventQueue::new();
        q.push(Time::from_millis(1), "first");
        q.push(Time::from_millis(100), "far");
        assert_eq!(q.pop().unwrap().1, "first");
        // The cursor has jumped to the 100 ms tick to keep peek O(1);
        // a push at 2 ms lands behind it and must still win.
        q.push(Time::from_millis(2), "soon");
        assert_eq!(q.peek_time(), Some(Time::from_millis(2)));
        assert_eq!(q.pop().unwrap().1, "soon");
        assert_eq!(q.pop().unwrap().1, "far");
    }

    /// Events beyond each level's span: overflow wheel and far list, with
    /// pushes that straddle all three levels and a cascade back down.
    #[test]
    fn levels_cascade_in_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_secs(100), "far"); // beyond L1 span (~34 s)
        q.push(Time::from_secs(1), "l1"); // beyond L0 span (~34 ms)
        q.push(Time::from_millis(1), "l0");
        q.push(Time::from_nanos(10), "ready");
        assert_eq!(q.pop().unwrap().1, "ready");
        assert_eq!(q.pop().unwrap().1, "l0");
        assert_eq!(q.pop().unwrap().1, "l1");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop(), None);
    }

    /// Same-tick events arriving while the tick is being drained keep
    /// FIFO order relative to their push sequence.
    #[test]
    fn same_tick_insert_during_drain_is_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_millis(3);
        q.push(t, 0);
        q.push(t, 1);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(t, 2); // tick already promoted: lands in ready directly
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    /// Checkpoint round-trip with entries occupying every level: the
    /// restored queue pops the same `(time, seq, payload)` stream.
    #[test]
    fn from_parts_round_trips_all_levels() {
        let mut q = EventQueue::new();
        q.push(Time::from_secs(1), "consume");
        q.push(Time::from_secs(100), "far");
        q.push(Time::from_secs(40), "far2");
        q.push(Time::from_secs(2), "l1");
        assert_eq!(q.pop().unwrap().1, "consume");
        // Post-pop pushes: ready-buffer resident plus both wheels.
        q.push(q.now(), "ready");
        q.push(Time::from_secs(1) + Duration::from_millis(1), "l0");
        q.push(Time::from_secs(3), "l1b");

        let entries: Vec<EventEntry<&str>> =
            q.entries_sorted().into_iter().cloned().collect();
        let mut r = EventQueue::from_parts(q.now(), q.next_seq(), q.popped(), entries);
        assert_eq!(r.now(), q.now());
        assert_eq!(r.next_seq(), q.next_seq());
        assert_eq!(r.pushed(), q.pushed());
        assert_eq!(r.popped(), q.popped());
        assert_eq!(r.len(), q.len());
        loop {
            let (a, b) = (q.pop(), r.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        // Post-restore pushes continue the same seq stream.
        q.push(q.now(), "again");
        r.push(r.now(), "again");
        assert_eq!(q.pop(), r.pop());
    }

    /// Restoring an empty queue mid-run keeps counters and stays poppable.
    #[test]
    fn from_parts_empty_queue() {
        let mut r: EventQueue<u8> = EventQueue::from_parts(Time::from_secs(5), 9, 9, Vec::new());
        assert!(r.is_empty());
        assert_eq!(r.pop(), None);
        assert_eq!(r.pushed(), 9, "nothing pending: every push was popped");
        r.push(Time::from_secs(6), 1);
        assert_eq!(r.pop(), Some((Time::from_secs(6), 1)));
        assert_eq!(r.next_seq(), 10);
        assert_eq!(r.pushed(), 10);
        assert_eq!(r.popped(), 10);
    }

    #[test]
    #[should_panic(expected = "precedes restored clock")]
    fn from_parts_rejects_past_entries() {
        let entries = vec![EventEntry { time: Time::from_secs(1), seq: 0, event: () }];
        let _ = EventQueue::from_parts(Time::from_secs(2), 1, 0, entries);
    }

    /// A reservation takes a tie-break slot, not a place in the queue: the
    /// reserved push pops where a push made at reservation time would
    /// have, later pushes keep the numbers they would have had, and only
    /// real pushes count as pushed.
    #[test]
    fn reserved_seq_pops_in_reservation_order() {
        let mut q = EventQueue::new();
        let t = Time::from_millis(5);
        q.push(t, "a");
        let slot = q.reserve_seq();
        q.push(t, "c");
        assert_eq!((q.next_seq(), q.pushed(), q.len()), (3, 2, 2));
        q.push_reserved(t, slot, "b");
        assert_eq!((q.next_seq(), q.pushed(), q.len()), (3, 3, 3));
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pushed() - q.popped(), 0);
    }

    /// A reserved push may land behind the drain cursor, in the ready
    /// buffer, ahead of an entry with a later number at the same instant.
    #[test]
    fn reserved_push_into_the_ready_buffer_keeps_key_order() {
        let mut q = EventQueue::new();
        let t = Time::from_millis(5);
        q.push(t, 0);
        let slot = q.reserve_seq();
        q.push(t, 2);
        assert_eq!(q.pop().unwrap().1, 0); // tick promoted; 2 sits in ready
        q.push_reserved(t, slot, 1);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    #[should_panic(expected = "never reserved")]
    fn pushing_an_unissued_seq_panics() {
        let mut q = EventQueue::new();
        q.push_reserved(Time::from_secs(1), 0, ());
    }

    /// An L1-boundary hazard: an overflow-wheel event must not be
    /// overtaken by a near-wheel event that lies just past the boundary.
    #[test]
    fn l1_event_beats_later_l0_event_across_boundary() {
        let mut q = EventQueue::new();
        // Park the cursor near the end of an L1 tick.
        let base = (1u64 << L1_SHIFT) - (5 << L0_SHIFT);
        q.push(Time::from_nanos(1), "warm");
        q.push(Time::from_nanos(base), "park");
        // From cursor ~0: this is > 1024 L0 ticks away — lands in L1.
        let early = (1u64 << L1_SHIFT) + (2 << L0_SHIFT);
        q.push(Time::from_nanos(early), "l1-early");
        assert_eq!(q.pop().unwrap().1, "warm");
        assert_eq!(q.pop().unwrap().1, "park");
        // From the parked cursor this is < 1024 ticks away — lands in L0,
        // but *after* the L1 resident in absolute time.
        let late = (1u64 << L1_SHIFT) + (700 << L0_SHIFT);
        q.push(Time::from_nanos(late), "l0-late");
        assert_eq!(q.pop().unwrap().1, "l1-early");
        assert_eq!(q.pop().unwrap().1, "l0-late");
    }

    /// On a 100 ms path every one-way event lands in L1 and cascades into
    /// L0. Over 100 s the slab never makes more nodes than the queue has
    /// had events pending at once, because every drained node is reused;
    /// a queue restored from `n` entries reserves exactly `n` nodes.
    #[test]
    fn slab_holds_no_more_nodes_than_the_pending_high_water() {
        let mut q = EventQueue::new();
        for i in 0..64 {
            q.push(Time::from_micros(i * 700), ());
        }
        let mut high = q.len();
        while q.now() < Time::from_secs(100) {
            let (t, ()) = q.pop().expect("every pop reschedules");
            q.push(t + Duration::from_millis(50), ());
            high = high.max(q.len());
            assert!(q.nodes.len() <= high, "{} nodes for {high} pending", q.nodes.len());
        }
        let entries: Vec<EventEntry<()>> = q.entries_sorted().into_iter().cloned().collect();
        let n = entries.len();
        let r = EventQueue::from_parts(q.now(), q.next_seq(), q.popped(), entries);
        assert_eq!((r.nodes.capacity(), r.len()), (n, n));
        assert!(r.nodes.len() <= n, "{} nodes for {n} entries", r.nodes.len());
    }
}
