//! The timing wheel against the reference binary heap, on every build.
//!
//! `EventQueue` must pop exactly the `(time, seq)` stream of
//! `HeapEventQueue`. The randomized suite in `crates/simcore/tests` checks
//! this only under `--features proptests`; this test drives one seeded
//! schedule of 200 000 operations through both queues and compares every
//! pop. Its phases alternate a sparse queue (it empties often, and the
//! drain cursor jumps past `now`) with a dense one, so pushes take every
//! route the wheel has: into an empty queue, straight into a near-wheel
//! slot, behind the cursor into the ready buffer, into the overflow wheel,
//! onto the far list, and under a reserved sequence number older than
//! pushes made since. Half-way, the wheel is rebuilt from its checkpoint
//! form with `from_parts`.

use pi2::simcore::{EventEntry, EventQueue, HeapEventQueue, Rng, Time};

const OPS: usize = 200_000;
/// Operations per phase; phases alternate sparse and dense.
const PHASE: usize = 10_000;
/// The wheel's near tick (2^15 ns) and its near and overflow spans.
const TICK_NS: u64 = 1 << 15;
const NEAR_NS: u64 = TICK_NS << 10;
const OVERFLOW_NS: u64 = NEAR_NS << 10;

/// How many pushes took each route, judged from outside the wheel.
#[derive(Default, Debug)]
struct Routes {
    into_empty: u64,
    behind_cursor: u64,
    near: u64,
    overflow: u64,
    far: u64,
    older_reserved: u64,
}

struct Pair {
    wheel: EventQueue<u64>,
    heap: HeapEventQueue<u64>,
    next_id: u64,
    routes: Routes,
}

impl Pair {
    fn note_route(&mut self, at: Time) {
        let now = self.wheel.now().as_nanos();
        let delay = at.as_nanos() - now;
        let r = &mut self.routes;
        match self.wheel.peek_time() {
            None => r.into_empty += 1,
            // The cursor is at or past the earliest pending event's tick.
            Some(p) if at.as_nanos() / TICK_NS < p.as_nanos() / TICK_NS => r.behind_cursor += 1,
            Some(_) if delay < NEAR_NS / 2 => r.near += 1,
            Some(_) if delay > 2 * NEAR_NS && delay < OVERFLOW_NS / 2 => r.overflow += 1,
            Some(_) if delay > 2 * OVERFLOW_NS => r.far += 1,
            Some(_) => {}
        }
    }

    fn push(&mut self, at: Time) {
        self.note_route(at);
        let id = self.next_id;
        self.next_id += 1;
        self.wheel.push(at, id);
        self.heap.push(at, id);
    }

    fn reserve(&mut self) -> u64 {
        let seq = self.wheel.reserve_seq();
        assert_eq!(seq, self.heap.reserve_seq(), "the queues issued different numbers");
        seq
    }

    fn push_reserved(&mut self, at: Time, seq: u64) {
        self.note_route(at);
        if seq + 1 < self.wheel.next_seq() {
            self.routes.older_reserved += 1;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.wheel.push_reserved(at, seq, id);
        self.heap.push_reserved(at, seq, id);
    }

    fn pop(&mut self) -> Option<(Time, u64)> {
        let got = self.wheel.pop();
        assert_eq!(got, self.heap.pop(), "pop {} differs", self.heap.popped());
        assert_eq!(self.wheel.now(), self.heap.now());
        assert_eq!(self.wheel.peek_time(), self.heap.peek_time());
        got
    }

    fn check_counters(&self) {
        let (w, h) = (&self.wheel, &self.heap);
        assert_eq!(
            (w.len(), w.pushed(), w.popped(), w.next_seq()),
            (h.len(), h.pushed(), h.popped(), h.next_seq())
        );
    }

    /// Rebuild the wheel from the sorted entry list a checkpoint stores.
    fn round_trip(&mut self) {
        let w = &self.wheel;
        let entries: Vec<EventEntry<u64>> = w.entries_sorted().into_iter().cloned().collect();
        self.wheel = EventQueue::from_parts(w.now(), w.next_seq(), w.popped(), entries);
        self.check_counters();
    }
}

/// A delay from `now` spread over every level of the wheel.
fn delay_ns(rng: &mut Rng) -> u64 {
    match rng.range_u64(0, 100) {
        0..=4 => 0,
        5..=34 => rng.range_u64(1, 4 * TICK_NS),
        35..=74 => rng.range_u64(1, NEAR_NS),
        75..=94 => rng.range_u64(NEAR_NS, OVERFLOW_NS),
        _ => rng.range_u64(OVERFLOW_NS, 6 * OVERFLOW_NS),
    }
}

#[test]
fn wheel_pops_the_heaps_stream_on_every_route() {
    let mut rng = Rng::new(29);
    let mut q = Pair {
        wheel: EventQueue::new(),
        heap: HeapEventQueue::new(),
        next_id: 0,
        routes: Routes::default(),
    };
    // Reserved numbers not yet pushed, as a lazily re-armed timer holds them.
    let mut reserved: Vec<u64> = Vec::new();
    for op in 0..OPS {
        if op == OPS / 2 {
            q.round_trip();
        }
        let target = if (op / PHASE).is_multiple_of(2) { 3 } else { 2_000 };
        let now = q.wheel.now().as_nanos();
        match rng.range_u64(0, 100) {
            0..=9 => reserved.push(q.reserve()),
            10..=19 if !reserved.is_empty() => {
                let i = rng.range_u64(0, reserved.len() as u64) as usize;
                let seq = reserved.swap_remove(i);
                q.push_reserved(Time::from_nanos(now + delay_ns(&mut rng)), seq);
            }
            _ if q.wheel.len() < target && rng.chance(0.6) => {
                q.push(Time::from_nanos(now + delay_ns(&mut rng)));
            }
            _ => {
                q.pop();
            }
        }
        if op.is_multiple_of(1_000) {
            q.check_counters();
        }
    }
    for seq in std::mem::take(&mut reserved) {
        let now = q.wheel.now().as_nanos();
        q.push_reserved(Time::from_nanos(now + delay_ns(&mut rng)), seq);
    }
    while q.pop().is_some() {}
    q.check_counters();
    let r = &q.routes;
    for (route, n) in [
        ("into an empty queue", r.into_empty),
        ("behind the cursor", r.behind_cursor),
        ("the near wheel", r.near),
        ("the overflow wheel", r.overflow),
        ("the far list", r.far),
        ("an older reserved seq", r.older_reserved),
    ] {
        assert!(n >= 500, "only {n} pushes went {route}: {r:?}");
    }
}
