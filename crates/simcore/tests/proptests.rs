//! Property-based tests for the discrete-event core.

// Entire suite gated off by default: `proptest` is a registry dependency
// the offline build cannot fetch. See the `proptests` feature in Cargo.toml.
#![cfg(feature = "proptests")]

use pi2_simcore::{Duration, EventEntry, EventQueue, HeapEventQueue, Rng, Time};
use proptest::prelude::*;

/// Checkpoint round trip: serialize to the canonical sorted-entry form
/// (exactly what `SimCore::save_ckpt` writes) and rebuild via
/// `from_parts` — the same path `SimCore::restore_ckpt` takes.
fn ckpt_roundtrip(q: &EventQueue<usize>) -> EventQueue<usize> {
    let entries: Vec<EventEntry<usize>> = q
        .entries_sorted()
        .into_iter()
        .map(|e| EventEntry {
            time: e.time,
            seq: e.seq,
            event: e.event,
        })
        .collect();
    EventQueue::from_parts(q.now(), q.next_seq(), q.popped(), entries)
}

/// Drain both queues, asserting identical `(time, event)` pop streams and
/// clock positions all the way to empty.
fn assert_same_pop_stream(
    mut a: EventQueue<usize>,
    mut b: EventQueue<usize>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    prop_assert_eq!(a.next_seq(), b.next_seq());
    prop_assert_eq!(a.pushed(), b.pushed());
    prop_assert_eq!(a.popped(), b.popped());
    loop {
        prop_assert_eq!(a.peek_time(), b.peek_time());
        let (x, y) = (a.pop(), b.pop());
        prop_assert_eq!(x, y);
        prop_assert_eq!(a.now(), b.now());
        if x.is_none() {
            return Ok(());
        }
    }
}

proptest! {
    /// Cross-implementation equivalence: the timing wheel must produce the
    /// exact pop stream of the reference binary heap on random schedules
    /// spanning all three levels (near wheel, overflow wheel, far list).
    #[test]
    fn wheel_matches_heap_on_random_schedules(
        times in prop::collection::vec(0u64..200_000_000_000, 1..300),
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            wheel.push(Time::from_nanos(t), i);
            heap.push(Time::from_nanos(t), i);
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            prop_assert_eq!(wheel.now(), heap.now());
            if a.is_none() {
                break;
            }
        }
    }

    /// Same equivalence under interleaved push/pop: after every pop, new
    /// events are scheduled relative to the advanced clock (the simulator's
    /// actual access pattern), including sub-tick follow-ups, RTO-scale
    /// offsets into the overflow wheel, and far-future timers.
    #[test]
    fn wheel_matches_heap_interleaved(seed in any::<u64>(), steps in 1usize..400) {
        let mut rng = Rng::new(seed);
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut next_id = 0usize;
        for _ in 0..steps {
            let burst = rng.range_u64(0, 4);
            for _ in 0..burst {
                // Mix of offsets: same-instant, sub-tick, in-window,
                // overflow-wheel and far-list distances.
                let offset = match rng.range_u64(0, 5) {
                    0 => 0,
                    1 => rng.range_u64(0, 1 << 15),
                    2 => rng.range_u64(0, 1 << 25),
                    3 => rng.range_u64(0, 40_000_000_000),
                    _ => rng.range_u64(0, 100_000_000_000),
                };
                let at = Time::from_nanos(wheel.now().as_nanos() + offset);
                wheel.push(at, next_id);
                heap.push(at, next_id);
                next_id += 1;
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            prop_assert_eq!(wheel.pop(), heap.pop());
        }
        while let Some(popped) = heap.pop() {
            prop_assert_eq!(wheel.pop(), Some(popped));
        }
        prop_assert!(wheel.is_empty());
    }

    /// The same equivalence when sequence numbers are reserved without a
    /// push, the way lazy timers arm: some reservations are pushed later
    /// (at or after the clock, possibly at an instant other entries
    /// already occupy, where the reserved number decides the order), some
    /// never. Only real pushes count as pushed, on both implementations,
    /// and a checkpoint of what is left replays the same stream.
    #[test]
    fn wheel_matches_heap_with_reserved_seqs(seed in any::<u64>(), steps in 1usize..400) {
        let mut rng = Rng::new(seed);
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut reserved: Vec<u64> = Vec::new();
        let mut pushes = 0u64;
        for _ in 0..steps {
            for _ in 0..rng.range_u64(0, 4) {
                // Offsets of 0 and a handful of coarse instants force
                // same-time ties between plain and reserved entries.
                let offset = match rng.range_u64(0, 4) {
                    0 => 0,
                    1 => rng.range_u64(0, 4) << 20,
                    2 => rng.range_u64(0, 1 << 28),
                    _ => rng.range_u64(0, 40_000_000_000),
                };
                let at = Time::from_nanos(wheel.now().as_nanos() + offset);
                match rng.range_u64(0, 3) {
                    0 => {
                        let seq = wheel.reserve_seq();
                        prop_assert_eq!(seq, heap.reserve_seq());
                        reserved.push(seq);
                    }
                    1 if !reserved.is_empty() => {
                        let i = rng.range_u64(0, reserved.len() as u64) as usize;
                        let seq = reserved.swap_remove(i);
                        wheel.push_reserved(at, seq, seq as usize);
                        heap.push_reserved(at, seq, seq as usize);
                        pushes += 1;
                    }
                    _ => {
                        let id = wheel.next_seq() as usize;
                        wheel.push(at, id);
                        heap.push(at, id);
                        pushes += 1;
                    }
                }
            }
            prop_assert_eq!(wheel.next_seq(), heap.next_seq());
            prop_assert_eq!(wheel.pushed(), pushes);
            prop_assert_eq!(heap.pushed(), pushes);
            prop_assert_eq!(wheel.pushed() - wheel.popped(), wheel.len() as u64);
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            prop_assert_eq!(wheel.pop(), heap.pop());
        }
        let mut restored = ckpt_roundtrip(&wheel);
        prop_assert_eq!(restored.pushed(), pushes);
        while let Some(popped) = heap.pop() {
            prop_assert_eq!(wheel.pop(), Some(popped));
            prop_assert_eq!(restored.pop(), Some(popped));
        }
        prop_assert!(wheel.is_empty() && restored.is_empty());
        prop_assert_eq!(wheel.pushed(), wheel.popped());
    }

    /// Checkpoint round trip with events straddling the L0→L1 boundary:
    /// offsets cluster around the ≈33.6 ms near-wheel horizon (2^25 ns),
    /// so the restored queue must re-bucket entries that sat on either
    /// side of the boundary without disturbing the `(time, seq)` stream.
    #[test]
    fn wheel_ckpt_roundtrip_straddles_l0_l1_boundary(
        seed in any::<u64>(),
        n in 1usize..200,
        pre_pops in 0usize..40,
    ) {
        let mut rng = Rng::new(seed);
        let mut q = EventQueue::new();
        for i in 0..n {
            // Within ±4 L0 ticks of the L0→L1 horizon, plus a few
            // same-tick ties from the sub-tick remainder.
            let horizon = 1u64 << 25;
            let jitter = rng.range_u64(0, 8 << 15);
            let at = q.now().as_nanos() + horizon - (4 << 15) + jitter;
            q.push(Time::from_nanos(at), i);
        }
        for _ in 0..pre_pops.min(n / 2) {
            q.pop(); // advance the cursor so restore starts mid-stream
        }
        let restored = ckpt_roundtrip(&q);
        assert_same_pop_stream(q, restored)?;
    }

    /// Checkpoint round trip with far-list occupancy: a mix of near,
    /// overflow-wheel and beyond-34.4 s events (scripted disturbances,
    /// backed-off RTOs). The far list serializes like any other level —
    /// restore re-buckets purely by time distance from the restored clock.
    #[test]
    fn wheel_ckpt_roundtrip_with_far_list(seed in any::<u64>(), steps in 1usize..150) {
        let mut rng = Rng::new(seed);
        let mut q = EventQueue::new();
        let mut id = 0usize;
        for _ in 0..steps {
            for _ in 0..rng.range_u64(1, 4) {
                let offset = match rng.range_u64(0, 4) {
                    0 => rng.range_u64(0, 1 << 20),            // near wheel
                    1 => rng.range_u64(1 << 25, 1 << 30),      // overflow wheel
                    2 => rng.range_u64(35_000_000_000, 200_000_000_000), // far list
                    _ => 0,                                    // same-instant tie
                };
                q.push(Time::from_nanos(q.now().as_nanos() + offset), id);
                id += 1;
            }
            if rng.chance(0.5) {
                q.pop();
            }
        }
        let restored = ckpt_roundtrip(&q);
        assert_same_pop_stream(q, restored)?;
    }

    /// Each cascade relinks an overflow-wheel slot's slab nodes into the
    /// near wheel, and each drain frees them for reuse. On a 100 ms path
    /// nearly every event takes that route, so here each of `flows`
    /// events is rescheduled 35–70 ms after it pops — always past the
    /// near wheel — until the clock has gone round L1 more than three
    /// times, with one-shot near-wheel, same-instant and far-list pushes
    /// mixed in. The pop stream must be the heap's throughout, across a
    /// checkpoint round trip taken midway.
    #[test]
    fn wheel_matches_heap_across_l1_rotations(seed in any::<u64>(), flows in 1usize..24) {
        let mut rng = Rng::new(seed);
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        for id in 0..flows {
            let at = Time::from_nanos(rng.range_u64(0, 70_000_000));
            wheel.push(at, id);
            heap.push(at, id);
        }
        let mut next_id = flows;
        let mut restored = false;
        while wheel.now() < Time::from_secs(105) {
            let popped = heap.pop();
            prop_assert_eq!(wheel.pop(), popped);
            prop_assert_eq!(wheel.now(), heap.now());
            let (now, id) = (wheel.now().as_nanos(), popped.expect("flows never end").1);
            let mut pushes = Vec::new();
            if id < flows {
                pushes.push((now + rng.range_u64(35_000_000, 70_000_000), id));
            }
            if rng.chance(1.0 / 16.0) {
                let offset = match rng.range_u64(0, 3) {
                    0 => 0,
                    1 => rng.range_u64(0, 1 << 25),
                    _ => rng.range_u64(35_000_000_000, 60_000_000_000),
                };
                pushes.push((now + offset, next_id));
                next_id += 1;
            }
            for (at, id) in pushes {
                wheel.push(Time::from_nanos(at), id);
                heap.push(Time::from_nanos(at), id);
            }
            if !restored && wheel.now() >= Time::from_secs(50) {
                wheel = ckpt_roundtrip(&wheel);
                restored = true;
            }
        }
        while let Some(popped) = heap.pop() {
            prop_assert_eq!(wheel.pop(), Some(popped));
        }
        prop_assert!(wheel.is_empty());
    }

    /// Saving is non-destructive: serializing the canonical entry list
    /// twice yields identical `(time, seq)` sequences, and the original
    /// queue still pops everything it held.
    #[test]
    fn wheel_ckpt_save_is_borrow_only(seed in any::<u64>(), n in 1usize..150) {
        let mut rng = Rng::new(seed);
        let mut q = EventQueue::new();
        for i in 0..n {
            let offset = rng.range_u64(0, 100_000_000_000);
            q.push(Time::from_nanos(q.now().as_nanos() + offset), i);
        }
        let once: Vec<(Time, u64)> = q.entries_sorted().iter().map(|e| (e.time, e.seq)).collect();
        let twice: Vec<(Time, u64)> = q.entries_sorted().iter().map(|e| (e.time, e.seq)).collect();
        prop_assert_eq!(&once, &twice);
        let mut popped = 0usize;
        while q.pop().is_some() {
            popped += 1;
        }
        prop_assert_eq!(popped, n);
    }

    /// Popped timestamps are a non-decreasing sequence, whatever the push order.
    #[test]
    fn event_queue_pops_monotonically(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_nanos(t), i);
        }
        let mut last = Time::ZERO;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// Events pushed at the same instant pop in push order (stable FIFO).
    #[test]
    fn event_queue_is_fifo_on_ties(n in 1usize..300, t in 0u64..1_000_000) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(Time::from_nanos(t), i);
        }
        for i in 0..n {
            prop_assert_eq!(q.pop().unwrap().1, i);
        }
    }

    /// Time arithmetic: (a + d) - a == d for any non-negative d that fits.
    #[test]
    fn time_plus_duration_roundtrips(a in 0u64..u64::MAX / 4, d in 0i64..i64::MAX / 4) {
        let t = Time::from_nanos(a);
        let dur = Duration::from_nanos(d);
        prop_assert_eq!((t + dur) - t, dur);
    }

    /// Subtraction antisymmetry: a - b == -(b - a).
    #[test]
    fn time_sub_antisymmetric(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let ta = Time::from_nanos(a);
        let tb = Time::from_nanos(b);
        prop_assert_eq!((ta - tb).as_nanos(), -(tb - ta).as_nanos());
    }

    /// Serialization time is monotone in size and antitone in rate.
    #[test]
    fn serialization_monotonicity(bytes in 1usize..100_000, rate in 1_000u64..10_000_000_000) {
        let d = Duration::serialization(bytes, rate);
        prop_assert!(d > Duration::ZERO);
        prop_assert!(Duration::serialization(bytes + 1, rate) >= d);
        prop_assert!(Duration::serialization(bytes, rate * 2) <= d);
    }

    /// The PRNG's unit-interval output never leaves [0, 1).
    #[test]
    fn rng_unit_interval(seed in any::<u64>()) {
        let mut r = Rng::new(seed);
        for _ in 0..100 {
            let x = r.next_f64();
            prop_assert!((0.0..1.0).contains(&x));
        }
    }

    /// range_u64 respects its bounds for arbitrary non-empty ranges.
    #[test]
    fn rng_range_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
        let mut r = Rng::new(seed);
        for _ in 0..50 {
            let x = r.range_u64(lo, lo + span);
            prop_assert!(x >= lo && x < lo + span);
        }
    }

    /// Identical seeds give identical streams — the determinism contract
    /// every experiment in this repository depends on.
    #[test]
    fn rng_determinism(seed in any::<u64>()) {
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
