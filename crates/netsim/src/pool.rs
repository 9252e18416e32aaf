//! Slab pools for event payloads.
//!
//! The event queue used to carry [`Packet`](crate::packet::Packet) and
//! [`Ack`](crate::sim::Ack) payloads *inside* the `Event` enum, which
//! inflated every queue entry to the size of the largest variant (an `Ack`
//! with three SACK blocks is ~112 bytes). Every push, pop and slot-sort in
//! the timing wheel then moved that much memory per event — several times
//! the cost of the AQM decision itself.
//!
//! [`Pool`] fixes this by parking the payload in a slab and threading a
//! 4-byte handle through the event queue instead. The hot path becomes
//! index recycling:
//!
//! * `insert` pops a free slot (or extends the slab while warming up),
//! * `take` pushes the slot back on the free list and moves the payload
//!   out,
//!
//! so after warm-up the enqueue→dequeue→deliver cycle performs **zero**
//! heap allocations — the property the bench harness asserts with its
//! counting allocator.
//!
//! ## Determinism
//!
//! Free slots are recycled LIFO, so slab layout is a pure function of the
//! insert/take sequence, and handles never feed back into simulation
//! logic (they are resolved before any handler runs). Pooled runs are
//! therefore bit-identical to the old by-value representation.

use pi2_simcore::{Ckpt, CkptError, CkptReader, CkptWriter};

/// Handle into a [`Pool`]. Only meaningful to the pool that issued it.
pub type Handle = u32;

/// A slab allocator with LIFO free-slot recycling and occupancy
/// accounting.
#[derive(Debug, Default)]
pub struct Pool<T> {
    slots: Vec<Option<T>>,
    free: Vec<Handle>,
    /// Peak number of simultaneously live payloads.
    high_water: usize,
}

impl<T> Pool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Pool {
            slots: Vec::new(),
            free: Vec::new(),
            high_water: 0,
        }
    }

    /// Pre-size for `n` simultaneously live payloads so the warm-up phase
    /// itself stays off the allocator.
    pub fn reserve(&mut self, n: usize) {
        self.slots.reserve(n.saturating_sub(self.slots.len()));
        self.free.reserve(n.saturating_sub(self.free.len()));
    }

    /// Park `val` and return its handle.
    #[inline]
    pub fn insert(&mut self, val: T) -> Handle {
        match self.free.pop() {
            Some(h) => {
                debug_assert!(self.slots[h as usize].is_none(), "free list points at a live slot");
                self.slots[h as usize] = Some(val);
                h
            }
            None => {
                // Handles are u32 by design (they ride inside `Event`);
                // a slab past 2^32 slots would silently alias handle 0
                // under an unchecked `as` cast, so fail loudly instead.
                let h = Handle::try_from(self.slots.len())
                    .expect("pool exceeded the u32 handle space");
                self.slots.push(Some(val));
                let live = self.slots.len() - self.free.len();
                if live > self.high_water {
                    self.high_water = live;
                }
                h
            }
        }
    }

    /// Move the payload out of `h` and recycle the slot.
    ///
    /// Panics if `h` is not a live handle of this pool — that would mean
    /// an event was duplicated or resolved twice, which the simulator
    /// never does.
    #[inline]
    pub fn take(&mut self, h: Handle) -> T {
        // Recycle the handle first: after the move, the push (a possible
        // call) kept the payload in a stack temporary written as overlapping
        // 16-byte stores and read back across them, a stall on every take.
        self.free.push(h);
        self.slots[h as usize]
            .take()
            .expect("pool handle resolved twice (or never issued)")
    }

    /// Borrow the payload behind a live handle.
    pub fn get(&self, h: Handle) -> &T {
        self.slots[h as usize]
            .as_ref()
            .expect("pool handle is not live")
    }

    /// Number of currently live payloads.
    pub fn in_use(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Peak number of simultaneously live payloads since construction.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total slots ever created (live + recycled).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// Slot-positional: every slot in index order (occupancy flag, then the
/// payload only if occupied), then the free list, then the high-water
/// mark. The positional layout is what keeps every handle already
/// threaded through the event queue valid after a restore. Restore checks
/// that the free list exactly covers the vacant slots (in order), so a
/// corrupt stream cannot produce a pool whose recycling diverges from the
/// saved run.
impl<T: Ckpt + Default> Ckpt for Pool<T> {
    fn save_ckpt(&self, w: &mut CkptWriter) {
        w.usize(self.slots.len());
        for slot in &self.slots {
            w.bool(slot.is_some());
            if let Some(val) = slot {
                val.save_ckpt(w);
            }
        }
        self.free.save_ckpt(w);
        w.usize(self.high_water);
    }

    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let n = r.len_of(1)?;
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            slots.push(if r.bool()? {
                let mut val = T::default();
                val.restore_ckpt(r)?;
                Some(val)
            } else {
                None
            });
        }
        let free_n = r.len_of(4)?;
        let mut free = Vec::with_capacity(free_n);
        for _ in 0..free_n {
            let h = r.u32()?;
            match slots.get(h as usize) {
                Some(None) => free.push(h),
                _ => return Err(CkptError::Corrupt("pool free list points at a live slot")),
            }
        }
        let vacant = slots.iter().filter(|s| s.is_none()).count();
        if vacant != free.len() {
            return Err(CkptError::Corrupt("pool free list does not cover vacant slots"));
        }
        let high_water = r.usize()?;
        if high_water > n {
            return Err(CkptError::Corrupt("pool high-water exceeds slot count"));
        }
        *self = Pool {
            slots,
            free,
            high_water,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_roundtrips() {
        let mut p = Pool::new();
        let a = p.insert("a");
        let b = p.insert("b");
        assert_eq!(p.in_use(), 2);
        assert_eq!(p.take(a), "a");
        assert_eq!(p.take(b), "b");
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    fn slots_recycle_lifo() {
        let mut p = Pool::new();
        let a = p.insert(1);
        let b = p.insert(2);
        p.take(a);
        p.take(b);
        // LIFO: the most recently freed slot (b's) is reused first.
        assert_eq!(p.insert(3), b);
        assert_eq!(p.insert(4), a);
        // No slab growth happened on reuse.
        assert_eq!(p.capacity(), 2);
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let mut p = Pool::new();
        let h: Vec<_> = (0..5).map(|i| p.insert(i)).collect();
        assert_eq!(p.high_water(), 5);
        for x in h {
            p.take(x);
        }
        let _ = p.insert(9);
        assert_eq!(p.high_water(), 5, "recycling must not move the peak");
    }

    #[test]
    fn get_borrows_without_freeing() {
        let mut p = Pool::new();
        let h = p.insert(42);
        assert_eq!(*p.get(h), 42);
        assert_eq!(p.in_use(), 1);
        assert_eq!(p.take(h), 42);
    }

    #[test]
    #[should_panic(expected = "resolved twice")]
    fn double_take_panics() {
        let mut p = Pool::new();
        let h = p.insert(1);
        p.take(h);
        p.take(h);
    }

    #[test]
    fn ckpt_round_trip_preserves_handles_and_recycling() {
        let mut p = Pool::new();
        let a = p.insert(10u64);
        let b = p.insert(20u64);
        let c = p.insert(30u64);
        p.take(b);
        let mut w = CkptWriter::new();
        p.save_ckpt(&mut w);
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        let mut q: Pool<u64> = Pool::new();
        q.restore_ckpt(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(*q.get(a), 10);
        assert_eq!(*q.get(c), 30);
        assert_eq!(q.in_use(), 2);
        assert_eq!(q.high_water(), 3);
        // The recycled slot comes back first, exactly as in the original.
        assert_eq!(q.insert(99), b);
        assert_eq!(q.capacity(), p.capacity());
    }

    #[test]
    fn ckpt_rejects_free_list_aliasing_a_live_slot() {
        let mut w = CkptWriter::new();
        // One live slot, but a free list claiming it is vacant.
        w.usize(1);
        w.bool(true);
        w.u64(7);
        w.usize(1);
        w.u32(0);
        w.usize(1);
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        let res = Pool::<u64>::new().restore_ckpt(&mut r);
        assert!(matches!(res, Err(CkptError::Corrupt(_))));
    }
}
