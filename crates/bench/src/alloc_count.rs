//! Process-wide allocation accounting for tests and `benchmark/`.
//!
//! The simulator's hot-path contract is that steady-state operation
//! performs **zero heap allocations per event**: the timing wheel
//! reuses its slab's nodes, packets and ACKs live in slab pools, and the
//! monitor's series are pre-sized by [`pi2_netsim::Monitor::reserve`].
//! Timing alone cannot prove that — an occasional `Vec` doubling hides
//! inside the noise floor. This module provides a counting
//! `GlobalAlloc` wrapper; a test binary (or `benchmark/`) registers it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: pi2_bench::alloc_count::CountingAlloc = CountingAlloc;
//! ```
//!
//! and then brackets a steady-state region with [`stats`] snapshots:
//! `tests/zero_alloc.rs` asserts the delta is exactly zero after warm-up,
//! and `benchmark/` reports allocator calls per thousand packets.
//!
//! Counters are relaxed atomics: the accounting adds one uncontended
//! atomic add per allocator call, which is negligible next to the
//! allocation itself — and the regions we assert about perform no
//! allocator calls at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note_alloc(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Relaxed);
}

/// A `System`-backed allocator that counts every call.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place still hits the allocator; count it as one
        // allocation of the new size.
        note_alloc(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A point-in-time snapshot of the process's allocator traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocator calls that obtained memory (alloc/alloc_zeroed/realloc).
    pub allocs: u64,
    /// Calls that released memory.
    pub deallocs: u64,
    /// Total bytes requested across counting calls.
    pub bytes: u64,
}

impl AllocStats {
    /// Counter deltas `self - earlier` (snapshots taken later minus
    /// earlier).
    pub fn since(&self, earlier: &AllocStats) -> AllocStats {
        AllocStats {
            allocs: self.allocs - earlier.allocs,
            deallocs: self.deallocs - earlier.deallocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Snapshot the global counters. Zeros (and stays zero) unless a
/// [`CountingAlloc`] is registered as the global allocator.
pub fn stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Relaxed),
        deallocs: DEALLOCS.load(Relaxed),
        bytes: ALLOC_BYTES.load(Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Registered for this test binary only: unit tests of the counting
    // logic need the counters actually wired up.
    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn counts_a_vec_allocation() {
        let before = stats();
        let v: Vec<u64> = Vec::with_capacity(1024);
        std::hint::black_box(&v);
        let d = stats().since(&before);
        assert!(d.allocs >= 1, "allocation went uncounted: {d:?}");
        assert!(d.bytes >= 8 * 1024, "bytes undercounted: {d:?}");
        drop(v);
        let d2 = stats().since(&before);
        assert!(d2.deallocs >= 1, "deallocation went uncounted: {d2:?}");
    }

    #[test]
    fn since_subtracts_componentwise() {
        let a = AllocStats { allocs: 10, deallocs: 4, bytes: 100 };
        let b = AllocStats { allocs: 7, deallocs: 1, bytes: 40 };
        assert_eq!(
            a.since(&b),
            AllocStats { allocs: 3, deallocs: 3, bytes: 60 }
        );
    }
}
