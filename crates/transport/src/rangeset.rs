//! A set of `u64` sequence numbers stored as disjoint half-open ranges.
//!
//! Used by the TCP receiver for its out-of-order store (from which SACK
//! blocks are generated) and by the sender for its SACK scoreboard —
//! compact even when tens of thousands of sequence numbers are buffered
//! during a burst-loss episode.
//!
//! The ranges sit in a ring buffer, so with `n` ranges held every lookup
//! is a binary search, O(log n); an edit at either end — appending or
//! extending the highest range, consuming or trimming the lowest — is
//! O(1) on top of that; and an edit in the middle moves the shorter side,
//! O(min(i, n − i)). Operations that absorb or drop `k` ranges add O(k).

use pi2_simcore::{Ckpt, CkptError, CkptReader, CkptWriter};
use std::collections::VecDeque;

/// Disjoint, sorted `[start, end)` ranges of sequence numbers.
///
/// ```
/// use pi2_transport::RangeSet;
/// let mut r = RangeSet::new();
/// r.insert(5);
/// r.insert(7);
/// r.insert(6); // bridges the two ranges
/// assert_eq!(r.ranges(), &[(5, 8)]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RangeSet {
    ranges: VecDeque<(u64, u64)>,
    /// Cached total of contained sequence numbers, so [`RangeSet::len`] is
    /// O(1) — it sits on TCP's per-ACK `pipe()` estimate.
    total: u64,
}

impl RangeSet {
    /// An empty set.
    pub fn new() -> Self {
        RangeSet::default()
    }

    /// Number of disjoint ranges.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Total sequence numbers contained. O(1).
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Remove everything, keeping the allocation.
    pub fn clear(&mut self) {
        self.ranges.clear();
        self.total = 0;
    }

    /// True if no sequence numbers are contained.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The ranges, sorted ascending.
    pub fn ranges(&self) -> &VecDeque<(u64, u64)> {
        &self.ranges
    }

    /// Index of the lowest range ending above `seq`: the one containing
    /// `seq` if any does, else the first one past it. Ranges are disjoint
    /// and sorted, so their ends ascend too. O(log n).
    fn first_ending_above(&self, seq: u64) -> usize {
        self.ranges.partition_point(|&(_, e)| e <= seq)
    }

    /// True if `seq` is contained.
    pub fn contains(&self, seq: u64) -> bool {
        self.find(seq).is_some()
    }

    /// The range containing `seq`, if any.
    pub fn find(&self, seq: u64) -> Option<(u64, u64)> {
        let &(s, e) = self.ranges.get(self.first_ending_above(seq))?;
        (s <= seq).then_some((s, e))
    }

    /// Insert a single sequence number, merging with neighbours.
    /// Returns false if it was already present.
    pub fn insert(&mut self, seq: u64) -> bool {
        // Fast path: in-order arrival past a hole appends to or extends
        // the highest range.
        if self.ranges.back().is_none_or(|&(_, e)| seq >= e) {
            match self.ranges.back_mut() {
                Some(last) if last.1 == seq => last.1 += 1,
                _ => self.ranges.push_back((seq, seq + 1)),
            }
            self.total += 1;
            return true;
        }
        // `i` ranges start at or below `seq`; only the last can hold it.
        let i = self.ranges.partition_point(|&(s, _)| s <= seq);
        let next_start = self.ranges.get(i).map(|&(s, _)| s);
        if i > 0 {
            let pe = self.ranges[i - 1].1;
            if seq < pe {
                return false;
            }
            if seq == pe {
                // Extend the previous range; maybe merge with the next.
                self.ranges[i - 1].1 = pe + 1;
                if next_start == Some(pe + 1) {
                    self.ranges[i - 1].1 = self.ranges[i].1;
                    self.ranges.remove(i);
                }
                self.total += 1;
                return true;
            }
        }
        if next_start == Some(seq + 1) {
            self.ranges[i].0 = seq; // prepend to the next range
        } else {
            self.ranges.insert(i, (seq, seq + 1));
        }
        self.total += 1;
        true
    }

    /// Insert the half-open range `[start, end)`, merging as needed.
    pub fn insert_range(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // The window `lo..hi` of ranges overlapping or adjacent to
        // `[start, end)`: from the first one ending at or after `start`.
        let lo = self.ranges.partition_point(|&(_, e)| e < start);
        let mut hi = lo;
        let mut merged = (start, end);
        let mut absorbed = 0;
        while let Some(&(s, e)) = self.ranges.get(hi).filter(|&&(s, _)| s <= end) {
            merged = (merged.0.min(s), merged.1.max(e));
            absorbed += e - s;
            hi += 1;
        }
        self.total += (merged.1 - merged.0) - absorbed;
        if hi == lo {
            self.ranges.insert(lo, merged);
        } else {
            // Overwrite the first absorbed range; drop the rest, if any.
            self.ranges[lo] = merged;
            if hi > lo + 1 {
                self.ranges.drain(lo + 1..hi);
            }
        }
    }

    /// Remove everything strictly below `cutoff`; returns how many
    /// sequence numbers were removed. O(1) per range dropped.
    pub fn remove_below(&mut self, cutoff: u64) -> u64 {
        let mut removed = 0;
        while let Some(front) = self.ranges.front_mut() {
            if front.1 > cutoff {
                if front.0 < cutoff {
                    removed += cutoff - front.0;
                    front.0 = cutoff;
                }
                break;
            }
            removed += front.1 - front.0;
            self.ranges.pop_front();
        }
        self.total -= removed;
        removed
    }

    /// If the lowest range starts exactly at `start`, remove and return
    /// it (used by the receiver to consume newly contiguous data). O(1).
    pub fn take_leading(&mut self, start: u64) -> Option<(u64, u64)> {
        let &(s, e) = self.ranges.front().filter(|&&(s, _)| s == start)?;
        self.ranges.pop_front();
        self.total -= e - s;
        Some((s, e))
    }

    /// The lowest contained sequence ≥ `from`, if any.
    pub fn first_at_or_after(&self, from: u64) -> Option<u64> {
        let &(s, _) = self.ranges.get(self.first_ending_above(from))?;
        Some(s.max(from))
    }

    /// The maximal runs of `[start, end)` that are *not* contained,
    /// ascending: O(log n) to reach the window, then one step per range
    /// inside it.
    pub fn gaps(&self, start: u64, end: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut next = self.first_ending_above(start);
        let mut cur = start;
        std::iter::from_fn(move || {
            while cur < end {
                // The next covered stretch, or the window's end if none
                // is left inside it.
                let (s, e) = match self.ranges.get(next) {
                    Some(&(s, e)) if s < end => (s, e),
                    _ => (end, end),
                };
                next += 1;
                let gap = (cur, s);
                cur = e;
                if gap.0 < gap.1 {
                    return Some(gap);
                }
            }
            None
        })
    }

    /// The highest contained sequence number, if any.
    pub fn max(&self) -> Option<u64> {
        self.ranges.back().map(|&(_, e)| e - 1)
    }
}

/// The disjoint ascending `[start, end)` ranges; re-inserting them on
/// restore also rebuilds the cached total.
impl Ckpt for RangeSet {
    fn save_ckpt(&self, w: &mut CkptWriter) {
        w.usize(self.ranges.len());
        for &(start, end) in &self.ranges {
            w.u64(start);
            w.u64(end);
        }
    }

    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let n = r.len_of(16)?;
        self.clear();
        let mut prev_end = None;
        for _ in 0..n {
            let start = r.u64()?;
            let end = r.u64()?;
            if start >= end || prev_end.is_some_and(|p| p >= start) {
                return Err(CkptError::Corrupt("rangeset ranges not disjoint ascending"));
            }
            prev_end = Some(end);
            self.insert_range(start, end);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_merge() {
        let mut r = RangeSet::new();
        assert!(r.insert(5));
        assert!(r.insert(7));
        assert_eq!(r.range_count(), 2);
        assert!(r.insert(6)); // bridges 5..6 and 7..8
        assert_eq!(r.range_count(), 1);
        assert_eq!(r.ranges(), &[(5, 8)]);
        assert!(!r.insert(6)); // duplicate
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn extend_left_and_right() {
        let mut r = RangeSet::new();
        r.insert(10);
        r.insert(11); // extend right
        r.insert(9); // extend left
        assert_eq!(r.ranges(), &[(9, 12)]);
    }

    #[test]
    fn contains_and_find() {
        let mut r = RangeSet::new();
        for s in [3, 4, 8, 9, 10] {
            r.insert(s);
        }
        assert!(r.contains(3) && r.contains(4) && !r.contains(5));
        assert_eq!(r.find(9), Some((8, 11)));
        assert_eq!(r.find(7), None);
    }

    #[test]
    fn remove_below_trims_and_splits() {
        let mut r = RangeSet::new();
        for s in 0..10 {
            r.insert(s);
        }
        r.insert(20);
        assert_eq!(r.remove_below(5), 5);
        assert_eq!(r.ranges(), &[(5, 10), (20, 21)]);
        assert_eq!(r.remove_below(100), 6);
        assert!(r.is_empty());
    }

    #[test]
    fn take_leading_consumes_contiguous() {
        let mut r = RangeSet::new();
        for s in [2, 3, 4, 9] {
            r.insert(s);
        }
        assert_eq!(r.take_leading(1), None);
        assert_eq!(r.take_leading(2), Some((2, 5)));
        assert_eq!(r.ranges(), &[(9, 10)]);
    }

    #[test]
    fn first_at_or_after_scans() {
        let mut r = RangeSet::new();
        for s in [5, 6, 10] {
            r.insert(s);
        }
        assert_eq!(r.first_at_or_after(0), Some(5));
        assert_eq!(r.first_at_or_after(6), Some(6));
        assert_eq!(r.first_at_or_after(7), Some(10));
        assert_eq!(r.first_at_or_after(11), None);
        assert_eq!(r.max(), Some(10));
    }

    #[test]
    fn insert_range_merges_overlaps() {
        let mut r = RangeSet::new();
        r.insert_range(10, 15);
        r.insert_range(20, 25);
        r.insert_range(14, 21); // bridges both
        assert_eq!(r.ranges(), &[(10, 25)]);
        r.insert_range(0, 5);
        r.insert_range(5, 10); // adjacent: merges with both neighbours
        assert_eq!(r.ranges(), &[(0, 25)]);
        r.insert_range(30, 30); // empty: no-op
        assert_eq!(r.range_count(), 1);
    }

    #[test]
    fn random_range_inserts_match_btreeset() {
        use pi2_simcore::Rng;
        let mut rng = Rng::new(21);
        let mut rs = RangeSet::new();
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..500 {
            let s = rng.range_u64(0, 200);
            let e = s + rng.range_u64(0, 20);
            rs.insert_range(s, e);
            for x in s..e {
                model.insert(x);
            }
            assert_eq!(rs.len(), model.len() as u64);
        }
        for x in 0..250 {
            assert_eq!(rs.contains(x), model.contains(&x), "at {x}");
        }
    }

    #[test]
    fn random_inserts_match_btreeset() {
        use pi2_simcore::Rng;
        let mut rng = Rng::new(9);
        let mut rs = RangeSet::new();
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..2000 {
            let x = rng.range_u64(0, 300);
            assert_eq!(rs.insert(x), model.insert(x));
        }
        assert_eq!(rs.len(), model.len() as u64);
        for x in 0..300 {
            assert_eq!(rs.contains(x), model.contains(&x), "at {x}");
        }
        // Ranges are disjoint and sorted.
        for (a, b) in rs.ranges().iter().zip(rs.ranges().iter().skip(1)) {
            assert!(a.1 < b.0);
        }
    }

    #[test]
    fn empty_set_operations_are_safe() {
        let mut r = RangeSet::new();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert!(!r.contains(0));
        assert_eq!(r.find(0), None);
        assert_eq!(r.max(), None);
        assert_eq!(r.first_at_or_after(0), None);
        assert_eq!(r.remove_below(u64::MAX), 0);
        assert_eq!(r.take_leading(0), None);
        r.insert_range(5, 5); // empty range: no-op
        r.insert_range(7, 3); // reversed range: no-op
        assert!(r.is_empty());
    }

    /// The half-open representation stores `seq` as `[seq, seq+1)`, so
    /// the largest representable member is `u64::MAX - 1`; everything up
    /// to that boundary must work without overflow.
    #[test]
    fn sequences_near_the_u64_boundary() {
        let top = u64::MAX - 1;
        let mut r = RangeSet::new();
        assert!(r.insert(top));
        assert!(!r.insert(top)); // duplicate at the boundary
        assert_eq!(r.ranges(), &[(top, u64::MAX)]);
        assert!(r.contains(top));
        assert_eq!(r.max(), Some(top));
        assert_eq!(r.find(top), Some((top, u64::MAX)));

        r.insert_range(u64::MAX - 10, u64::MAX);
        assert_eq!(r.ranges(), &[(u64::MAX - 10, u64::MAX)]);
        assert_eq!(r.len(), 10);
        assert_eq!(r.first_at_or_after(top), Some(top));
        assert_eq!(r.remove_below(u64::MAX), 10);
        assert!(r.is_empty());
    }

    #[test]
    fn adjacent_ranges_merge_in_both_directions() {
        let mut r = RangeSet::new();
        r.insert_range(0, 5);
        r.insert_range(10, 15);
        r.insert(5); // extends [0,5) rightward
        assert_eq!(r.ranges(), &[(0, 6), (10, 15)]);
        r.insert(9); // prepends to [10,15)
        assert_eq!(r.ranges(), &[(0, 6), (9, 15)]);
        r.insert_range(6, 9); // exactly fills the gap: one range left
        assert_eq!(r.ranges(), &[(0, 15)]);
    }

    #[test]
    fn clear_resets_cached_len() {
        let mut r = RangeSet::new();
        r.insert_range(0, 100);
        r.insert_range(200, 250);
        assert_eq!(r.len(), 150);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        r.insert(5);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn remove_below_at_exact_range_edges() {
        let mut r = RangeSet::new();
        r.insert_range(10, 20);
        r.insert_range(30, 40);
        // Cutoff at a range start removes nothing from that range.
        assert_eq!(r.remove_below(10), 0);
        assert_eq!(r.ranges(), &[(10, 20), (30, 40)]);
        // Cutoff at a range end removes exactly that range.
        assert_eq!(r.remove_below(20), 10);
        assert_eq!(r.ranges(), &[(30, 40)]);
        // Cutoff inside a range trims it in place.
        assert_eq!(r.remove_below(35), 5);
        assert_eq!(r.ranges(), &[(35, 40)]);
    }
}
