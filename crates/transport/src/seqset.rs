//! A sorted ring-buffer set of `u64` sequence numbers for the sender
//! scoreboard.
//!
//! The sender's `lost` and `rtx_out` sets are populated in ascending
//! order, trimmed from the bottom by every cumulative ACK and hammered on
//! the per-ACK hot path (`pipe()`, loss marking, repair selection). They
//! are as large as the loss episode under repair — a slow-start overshoot
//! on a 1 Gb/s path leaves 41 667 holes — so no operation may cost a pass
//! over the set. With `n` members held:
//!
//! | operation | cost |
//! |---|---|
//! | `len`, `is_empty`, `clear` | O(1) |
//! | `contains`, `first_at_or_after` | O(log n); O(1) at or past the tail |
//! | `insert`, `insert_run` past the tail | O(1) per member added |
//! | `remove_below` | O(log n) |
//! | `insert`, `remove`, `insert_run`, `remove_range` elsewhere | O(log n) + the shorter side, O(min(i, n − i)) |
//!
//! The API mirrors the `BTreeSet` surface the scoreboard code first used.

use pi2_simcore::{Ckpt, CkptError, CkptReader, CkptWriter};
use std::collections::VecDeque;

/// A set of `u64`s stored as a sorted `VecDeque`.
#[derive(Clone, Debug, Default)]
pub struct SeqSet {
    seqs: VecDeque<u64>,
}

impl SeqSet {
    /// An empty set.
    pub fn new() -> Self {
        SeqSet::default()
    }

    /// Number of contained sequence numbers.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// True if nothing is contained.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Remove everything, keeping the allocation.
    pub fn clear(&mut self) {
        self.seqs.clear();
    }

    /// True if `seq` is contained.
    #[inline]
    pub fn contains(&self, seq: u64) -> bool {
        // Fast path: the scoreboard mostly appends, so the common miss is
        // "beyond the current tail".
        match self.seqs.back() {
            None => false,
            Some(&last) if seq > last => false,
            Some(&last) if seq == last => true,
            _ => self.seqs.binary_search(&seq).is_ok(),
        }
    }

    /// Insert `seq`; returns false if it was already present.
    #[inline]
    pub fn insert(&mut self, seq: u64) -> bool {
        match self.seqs.back() {
            Some(&last) if seq == last => false,
            Some(&last) if seq < last => match self.seqs.binary_search(&seq) {
                Ok(_) => false,
                Err(i) => {
                    self.seqs.insert(i, seq);
                    true
                }
            },
            _ => {
                self.seqs.push_back(seq);
                true
            }
        }
    }

    /// Insert every sequence in the half-open `[start, end)`, replacing
    /// any members already inside that window (so duplicates are fine).
    pub fn insert_run(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        if self.seqs.back().is_none_or(|&last| start > last) {
            // Pure append — the common case for hole marking, which scans
            // strictly above everything marked before.
            self.seqs.extend(start..end);
            return;
        }
        // Empty the window, turn the ring so the gap is at its front,
        // fill it from there, and turn back.
        self.remove_range(start, end);
        let lo = self.seqs.partition_point(|&x| x < start);
        self.seqs.rotate_left(lo);
        (start..end).rev().for_each(|seq| self.seqs.push_front(seq));
        self.seqs.rotate_right(lo);
    }

    /// Remove `seq` if present; returns whether it was.
    pub fn remove(&mut self, seq: u64) -> bool {
        match self.seqs.binary_search(&seq) {
            Ok(i) => {
                self.seqs.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Remove everything strictly below `cutoff`.
    pub fn remove_below(&mut self, cutoff: u64) {
        let n = self.seqs.partition_point(|&x| x < cutoff);
        if n > 0 {
            self.seqs.drain(..n);
        }
    }

    /// Remove every member of the half-open `[start, end)`.
    pub fn remove_range(&mut self, start: u64, end: u64) {
        let lo = self.seqs.partition_point(|&x| x < start);
        let hi = self.seqs.partition_point(|&x| x < end);
        if lo < hi {
            self.seqs.drain(lo..hi);
        }
    }

    /// The lowest member ≥ `from`, if any.
    #[inline]
    pub fn first_at_or_after(&self, from: u64) -> Option<u64> {
        let i = self.seqs.partition_point(|&x| x < from);
        self.seqs.get(i).copied()
    }

    /// Iterate members in ascending order.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, u64> {
        self.seqs.iter()
    }
}

/// The ascending member list; re-inserting in that order on restore
/// rebuilds the identical internal layout.
impl Ckpt for SeqSet {
    fn save_ckpt(&self, w: &mut CkptWriter) {
        w.usize(self.len());
        for &seq in self.iter() {
            w.u64(seq);
        }
    }

    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let n = r.len_of(8)?;
        self.clear();
        let mut prev = None;
        for _ in 0..n {
            let seq = r.u64()?;
            if prev.is_some_and(|p| p >= seq) {
                return Err(CkptError::Corrupt("seqset members not strictly ascending"));
            }
            prev = Some(seq);
            self.insert(seq);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = SeqSet::new();
        assert!(s.insert(5));
        assert!(s.insert(2));
        assert!(s.insert(9));
        assert!(!s.insert(5));
        assert!(s.contains(2) && s.contains(5) && s.contains(9));
        assert!(!s.contains(3));
        assert_eq!(s.len(), 3);
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![2, 9]);
    }

    #[test]
    fn insert_run_replaces_window() {
        let mut s = SeqSet::new();
        s.insert(3);
        s.insert(10);
        s.insert_run(2, 6); // overlaps the existing 3
        assert_eq!(
            s.iter().copied().collect::<Vec<_>>(),
            vec![2, 3, 4, 5, 10]
        );
        s.insert_run(20, 23); // pure append
        assert!(s.contains(22));
        assert_eq!(s.len(), 8);
        s.insert_run(7, 7); // empty: no-op
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn remove_below_and_cursor_lookup() {
        let mut s = SeqSet::new();
        s.insert_run(0, 10);
        s.remove_below(4);
        assert_eq!(s.first_at_or_after(0), Some(4));
        assert_eq!(s.first_at_or_after(7), Some(7));
        assert_eq!(s.first_at_or_after(10), None);
        s.remove_range(5, 8);
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![4, 8, 9]);
        s.remove_range(9, 4); // reversed: no-op
        s.remove_range(20, 30); // past the tail: no-op
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn random_ops_match_btreeset() {
        use pi2_simcore::Rng;
        let mut rng = Rng::new(17);
        let mut s = SeqSet::new();
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..3000 {
            let x = rng.range_u64(0, 400);
            match rng.range_u64(0, 4) {
                0 => assert_eq!(s.insert(x), model.insert(x)),
                1 => assert_eq!(s.remove(x), model.remove(&x)),
                2 => {
                    let e = x + rng.range_u64(0, 8);
                    s.insert_run(x, e);
                    model.extend(x..e);
                }
                _ => {
                    s.remove_below(x);
                    model.retain(|&m| m >= x);
                }
            }
            assert_eq!(s.len(), model.len());
            assert_eq!(
                s.first_at_or_after(x),
                model.range(x..).next().copied()
            );
        }
        assert!(s.iter().copied().eq(model.iter().copied()));
    }
}
