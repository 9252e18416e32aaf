//! Per-packet `f32` columns kept as their runs of equal bits.

use pi2_simcore::ckpt_fields;

/// An `f32` column kept as its runs of equal bits, in recording order.
///
/// Per-packet samples repeat: a PI-family controller moves its
/// probability only at its periodic update, and an ACK-clocked standing
/// queue hands consecutive packets the same sojourn (on a 1 Gb/s link,
/// 156 and 126 samples per run); Curvy RED's probability, which follows
/// the instantaneous queue, hardly repeats. So a run of three or more
/// samples is one value plus a `(index, count)` repeat entry (12 bytes
/// where the plain column held at least 12), and a shorter run stays
/// plain values. The column is never bigger than the plain one, and
/// lossless: [`iter`] gives back every sample, `-0.0` and `0.0` apart, in
/// order.
///
/// [`iter`]: RunColumn::iter
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunColumn {
    /// One value per run, in order.
    values: Vec<f32>,
    /// `(index into values, count)` of every run of three or more samples,
    /// by ascending index; a value no entry names is one sample.
    repeats: Vec<(u32, u32)>,
}

ckpt_fields!(RunColumn { values, repeats } check RunColumn::check);

impl RunColumn {
    /// Append a sample. Inlined on the per-packet path: a value unlike
    /// the last, or one more copy of the last run's repeat, costs a
    /// compare beyond the plain column's push.
    #[inline]
    pub fn push(&mut self, v: f32) {
        let n = self.values.len();
        if n == 0 || self.values[n - 1].to_bits() != v.to_bits() {
            return self.values.push(v);
        }
        match self.repeats.last_mut() {
            Some((at, count)) if *at as usize + 1 == n && *count < u32::MAX => *count += 1,
            _ => self.push_after_plain(v),
        }
    }

    /// [`RunColumn::push`] of a copy of the last value, a plain one: the
    /// third sample of a run turns the two plain values before it into a
    /// repeat entry.
    #[inline(never)]
    fn push_after_plain(&mut self, v: f32) {
        let n = self.values.len();
        // Values past the last repeat's are plain.
        let plain = n - self.repeats.last().map_or(0, |&(at, _)| at as usize + 1);
        if plain >= 2 && self.values[n - 2].to_bits() == v.to_bits() {
            self.values.pop();
            let at = u32::try_from(n - 2).expect("2^32 runs in one column");
            self.repeats.push((at, 3));
        } else {
            self.values.push(v);
        }
    }

    /// Make room for `runs` more values, so that as many samples append
    /// without reallocating them: a column holds at most one value per
    /// sample. Only the pages values are written to become resident.
    pub fn reserve(&mut self, runs: usize) {
        self.values.reserve(runs);
    }

    /// The values the column holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.values.capacity()
    }

    /// The number of samples.
    pub fn len(&self) -> usize {
        let extra: usize = self.repeats.iter().map(|&(_, count)| count as usize - 1).sum();
        self.values.len() + extra
    }

    /// Whether no sample was pushed.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The runs in order, each `(value, count)`: what
    /// [`crate::Summary::of_runs`] reads.
    pub fn runs(&self) -> impl Iterator<Item = (f32, u32)> + Clone + '_ {
        let mut repeats = self.repeats.iter().peekable();
        self.values.iter().enumerate().map(move |(i, &v)| {
            match repeats.next_if(|&&(at, _)| at as usize == i) {
                Some(&(_, count)) => (v, count),
                None => (v, 1),
            }
        })
    }

    /// Every sample, in order: each copy of a run is a reference to the
    /// run's one stored value.
    pub fn iter(&self) -> Iter<'_> {
        Iter { values: &self.values, repeats: &self.repeats, next: 0, left: 0 }
    }

    /// Bytes the encoding holds (values and repeat entries, not spare
    /// capacity); the plain column held `4 × len()`.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.values[..]) + std::mem::size_of_val(&self.repeats[..])
    }

    /// A restored column's repeat entries name values in ascending order,
    /// each at most once, and each stands for three samples or more.
    fn check(&self) -> Result<(), &'static str> {
        let n = self.values.len();
        let ascending = self.repeats.windows(2).all(|w| w[0].0 < w[1].0);
        if !ascending || self.repeats.last().is_some_and(|&(at, _)| at as usize >= n) {
            return Err("run column: repeat index out of order or out of range");
        }
        if self.repeats.iter().any(|&(_, count)| count < 3) {
            return Err("run column: a repeat of fewer than three samples");
        }
        Ok(())
    }
}

/// [`RunColumn::iter`]: every sample of a column, in order.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    values: &'a [f32],
    /// The repeat entries of `values[next..]`.
    repeats: &'a [(u32, u32)],
    /// The index of the next run's value.
    next: usize,
    /// Copies of `values[next - 1]` still to give.
    left: u32,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a f32;

    #[inline]
    fn next(&mut self) -> Option<&'a f32> {
        if self.left == 0 {
            if self.next == self.values.len() {
                return None;
            }
            self.left = match self.repeats.split_first() {
                Some((&(at, count), rest)) if at as usize == self.next => {
                    self.repeats = rest;
                    count
                }
                _ => 1,
            };
            self.next += 1;
        }
        self.left -= 1;
        Some(&self.values[self.next - 1])
    }
}

impl<'a> IntoIterator for &'a RunColumn {
    type Item = &'a f32;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}
