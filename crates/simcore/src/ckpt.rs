//! Checkpoint byte codec: a tiny, explicit, deterministic binary format.
//!
//! Checkpoint/restore (ROADMAP item 5) doubles as the repo's determinism
//! oracle: restoring a mid-run snapshot and replaying must be bit-identical
//! to a straight-through run. That only works if the byte format itself is
//! deterministic, so this module is deliberately primitive — every field is
//! written explicitly, in a fixed order, in little-endian fixed-width
//! encodings. There is no reflection, no varint cleverness, and no
//! dependency: the format is the code that writes it.
//!
//! Floats are encoded via [`f64::to_bits`] so NaN payloads and signed
//! zeros round-trip exactly; lengths are `u64` so the format is identical
//! on 32- and 64-bit hosts. Readers are bounds-checked and return
//! [`CkptError`] instead of panicking, since checkpoint files cross the
//! process boundary (`pi2sim --restore`).
//!
//! # Declaring a layout
//!
//! A component's layout is its [`Ckpt`] impl. Each encoding shape is
//! implemented once, here: the primitives, [`Time`] and [`Duration`];
//! `Option<T>` as a presence flag plus the value (`T::default()` when
//! absent, so every record keeps its width); `Vec<T>` as a length, read
//! through [`CkptReader::len_of`] before anything is allocated, then the
//! items; a slice `[T]` the same way but restored in place, refusing a
//! blob whose length differs from the configured one; fixed arrays and
//! tuples item by item, with no prefix; `Box<T>` as its content.
//!
//! Most components are a list of fields, and state it once through
//! [`ckpt_fields!`](crate::ckpt_fields), which writes both methods from
//! it:
//!
//! ```
//! use pi2_simcore::{ckpt_fields, Ckpt, CkptReader, CkptWriter, Time};
//! #[derive(Default)]
//! struct Meter { at: Option<Time>, seen: Vec<u64>, rate: f64 }
//! impl Meter {
//!     fn check(&self) -> Result<(), &'static str> {
//!         if self.rate >= 0.0 { Ok(()) } else { Err("negative rate") }
//!     }
//! }
//! ckpt_fields!(Meter { at, seen, rate } check Meter::check);
//!
//! let m = Meter { at: Some(Time::from_millis(3)), seen: vec![7], rate: 1.5 };
//! let mut w = CkptWriter::new();
//! m.save_ckpt(&mut w);
//! let blob = w.into_bytes();
//! let mut back = Meter::default();
//! back.restore_ckpt(&mut CkptReader::new(&blob)).unwrap();
//! assert_eq!((back.at, back.seen, back.rate), (m.at, m.seen, m.rate));
//! ```
//!
//! Fields left out of the list are configuration: the restoring side is
//! built with the same values. A field may be a nested path (`last.p`),
//! and a `[..]` suffix (`flows[..]`) restores a list in place, keeping
//! what each element holds beyond its own layout. The optional `check`
//! runs after every field is read, so a restore can refuse a blob whose
//! fields are each well-formed but together impossible.
//!
//! An impl is written by hand only where the layout is not a field list,
//! and each keeps its own checks: variant tags (the pending events, the
//! delay estimator, the ECN codepoint); the event wheel's canonical entry
//! list; `Pool`'s slots (a payload only behind a set presence flag) and
//! free list; `Fifo`'s byte total and the sequence sets' ascending order,
//! derived or checked rather than stored; FQ's round; a histogram's
//! sparse buckets; and `SimCore`'s optional sections with the `Sim`
//! header and schema hash. DESIGN.md §5 tables them with the reason
//! each stays by hand.

use crate::time::{Duration, Time};
use std::fmt;

/// Errors surfaced while decoding a checkpoint blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The blob ended before the field being read.
    Truncated,
    /// The leading magic bytes did not match [`MAGIC`]; not a checkpoint.
    BadMagic,
    /// Format version mismatch between writer and reader.
    VersionMismatch { found: u32, expected: u32 },
    /// Schema-hash mismatch: the checkpoint was taken from a simulator
    /// built with a different structural configuration.
    SchemaMismatch { found: u64, expected: u64 },
    /// A decoded value violated an internal invariant.
    Corrupt(&'static str),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Truncated => write!(f, "checkpoint truncated"),
            CkptError::BadMagic => write!(f, "not a pi2 checkpoint (bad magic)"),
            CkptError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint format version {found} unsupported (expected {expected})"
            ),
            CkptError::SchemaMismatch { found, expected } => write!(
                f,
                "checkpoint schema hash {found:#018x} does not match this \
                 configuration ({expected:#018x}); the snapshot was taken \
                 from a structurally different simulator"
            ),
            CkptError::Corrupt(what) => write!(f, "checkpoint corrupt: {what}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// A failed invariant check names what it found; see [`ckpt_fields!`].
impl From<&'static str> for CkptError {
    fn from(what: &'static str) -> Self {
        CkptError::Corrupt(what)
    }
}

/// Magic bytes opening every checkpoint blob.
pub const MAGIC: [u8; 8] = *b"PI2CKPT\0";

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher used for checkpoint schema hashes. The hash
/// covers structural descriptors (format version, component names, flow
/// labels), not values, so it changes exactly when a restore would write
/// state into the wrong slots.
#[derive(Debug, Clone)]
pub struct SchemaHasher {
    state: u64,
}

impl Default for SchemaHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl SchemaHasher {
    /// Fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        SchemaHasher { state: FNV_OFFSET }
    }

    /// Fold raw bytes into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold a length-tagged string in (tagging prevents `"ab","c"` from
    /// colliding with `"a","bc"`).
    pub fn update_str(&mut self, s: &str) {
        self.update(&(s.len() as u64).to_le_bytes());
        self.update(s.as_bytes());
    }

    /// Fold a `u64` in.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Serializer: appends fixed-width little-endian fields to a byte buffer.
#[derive(Debug, Default)]
pub struct CkptWriter {
    buf: Vec<u8>,
}

impl CkptWriter {
    /// An empty writer.
    pub fn new() -> Self {
        CkptWriter { buf: Vec::new() }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded blob.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw bytes verbatim (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` travels as `u64` so blobs are portable across word sizes.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Bit-exact float encoding (NaN payloads and -0.0 survive).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    pub fn time(&mut self, t: Time) {
        self.u64(t.as_nanos());
    }

    pub fn duration(&mut self, d: Duration) {
        self.i64(d.as_nanos());
    }

    /// Length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.raw(b);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Bounds-checked cursor over an encoded checkpoint blob.
#[derive(Debug)]
pub struct CkptReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> CkptReader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        CkptReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume the next `n` bytes verbatim (fixed-width fields like the
    /// file magic; length-prefixed data should use [`CkptReader::bytes`]).
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, CkptError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CkptError::Corrupt("bool field not 0/1")),
        }
    }

    pub fn u32(&mut self) -> Result<u32, CkptError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    pub fn u64(&mut self) -> Result<u64, CkptError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    pub fn i64(&mut self) -> Result<i64, CkptError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    pub fn usize(&mut self) -> Result<usize, CkptError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CkptError::Corrupt("length exceeds host usize"))
    }

    /// The length prefix of a list whose elements each take at least
    /// `min_element_bytes` (> 0) of the blob: [`CkptError::Truncated`] if
    /// that many cannot follow, so a caller can allocate `len` slots before
    /// decoding them and a corrupt length is an error, not an allocation
    /// the process dies of.
    pub fn len_of(&mut self, min_element_bytes: usize) -> Result<usize, CkptError> {
        let len = self.usize()?;
        match len.checked_mul(min_element_bytes) {
            Some(bytes) if bytes <= self.remaining() => Ok(len),
            _ => Err(CkptError::Truncated),
        }
    }

    pub fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn f32(&mut self) -> Result<f32, CkptError> {
        Ok(f32::from_bits(self.u32()?))
    }

    pub fn time(&mut self) -> Result<Time, CkptError> {
        Ok(Time::from_nanos(self.u64()?))
    }

    pub fn duration(&mut self) -> Result<Duration, CkptError> {
        Ok(Duration::from_nanos(self.i64()?))
    }

    /// Length-prefixed byte string; borrows from the blob.
    pub fn bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CkptError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| CkptError::Corrupt("string field not UTF-8"))
    }

    /// Assert the blob is fully consumed (catches field-order drift).
    pub fn finish(self) -> Result<(), CkptError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CkptError::Corrupt("trailing bytes after final field"))
        }
    }
}

/// A value with a checkpoint layout (see the module doc).
pub trait Ckpt {
    /// Append this value's mutable state to `w`, in a fixed field order.
    fn save_ckpt(&self, w: &mut CkptWriter);

    /// Read back what [`Ckpt::save_ckpt`] wrote into a value built with
    /// the same configuration.
    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError>;
}

macro_rules! primitive {
    ($($ty:ty => $codec:ident),* $(,)?) => {$(
        impl Ckpt for $ty {
            fn save_ckpt(&self, w: &mut CkptWriter) {
                w.$codec(*self);
            }

            fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
                *self = r.$codec()?;
                Ok(())
            }
        }
    )*};
}

primitive!(
    u8 => u8, bool => bool, u32 => u32, u64 => u64, i64 => i64, usize => usize,
    f32 => f32, f64 => f64, Time => time, Duration => duration,
);

macro_rules! tuple {
    ($($ty:ident $idx:tt),+) => {
        impl<$($ty: Ckpt),+> Ckpt for ($($ty,)+) {
            fn save_ckpt(&self, w: &mut CkptWriter) {
                $(self.$idx.save_ckpt(w);)+
            }

            fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
                $(self.$idx.restore_ckpt(r)?;)+
                Ok(())
            }
        }
    };
}

tuple!(A 0, B 1);
tuple!(A 0, B 1, C 2);

impl<T: Ckpt, const N: usize> Ckpt for [T; N] {
    fn save_ckpt(&self, w: &mut CkptWriter) {
        for x in self {
            x.save_ckpt(w);
        }
    }

    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        self.iter_mut().try_for_each(|x| x.restore_ckpt(r))
    }
}

/// A list of a configured length, restored in place.
impl<T: Ckpt> Ckpt for [T] {
    fn save_ckpt(&self, w: &mut CkptWriter) {
        w.usize(self.len());
        for x in self {
            x.save_ckpt(w);
        }
    }

    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        if r.usize()? != self.len() {
            return Err(CkptError::Corrupt("list length differs from the configured one"));
        }
        self.iter_mut().try_for_each(|x| x.restore_ckpt(r))
    }
}

/// A list whose length is state. Every item takes at least a byte, so
/// [`CkptReader::len_of`] refuses a length the blob cannot hold before
/// the first push.
impl<T: Ckpt + Default> Ckpt for Vec<T> {
    fn save_ckpt(&self, w: &mut CkptWriter) {
        self.as_slice().save_ckpt(w);
    }

    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let n = r.len_of(1)?;
        self.clear();
        for _ in 0..n {
            let mut x = T::default();
            x.restore_ckpt(r)?;
            self.push(x);
        }
        Ok(())
    }
}

/// A presence flag, then the value or `T::default()` in its place.
impl<T: Ckpt + Default> Ckpt for Option<T> {
    fn save_ckpt(&self, w: &mut CkptWriter) {
        w.bool(self.is_some());
        match self {
            Some(x) => x.save_ckpt(w),
            None => T::default().save_ckpt(w),
        }
    }

    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let present = r.bool()?;
        let mut x = T::default();
        x.restore_ckpt(r)?;
        *self = present.then_some(x);
        Ok(())
    }
}

impl<T: Ckpt + ?Sized> Ckpt for Box<T> {
    fn save_ckpt(&self, w: &mut CkptWriter) {
        (**self).save_ckpt(w);
    }

    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        (**self).restore_ckpt(r)
    }
}

/// Implement [`Ckpt`] for a type from its ordered field list:
/// `ckpt_fields!(Type { a, b.c, d[..] } check Type::check)`. Each field
/// is saved and restored through its own [`Ckpt`] impl, in list order;
/// `check`, a `fn(&Type) -> Result<(), E>` with `E: Into<CkptError>`,
/// runs once every field is read. The module doc has the rules.
#[macro_export]
macro_rules! ckpt_fields {
    ($ty:ty { $($head:tt $(. $tail:tt)* $([$($range:tt)*])?),* $(,)? } $(check $check:expr)?) => {
        impl $crate::ckpt::Ckpt for $ty {
            #[allow(unused_variables)]
            fn save_ckpt(&self, w: &mut $crate::ckpt::CkptWriter) {
                $($crate::ckpt::Ckpt::save_ckpt(
                    &self.$head $(.$tail)* $([$($range)*])?,
                    w,
                );)*
            }

            #[allow(unused_variables)]
            fn restore_ckpt(
                &mut self,
                r: &mut $crate::ckpt::CkptReader,
            ) -> Result<(), $crate::ckpt::CkptError> {
                $($crate::ckpt::Ckpt::restore_ckpt(
                    &mut self.$head $(.$tail)* $([$($range)*])?,
                    r,
                )?;)*
                $(($check)(&*self)?;)?
                Ok(())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = CkptWriter::new();
        w.u8(0xAB);
        w.bool(true);
        w.bool(false);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.usize(7);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.f32(1.5);
        w.time(Time::from_millis(20));
        w.duration(Duration::from_micros(-3));
        w.bytes(b"raw");
        w.str("p\u{00ed}2");
        let blob = w.into_bytes();

        let mut r = CkptReader::new(&blob);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 7);
        let z = r.f64().unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.f32().unwrap(), 1.5);
        assert_eq!(r.time().unwrap(), Time::from_millis(20));
        assert_eq!(r.duration().unwrap(), Duration::from_micros(-3));
        assert_eq!(r.bytes().unwrap(), b"raw");
        assert_eq!(r.str().unwrap(), "p\u{00ed}2");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut w = CkptWriter::new();
        w.u64(1);
        let blob = w.into_bytes();
        let mut r = CkptReader::new(&blob[..5]);
        assert_eq!(r.u64(), Err(CkptError::Truncated));
    }

    #[test]
    fn len_of_admits_only_lengths_the_blob_can_hold() {
        let blob_with = |len: u64, payload: usize| {
            let mut w = CkptWriter::new();
            w.u64(len);
            w.raw(&vec![0; payload]);
            w.into_bytes()
        };
        // Three 4-byte elements fit in 12 bytes exactly, not in 11.
        assert_eq!(CkptReader::new(&blob_with(3, 12)).len_of(4), Ok(3));
        assert_eq!(CkptReader::new(&blob_with(3, 11)).len_of(4), Err(CkptError::Truncated));
        assert_eq!(CkptReader::new(&blob_with(0, 0)).len_of(17), Ok(0));
        // A product past usize is a length no blob holds, not a wrap-around.
        for len in [u64::MAX >> 1, (usize::MAX / 4 + 1) as u64] {
            assert_eq!(CkptReader::new(&blob_with(len, 64)).len_of(4), Err(CkptError::Truncated));
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = CkptWriter::new();
        w.u8(1);
        w.u8(2);
        let blob = w.into_bytes();
        let mut r = CkptReader::new(&blob);
        assert_eq!(r.u8().unwrap(), 1);
        assert!(matches!(r.finish(), Err(CkptError::Corrupt(_))));
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let blob = [7u8];
        let mut r = CkptReader::new(&blob);
        assert!(matches!(r.bool(), Err(CkptError::Corrupt(_))));
    }

    #[test]
    fn length_prefix_overrun_is_truncated() {
        let mut w = CkptWriter::new();
        w.usize(1000); // claims 1000 bytes follow; none do
        let blob = w.into_bytes();
        let mut r = CkptReader::new(&blob);
        assert_eq!(r.bytes(), Err(CkptError::Truncated));
    }

    #[test]
    fn schema_hash_is_order_and_boundary_sensitive() {
        let mut a = SchemaHasher::new();
        a.update_str("ab");
        a.update_str("c");
        let mut b = SchemaHasher::new();
        b.update_str("a");
        b.update_str("bc");
        assert_ne!(a.finish(), b.finish());

        let mut c = SchemaHasher::new();
        c.update_u64(1);
        c.update_u64(2);
        let mut d = SchemaHasher::new();
        d.update_u64(2);
        d.update_u64(1);
        assert_ne!(c.finish(), d.finish());
    }

    /// Save `v`, restore the bytes into `into`, and insist every byte was read.
    fn round_trip<T: Ckpt>(v: &T, mut into: T) -> (Vec<u8>, T) {
        let mut w = CkptWriter::new();
        v.save_ckpt(&mut w);
        let blob = w.into_bytes();
        let mut r = CkptReader::new(&blob);
        into.restore_ckpt(&mut r).unwrap();
        r.finish().unwrap();
        (blob, into)
    }

    #[test]
    fn an_absent_option_writes_the_default_in_its_place() {
        let v = Some((Time::from_nanos(5), true));
        let (some, back) = round_trip(&v, None);
        assert_eq!(back, v);
        let (none, back) = round_trip(&None::<(Time, bool)>, v);
        assert_eq!(back, None);
        // The flag, then Time::ZERO and `false`: both records are 10 bytes.
        assert_eq!(none, [0; 10]);
        assert_eq!(some.len(), none.len());
    }

    #[test]
    fn a_list_length_the_blob_cannot_hold_is_refused_before_allocating() {
        let mut w = CkptWriter::new();
        w.u64(1 << 40);
        w.u64(7);
        let blob = w.into_bytes();
        let mut v: Vec<u64> = Vec::new();
        assert_eq!(v.restore_ckpt(&mut CkptReader::new(&blob)), Err(CkptError::Truncated));
        assert_eq!(v.capacity(), 0);
        // A length that fits but outruns its items is truncation too.
        let mut w = CkptWriter::new();
        w.u64(2);
        w.u64(7);
        let blob = w.into_bytes();
        assert_eq!(v.restore_ckpt(&mut CkptReader::new(&blob)), Err(CkptError::Truncated));
        // A configured list refuses any length but its own.
        let mut fixed = [0u64; 3];
        assert!(matches!(
            fixed[..].restore_ckpt(&mut CkptReader::new(&blob)),
            Err(CkptError::Corrupt(_))
        ));
    }

    #[derive(Debug, Default, PartialEq)]
    struct Inner {
        a: u32,
        b: Option<Duration>,
    }
    ckpt_fields!(Inner { a, b });

    #[derive(Debug, Default, PartialEq)]
    struct Outer {
        label: u8,
        rows: Vec<Inner>,
        pairs: [(u64, f64); 2],
        fixed: Vec<Inner>,
        nested: (Inner, u8),
        boxed: Box<i64>,
    }
    impl Outer {
        fn check(&self) -> Result<(), &'static str> {
            if *self.boxed < 0 {
                Err("negative box")
            } else {
                Ok(())
            }
        }
    }
    ckpt_fields!(Outer { rows, pairs, fixed[..], nested.0.a, nested.1, boxed } check Outer::check);

    #[test]
    fn nested_layouts_write_each_field_in_list_order() {
        let inner = |a, b| Inner { a, b };
        let v = Outer {
            label: 9,
            rows: vec![inner(1, None), inner(2, Some(Duration::from_nanos(-3)))],
            pairs: [(4, 0.5), (5, -0.0)],
            fixed: vec![inner(6, None)],
            nested: (inner(7, Some(Duration::ZERO)), 8),
            boxed: Box::new(10),
        };
        let mut w = CkptWriter::new();
        w.usize(2);
        w.u32(1);
        w.bool(false);
        w.duration(Duration::ZERO);
        w.u32(2);
        w.bool(true);
        w.duration(Duration::from_nanos(-3));
        w.u64(4);
        w.f64(0.5);
        w.u64(5);
        w.f64(-0.0);
        w.usize(1);
        w.u32(6);
        w.bool(false);
        w.duration(Duration::ZERO);
        w.u32(7);
        w.u8(8);
        w.i64(10);
        let want = w.into_bytes();

        // `label` and `nested.0.b` are not listed: configuration, kept.
        let built = || Outer { label: 1, fixed: vec![Inner::default()], ..Outer::default() };
        let (blob, back) = round_trip(&v, built());
        assert_eq!(blob, want);
        assert_eq!(back.label, 1);
        assert_eq!(back.nested.0.b, None);
        assert_eq!((&back.rows, back.pairs, &back.fixed), (&v.rows, v.pairs, &v.fixed));
        assert_eq!((back.nested.0.a, back.nested.1, *back.boxed), (7, 8, 10));

        // The check runs after the last field.
        let mut bad = want.clone();
        let at = bad.len() - 8;
        bad[at..].copy_from_slice(&(-1i64).to_le_bytes());
        assert_eq!(
            built().restore_ckpt(&mut CkptReader::new(&bad)),
            Err(CkptError::Corrupt("negative box"))
        );
        // A configured list of another length is refused.
        let mut two = Outer { fixed: vec![Inner::default(), Inner::default()], ..built() };
        assert!(matches!(
            two.restore_ckpt(&mut CkptReader::new(&want)),
            Err(CkptError::Corrupt(_))
        ));
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a test vector: "a" -> 0xaf63dc4c8601ec8c.
        let mut h = SchemaHasher::new();
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
