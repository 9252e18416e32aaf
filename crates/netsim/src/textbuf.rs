//! Number-to-text writers that append to a byte buffer the caller reuses.
//!
//! The trace sinks ([`crate::trace`], [`crate::perfetto`]) render one
//! record per packet event; `format!` would cost a `String` each. These
//! append to a `Vec<u8>` the sink clears per record, so a sink whose
//! buffer has reached its working size never touches the heap. A record
//! is one [`put!`] of literal text and values; integers go through the
//! decimal writer below, floats through `core::fmt`'s own
//! shortest-round-trip printer, which writes into the buffer without
//! allocating and is what `format!("{v}")` prints by construction.

use pi2_simcore::Duration;
use std::io::Write;

/// A value the trace formats append to a buffer as text.
///
/// The impls are `#[inline]` for a measured reason: the sinks are generic
/// over their writer, so they are compiled in the crate that names the
/// writer, and without the hint every literal fragment of a record was an
/// out-of-line call into this one (Perfetto 110 ns per event against 60).
pub(crate) trait Put {
    /// Append `self`.
    fn put(&self, buf: &mut Vec<u8>);
}

/// Append each part in turn: `put!(buf, "{\"t_ns\":", t_ns, "}")` is
/// `format!("{{\"t_ns\":{t_ns}}}")` into `buf`.
macro_rules! put {
    ($buf:expr, $($part:expr),+ $(,)?) => {{
        $($crate::textbuf::Put::put(&$part, $buf);)+
    }};
}
pub(crate) use put;

/// Literal text (field names, punctuation), as is.
impl Put for &str {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.as_bytes());
    }
}

/// As `format!("{v}")` prints it.
impl Put for u64 {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_padded(buf, *self, 1);
    }
}

/// As `format!("{v}")` prints it.
impl Put for i64 {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        if *self < 0 {
            buf.push(b'-');
        }
        self.unsigned_abs().put(buf);
    }
}

/// As `format!("{v}")` prints it (`NaN` and `inf` included).
impl Put for f64 {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        write!(buf, "{self}").expect("writing to a Vec<u8> cannot fail");
    }
}

/// A span as its signed nanosecond count.
impl Put for Duration {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        self.as_nanos().put(buf);
    }
}

/// `.0 / 10^FRAC`, a point, and `.0 % 10^FRAC` padded to `FRAC` digits: a
/// fixed-point rendering in integer math only, so the text is the same on
/// every platform (`format!("{}.{:03}", v / 1000, v % 1000)` for `FRAC` = 3).
pub(crate) struct Fixed<const FRAC: u32>(pub u64);

impl<const FRAC: u32> Put for Fixed<FRAC> {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        let scale = 10u64.pow(FRAC);
        (self.0 / scale).put(buf);
        buf.push(b'.');
        put_padded(buf, self.0 % scale, FRAC as usize);
    }
}

/// Append `v` zero-padded on the left to at least `width` digits, as
/// `format!("{v:0width$}")` prints it (`width` ≤ 20, a `u64`'s longest).
fn put_padded(buf: &mut Vec<u8>, mut v: u64, width: usize) {
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at.min(digits.len() - width)..]);
}

/// The text `write` appends, for the `String`-returning wrappers and
/// tests.
pub(crate) fn text(write: impl FnOnce(&mut Vec<u8>)) -> String {
    let mut buf = Vec::new();
    write(&mut buf);
    String::from_utf8(buf).expect("the writers emit UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_simcore::Rng;

    const EDGES: [u64; 11] = [
        0,
        9,
        10,
        99,
        100,
        999,
        1_000,
        999_999,
        u32::MAX as u64,
        u64::MAX,
        i64::MIN as u64,
    ];

    fn check_ints(v: u64) {
        let s = v as i64;
        assert_eq!(text(|b| put!(b, v)), format!("{v}"));
        assert_eq!(text(|b| put!(b, s)), format!("{s}"));
        assert_eq!(text(|b| put!(b, Duration::from_nanos(s))), format!("{s}"));
        assert_eq!(text(|b| put_padded(b, v, 3)), format!("{v:03}"));
        assert_eq!(text(|b| put_padded(b, v, 6)), format!("{v:06}"));
        assert_eq!(text(|b| put_padded(b, v, 20)), format!("{v:020}"));
        assert_eq!(
            text(|b| put!(b, Fixed::<3>(v))),
            format!("{}.{:03}", v / 1_000, v % 1_000)
        );
        assert_eq!(
            text(|b| put!(b, Fixed::<6>(v))),
            format!("{}.{:06}", v / 1_000_000, v % 1_000_000)
        );
    }

    #[test]
    fn decimal_writers_equal_format() {
        for v in EDGES {
            check_ints(v);
        }
        assert_eq!(text(|b| put!(b, -1i64)), "-1");
        assert_eq!(text(|b| put!(b, i64::MIN)), format!("{}", i64::MIN));
        let mut rng = Rng::new(18);
        for _ in 0..20_000 {
            // Every digit count, not only the 19–20 digits uniform draws
            // almost always have.
            let v = rng.next_u64() >> (rng.next_u64() % 64);
            check_ints(v);
            check_ints(v.wrapping_neg());
        }
    }

    #[test]
    fn float_writer_equals_format_and_keeps_non_finite_text() {
        let fixed = [
            0.0,
            -0.0,
            0.1 + 0.2,
            1e-7,
            1e21,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut rng = Rng::new(19);
        let random = std::iter::repeat_with(|| f64::from_bits(rng.next_u64())).take(20_000);
        for v in fixed.into_iter().chain(random) {
            assert_eq!(text(|b| put!(b, v)), format!("{v}"), "bits {:#x}", v.to_bits());
        }
        assert_eq!(text(|b| put!(b, f64::NAN)), "NaN");
        assert_eq!(text(|b| put!(b, f64::INFINITY)), "inf");
        assert_eq!(text(|b| put!(b, f64::NEG_INFINITY)), "-inf");
    }

    #[test]
    fn parts_append_in_order_after_what_the_buffer_holds() {
        let mut buf = b"x=".to_vec();
        put!(&mut buf, -40i64, " ", Fixed::<6>(1_500_000), " ", 0.25, " ", 7u64);
        assert_eq!(buf, b"x=-40 1.500000 0.25 7");
    }
}
