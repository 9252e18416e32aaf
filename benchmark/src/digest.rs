//! `sim_digest`: FNV-1a over the simulated results of a repetition.
//!
//! The simulator is deterministic, so its results are checked, not
//! measured: every repetition's digest must equal the first's, and two
//! commits whose digests are equal simulated exactly the same thing.

/// A 64-bit FNV-1a hasher over integers and float bit patterns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    /// One FNV step over a whole word: for per-packet sample vectors,
    /// where a step per byte would cost as much as the summary itself.
    pub fn word(&mut self, v: u64) -> &mut Self {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        self
    }

    /// Fold in an integer, little-endian byte by byte.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.word(u64::from(b));
        }
        self
    }

    /// Fold in a float's exact bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Fold in a string's bytes and its length.
    pub fn str(&mut self, s: &str) -> &mut Self {
        for b in s.bytes() {
            self.word(u64::from(b));
        }
        self.u64(s.len() as u64)
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_across_builds() {
        // Pinned: results files from different commits compare by digest.
        assert_eq!(Digest::new().finish(), 0xCBF2_9CE4_8422_2325);
        assert_eq!(
            Digest::new().u64(1).f64(0.5).str("pi2").finish(),
            0x5121_9A37_B46E_C62F
        );
    }

    #[test]
    fn digest_sees_order_sign_and_length() {
        let ab = Digest::new().u64(1).u64(2).finish();
        let ba = Digest::new().u64(2).u64(1).finish();
        assert_ne!(ab, ba);
        assert_ne!(
            Digest::new().f64(0.0).finish(),
            Digest::new().f64(-0.0).finish()
        );
        assert_ne!(
            Digest::new().str("ab").str("").finish(),
            Digest::new().str("a").str("b").finish()
        );
    }
}
