//! The workspace's dependency-free 128-bit structural hasher.
//!
//! Two keys are built on it: the per-record digests behind
//! [`Platform::state_stamp`](crate::Platform::state_stamp) and the shape
//! hash an application computes once when it is built. Both are compared
//! whole, feed nothing but equality tests, and are never persisted, so the
//! function is free to change between versions.

/// A 128-bit multiply–fold hasher over `u64` words.
///
/// Each [`Digest::word`] xors the word into the state, multiplies by an odd
/// 128-bit constant and folds the high half onto the low half — a bijection
/// of the state for every input word, so no step loses entropy, and two
/// steps carry every input bit to every state bit. It is not keyed and not
/// collision-resistant against an adversary; it hashes state the manager
/// itself produced.
///
/// # Examples
///
/// ```
/// use kairos_platform::Digest;
///
/// let digest = |words: &[u64]| {
///     let mut d = Digest::new(7);
///     words.iter().for_each(|&w| d.word(w));
///     d.finish()
/// };
/// assert_eq!(digest(&[1, 2]), digest(&[1, 2]));
/// assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Digest(u128);

/// The 128-bit FNV offset basis: an arbitrary non-zero start state.
const SEED: u128 = 0x6c62272e07bb014262b821756295c58d;
/// The multiplier of PCG's 128-bit generator: odd, with good spectral
/// properties.
const MULTIPLIER: u128 = 0x2360ED051FC65DA44385DF649FCCF645;

impl Digest {
    /// A fresh hasher for the given domain: digests of equal word
    /// sequences under different domains differ.
    pub fn new(domain: u64) -> Self {
        let mut digest = Digest(SEED);
        digest.word(domain);
        digest
    }

    /// Absorbs one word.
    #[inline]
    pub fn word(&mut self, word: u64) {
        let mixed = (self.0 ^ u128::from(word)).wrapping_mul(MULTIPLIER);
        self.0 = mixed ^ (mixed >> 64);
    }

    /// Absorbs a string: its length, then its bytes eight to a word.
    pub fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut bytes = [0u8; 8];
            bytes[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(bytes));
        }
    }

    /// The digest of everything absorbed, after one more mixing round so
    /// the last word reaches the high half too.
    pub fn finish(mut self) -> u128 {
        self.word(0);
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(domain: u64, words: &[u64]) -> u128 {
        let mut d = Digest::new(domain);
        words.iter().for_each(|&w| d.word(w));
        d.finish()
    }

    #[test]
    fn order_length_and_domain_all_count() {
        assert_eq!(of(0, &[1, 2, 3]), of(0, &[1, 2, 3]));
        assert_ne!(of(0, &[1, 2, 3]), of(0, &[3, 2, 1]));
        assert_ne!(of(0, &[1, 2]), of(0, &[1, 2, 0]));
        assert_ne!(of(0, &[1, 2]), of(1, &[1, 2]));
    }

    #[test]
    fn single_bit_flips_reach_both_halves() {
        let base = of(0, &[0, 0]);
        for bit in 0..64 {
            let flipped = of(0, &[1 << bit, 0]) ^ base;
            assert_ne!(flipped as u64, 0, "bit {bit} never reached the low half");
            assert_ne!((flipped >> 64) as u64, 0, "bit {bit} never reached the high half");
            let last = of(0, &[0, 1 << bit]) ^ base;
            assert_ne!(last as u64, 0, "last-word bit {bit} never reached the low half");
            assert_ne!((last >> 64) as u64, 0, "last-word bit {bit} never reached the high half");
        }
    }

    #[test]
    fn strings_hash_by_length_and_content() {
        let of_str = |s: &str| {
            let mut d = Digest::new(0);
            d.str(s);
            d.finish()
        };
        assert_eq!(of_str("mixer"), of_str("mixer"));
        assert_ne!(of_str("mixer"), of_str("mixes"));
        assert_ne!(of_str("ab"), of_str("ab\0"), "padding does not hide a trailing NUL");
        assert_ne!(of_str("abcdefgh"), of_str("abcdefghi"));
    }
}
