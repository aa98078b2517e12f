//! The crate's random stream, reproduction data (see the crate docs): the
//! unit tests below pin its first words and draws.

use std::ops::RangeInclusive;

/// Deterministic xoshiro256\*\* generator, seeded by SplitMix64.
///
/// Only the draws the workspace makes are offered: raw words, an integer
/// range, a unit `f64`, a Bernoulli trial and a Fisher–Yates shuffle.
///
/// # Examples
///
/// ```
/// use kairos_appgen::Xoshiro256;
///
/// let mut a = Xoshiro256::new(7);
/// let mut b = Xoshiro256::new(7);
/// assert_eq!(a.gen_range(1..=6), b.gen_range(1..=6));
/// assert!((0.0..1.0).contains(&a.next_f64()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    state: [u64; 4],
}

impl Xoshiro256 {
    /// A generator whose stream is a pure function of `seed`: four
    /// SplitMix64 outputs fill the state.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        Xoshiro256 { state: [next(), next(), next(), next()] }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A draw from `range`: its start plus one word modulo its width.
    /// Panics when the range is empty or spans all of `u64`.
    pub fn gen_range(&mut self, range: RangeInclusive<u64>) -> u64 {
        let (lo, hi) = range.into_inner();
        let span = hi.checked_sub(lo).and_then(|w| w.checked_add(1));
        lo + self.next_u64() % span.expect("a non-empty range narrower than u64")
    }

    /// A draw from `[0, 1)`: the top 53 bits of one word.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli trial that succeeds with probability `p`. Panics when
    /// `p` lies outside `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability out of range");
        self.next_f64() < p
    }

    /// Fisher–Yates: from the back, each slot swaps with a draw from the
    /// slots up to and including it.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..=i as u64) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Xoshiro256;

    /// Each seed's stream, recorded from the `rand` stand-in this generator
    /// replaced: 16 raw words of a fresh generator; then, from a second
    /// fresh one, 16 draws each of `10..=2000`, `0..u64::MAX`, `[0, 1)` and
    /// `gen_bool(0.3)` (as 0/1), and one shuffle of `0..10`.
    const PINS: [(u64, &str); 2] = [
        (
            2010,
            "d219d993c72cdbe5 d20ba434b8371770 84d4922d8d1820f5 b23dbc8e543e4f53 \
             79e8ee1e9f1be04f 38b9edac823acd6f 5d80186f138af255 2f3d60655fabc76c \
             508b3258c795c2a8 a06ac330f037de74 5b5956da7a9350d3 a56035b46246833c \
             37040f97e7cde578 db8ceccff4633919 a14df09988ba2b4c 32d80c6cb3e11fe2 \
             | 1867 1041 1959 604 1940 1472 745 733 1082 694 1600 1456 510 1449 910 710 \
             | 2526842378343182714 866756926505054000 615531203038541505 7213138457746876462 \
             16504201125230974505 8397042573898649406 12654085884424441125 16232817018245445816 \
             17475540453323563765 731081163811245070 1257986941444208173 6490179308818265830 \
             18414652439724600812 16326089984765337494 8792107341409229323 16911162020400664795 \
             | 0.2842678210700912 0.13258825754759995 0.38746800691855465 0.7750883427551195 \
             0.16610826242310994 0.9451133737312463 0.042426680877840295 0.32101835245372035 \
             0.6491087748699267 0.2618782027842751 0.816149181542327 0.9308709639185069 \
             0.043584818369295286 0.28577949065489516 0.30406665517968534 0.2594623937580186 \
             | 0 1 0 0 0 0 0 0 0 0 0 1 1 0 1 0 | 6 9 5 4 3 8 7 2 0 1",
        ),
        (
            77,
            "7075f9263cea6413 3a18ddc129890628 94ce2caa75f79b2e f5a78dd5e5d6f62d \
             79eda3c18f20c7cc 2cad1b5c3ee30d92 1173196fe654d136 a7d7246c321445d3 \
             8d4ee2fe5cf02cdb 6899fe9aba91ed24 f5825271afc8b656 213d0486769f1043 \
             424abf79543e78ba 12e6013ebc254dd3 a8dcaa27f0411823 711b38f56152635f \
             | 392 475 1339 17 501 1152 1991 966 424 1341 1001 31 1815 923 1155 1669 \
             | 3298612282162866048 5759753493238067991 6485851290448887020 5514520956726420589 \
             7109947287623940590 3097718489089186887 10577999752269433877 13962528752286041876 \
             5054824826335186964 1859701295773333093 17392117948805168609 11996385128734803075 \
             16700216648990011164 9429070294078133539 18076589160943932594 16982770934620387373 \
             | 0.04502209117119249 0.9049568069253738 0.03456753538809032 0.2898967660737477 \
             0.5768835164835754 0.6589193700288029 0.8638286624013374 0.9185302393744254 \
             0.6566953902049144 0.9004442520657799 0.28799980630794164 0.3551313522815156 \
             0.06140554280264321 0.25149686925875314 0.8435807346759288 0.06382088465893831 \
             | 0 0 1 0 1 0 0 1 1 1 1 0 0 0 0 0 | 7 3 4 0 2 9 6 8 1 5",
        ),
    ];

    /// The stream of `seed`, drawn in the order [`PINS`] records it.
    fn render(seed: u64) -> String {
        let mut rng = Xoshiro256::new(seed);
        let mut out: Vec<String> = (0..16).map(|_| format!("{:016x}", rng.next_u64())).collect();
        let mut rng = Xoshiro256::new(seed);
        out.push("|".into());
        out.extend((0..16).map(|_| rng.gen_range(10..=2000).to_string()));
        out.push("|".into());
        out.extend((0..16).map(|_| rng.gen_range(0..=u64::MAX - 1).to_string()));
        out.push("|".into());
        out.extend((0..16).map(|_| rng.next_f64().to_string()));
        out.push("|".into());
        out.extend((0..16).map(|_| u8::from(rng.gen_bool(0.3)).to_string()));
        let mut order: Vec<u32> = (0..10).collect();
        rng.shuffle(&mut order);
        out.push("|".into());
        out.extend(order.iter().map(u32::to_string));
        out.join(" ")
    }

    #[test]
    fn the_stream_is_pinned_for_two_seeds() {
        for (seed, pin) in PINS {
            assert_eq!(render(seed), pin.split_whitespace().collect::<Vec<_>>().join(" "));
        }
    }

    #[test]
    fn ranges_stay_in_bounds_and_certain_trials_are_certain() {
        let mut rng = Xoshiro256::new(1);
        for _ in 0..1000 {
            assert!((10..=20).contains(&rng.gen_range(10..=20)));
            assert_eq!(rng.gen_range(5..=5), 5);
        }
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
