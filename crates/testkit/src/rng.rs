//! Deterministic pseudo-random number generation.
//!
//! [`TkRng`] is xoshiro256++ (Blackman & Vigna, public domain) with its
//! 256-bit state expanded from a 64-bit seed by SplitMix64 — the standard
//! seeding recipe. It is not cryptographic; it is fast, has a 2^256 - 1
//! period, and passes BigCrush, which is everything a simulator needs.
//!
//! The golden-value tests at the bottom pin the output streams for several
//! seeds. If any implementation detail changes the stream, those tests
//! fail loudly — deterministic replay (regression seeds, golden traces)
//! depends on the stream never drifting silently.

use std::ops::{Range, RangeInclusive};

/// SplitMix64 step: advances `state` and returns the next output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix `(seed, label)` into a decorrelated child seed (SplitMix64-style).
#[inline]
pub fn mix_label(seed: u64, label: u64) -> u64 {
    let mut z = seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, explicitly seeded xoshiro256++ generator.
#[derive(Clone)]
pub struct TkRng {
    s: [u64; 4],
    seed: u64,
}

impl TkRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        TkRng { s, seed }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent child generator; `label` decorrelates children
    /// created from the same parent seed (e.g. one stream per flow).
    pub fn fork(&self, label: u64) -> TkRng {
        TkRng::new(mix_label(self.seed, label))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Unbiased uniform sample in `[0, n)`; `n` must be nonzero.
    /// Uses rejection sampling so every value is exactly equally likely.
    /// Inlined across crates so a constant `n` folds the threshold and
    /// strength-reduces both modulos.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0)");
        // 2^64 mod n: values >= this threshold fill complete buckets.
        let threshold = n.wrapping_neg() % n;
        loop {
            let r = self.next_u64();
            if r >= threshold {
                return r % n;
            }
        }
    }

    /// Uniform sample from an integer or float range, e.g.
    /// `rng.gen_range(0..300u64)` or `rng.gen_range(0.5..=1.5)`.
    #[inline]
    pub fn gen_range<T, R: UniformRange<T>>(&mut self, range: R) -> T {
        range.sample_in(self)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.gen_f64() < p
    }

    /// Exponentially distributed sample with the given mean (used for
    /// Poisson inter-arrival cross traffic).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // 1 - U is in (0, 1], so ln() is finite and the result nonnegative.
        let u = 1.0 - self.gen_f64();
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

impl std::fmt::Debug for TkRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TkRng").field("seed", &self.seed).finish()
    }
}

/// Ranges a [`TkRng`] can sample uniformly: `Range` and `RangeInclusive`
/// over the primitive integers, plus `Range<f64>`.
pub trait UniformRange<T> {
    /// Draw one uniform sample from `rng` within this range.
    fn sample_in(self, rng: &mut TkRng) -> T;
}

macro_rules! impl_uniform_uint {
    ($($t:ty),*) => {$(
        impl UniformRange<$t> for Range<$t> {
            #[inline]
            fn sample_in(self, rng: &mut TkRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.next_below(span) as $t
            }
        }
        impl UniformRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_in(self, rng: &mut TkRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.next_below(span + 1) as $t
            }
        }
    )*};
}
impl_uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformRange<$t> for Range<$t> {
            #[inline]
            fn sample_in(self, rng: &mut TkRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                self.start.wrapping_add(rng.next_below(span) as $t)
            }
        }
        impl UniformRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_in(self, rng: &mut TkRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.next_below(span + 1) as $t)
            }
        }
    )*};
}
impl_uniform_int!(i8, i16, i32, i64);

impl UniformRange<f64> for Range<f64> {
    #[inline]
    fn sample_in(self, rng: &mut TkRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        let v = self.start + rng.gen_f64() * (self.end - self.start);
        // Guard against rounding up to the excluded endpoint.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // ------------------------------------------------------------------
    // Golden-value tests: these pin the exact output streams. They were
    // captured from this implementation and must NEVER be updated casually
    // — a change here means every seeded run in the repo replays
    // differently.
    // ------------------------------------------------------------------

    #[test]
    fn golden_stream_seed_0() {
        let mut r = TkRng::new(0);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                0x53175d61490b23df,
                0x61da6f3dc380d507,
                0x5c0fdf91ec9a7bfc,
                0x02eebf8c3bbe5e1a,
            ]
        );
    }

    #[test]
    fn golden_stream_seed_1() {
        let mut r = TkRng::new(1);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                0xcfc5d07f6f03c29b,
                0xbf424132963fe08d,
                0x19a37d5757aaf520,
                0xbf08119f05cd56d6,
            ]
        );
    }

    #[test]
    fn golden_stream_seed_42() {
        let mut r = TkRng::new(42);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                0xd0764d4f4476689f,
                0x519e4174576f3791,
                0xfbe07cfb0c24ed8c,
                0xb37d9f600cd835b8,
            ]
        );
    }

    #[test]
    fn golden_derived_values() {
        let mut r = TkRng::new(7);
        assert_eq!(r.gen_range(0..1000u64), 661);
        assert_eq!(r.gen_range(0..=u64::MAX), 0x2c0fc8ddfa4e9e14);
        let f = r.gen_f64();
        assert_eq!(f.to_bits(), 0x3fe6f66236761a8b);
    }

    // ------------------------------------------------------------------
    // Behavioural tests.
    // ------------------------------------------------------------------

    #[test]
    fn same_seed_same_stream() {
        let mut a = TkRng::new(42);
        let mut b = TkRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = TkRng::new(1);
        let mut b = TkRng::new(2);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn fork_is_deterministic_and_decorrelated() {
        let parent = TkRng::new(7);
        let mut c1 = parent.fork(0);
        let mut c1b = parent.fork(0);
        let mut c2 = parent.fork(1);
        let a: Vec<u64> = (0..8).map(|_| c1.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| c1b.next_u64()).collect();
        let c: Vec<u64> = (0..8).map(|_| c2.next_u64()).collect();
        assert_eq!(a, b, "same label forks identically");
        assert_ne!(a, c, "different labels decorrelate");
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = TkRng::new(3);
        for _ in 0..10_000 {
            let v = r.gen_range(10..20u32);
            assert!((10..20).contains(&v));
            let w = r.gen_range(-5..=5i32);
            assert!((-5..=5).contains(&w));
            let f = r.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn full_u64_range_supported() {
        let mut r = TkRng::new(11);
        // Must not overflow or hang.
        let _ = r.gen_range(0..u64::MAX);
        let _ = r.gen_range(0..=u64::MAX);
        let _ = r.gen_range(i64::MIN..=i64::MAX);
    }

    #[test]
    fn gen_f64_unit_interval() {
        let mut r = TkRng::new(5);
        for _ in 0..10_000 {
            let f = r.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn exponential_mean_roughly_correct() {
        let mut r = TkRng::new(3);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < 0.2,
            "sample mean {sample_mean} too far from {mean}"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut r = TkRng::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = TkRng::new(17);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>(), "50 elements should move");
    }

    #[test]
    fn shuffle_deterministic() {
        let mut a = TkRng::new(11);
        let mut b = TkRng::new(11);
        let mut xs: Vec<u32> = (0..20).collect();
        let mut ys: Vec<u32> = (0..20).collect();
        a.shuffle(&mut xs);
        b.shuffle(&mut ys);
        assert_eq!(xs, ys);
    }

    #[test]
    fn next_below_unbiased_small() {
        // Chi-square-ish sanity: each bucket of 0..8 within 5% of uniform.
        let mut r = TkRng::new(29);
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[r.next_below(8) as usize] += 1;
        }
        for c in counts {
            let frac = f64::from(c) / f64::from(n);
            assert!((frac - 0.125).abs() < 0.01, "bucket fraction {frac}");
        }
    }
}
