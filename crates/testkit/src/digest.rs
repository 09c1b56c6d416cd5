//! Stable digests of run statistics for the golden-trace determinism
//! suite.
//!
//! [`Digest`] is FNV-1a (64-bit) with typed, length-framed write methods:
//! two runs that feed the same sequence of typed values produce the same
//! digest, and any divergence — one extra counter, one float a ULP off —
//! changes it. Crates digest their stats structs (`ConnStats`,
//! `RunResult`, …) into a single `u64` that determinism tests compare
//! across runs with identical seeds.
//!
//! FNV is not cryptographic; it is stable, dependency-free, and plenty to
//! detect nondeterminism.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` (wrapping) for `k = 0..=8`: what a run of `k` zero bytes
/// multiplies the state by.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// An incremental FNV-1a digest over typed values.
#[derive(Debug, Clone)]
pub struct Digest {
    state: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// Fresh digest.
    pub fn new() -> Self {
        Digest { state: FNV_OFFSET }
    }

    /// Feed raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feed the low `width` little-endian bytes of `v` (everything above
    /// them must be zero). Equal to `write_bytes` on those bytes by
    /// construction: a zero byte's FNV-1a step is `state * P`, so the
    /// zero bytes below the lowest and above the highest non-zero byte
    /// are one multiply by a power of `P` each, and only the span between
    /// them walks the serial xor-multiply chain. Times, counters and
    /// small-integer floats are mostly zero bytes.
    #[inline]
    fn write_le(&mut self, v: u64, width: usize) -> &mut Self {
        debug_assert!(width == 8 || v >> (8 * width) == 0);
        if v == 0 {
            self.state = self.state.wrapping_mul(PRIME_POW[width]);
            return self;
        }
        let lo = (v.trailing_zeros() / 8) as usize;
        let hi = ((63 - v.leading_zeros()) / 8) as usize;
        let mut state = self.state.wrapping_mul(PRIME_POW[lo]);
        let mut rest = v >> (8 * lo);
        for _ in lo..=hi {
            state = (state ^ (rest & 0xff)).wrapping_mul(FNV_PRIME);
            rest >>= 8;
        }
        self.state = state.wrapping_mul(PRIME_POW[width - 1 - hi]);
        self
    }

    /// Feed a `u64` (little-endian framed).
    #[inline]
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_le(v, 8)
    }

    /// Feed a `u32`.
    #[inline]
    pub fn write_u32(&mut self, v: u32) -> &mut Self {
        self.write_le(u64::from(v), 4)
    }

    /// Feed an `i64`.
    pub fn write_i64(&mut self, v: i64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Feed a `usize` (widened to `u64` so 32/64-bit hosts agree).
    #[inline]
    pub fn write_usize(&mut self, v: usize) -> &mut Self {
        self.write_u64(v as u64)
    }

    /// Feed an `f64` by exact bit pattern (NaN-sensitive on purpose: a
    /// NaN appearing in stats is itself a determinism bug worth catching).
    #[inline]
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Feed a bool.
    pub fn write_bool(&mut self, v: bool) -> &mut Self {
        self.write_bytes(&[u8::from(v)])
    }

    /// Feed a length-prefixed string.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes())
    }

    /// Current digest value.
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// Digest as a fixed-width hex string (handy in assertions and logs).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.state)
    }
}

/// A block of `u64` counters that a run digests, sums and merges.
///
/// The one required method is the list; the digest fold, the sum and the
/// merge across racks derive from it, so a block names its counters once.
/// [`Counters::counters_mut`] is written with [`counters!`](crate::counters), which
/// destructures the block exhaustively, so a field added to the block and
/// left off the list is a compile error.
pub trait Counters: Copy {
    /// Every counter, in declaration order. A running maximum is skipped
    /// here and listed by [`Counters::maxima_mut`].
    fn counters_mut(&mut self) -> impl IntoIterator<Item = &mut u64>;

    /// Every running maximum (none by default): digested after the
    /// counters, merged by taking the larger, and not summed.
    fn maxima_mut(&mut self) -> impl IntoIterator<Item = &mut u64> {
        []
    }

    /// Feed every counter, then every maximum, into `d`.
    fn write_digest(&self, d: &mut Digest) {
        let mut copy = *self;
        for v in copy.counters_mut() {
            d.write_u64(*v);
        }
        for v in copy.maxima_mut() {
            d.write_u64(*v);
        }
    }

    /// One-shot digest of the block.
    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        self.write_digest(&mut d);
        d.finish()
    }

    /// Sum of the counters (a maximum is not an event count).
    fn sum(&self) -> u64 {
        let mut copy = *self;
        copy.counters_mut().into_iter().map(|v| *v).sum()
    }

    /// Fold in `other`: counters add, maxima keep the larger.
    fn merge(&mut self, mut other: Self) {
        for (sum, v) in self.counters_mut().into_iter().zip(other.counters_mut()) {
            *sum += *v;
        }
        for (max, v) in self.maxima_mut().into_iter().zip(other.maxima_mut()) {
            *max = (*max).max(*v);
        }
    }
}

/// The body of a [`Counters::counters_mut`]: `counters!(self, Block { a,
/// b } skip { c })` destructures `self` exhaustively and returns `[a, b]`,
/// each counter named once. Fields after `skip` (a running maximum, a
/// field that names the record) are bound `_`, so a field named nowhere
/// is a compile error. Inside a macro rustc words it "pattern requires
/// `..` due to inaccessible fields": list the field; a `..` here would
/// let every block drop counters unseen.
#[macro_export]
macro_rules! counters {
    ($block:expr, $t:ident { $($c:ident),+ $(,)? } $(skip { $($s:ident),+ $(,)? })?) => {{
        let $t { $($c,)+ $($($s: _,)+)? } = $block;
        [$($c),+]
    }};
}

/// One-shot digest of a byte slice.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.write_bytes(bytes);
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(digest_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest_bytes(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn typed_writes_equal_their_le_bytes() {
        // The zero-run shortcut against the plain byte walk, over values
        // of every shape: all-zero, low bytes only, high bytes only,
        // interior zero bytes, and dense ones — each from a running state,
        // so an error in one write would carry into every later one.
        let mut rng = crate::TkRng::new(0xD16E57);
        let (mut fast, mut slow) = (Digest::new(), Digest::new());
        let mut check = |v: u64, shift: u64| {
            fast.write_u64(v);
            slow.write_bytes(&v.to_le_bytes());
            fast.write_u32(v as u32);
            slow.write_bytes(&(v as u32).to_le_bytes());
            fast.write_usize(v as usize);
            slow.write_bytes(&(v as usize as u64).to_le_bytes());
            let f = (v >> shift) as f64;
            fast.write_f64(f).write_f64(f64::from_bits(v));
            slow.write_bytes(&f.to_bits().to_le_bytes());
            slow.write_bytes(&v.to_le_bytes());
            assert_eq!(fast.finish(), slow.finish(), "diverged at {v:#018x}");
        };
        for v in [0, 1, 0xff, 0x100, 1 << 56, u64::MAX, 0xff00_0000_0000_00ff] {
            check(v, 0);
        }
        for _ in 0..100_000 {
            let raw = rng.next_u64();
            // Keep a random subset of the bytes, then a random magnitude.
            let keep = (0..8).fold(0u64, |m, b| {
                m | if rng.next_below(2) == 0 { 0xff << (8 * b) } else { 0 }
            });
            let shift = rng.next_below(64);
            check(raw & keep, shift);
            check(raw >> shift, shift);
            check(raw << shift, 63 - shift);
        }
    }

    #[test]
    fn typed_writes_are_order_sensitive() {
        let mut a = Digest::new();
        a.write_u64(1).write_u64(2);
        let mut b = Digest::new();
        b.write_u64(2).write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn identical_sequences_agree() {
        let build = || {
            let mut d = Digest::new();
            d.write_str("seq")
                .write_u64(42)
                .write_f64(0.25)
                .write_bool(true);
            d.finish()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn f64_bit_exact() {
        let mut a = Digest::new();
        a.write_f64(0.1 + 0.2);
        let mut b = Digest::new();
        b.write_f64(0.3);
        // 0.1 + 0.2 != 0.3 in f64; the digest must see the difference.
        assert_ne!(a.finish(), b.finish());
    }

    /// Two counters and a peak.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Block {
        a: u64,
        b: u64,
        peak: u64,
    }
    impl Counters for Block {
        fn counters_mut(&mut self) -> impl IntoIterator<Item = &mut u64> {
            counters!(self, Block { a, b } skip { peak })
        }
        fn maxima_mut(&mut self) -> impl IntoIterator<Item = &mut u64> {
            [&mut self.peak]
        }
    }

    #[test]
    fn counters_derive_fold_sum_and_merge_from_the_list() {
        let block = |a, b, peak| Block { a, b, peak };
        let mut x = block(1, 2, 9);
        assert_eq!(x.digest(), Digest::new().write_u64(1).write_u64(2).write_u64(9).finish());
        assert_eq!(x.sum(), 3, "a maximum is not summed");
        x.merge(block(10, 20, 4));
        assert_eq!(x, block(11, 22, 9));
        x.merge(block(0, 0, 12));
        assert_eq!(x.peak, 12);
    }

    #[test]
    fn hex_is_16_chars() {
        assert_eq!(Digest::new().hex().len(), 16);
    }
}
