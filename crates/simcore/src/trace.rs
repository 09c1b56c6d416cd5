//! Time-series tracing for the figure harness.
//!
//! Every figure in the paper is either a time series (sequence graphs,
//! VOQ occupancy) or a CDF. [`TimeSeries`] records `(time, value)` points
//! at one 64-bit word a point — the fixed-width form of Gorilla's delta
//! coding (Pelkonen et al., VLDB 2015) — because the two-rack door
//! records them at every VOQ change and every sample interval, and they
//! are most of a run's memory.
//!
//! - **Word.** The high 40 bits hold the gap to the previous point in ns,
//!   the low 24 bits the zigzag-coded difference of two values that are
//!   exact integers (queue lengths and acknowledged bytes always are).
//! - **Escape.** A point that does not fit — a fraction, NaN, ±∞, −0.0,
//!   |v| ≥ 2^53, a 24-bit overflow or a gap of 2^40 − 1 ns or more — is
//!   `ESCAPE` followed by its raw time and raw `f64` bits. No word
//!   equals `ESCAPE` (its gap field is one no word may hold), so every
//!   point reads back bit for bit.
//! - **Chunks.** Words live in chunks of `CHUNK` words (64 KiB, below
//!   glibc's mmap threshold, so the next run's series reuse the freed
//!   ones); a point never straddles two. The first chunk starts at
//!   `FIRST_CAP` words and grows by doubling, so a three-point series
//!   stays small.
//! - **Checkpoints.** Every chunk's first point and every `MARK`-th
//!   after it is a checkpoint: its absolute time is kept beside the
//!   words, and its word codes its value against zero instead of the
//!   previous point. `value_at` binary-searches the checkpoints and
//!   decodes at most `MARK` points from one. The first checkpoint's
//!   time is a field, and the chunk being written sits in the series
//!   itself, so a series of fewer than `MARK` points makes one
//!   allocation and a push touches what a `Vec` push touches.

use crate::time::SimTime;
use testkit::Digest;

/// Words per chunk: 8192 × 8 B = 64 KiB.
const CHUNK: usize = 1 << CHUNK_BITS;
const CHUNK_BITS: u32 = 13;
/// Words the first chunk starts with; it doubles up to `CHUNK`.
const FIRST_CAP: usize = 32;
/// A checkpoint every this many points of a chunk.
const MARK: usize = 256;
/// Bits of a word holding the value difference.
const VALUE_BITS: u32 = 24;
const VALUE_MASK: u64 = (1 << VALUE_BITS) - 1;
/// The escape word: its gap field, 2^40 − 1, is one no packed word holds.
const ESCAPE: u64 = u64::MAX;
const GAP_LIMIT: u64 = ESCAPE >> VALUE_BITS;
/// `v` as an integer, if it is one that reads back bit for bit: below
/// 2^53 in magnitude (so sums of two read back exactly) and not −0.0.
fn exact_int(v: f64) -> Option<i64> {
    let i = v as i64;
    let exact = i as f64 == v && i.unsigned_abs() < 1 << 53 && (i != 0 || v.is_sign_positive());
    exact.then_some(i)
}

/// The word for a point `gap` ns after the previous one, with value `v`
/// coded against `base`, if it fits one.
fn pack(gap: u64, base: Option<i64>, v: Option<i64>) -> Option<u64> {
    let delta = v? - base?;
    let zigzag = ((delta << 1) ^ (delta >> 63)) as u64;
    (gap < GAP_LIMIT && zigzag <= VALUE_MASK).then_some(gap << VALUE_BITS | zigzag)
}

/// A named series of `(time, value)` samples, non-decreasing in time.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    /// Display name, e.g. `"tdtcp"` or `"voq_len"`.
    pub name: String,
    /// The chunks before the last, each full.
    full: Vec<Vec<u64>>,
    /// The last chunk, which `push` writes to.
    tail: Vec<u64>,
    /// The first point's time: the first checkpoint's, which starts at
    /// word 0. Kept apart so a series shorter than `MARK` points
    /// allocates for its words only.
    first_t: SimTime,
    /// Every later checkpoint's absolute time and the word it starts at,
    /// `chunk << CHUNK_BITS | word`.
    mark_t: Vec<SimTime>,
    mark_at: Vec<u32>,
    len: usize,
    /// Points in the last chunk.
    chunk_points: usize,
    /// The last point's time in ns and value, and the value as an
    /// integer if it is one: what the next word is coded against.
    last_t: u64,
    last_v: f64,
    last_int: Option<i64>,
}

impl TimeSeries {
    /// New, empty series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            full: Vec::new(),
            tail: Vec::new(),
            first_t: SimTime::ZERO,
            mark_t: Vec::new(),
            mark_at: Vec::new(),
            len: 0,
            chunk_points: 0,
            last_t: 0,
            last_v: 0.0,
            last_int: None,
        }
    }

    /// Record a sample. Time must be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: f64) {
        let ns = t.as_nanos();
        debug_assert!(
            self.is_empty() || ns >= self.last_t,
            "time series {} went backwards",
            self.name
        );
        let int = exact_int(v);
        let mark = self.chunk_points.is_multiple_of(MARK);
        let word = if mark {
            None
        } else {
            pack(ns.wrapping_sub(self.last_t), self.last_int, int)
        };
        // Most points are one packed word in a chunk with room for it.
        match word {
            Some(w) if self.tail.len() < CHUNK => self.tail.push(w),
            _ => self.push_words(t, v, int),
        }
        self.chunk_points += 1;
        self.len += 1;
        (self.last_t, self.last_v, self.last_int) = (ns, v, int);
    }

    /// Write a point that is a checkpoint, escapes, or opens a chunk.
    fn push_words(&mut self, t: SimTime, v: f64, int: Option<i64>) {
        let ns = t.as_nanos();
        // A checkpoint's time is kept beside the words: its gap field is 0.
        let code = |mark: bool| {
            if mark {
                pack(0, Some(0), int)
            } else {
                pack(ns.wrapping_sub(self.last_t), self.last_int, int)
            }
        };
        let mut mark = self.chunk_points.is_multiple_of(MARK);
        let mut word = code(mark);
        let need = if word.is_some() { 1 } else { 3 };
        if self.len == 0 {
            self.tail.reserve_exact(FIRST_CAP);
        } else if self.tail.len() + need > CHUNK {
            let full = std::mem::replace(&mut self.tail, Vec::with_capacity(CHUNK));
            self.full.push(full);
            self.chunk_points = 0;
            if !mark {
                mark = true;
                word = code(true);
            }
        }
        let words = &mut self.tail;
        if mark {
            let at = self.full.len() << CHUNK_BITS | words.len();
            if self.len == 0 {
                self.first_t = t;
            } else {
                self.mark_t.push(t);
                self.mark_at
                    .push(u32::try_from(at).expect("a series holds under 2^32 words"));
            }
        }
        match word {
            Some(w) => words.push(w),
            None => words.extend([ESCAPE, ns, v.to_bits()]),
        }
    }

    /// Every sample, in push order.
    pub fn points(&self) -> Points<'_> {
        Points {
            s: self,
            next_mark: 0,
            words: &[],
            at: Cursor::checkpoint(SimTime::ZERO),
            left: self.len,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Last recorded value, if any.
    pub fn last_value(&self) -> Option<f64> {
        (!self.is_empty()).then_some(self.last_v)
    }

    /// Step-function value at time `t`: the most recent sample at or before
    /// `t` (the last pushed, among samples at one time), or `default` if
    /// none exists yet.
    pub fn value_at(&self, t: SimTime, default: f64) -> f64 {
        if self.is_empty() || self.first_t > t {
            return default;
        }
        // The last checkpoint at or before `t` (the first point is
        // checkpoint 0); the next one is past `t`, so the answer is in
        // this checkpoint's run.
        let m = self.mark_t.partition_point(|&mt| mt <= t);
        let (words, mut at) = self.run(m);
        let mut i = 0;
        while let Some((next, after)) = at.read(words, i) {
            if next.now > t.as_nanos() {
                break;
            }
            (at, i) = (next, after);
        }
        at.value()
    }

    /// Fold the series into `d`: its length, then each point's time in ns
    /// and value bits. The pinned series digests frame a series this
    /// way.
    pub fn write_digest(&self, d: &mut Digest) {
        d.write_usize(self.len);
        for (t, v) in self.points() {
            d.write_u64(t.as_nanos()).write_f64(v);
        }
    }

    /// Checkpoint `m`'s run — its word and those of the points before the
    /// next checkpoint — and where reading it starts.
    fn run(&self, m: usize) -> (&[u64], Cursor) {
        let (at, start) = match m.checked_sub(1) {
            None => (0, self.first_t),
            Some(k) => (self.mark_at[k] as usize, self.mark_t[k]),
        };
        let (chunk, from) = (at >> CHUNK_BITS, at & (CHUNK - 1));
        let words = self.full.get(chunk).unwrap_or(&self.tail);
        let to = match self.mark_at.get(m) {
            Some(&next) if next as usize >> CHUNK_BITS == chunk => next as usize & (CHUNK - 1),
            _ => words.len(),
        };
        (&words[from..to], Cursor::checkpoint(start))
    }
}

/// Where reading a run stands: the last point read's time in ns and its
/// value — `raw` if that point was an escape, else `int`. Packed values
/// stay integers between escapes, which keeps `value_at`'s loop free of
/// float conversions.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    now: u64,
    int: i64,
    raw: Option<f64>,
}

impl Cursor {
    /// Before a checkpoint at `t`: its word's zero gap lands on `t`, and
    /// its value is coded against zero.
    fn checkpoint(t: SimTime) -> Cursor {
        Cursor {
            now: t.as_nanos(),
            int: 0,
            raw: None,
        }
    }

    /// The point at `words[i]`, and the index after it.
    #[inline]
    fn read(self, words: &[u64], i: usize) -> Option<(Cursor, usize)> {
        let w = *words.get(i)?;
        if w == ESCAPE {
            let v = f64::from_bits(words[i + 2]);
            let point = Cursor {
                now: words[i + 1],
                int: v as i64,
                raw: Some(v),
            };
            return Some((point, i + 3));
        }
        let zigzag = (w & VALUE_MASK) as i64;
        let point = Cursor {
            now: self.now.wrapping_add(w >> VALUE_BITS),
            int: self.int + ((zigzag >> 1) ^ -(zigzag & 1)),
            raw: None,
        };
        Some((point, i + 1))
    }

    fn value(self) -> f64 {
        self.raw.unwrap_or(self.int as f64)
    }
}

/// The points of a [`TimeSeries`], in push order.
#[derive(Debug, Clone)]
pub struct Points<'a> {
    s: &'a TimeSeries,
    /// The checkpoint whose run is read after `words`.
    next_mark: usize,
    /// What is left of the current run.
    words: &'a [u64],
    at: Cursor,
    left: usize,
}

impl Iterator for Points<'_> {
    type Item = (SimTime, f64);

    fn next(&mut self) -> Option<(SimTime, f64)> {
        self.left = self.left.checked_sub(1)?;
        if self.words.is_empty() {
            (self.words, self.at) = self.s.run(self.next_mark);
            self.next_mark += 1;
        }
        let after;
        (self.at, after) = self.at.read(self.words, 0)?;
        self.words = &self.words[after..];
        Some((SimTime::from_nanos(self.at.now), self.at.value()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Points<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: u64) -> SimTime {
        SimTime::from_micros(x)
    }

    #[test]
    fn value_at_step_semantics() {
        let mut s = TimeSeries::new("s");
        s.push(us(10), 1.0);
        s.push(us(20), 2.0);
        assert_eq!(s.value_at(us(5), 0.0), 0.0);
        assert_eq!(s.value_at(us(10), 0.0), 1.0);
        assert_eq!(s.value_at(us(15), 0.0), 1.0);
        assert_eq!(s.value_at(us(20), 0.0), 2.0);
        assert_eq!(s.value_at(us(99), 0.0), 2.0);
        assert_eq!(s.last_value(), Some(2.0));
    }

    #[test]
    fn empty_series_defaults() {
        let s = TimeSeries::new("e");
        assert!(s.is_empty());
        assert_eq!(s.value_at(us(5), 42.0), 42.0);
        assert_eq!(s.last_value(), None);
    }

    #[test]
    fn a_queue_walk_packs_and_an_odd_point_escapes() {
        let mut s = TimeSeries::new("q");
        for i in 0..1000u64 {
            s.push(us(i), (i % 7) as f64);
        }
        assert_eq!(s.tail.len(), 1000, "a word a point");
        s.push(us(2000), 0.5);
        assert_eq!(s.tail.len(), 1003, "an escape is three words");
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts.len(), 1001);
        assert_eq!(pts[999], (us(999), 5.0));
        assert_eq!(pts[1000], (us(2000), 0.5));
    }

    #[test]
    fn chunks_fill_exactly_and_checkpoints_every_mark() {
        let mut s = TimeSeries::new("q");
        let n = 2 * CHUNK + 1;
        for i in 0..n as u64 {
            s.push(SimTime::from_nanos(i), (i & 1) as f64);
        }
        let lens: Vec<_> = s.full.iter().chain([&s.tail]).map(Vec::len).collect();
        assert_eq!(lens, [CHUNK, CHUNK, 1]);
        assert_eq!(s.full[1].capacity(), CHUNK);
        assert_eq!(s.mark_t.len(), 2 * CHUNK / MARK);
        assert_eq!(
            s.mark_at[CHUNK / MARK - 1] as usize,
            CHUNK,
            "chunk 1 starts at a checkpoint"
        );
    }
}
