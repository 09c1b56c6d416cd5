//! Differential oracle for `simcore::TimeSeries`: the store against a
//! reference that keeps every point in a `Vec<(SimTime, f64)>` and
//! answers `value_at` by binary search over it, over random push scripts.
//!
//! The figures read a series through `value_at` and the digests read it
//! through `points()`, so the store may hold its points however it likes
//! as long as both readers see exactly what was pushed: every time, and
//! every value bit for bit (−0.0, NaN payloads and ±∞ included), with
//! the last of several points at one time winning `value_at`. The
//! scripts mix what the engine records (±1 queue walks, growing acked
//! bytes, many points at one time) with what it never does (fractions,
//! huge jumps, gaps of 2^40 ns and beyond) so that every path through
//! the store is taken.

use simcore::{SimTime, TimeSeries};
use testkit::prop::{range, tuple4, uniform, vec_of, Gen};
use testkit::{tk_assert, Digest};

/// `value_at`'s default in every probe.
const DEFAULT: f64 = -1.5;

/// The reference: every point, in push order.
#[derive(Default)]
struct Reference {
    points: Vec<(SimTime, f64)>,
}

impl Reference {
    fn value_at(&self, t: SimTime) -> f64 {
        match self.points.partition_point(|&(pt, _)| pt <= t) {
            0 => DEFAULT,
            i => self.points[i - 1].1,
        }
    }

    /// The series digest framing `TimeSeries::write_digest` uses (the
    /// pinned series of `tests/liveset.rs`).
    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_usize(self.points.len());
        for &(t, v) in &self.points {
            d.write_u64(t.as_nanos()).write_f64(v);
        }
        d.finish()
    }
}

fn store_digest(s: &TimeSeries) -> u64 {
    let mut d = Digest::new();
    s.write_digest(&mut d);
    d.finish()
}

/// One push: `(gap class, gap draw, value class, value draw)`.
type Step = (u8, u64, u8, u64);

fn step() -> Gen<Step> {
    tuple4(range(0u8..10), uniform(), range(0u8..16), uniform())
}

const TWO_40: u64 = 1 << 40;
const TWO_23: i64 = 1 << 23;
const TWO_53: f64 = 9_007_199_254_740_992.0;

/// How far time moves: zero (runs of points at one time), sub-µs,
/// µs-scale, within two of 2^40 ns, or beyond it.
fn gap((class, raw, ..): Step) -> u64 {
    match class {
        0..=3 => 0,
        4 | 5 => raw % 1_000,
        6 | 7 => raw % 10_000_000,
        8 => TWO_40 - 2 + raw % 4,
        _ => TWO_40 + raw % (1 << 44),
    }
}

/// The value pushed, given the previous one.
fn value((.., class, raw): Step, prev: Option<f64>) -> f64 {
    let base = prev
        .filter(|p| p.abs() < TWO_53 && p.fract() == 0.0)
        .unwrap_or(0.0);
    let sign = if raw & 1 == 0 { 1.0 } else { -1.0 };
    match class {
        // A queue walk: one up or one down.
        0..=6 => base + sign,
        7 => base,
        // Deltas at the edge of 24 signed bits.
        8 => base + sign * (TWO_23 - 1 + (raw >> 1) as i64 % 3) as f64,
        9 => base + sign * ((raw >> 1) % (1 << 40)) as f64,
        // Integers near ±2^53, where f64 stops holding every integer.
        10 => sign * (TWO_53 - 2.0 + ((raw >> 1) % 4) as f64),
        11 => match f64::from_bits(raw) {
            f if f.is_finite() => f,
            _ => base + 0.5,
        },
        12 => sign * 0.0,
        13 => f64::from_bits(
            0x7FF0_0000_0000_0000
                | (raw & 0x8000_0000_0000_0000)
                | (raw % 0x000F_FFFF_FFFF_FFFF).max(1),
        ),
        14 => sign * f64::INFINITY,
        _ => sign * (TWO_53 * ((raw >> 1) % 1024 + 1) as f64),
    }
}

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Every point by bits, `len`, `is_empty` and the digest.
fn check_whole(s: &TimeSeries, r: &Reference) -> Result<(), String> {
    tk_assert!(s.len() == r.points.len() && s.is_empty() == r.points.is_empty());
    tk_assert!(
        s.points().len() == r.points.len(),
        "points() says it holds {}",
        s.points().len()
    );
    let got: Vec<_> = s.points().collect();
    tk_assert!(
        got.len() == r.points.len(),
        "points() yields {} of {}",
        got.len(),
        r.points.len()
    );
    for (i, (&(gt, gv), &(rt, rv))) in got.iter().zip(&r.points).enumerate() {
        tk_assert!(
            gt == rt && same(gv, rv),
            "point {i}: got ({gt:?}, {gv:?}), pushed ({rt:?}, {rv:?})"
        );
    }
    tk_assert!(
        store_digest(s) == r.digest(),
        "digest differs over {} points",
        s.len()
    );
    Ok(())
}

/// `value_at` at, just before and just past `t`.
fn probe(s: &TimeSeries, r: &Reference, t: SimTime) -> Result<(), String> {
    let ns = t.as_nanos();
    for at in [ns.saturating_sub(1), ns, ns.saturating_add(1)].map(SimTime::from_nanos) {
        let (got, want) = (s.value_at(at, DEFAULT), r.value_at(at));
        tk_assert!(
            same(got, want),
            "value_at({at:?}) = {got:?}, reference {want:?}"
        );
    }
    Ok(())
}

/// Push the script into both, checking `len` and `last_value` after every
/// push and `value_at` around the new point (a push at an existing time
/// changes what that time reads). With `whole_every_push` every point and
/// the digest are compared after each push too; otherwise at the end,
/// where `value_at` is also probed around every point and at both ends
/// of time.
fn run_script(steps: &[Step], whole_every_push: bool) -> Result<(), String> {
    let mut s = TimeSeries::new("oracle");
    let mut r = Reference::default();
    let mut now = 0u64;
    for &st in steps {
        now = now.saturating_add(gap(st));
        let t = SimTime::from_nanos(now);
        let v = value(st, r.points.last().map(|p| p.1));
        s.push(t, v);
        r.points.push((t, v));
        tk_assert!(s.len() == r.points.len());
        tk_assert!(
            s.last_value().map(f64::to_bits) == Some(v.to_bits()),
            "last_value {:?} after pushing {v:?}",
            s.last_value()
        );
        if whole_every_push {
            check_whole(&s, &r)?;
        }
        probe(&s, &r, t)?;
    }
    check_whole(&s, &r)?;
    for &(t, _) in &r.points {
        probe(&s, &r, t)?;
    }
    probe(&s, &r, SimTime::ZERO)?;
    probe(&s, &r, SimTime::MAX)?;
    Ok(())
}

testkit::props! {
    #[cases(150)]
    /// Short scripts, checked whole after every push.
    fn store_matches_reference(steps in vec_of(step(), 1..600)) {
        run_script(&steps, true)?;
    }

    #[cases(6)]
    /// Scripts long enough to fill at least one 64 KiB chunk of the
    /// store, so points, escapes and runs of equal times cross a chunk
    /// edge.
    fn long_series_match_reference(steps in vec_of(step(), 9_000..17_000)) {
        run_script(&steps, false)?;
    }
}

/// A queue walk of `lead` points 1 µs apart, then `run` points at one
/// time, then a few more: for `lead` around the 8192-word chunk, the run
/// straddles a chunk edge, and `value_at` at its time must read the
/// run's last point. `escapes` makes every fifth point of the run (and
/// the lead's last few) a fraction, which cannot be packed.
fn edge_script(lead: usize, run: usize, escapes: bool) -> Vec<Step> {
    let walk = |i: usize| (6u8, 1_000u64, (i % 7) as u8, i as u64);
    let frac = |i: usize| (6u8, 1_000u64, 11u8, u64::MAX - i as u64);
    let mut steps: Vec<Step> = (0..lead)
        .map(|i| {
            if escapes && i + 4 >= lead {
                frac(i)
            } else {
                walk(i)
            }
        })
        .collect();
    for i in 0..run {
        let (_, _, class, raw) = if escapes && i % 5 == 2 {
            frac(i)
        } else {
            walk(i)
        };
        steps.push((0, 0, class, raw));
    }
    steps.extend((0..5).map(walk));
    steps
}

#[test]
fn equal_times_across_a_chunk_edge_read_the_last() {
    // Plain, the run straddles the edge for `lead` in 8169..=8191; with
    // escapes, the lead's four escapes move it eight words earlier.
    for (escapes, leads) in [(false, 8_165..8_196), (true, 8_145..8_190)] {
        for lead in leads {
            let steps = edge_script(lead, 24, escapes);
            let mut s = TimeSeries::new("edge");
            let mut r = Reference::default();
            let mut now = 0u64;
            for &st in &steps {
                now += gap(st);
                let v = value(st, r.points.last().map(|p| p.1));
                s.push(SimTime::from_nanos(now), v);
                r.points.push((SimTime::from_nanos(now), v));
            }
            let near = &r.points[lead - 300..];
            let checked = check_whole(&s, &r)
                .and_then(|()| near.iter().try_for_each(|&(t, _)| probe(&s, &r, t)));
            if let Err(e) = checked {
                panic!("lead {lead}, escapes {escapes}: {e}");
            }
        }
    }
}

#[test]
fn the_longest_packable_gap_and_step_round_trip() {
    // A gap of 2^40 − 1 ns with a step of −2^23 is the largest delta
    // word; it must not read back as anything else.
    let mut s = TimeSeries::new("edge");
    let mut r = Reference::default();
    let mut now = 5u64;
    let mut v = 0.0;
    for i in 0..600u64 {
        let (gap, step) = match i % 3 {
            0 => (TWO_40 - 1, -(TWO_23 as f64)),
            1 => (TWO_40 - 1, (TWO_23 - 1) as f64),
            _ => (TWO_40, 1.0),
        };
        now += gap;
        v += step;
        let t = SimTime::from_nanos(now);
        s.push(t, v);
        r.points.push((t, v));
    }
    check_whole(&s, &r).unwrap();
    for &(t, _) in &r.points {
        probe(&s, &r, t).unwrap();
    }
}

#[test]
fn empty_series_reads_the_default() {
    let s = TimeSeries::new("empty");
    let r = Reference::default();
    check_whole(&s, &r).unwrap();
    probe(&s, &r, SimTime::from_micros(5)).unwrap();
    assert_eq!(s.last_value(), None);
}
