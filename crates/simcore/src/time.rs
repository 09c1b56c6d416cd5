//! Simulated time.
//!
//! The simulator measures time in integer nanoseconds since the start of the
//! run. Nanosecond resolution is fine enough to express serialization times
//! of single bytes at 100 Gbps (0.08 ns rounds to 0, so serialization is
//! computed per-packet where it is ~720 ns for a jumbo frame) while a `u64`
//! still covers ~584 years of simulated time.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; used as an "infinitely far" sentinel
    /// for disarmed timers.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future (which indicates a logic error upstream but must not
    /// panic in release runs).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked duration since `earlier`; `None` if `earlier > self`.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0, "duration must be non-negative");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Multiply by an integer factor, saturating at the maximum.
    pub const fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Scale by a float factor (used for RTO backoff with jitter and for
    /// EWMA-style smoothing where integer math would lose precision).
    ///
    /// Rounds half up — `round() as u64` for the non-negative products
    /// the assert leaves, without `f64::round`, which is a libm call on
    /// baseline x86-64 (four per RTT sample): truncate, then add one if
    /// the dropped fraction is at least a half. Above 2⁵³ the product is
    /// already an integer and the difference is zero; past `u64::MAX` the
    /// cast and the add both saturate.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        assert!(k >= 0.0, "scale factor must be non-negative");
        let v = self.0 as f64 * k;
        let t = v as u64;
        SimDuration(t.saturating_add(u64::from(v - t as f64 >= 0.5)))
    }

    /// Serialization delay for `bytes` at `rate_bps` bits per second,
    /// rounded up to a whole nanosecond so a non-empty packet never
    /// serializes in zero time.
    #[inline]
    pub fn serialization(bytes: u64, rate_bps: u64) -> SimDuration {
        assert!(rate_bps > 0, "link rate must be positive");
        let bits = bytes * 8;
        // ceil(bits * 1e9 / rate) without overflow for realistic inputs:
        // bits < 2^20, 1e9 < 2^30 -> product < 2^50.
        SimDuration((bits * 1_000_000_000).div_ceil(rate_bps))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, t: SimTime) -> SimDuration {
        debug_assert!(self >= t, "SimTime subtraction went negative");
        SimDuration(self.0.saturating_sub(t.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(d.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(d.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, d: SimDuration) {
        *self = *self - d;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl Div for SimDuration {
    /// Ratio of two durations.
    type Output = f64;
    fn div(self, d: SimDuration) -> f64 {
        self.0 as f64 / d.0 as f64
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.0 as f64 / 1_000.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.0 as f64 / 1_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_secs(2).as_micros(), 2_000_000);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_micros(100);
        let d = SimDuration::from_micros(40);
        assert_eq!((t + d).as_micros(), 140);
        assert_eq!((t - d).as_micros(), 60);
        assert_eq!(((t + d) - t).as_micros(), 40);
    }

    #[test]
    fn saturating_behaviour() {
        let t = SimTime::from_nanos(5);
        assert_eq!((t - SimDuration::from_nanos(10)).as_nanos(), 0);
        assert_eq!(
            t.saturating_since(SimTime::from_nanos(10)),
            SimDuration::ZERO
        );
        assert_eq!(t.checked_since(SimTime::from_nanos(10)), None);
        assert_eq!(
            t.checked_since(SimTime::from_nanos(2)),
            Some(SimDuration::from_nanos(3))
        );
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
    }

    #[test]
    fn serialization_delay() {
        // 9000 B at 10 Gbps = 7.2 us.
        let d = SimDuration::serialization(9000, 10_000_000_000);
        assert_eq!(d.as_nanos(), 7_200);
        // 9000 B at 100 Gbps = 720 ns.
        let d = SimDuration::serialization(9000, 100_000_000_000);
        assert_eq!(d.as_nanos(), 720);
        // A single byte never serializes in zero time.
        let d = SimDuration::serialization(1, 100_000_000_000);
        assert!(d.as_nanos() >= 1);
        // Zero bytes is instantaneous.
        assert_eq!(
            SimDuration::serialization(0, 10_000_000_000),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_micros(100);
        assert_eq!((d * 3).as_micros(), 300);
        assert_eq!((d / 4).as_micros(), 25);
        assert_eq!(d.mul_f64(1.5).as_micros(), 150);
        let ratio = SimDuration::from_micros(30) / SimDuration::from_micros(60);
        assert!((ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mul_f64_rounds_like_round() {
        let reference = |d: u64, k: f64| (d as f64 * k).round() as u64;
        let p53 = 1u64 << 53;
        let durations = [0, 1, 2, 3, 7, 1_000, 180_000, p53 - 1, p53, p53 + 1, u64::MAX - 1, u64::MAX];
        let factors = [0.0, 0.125, 0.25, 0.5, 0.75, 0.875, 1.0, 1.25, 1.5, 2.5, 1e-9, 1e9, 1e300];
        for d in durations {
            for k in factors {
                assert_eq!(
                    SimDuration::from_nanos(d).mul_f64(k).as_nanos(),
                    reference(d, k),
                    "{d} * {k}"
                );
            }
        }
        // Every x.5 boundary and its neighbours one ULP either side.
        for n in 0..2_000u64 {
            let half = n as f64 + 0.5;
            for v in [half, f64::from_bits(half.to_bits() - 1), f64::from_bits(half.to_bits() + 1)] {
                assert_eq!(SimDuration::from_nanos(1).mul_f64(v).as_nanos(), v.round() as u64, "{v}");
            }
        }
    }

    #[test]
    fn min_max_clamp() {
        let a = SimDuration::from_micros(10);
        let b = SimDuration::from_micros(20);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            SimDuration::from_micros(5).clamp(a, b),
            a,
            "below range clamps up"
        );
        assert_eq!(SimDuration::from_micros(25).clamp(a, b), b);
        assert_eq!(SimDuration::from_micros(15).clamp(a, b), SimDuration::from_micros(15));
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1e-9).as_nanos(), 1);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(format!("{}", SimTime::from_micros(180)), "180.000us");
        assert_eq!(format!("{}", SimDuration::from_nanos(1500)), "1.500us");
    }
}
