//! Integer simulation time.
//!
//! The engine keeps all time in **unsigned 64-bit nanoseconds**. Floating
//! point never enters scheduling decisions, which keeps simulations
//! bit-reproducible and immune to accumulation error over long runs
//! (2^64 ns ≈ 584 years of simulated time).
//!
//! Two newtypes are provided:
//!
//! * [`Time`] — an absolute instant on the simulation clock (ns since the
//!   start of the run).
//! * [`Dur`] — a span between two instants.
//!
//! Arithmetic between them is closed in the obvious way
//! (`Time + Dur = Time`, `Time - Time = Dur`, `Dur * u64 = Dur`, …) and
//! saturating variants are provided where underflow is a legitimate
//! possibility in measurement code.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// Nanoseconds in one microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;
/// Nanoseconds in one millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// `x.round() as u64` for every `f64`, inline: `f64::round` is an
/// out-of-line call on baseline x86-64, and every Poisson gap passes
/// through here. Below 2^52 an `f64` may have a fraction; its truncation
/// and `x - trunc(x)` are exact there, and the fraction rounds half away
/// from zero as `round` does. That branch truncates through `i64`, whose
/// conversions are single instructions on x86-64 (`u64`'s take a
/// two-way sequence each); a negative input (or −∞) truncates to at
/// most 0, never gains the half, and clamps to 0 as `round` then `as
/// u64` saturates it. At or above 2^52 every `f64` is an integer, so
/// the plain cast agrees, and it maps NaN to 0 as the `round` path does.
#[inline]
fn round_u64(x: f64) -> u64 {
    const EXACT: f64 = (1u64 << 52) as f64;
    if x < EXACT {
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)).max(0) as u64
    } else {
        x as u64
    }
}

/// An absolute instant on the simulation clock, in nanoseconds since the
/// beginning of the simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A duration (span between two [`Time`] instants), in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl Time {
    /// The simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);
    /// The largest representable instant. Used as an "infinitely far in
    /// the future" sentinel when scheduling.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from integer nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Construct from integer microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Time(us * NANOS_PER_MICRO)
    }

    /// Construct from integer milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * NANOS_PER_MILLI)
    }

    /// Construct from (possibly fractional) seconds, rounding to the
    /// nearest nanosecond. Panics in debug builds if `secs` is negative
    /// or non-finite.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(secs.is_finite() && secs >= 0.0, "invalid time {secs}");
        Time(round_u64(secs * NANOS_PER_SEC as f64))
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in seconds (lossy above 2^53 ns).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// This instant expressed in microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MICRO as f64
    }

    /// Duration elapsed since `earlier`. Panics in debug builds if
    /// `earlier` is after `self`.
    #[inline]
    pub fn since(self, earlier: Time) -> Dur {
        debug_assert!(self >= earlier, "time went backwards: {self} < {earlier}");
        Dur(self.0 - earlier.0)
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Dur {
    /// The zero-length duration.
    pub const ZERO: Dur = Dur(0);
    /// The largest representable duration.
    pub const MAX: Dur = Dur(u64::MAX);

    /// Construct from integer nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Dur(ns)
    }

    /// Construct from integer microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Dur(us * NANOS_PER_MICRO)
    }

    /// Construct from integer milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Dur(ms * NANOS_PER_MILLI)
    }

    /// Construct from integer seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Dur(s * NANOS_PER_SEC)
    }

    /// Construct from (possibly fractional) seconds, rounding to the
    /// nearest nanosecond.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(secs.is_finite() && secs >= 0.0, "invalid duration {secs}");
        Dur(round_u64(secs * NANOS_PER_SEC as f64))
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in seconds (lossy above 2^53 ns).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// The duration in microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MICRO as f64
    }

    /// `self - other`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }

    /// `self * num / den` in 128-bit intermediate precision, rounding
    /// down. Useful for scaling durations without overflow.
    #[inline]
    pub fn mul_div(self, num: u64, den: u64) -> Dur {
        debug_assert!(den != 0);
        Dur((self.0 as u128 * num as u128 / den as u128) as u64)
    }

    /// How many whole `unit`s fit in this duration.
    #[inline]
    pub fn div_dur(self, unit: Dur) -> u64 {
        debug_assert!(unit.0 != 0);
        self.0 / unit.0
    }

    /// How many `unit`s are needed to cover this duration (ceiling).
    #[inline]
    pub fn div_ceil_dur(self, unit: Dur) -> u64 {
        debug_assert!(unit.0 != 0);
        self.0.div_ceil(unit.0)
    }

    /// The shorter of two durations.
    #[inline]
    pub fn min(self, other: Dur) -> Dur {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The longer of two durations.
    #[inline]
    pub fn max(self, other: Dur) -> Dur {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Dur) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Time) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl Add<Dur> for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl SubAssign<Dur> for Dur {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl Rem<Dur> for Dur {
    type Output = Dur;
    #[inline]
    fn rem(self, rhs: Dur) -> Dur {
        Dur(self.0 % rhs.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < NANOS_PER_MICRO {
            write!(f, "{}ns", self.0)
        } else if self.0 < NANOS_PER_SEC {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{:.6}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_rounds_like_round(x: f64) {
        assert_eq!(
            round_u64(x),
            x.round() as u64,
            "x = {x:e} ({:#018x})",
            x.to_bits()
        );
    }

    /// `x` and the adjacent floats on either side of it (`x` finite and
    /// positive).
    fn neighbours(x: f64) -> [f64; 3] {
        let b = x.to_bits();
        [f64::from_bits(b - 1), x, f64::from_bits(b + 1)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn round_u64_matches_round_on_any_bit_pattern(bits in any::<u64>()) {
            assert_rounds_like_round(f64::from_bits(bits));
        }

        #[test]
        fn round_u64_matches_round_around_half_integers(k in 0u64..1 << 52, shift in 0u32..53) {
            // Every magnitude below 2^52, not just the top binades.
            let h = (k >> shift) as f64 + 0.5;
            for x in neighbours(h) {
                assert_rounds_like_round(x);
                assert_rounds_like_round(-x);
            }
        }
    }

    #[test]
    fn round_u64_matches_round_on_the_edges() {
        let p52 = (1u64 << 52) as f64;
        let mut edges = vec![
            0.0,
            -0.0,
            -0.5,
            -1.5,
            0.49999999999999994,
            (1u64 << 53) as f64,
            (1u64 << 63) as f64,
            2f64.powi(64),
            u64::MAX as f64,
            f64::MAX,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for h in [0.5, 1.5, 2.5, 1e9 + 0.5, p52 - 1.5, p52 - 0.5, p52] {
            edges.extend(neighbours(h));
        }
        for x in edges {
            assert_rounds_like_round(x);
        }
    }

    #[test]
    fn constructors_round_trip() {
        assert_eq!(Time::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Time::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(Dur::from_secs(1).as_nanos(), NANOS_PER_SEC);
        assert_eq!(Dur::from_micros(20).as_nanos(), 20_000);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(Time::from_secs_f64(1e-9).as_nanos(), 1);
        assert_eq!(Dur::from_secs_f64(0.5).as_nanos(), NANOS_PER_SEC / 2);
        // 1.5 ns rounds to 2 ns
        assert_eq!(Dur::from_secs_f64(1.5e-9).as_nanos(), 2);
    }

    #[test]
    fn arithmetic_is_closed() {
        let t = Time::from_micros(100);
        let d = Dur::from_micros(30);
        assert_eq!(t + d, Time::from_micros(130));
        assert_eq!((t + d) - t, d);
        assert_eq!(t - d, Time::from_micros(70));
        assert_eq!(d * 3, Dur::from_micros(90));
        assert_eq!(d / 2, Dur::from_micros(15));
    }

    #[test]
    fn since_and_saturating() {
        let a = Time::from_micros(10);
        let b = Time::from_micros(25);
        assert_eq!(b.since(a), Dur::from_micros(15));
        assert_eq!(
            Dur::from_micros(5).saturating_sub(Dur::from_micros(9)),
            Dur::ZERO
        );
    }

    #[test]
    fn div_and_mul_div() {
        let slot = Dur::from_micros(20);
        assert_eq!(Dur::from_micros(65).div_dur(slot), 3);
        assert_eq!(Dur::from_micros(65).div_ceil_dur(slot), 4);
        assert_eq!(Dur::from_micros(60).div_ceil_dur(slot), 3);
        // (u64::MAX / 2) * 2 / 2 does not overflow thanks to u128 math.
        let big = Dur(u64::MAX / 2);
        assert_eq!(big.mul_div(2, 2), big);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = Time::from_nanos(5);
        let b = Time::from_nanos(9);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(Dur(3).max(Dur(8)), Dur(8));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Dur::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Dur::from_micros(20)), "20.000us");
        assert_eq!(format!("{}", Dur::from_secs(2)), "2.000000s");
    }
}
