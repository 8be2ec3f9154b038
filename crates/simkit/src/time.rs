//! Virtual time: [`SimTime`] (absolute) and [`SimDuration`] (relative).
//!
//! Both are nanosecond-resolution `u64` newtypes. A `u64` of nanoseconds
//! covers ~584 years of simulated time, which comfortably exceeds the
//! longest experiment in this repository (a projected multi-year device
//! lifetime is computed analytically, never ticked). All arithmetic is
//! saturating so a mis-configured experiment degrades to "stuck at the end
//! of time" rather than wrapping around and corrupting orderings.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute point in simulated time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The beginning of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `ns` nanoseconds after simulation start.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant `us` microseconds after simulation start.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us.saturating_mul(1_000))
    }

    /// Creates an instant `ms` milliseconds after simulation start.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000_000))
    }

    /// Creates an instant `s` seconds after simulation start.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(1_000_000_000))
    }

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// A span of `ns` nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// A span of `us` microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us.saturating_mul(1_000))
    }

    /// A span of `ms` milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    /// A span of `s` seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1_000_000_000))
    }

    /// A span computed from a float number of seconds, rounded to the nearest
    /// nanosecond. Negative and non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = secs * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ns.round() as u64)
        }
    }

    /// The time needed to move `bytes` over a pipe of `bytes_per_sec`,
    /// rounded **up** to the next nanosecond (a transfer never completes
    /// early). Zero bandwidth yields [`SimDuration::MAX`].
    #[inline]
    pub fn for_transfer(bytes: u64, bytes_per_sec: u64) -> Self {
        if bytes_per_sec == 0 {
            return SimDuration::MAX;
        }
        // ns = ceil(bytes * 1e9 / bps). Every page-sized transfer's
        // numerator fits a u64, whose division is far cheaper than the
        // u128 one that larger transfers need to avoid overflow.
        if let Some(num) = bytes.checked_mul(1_000_000_000) {
            return SimDuration(num.div_ceil(bytes_per_sec));
        }
        let ns = (bytes as u128 * 1_000_000_000).div_ceil(bytes_per_sec as u128);
        SimDuration(u64::try_from(ns).unwrap_or(u64::MAX))
    }

    /// Span in nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Span in seconds, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Span in milliseconds, as a float (for reporting only).
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The longer of two spans.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The shorter of two spans.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Saturating multiplication by an integer count.
    #[inline]
    pub fn saturating_mul(self, n: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(n))
    }

    /// Integer division by a count (e.g. amortized per-item cost).
    ///
    /// # Panics
    /// Panics if `n` is zero.
    #[inline]
    pub fn div_by(self, n: u64) -> SimDuration {
        SimDuration(self.0 / n)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Elapsed time between two instants (saturating at zero).
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        self.saturating_mul(rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        self.div_by(rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", format_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

/// Human-readable rendering of a nanosecond count with an adaptive unit.
fn format_ns(ns: u64) -> String {
    if ns >= 10_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 10_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl SimTime {
        /// Time elapsed since `earlier`, or zero if `earlier` is in the future.
        #[inline]
        pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
            SimDuration(self.0.saturating_sub(earlier.0))
        }
    }

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimTime::from_us(3).as_ns(), 3_000);
        assert_eq!(SimTime::from_ms(3).as_ns(), 3_000_000);
        assert_eq!(SimTime::from_secs(3).as_ns(), 3_000_000_000);
        assert_eq!(SimDuration::from_us(7).as_ns(), 7_000);
        assert_eq!(SimDuration::from_ms(7).as_ns(), 7_000_000);
        assert_eq!(SimDuration::from_secs(7).as_ns(), 7_000_000_000);
    }

    #[test]
    fn time_plus_duration() {
        let t = SimTime::from_us(10) + SimDuration::from_us(5);
        assert_eq!(t, SimTime::from_us(15));
    }

    #[test]
    fn time_difference_saturates() {
        let a = SimTime::from_ns(100);
        let b = SimTime::from_ns(250);
        assert_eq!(b - a, SimDuration::from_ns(150));
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn addition_saturates_at_max() {
        let t = SimTime::MAX + SimDuration::from_ns(1);
        assert_eq!(t, SimTime::MAX);
        let d = SimDuration::MAX + SimDuration::from_ns(1);
        assert_eq!(d, SimDuration::MAX);
    }

    #[test]
    fn transfer_time_rounds_up() {
        // 3 bytes over 2 B/s = 1.5 s → must round to 1 500 000 000 ns exactly,
        // and 1 byte over 3 B/s must round UP.
        assert_eq!(SimDuration::for_transfer(3, 2), SimDuration::from_ms(1_500));
        assert_eq!(
            SimDuration::for_transfer(1, 3).as_ns(),
            333_333_334 // ceil(1e9 / 3)
        );
    }

    #[test]
    fn transfer_time_edge_cases() {
        assert_eq!(SimDuration::for_transfer(0, 100), SimDuration::ZERO);
        assert_eq!(SimDuration::for_transfer(100, 0), SimDuration::MAX);
        // Large transfer that would overflow u64 math in ns without u128.
        let d = SimDuration::for_transfer(u64::MAX / 2, 1_000_000_000);
        assert_eq!(d.as_ns(), u64::MAX / 2);
    }

    /// The transfer time as computed before the u64 fast path: always in
    /// u128.
    fn for_transfer_u128(bytes: u64, bytes_per_sec: u64) -> SimDuration {
        if bytes_per_sec == 0 {
            return SimDuration::MAX;
        }
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(bytes_per_sec as u128);
        if ns > u64::MAX as u128 {
            SimDuration::MAX
        } else {
            SimDuration(ns as u64)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The u64 fast path and the u128 path agree with the u128 formula:
        /// page-sized and arbitrary transfers, and byte counts on both
        /// sides of where `bytes · 10⁹` stops fitting a u64.
        #[test]
        fn transfer_time_matches_u128_formula(
            kind in 0u8..4,
            raw in any::<u64>(),
            delta in 0u64..64,
            rate in any::<u64>(),
            small_rate in 0u64..20_000_000_000,
        ) {
            let boundary = u64::MAX / 1_000_000_000;
            let bytes = match kind {
                0 => raw % (1 << 20),
                1 => boundary - delta,
                2 => boundary + 1 + delta,
                _ => raw,
            };
            for bps in [rate, small_rate, 1] {
                prop_assert_eq!(
                    SimDuration::for_transfer(bytes, bps),
                    for_transfer_u128(bytes, bps),
                    "bytes {} bps {}", bytes, bps
                );
            }
        }
    }

    #[test]
    fn from_secs_f64_clamps() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e-9), SimDuration::from_ns(1));
        assert_eq!(SimDuration::from_secs_f64(2.5), SimDuration::from_ms(2_500));
    }

    #[test]
    fn sum_and_scalar_ops() {
        let total: SimDuration = [1u64, 2, 3].iter().map(|&n| SimDuration::from_ns(n)).sum();
        assert_eq!(total, SimDuration::from_ns(6));
        assert_eq!(SimDuration::from_ns(6) * 2, SimDuration::from_ns(12));
        assert_eq!(SimDuration::from_ns(6) / 2, SimDuration::from_ns(3));
    }

    #[test]
    fn display_picks_adaptive_units() {
        assert_eq!(SimDuration::from_ns(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_us(42).to_string(), "42.000us");
        assert_eq!(SimDuration::from_ms(42).to_string(), "42.000ms");
        assert_eq!(SimDuration::from_secs(42).to_string(), "42.000s");
    }
}
