//! Simulated time.
//!
//! All simulation logic runs on a virtual clock with nanosecond resolution.
//! Wall-clock time never appears in simulation code, which keeps experiments
//! bit-reproducible.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounded to nanoseconds).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite());
        SimDuration((s * 1e9).round() as u64)
    }

    /// This duration in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

/// An instant on the simulated clock (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// A time that compares greater than every reachable instant.
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    /// Nanoseconds since the simulation epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the simulation epoch.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is later than `self`.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier <= self, "duration_since of a later instant");
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating version of [`Self::duration_since`].
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

/// Time needed to serialize `bytes` onto a link of `bits_per_sec`.
#[inline]
pub fn transmission_time(bytes: usize, bits_per_sec: u64) -> SimDuration {
    debug_assert!(bits_per_sec > 0);
    // ns = bytes*8 / (bits/s) * 1e9, computed in u128 to avoid overflow.
    let ns = (bytes as u128 * 8 * 1_000_000_000) / bits_per_sec as u128;
    SimDuration(ns as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
        assert_eq!(
            SimDuration::from_secs_f64(0.05),
            SimDuration::from_millis(50)
        );
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(10);
        assert_eq!(
            t.duration_since(SimTime::ZERO),
            SimDuration::from_millis(10)
        );
        assert_eq!(
            SimDuration::from_millis(10) * 3,
            SimDuration::from_millis(30)
        );
        assert_eq!(
            SimDuration::from_millis(30) / 3,
            SimDuration::from_millis(10)
        );
        assert_eq!(
            SimDuration::from_millis(5).saturating_sub(SimDuration::from_millis(9)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn transmission_time_examples() {
        // 1500 B on 100 Gbps = 120 ns.
        assert_eq!(
            transmission_time(1500, 100_000_000_000),
            SimDuration::from_nanos(120)
        );
        // 1500 B on 10 Mbps = 1.2 ms.
        assert_eq!(
            transmission_time(1500, 10_000_000),
            SimDuration::from_micros(1200)
        );
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_millis(50).to_string(), "50.000ms");
        assert_eq!(SimDuration::from_micros(7).to_string(), "7.000us");
        assert_eq!(SimDuration::from_nanos(9).to_string(), "9ns");
    }
}
