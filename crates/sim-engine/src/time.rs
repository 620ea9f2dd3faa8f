//! Simulated time.
//!
//! All timing in the simulator is tracked in integer picoseconds so that
//! components running at different clock frequencies (GPU core clock,
//! PCIe link clock) can interoperate without floating-point drift.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or duration of) simulated time, in picoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration;
/// the arithmetic is identical and the simulator keeps the distinction
/// by convention (event timestamps vs. latencies).
///
/// # Examples
///
/// ```
/// use sim_engine::SimTime;
///
/// let t = SimTime::from_ns(2) + SimTime::from_ps(500);
/// assert_eq!(t.as_ps(), 2_500);
/// assert!(t < SimTime::from_us(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero — the beginning of every simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a time from (possibly fractional) seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid seconds: {secs}");
        SimTime((secs * 1e12).round() as u64)
    }

    /// This time expressed in picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This time expressed in fractional nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This time expressed in fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: returns `ZERO` instead of underflowing.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition: `None` on overflow.
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Returns the larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// True if this is exactly time zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if ps >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{ps}ps")
        }
    }
}

/// A clock frequency, used to convert cycle counts into [`SimTime`].
///
/// # Examples
///
/// ```
/// use sim_engine::{Frequency, SimTime};
///
/// let clk = Frequency::from_ghz(1.0);
/// assert_eq!(clk.cycles_to_time(5), SimTime::from_ns(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency {
    /// Picoseconds per cycle.
    ps_per_cycle: u64,
}

impl Frequency {
    /// Creates a frequency from GHz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive and finite.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "invalid frequency: {ghz} GHz");
        let ps = (1000.0 / ghz).round() as u64;
        Frequency {
            ps_per_cycle: ps.max(1),
        }
    }

    /// Picoseconds per clock cycle.
    pub const fn period(self) -> SimTime {
        SimTime::from_ps(self.ps_per_cycle)
    }

    /// Converts a cycle count at this frequency to a duration.
    pub const fn cycles_to_time(self, cycles: u64) -> SimTime {
        SimTime::from_ps(self.ps_per_cycle * cycles)
    }

    /// Converts a duration to a whole number of cycles (rounding up).
    pub fn time_to_cycles(self, t: SimTime) -> u64 {
        t.as_ps().div_ceil(self.ps_per_cycle)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}GHz", 1000.0 / self.ps_per_cycle as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimTime::from_secs_f64(1.0).as_ps(), 1_000_000_000_000);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(3);
        let b = SimTime::from_ns(1);
        assert_eq!(a + b, SimTime::from_ns(4));
        assert_eq!(a - b, SimTime::from_ns(2));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a * 2, SimTime::from_ns(6));
        assert_eq!(a / 3, SimTime::from_ns(1));
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_ns(3);
        let b = SimTime::from_ns(1);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = (1..=4).map(SimTime::from_ns).sum();
        assert_eq!(total, SimTime::from_ns(10));
    }

    #[test]
    fn frequency_roundtrip() {
        let clk = Frequency::from_ghz(2.0);
        assert_eq!(clk.period(), SimTime::from_ps(500));
        assert_eq!(clk.cycles_to_time(4), SimTime::from_ns(2));
        assert_eq!(clk.time_to_cycles(SimTime::from_ns(2)), 4);
        // Rounds up partial cycles.
        assert_eq!(clk.time_to_cycles(SimTime::from_ps(501)), 2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_ps(7).to_string(), "7ps");
        assert_eq!(SimTime::from_ns(7).to_string(), "7.000ns");
        assert_eq!(SimTime::from_us(7).to_string(), "7.000us");
        assert_eq!(Frequency::from_ghz(1.0).to_string(), "1.000GHz");
    }

    #[test]
    #[should_panic]
    fn negative_seconds_panics() {
        let _ = SimTime::from_secs_f64(-1.0);
    }
}
