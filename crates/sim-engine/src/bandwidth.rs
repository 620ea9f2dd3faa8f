//! Bandwidth arithmetic: converting byte counts into transfer durations.

use std::fmt;

use crate::time::SimTime;

/// A data rate, stored as bytes per second.
///
/// # Examples
///
/// ```
/// use sim_engine::{Bandwidth, SimTime};
///
/// // PCIe 4.0 x16 delivers ~32 GB/s per direction.
/// let bw = Bandwidth::from_gbps(32.0);
/// let t = bw.transfer_time(32_000_000_000);
/// assert_eq!(t, SimTime::from_secs_f64(1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth {
    bytes_per_sec: f64,
}

impl Bandwidth {
    /// Creates a bandwidth from gigabytes per second (10^9 bytes/s).
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not strictly positive and finite.
    pub fn from_gbps(gbps: f64) -> Self {
        assert!(gbps.is_finite() && gbps > 0.0, "invalid bandwidth: {gbps}");
        Bandwidth {
            bytes_per_sec: gbps * 1e9,
        }
    }

    /// Creates a bandwidth from bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is not strictly positive and finite.
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        assert!(bps.is_finite() && bps > 0.0, "invalid bandwidth: {bps}");
        Bandwidth { bytes_per_sec: bps }
    }

    /// This bandwidth in gigabytes per second.
    pub fn as_gbps(self) -> f64 {
        self.bytes_per_sec / 1e9
    }

    /// Time to serialize `bytes` onto a link of this bandwidth.
    ///
    /// Rounds up to the next picosecond so that back-to-back transfers
    /// never overlap.
    pub fn transfer_time(self, bytes: u64) -> SimTime {
        let secs = bytes as f64 / self.bytes_per_sec;
        SimTime::from_ps((secs * 1e12).ceil() as u64)
    }

    /// How many whole bytes fit in `window` at this bandwidth.
    pub fn bytes_in(self, window: SimTime) -> u64 {
        (self.bytes_per_sec * window.as_secs_f64()).floor() as u64
    }

    /// Scales the bandwidth by a factor (e.g. efficiency derating).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive and finite.
    pub fn scale(self, factor: f64) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.bytes_per_sec * factor)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}GB/s", self.as_gbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_linearly() {
        let bw = Bandwidth::from_gbps(1.0);
        assert_eq!(bw.transfer_time(1_000), SimTime::from_ns(1_000));
        assert_eq!(bw.transfer_time(2_000), SimTime::from_ns(2_000));
    }

    #[test]
    fn transfer_time_rounds_up() {
        let bw = Bandwidth::from_gbps(3.0);
        // 1 byte at 3 GB/s is 333.33ps; must round to 334.
        assert_eq!(bw.transfer_time(1), SimTime::from_ps(334));
    }

    #[test]
    fn bytes_in_window() {
        let bw = Bandwidth::from_gbps(32.0);
        assert_eq!(bw.bytes_in(SimTime::from_us(1)), 32_000);
    }

    #[test]
    fn scaling() {
        let bw = Bandwidth::from_gbps(10.0).scale(0.5);
        assert!((bw.as_gbps() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn display() {
        assert_eq!(Bandwidth::from_gbps(32.0).to_string(), "32.00GB/s");
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_panics() {
        let _ = Bandwidth::from_gbps(0.0);
    }
}
