//! Simulation time.
//!
//! All simulation clocks in the workspace are measured in milliseconds from
//! an arbitrary epoch (the start of the run). Millisecond resolution is
//! enough for a trace-driven CDN simulation whose scheduler epoch is 15 s
//! and whose propagation delays are single-digit milliseconds, while `u64`
//! milliseconds comfortably cover the 5-day traces the paper replays.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulation time, in milliseconds since the run epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The run epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Construct from whole minutes.
    pub fn from_mins(mins: u64) -> Self {
        Self::from_secs(mins * 60)
    }

    /// Construct from whole hours.
    pub fn from_hours(hours: u64) -> Self {
        Self::from_mins(hours * 60)
    }

    /// Time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Time in whole milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Time in whole seconds (truncated).
    pub fn as_secs(self) -> u64 {
        self.0 / 1000
    }
}

/// A span of simulation time, in milliseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Construct from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Construct from whole minutes.
    pub fn from_mins(mins: u64) -> Self {
        Self::from_secs(mins * 60)
    }

    /// Construct from whole hours.
    pub fn from_hours(hours: u64) -> Self {
        Self::from_mins(hours * 60)
    }

    /// Construct from fractional seconds (rounded to the nearest ms).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs * 1000.0).round().max(0.0) as u64)
    }

    /// Duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Duration in whole milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_s = self.0 / 1000;
        let (d, rem) = (total_s / 86400, total_s % 86400);
        let (h, rem) = (rem / 3600, rem % 3600);
        let (m, s) = (rem / 60, rem % 60);
        if d > 0 {
            write!(f, "{d}d{h:02}:{m:02}:{s:02}")
        } else {
            write!(f, "{h:02}:{m:02}:{s:02}")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1000 {
            write!(f, "{}ms", self.0)
        } else {
            write!(f, "{:.2}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(5).as_millis(), 5000);
        assert_eq!(SimTime::from_mins(2), SimTime::from_secs(120));
        assert_eq!(SimTime::from_hours(1), SimTime::from_secs(3600));
        assert_eq!(SimTime::from_millis(1500).as_secs(), 1);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_secs(5));
        let mut u = SimTime::ZERO;
        u += SimDuration::from_millis(250);
        assert_eq!(u.as_millis(), 250);
    }

    #[test]
    fn fractional_seconds() {
        let d = SimDuration::from_secs_f64(0.00803);
        assert_eq!(d.as_millis(), 8);
        assert!((SimTime::from_millis(1234).as_secs_f64() - 1.234).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(3661).to_string(), "01:01:01");
        assert_eq!(SimTime::from_hours(48).to_string(), "2d00:00:00");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.00s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(999) < SimDuration::from_secs(1));
    }
}
