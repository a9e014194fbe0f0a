//! Simulated time.
//!
//! All timing in the simulator is expressed as [`Time`], a picosecond
//! counter. Picosecond resolution lets Table 2's fractional-nanosecond
//! parameters (e.g. tWTR = 7.5 ns) be represented exactly.

use std::ops::{Add, AddAssign, Sub};

/// An instant or duration of simulated time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// The zero instant.
    pub const ZERO: Time = Time(0);

    /// A duration of `ns` nanoseconds.
    pub const fn from_ns(ns: u64) -> Time {
        Time(ns * 1000)
    }

    /// A duration of `ps` picoseconds.
    pub const fn from_ps(ps: u64) -> Time {
        Time(ps)
    }

    /// A duration expressed as a possibly fractional nanosecond count
    /// (e.g. 7.5 ns), rounded to the nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_ns_f64(ns: f64) -> Time {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "duration must be finite and non-negative"
        );
        Time((ns * 1000.0).round() as u64)
    }

    /// This time as (possibly fractional) nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// This time as (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: `self - other`, or zero if `other > self`.
    pub fn saturating_sub(self, other: Time) -> Time {
        Time(self.0.saturating_sub(other.0))
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    /// # Panics
    ///
    /// Panics in debug builds if the result would underflow.
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl std::fmt::Display for Time {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}ns", self.as_ns_f64())
    }
}

impl nvmm_json::ToJson for Time {
    /// A `Time` serializes as its raw picosecond count.
    fn to_json(&self) -> nvmm_json::Json {
        nvmm_json::Json::U64(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_conversion() {
        assert_eq!(Time::from_ns(300).0, 300_000);
        assert_eq!(Time::from_ns_f64(7.5).0, 7_500);
        assert!((Time::from_ns(42).as_ns_f64() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(4);
        assert_eq!(a + b, Time::from_ns(14));
        assert_eq!(a - b, Time::from_ns(6));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, Time::from_ns(14));
    }

    #[test]
    fn display_formats_ns() {
        assert_eq!(Time::from_ns_f64(7.5).to_string(), "7.500ns");
    }

    #[test]
    fn seconds_conversion() {
        assert!((Time::from_ns(1_000_000_000).as_secs_f64() - 1.0).abs() < 1e-12);
        assert!((Time::from_ns(1_000_000).as_secs_f64() - 1e-3).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn negative_duration_rejected() {
        let _ = Time::from_ns_f64(-1.0);
    }
}
