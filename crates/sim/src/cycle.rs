//! Cycle counting.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A count of clock cycles.
///
/// All latency results in this workspace are expressed in `Cycle`s so
/// they cannot be confused with other integer quantities (SRAM reads,
/// MAC counts, ...). Arithmetic is saturating: a simulation that would
/// overflow `u64` cycles clamps at `u64::MAX` rather than wrapping.
///
/// # Example
///
/// ```
/// use maeri_sim::Cycle;
///
/// let fill = Cycle::new(8);
/// let body = Cycle::new(27);
/// let drain = Cycle::new(8);
/// assert_eq!((fill + body + drain).as_u64(), 43);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// Zero cycles.
    pub const ZERO: Cycle = Cycle(0);
    /// One cycle.
    pub const ONE: Cycle = Cycle(1);

    /// Creates a cycle count.
    #[must_use]
    pub const fn new(count: u64) -> Self {
        Cycle(count)
    }

    /// Returns the raw count.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the count as `f64`, for ratios and utilization math.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Returns `true` when the count is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition.
    #[must_use]
    pub const fn saturating_add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    #[must_use]
    pub const fn saturating_sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(rhs.0))
    }

    /// Returns the larger of two counts.
    #[must_use]
    pub fn max(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.max(rhs.0))
    }

    /// Returns the smaller of two counts.
    #[must_use]
    pub fn min(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.min(rhs.0))
    }

    /// `numerator / self` as a ratio; returns 0.0 for a zero cycle count.
    ///
    /// Handy for throughput-style metrics (`events per cycle`).
    #[must_use]
    pub fn rate(self, numerator: f64) -> f64 {
        if self.0 == 0 {
            0.0
        } else {
            numerator / self.0 as f64
        }
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(value: u64) -> Self {
        Cycle(value)
    }
}

impl From<Cycle> for u64 {
    fn from(value: Cycle) -> Self {
        value.0
    }
}

impl Add for Cycle {
    type Output = Cycle;
    fn add(self, rhs: Cycle) -> Cycle {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Cycle {
    fn add_assign(&mut self, rhs: Cycle) {
        *self = *self + rhs;
    }
}

impl Sub for Cycle {
    type Output = Cycle;
    fn sub(self, rhs: Cycle) -> Cycle {
        self.saturating_sub(rhs)
    }
}

impl Mul<u64> for Cycle {
    type Output = Cycle;
    fn mul(self, rhs: u64) -> Cycle {
        Cycle(self.0.saturating_mul(rhs))
    }
}

impl Sum for Cycle {
    fn sum<I: Iterator<Item = Cycle>>(iter: I) -> Cycle {
        iter.fold(Cycle::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_accessors() {
        let c = Cycle::new(42);
        assert_eq!(c.as_u64(), 42);
        assert!((c.as_f64() - 42.0).abs() < f64::EPSILON);
        assert!(!c.is_zero());
        assert!(Cycle::ZERO.is_zero());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Cycle::new(5) + Cycle::new(7), Cycle::new(12));
        assert_eq!(Cycle::new(5) - Cycle::new(7), Cycle::ZERO);
        assert_eq!(Cycle::new(7) - Cycle::new(5), Cycle::new(2));
        assert_eq!(Cycle::new(5) * 3, Cycle::new(15));
    }

    #[test]
    fn saturation() {
        let max = Cycle::new(u64::MAX);
        assert_eq!(max + Cycle::ONE, max);
        assert_eq!(max * 2, max);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut total = Cycle::ZERO;
        for _ in 0..4 {
            total += Cycle::new(37);
        }
        assert_eq!(total.as_u64(), 148);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Cycle = [43u64, 43, 43, 27].iter().map(|&c| Cycle::new(c)).sum();
        assert_eq!(total.as_u64(), 156);
    }

    #[test]
    fn rate_handles_zero() {
        assert_eq!(Cycle::ZERO.rate(100.0), 0.0);
        assert!((Cycle::new(4).rate(2.0) - 0.5).abs() < f64::EPSILON);
    }

    #[test]
    fn ordering_and_minmax() {
        assert!(Cycle::new(1) < Cycle::new(2));
        assert_eq!(Cycle::new(1).max(Cycle::new(2)), Cycle::new(2));
        assert_eq!(Cycle::new(1).min(Cycle::new(2)), Cycle::new(1));
    }

    #[test]
    fn display_and_conversion() {
        assert_eq!(Cycle::new(9).to_string(), "9 cyc");
        assert_eq!(u64::from(Cycle::from(11u64)), 11);
    }
}
