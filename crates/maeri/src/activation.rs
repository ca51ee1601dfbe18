//! Activation units (Figures 1 and 3): look-up tables between the
//! ART's root and the prefetch buffer.
//!
//! The paper implements activation functions as LUTs so the reduction
//! output can be transformed on its way back to the buffer. We model a
//! piecewise-linear LUT with a configurable entry count and input
//! range; ReLU is exact, sigmoid/tanh approximate with a bounded error
//! that the tests pin.

/// Which activation function a unit implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ActivationKind {
    /// Identity (collection without transformation).
    Identity,
    /// Rectified linear unit (exact, no table needed).
    Relu,
    /// Logistic sigmoid via LUT.
    Sigmoid,
    /// Hyperbolic tangent via LUT.
    Tanh,
}

/// A piecewise-linear look-up-table activation unit.
///
/// # Example
///
/// ```
/// use maeri::activation::{ActivationKind, ActivationLut};
///
/// let lut = ActivationLut::new(ActivationKind::Sigmoid, 256, 8.0);
/// let y = lut.apply(0.0);
/// assert!((y - 0.5).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationLut {
    kind: ActivationKind,
    table: Vec<f32>,
    half_range: f32,
}

impl ActivationLut {
    /// Builds a LUT with `entries` samples covering
    /// `[-half_range, half_range]`; inputs outside clamp to the ends.
    ///
    /// # Panics
    ///
    /// Panics if `entries < 2` or `half_range` is not positive.
    #[must_use]
    pub fn new(kind: ActivationKind, entries: usize, half_range: f32) -> Self {
        assert!(entries >= 2, "a LUT needs at least two entries");
        assert!(half_range > 0.0, "half range must be positive");
        let exact = Self::exact_fn(kind);
        let table = (0..entries)
            .map(|i| {
                let x = -half_range + 2.0 * half_range * i as f32 / (entries - 1) as f32;
                exact(x)
            })
            .collect();
        ActivationLut {
            kind,
            table,
            half_range,
        }
    }

    /// The paper-flavoured default: 256-entry tables over `[-8, 8]`.
    #[must_use]
    pub fn default_for(kind: ActivationKind) -> Self {
        ActivationLut::new(kind, 256, 8.0)
    }

    /// Which function this unit implements.
    #[must_use]
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }

    /// Table entry count.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    fn exact_fn(kind: ActivationKind) -> fn(f32) -> f32 {
        match kind {
            ActivationKind::Identity => |x| x,
            ActivationKind::Relu => |x| x.max(0.0),
            ActivationKind::Sigmoid => |x| 1.0 / (1.0 + (-x).exp()),
            ActivationKind::Tanh => f32::tanh,
        }
    }

    /// The exact (non-LUT) function value, for error analysis.
    #[must_use]
    pub fn exact(&self, x: f32) -> f32 {
        Self::exact_fn(self.kind)(x)
    }

    /// Applies the activation. Identity and ReLU bypass the table
    /// (they are wires/a mux in hardware); sigmoid/tanh interpolate
    /// linearly between the two nearest entries.
    #[must_use]
    pub fn apply(&self, x: f32) -> f32 {
        match self.kind {
            ActivationKind::Identity => x,
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Sigmoid | ActivationKind::Tanh => {
                let clamped = x.clamp(-self.half_range, self.half_range);
                let pos = (clamped + self.half_range) / (2.0 * self.half_range)
                    * (self.table.len() - 1) as f32;
                let lo = pos.floor() as usize;
                let hi = (lo + 1).min(self.table.len() - 1);
                let frac = pos - lo as f32;
                self.table[lo] * (1.0 - frac) + self.table[hi] * frac
            }
        }
    }

    /// Maximum absolute LUT error over a dense sample of the range.
    #[must_use]
    pub fn max_error(&self) -> f32 {
        let samples = 10_000;
        (0..=samples)
            .map(|i| {
                let x = -self.half_range + 2.0 * self.half_range * i as f32 / samples as f32;
                (self.apply(x) - self.exact(x)).abs()
            })
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_and_identity_are_exact() {
        let relu = ActivationLut::default_for(ActivationKind::Relu);
        assert_eq!(relu.apply(-3.5), 0.0);
        assert_eq!(relu.apply(2.25), 2.25);
        let id = ActivationLut::default_for(ActivationKind::Identity);
        assert_eq!(id.apply(-7.125), -7.125);
        assert_eq!(relu.max_error(), 0.0);
    }

    #[test]
    fn sigmoid_lut_error_bounded() {
        let lut = ActivationLut::default_for(ActivationKind::Sigmoid);
        assert!(lut.max_error() < 5e-4, "error {}", lut.max_error());
        assert!((lut.apply(0.0) - 0.5).abs() < 1e-3);
        assert!(lut.apply(10.0) > 0.999); // clamps to the table edge
        assert!(lut.apply(-10.0) < 0.001);
    }

    #[test]
    fn tanh_lut_error_bounded_and_odd() {
        let lut = ActivationLut::default_for(ActivationKind::Tanh);
        assert!(lut.max_error() < 1e-3, "error {}", lut.max_error());
        for x in [-3.0f32, -1.0, -0.25, 0.25, 1.0, 3.0] {
            assert!(
                (lut.apply(x) + lut.apply(-x)).abs() < 2e-3,
                "asymmetric at {x}"
            );
        }
    }

    #[test]
    fn more_entries_reduce_error() {
        let coarse = ActivationLut::new(ActivationKind::Tanh, 32, 8.0);
        let fine = ActivationLut::new(ActivationKind::Tanh, 1024, 8.0);
        assert!(fine.max_error() < coarse.max_error() / 4.0);
    }

    #[test]
    fn monotonicity_preserved() {
        // Piecewise-linear interpolation of monotone functions stays
        // monotone — important for classification correctness.
        let lut = ActivationLut::default_for(ActivationKind::Sigmoid);
        let mut prev = f32::NEG_INFINITY;
        for i in 0..200 {
            let x = -10.0 + i as f32 * 0.1;
            let y = lut.apply(x);
            assert!(y >= prev - 1e-6, "non-monotone at {x}");
            prev = y;
        }
    }

    #[test]
    #[should_panic(expected = "at least two entries")]
    fn tiny_table_panics() {
        let _ = ActivationLut::new(ActivationKind::Sigmoid, 1, 8.0);
    }
}
