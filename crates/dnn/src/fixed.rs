//! 16-bit fixed-point arithmetic — the datapath width of the paper's
//! implementation (Section 5 synthesizes 16-bit multipliers/adders).
//!
//! The simulators elsewhere use `f32` for convenience; this module
//! provides the quantized [`Fixed16`] type (Q7.8: sign, 7 integer bits,
//! 8 fraction bits) so tests can bound the accuracy a real MAERI chip
//! would deliver: quantization error per value, error growth through a
//! reduction tree, and end-to-end convolution error.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Mul, Neg, Sub};

/// A Q7.8 fixed-point number: 1 sign bit, 7 integer bits, 8 fraction
/// bits, saturating arithmetic (as hardware accumulators do).
///
/// # Example
///
/// ```
/// use maeri_dnn::fixed::Fixed16;
///
/// let a = Fixed16::from_f32(1.5);
/// let b = Fixed16::from_f32(-0.25);
/// assert_eq!((a * b).to_f32(), -0.375);
/// assert_eq!((a + b).to_f32(), 1.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fixed16(i16);

impl Fixed16 {
    /// Fraction bits.
    pub const FRAC_BITS: u32 = 8;
    /// Smallest positive step (2^-8).
    pub const EPSILON: f32 = 1.0 / 256.0;
    /// Largest representable value (~127.996).
    pub const MAX: Fixed16 = Fixed16(i16::MAX);
    /// Most negative representable value (-128.0).
    pub const MIN: Fixed16 = Fixed16(i16::MIN);
    /// Zero.
    pub const ZERO: Fixed16 = Fixed16(0);

    /// Quantizes an `f32` (round to nearest, saturating).
    #[must_use]
    pub fn from_f32(value: f32) -> Self {
        let scaled = (value * 256.0).round();
        Fixed16(scaled.clamp(f32::from(i16::MIN), f32::from(i16::MAX)) as i16)
    }

    /// Constructs from the raw two's-complement bits.
    #[must_use]
    pub const fn from_bits(bits: i16) -> Self {
        Fixed16(bits)
    }

    /// The raw two's-complement bits.
    #[must_use]
    pub const fn to_bits(self) -> i16 {
        self.0
    }

    /// Converts back to `f32` (exact: f32 has more precision).
    #[must_use]
    pub fn to_f32(self) -> f32 {
        f32::from(self.0) / 256.0
    }

    /// Saturating addition — what a hardware accumulator without
    /// overflow traps does.
    #[must_use]
    pub fn saturating_add(self, rhs: Fixed16) -> Fixed16 {
        Fixed16(self.0.saturating_add(rhs.0))
    }

    /// Fixed-point multiply: 32-bit intermediate product, rounded and
    /// saturated back to Q7.8.
    #[must_use]
    pub fn saturating_mul(self, rhs: Fixed16) -> Fixed16 {
        let wide = i32::from(self.0) * i32::from(rhs.0);
        // Round to nearest with the half bit.
        let rounded = (wide + (1 << (Self::FRAC_BITS - 1))) >> Self::FRAC_BITS;
        Fixed16(rounded.clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16)
    }

    /// Absolute quantization error of representing `value`.
    #[must_use]
    pub fn quantization_error(value: f32) -> f32 {
        (Fixed16::from_f32(value).to_f32() - value).abs()
    }
}

impl fmt::Display for Fixed16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.to_f32())
    }
}

impl From<Fixed16> for f32 {
    fn from(value: Fixed16) -> f32 {
        value.to_f32()
    }
}

impl Add for Fixed16 {
    type Output = Fixed16;
    fn add(self, rhs: Fixed16) -> Fixed16 {
        self.saturating_add(rhs)
    }
}

impl Sub for Fixed16 {
    type Output = Fixed16;
    fn sub(self, rhs: Fixed16) -> Fixed16 {
        Fixed16(self.0.saturating_sub(rhs.0))
    }
}

impl Mul for Fixed16 {
    type Output = Fixed16;
    fn mul(self, rhs: Fixed16) -> Fixed16 {
        self.saturating_mul(rhs)
    }
}

impl Neg for Fixed16 {
    type Output = Fixed16;
    fn neg(self) -> Fixed16 {
        Fixed16(self.0.saturating_neg())
    }
}

impl Sum for Fixed16 {
    fn sum<I: Iterator<Item = Fixed16>>(iter: I) -> Fixed16 {
        iter.fold(Fixed16::ZERO, Add::add)
    }
}

/// Quantized direct convolution: inputs and weights are quantized to
/// Q7.8, multiplies and the accumulation run in fixed point (the
/// hardware datapath), and the result returns as `f32`.
///
/// # Panics
///
/// Panics if tensor shapes do not match the layer.
#[must_use]
pub fn conv2d_fixed(
    layer: &crate::ConvLayer,
    input: &crate::Tensor,
    weights: &crate::Tensor,
) -> crate::Tensor {
    assert_eq!(
        input.shape(),
        &[layer.in_channels, layer.in_h, layer.in_w],
        "input shape mismatch"
    );
    assert_eq!(
        weights.shape(),
        &[
            layer.out_channels,
            layer.in_channels,
            layer.kernel_h,
            layer.kernel_w
        ],
        "weight shape mismatch"
    );
    let (p, q) = (layer.out_h(), layer.out_w());
    let mut out = crate::Tensor::zeros(&[layer.out_channels, p, q]);
    for k in 0..layer.out_channels {
        for oy in 0..p {
            for ox in 0..q {
                let mut acc = Fixed16::ZERO;
                for c in 0..layer.in_channels {
                    for r in 0..layer.kernel_h {
                        for s in 0..layer.kernel_w {
                            let iy = oy * layer.stride + r;
                            let ix = ox * layer.stride + s;
                            if iy < layer.pad || ix < layer.pad {
                                continue;
                            }
                            let (iy, ix) = (iy - layer.pad, ix - layer.pad);
                            if iy >= layer.in_h || ix >= layer.in_w {
                                continue;
                            }
                            let x = Fixed16::from_f32(input.get(&[c, iy, ix]));
                            let w = Fixed16::from_f32(weights.get(&[k, c, r, s]));
                            acc = acc + x * w;
                        }
                    }
                }
                out.set(&[k, oy, ox], acc.to_f32());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference, ConvLayer, Tensor};
    use maeri_sim::SimRng;

    #[test]
    fn roundtrip_on_grid_values_is_exact() {
        for bits in [-32768i16, -256, -1, 0, 1, 255, 256, 32767] {
            let v = Fixed16::from_bits(bits);
            assert_eq!(Fixed16::from_f32(v.to_f32()), v);
        }
    }

    #[test]
    fn quantization_error_bounded_by_half_epsilon() {
        let mut rng = SimRng::seed(1);
        for _ in 0..1000 {
            let v = rng.next_f32() * 100.0;
            assert!(Fixed16::quantization_error(v) <= Fixed16::EPSILON / 2.0 + 1e-7);
        }
    }

    #[test]
    fn arithmetic_matches_float_on_exact_values() {
        let a = Fixed16::from_f32(3.5);
        let b = Fixed16::from_f32(-2.25);
        assert_eq!((a + b).to_f32(), 1.25);
        assert_eq!((a - b).to_f32(), 5.75);
        assert_eq!((a * b).to_f32(), -7.875);
        assert_eq!((-a).to_f32(), -3.5);
    }

    #[test]
    fn saturation_at_the_rails() {
        let max = Fixed16::MAX;
        assert_eq!(max + Fixed16::from_f32(1.0), max);
        let min = Fixed16::MIN;
        assert_eq!(min + Fixed16::from_f32(-1.0), min);
        // 127.996 * 127.996 saturates rather than wrapping.
        assert_eq!(max * max, max);
    }

    #[test]
    fn sum_trait_accumulates() {
        let total: Fixed16 = (0..10).map(|i| Fixed16::from_f32(i as f32 * 0.5)).sum();
        assert_eq!(total.to_f32(), 22.5);
    }

    #[test]
    fn quantized_conv_tracks_float_reference() {
        // With [-1, 1) inputs/weights the 27-term accumulation keeps
        // well inside Q7.8 range; error stays near 27 * eps/2 per output
        // from input/weight rounding plus product rounding.
        let layer = ConvLayer::new("q", 3, 6, 6, 4, 3, 3, 1, 1);
        let mut rng = SimRng::seed(7);
        let input = Tensor::random(&[3, 6, 6], &mut rng);
        let weights = Tensor::random(&[4, 3, 3, 3], &mut rng);
        let float = reference::conv2d(&layer, &input, &weights);
        let fixed = conv2d_fixed(&layer, &input, &weights);
        let max_err = float.max_abs_diff(&fixed);
        // 27 products, each within ~eps of the float value.
        assert!(max_err < 27.0 * 2.5 * Fixed16::EPSILON, "error {max_err}");
        assert!(max_err > 0.0, "quantization should be observable");
    }

    #[test]
    fn display_and_conversion() {
        let v = Fixed16::from_f32(0.5);
        assert_eq!(v.to_string(), "0.5000");
        assert_eq!(f32::from(v), 0.5);
        assert_eq!(Fixed16::default(), Fixed16::ZERO);
    }
}
