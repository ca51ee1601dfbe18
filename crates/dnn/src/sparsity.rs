//! Weight sparsity masks for the sparse-dataflow experiments.
//!
//! EIE and the sparse experiments in the MAERI paper (Figure 13) vary the
//! fraction of *zero weights* per filter. What matters architecturally is
//! only the per-filter count of surviving (non-zero) weights, because
//! that determines the virtual-neuron size MAERI constructs and the
//! cluster occupancy of the fixed-cluster baseline. This module
//! generates seeded masks with an exact zero fraction per filter.

use maeri_sim::SimRng;

use crate::layer::ConvLayer;
use crate::tensor::Tensor;

/// A pruning mask over a convolution layer's weights.
///
/// `mask[k][j]` is `true` when weight `j` (flattened over `C*R*S`) of
/// filter `k` is kept (non-zero).
///
/// # Example
///
/// ```
/// use maeri_dnn::{ConvLayer, WeightMask};
/// use maeri_sim::SimRng;
///
/// let layer = ConvLayer::new("c", 3, 8, 8, 4, 3, 3, 1, 1);
/// let mask = WeightMask::generate(&layer, 0.5, &mut SimRng::seed(1));
/// // 27 weights per filter; round(0.5 * 27) = 14 pruned, 13 kept.
/// for &n in mask.nonzeros_per_filter() {
///     assert_eq!(n, 13);
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightMask {
    filter_volume: usize,
    keep: Vec<Vec<bool>>,
    nonzeros: Vec<usize>,
}

impl WeightMask {
    /// Generates a mask that prunes `round(zero_fraction * filter_volume)`
    /// weights in every filter, chosen uniformly at random.
    ///
    /// # Panics
    ///
    /// Panics if `zero_fraction` is not in `[0, 1]`.
    #[must_use]
    pub fn generate(layer: &ConvLayer, zero_fraction: f64, rng: &mut SimRng) -> Self {
        assert!(
            (0.0..=1.0).contains(&zero_fraction),
            "zero fraction must be in [0, 1], got {zero_fraction}"
        );
        let volume = layer.filter_volume();
        let zeros_per_filter = ((zero_fraction * volume as f64).round() as usize).min(volume);
        let mut keep = Vec::with_capacity(layer.out_channels);
        let mut nonzeros = Vec::with_capacity(layer.out_channels);
        for _ in 0..layer.out_channels {
            let mut filter = vec![true; volume];
            for idx in rng.choose_indices(volume, zeros_per_filter) {
                filter[idx] = false;
            }
            nonzeros.push(volume - zeros_per_filter);
            keep.push(filter);
        }
        WeightMask {
            filter_volume: volume,
            keep,
            nonzeros,
        }
    }

    /// A dense (no-op) mask for the layer.
    #[must_use]
    pub fn dense(layer: &ConvLayer) -> Self {
        let volume = layer.filter_volume();
        WeightMask {
            filter_volume: volume,
            keep: vec![vec![true; volume]; layer.out_channels],
            nonzeros: vec![volume; layer.out_channels],
        }
    }

    /// Weights per (unpruned) filter.
    #[must_use]
    pub fn filter_volume(&self) -> usize {
        self.filter_volume
    }

    /// Number of filters covered by the mask.
    #[must_use]
    pub fn num_filters(&self) -> usize {
        self.keep.len()
    }

    /// Surviving weight counts per filter — the virtual-neuron sizes a
    /// sparse MAERI mapping will construct.
    #[must_use]
    pub fn nonzeros_per_filter(&self) -> &[usize] {
        &self.nonzeros
    }

    /// Whether weight `j` of filter `k` survives pruning.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `j` is out of range.
    #[must_use]
    pub fn is_kept(&self, filter: usize, weight: usize) -> bool {
        self.keep[filter][weight]
    }

    /// Total surviving weights across all filters.
    #[must_use]
    pub fn total_nonzeros(&self) -> usize {
        self.nonzeros.iter().sum()
    }

    /// Overall zero fraction actually achieved.
    #[must_use]
    pub fn zero_fraction(&self) -> f64 {
        let total = self.filter_volume * self.keep.len();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.total_nonzeros() as f64 / total as f64
    }

    /// Applies the mask to a `[K, C, R, S]` weight tensor, zeroing the
    /// pruned entries in place.
    ///
    /// # Panics
    ///
    /// Panics if the tensor shape does not match the mask.
    pub fn apply(&self, weights: &mut Tensor) {
        let shape = weights.shape().to_vec();
        assert_eq!(shape.len(), 4, "expected [K, C, R, S] weights");
        assert_eq!(shape[0], self.keep.len(), "filter count mismatch");
        assert_eq!(
            shape[1] * shape[2] * shape[3],
            self.filter_volume,
            "filter volume mismatch"
        );
        let volume = self.filter_volume;
        let data = weights.as_mut_slice();
        for (k, filter) in self.keep.iter().enumerate() {
            for (j, &kept) in filter.iter().enumerate() {
                if !kept {
                    data[k * volume + j] = 0.0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> ConvLayer {
        ConvLayer::new("c", 3, 8, 8, 4, 3, 3, 1, 0)
    }

    #[test]
    fn dense_mask_keeps_everything() {
        let mask = WeightMask::dense(&layer());
        assert_eq!(mask.total_nonzeros(), 4 * 27);
        assert_eq!(mask.zero_fraction(), 0.0);
        assert!(mask.is_kept(0, 0));
        assert_eq!(mask.num_filters(), 4);
        assert_eq!(mask.filter_volume(), 27);
    }

    #[test]
    fn exact_zero_counts() {
        let mask = WeightMask::generate(&layer(), 0.5, &mut SimRng::seed(3));
        // round(0.5 * 27) = 14 zeros -> 13 kept.
        for &n in mask.nonzeros_per_filter() {
            assert_eq!(n, 13);
        }
        let achieved = mask.zero_fraction();
        assert!((achieved - 14.0 / 27.0).abs() < 1e-9);
    }

    #[test]
    fn full_pruning_and_no_pruning() {
        let all = WeightMask::generate(&layer(), 1.0, &mut SimRng::seed(4));
        assert_eq!(all.total_nonzeros(), 0);
        let none = WeightMask::generate(&layer(), 0.0, &mut SimRng::seed(4));
        assert_eq!(none.total_nonzeros(), 4 * 27);
    }

    #[test]
    #[should_panic(expected = "zero fraction")]
    fn out_of_range_fraction_panics() {
        let _ = WeightMask::generate(&layer(), 1.5, &mut SimRng::seed(0));
    }

    #[test]
    fn deterministic_for_seed() {
        let a = WeightMask::generate(&layer(), 0.3, &mut SimRng::seed(7));
        let b = WeightMask::generate(&layer(), 0.3, &mut SimRng::seed(7));
        assert_eq!(a, b);
    }

    #[test]
    fn apply_zeroes_pruned_weights() {
        let l = layer();
        let mask = WeightMask::generate(&l, 0.5, &mut SimRng::seed(9));
        let mut weights = Tensor::from_fn(&[4, 3, 3, 3], |_| 1.0);
        mask.apply(&mut weights);
        let zeros = weights.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert_eq!(zeros, 4 * 14);
        // Kept weights untouched.
        assert!(weights.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn nonzeros_match_kept_flags() {
        let mask = WeightMask::generate(&layer(), 0.25, &mut SimRng::seed(12));
        for k in 0..mask.num_filters() {
            let counted = (0..mask.filter_volume())
                .filter(|&j| mask.is_kept(k, j))
                .count();
            assert_eq!(counted, mask.nonzeros_per_filter()[k]);
        }
    }
}
