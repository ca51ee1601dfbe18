//! Dense row-major `f32` tensors.

use std::fmt;

use maeri_sim::SimRng;

/// A dense, row-major `f32` tensor of arbitrary rank.
///
/// Used for synthetic inputs/weights and for the software reference
/// outputs that the accelerator simulators are validated against.
///
/// # Example
///
/// ```
/// use maeri_dnn::Tensor;
///
/// let t = Tensor::from_fn(&[2, 3], |idx| (idx[0] * 3 + idx[1]) as f32);
/// assert_eq!(t.get(&[1, 2]), 5.0);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        let len = checked_len(shape);
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor by evaluating `f` at every index.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let len = checked_len(shape);
        let mut data = Vec::with_capacity(len);
        let mut idx = vec![0usize; shape.len()];
        for _ in 0..len {
            data.push(f(&idx));
            // Odometer increment over the index vector.
            for d in (0..shape.len()).rev() {
                idx[d] += 1;
                if idx[d] < shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates a tensor with uniform random values in `[-1, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn random(shape: &[usize], rng: &mut SimRng) -> Self {
        let len = checked_len(shape);
        Tensor {
            shape: shape.to_vec(),
            data: (0..len).map(|_| rng.next_f32()).collect(),
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    #[must_use]
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let len = checked_len(shape);
        assert_eq!(
            data.len(),
            len,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always `false`: tensors cannot have zero-sized dimensions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Flat view of the data in row-major order.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Converts a multi-dimensional index to the flat offset.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of range.
    #[must_use]
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.shape.len(),
            "index rank {} does not match tensor rank {}",
            index.len(),
            self.shape.len()
        );
        let mut flat = 0usize;
        for (d, (&i, &dim)) in index.iter().zip(self.shape.iter()).enumerate() {
            assert!(i < dim, "index {i} out of range for dim {d} (size {dim})");
            flat = flat * dim + i;
        }
        flat
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let offset = self.offset(index);
        self.data[offset] = value;
    }

    /// Maximum absolute difference to another tensor; used by tests that
    /// validate simulator outputs against the software reference.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in comparison");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Fraction of elements that are exactly zero.
    #[must_use]
    pub fn zero_fraction(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|&&v| v == 0.0).count();
        zeros as f64 / self.data.len() as f64
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} ({} elements)", self.shape, self.data.len())
    }
}

fn checked_len(shape: &[usize]) -> usize {
    assert!(!shape.is_empty(), "tensor must have at least one dimension");
    shape.iter().fold(1usize, |acc, &d| {
        assert!(d > 0, "tensor dimensions must be positive, got {shape:?}");
        acc.checked_mul(d).expect("tensor size overflows usize")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_len() {
        let t = Tensor::zeros(&[3, 4, 5]);
        assert_eq!(t.shape(), &[3, 4, 5]);
        assert_eq!(t.len(), 60);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_row_major_order() {
        let t = Tensor::from_fn(&[2, 3], |idx| (idx[0] * 10 + idx[1]) as f32);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[4, 4]);
        t.set(&[2, 3], 7.5);
        assert_eq!(t.get(&[2, 3]), 7.5);
        assert_eq!(t.get(&[3, 2]), 0.0);
    }

    #[test]
    fn offset_matches_row_major() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.offset(&[0, 0, 0]), 0);
        assert_eq!(t.offset(&[0, 0, 3]), 3);
        assert_eq!(t.offset(&[0, 1, 0]), 4);
        assert_eq!(t.offset(&[1, 0, 0]), 12);
        assert_eq!(t.offset(&[1, 2, 3]), 23);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let _ = Tensor::zeros(&[2, 2]).get(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "index rank")]
    fn wrong_rank_panics() {
        let _ = Tensor::zeros(&[2, 2]).get(&[0]);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dim_panics() {
        let _ = Tensor::zeros(&[2, 0]);
    }

    #[test]
    fn random_is_deterministic() {
        let mut rng1 = SimRng::seed(9);
        let mut rng2 = SimRng::seed(9);
        let a = Tensor::random(&[8, 8], &mut rng1);
        let b = Tensor::random(&[8, 8], &mut rng2);
        assert_eq!(a, b);
    }

    #[test]
    fn from_vec_checks_len() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.get(&[1, 1]), 4.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_wrong_len_panics() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn max_abs_diff_and_zero_fraction() {
        let a = Tensor::from_vec(&[2], vec![1.0, 0.0]);
        let b = Tensor::from_vec(&[2], vec![1.5, 0.0]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert_eq!(a.zero_fraction(), 0.5);
    }
}
