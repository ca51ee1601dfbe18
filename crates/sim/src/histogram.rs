//! Sample histograms and percentiles for trace analysis.

/// A collection of `u64` samples with summary statistics — used to
/// analyze per-iteration latencies and stall distributions from the
/// clocked simulations.
///
/// # Example
///
/// ```
/// use maeri_sim::histogram::Histogram;
///
/// let mut h = Histogram::new();
/// h.extend([1u64, 2, 2, 3, 10]);
/// assert_eq!(h.len(), 5);
/// assert_eq!(h.median(), Some(2));
/// assert_eq!(h.max(), Some(10));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        self.samples.push(sample);
        self.sorted = false;
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Minimum sample.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        self.samples.iter().copied().min()
    }

    /// Maximum sample.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }

    /// Arithmetic mean.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64)
        }
    }

    /// The `p`-th percentile (nearest-rank method), `p` in `[0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        Some(self.samples[rank.saturating_sub(1)])
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// Folds every sample of `other` into `self`, leaving `other`
    /// untouched. Merging is how windowed time-series aggregation
    /// combines a completed window with the currently-filling one
    /// without rebuilding either from scratch; the result is exactly
    /// the histogram that recording both sample streams into one
    /// instance would have produced.
    pub fn merge(&mut self, other: &Histogram) {
        if other.samples.is_empty() {
            return;
        }
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Buckets the samples into `count` equal-width ranges over
    /// `[min, max]`, returning `(range_start, samples_in_bucket)`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn buckets(&self, count: usize) -> Vec<(u64, usize)> {
        assert!(count > 0, "need at least one bucket");
        let (Some(min), Some(max)) = (self.min(), self.max()) else {
            return Vec::new();
        };
        let width = ((max - min) / count as u64 + 1).max(1);
        let mut out: Vec<(u64, usize)> = (0..count).map(|i| (min + i as u64 * width, 0)).collect();
        for &s in &self.samples {
            let idx = (((s - min) / width) as usize).min(count - 1);
            out[idx].1 += 1;
        }
        out
    }
}

impl Extend<u64> for Histogram {
    fn extend<T: IntoIterator<Item = u64>>(&mut self, iter: T) {
        self.samples.extend(iter);
        self.sorted = false;
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        let mut h = Histogram::new();
        h.extend(iter);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let mut h: Histogram = (1..=100u64).collect();
        assert_eq!(h.len(), 100);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.mean(), Some(50.5));
        assert_eq!(h.median(), Some(50));
        assert_eq!(h.percentile(99.0), Some(99));
        assert_eq!(h.percentile(100.0), Some(100));
        assert_eq!(h.percentile(0.0), Some(1));
    }

    #[test]
    fn empty_histogram() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.median(), None);
        assert!(h.buckets(4).is_empty());
    }

    #[test]
    fn percentile_after_more_records_resorts() {
        let mut h = Histogram::new();
        h.record(10);
        assert_eq!(h.median(), Some(10));
        h.record(1);
        h.record(2);
        assert_eq!(h.median(), Some(2));
    }

    #[test]
    fn buckets_cover_all_samples() {
        let h: Histogram = [1u64, 1, 2, 5, 9, 9, 9].into_iter().collect();
        let buckets = h.buckets(3);
        assert_eq!(buckets.len(), 3);
        let total: usize = buckets.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 7);
        // First bucket starts at the minimum.
        assert_eq!(buckets[0].0, 1);
    }

    #[test]
    fn constant_samples_bucket_into_one() {
        let h: Histogram = std::iter::repeat_n(7u64, 5).collect();
        let buckets = h.buckets(4);
        let total: usize = buckets.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 5);
        assert_eq!(buckets[0].1, 5);
    }

    #[test]
    fn merge_matches_recording_both_streams() {
        let mut left: Histogram = [5u64, 1, 9].into_iter().collect();
        let right: Histogram = [3u64, 7, 2, 8].into_iter().collect();
        let mut combined: Histogram = [5u64, 1, 9, 3, 7, 2, 8].into_iter().collect();
        left.merge(&right);
        assert_eq!(left.len(), 7);
        assert_eq!(left.median(), combined.median());
        assert_eq!(left.percentile(99.0), combined.percentile(99.0));
        assert_eq!(left.min(), Some(1));
        assert_eq!(left.max(), Some(9));
        // The source histogram is untouched.
        assert_eq!(right.len(), 4);
    }

    #[test]
    fn merge_resorts_a_previously_sorted_histogram() {
        let mut h: Histogram = [10u64, 20, 30].into_iter().collect();
        assert_eq!(h.median(), Some(20)); // forces the lazy sort
        h.merge(&[1u64, 2].into_iter().collect());
        assert_eq!(h.median(), Some(10), "merged samples must re-sort");
    }

    #[test]
    fn merge_with_empty_is_identity_in_both_directions() {
        let mut h: Histogram = [4u64, 6].into_iter().collect();
        let before = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, before);
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty.len(), 2);
        assert_eq!(empty.median(), Some(4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_percentile_panics() {
        let mut h: Histogram = [1u64].into_iter().collect();
        h.percentile(101.0);
    }
}
