//! Labelled numeric series for figure curves.
//!
//! Each figure in the paper is a set of curves (e.g. "utilization vs VN
//! size for ART / fat tree / plain trees"). [`Series`] holds one curve
//! and provides the summary statistics the paper quotes (averages,
//! speedup ratios, crossover points).

/// One labelled curve: a name plus `(x, y)` points.
///
/// # Example
///
/// ```
/// use maeri_sim::series::Series;
///
/// let mut s = Series::new("art");
/// s.push(2.0, 1.0);
/// s.push(3.0, 0.9375);
/// assert_eq!(s.len(), 2);
/// assert!(s.mean_y().unwrap() > 0.96);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    name: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with a display name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The recorded points, in insertion order.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when no points have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the y values, or `None` for an empty series.
    #[must_use]
    pub fn mean_y(&self) -> Option<f64> {
        if self.points.is_empty() {
            None
        } else {
            Some(self.points.iter().map(|&(_, y)| y).sum::<f64>() / self.points.len() as f64)
        }
    }

    /// Minimum y value, or `None` for an empty series.
    #[must_use]
    pub fn min_y(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, y)| y)
            .fold(None, |acc, y| Some(acc.map_or(y, |a: f64| a.min(y))))
    }

    /// Maximum y value, or `None` for an empty series.
    #[must_use]
    pub fn max_y(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, y)| y)
            .fold(None, |acc, y| Some(acc.map_or(y, |a: f64| a.max(y))))
    }

    /// The y value at a given x, if that exact x was recorded.
    #[must_use]
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(px, _)| (px - x).abs() < 1e-9)
            .map(|&(_, y)| y)
    }

    /// Pointwise ratio `self / other` matched by x, used for speedup
    /// curves. Points whose x has no partner, or where `other`'s y is
    /// zero, are skipped.
    #[must_use]
    pub fn ratio_to(&self, other: &Series) -> Series {
        let mut out = Series::new(format!("{}/{}", self.name, other.name));
        for &(x, y) in &self.points {
            if let Some(oy) = other.y_at(x) {
                if oy != 0.0 {
                    out.push(x, y / oy);
                }
            }
        }
        out
    }
}

impl Extend<(f64, f64)> for Series {
    fn extend<T: IntoIterator<Item = (f64, f64)>>(&mut self, iter: T) {
        self.points.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Series {
        let mut s = Series::new("s");
        s.extend([(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]);
        s
    }

    #[test]
    fn summary_stats() {
        let s = sample();
        assert_eq!(s.mean_y(), Some(4.0));
        assert_eq!(s.min_y(), Some(2.0));
        assert_eq!(s.max_y(), Some(6.0));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_series() {
        let s = Series::new("empty");
        assert!(s.is_empty());
        assert_eq!(s.mean_y(), None);
        assert_eq!(s.min_y(), None);
        assert_eq!(s.max_y(), None);
        assert_eq!(s.y_at(0.0), None);
    }

    #[test]
    fn y_at_exact_match() {
        let s = sample();
        assert_eq!(s.y_at(2.0), Some(4.0));
        assert_eq!(s.y_at(2.5), None);
    }

    #[test]
    fn ratio_to_computes_speedup() {
        let slow = sample(); // 2, 4, 6
        let mut fast = Series::new("fast");
        fast.extend([(1.0, 1.0), (2.0, 2.0), (3.0, 2.0)]);
        let speedup = slow.ratio_to(&fast);
        assert_eq!(speedup.y_at(1.0), Some(2.0));
        assert_eq!(speedup.y_at(3.0), Some(3.0));
        assert_eq!(speedup.name(), "s/fast");
    }

    #[test]
    fn ratio_skips_unmatched_and_zero() {
        let a = sample();
        let mut b = Series::new("b");
        b.push(1.0, 0.0); // zero divisor: skipped
        b.push(9.0, 1.0); // unmatched x: skipped
        let r = a.ratio_to(&b);
        assert!(r.is_empty());
    }
}
