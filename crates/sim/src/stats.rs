//! Named event counters.

use std::collections::BTreeMap;
use std::fmt;

/// A bag of named, monotonically increasing event counters.
///
/// Simulators record events (`sram_reads`, `mult_busy`, `link_hops`, ...)
/// into a `Stats` while they run; experiment harnesses read them out
/// afterwards. Counters are kept in a sorted map so reports are stable.
///
/// # Example
///
/// ```
/// use maeri_sim::Stats;
///
/// let mut stats = Stats::new();
/// stats.add("mult_busy", 27);
/// stats.incr("outputs");
/// assert_eq!(stats.get("mult_busy"), 27);
/// assert_eq!(stats.get("outputs"), 1);
/// assert_eq!(stats.get("never_recorded"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    counters: BTreeMap<String, u64>,
}

impl Stats {
    /// Creates an empty set of counters.
    #[must_use]
    pub fn new() -> Self {
        Stats::default()
    }

    /// Adds `amount` to the counter `name`, creating it if needed.
    pub fn add(&mut self, name: &str, amount: u64) {
        let entry = self.counters.entry(name.to_owned()).or_insert(0);
        *entry = entry.saturating_add(amount);
    }

    /// Adds one to the counter `name`.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Returns the value of counter `name`, or zero if never recorded.
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Returns `true` if no counter has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Number of distinct counters recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Merges another `Stats` into this one, summing matching counters.
    pub fn merge(&mut self, other: &Stats) {
        for (name, value) in other.iter() {
            self.add(name, value);
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.counters.is_empty() {
            return write!(f, "(no counters)");
        }
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{name}: {value}")?;
        }
        Ok(())
    }
}

impl<'a> Extend<(&'a str, u64)> for Stats {
    fn extend<T: IntoIterator<Item = (&'a str, u64)>>(&mut self, iter: T) {
        for (name, value) in iter {
            self.add(name, value);
        }
    }
}

impl<'a> FromIterator<(&'a str, u64)> for Stats {
    fn from_iter<T: IntoIterator<Item = (&'a str, u64)>>(iter: T) -> Self {
        let mut stats = Stats::new();
        stats.extend(iter);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut stats = Stats::new();
        stats.add("a", 3);
        stats.add("a", 4);
        assert_eq!(stats.get("a"), 7);
        assert_eq!(stats.get("b"), 0);
    }

    #[test]
    fn incr_counts_by_one() {
        let mut stats = Stats::new();
        for _ in 0..5 {
            stats.incr("events");
        }
        assert_eq!(stats.get("events"), 5);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a: Stats = [("x", 1), ("y", 2)].into_iter().collect();
        let b: Stats = [("y", 3), ("z", 4)].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 5);
        assert_eq!(a.get("z"), 4);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn iter_is_sorted_by_name() {
        let stats: Stats = [("z", 1), ("a", 2), ("m", 3)].into_iter().collect();
        let names: Vec<&str> = stats.iter().map(|(name, _)| name).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut stats = Stats::new();
        stats.add("big", u64::MAX);
        stats.add("big", 1);
        assert_eq!(stats.get("big"), u64::MAX);
    }

    #[test]
    fn display_nonempty() {
        let stats: Stats = [("a", 1)].into_iter().collect();
        assert_eq!(stats.to_string(), "a: 1");
        assert_eq!(Stats::new().to_string(), "(no counters)");
    }

    #[test]
    fn empty_and_len() {
        let mut stats = Stats::new();
        assert!(stats.is_empty());
        stats.incr("one");
        assert!(!stats.is_empty());
        assert_eq!(stats.len(), 1);
    }
}
