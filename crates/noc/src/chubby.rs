//! Chubby-tree bandwidth profiles (Section 3.1.1 of the paper).
//!
//! A fat tree doubles link bandwidth at every level toward the root,
//! which is infeasible on chip (a 256-leaf fat tree would need a
//! 256-ported prefetch buffer). MAERI instead sizes the *root* link to
//! the prefetch-buffer bandwidth and doubles downward only while the
//! per-link width exceeds one word; below that level every link is 1x.

use maeri_sim::util::is_pow2;
use maeri_sim::{Result, SimError};

use crate::topology::BinaryTree;

/// Bandwidth profile of a chubby tree.
///
/// `link_bandwidth(level)` is the per-link width in words/cycle for
/// links *from* level `level - 1` *to* level `level` (so level 1 holds
/// the two links leaving the root). The root itself injects or drains
/// `root_bandwidth` words/cycle.
///
/// # Example
///
/// ```
/// use maeri_noc::{BinaryTree, ChubbyTree};
///
/// let tree = BinaryTree::with_leaves(16)?;
/// let chubby = ChubbyTree::new(tree, 8)?;
/// assert_eq!(chubby.link_bandwidth(1), 4); // 8 split over 2 links
/// assert_eq!(chubby.link_bandwidth(2), 2);
/// assert_eq!(chubby.link_bandwidth(3), 1);
/// assert_eq!(chubby.link_bandwidth(4), 1); // tapered to 1x
/// # Ok::<(), maeri_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChubbyTree {
    tree: BinaryTree,
    root_bandwidth: usize,
}

impl ChubbyTree {
    /// Creates a chubby profile over `tree` with `root_bandwidth` words
    /// per cycle at the root.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] unless `root_bandwidth` is a
    /// power of two no larger than the number of leaves.
    pub fn new(tree: BinaryTree, root_bandwidth: usize) -> Result<Self> {
        if !is_pow2(root_bandwidth) {
            return Err(SimError::invalid_config(format!(
                "root bandwidth must be a power of two, got {root_bandwidth}"
            )));
        }
        if root_bandwidth > tree.num_leaves() {
            return Err(SimError::invalid_config(format!(
                "root bandwidth {root_bandwidth} exceeds leaf count {}",
                tree.num_leaves()
            )));
        }
        Ok(ChubbyTree {
            tree,
            root_bandwidth,
        })
    }

    /// The underlying tree.
    #[must_use]
    pub fn tree(&self) -> &BinaryTree {
        &self.tree
    }

    /// Words per cycle injected or drained at the root.
    #[must_use]
    pub fn root_bandwidth(&self) -> usize {
        self.root_bandwidth
    }

    /// Per-link bandwidth of links arriving at `level` (words/cycle).
    ///
    /// Halves per level from the root bandwidth and floors at 1.
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 (the root has no incoming link) or out of
    /// range.
    #[must_use]
    pub fn link_bandwidth(&self, level: usize) -> usize {
        assert!(
            level > 0 && level < self.tree.levels(),
            "link level {level} out of range"
        );
        (self.root_bandwidth >> level).max(1)
    }

    /// Aggregate bandwidth across all links arriving at `level`
    /// (`2^level` links times per-link width).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range (see [`Self::link_bandwidth`]).
    #[must_use]
    pub fn level_aggregate_bandwidth(&self, level: usize) -> usize {
        self.link_bandwidth(level) * self.tree.nodes_at_level(level)
    }

    /// The level at and below which links are 1x ("tapered").
    #[must_use]
    pub fn taper_level(&self) -> usize {
        // root_bandwidth >> level == 1 when level == log2(root_bandwidth).
        maeri_sim::util::log2(self.root_bandwidth) as usize
    }

    /// Total wire width summed over every link of the tree, in words.
    /// Used by the PPA model: chubby trees cost little more than a plain
    /// binary tree because only the top `log2(bw)` levels are wide.
    #[must_use]
    pub fn total_wire_words(&self) -> usize {
        (1..self.tree.levels())
            .map(|level| self.level_aggregate_bandwidth(level))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chubby(leaves: usize, bw: usize) -> ChubbyTree {
        ChubbyTree::new(BinaryTree::with_leaves(leaves).unwrap(), bw).unwrap()
    }

    #[test]
    fn bandwidth_halves_then_floors() {
        let c = chubby(64, 8);
        assert_eq!(c.link_bandwidth(1), 4);
        assert_eq!(c.link_bandwidth(2), 2);
        assert_eq!(c.link_bandwidth(3), 1);
        assert_eq!(c.link_bandwidth(4), 1);
        assert_eq!(c.link_bandwidth(5), 1);
        assert_eq!(c.link_bandwidth(6), 1);
    }

    #[test]
    fn aggregate_bandwidth_is_non_decreasing_downward() {
        // Above the taper the aggregate is constant (non-blocking);
        // below it the aggregate grows with the level width.
        let c = chubby(64, 8);
        let mut prev = 0;
        for level in 1..c.tree().levels() {
            let agg = c.level_aggregate_bandwidth(level);
            assert!(agg >= prev, "aggregate shrank at level {level}");
            prev = agg;
        }
        assert_eq!(c.level_aggregate_bandwidth(1), 8);
        assert_eq!(c.level_aggregate_bandwidth(3), 8);
        assert_eq!(c.level_aggregate_bandwidth(6), 64);
    }

    #[test]
    fn taper_level_matches_bandwidth_one() {
        let c = chubby(64, 8);
        assert_eq!(c.taper_level(), 3);
        assert_eq!(c.link_bandwidth(c.taper_level()), 1);
        let wide = chubby(64, 64);
        // Fully fat tree: taper only at the leaf level.
        assert_eq!(wide.taper_level(), 6);
    }

    #[test]
    fn one_x_root_is_plain_tree() {
        let c = chubby(32, 1);
        for level in 1..c.tree().levels() {
            assert_eq!(c.link_bandwidth(level), 1);
        }
        // Total wires: one word per link, 2N - 2 links.
        assert_eq!(c.total_wire_words(), 2 * 32 - 2);
    }

    #[test]
    fn rejects_bad_bandwidths() {
        let tree = BinaryTree::with_leaves(16).unwrap();
        assert!(ChubbyTree::new(tree, 0).is_err());
        assert!(ChubbyTree::new(tree, 3).is_err());
        assert!(ChubbyTree::new(tree, 32).is_err());
        assert!(ChubbyTree::new(tree, 16).is_ok());
    }

    #[test]
    fn wire_cost_grows_with_root_bandwidth() {
        let narrow = chubby(64, 2).total_wire_words();
        let medium = chubby(64, 8).total_wire_words();
        let fat = chubby(64, 64).total_wire_words();
        assert!(narrow < medium);
        assert!(medium < fat);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn root_has_no_incoming_link() {
        let _ = chubby(16, 4).link_bandwidth(0);
    }
}
