//! Complete binary tree node arithmetic.
//!
//! Both of MAERI's networks — the distribution tree of simple switches
//! and the Augmented Reduction Tree of adder switches — are complete
//! binary trees over the multiplier switches at the leaves. This module
//! provides the shared node/level math, and enumerates the ART's
//! same-level forwarding links.

use maeri_sim::util::{is_pow2, log2};
use maeri_sim::{Result, SimError};

/// Identifier of a tree node in level-order numbering (root = 0).
pub type NodeId = usize;

/// A complete binary tree with a power-of-two number of leaves.
///
/// Nodes are numbered in level order: the root is node 0, the children
/// of node `n` are `2n + 1` and `2n + 2`. Levels are numbered from the
/// root (level 0) down to the leaves (level `levels() - 1`).
///
/// # Example
///
/// ```
/// use maeri_noc::BinaryTree;
///
/// let t = BinaryTree::with_leaves(8)?;
/// assert_eq!(t.num_nodes(), 15);
/// assert_eq!(t.parent(3), Some(1));
/// assert_eq!(t.children(0), Some((1, 2)));
/// assert_eq!(t.leaf_node(0), 7);
/// # Ok::<(), maeri_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BinaryTree {
    leaves: usize,
}

impl BinaryTree {
    /// Creates a tree over `leaves` leaf nodes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] unless `leaves` is a power of
    /// two and at least 2.
    pub fn with_leaves(leaves: usize) -> Result<Self> {
        if !is_pow2(leaves) || leaves < 2 {
            return Err(SimError::invalid_config(format!(
                "tree leaves must be a power of two >= 2, got {leaves}"
            )));
        }
        Ok(BinaryTree { leaves })
    }

    /// Number of leaves.
    #[must_use]
    pub fn num_leaves(&self) -> usize {
        self.leaves
    }

    /// Total number of nodes (`2 * leaves - 1`).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        2 * self.leaves - 1
    }

    /// Number of internal (non-leaf) nodes (`leaves - 1`).
    #[must_use]
    pub fn num_internal(&self) -> usize {
        self.leaves - 1
    }

    /// Number of levels including root and leaf levels
    /// (`log2(leaves) + 1`).
    #[must_use]
    pub fn levels(&self) -> usize {
        log2(self.leaves) as usize + 1
    }

    /// Level of a node (root is level 0).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn level_of(&self, node: NodeId) -> usize {
        assert!(node < self.num_nodes(), "node {node} out of range");
        (usize::BITS - (node + 1).leading_zeros()) as usize - 1
    }

    /// Number of nodes at a level (`2^level`).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    #[must_use]
    pub fn nodes_at_level(&self, level: usize) -> usize {
        assert!(level < self.levels(), "level {level} out of range");
        1 << level
    }

    /// The node id of the `pos`-th node (left to right) at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` or `pos` is out of range.
    #[must_use]
    pub fn node_at(&self, level: usize, pos: usize) -> NodeId {
        assert!(
            pos < self.nodes_at_level(level),
            "position {pos} out of range at level {level}"
        );
        (1 << level) - 1 + pos
    }

    /// The left-to-right position of a node within its level.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn position_in_level(&self, node: NodeId) -> usize {
        let level = self.level_of(node);
        node - ((1 << level) - 1)
    }

    /// Parent of a node, or `None` for the root.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        assert!(node < self.num_nodes(), "node {node} out of range");
        if node == 0 {
            None
        } else {
            Some((node - 1) / 2)
        }
    }

    /// Children of a node, or `None` for a leaf.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn children(&self, node: NodeId) -> Option<(NodeId, NodeId)> {
        assert!(node < self.num_nodes(), "node {node} out of range");
        if self.is_leaf(node) {
            None
        } else {
            Some((2 * node + 1, 2 * node + 2))
        }
    }

    /// Whether a node is a leaf.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        assert!(node < self.num_nodes(), "node {node} out of range");
        node >= self.leaves - 1
    }

    /// Node id of the `index`-th leaf (0-based, left to right).
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_leaves()`.
    #[must_use]
    pub fn leaf_node(&self, index: usize) -> NodeId {
        assert!(index < self.leaves, "leaf index {index} out of range");
        self.leaves - 1 + index
    }

    /// Leaf index of a leaf node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a leaf.
    #[must_use]
    pub fn leaf_index(&self, node: NodeId) -> usize {
        assert!(self.is_leaf(node), "node {node} is not a leaf");
        node - (self.leaves - 1)
    }

    /// The inclusive leaf-index range `[lo, hi]` covered by the subtree
    /// rooted at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn leaf_span(&self, node: NodeId) -> (usize, usize) {
        let level = self.level_of(node);
        let pos = self.position_in_level(node);
        let width = self.leaves >> level;
        (pos * width, pos * width + width - 1)
    }

    /// Enumerates the ART forwarding links: pairs of adjacent same-level
    /// nodes with *different parents*, at every internal level below the
    /// root. Per the paper's definition, no links exist between leaves,
    /// and siblings (same parent) are not linked.
    ///
    /// Returned as `(left_node, right_node)` pairs.
    #[must_use]
    pub fn art_forwarding_links(&self) -> Vec<(NodeId, NodeId)> {
        let mut links = Vec::new();
        // Internal levels below the root: 1 ..= levels-2 (leaf level is
        // levels-1). Adjacent positions (p, p+1) share a parent iff p is
        // even, so different-parent pairs are those with odd p.
        for level in 1..self.levels().saturating_sub(1) {
            let count = self.nodes_at_level(level);
            for pos in (1..count.saturating_sub(1)).step_by(2) {
                links.push((self.node_at(level, pos), self.node_at(level, pos + 1)));
            }
        }
        links
    }

    /// The lowest common ancestor of two leaf indices.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn lca_of_leaves(&self, a: usize, b: usize) -> NodeId {
        let mut x = self.leaf_node(a);
        let mut y = self.leaf_node(b);
        while x != y {
            if x > y {
                x = (x - 1) / 2;
            } else {
                y = (y - 1) / 2;
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_power_of_two() {
        assert!(BinaryTree::with_leaves(0).is_err());
        assert!(BinaryTree::with_leaves(1).is_err());
        assert!(BinaryTree::with_leaves(3).is_err());
        assert!(BinaryTree::with_leaves(12).is_err());
        assert!(BinaryTree::with_leaves(2).is_ok());
        assert!(BinaryTree::with_leaves(256).is_ok());
    }

    #[test]
    fn node_counts() {
        let t = BinaryTree::with_leaves(16).unwrap();
        assert_eq!(t.num_nodes(), 31);
        assert_eq!(t.num_internal(), 15);
        assert_eq!(t.levels(), 5);
        assert_eq!(t.nodes_at_level(0), 1);
        assert_eq!(t.nodes_at_level(4), 16);
    }

    #[test]
    fn parent_child_are_inverse() {
        let t = BinaryTree::with_leaves(32).unwrap();
        for node in 0..t.num_internal() {
            let (l, r) = t.children(node).unwrap();
            assert_eq!(t.parent(l), Some(node));
            assert_eq!(t.parent(r), Some(node));
        }
        assert_eq!(t.parent(0), None);
    }

    #[test]
    fn levels_consistent_with_positions() {
        let t = BinaryTree::with_leaves(8).unwrap();
        assert_eq!(t.level_of(0), 0);
        assert_eq!(t.level_of(1), 1);
        assert_eq!(t.level_of(2), 1);
        assert_eq!(t.level_of(7), 3);
        assert_eq!(t.level_of(14), 3);
        for level in 0..t.levels() {
            for pos in 0..t.nodes_at_level(level) {
                let node = t.node_at(level, pos);
                assert_eq!(t.level_of(node), level);
                assert_eq!(t.position_in_level(node), pos);
            }
        }
    }

    #[test]
    fn leaf_helpers() {
        let t = BinaryTree::with_leaves(8).unwrap();
        for i in 0..8 {
            let node = t.leaf_node(i);
            assert!(t.is_leaf(node));
            assert_eq!(t.leaf_index(node), i);
            assert_eq!(t.children(node), None);
        }
        assert!(!t.is_leaf(0));
    }

    #[test]
    fn leaf_span_of_subtrees() {
        let t = BinaryTree::with_leaves(8).unwrap();
        assert_eq!(t.leaf_span(0), (0, 7));
        assert_eq!(t.leaf_span(1), (0, 3));
        assert_eq!(t.leaf_span(2), (4, 7));
        assert_eq!(t.leaf_span(t.leaf_node(5)), (5, 5));
        assert_eq!(t.leaf_span(t.node_at(2, 1)), (2, 3));
    }

    #[test]
    fn art_links_16_leaves() {
        // 16-leaf tree: internal levels 1, 2, 3.
        // Level 1 (2 nodes): no different-parent adjacent pair.
        // Level 2 (4 nodes): one pair (positions 1-2).
        // Level 3 (8 nodes): pairs at positions (1,2), (3,4), (5,6).
        let t = BinaryTree::with_leaves(16).unwrap();
        let links = t.art_forwarding_links();
        assert_eq!(links.len(), 4);
        assert!(links.contains(&(t.node_at(2, 1), t.node_at(2, 2))));
        assert!(links.contains(&(t.node_at(3, 3), t.node_at(3, 4))));
    }

    #[test]
    fn art_links_have_different_parents_and_same_level() {
        let t = BinaryTree::with_leaves(64).unwrap();
        for (a, b) in t.art_forwarding_links() {
            assert_eq!(t.level_of(a), t.level_of(b));
            assert_ne!(t.parent(a), t.parent(b));
            assert_eq!(t.position_in_level(b), t.position_in_level(a) + 1);
            assert!(!t.is_leaf(a), "no forwarding links between leaves");
        }
    }

    #[test]
    fn art_link_count_formula() {
        // At internal level l (2^l nodes) there are 2^(l-1) - 1 links.
        for leaves in [4usize, 8, 16, 32, 64, 128] {
            let t = BinaryTree::with_leaves(leaves).unwrap();
            let expected: usize = (1..t.levels() - 1)
                .map(|l| (1usize << (l - 1)).saturating_sub(1))
                .sum();
            assert_eq!(t.art_forwarding_links().len(), expected);
        }
    }

    #[test]
    fn lca_examples() {
        let t = BinaryTree::with_leaves(8).unwrap();
        assert_eq!(t.lca_of_leaves(0, 7), 0);
        assert_eq!(t.lca_of_leaves(0, 1), t.node_at(2, 0));
        assert_eq!(t.lca_of_leaves(2, 3), t.node_at(2, 1));
        assert_eq!(t.lca_of_leaves(3, 3), t.leaf_node(3));
        assert_eq!(t.lca_of_leaves(3, 4), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_panics() {
        let _ = BinaryTree::with_leaves(4).unwrap().level_of(99);
    }
}
