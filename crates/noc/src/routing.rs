//! Source routing and multicast trees for the distribution network
//! (Section 3.1.2).
//!
//! "Since the topology is binary-tree based, input data is source
//! routed, with a bit to choose between the left and right paths at
//! each switch." A unicast route is therefore a bit string from the
//! root; a multicast is the union of the destinations' routes — the
//! set of simple switches where replication happens falls out of the
//! union's branching points. This module computes both, and counts the
//! per-level link usage a transfer occupies (which is what the chubby
//! profile must cover).

use crate::topology::{BinaryTree, NodeId};

/// A source route from the root to one leaf: one bit per level,
/// `false` = left child, `true` = right child.
///
/// # Example
///
/// ```
/// use maeri_noc::routing::unicast_route;
/// use maeri_noc::BinaryTree;
///
/// let tree = BinaryTree::with_leaves(8)?;
/// // Leaf 5 = right, left, right from the root.
/// assert_eq!(unicast_route(&tree, 5), vec![true, false, true]);
/// # Ok::<(), maeri_sim::SimError>(())
/// ```
#[must_use]
pub fn unicast_route(tree: &BinaryTree, leaf: usize) -> Vec<bool> {
    assert!(leaf < tree.num_leaves(), "leaf {leaf} out of range");
    let depth = tree.levels() - 1;
    (0..depth)
        .map(|level| (leaf >> (depth - 1 - level)) & 1 == 1)
        .collect()
}

/// The set of tree nodes a multicast to `leaves` traverses, and the
/// switches at which the value is replicated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MulticastTree {
    /// Every node the value visits (including the root and the
    /// destination leaves).
    pub nodes: Vec<NodeId>,
    /// Internal nodes whose both children are visited — where the
    /// simple switches replicate the value.
    pub replication_points: Vec<NodeId>,
    /// Links used per level (index = level of the link's child end).
    pub links_per_level: Vec<usize>,
}

impl MulticastTree {
    /// Total links occupied.
    #[must_use]
    pub fn total_links(&self) -> usize {
        self.links_per_level.iter().sum()
    }
}

/// Builds the multicast tree reaching every leaf in `leaves`
/// (duplicates are ignored).
///
/// # Panics
///
/// Panics if `leaves` is empty or any index is out of range.
#[must_use]
pub fn multicast_tree(tree: &BinaryTree, leaves: &[usize]) -> MulticastTree {
    assert!(!leaves.is_empty(), "multicast needs at least one leaf");
    let mut visited = std::collections::BTreeSet::new();
    for &leaf in leaves {
        let mut node = tree.leaf_node(leaf);
        while visited.insert(node) {
            match tree.parent(node) {
                Some(parent) => node = parent,
                None => break,
            }
        }
    }
    let mut replication_points = Vec::new();
    for &node in &visited {
        if let Some((l, r)) = tree.children(node) {
            if visited.contains(&l) && visited.contains(&r) {
                replication_points.push(node);
            }
        }
    }
    let mut links_per_level = vec![0usize; tree.levels()];
    for &node in &visited {
        if node != 0 {
            links_per_level[tree.level_of(node)] += 1;
        }
    }
    MulticastTree {
        nodes: visited.into_iter().collect(),
        replication_points,
        links_per_level,
    }
}

/// Whether a set of simultaneous transfers fits the chubby profile:
/// per level, the summed link usage must not exceed the level's
/// aggregate bandwidth.
#[must_use]
pub fn fits_chubby(chubby: &crate::ChubbyTree, transfers: &[MulticastTree]) -> bool {
    let levels = chubby.tree().levels();
    for level in 1..levels {
        let used: usize = transfers
            .iter()
            .map(|t| t.links_per_level.get(level).copied().unwrap_or(0))
            .sum();
        // Each distinct link is one word wide times the chubby factor;
        // transfers sharing a link would conflict, so the conservative
        // check is total used links against total provisioned width.
        if used > chubby.level_aggregate_bandwidth(level) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChubbyTree;

    fn tree(leaves: usize) -> BinaryTree {
        BinaryTree::with_leaves(leaves).unwrap()
    }

    #[test]
    fn unicast_routes_are_binary_expansion() {
        let t = tree(16);
        assert_eq!(unicast_route(&t, 0), vec![false; 4]);
        assert_eq!(unicast_route(&t, 15), vec![true; 4]);
        assert_eq!(unicast_route(&t, 10), vec![true, false, true, false]);
    }

    #[test]
    fn route_reaches_the_right_leaf() {
        // Walking the tree by the route bits lands on the leaf.
        let t = tree(64);
        for leaf in 0..64 {
            let mut node = 0;
            for bit in unicast_route(&t, leaf) {
                let (l, r) = t.children(node).unwrap();
                node = if bit { r } else { l };
            }
            assert_eq!(t.leaf_index(node), leaf);
        }
    }

    #[test]
    fn unicast_multicast_consistency() {
        let t = tree(32);
        let m = multicast_tree(&t, &[13]);
        // A unicast occupies one link per level.
        assert!(m.links_per_level[1..].iter().all(|&l| l == 1));
        assert!(m.replication_points.is_empty());
        assert_eq!(m.total_links(), t.levels() - 1);
    }

    #[test]
    fn broadcast_visits_everything() {
        let t = tree(16);
        let all: Vec<usize> = (0..16).collect();
        let m = multicast_tree(&t, &all);
        assert_eq!(m.nodes.len(), t.num_nodes());
        // Every internal node replicates.
        assert_eq!(m.replication_points.len(), t.num_internal());
        assert_eq!(m.total_links(), t.num_nodes() - 1);
    }

    #[test]
    fn adjacent_pair_replicates_at_lca() {
        let t = tree(16);
        let m = multicast_tree(&t, &[4, 5]);
        assert_eq!(m.replication_points, vec![t.lca_of_leaves(4, 5)]);
        // Shared path to the LCA + two leaf links.
        let lca_level = t.level_of(t.lca_of_leaves(4, 5));
        assert_eq!(m.total_links(), lca_level + 2);
    }

    #[test]
    fn duplicates_are_ignored() {
        let t = tree(8);
        let a = multicast_tree(&t, &[3, 3, 3]);
        let b = multicast_tree(&t, &[3]);
        assert_eq!(a, b);
    }

    #[test]
    fn chubby_fit_checks_level_budgets() {
        let t = tree(16);
        let chubby = ChubbyTree::new(t, 4).unwrap();
        // Four disjoint unicasts fit a 4-wide root.
        let transfers: Vec<MulticastTree> = [0usize, 5, 10, 15]
            .iter()
            .map(|&l| multicast_tree(&t, &[l]))
            .collect();
        assert!(fits_chubby(&chubby, &transfers));
        // Seventeen do not (level-1 aggregate is 4).
        let too_many: Vec<MulticastTree> = (0..16).map(|l| multicast_tree(&t, &[l])).collect();
        assert!(!fits_chubby(&chubby, &too_many));
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn empty_multicast_panics() {
        let _ = multicast_tree(&tree(8), &[]);
    }
}
