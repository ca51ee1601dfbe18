//! Invariants 1–3 and 5: static verification of a VN partition.
//!
//! [`verify_reduction`] runs the same level-by-level walk as the ART's
//! VN-construction algorithm (`maeri::art::ArtConfig::build_with_faults`,
//! Section 4.1 of the paper) — but purely symbolically: it claims links
//! and adder ports without ever materializing an operation list or
//! clocking a cycle, and reports the first conflict as a structured
//! [`VerifyError`] with the conflicting VN pair. A differential test
//! (`tests/differential.rs`) pins the two walks to each other: for every
//! partition on small fabrics and seeded samples at 64 leaves, the
//! verifier accepts exactly when the dynamic construction accepts, and
//! both sides agree on forwarding-link count, active adders, and
//! throughput slowdown.

use std::collections::{BTreeMap, BTreeSet};

use maeri::art::VnRange;
use maeri::fault::FaultPlan;
use maeri::MaeriConfig;
use maeri_noc::topology::NodeId;
use maeri_noc::{BinaryTree, ChubbyTree};

use crate::error::{Network, VerifyError};

/// Worst-case per-cycle demand on one link of a level, against the
/// chubby capacity of that level. Level 0 is the root port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelLoad {
    /// Tree level (0 = root port, `levels - 1` = leaf up-links).
    pub level: usize,
    /// Worst per-cycle word demand on one link of the level.
    pub load: u64,
    /// Words per cycle one link of the level carries.
    pub capacity: u64,
}

impl LevelLoad {
    /// Cycles one steady-state round needs on this level's worst link.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.load.div_ceil(self.capacity.max(1))
    }
}

/// What a successful reduction-forest verification proves about a VN
/// partition (invariants 1, 2, 5, plus the collection half of 3).
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionReport {
    /// VNs in the partition.
    pub num_vns: usize,
    /// Multiplier leaves covered by VNs.
    pub busy_leaves: usize,
    /// Forwarding links the reduction forest activates.
    pub forwarding_links: usize,
    /// Adder switches performing additions.
    pub active_adders: usize,
    /// Steady-state collection slowdown (`1.0` = non-blocking,
    /// Property 2 of the paper).
    pub collection_slowdown: f64,
    /// Per-level worst link load of the collection network; entry 0 is
    /// the root port (`num_vns` outputs per reduction wave).
    pub collection_loads: Vec<LevelLoad>,
}

/// A [`ReductionReport`] joined by the distribution network's per-level
/// feasibility (the other half of invariant 3).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionReport {
    /// The reduction-forest findings.
    pub reduction: ReductionReport,
    /// Per-level worst link load of the distribution tree; entry 0 is
    /// the root port (all busy leaves fed from the prefetch buffer).
    pub distribution_loads: Vec<LevelLoad>,
}

impl PartitionReport {
    /// Invariant 3 in strict form: every level of both networks must
    /// sustain full rate.
    ///
    /// The collection side demands slowdown 1.0 — every up-link and the
    /// root port fit their per-wave flows in one cycle. The
    /// distribution side demands the chubby property: no inner level
    /// may be a worse bottleneck than the root port (Section 3.1.1's
    /// argument for chubby tapering).
    ///
    /// This is deliberately *not* part of [`verify_partition`]'s
    /// accept/reject decision: a thin-root fabric (e.g. the 0.25x
    /// configuration of Figure 13) is legal and merely slower, and the
    /// dynamic checks accept it too. Callers wanting the paper's
    /// non-blocking guarantee opt in here.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::BandwidthInfeasible`] naming the first
    /// bottleneck level.
    pub fn check_bandwidth(&self) -> Result<(), VerifyError> {
        for ll in &self.reduction.collection_loads {
            if ll.load > ll.capacity {
                return Err(VerifyError::BandwidthInfeasible {
                    network: Network::Collection,
                    level: ll.level,
                    load: ll.load,
                    capacity: ll.capacity,
                });
            }
        }
        let root_rounds = self.distribution_loads.first().map_or(1, LevelLoad::rounds);
        for ll in self.distribution_loads.iter().skip(1) {
            if ll.rounds() > root_rounds {
                return Err(VerifyError::BandwidthInfeasible {
                    network: Network::Distribution,
                    level: ll.level,
                    load: ll.load,
                    capacity: ll.capacity,
                });
            }
        }
        Ok(())
    }
}

/// Mirror of the ART's per-adder port bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct NodeUse {
    addends: u8,
    lateral_in: bool,
    lateral_out: bool,
}

/// The symbolic walk state over one partition.
struct Walker<'a> {
    tree: BinaryTree,
    faults: Option<&'a FaultPlan>,
    node_uses: Vec<NodeUse>,
    /// VNs that contributed addends to each adder, for counterexamples.
    claimants: Vec<Vec<usize>>,
    /// First VN to claim each forwarding link (undirected key).
    fl_claims: BTreeMap<(NodeId, NodeId), usize>,
    forwarding_links: usize,
    /// Flow count per up-link, keyed by the child node of the link.
    edge_loads: BTreeMap<NodeId, u32>,
}

/// Statically verifies a VN partition against a fabric configuration:
/// invariants 1, 2, 5 decide acceptance; the report carries the
/// invariant-3 level loads for both networks.
///
/// Faults are materialized from the configuration's own
/// [`maeri::fault::FaultSpec`], matching what every mapper simulates.
///
/// # Errors
///
/// Returns the first [`VerifyError`] violation with its counterexample.
pub fn verify_partition(
    cfg: &MaeriConfig,
    vns: &[VnRange],
) -> Result<PartitionReport, VerifyError> {
    let plan = cfg.fault_plan();
    verify_partition_with_faults(cfg, plan.as_ref(), vns)
}

/// Like [`verify_partition`], but over an explicit (possibly absent)
/// fault plan instead of the configuration's own spec.
///
/// # Errors
///
/// Returns the first [`VerifyError`] violation with its counterexample.
pub fn verify_partition_with_faults(
    cfg: &MaeriConfig,
    faults: Option<&FaultPlan>,
    vns: &[VnRange],
) -> Result<PartitionReport, VerifyError> {
    let reduction = verify_reduction(&cfg.collection_chubby(), faults, vns)?;
    let distribution_loads = distribution_loads(&cfg.distribution_chubby(), vns);
    Ok(PartitionReport {
        reduction,
        distribution_loads,
    })
}

/// Verifies the reduction forest a VN partition induces on the ART —
/// the exact static counterpart of
/// [`maeri::art::ArtConfig::build_with_faults`].
///
/// # Errors
///
/// Returns the first [`VerifyError`] violation with its counterexample.
pub fn verify_reduction(
    collection: &ChubbyTree,
    faults: Option<&FaultPlan>,
    vns: &[VnRange],
) -> Result<ReductionReport, VerifyError> {
    let tree = *collection.tree();
    let leaves = tree.num_leaves();

    // Invariants 1 and 5: in range, pairwise disjoint, on healthy
    // leaves. Same sorted sweep as the dynamic construction.
    let mut sorted: Vec<(usize, &VnRange)> = vns.iter().enumerate().collect();
    sorted.sort_by_key(|(_, r)| r.start);
    let mut prev: Option<(usize, usize)> = None;
    for (idx, range) in &sorted {
        if range.end() > leaves {
            return Err(VerifyError::VnOutOfRange {
                vn: *idx,
                start: range.start,
                end: range.end(),
                leaves,
            });
        }
        if let Some((prev_vn, prev_end)) = prev {
            if range.start < prev_end {
                return Err(VerifyError::VnOverlap {
                    first_vn: prev_vn,
                    second_vn: *idx,
                    leaf: range.start,
                });
            }
        }
        prev = Some((*idx, range.end()));
        if let Some(plan) = faults {
            if let Some(dead) = (range.start..range.end()).find(|&l| plan.is_leaf_dead(l)) {
                return Err(VerifyError::DeadLeaf {
                    vn: *idx,
                    leaf: dead,
                });
            }
        }
    }

    // Invariant 2: the symbolic walk claims links and adder ports in
    // the same order the dynamic construction does.
    let mut walker = Walker {
        tree,
        faults,
        node_uses: vec![NodeUse::default(); tree.num_internal()],
        claimants: vec![Vec::new(); tree.num_internal()],
        fl_claims: BTreeMap::new(),
        forwarding_links: 0,
        edge_loads: BTreeMap::new(),
    };
    for (vn_idx, range) in vns.iter().enumerate() {
        walker.walk_vn(vn_idx, range)?;
    }
    for (node, usage) in walker.node_uses.iter().enumerate() {
        if usage.addends > 3 {
            let claimants = &walker.claimants[node];
            let first_vn = claimants.first().copied().unwrap_or(0);
            let second_vn = claimants
                .iter()
                .rev()
                .copied()
                .find(|&vn| vn != first_vn)
                .unwrap_or(first_vn);
            return Err(VerifyError::AdderOverloaded {
                level: tree.level_of(node),
                node,
                addends: usage.addends as usize,
                first_vn,
                second_vn,
            });
        }
    }

    // Invariant 3, collection half: worst flow per level vs. the
    // chubby capacity profile.
    let mut worst_by_level: BTreeMap<usize, u64> = BTreeMap::new();
    for (&child, &load) in &walker.edge_loads {
        let level = tree.level_of(child);
        let entry = worst_by_level.entry(level).or_insert(0);
        *entry = (*entry).max(u64::from(load));
    }
    let mut collection_loads = vec![LevelLoad {
        level: 0,
        load: vns.len() as u64,
        capacity: collection.root_bandwidth() as u64,
    }];
    let mut collection_slowdown: f64 = 1.0;
    for level in 1..tree.levels() {
        let load = worst_by_level.get(&level).copied().unwrap_or(0);
        let capacity = collection.link_bandwidth(level) as u64;
        collection_loads.push(LevelLoad {
            level,
            load,
            capacity,
        });
    }
    for ll in &collection_loads {
        collection_slowdown = collection_slowdown.max(ll.load as f64 / ll.capacity as f64);
    }

    Ok(ReductionReport {
        num_vns: vns.len(),
        busy_leaves: vns.iter().map(|r| r.len).sum(),
        forwarding_links: walker.forwarding_links,
        active_adders: walker.node_uses.iter().filter(|u| u.addends > 0).count(),
        collection_slowdown,
        collection_loads,
    })
}

/// Per-level worst busy-leaf demand of the distribution tree: a link at
/// level `l` must feed every busy leaf below it, one word per leaf per
/// full-rate step.
fn distribution_loads(distribution: &ChubbyTree, vns: &[VnRange]) -> Vec<LevelLoad> {
    let tree = distribution.tree();
    let leaves = tree.num_leaves();
    // Prefix sums of busy leaves for O(1) subtree queries.
    let mut busy_prefix = vec![0u64; leaves + 1];
    let mut busy = vec![false; leaves];
    for range in vns {
        for slot in &mut busy[range.start..range.end().min(leaves)] {
            *slot = true;
        }
    }
    for (i, &b) in busy.iter().enumerate() {
        busy_prefix[i + 1] = busy_prefix[i] + u64::from(b);
    }
    let total_busy = busy_prefix[leaves];
    let mut loads = vec![LevelLoad {
        level: 0,
        load: total_busy,
        capacity: distribution.root_bandwidth() as u64,
    }];
    for level in 1..tree.levels() {
        let mut worst = 0u64;
        for pos in 0..tree.nodes_at_level(level) {
            let (lo, hi) = tree.leaf_span(tree.node_at(level, pos));
            worst = worst.max(busy_prefix[hi + 1] - busy_prefix[lo]);
        }
        loads.push(LevelLoad {
            level,
            load: worst,
            capacity: distribution.link_bandwidth(level) as u64,
        });
    }
    loads
}

impl Walker<'_> {
    /// Adds `count` addends for `vn` at `node`, remembering the
    /// claimant for counterexamples.
    fn add_addends(&mut self, node: NodeId, count: u8, vn: usize) {
        self.node_uses[node].addends += count;
        self.claimants[node].push(vn);
    }

    /// The static counterpart of `ArtConfig::construct_vn`.
    fn walk_vn(&mut self, vn: usize, range: &VnRange) -> Result<(), VerifyError> {
        let leaf_level = self.tree.levels() - 1;
        let mut frags: Vec<usize> = (range.start..range.end()).collect();
        let mut level = leaf_level;
        while frags.len() > 1 {
            if level < leaf_level {
                frags = self.resolve_laterals(vn, level, frags)?;
            }
            let mut next: Vec<usize> = Vec::with_capacity(frags.len() / 2 + 1);
            let mut i = 0;
            while i < frags.len() {
                let pos = frags[i];
                let sibling = pos ^ 1;
                let parent_pos = pos / 2;
                let parent = self.tree.node_at(level - 1, parent_pos);
                if i + 1 < frags.len() && frags[i + 1] == sibling {
                    let a = self.tree.node_at(level, pos);
                    let b = self.tree.node_at(level, sibling);
                    self.add_addends(parent, 2, vn);
                    *self.edge_loads.entry(a).or_insert(0) += 1;
                    *self.edge_loads.entry(b).or_insert(0) += 1;
                    i += 2;
                } else {
                    let from = self.tree.node_at(level, pos);
                    *self.edge_loads.entry(from).or_insert(0) += 1;
                    i += 1;
                }
                next.push(parent_pos);
            }
            frags = next;
            level -= 1;
        }
        // Collection climb from the VN output node to the root.
        let mut node = self.tree.node_at(level, frags[0]);
        while let Some(parent) = self.tree.parent(node) {
            *self.edge_loads.entry(node).or_insert(0) += 1;
            node = parent;
        }
        Ok(())
    }

    /// The static counterpart of `ArtConfig::resolve_laterals`: the
    /// Step 1/Step 2 forwarding-link rules of Section 4.1, claiming
    /// links instead of emitting operations.
    fn resolve_laterals(
        &mut self,
        vn: usize,
        level: usize,
        frags: Vec<usize>,
    ) -> Result<Vec<usize>, VerifyError> {
        let present: BTreeSet<usize> = frags.iter().copied().collect();
        let is_lone = |pos: usize| !present.contains(&(pos ^ 1));
        let fl_partner = |pos: usize| -> Option<usize> {
            if pos % 2 == 1 {
                let p = pos + 1;
                (p < self.tree.nodes_at_level(level)).then_some(p)
            } else {
                pos.checked_sub(1)
            }
        };
        let mut removed: BTreeSet<usize> = BTreeSet::new();
        let frag_list = frags.clone();
        for &pos in &frag_list {
            if removed.contains(&pos) || !is_lone(pos) {
                continue;
            }
            let Some(partner) = fl_partner(pos) else {
                continue;
            };
            if !present.contains(&partner) || removed.contains(&partner) {
                continue;
            }
            let boundary = pos.min(partner);
            if self
                .faults
                .is_some_and(|plan| plan.is_fl_dead(level, boundary))
            {
                continue;
            }
            let left_span = frag_list
                .iter()
                .filter(|&&p| p <= boundary && !removed.contains(&p))
                .count();
            let right_span = frag_list
                .iter()
                .filter(|&&p| p > boundary && !removed.contains(&p))
                .count();
            let (from, to) = if (pos < partner && left_span <= right_span)
                || (pos > partner && right_span <= left_span)
            {
                (pos, partner)
            } else {
                continue;
            };
            let from_node = self.tree.node_at(level, from);
            let to_node = self.tree.node_at(level, to);
            if self.node_uses[to_node].addends >= 3
                || self.node_uses[to_node].lateral_in
                || self.node_uses[from_node].lateral_out
            {
                continue;
            }
            let key = (from_node.min(to_node), from_node.max(to_node));
            if let Some(&first_vn) = self.fl_claims.get(&key) {
                return Err(VerifyError::LinkClaimedTwice {
                    level,
                    from: from_node,
                    to: to_node,
                    first_vn,
                    second_vn: vn,
                });
            }
            self.fl_claims.insert(key, vn);
            self.forwarding_links += 1;
            self.node_uses[from_node].lateral_out = true;
            let to_use = &mut self.node_uses[to_node];
            to_use.lateral_in = true;
            if to_use.addends == 0 {
                to_use.addends = 2;
            } else {
                to_use.addends += 1;
            }
            self.claimants[to_node].push(vn);
            removed.insert(from);
        }
        Ok(frags.into_iter().filter(|p| !removed.contains(p)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri::art::{pack_vns, ArtConfig};

    fn chubby(leaves: usize, bw: usize) -> ChubbyTree {
        ChubbyTree::new(BinaryTree::with_leaves(leaves).unwrap(), bw).unwrap()
    }

    #[test]
    fn figure6_partition_is_non_blocking() {
        let vns = [VnRange::new(0, 5), VnRange::new(5, 5), VnRange::new(10, 5)];
        let report = verify_reduction(&chubby(16, 8), None, &vns).unwrap();
        assert_eq!(report.num_vns, 3);
        assert_eq!(report.busy_leaves, 15);
        assert!(report.forwarding_links > 0);
        assert!((report.collection_slowdown - 1.0).abs() < 1e-12);
        // Agrees with the dynamic construction on every metric.
        let art = ArtConfig::build(chubby(16, 8), &vns).unwrap();
        assert_eq!(report.forwarding_links, art.forwarding_links().len());
        assert_eq!(report.active_adders, art.active_adders());
        assert!((report.collection_slowdown - art.throughput_slowdown()).abs() < 1e-12);
    }

    #[test]
    fn overlap_reports_conflicting_pair() {
        let vns = [VnRange::new(0, 5), VnRange::new(4, 5)];
        let err = verify_reduction(&chubby(16, 8), None, &vns).unwrap_err();
        assert_eq!(
            err,
            VerifyError::VnOverlap {
                first_vn: 0,
                second_vn: 1,
                leaf: 4
            }
        );
    }

    #[test]
    fn out_of_range_reports_bounds() {
        let err = verify_reduction(&chubby(16, 8), None, &[VnRange::new(10, 8)]).unwrap_err();
        assert_eq!(
            err,
            VerifyError::VnOutOfRange {
                vn: 0,
                start: 10,
                end: 18,
                leaves: 16
            }
        );
    }

    #[test]
    fn dead_leaf_reports_vn_and_leaf() {
        use maeri::fault::{FaultPlan, FaultSpec};
        let plan = FaultPlan::materialize(FaultSpec::new(7).dead_multipliers(200), 16);
        let dead = *plan.dead_leaves().iter().next().unwrap();
        let err =
            verify_reduction(&chubby(16, 8), Some(&plan), &[VnRange::new(dead, 1)]).unwrap_err();
        assert_eq!(err, VerifyError::DeadLeaf { vn: 0, leaf: dead });
    }

    #[test]
    fn thin_root_fails_strict_bandwidth_but_verifies() {
        let cfg = MaeriConfig::builder(16)
            .distribution_bandwidth(8)
            .collection_bandwidth(1)
            .build()
            .unwrap();
        let (vns, _) = pack_vns(16, &[2; 8]);
        let report = verify_partition(&cfg, &vns).unwrap();
        assert!(report.reduction.collection_slowdown >= 8.0);
        let err = report.check_bandwidth().unwrap_err();
        assert_eq!(
            err,
            VerifyError::BandwidthInfeasible {
                network: Network::Collection,
                level: 0,
                load: 8,
                capacity: 1
            }
        );
    }

    #[test]
    fn paper_chubby_profile_passes_strict_bandwidth() {
        let cfg = MaeriConfig::paper_64();
        let (vns, _) = pack_vns(64, &[8; 8]);
        let report = verify_partition(&cfg, &vns).unwrap();
        report.check_bandwidth().unwrap();
        // The distribution root feeds all 64 leaves through an 8-wide
        // port; no inner level is a worse bottleneck (chubby property).
        assert_eq!(report.distribution_loads[0].rounds(), 8);
        for ll in &report.distribution_loads {
            assert!(ll.rounds() <= 8, "level {} over-bottlenecked", ll.level);
        }
    }
}
