//! The Augmented Reduction Tree (ART) and virtual-neuron construction.
//!
//! The ART (Section 3.2) is a binary adder tree augmented with
//! forwarding links (FLs) between adjacent same-level nodes that have
//! different parents, plus chubby (wide) links near the root. Mapping a
//! dataflow onto MAERI means partitioning the multiplier switches into
//! contiguous *virtual neurons* (VNs) and configuring the adder switches
//! so each VN's partial sums reduce without interfering — the
//! VN-construction algorithm of Section 4.1.
//!
//! [`ArtConfig::build`] runs that algorithm. It produces, per VN, an
//! ordered operation list that can be *replayed on real values*
//! ([`ArtConfig::reduce`]), plus structural bookkeeping: the mode of
//! every adder switch, which FLs were activated in which direction, and
//! the per-link flow load. The flow load against the chubby capacity
//! profile yields [`ArtConfig::throughput_slowdown`] — 1.0 means fully
//! non-blocking (Property 2); thinner links (e.g. the 0.25x
//! configuration of Figure 13) yield a proportional slowdown.

use std::collections::{BTreeMap, BTreeSet};

use maeri_noc::topology::NodeId;
use maeri_noc::{BinaryTree, ChubbyTree};
use maeri_sim::{Result, SimError};

use crate::fault::FaultPlan;
use crate::switch::AdderMode;

/// A virtual neuron: a contiguous run of multiplier-switch leaves.
///
/// # Example
///
/// ```
/// use maeri::art::VnRange;
///
/// let vn = VnRange::new(5, 9); // leaves 5..=13
/// assert_eq!(vn.end(), 14);
/// assert!(vn.contains(13));
/// assert!(!vn.contains(14));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VnRange {
    /// First leaf index.
    pub start: usize,
    /// Number of leaves.
    pub len: usize,
}

impl VnRange {
    /// Creates a range covering `len` leaves starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    #[must_use]
    pub fn new(start: usize, len: usize) -> Self {
        assert!(len > 0, "virtual neuron must cover at least one leaf");
        VnRange { start, len }
    }

    /// One past the last covered leaf.
    #[must_use]
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// Whether the range covers `leaf`.
    #[must_use]
    pub fn contains(&self, leaf: usize) -> bool {
        leaf >= self.start && leaf < self.end()
    }
}

/// One step of a VN's reduction, replayable on values.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    /// Adder switch `node` combines the fragments currently held at
    /// `children` (its in-VN children) into one fragment at `node`.
    Combine { node: NodeId, children: Vec<NodeId> },
    /// A lone fragment moves up unchanged from `from` to its parent.
    Up { from: NodeId, to: NodeId },
    /// A fragment moves over a forwarding link from `from` into the
    /// fragment already held at `to` (the receiving switch performs the
    /// extra addition — 3:1 ADD or ADD-plus-forward).
    Lateral { from: NodeId, to: NodeId },
}

/// An activated forwarding link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlActivation {
    /// Tree level of both endpoints.
    pub level: usize,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node (performs the extra addition).
    pub to: NodeId,
    /// Which VN uses the link.
    pub vn: usize,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct NodeUse {
    /// Inputs consumed by this switch's adder (0, 2 or 3).
    addends: u8,
    /// Values routed through without being added, saturating: only
    /// 0, 1 and "two or more" matter to [`ArtConfig::adder_mode`], and
    /// a root can pass one value per leaf.
    passes: u8,
    /// Whether the switch receives a lateral input.
    lateral_in: bool,
    /// Whether the switch sends its output laterally.
    lateral_out: bool,
}

/// A fully constructed ART configuration for one set of VNs.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtConfig {
    tree: BinaryTree,
    chubby: ChubbyTree,
    vns: Vec<VnRange>,
    ops: Vec<Vec<Op>>,
    output_nodes: Vec<NodeId>,
    node_uses: Vec<NodeUse>,
    fl_activations: Vec<FlActivation>,
    /// Flow count per up-link, keyed by the child node of the link.
    edge_loads: BTreeMap<NodeId, u32>,
    /// Severed forwarding links as `(level, boundary)` keys; the
    /// construction walk climbs through the parent instead of using
    /// these.
    dead_fls: BTreeSet<(usize, usize)>,
}

impl ArtConfig {
    /// Runs the VN-construction algorithm over disjoint leaf ranges.
    ///
    /// `chubby` describes the collection network's bandwidth profile;
    /// it bounds nothing during construction but determines
    /// [`Self::throughput_slowdown`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unmappable`] when ranges overlap or fall
    /// outside the tree, and propagates invalid-config errors.
    pub fn build(chubby: ChubbyTree, vns: &[VnRange]) -> Result<Self> {
        Self::build_with_faults(chubby, vns, None)
    }

    /// Like [`Self::build`], but over a degraded fabric: ranges must
    /// avoid dead multiplier leaves, and severed forwarding links are
    /// never activated (the lone fragment climbs through its parent
    /// instead).
    ///
    /// Dead adder switches need no special handling here: a dead adder
    /// marks its entire leaf subtree dead in the [`FaultPlan`], so a
    /// valid range can never route a fragment through one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unmappable`] when ranges overlap, fall
    /// outside the tree, or cover a faulty leaf.
    pub fn build_with_faults(
        chubby: ChubbyTree,
        vns: &[VnRange],
        faults: Option<&FaultPlan>,
    ) -> Result<Self> {
        let tree = *chubby.tree();
        let leaves = tree.num_leaves();
        if let Some(plan) = faults {
            debug_assert_eq!(plan.num_leaves(), leaves, "fault plan / tree mismatch");
        }
        // Validate: in range, pairwise disjoint, and on healthy leaves.
        let mut sorted: Vec<(usize, &VnRange)> = vns.iter().enumerate().collect();
        sorted.sort_by_key(|(_, r)| r.start);
        let mut prev_end = 0usize;
        for (_, range) in &sorted {
            if range.end() > leaves {
                return Err(SimError::unmappable(format!(
                    "virtual neuron {}..{} exceeds {} leaves",
                    range.start,
                    range.end(),
                    leaves
                )));
            }
            if range.start < prev_end {
                return Err(SimError::unmappable(format!(
                    "virtual neuron at leaf {} overlaps the previous one",
                    range.start
                )));
            }
            prev_end = range.end();
            if let Some(plan) = faults {
                if let Some(dead) = (range.start..range.end()).find(|&l| plan.is_leaf_dead(l)) {
                    return Err(SimError::unmappable(format!(
                        "virtual neuron {}..{} covers faulty multiplier switch {dead}",
                        range.start,
                        range.end()
                    )));
                }
            }
        }

        let mut config = ArtConfig {
            tree,
            chubby,
            vns: vns.to_vec(),
            ops: Vec::with_capacity(vns.len()),
            output_nodes: Vec::with_capacity(vns.len()),
            node_uses: vec![NodeUse::default(); tree.num_internal()],
            fl_activations: Vec::new(),
            edge_loads: BTreeMap::new(),
            dead_fls: faults.map(|p| p.dead_links().clone()).unwrap_or_default(),
        };
        for (vn_idx, range) in vns.iter().enumerate() {
            config.construct_vn(vn_idx, range);
        }
        config.check_link_exclusivity()?;
        Ok(config)
    }

    /// The VN-construction walk for one range (Section 4.1): fragments
    /// rise level by level; lone fragments prefer an active forwarding
    /// link toward the VN interior over climbing through an otherwise
    /// idle parent.
    fn construct_vn(&mut self, vn_idx: usize, range: &VnRange) {
        let leaf_level = self.tree.levels() - 1;
        let mut ops = Vec::new();
        // Fragment positions at the current level.
        let mut frags: Vec<usize> = (range.start..range.end()).collect();
        let mut level = leaf_level;
        while frags.len() > 1 {
            debug_assert!(level > 0, "multiple fragments cannot reach the root");
            // Lateral resolution: only internal levels have FLs.
            if level < leaf_level {
                frags = self.resolve_laterals(vn_idx, level, frags, &mut ops);
            }
            // Pair fragments up to their parents.
            let mut next: Vec<usize> = Vec::with_capacity(frags.len() / 2 + 1);
            let mut i = 0;
            while i < frags.len() {
                let pos = frags[i];
                let sibling = pos ^ 1;
                let parent_pos = pos / 2;
                let parent = self.tree.node_at(level - 1, parent_pos);
                if i + 1 < frags.len() && frags[i + 1] == sibling {
                    // Both children present: 2:1 add at the parent.
                    let a = self.tree.node_at(level, pos);
                    let b = self.tree.node_at(level, sibling);
                    ops.push(Op::Combine {
                        node: parent,
                        children: vec![a, b],
                    });
                    self.node_uses[parent].addends += 2;
                    *self.edge_loads.entry(a).or_insert(0) += 1;
                    *self.edge_loads.entry(b).or_insert(0) += 1;
                    i += 2;
                } else {
                    // Lone fragment: pass through the parent.
                    let from = self.tree.node_at(level, pos);
                    ops.push(Op::Up { from, to: parent });
                    let usage = &mut self.node_uses[parent];
                    usage.passes = usage.passes.saturating_add(1);
                    *self.edge_loads.entry(from).or_insert(0) += 1;
                    i += 1;
                }
                next.push(parent_pos);
            }
            frags = next;
            level -= 1;
        }
        // Single fragment left: the VN output. Collection from here to
        // the root rides the chubby links; record the loads.
        let out_pos = frags[0];
        let output_node = self.tree.node_at(level, out_pos);
        let mut node = output_node;
        while let Some(parent) = self.tree.parent(node) {
            *self.edge_loads.entry(node).or_insert(0) += 1;
            let usage = &mut self.node_uses[parent];
            usage.passes = usage.passes.saturating_add(1);
            node = parent;
        }
        self.ops.push(ops);
        self.output_nodes.push(output_node);
    }

    /// Applies the Step 1/Step 2 forwarding-link rules among the lone
    /// fragments at one level, returning the surviving fragments.
    fn resolve_laterals(
        &mut self,
        vn_idx: usize,
        level: usize,
        frags: Vec<usize>,
        ops: &mut Vec<Op>,
    ) -> Vec<usize> {
        let present: std::collections::BTreeSet<usize> = frags.iter().copied().collect();
        let is_lone = |pos: usize| !present.contains(&(pos ^ 1));
        // The FL partner of `pos`: links exist between (odd, odd + 1).
        let fl_partner = |pos: usize| -> Option<usize> {
            if pos % 2 == 1 {
                let p = pos + 1;
                (p < self.tree.nodes_at_level(level)).then_some(p)
            } else {
                pos.checked_sub(1)
            }
        };
        let mut removed: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
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
            // Step 1: direction from the smaller span to the larger.
            // Span = fragments on each side of the FL boundary.
            let boundary = pos.min(partner);
            // A severed link is never activated: the fragment climbs
            // through its parent instead (graceful degradation).
            if self.dead_fls.contains(&(level, boundary)) {
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
                // Step 2: the partner side would need its parent anyway;
                // keep this fragment climbing instead.
                continue;
            };
            // Only merge if the receiver keeps an addend slot free
            // (at most 3:1) and neither endpoint already uses its FL.
            let from_node = self.tree.node_at(level, from);
            let to_node = self.tree.node_at(level, to);
            if self.node_uses[to_node].addends >= 3
                || self.node_uses[to_node].lateral_in
                || self.node_uses[from_node].lateral_out
            {
                continue;
            }
            ops.push(Op::Lateral {
                from: from_node,
                to: to_node,
            });
            self.fl_activations.push(FlActivation {
                level,
                from: from_node,
                to: to_node,
                vn: vn_idx,
            });
            self.node_uses[from_node].lateral_out = true;
            let to_use = &mut self.node_uses[to_node];
            to_use.lateral_in = true;
            // The receiver's adder absorbs one extra addend; if it was
            // a pure passthrough it becomes a 2:1 add (child + lateral).
            if to_use.addends == 0 {
                to_use.addends = 2;
                to_use.passes = to_use.passes.saturating_sub(1);
            } else {
                to_use.addends += 1;
            }
            removed.insert(from);
        }
        frags.into_iter().filter(|p| !removed.contains(p)).collect()
    }

    /// Verifies that no forwarding link is claimed twice and no adder
    /// switch exceeds its port budget.
    fn check_link_exclusivity(&self) -> Result<()> {
        let mut seen = std::collections::BTreeSet::new();
        for fl in &self.fl_activations {
            let key = (fl.from.min(fl.to), fl.from.max(fl.to));
            if !seen.insert(key) {
                return Err(SimError::unmappable(format!(
                    "forwarding link between nodes {} and {} claimed twice",
                    key.0, key.1
                )));
            }
        }
        for (node, usage) in self.node_uses.iter().enumerate() {
            if usage.addends > 3 {
                return Err(SimError::unmappable(format!(
                    "adder switch {node} would need {} addends",
                    usage.addends
                )));
            }
        }
        Ok(())
    }

    /// The configured VN ranges.
    #[must_use]
    pub fn vns(&self) -> &[VnRange] {
        &self.vns
    }

    /// The tree skeleton.
    #[must_use]
    pub fn tree(&self) -> &BinaryTree {
        &self.tree
    }

    /// Node where each VN's final sum becomes available (before
    /// collection to the root).
    #[must_use]
    pub fn output_nodes(&self) -> &[NodeId] {
        &self.output_nodes
    }

    /// Activated forwarding links.
    #[must_use]
    pub fn forwarding_links(&self) -> &[FlActivation] {
        &self.fl_activations
    }

    /// The static mode of an adder switch under this configuration.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an internal node.
    #[must_use]
    pub fn adder_mode(&self, node: NodeId) -> AdderMode {
        assert!(
            node < self.tree.num_internal(),
            "node {node} is not an adder switch"
        );
        let usage = self.node_uses[node];
        match (usage.addends, usage.passes) {
            (0, 0) => AdderMode::Idle,
            (0, 1) => AdderMode::ForwardOne,
            (0, _) => AdderMode::ForwardTwo,
            (2, 0) => AdderMode::AddTwo,
            (3, 0) => AdderMode::AddThree,
            (_, _) => AdderMode::AddOneForwardOne,
        }
    }

    /// Number of adder switches performing additions.
    #[must_use]
    pub fn active_adders(&self) -> usize {
        self.node_uses.iter().filter(|u| u.addends > 0).count()
    }

    /// Reports this configuration's adder-fabric usage to a telemetry
    /// sink as one [`ArtConfigured`] event (a no-op for a disabled
    /// sink).
    ///
    /// [`ArtConfigured`]: maeri_telemetry::TraceEvent::ArtConfigured
    pub fn probe_configuration<S: maeri_telemetry::TraceSink>(&self, sink: &mut S) {
        sink.emit(|| maeri_telemetry::TraceEvent::ArtConfigured {
            active_adders: self.active_adders() as u64,
            forward_links: self.forwarding_links().len() as u64,
        });
    }

    /// Number of multiplier leaves covered by VNs.
    #[must_use]
    pub fn busy_leaves(&self) -> usize {
        self.vns.iter().map(|r| r.len).sum()
    }

    /// Leaf utilization: covered leaves over total leaves.
    #[must_use]
    pub fn leaf_utilization(&self) -> f64 {
        self.busy_leaves() as f64 / self.tree.num_leaves() as f64
    }

    /// Steady-state throughput slowdown from link contention: the worst
    /// ratio of per-cycle flows to link capacity over every up-link and
    /// the root port. `1.0` means fully non-blocking.
    #[must_use]
    pub fn throughput_slowdown(&self) -> f64 {
        let mut worst: f64 = 1.0;
        for (&child, &load) in &self.edge_loads {
            let level = self.tree.level_of(child);
            let capacity = self.chubby.link_bandwidth(level) as f64;
            worst = worst.max(load as f64 / capacity);
        }
        // Root port: every VN output leaves through the root.
        let root_load = self.vns.len() as f64;
        worst = worst.max(root_load / self.chubby.root_bandwidth() as f64);
        worst
    }

    /// Replays the configuration on multiplier outputs, returning one
    /// sum per VN (in the order the VNs were supplied to [`Self::build`]).
    ///
    /// # Panics
    ///
    /// Panics if `leaf_values.len()` differs from the leaf count.
    #[must_use]
    pub fn reduce(&self, leaf_values: &[f32]) -> Vec<f32> {
        self.reduce_with(leaf_values, |a, b| a + b)
    }

    /// Replays with the comparator configured instead of the adder
    /// (POOL layers, Section 4.4): returns one max per VN.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_values.len()` differs from the leaf count.
    #[must_use]
    pub fn reduce_max(&self, leaf_values: &[f32]) -> Vec<f32> {
        self.reduce_with(leaf_values, f32::max)
    }

    fn reduce_with(&self, leaf_values: &[f32], combine: impl Fn(f32, f32) -> f32) -> Vec<f32> {
        assert_eq!(
            leaf_values.len(),
            self.tree.num_leaves(),
            "expected one value per multiplier switch"
        );
        let mut outputs = Vec::with_capacity(self.vns.len());
        for (vn_idx, ops) in self.ops.iter().enumerate() {
            let mut held: BTreeMap<NodeId, f32> = BTreeMap::new();
            let range = self.vns[vn_idx];
            for (leaf, &value) in leaf_values
                .iter()
                .enumerate()
                .take(range.end())
                .skip(range.start)
            {
                held.insert(self.tree.leaf_node(leaf), value);
            }
            for op in ops {
                match op {
                    Op::Combine { node, children } => {
                        let mut acc: Option<f32> = held.remove(node);
                        for child in children {
                            let v = held
                                .remove(child)
                                .expect("combine input fragment must exist");
                            acc = Some(match acc {
                                Some(a) => combine(a, v),
                                None => v,
                            });
                        }
                        held.insert(*node, acc.expect("combine produced no value"));
                    }
                    Op::Up { from, to } => {
                        let v = held.remove(from).expect("up fragment must exist");
                        // A lateral value may already sit at the parent.
                        match held.remove(to) {
                            Some(existing) => held.insert(*to, combine(existing, v)),
                            None => held.insert(*to, v),
                        };
                    }
                    Op::Lateral { from, to } => {
                        let v = held.remove(from).expect("lateral fragment must exist");
                        match held.remove(to) {
                            Some(existing) => held.insert(*to, combine(existing, v)),
                            None => held.insert(*to, v),
                        };
                    }
                }
            }
            assert_eq!(
                held.len(),
                1,
                "reduction must leave exactly one fragment, found {held:?}"
            );
            let (&node, &value) = held.iter().next().expect("one fragment");
            debug_assert_eq!(node, self.output_nodes[vn_idx]);
            outputs.push(value);
        }
        outputs
    }
}

/// Packs VNs of the given sizes left to right over `leaves` leaves,
/// returning the ranges that fit and the sizes that did not.
///
/// This is the dense-packing policy the MAERI controller uses: VN `i`
/// starts where VN `i-1` ended (Section 4: "mapping neurons one by one
/// over the MSes").
#[must_use]
pub fn pack_vns(leaves: usize, sizes: &[usize]) -> (Vec<VnRange>, Vec<usize>) {
    let mut ranges = Vec::new();
    let mut overflow = Vec::new();
    let mut cursor = 0usize;
    for &size in sizes {
        if size == 0 {
            continue;
        }
        if cursor + size <= leaves {
            ranges.push(VnRange::new(cursor, size));
            cursor += size;
        } else {
            overflow.push(size);
        }
    }
    (ranges, overflow)
}

/// Packs VNs of the given sizes left to right into disjoint, ascending
/// healthy `spans` (see [`crate::fault::FaultPlan::healthy_spans`]),
/// returning the ranges that fit and the sizes that did not. A VN never
/// straddles a span boundary — it must sit on contiguous healthy
/// leaves.
///
/// Over a single span covering the whole array this is exactly
/// [`pack_vns`], so fault-free mappings are unchanged.
#[must_use]
pub fn pack_vns_into_spans(spans: &[VnRange], sizes: &[usize]) -> (Vec<VnRange>, Vec<usize>) {
    let mut ranges = Vec::new();
    let mut overflow = Vec::new();
    let mut span_idx = 0usize;
    let mut cursor = spans.first().map_or(0, |s| s.start);
    for &size in sizes {
        if size == 0 {
            continue;
        }
        // Look ahead for the first span position that fits; commit the
        // cursor only on success so later, smaller sizes can still be
        // placed (mirrors pack_vns's overflow behavior).
        let mut si = span_idx;
        let mut placed = None;
        while let Some(span) = spans.get(si) {
            let at = if si == span_idx {
                cursor.max(span.start)
            } else {
                span.start
            };
            if at + size <= span.end() {
                placed = Some((si, at));
                break;
            }
            si += 1;
        }
        match placed {
            Some((si, at)) => {
                ranges.push(VnRange::new(at, size));
                span_idx = si;
                cursor = at + size;
            }
            None => overflow.push(size),
        }
    }
    (ranges, overflow)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chubby(leaves: usize, bw: usize) -> ChubbyTree {
        ChubbyTree::new(BinaryTree::with_leaves(leaves).unwrap(), bw).unwrap()
    }

    fn leaf_values(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i + 1) as f32).collect()
    }

    fn direct_sum(range: &VnRange, values: &[f32]) -> f32 {
        values[range.start..range.end()].iter().sum()
    }

    #[test]
    fn single_vn_whole_tree() {
        let cfg = ArtConfig::build(chubby(16, 8), &[VnRange::new(0, 16)]).unwrap();
        let values = leaf_values(16);
        let sums = cfg.reduce(&values);
        assert_eq!(sums, vec![136.0]);
        assert_eq!(cfg.output_nodes(), &[0]);
        assert!(cfg.forwarding_links().is_empty());
        assert_eq!(cfg.active_adders(), 15);
    }

    #[test]
    fn paper_figure6_three_vns_of_five() {
        // Figure 6: three neurons of five multipliers each on 16 leaves.
        let vns = [VnRange::new(0, 5), VnRange::new(5, 5), VnRange::new(10, 5)];
        let cfg = ArtConfig::build(chubby(16, 8), &vns).unwrap();
        let values = leaf_values(16);
        let sums = cfg.reduce(&values);
        assert_eq!(sums, vec![15.0, 40.0, 65.0]);
        // Non-blocking with chubby bandwidth (Figure 6(c)/(d)).
        assert!((cfg.throughput_slowdown() - 1.0).abs() < 1e-12);
        // The middle VN straddles the tree's center boundary and needs
        // forwarding links.
        assert!(!cfg.forwarding_links().is_empty());
    }

    #[test]
    fn arbitrary_offset_vn_sums_correctly() {
        for start in 0..16usize {
            for len in 1..=(16 - start) {
                let range = VnRange::new(start, len);
                let cfg = ArtConfig::build(chubby(16, 8), &[range]).unwrap();
                let values = leaf_values(16);
                let sums = cfg.reduce(&values);
                assert_eq!(sums.len(), 1);
                let expected = direct_sum(&range, &values);
                assert!(
                    (sums[0] - expected).abs() < 1e-3,
                    "vn {start}+{len}: got {} want {expected}",
                    sums[0]
                );
            }
        }
    }

    #[test]
    fn many_disjoint_vns_all_correct() {
        // 12 VNs of 5 over 64 leaves (the Figure 15 ART case).
        let sizes = vec![5usize; 12];
        let (ranges, overflow) = pack_vns(64, &sizes);
        assert!(overflow.is_empty());
        let cfg = ArtConfig::build(chubby(64, 16), &ranges).unwrap();
        let values = leaf_values(64);
        let sums = cfg.reduce(&values);
        for (range, sum) in ranges.iter().zip(&sums) {
            assert!((sum - direct_sum(range, &values)).abs() < 1e-3);
        }
        assert_eq!(cfg.busy_leaves(), 60);
        assert!((cfg.leaf_utilization() - 60.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_vn_sizes_sum_correctly() {
        let sizes = [3usize, 7, 1, 12, 9, 2, 16, 4];
        let (ranges, overflow) = pack_vns(64, &sizes);
        assert!(overflow.is_empty());
        let cfg = ArtConfig::build(chubby(64, 8), &ranges).unwrap();
        let values: Vec<f32> = (0..64).map(|i| ((i * 7919) % 23) as f32 - 11.0).collect();
        let sums = cfg.reduce(&values);
        for (range, sum) in ranges.iter().zip(&sums) {
            assert!((sum - direct_sum(range, &values)).abs() < 1e-3);
        }
    }

    #[test]
    fn reduce_max_pools() {
        let vns = [VnRange::new(0, 4), VnRange::new(4, 9)];
        let cfg = ArtConfig::build(chubby(16, 8), &vns).unwrap();
        let values: Vec<f32> = vec![
            3.0, -1.0, 7.0, 2.0, // max 7
            5.0, 9.0, 1.0, 0.0, 4.0, 8.0, 2.0, 6.0, -3.0, // max 9
            0.0, 0.0, 0.0,
        ];
        let maxes = cfg.reduce_max(&values);
        assert_eq!(maxes, vec![7.0, 9.0]);
    }

    #[test]
    fn overlapping_vns_rejected() {
        let vns = [VnRange::new(0, 5), VnRange::new(4, 5)];
        let err = ArtConfig::build(chubby(16, 8), &vns).unwrap_err();
        assert!(err.to_string().contains("overlap"));
    }

    #[test]
    fn out_of_range_vn_rejected() {
        let err = ArtConfig::build(chubby(16, 8), &[VnRange::new(10, 8)]).unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn thin_root_slows_collection() {
        // 8 VNs of 2 over 16 leaves with a 1x root: collection is the
        // bottleneck -> slowdown = 8 outputs / 1 word per cycle.
        let sizes = vec![2usize; 8];
        let (ranges, _) = pack_vns(16, &sizes);
        let thin = ArtConfig::build(chubby(16, 1), &ranges).unwrap();
        assert!(thin.throughput_slowdown() >= 8.0);
        let wide = ArtConfig::build(chubby(16, 8), &ranges).unwrap();
        assert!(wide.throughput_slowdown() <= 2.0);
    }

    #[test]
    fn adder_modes_cover_paper_set() {
        // The Figure 6 mapping exercises adds, 3:1 adds and forwards.
        let vns = [VnRange::new(0, 5), VnRange::new(5, 5), VnRange::new(10, 5)];
        let cfg = ArtConfig::build(chubby(16, 8), &vns).unwrap();
        let modes: std::collections::BTreeSet<String> = (0..cfg.tree().num_internal())
            .map(|n| format!("{:?}", cfg.adder_mode(n)))
            .collect();
        assert!(modes.contains("AddTwo"));
        assert!(modes.len() >= 3, "expected a variety of modes: {modes:?}");
    }

    #[test]
    fn pack_vns_reports_overflow() {
        let (ranges, overflow) = pack_vns(16, &[10, 5, 4]);
        assert_eq!(ranges.len(), 2);
        assert_eq!(overflow, vec![4]);
        assert_eq!(ranges[1], VnRange::new(10, 5));
    }

    #[test]
    fn pack_vns_skips_zero_sizes() {
        let (ranges, overflow) = pack_vns(8, &[0, 3, 0, 5]);
        assert_eq!(ranges.len(), 2);
        assert!(overflow.is_empty());
        assert_eq!(ranges[0], VnRange::new(0, 3));
        assert_eq!(ranges[1], VnRange::new(3, 5));
    }

    #[test]
    fn pack_into_spans_matches_pack_vns_on_full_span() {
        let sizes = [3usize, 7, 1, 12, 9, 2, 16, 4, 30];
        let full = [VnRange::new(0, 64)];
        assert_eq!(pack_vns_into_spans(&full, &sizes), pack_vns(64, &sizes));
        let tight = [VnRange::new(0, 16)];
        assert_eq!(
            pack_vns_into_spans(&tight, &[10, 5, 4, 0, 1]),
            pack_vns(16, &[10, 5, 4, 0, 1])
        );
    }

    #[test]
    fn pack_into_spans_skips_dead_gaps() {
        // Healthy spans 0..6 and 8..16 (leaves 6 and 7 dead).
        let spans = [VnRange::new(0, 6), VnRange::new(8, 8)];
        let (ranges, overflow) = pack_vns_into_spans(&spans, &[4, 4, 4]);
        assert!(overflow.is_empty());
        // The second VN cannot straddle the dead gap at 6..8, so it
        // hops to the next healthy span.
        assert_eq!(
            ranges,
            vec![VnRange::new(0, 4), VnRange::new(8, 4), VnRange::new(12, 4)]
        );
        // A fourth VN of 4 no longer fits anywhere.
        let (ranges, overflow) = pack_vns_into_spans(&spans, &[4, 4, 4, 4]);
        assert_eq!(ranges.len(), 3);
        assert_eq!(overflow, vec![4]);
    }

    #[test]
    fn pack_into_spans_overflow_leaves_cursor_for_smaller_vns() {
        // A 7-wide VN fits nowhere, but the 2-wide one after it still
        // lands in the remaining space of the first span.
        let spans = [VnRange::new(0, 3), VnRange::new(5, 3)];
        let (ranges, overflow) = pack_vns_into_spans(&spans, &[2, 7, 2]);
        assert_eq!(overflow, vec![7]);
        assert_eq!(ranges, vec![VnRange::new(0, 2), VnRange::new(5, 2)]);
    }

    #[test]
    fn faulty_build_rejects_vn_over_dead_leaf() {
        use crate::fault::{FaultPlan, FaultSpec};
        let spec = FaultSpec::new(7).dead_multipliers(200);
        let plan = FaultPlan::materialize(spec, 16);
        let dead = *plan.dead_leaves().iter().next().unwrap();
        let err =
            ArtConfig::build_with_faults(chubby(16, 8), &[VnRange::new(dead, 1)], Some(&plan))
                .unwrap_err();
        assert!(err.to_string().contains("faulty multiplier"), "{err}");
    }

    #[test]
    fn faulty_build_sums_correctly_on_healthy_spans() {
        use crate::fault::{FaultPlan, FaultSpec};
        // Kill links too: the ART must still reduce every healthy VN
        // exactly, climbing through parents where laterals are severed.
        let spec = FaultSpec::new(11)
            .dead_multipliers(150)
            .dead_forwarding_links(300);
        let plan = FaultPlan::materialize(spec, 64);
        let spans = plan.healthy_spans();
        assert!(!spans.is_empty());
        let sizes: Vec<usize> = spans.iter().map(|s| s.len).collect();
        let (ranges, overflow) = pack_vns_into_spans(&spans, &sizes);
        assert!(overflow.is_empty());
        let cfg = ArtConfig::build_with_faults(chubby(64, 8), &ranges, Some(&plan)).unwrap();
        let values = leaf_values(64);
        let sums = cfg.reduce(&values);
        for (range, sum) in ranges.iter().zip(&sums) {
            assert!(
                (sum - direct_sum(range, &values)).abs() < 1e-3,
                "vn {}..{}: got {sum}",
                range.start,
                range.end()
            );
        }
    }

    #[test]
    fn dead_forwarding_link_is_never_activated() {
        use crate::fault::{FaultPlan, FaultSpec};
        // A VN straddling the center of a 16-leaf tree normally uses
        // forwarding links; with every link dead it must still sum
        // correctly and activate none.
        let spec = FaultSpec::new(3).dead_forwarding_links(1000);
        let plan = FaultPlan::materialize(spec, 16);
        let range = VnRange::new(5, 6);
        let cfg = ArtConfig::build_with_faults(chubby(16, 8), &[range], Some(&plan)).unwrap();
        assert!(cfg.forwarding_links().is_empty());
        let values = leaf_values(16);
        let sums = cfg.reduce(&values);
        assert!((sums[0] - direct_sum(&range, &values)).abs() < 1e-3);
    }

    #[test]
    fn vn_range_accessors() {
        let vn = VnRange::new(3, 4);
        assert_eq!(vn.end(), 7);
        assert!(vn.contains(3) && vn.contains(6));
        assert!(!vn.contains(2) && !vn.contains(7));
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn empty_vn_panics() {
        let _ = VnRange::new(0, 0);
    }
}
