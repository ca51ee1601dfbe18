//! Deterministic fault injection for the MAERI fabric.
//!
//! MAERI's reconfigurability argument (Section 5: irregular mappings
//! for sparsity and cross-layer fusion) applies verbatim to *hard
//! faults*: a dead multiplier switch or a broken ART link should shrink
//! the mappable region, not brick the accelerator. This module defines
//! the fault model:
//!
//! * [`FaultSpec`] — a tiny, seeded, serializable *description* of the
//!   fault state (so it rides inside [`crate::MaeriConfig`], hashes
//!   into runtime cache keys, and regenerates deterministically),
//! * [`FaultPlan`] — the materialized fault map: which multiplier
//!   leaves are dead, which adder switches are dead (killing their
//!   whole subtree for reduction purposes), which ART forwarding links
//!   are severed, plus the distribution-tree flit drop/delay knobs.
//!
//! The mappers consume [`FaultPlan::healthy_spans`] to carve virtual
//! neurons around dead leaves, and [`crate::art::ArtConfig`] consults
//! the dead-link set so no reduction is routed over a severed
//! forwarding link.

use std::collections::BTreeSet;

use maeri_sim::{Result, SimError, SimRng};

use crate::art::VnRange;

/// Scale of the `*_permille` knobs: 1000 = 100%.
pub const PERMILLE: u16 = 1000;

/// A seeded, serializable description of injected faults.
///
/// All rates are in permille (1000 = 100%) so the spec stays `Eq` and
/// `Hash` (it is embedded in [`crate::MaeriConfig`] and therefore in
/// runtime cache keys). The same spec always materializes the same
/// [`FaultPlan`].
///
/// # Example
///
/// ```
/// use maeri::fault::{FaultPlan, FaultSpec};
///
/// let spec = FaultSpec::new(42).dead_multipliers(250); // 25% dead
/// let plan = FaultPlan::materialize(spec, 64);
/// assert_eq!(plan.dead_leaves().len(), 16);
/// assert!((plan.yield_fraction() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// RNG seed used to place the faults.
    pub seed: u64,
    /// Permille of multiplier switches stuck dead.
    pub dead_mult_permille: u16,
    /// Permille of (non-root) adder switches dead; a dead adder kills
    /// its whole leaf subtree for reduction purposes.
    pub dead_adder_permille: u16,
    /// Permille of ART forwarding links severed.
    pub dead_link_permille: u16,
    /// Permille of distribution-tree flits dropped (and retransmitted).
    pub flit_drop_permille: u16,
    /// Extra delivery latency, in cycles, on every distribution set.
    pub flit_delay_cycles: u16,
}

impl FaultSpec {
    /// Creates a quiet (fault-free) spec with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultSpec {
            seed,
            ..FaultSpec::default()
        }
    }

    /// Sets the dead-multiplier rate (permille).
    #[must_use]
    pub fn dead_multipliers(mut self, permille: u16) -> Self {
        self.dead_mult_permille = permille;
        self
    }

    /// Sets the dead-adder rate (permille).
    #[must_use]
    pub fn dead_adders(mut self, permille: u16) -> Self {
        self.dead_adder_permille = permille;
        self
    }

    /// Sets the severed forwarding-link rate (permille).
    #[must_use]
    pub fn dead_forwarding_links(mut self, permille: u16) -> Self {
        self.dead_link_permille = permille;
        self
    }

    /// Sets the distribution flit drop rate (permille, must stay below
    /// 1000 to validate).
    #[must_use]
    pub fn flit_drops(mut self, permille: u16) -> Self {
        self.flit_drop_permille = permille;
        self
    }

    /// Sets the extra distribution delivery latency in cycles.
    #[must_use]
    pub fn flit_delay(mut self, cycles: u16) -> Self {
        self.flit_delay_cycles = cycles;
        self
    }

    /// Whether the spec injects no faults at all.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.dead_mult_permille == 0
            && self.dead_adder_permille == 0
            && self.dead_link_permille == 0
            && self.flit_drop_permille == 0
            && self.flit_delay_cycles == 0
    }

    /// Validates the rates.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when a dead-element rate
    /// exceeds 1000 permille or the flit drop rate reaches 1000
    /// permille (every flit dropped means nothing ever arrives).
    pub fn validate(&self) -> Result<()> {
        for (label, rate) in [
            ("dead multiplier", self.dead_mult_permille),
            ("dead adder", self.dead_adder_permille),
            ("dead forwarding-link", self.dead_link_permille),
        ] {
            if rate > PERMILLE {
                return Err(SimError::invalid_config(format!(
                    "{label} rate must be at most 1000 permille, got {rate}"
                )));
            }
        }
        if self.flit_drop_permille >= PERMILLE {
            return Err(SimError::invalid_config(format!(
                "flit drop rate must be below 1000 permille, got {}",
                self.flit_drop_permille
            )));
        }
        Ok(())
    }
}

/// The materialized fault map for one fabric size.
///
/// Materialization is deterministic: dead-element counts are exact
/// (`floor(count * permille / 1000)`) and positions come from one
/// [`SimRng`] stream seeded by [`FaultSpec::seed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    spec: FaultSpec,
    leaves: usize,
    /// Dead multiplier leaves (direct faults plus dead-adder subtrees).
    dead_leaves: BTreeSet<usize>,
    /// Dead adder switches as `(level, position)` (root is level 0).
    dead_adders: BTreeSet<(usize, usize)>,
    /// Severed ART forwarding links as `(level, boundary)` where
    /// `boundary` is the odd position on the link's left side.
    dead_links: BTreeSet<(usize, usize)>,
}

impl FaultPlan {
    /// Materializes a spec over a fabric of `leaves` multiplier
    /// switches.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is not a power of two >= 4 (enforced by
    /// [`crate::MaeriConfig`] before any plan is built).
    #[must_use]
    pub fn materialize(spec: FaultSpec, leaves: usize) -> Self {
        assert!(
            maeri_sim::util::is_pow2(leaves) && leaves >= 4,
            "fault plan needs a power-of-two fabric >= 4, got {leaves}"
        );
        let leaf_level = maeri_sim::util::log2(leaves) as usize;
        let mut rng = SimRng::seed(spec.seed);

        let mut dead_leaves: BTreeSet<usize> = BTreeSet::new();
        let mult_count = leaves * spec.dead_mult_permille as usize / PERMILLE as usize;
        dead_leaves.extend(rng.choose_indices(leaves, mult_count));

        // Every internal node except the root is an adder candidate; a
        // dead adder makes its whole leaf subtree unreachable through
        // the reduction network.
        let mut adder_candidates: Vec<(usize, usize)> = Vec::with_capacity(leaves - 2);
        for level in 1..leaf_level {
            adder_candidates.extend((0..(1usize << level)).map(|pos| (level, pos)));
        }
        let adder_count =
            adder_candidates.len() * spec.dead_adder_permille as usize / PERMILLE as usize;
        let mut dead_adders: BTreeSet<(usize, usize)> = BTreeSet::new();
        for idx in rng.choose_indices(adder_candidates.len(), adder_count) {
            let (level, pos) = adder_candidates[idx];
            dead_adders.insert((level, pos));
            let width = 1usize << (leaf_level - level);
            dead_leaves.extend(pos * width..(pos + 1) * width);
        }

        // ART forwarding links exist between same-level neighbors with
        // different parents: boundaries at odd positions.
        let mut link_candidates: Vec<(usize, usize)> = Vec::new();
        for level in 1..leaf_level {
            let nodes = 1usize << level;
            link_candidates.extend((1..nodes.saturating_sub(1)).step_by(2).map(|b| (level, b)));
        }
        let link_count =
            link_candidates.len() * spec.dead_link_permille as usize / PERMILLE as usize;
        let dead_links: BTreeSet<(usize, usize)> = rng
            .choose_indices(link_candidates.len(), link_count)
            .into_iter()
            .map(|idx| link_candidates[idx])
            .collect();

        FaultPlan {
            spec,
            leaves,
            dead_leaves,
            dead_adders,
            dead_links,
        }
    }

    /// The spec this plan was materialized from.
    #[must_use]
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// Fabric size the plan covers.
    #[must_use]
    pub fn num_leaves(&self) -> usize {
        self.leaves
    }

    /// Dead multiplier leaves (direct faults plus dead-adder subtrees).
    #[must_use]
    pub fn dead_leaves(&self) -> &BTreeSet<usize> {
        &self.dead_leaves
    }

    /// Dead adder switches as `(level, position)`.
    #[must_use]
    pub fn dead_adders(&self) -> &BTreeSet<(usize, usize)> {
        &self.dead_adders
    }

    /// Severed forwarding links as `(level, boundary)` keys.
    #[must_use]
    pub fn dead_links(&self) -> &BTreeSet<(usize, usize)> {
        &self.dead_links
    }

    /// Whether leaf `leaf` is unusable.
    #[must_use]
    pub fn is_leaf_dead(&self, leaf: usize) -> bool {
        self.dead_leaves.contains(&leaf)
    }

    /// Whether the forwarding link at `(level, boundary)` is severed
    /// (`boundary` is the odd position on the link's left side).
    #[must_use]
    pub fn is_fl_dead(&self, level: usize, boundary: usize) -> bool {
        self.dead_links.contains(&(level, boundary))
    }

    /// Number of usable multiplier leaves.
    #[must_use]
    pub fn healthy_leaves(&self) -> usize {
        self.leaves - self.dead_leaves.len()
    }

    /// Fraction of multiplier leaves still usable.
    #[must_use]
    pub fn yield_fraction(&self) -> f64 {
        self.healthy_leaves() as f64 / self.leaves as f64
    }

    /// Maximal contiguous runs of healthy leaves, left to right. The
    /// mappers pack virtual neurons into these spans; an empty result
    /// means nothing is mappable.
    #[must_use]
    pub fn healthy_spans(&self) -> Vec<VnRange> {
        let mut spans = Vec::new();
        let mut run_start: Option<usize> = None;
        for leaf in 0..self.leaves {
            if self.dead_leaves.contains(&leaf) {
                if let Some(start) = run_start.take() {
                    spans.push(VnRange::new(start, leaf - start));
                }
            } else if run_start.is_none() {
                run_start = Some(leaf);
            }
        }
        if let Some(start) = run_start {
            spans.push(VnRange::new(start, self.leaves - start));
        }
        spans
    }

    /// Length of the longest contiguous healthy span (the largest
    /// unfolded virtual neuron the degraded fabric supports).
    #[must_use]
    pub fn max_span_len(&self) -> usize {
        self.healthy_spans()
            .iter()
            .map(|s| s.len)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn materialization_is_deterministic() {
        let spec = FaultSpec::new(7)
            .dead_multipliers(200)
            .dead_adders(100)
            .dead_forwarding_links(150);
        let a = FaultPlan::materialize(spec, 64);
        let b = FaultPlan::materialize(spec, 64);
        assert_eq!(a, b);
        let other = FaultPlan::materialize(FaultSpec::new(8).dead_multipliers(200), 64);
        assert_ne!(a.dead_leaves(), other.dead_leaves());
    }

    #[test]
    fn dead_counts_are_exact() {
        let plan = FaultPlan::materialize(FaultSpec::new(1).dead_multipliers(250), 64);
        assert_eq!(plan.dead_leaves().len(), 16);
        assert_eq!(plan.healthy_leaves(), 48);
        // 62 non-root adders at 10%: exactly 6 dead.
        let adders = FaultPlan::materialize(FaultSpec::new(1).dead_adders(100), 64);
        assert_eq!(adders.dead_adders().len(), 6);
    }

    #[test]
    fn dead_adder_kills_its_subtree() {
        let plan = FaultPlan::materialize(FaultSpec::new(3).dead_adders(50), 64);
        for &(level, pos) in plan.dead_adders() {
            let width = 1usize << (6 - level);
            for leaf in pos * width..(pos + 1) * width {
                assert!(plan.is_leaf_dead(leaf), "adder ({level},{pos}) leaf {leaf}");
            }
        }
    }

    #[test]
    fn healthy_spans_partition_the_healthy_leaves() {
        let plan = FaultPlan::materialize(FaultSpec::new(5).dead_multipliers(300), 64);
        let spans = plan.healthy_spans();
        let covered: usize = spans.iter().map(|s| s.len).sum();
        assert_eq!(covered, plan.healthy_leaves());
        for span in &spans {
            for leaf in span.start..span.end() {
                assert!(!plan.is_leaf_dead(leaf));
            }
            // Maximal: the neighbors on both sides are dead or edges.
            assert!(span.start == 0 || plan.is_leaf_dead(span.start - 1));
            assert!(span.end() == 64 || plan.is_leaf_dead(span.end()));
        }
        assert_eq!(
            plan.max_span_len(),
            spans.iter().map(|s| s.len).max().unwrap()
        );
    }

    #[test]
    fn total_death_leaves_no_spans() {
        let plan = FaultPlan::materialize(FaultSpec::new(0).dead_multipliers(1000), 16);
        assert!(plan.healthy_spans().is_empty());
        assert_eq!(plan.max_span_len(), 0);
        assert_eq!(plan.yield_fraction(), 0.0);
    }

    #[test]
    fn quiet_spec_is_fault_free() {
        let spec = FaultSpec::new(99);
        assert!(spec.is_quiet());
        let plan = FaultPlan::materialize(spec, 32);
        assert!(plan.dead_leaves().is_empty());
        assert!(plan.dead_links().is_empty());
        assert_eq!(plan.healthy_spans(), vec![VnRange::new(0, 32)]);
        assert_eq!(plan.yield_fraction(), 1.0);
    }

    #[test]
    fn dead_links_are_valid_boundaries() {
        let plan = FaultPlan::materialize(FaultSpec::new(11).dead_forwarding_links(1000), 64);
        assert!(!plan.dead_links().is_empty());
        for &(level, boundary) in plan.dead_links() {
            assert!((1..6).contains(&level));
            assert_eq!(boundary % 2, 1);
            assert!(boundary + 1 < (1usize << level));
            assert!(plan.is_fl_dead(level, boundary));
        }
    }

    #[test]
    fn spec_validation_bounds_rates() {
        assert!(FaultSpec::new(0).dead_multipliers(1000).validate().is_ok());
        assert!(FaultSpec::new(0).dead_multipliers(1001).validate().is_err());
        assert!(FaultSpec::new(0).dead_adders(1500).validate().is_err());
        assert!(FaultSpec::new(0)
            .dead_forwarding_links(1200)
            .validate()
            .is_err());
        assert!(FaultSpec::new(0).flit_drops(999).validate().is_ok());
        assert!(FaultSpec::new(0).flit_drops(1000).validate().is_err());
        assert!(FaultSpec::new(0).flit_delay(9).validate().is_ok());
    }
}
