//! Reduction-network utilization models (Figure 15 of the paper).
//!
//! Figure 15 compares how well three reduction networks keep 64
//! multipliers busy as the virtual-neuron (VN) size sweeps: MAERI's ART,
//! a fat tree, and four fixed 16-wide plain adder trees. The controlling
//! quantity for each network is *how many VNs of a given size it can map
//! simultaneously without link conflicts*:
//!
//! * **ART** packs VNs over any contiguous leaves (Property 1/2), so it
//!   maps `floor(N / vn)` VNs and only loses the `N mod vn` remainder
//!   leaves.
//! * A **fat tree** has no same-level forwarding links, so a reduction
//!   must occupy an aligned power-of-two subtree: each VN consumes
//!   `next_pow2(vn)` leaves.
//! * **Plain adder trees** of fixed width `w` dedicate whole trees to a
//!   VN: a VN consumes `ceil(vn / w)` entire trees.

use maeri_sim::util::{ceil_div, next_pow2};

/// Which reduction network to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ReductionKind {
    /// MAERI's Augmented Reduction Tree.
    Art,
    /// A fat (full-bandwidth) binary tree without forwarding links.
    FatTree,
    /// `count` separate plain adder trees, each `width` leaves wide.
    PlainTrees {
        /// Leaves per tree.
        width: usize,
        /// Number of independent trees.
        count: usize,
    },
}

impl ReductionKind {
    /// Display name used in reports.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            ReductionKind::Art => "ART".to_owned(),
            ReductionKind::FatTree => "Fat tree".to_owned(),
            ReductionKind::PlainTrees { width, count } => {
                format!("{count}x {width}-wide plain trees")
            }
        }
    }

    /// Total leaves (multipliers) available.
    ///
    /// For trees over `pes` processing elements the answer is `pes`
    /// except for plain trees, whose capacity is `width * count`.
    #[must_use]
    pub fn capacity(&self, pes: usize) -> usize {
        match self {
            ReductionKind::Art | ReductionKind::FatTree => pes,
            ReductionKind::PlainTrees { width, count } => (width * count).min(pes),
        }
    }

    /// How many VNs of `vn_size` leaves can be reduced simultaneously
    /// without sharing links, over `pes` multipliers.
    ///
    /// # Panics
    ///
    /// Panics if `vn_size` is zero or `pes` is zero.
    #[must_use]
    pub fn simultaneous_vns(&self, vn_size: usize, pes: usize) -> usize {
        assert!(vn_size > 0, "vn size must be positive");
        assert!(pes > 0, "pe count must be positive");
        match self {
            ReductionKind::Art => pes / vn_size,
            ReductionKind::FatTree => pes / next_pow2(vn_size),
            ReductionKind::PlainTrees { width, count } => {
                if vn_size <= *width {
                    // One VN per tree: the single root output blocks a
                    // second simultaneous reduction on the same tree.
                    *count
                } else {
                    let trees_per_vn = ceil_div(vn_size as u64, *width as u64) as usize;
                    count / trees_per_vn
                }
            }
        }
    }

    /// Multiplier utilization achieved at a VN size: busy multipliers
    /// over total multipliers.
    ///
    /// # Panics
    ///
    /// Panics if `vn_size` is zero, `pes` is zero, or `vn_size > pes`.
    #[must_use]
    pub fn utilization(&self, vn_size: usize, pes: usize) -> f64 {
        assert!(
            vn_size <= pes,
            "vn size {vn_size} exceeds {pes} multipliers (needs folding)"
        );
        let vns = self.simultaneous_vns(vn_size, pes);
        (vns * vn_size) as f64 / pes as f64
    }
}

/// Sweeps VN size from 2 to `pes`, returning `(vn_size, utilization)`
/// pairs — one curve of Figure 15.
#[must_use]
pub fn utilization_sweep(kind: ReductionKind, pes: usize) -> Vec<(usize, f64)> {
    (2..=pes)
        .map(|vn| (vn, kind.utilization(vn, pes)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const PES: usize = 64;
    const PLAIN: ReductionKind = ReductionKind::PlainTrees {
        width: 16,
        count: 4,
    };

    #[test]
    fn art_packs_contiguously() {
        // 64 / 5 = 12 VNs of 5 -> 60 busy multipliers.
        assert_eq!(ReductionKind::Art.simultaneous_vns(5, PES), 12);
        let util = ReductionKind::Art.utilization(5, PES);
        assert!((util - 60.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn fat_tree_equals_art_at_powers_of_two() {
        // Paper: "If the VN size is a power of 2, the Fat Tree works
        // identical to the ART".
        for vn in [2usize, 4, 8, 16, 32, 64] {
            let art = ReductionKind::Art.utilization(vn, PES);
            let fat = ReductionKind::FatTree.utilization(vn, PES);
            assert!((art - fat).abs() < 1e-12, "mismatch at vn={vn}");
            assert!((art - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fat_tree_drops_at_non_powers_of_two() {
        // VN of 5 occupies an 8-leaf subtree: 8 VNs, 40/64 busy.
        let fat = ReductionKind::FatTree.utilization(5, PES);
        assert!((fat - 40.0 / 64.0).abs() < 1e-12);
        let art = ReductionKind::Art.utilization(5, PES);
        assert!(art > fat);
        // VGG-like VN of 27 occupies a 32-leaf subtree.
        let fat27 = ReductionKind::FatTree.utilization(27, PES);
        assert!((fat27 - 54.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn plain_trees_only_full_at_tree_width() {
        // Paper: plain trees reach 100% only at VN size 16.
        assert!((PLAIN.utilization(16, PES) - 1.0).abs() < 1e-12);
        for vn in 2..16 {
            let util = PLAIN.utilization(vn, PES);
            let expected = (4 * vn) as f64 / 64.0;
            assert!((util - expected).abs() < 1e-12, "vn={vn}");
            assert!(util < 1.0);
        }
        // VN of 17 needs 2 whole trees: only 2 VNs map.
        let util17 = PLAIN.utilization(17, PES);
        assert!((util17 - 34.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn art_dominates_everywhere() {
        // Figure 15's headline: ART utilization >= the alternatives at
        // every VN size.
        for vn in 2..=PES {
            let art = ReductionKind::Art.utilization(vn, PES);
            let fat = ReductionKind::FatTree.utilization(vn, PES);
            let plain = PLAIN.utilization(vn, PES);
            assert!(art + 1e-12 >= fat, "fat beats art at vn={vn}");
            assert!(art + 1e-12 >= plain, "plain beats art at vn={vn}");
        }
    }

    #[test]
    fn art_has_high_floor() {
        // ART fluctuates only via the remainder; its worst case over
        // vn in 2..=32 at 64 PEs stays above 60%.
        let worst = (2..=32)
            .map(|vn| ReductionKind::Art.utilization(vn, PES))
            .fold(f64::INFINITY, f64::min);
        assert!(worst > 0.6, "ART worst case {worst}");
    }

    #[test]
    fn sweep_has_expected_shape() {
        let sweep = utilization_sweep(ReductionKind::Art, PES);
        assert_eq!(sweep.len(), 63);
        assert_eq!(sweep[0].0, 2);
        assert_eq!(sweep.last().unwrap().0, 64);
        assert!((sweep.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_accounts_for_plain_tree_structure() {
        assert_eq!(ReductionKind::Art.capacity(64), 64);
        assert_eq!(PLAIN.capacity(64), 64);
        let small = ReductionKind::PlainTrees {
            width: 16,
            count: 2,
        };
        assert_eq!(small.capacity(64), 32);
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            ReductionKind::Art.name(),
            ReductionKind::FatTree.name(),
            PLAIN.name(),
        ];
        assert_eq!(
            names
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            3
        );
    }

    #[test]
    #[should_panic(expected = "needs folding")]
    fn oversized_vn_panics() {
        let _ = ReductionKind::Art.utilization(65, PES);
    }
}
