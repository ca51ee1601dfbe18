//! Analytical NoC area/power comparison (Figure 16 of the paper).
//!
//! Figure 16 plots post-synthesis area and power versus provisioned NoC
//! bandwidth for MAERI's trees against a mesh, a crossbar, and a bus.
//! The absolute numbers in the paper come from TSMC 28 nm synthesis; we
//! reproduce the *shape* with a component-level analytical model whose
//! constants are first-order 28 nm estimates (word = 16 bits, 200 MHz).
//!
//! The qualitative claims that must hold (and are asserted by the test
//! suite, and regenerated by `figure16`):
//!
//! * MAERI's trees are by far the cheapest at every bandwidth point,
//! * the bus is cheap at low bandwidth but scales linearly with the
//!   number of parallel buses needed,
//! * the mesh pays a large constant router overhead,
//! * the crossbar explodes quadratically at high bandwidth.

use crate::chubby::ChubbyTree;
use crate::topology::BinaryTree;

/// Area (µm²) and power (mW) of one NoC configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocPpa {
    /// Silicon area in µm².
    pub area_um2: f64,
    /// Power at 200 MHz in mW.
    pub power_mw: f64,
}

/// 28 nm first-order component constants (16-bit datapath).
mod cost {
    /// Area of one wire track per word per unit "hop" (µm²).
    pub const WIRE_AREA_PER_WORD_HOP: f64 = 18.0;
    /// Dynamic power of one word-wide hop at 200 MHz (mW).
    pub const WIRE_POWER_PER_WORD_HOP: f64 = 0.012;
    /// Bufferless 1:2 simple switch (demux + select) area (µm²).
    pub const SIMPLE_SWITCH_AREA: f64 = 65.0;
    /// Simple switch power (mW).
    pub const SIMPLE_SWITCH_POWER: f64 = 0.01;
    /// Adder-switch *routing* portion (the adder itself is compute and
    /// is not charged to the NoC) (µm²).
    pub const ADDER_SWITCH_ROUTE_AREA: f64 = 140.0;
    /// Adder-switch routing power (mW).
    pub const ADDER_SWITCH_ROUTE_POWER: f64 = 0.02;
    /// One crossbar crosspoint per word (µm²).
    pub const XBAR_CROSSPOINT_AREA: f64 = 95.0;
    /// Crosspoint power (mW).
    pub const XBAR_CROSSPOINT_POWER: f64 = 0.015;
    /// Mesh router fixed overhead: 5-port control, allocators (µm²).
    pub const MESH_ROUTER_BASE_AREA: f64 = 2_600.0;
    /// Mesh router base power (mW).
    pub const MESH_ROUTER_BASE_POWER: f64 = 0.55;
    /// Mesh router per-word-of-channel-width area: buffers + crossbar
    /// slice (µm²).
    pub const MESH_ROUTER_PER_WORD_AREA: f64 = 1_450.0;
    /// Mesh per-word router power (mW).
    pub const MESH_ROUTER_PER_WORD_POWER: f64 = 0.26;
    /// Bus arbiter area per attached terminal (µm²).
    pub const BUS_ARBITER_PER_PORT_AREA: f64 = 55.0;
    /// Bus arbiter per-port power (mW).
    pub const BUS_ARBITER_PER_PORT_POWER: f64 = 0.012;
}

/// The NoC designs compared in Figure 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum NocKind {
    /// MAERI's distribution tree + ART pair with chubby links.
    MaeriTrees,
    /// A 2-D mesh of 5-port routers.
    Mesh,
    /// A full crossbar between the prefetch buffer and the terminals.
    Crossbar,
    /// One or more shared buses (replicated to reach the bandwidth).
    Bus,
    /// Eyeriss-style hierarchy: a global bus feeding row buses of
    /// `sqrt(N)` terminals each (separate scatter and gather copies).
    HierarchicalBus,
}

impl NocKind {
    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            NocKind::MaeriTrees => "MAERI trees",
            NocKind::Mesh => "Mesh",
            NocKind::Crossbar => "Crossbar",
            NocKind::Bus => "Bus",
            NocKind::HierarchicalBus => "Hierarchical bus",
        }
    }

    /// Area/power of this NoC connecting `terminals` endpoints with an
    /// aggregate injection bandwidth of `bandwidth` words/cycle.
    ///
    /// # Panics
    ///
    /// Panics if `terminals` is not a power of two >= 2, or if
    /// `bandwidth` is zero or exceeds `terminals`.
    #[must_use]
    pub fn ppa(&self, terminals: usize, bandwidth: usize) -> NocPpa {
        assert!(
            maeri_sim::util::is_pow2(terminals) && terminals >= 2,
            "terminals must be a power of two >= 2, got {terminals}"
        );
        assert!(
            bandwidth >= 1 && bandwidth <= terminals,
            "bandwidth must be in 1..={terminals}, got {bandwidth}"
        );
        match self {
            NocKind::MaeriTrees => maeri_trees_ppa(terminals, bandwidth),
            NocKind::Mesh => mesh_ppa(terminals, bandwidth),
            NocKind::Crossbar => crossbar_ppa(terminals, bandwidth),
            NocKind::Bus => bus_ppa(terminals, bandwidth),
            NocKind::HierarchicalBus => hierarchical_bus_ppa(terminals, bandwidth),
        }
    }
}

fn maeri_trees_ppa(terminals: usize, bandwidth: usize) -> NocPpa {
    let tree = BinaryTree::with_leaves(terminals).expect("validated power of two");
    let bw = bandwidth.next_power_of_two().min(terminals);
    let chubby = ChubbyTree::new(tree, bw).expect("validated bandwidth");
    // Two trees (distribution + ART), each with chubby wiring; one
    // simple switch per distribution node, one adder-switch routing
    // stage per ART node, plus leaf/ART forwarding links (one word each).
    let wire_words = 2 * chubby.total_wire_words();
    let fl_count = (terminals - 1) + tree.art_forwarding_links().len();
    let area = wire_words as f64 * cost::WIRE_AREA_PER_WORD_HOP
        + fl_count as f64 * cost::WIRE_AREA_PER_WORD_HOP
        + tree.num_internal() as f64 * cost::SIMPLE_SWITCH_AREA
        + tree.num_internal() as f64 * cost::ADDER_SWITCH_ROUTE_AREA;
    let power = wire_words as f64 * cost::WIRE_POWER_PER_WORD_HOP
        + fl_count as f64 * cost::WIRE_POWER_PER_WORD_HOP
        + tree.num_internal() as f64 * cost::SIMPLE_SWITCH_POWER
        + tree.num_internal() as f64 * cost::ADDER_SWITCH_ROUTE_POWER;
    NocPpa {
        area_um2: area,
        power_mw: power,
    }
}

fn mesh_ppa(terminals: usize, bandwidth: usize) -> NocPpa {
    // Square-ish mesh; channel width scales with the demanded aggregate
    // bandwidth over the bisection.
    let side = (terminals as f64).sqrt().ceil();
    let channel_words = ((bandwidth as f64) / side).ceil().max(1.0);
    let routers = terminals as f64;
    // ~4 unit-length links per router at `channel_words` width.
    let wire_words = routers * 4.0 * channel_words;
    let area = routers
        * (cost::MESH_ROUTER_BASE_AREA + channel_words * cost::MESH_ROUTER_PER_WORD_AREA)
        + wire_words * cost::WIRE_AREA_PER_WORD_HOP;
    let power = routers
        * (cost::MESH_ROUTER_BASE_POWER + channel_words * cost::MESH_ROUTER_PER_WORD_POWER)
        + wire_words * cost::WIRE_POWER_PER_WORD_HOP;
    NocPpa {
        area_um2: area,
        power_mw: power,
    }
}

fn crossbar_ppa(terminals: usize, bandwidth: usize) -> NocPpa {
    // A crossbar is all-to-all by construction: N x N crosspoints
    // regardless of how much bandwidth is actually exercised, with the
    // datapath widened as the provisioned bandwidth grows.
    let width_scale = 1.0 + bandwidth as f64 / 8.0;
    let crosspoints = (terminals * terminals) as f64 * width_scale;
    let wire_words = (terminals + bandwidth) as f64 * (terminals as f64).sqrt();
    let area = crosspoints * cost::XBAR_CROSSPOINT_AREA + wire_words * cost::WIRE_AREA_PER_WORD_HOP;
    let power =
        crosspoints * cost::XBAR_CROSSPOINT_POWER + wire_words * cost::WIRE_POWER_PER_WORD_HOP;
    NocPpa {
        area_um2: area,
        power_mw: power,
    }
}

fn bus_ppa(terminals: usize, bandwidth: usize) -> NocPpa {
    // Each bus carries one word/cycle; `bandwidth` parallel buses, each
    // spanning all terminals with a per-port arbiter tap.
    let buses = bandwidth as f64;
    let span = terminals as f64;
    let area =
        buses * (span * cost::WIRE_AREA_PER_WORD_HOP + span * cost::BUS_ARBITER_PER_PORT_AREA);
    let power =
        buses * (span * cost::WIRE_POWER_PER_WORD_HOP + span * cost::BUS_ARBITER_PER_PORT_POWER);
    NocPpa {
        area_um2: area,
        power_mw: power,
    }
}

fn hierarchical_bus_ppa(terminals: usize, bandwidth: usize) -> NocPpa {
    // Eyeriss-style: a global bus spans sqrt(N) row buses, each row bus
    // spans sqrt(N) terminals; scatter and gather are separate copies.
    // Bandwidth scales by widening the global bus.
    let side = (terminals as f64).sqrt().ceil();
    let global_words = (bandwidth as f64).max(1.0);
    let per_copy_area = global_words * side * cost::WIRE_AREA_PER_WORD_HOP
        + side * (side * cost::WIRE_AREA_PER_WORD_HOP + side * cost::BUS_ARBITER_PER_PORT_AREA)
        + side * cost::BUS_ARBITER_PER_PORT_AREA;
    let per_copy_power = global_words * side * cost::WIRE_POWER_PER_WORD_HOP
        + side * (side * cost::WIRE_POWER_PER_WORD_HOP + side * cost::BUS_ARBITER_PER_PORT_POWER)
        + side * cost::BUS_ARBITER_PER_PORT_POWER;
    NocPpa {
        area_um2: 2.0 * per_copy_area,
        power_mw: 2.0 * per_copy_power,
    }
}

/// Convenience: all five NoCs evaluated at one design point.
#[must_use]
pub fn compare_all(terminals: usize, bandwidth: usize) -> Vec<(NocKind, NocPpa)> {
    [
        NocKind::MaeriTrees,
        NocKind::Bus,
        NocKind::HierarchicalBus,
        NocKind::Mesh,
        NocKind::Crossbar,
    ]
    .into_iter()
    .map(|kind| (kind, kind.ppa(terminals, bandwidth)))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 64;

    #[test]
    fn maeri_is_cheaper_than_mesh_and_crossbar_at_every_bandwidth() {
        for bw in [1usize, 2, 4, 8, 16, 32, 64] {
            let maeri = NocKind::MaeriTrees.ppa(N, bw);
            for kind in [NocKind::Mesh, NocKind::Crossbar] {
                let other = kind.ppa(N, bw);
                assert!(
                    maeri.area_um2 < other.area_um2,
                    "{} area beat MAERI at bw={bw}",
                    kind.name()
                );
                assert!(
                    maeri.power_mw < other.power_mw,
                    "{} power beat MAERI at bw={bw}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn maeri_beats_replicated_buses_at_high_bandwidth() {
        // A single bus is cheaper than two full trees, but providing
        // tree-class bandwidth requires replicating buses, which loses.
        let single_bus = NocKind::Bus.ppa(N, 1);
        let maeri_low = NocKind::MaeriTrees.ppa(N, 1);
        assert!(single_bus.area_um2 < maeri_low.area_um2);
        for bw in [8usize, 16, 32, 64] {
            let bus = NocKind::Bus.ppa(N, bw);
            let maeri = NocKind::MaeriTrees.ppa(N, bw);
            assert!(
                maeri.area_um2 < bus.area_um2,
                "bus area beat MAERI at bw={bw}"
            );
        }
    }

    #[test]
    fn crossbar_scales_worst() {
        // At full bandwidth the crossbar should be the most expensive.
        let at_full = compare_all(N, N);
        let (max_kind, _) = at_full
            .iter()
            .max_by(|a, b| a.1.area_um2.total_cmp(&b.1.area_um2))
            .unwrap();
        assert_eq!(*max_kind, NocKind::Crossbar);
    }

    #[test]
    fn all_monotonic_in_bandwidth() {
        for kind in [
            NocKind::MaeriTrees,
            NocKind::Mesh,
            NocKind::Crossbar,
            NocKind::Bus,
            NocKind::HierarchicalBus,
        ] {
            let mut prev_area = 0.0;
            for bw in [1usize, 2, 4, 8, 16, 32, 64] {
                let ppa = kind.ppa(N, bw);
                assert!(
                    ppa.area_um2 >= prev_area,
                    "{} area not monotonic at bw={bw}",
                    kind.name()
                );
                prev_area = ppa.area_um2;
            }
        }
    }

    #[test]
    fn all_monotonic_in_terminals() {
        for kind in [
            NocKind::MaeriTrees,
            NocKind::Mesh,
            NocKind::Crossbar,
            NocKind::Bus,
            NocKind::HierarchicalBus,
        ] {
            let small = kind.ppa(32, 8);
            let large = kind.ppa(256, 8);
            assert!(small.area_um2 < large.area_um2, "{}", kind.name());
            assert!(small.power_mw < large.power_mw, "{}", kind.name());
        }
    }

    #[test]
    fn bus_cheaper_than_mesh_at_low_bandwidth() {
        // The classic tradeoff: a single bus undercuts a mesh, but
        // replicating buses to high bandwidth erodes the advantage.
        let bus = NocKind::Bus.ppa(N, 1);
        let mesh = NocKind::Mesh.ppa(N, 1);
        assert!(bus.area_um2 < mesh.area_um2);
    }

    #[test]
    fn maeri_overhead_is_small_fraction_of_crossbar() {
        // Paper: "The overhead of the NoC design in MAERI is minimal
        // compared to mesh or crossbar."
        let maeri = NocKind::MaeriTrees.ppa(N, 8);
        let xbar = NocKind::Crossbar.ppa(N, 8);
        let mesh = NocKind::Mesh.ppa(N, 8);
        assert!(maeri.area_um2 < 0.25 * xbar.area_um2);
        assert!(maeri.area_um2 < 0.25 * mesh.area_um2);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be in")]
    fn zero_bandwidth_panics() {
        let _ = NocKind::Bus.ppa(16, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_terminals_panics() {
        let _ = NocKind::Mesh.ppa(48, 4);
    }

    #[test]
    fn compare_all_returns_five() {
        let all = compare_all(64, 8);
        assert_eq!(all.len(), 5);
        assert!(all
            .iter()
            .all(|(_, p)| p.area_um2 > 0.0 && p.power_mw > 0.0));
    }
}
