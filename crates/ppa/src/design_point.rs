//! Accelerator design points (Table 3, Figure 11).

use crate::components::{self as c, Cost};

/// Which accelerator organization a design point models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AcceleratorKind {
    /// Eyeriss-style PEs (MAC + register file + control) on buses.
    Eyeriss,
    /// Weight-stationary systolic array of bare MACs.
    SystolicArray,
    /// MAERI: multiplier/adder switches plus tree networks.
    Maeri,
}

impl AcceleratorKind {
    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AcceleratorKind::Eyeriss => "Eyeriss",
            AcceleratorKind::SystolicArray => "Systolic Array",
            AcceleratorKind::Maeri => "MAERI",
        }
    }

    /// Cost of one processing element (compute unit plus everything
    /// that scales with it), with `local_bytes` of per-PE storage.
    #[must_use]
    pub fn per_pe_cost(&self, local_bytes: usize) -> Cost {
        match self {
            AcceleratorKind::Eyeriss => c::multiplier16()
                .plus(c::adder16())
                .plus(c::regfile_per_byte().times(local_bytes as f64))
                .plus(c::eyeriss_pe_extras()),
            AcceleratorKind::SystolicArray => c::multiplier16()
                .plus(c::adder16())
                .plus(c::systolic_pe_extras()),
            AcceleratorKind::Maeri => c::multiplier16()
                .plus(c::fifo_per_byte().times(local_bytes as f64))
                .plus(c::ms_control())
                // One adder switch per multiplier switch (N-1 ~ N),
                // plus one distribution simple switch.
                .plus(c::adder16())
                .plus(c::as_routing())
                .plus(c::simple_switch())
                .plus(c::tree_wiring_per_ms()),
        }
    }
}

/// One complete design point: array plus prefetch buffer.
///
/// # Example
///
/// ```
/// use maeri_ppa::DesignPoint;
///
/// let maeri = DesignPoint::maeri_comp_match();
/// let area = maeri.area_um2();
/// assert!((area / 1e6 - 3.84).abs() < 0.05); // Table 3: 3.84 mm²
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Organization.
    pub kind: AcceleratorKind,
    /// Number of PEs (multiplier switches for MAERI).
    pub num_pes: usize,
    /// Local storage per PE in bytes (0 for the systolic array).
    pub local_bytes: usize,
    /// Prefetch-buffer capacity in KB.
    pub pb_kb: usize,
}

impl DesignPoint {
    /// The Eyeriss reference point: 168 PEs, 512 B/PE, 108 KB buffer.
    #[must_use]
    pub fn eyeriss_baseline() -> Self {
        DesignPoint {
            kind: AcceleratorKind::Eyeriss,
            num_pes: 168,
            local_bytes: 512,
            pb_kb: 108,
        }
    }

    /// Systolic array with Eyeriss's compute count (Table 3 column 2).
    #[must_use]
    pub fn systolic_comp_match() -> Self {
        DesignPoint {
            kind: AcceleratorKind::SystolicArray,
            num_pes: 168,
            local_bytes: 0,
            pb_kb: 80,
        }
    }

    /// Systolic array grown to Eyeriss's area (Table 3 column 3).
    #[must_use]
    pub fn systolic_area_match() -> Self {
        let mut point = DesignPoint::systolic_comp_match();
        point.num_pes = point.pes_for_area(6.0e6);
        point
    }

    /// MAERI with Eyeriss's compute count (Table 3 column 4).
    #[must_use]
    pub fn maeri_comp_match() -> Self {
        DesignPoint {
            kind: AcceleratorKind::Maeri,
            num_pes: 168,
            local_bytes: 512,
            pb_kb: 80,
        }
    }

    /// MAERI grown to Eyeriss's area (Table 3 column 5).
    #[must_use]
    pub fn maeri_area_match() -> Self {
        let mut point = DesignPoint::maeri_comp_match();
        point.num_pes = point.pes_for_area(6.0e6);
        point
    }

    /// All five Table 3 design points, in the table's column order.
    #[must_use]
    pub fn table3() -> Vec<DesignPoint> {
        vec![
            DesignPoint::eyeriss_baseline(),
            DesignPoint::systolic_comp_match(),
            DesignPoint::systolic_area_match(),
            DesignPoint::maeri_comp_match(),
            DesignPoint::maeri_area_match(),
        ]
    }

    /// Total area in µm².
    #[must_use]
    pub fn area_um2(&self) -> f64 {
        self.total_cost().area_um2
    }

    /// Total power in mW at 200 MHz.
    #[must_use]
    pub fn power_mw(&self) -> f64 {
        self.total_cost().power_mw
    }

    /// Area of the PE array only (no prefetch buffer) — the quantity
    /// plotted in Figure 11(e).
    #[must_use]
    pub fn core_area_um2(&self) -> f64 {
        self.kind
            .per_pe_cost(self.local_bytes)
            .times(self.num_pes as f64)
            .area_um2
    }

    fn total_cost(&self) -> Cost {
        self.kind
            .per_pe_cost(self.local_bytes)
            .times(self.num_pes as f64)
            .plus(c::sram_per_kb().times(self.pb_kb as f64))
    }

    /// Area/power breakdown for Figure 11(a-d): `(component, cost)`.
    #[must_use]
    pub fn breakdown(&self) -> Vec<(String, Cost)> {
        let n = self.num_pes as f64;
        let mut parts: Vec<(String, Cost)> = Vec::new();
        parts.push((
            "prefetch buffer".to_owned(),
            c::sram_per_kb().times(self.pb_kb as f64),
        ));
        match self.kind {
            AcceleratorKind::Eyeriss => {
                parts.push(("multipliers".into(), c::multiplier16().times(n)));
                parts.push(("adders".into(), c::adder16().times(n)));
                parts.push((
                    "local register files".into(),
                    c::regfile_per_byte().times(self.local_bytes as f64 * n),
                ));
                parts.push(("PE control + NoC".into(), c::eyeriss_pe_extras().times(n)));
            }
            AcceleratorKind::SystolicArray => {
                parts.push(("multipliers".into(), c::multiplier16().times(n)));
                parts.push(("adders".into(), c::adder16().times(n)));
                parts.push((
                    "pipeline + control".into(),
                    c::systolic_pe_extras().times(n),
                ));
            }
            AcceleratorKind::Maeri => {
                parts.push(("multipliers".into(), c::multiplier16().times(n)));
                parts.push((
                    "local FIFOs".into(),
                    c::fifo_per_byte().times(self.local_bytes as f64 * n),
                ));
                parts.push(("adders".into(), c::adder16().times(n)));
                parts.push((
                    "switches (MS+AS+SS)".into(),
                    c::ms_control()
                        .plus(c::as_routing())
                        .plus(c::simple_switch())
                        .times(n),
                ));
                parts.push(("tree wiring".into(), c::tree_wiring_per_ms().times(n)));
            }
        }
        parts
    }

    /// How many PEs of this kind fit in `area_um2` alongside the
    /// prefetch buffer.
    #[must_use]
    pub fn pes_for_area(&self, area_um2: f64) -> usize {
        let pb = c::sram_per_kb().times(self.pb_kb as f64).area_um2;
        let per_pe = self.kind.per_pe_cost(self.local_bytes).area_um2;
        ((area_um2 - pb) / per_pe).floor().max(0.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm2(point: &DesignPoint) -> f64 {
        point.area_um2() / 1e6
    }

    #[test]
    fn table3_areas_match_paper() {
        assert!((mm2(&DesignPoint::eyeriss_baseline()) - 6.00).abs() < 0.05);
        assert!((mm2(&DesignPoint::systolic_comp_match()) - 2.62).abs() < 0.05);
        assert!((mm2(&DesignPoint::maeri_comp_match()) - 3.84).abs() < 0.05);
        assert!((mm2(&DesignPoint::systolic_area_match()) - 6.00).abs() < 0.02);
        assert!((mm2(&DesignPoint::maeri_area_match()) - 6.00).abs() < 0.02);
    }

    #[test]
    fn table3_area_match_pe_counts() {
        // Paper: 1192 systolic PEs and 374 MAERI switches at 6 mm².
        let sa = DesignPoint::systolic_area_match();
        assert!((sa.num_pes as i64 - 1192).abs() <= 15, "{}", sa.num_pes);
        let maeri = DesignPoint::maeri_area_match();
        assert!((maeri.num_pes as i64 - 374).abs() <= 5, "{}", maeri.num_pes);
    }

    #[test]
    fn density_multiples_vs_eyeriss() {
        // "MAERI and systolic array can house 2.23x and 7.09x more
        // compute units than Eyeriss" for the same area.
        let maeri_ratio = DesignPoint::maeri_area_match().num_pes as f64 / 168.0;
        let sa_ratio = DesignPoint::systolic_area_match().num_pes as f64 / 168.0;
        assert!((maeri_ratio - 2.23).abs() < 0.05, "{maeri_ratio}");
        assert!((sa_ratio - 7.09).abs() < 0.15, "{sa_ratio}");
    }

    #[test]
    fn maeri_power_overhead_vs_eyeriss_is_about_6_5_percent() {
        let maeri = DesignPoint::maeri_comp_match().power_mw();
        let eyeriss = DesignPoint::eyeriss_baseline().power_mw();
        let overhead = maeri / eyeriss - 1.0;
        assert!((overhead - 0.065).abs() < 0.02, "power overhead {overhead}");
    }

    #[test]
    fn area_reduction_vs_eyeriss_is_about_36_8_percent() {
        let maeri = DesignPoint::maeri_comp_match().area_um2();
        let eyeriss = DesignPoint::eyeriss_baseline().area_um2();
        let reduction = 1.0 - maeri / eyeriss;
        assert!(
            (reduction - 0.368).abs() < 0.02,
            "area reduction {reduction}"
        );
    }

    #[test]
    fn systolic_is_cheapest_at_comp_match() {
        // Paper: "the systolic array required the smallest area and
        // power because of its simple structure".
        let sa = DesignPoint::systolic_comp_match();
        let maeri = DesignPoint::maeri_comp_match();
        let eyeriss = DesignPoint::eyeriss_baseline();
        assert!(sa.area_um2() < maeri.area_um2());
        assert!(sa.power_mw() < maeri.power_mw());
        assert!(maeri.area_um2() < eyeriss.area_um2());
        assert!(sa.power_mw() < eyeriss.power_mw());
    }

    #[test]
    fn prefetch_buffer_dominates_breakdown() {
        // Paper: "The prefetch buffer (SRAM) dominates in both area and
        // power in the two designs."
        for point in [
            DesignPoint::eyeriss_baseline(),
            DesignPoint::maeri_comp_match(),
        ] {
            let parts = point.breakdown();
            let pb = parts
                .iter()
                .find(|(name, _)| name == "prefetch buffer")
                .unwrap()
                .1;
            for (name, cost) in &parts {
                if name != "prefetch buffer" {
                    assert!(
                        pb.area_um2 > cost.area_um2,
                        "{} out-areas the PB in {}",
                        name,
                        point.kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn breakdown_sums_to_total() {
        for point in DesignPoint::table3() {
            let parts = point.breakdown();
            let sum_area: f64 = parts.iter().map(|(_, c)| c.area_um2).sum();
            let sum_power: f64 = parts.iter().map(|(_, c)| c.power_mw).sum();
            assert!((sum_area - point.area_um2()).abs() < 1.0);
            assert!((sum_power - point.power_mw()).abs() < 0.01);
        }
    }

    #[test]
    fn figure11e_core_area_ordering() {
        // Per-PE core area: systolic < MAERI < Eyeriss at every size.
        for n in [16usize, 32, 64, 128, 256] {
            let mk = |kind, local| DesignPoint {
                kind,
                num_pes: n,
                local_bytes: local,
                pb_kb: 80,
            };
            let sa = mk(AcceleratorKind::SystolicArray, 0).core_area_um2();
            let maeri = mk(AcceleratorKind::Maeri, 512).core_area_um2();
            let eyeriss = mk(AcceleratorKind::Eyeriss, 512).core_area_um2();
            assert!(sa < maeri && maeri < eyeriss, "ordering broke at n={n}");
        }
    }

    #[test]
    fn pes_for_area_is_inverse_of_area() {
        let point = DesignPoint::maeri_comp_match();
        let grown = point.pes_for_area(point.area_um2());
        assert!((grown as i64 - point.num_pes as i64).abs() <= 1);
    }
}
