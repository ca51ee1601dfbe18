//! Per-operation energy model (28 nm, 16-bit datapath).
//!
//! The paper's motivation is performance/watt: reduced SRAM traffic
//! (weight reuse in multiplier switches, multicast distribution, local
//! forwarding) is MAERI's energy story versus the systolic array's
//! re-streaming. This module turns the traffic counters of a
//! [`maeri::engine::RunStats`] into energy, using per-access constants
//! in picojoules consistent with published 28-32 nm numbers (Horowitz,
//! ISSCC 2014 keynote, scaled to 16-bit).

use maeri::engine::RunStats;

/// Per-operation energy constants in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// One 16-bit multiply.
    pub mult_pj: f64,
    /// One 16-bit add (or comparator op).
    pub add_pj: f64,
    /// One word read from the prefetch-buffer SRAM.
    pub sram_read_pj: f64,
    /// One word written to the prefetch-buffer SRAM.
    pub sram_write_pj: f64,
    /// One word over a DRAM channel.
    pub dram_pj: f64,
    /// One word traversing one on-chip network hop.
    pub noc_hop_pj: f64,
    /// Average NoC hops per word moved (tree depth for MAERI, array
    /// dimension for a systolic array).
    pub avg_hops: f64,
}

impl EnergyModel {
    /// The default 28 nm model for a MAERI-class fabric with 64
    /// multipliers (6-level trees).
    #[must_use]
    pub fn maeri_64() -> Self {
        EnergyModel {
            mult_pj: 1.0,
            add_pj: 0.2,
            sram_read_pj: 5.0,
            sram_write_pj: 5.5,
            dram_pj: 320.0,
            noc_hop_pj: 0.15,
            avg_hops: 6.0,
        }
    }

    /// The same constants with a systolic array's hop profile (words
    /// ripple one PE per cycle; average traversal half the array).
    #[must_use]
    pub fn systolic_8x8() -> Self {
        EnergyModel {
            avg_hops: 8.0,
            ..EnergyModel::maeri_64()
        }
    }

    /// Energy of one layer run, in nanojoules.
    ///
    /// Every MAC is one multiply plus one add; every SRAM word also
    /// traverses the NoC.
    #[must_use]
    pub fn run_energy_nj(&self, run: &RunStats) -> f64 {
        let compute = run.macs as f64 * (self.mult_pj + self.add_pj);
        let sram =
            run.sram_reads as f64 * self.sram_read_pj + run.sram_writes as f64 * self.sram_write_pj;
        let noc = (run.sram_reads + run.sram_writes) as f64 * self.noc_hop_pj * self.avg_hops;
        (compute + sram + noc) / 1000.0
    }

    /// Energy of moving `words` over DRAM, in nanojoules — used to
    /// price the DRAM traffic that cross-layer fusion avoids.
    #[must_use]
    pub fn dram_energy_nj(&self, words: u64) -> f64 {
        words as f64 * self.dram_pj / 1000.0
    }

    /// Energy efficiency in MACs per nanojoule.
    #[must_use]
    pub fn macs_per_nj(&self, run: &RunStats) -> f64 {
        let energy = self.run_energy_nj(run);
        if energy == 0.0 {
            0.0
        } else {
            run.macs as f64 / energy
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::maeri_64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri_sim::Cycle;

    fn run(macs: u64, reads: u64, writes: u64) -> RunStats {
        let mut r = RunStats::new("x", 64, Cycle::new(1000), macs);
        r.sram_reads = reads;
        r.sram_writes = writes;
        r
    }

    #[test]
    fn energy_scales_with_traffic() {
        let model = EnergyModel::maeri_64();
        let lean = model.run_energy_nj(&run(1000, 100, 10));
        let heavy = model.run_energy_nj(&run(1000, 1000, 10));
        assert!(heavy > lean);
        // Compute-only part: 1000 * 1.2 pJ = 1.2 nJ.
        let compute_only = model.run_energy_nj(&run(1000, 0, 0));
        assert!((compute_only - 1.2).abs() < 1e-9);
    }

    #[test]
    fn sram_dominates_compute_at_parity_traffic() {
        // The classic accelerator energy hierarchy: one SRAM word costs
        // several MACs.
        let model = EnergyModel::maeri_64();
        assert!(model.sram_read_pj > 3.0 * (model.mult_pj + model.add_pj));
        assert!(model.dram_pj > 50.0 * model.sram_read_pj);
    }

    #[test]
    fn fewer_reads_means_less_energy_for_same_macs() {
        // MAERI's 516 reads vs the systolic array's 1323 on Fig. 17.
        let maeri = EnergyModel::maeri_64().run_energy_nj(&run(5400, 516, 200));
        let systolic = EnergyModel::systolic_8x8().run_energy_nj(&run(5400, 1323, 200));
        assert!(maeri < systolic);
        let ratio = systolic / maeri;
        assert!(ratio > 1.3, "energy ratio {ratio}");
    }

    #[test]
    fn dram_energy_prices_fusion_savings() {
        let model = EnergyModel::maeri_64();
        // 64896 intermediate activations of AlexNet conv3+4 stay on
        // chip: ~20 uJ of DRAM traffic avoided.
        let saved = model.dram_energy_nj(64896);
        assert!((saved - 64896.0 * 0.32).abs() < 1.0);
    }

    #[test]
    fn macs_per_nj_is_finite_and_positive() {
        let model = EnergyModel::default();
        let eff = model.macs_per_nj(&run(10_000, 500, 100));
        assert!(eff > 0.0 && eff.is_finite());
        assert_eq!(model.macs_per_nj(&run(0, 0, 0)), 0.0);
    }
}
