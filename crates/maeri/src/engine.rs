//! Layer-run statistics and the shared cost-accounting engine.
//!
//! Every mapper (CONV, LSTM, POOL, FC, sparse, cross-layer) produces a
//! [`RunStats`] describing one layer execution: total cycles, MACs
//! performed, compute-unit utilization, and SRAM traffic. The paper's
//! evaluation figures are all derived from these quantities.

use maeri_sim::{Cycle, Stats};

/// Statistics of one layer (or fused group) execution on an accelerator.
///
/// # Example
///
/// ```
/// use maeri::engine::RunStats;
/// use maeri_sim::Cycle;
///
/// let run = RunStats::new("demo", 64, Cycle::new(100), 4800);
/// assert!((run.utilization() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// What was executed (layer or experiment name).
    pub label: String,
    /// Compute units (multipliers / MACs / PEs) in the design.
    pub compute_units: usize,
    /// Total execution cycles.
    pub cycles: Cycle,
    /// Useful multiply-accumulates (or comparisons) performed.
    pub macs: u64,
    /// Words read from the prefetch-buffer SRAM.
    pub sram_reads: u64,
    /// Words written back to the prefetch-buffer SRAM.
    pub sram_writes: u64,
    /// Free-form counters (iterations, folds, slowdown, ...).
    pub extra: Stats,
}

impl RunStats {
    /// Creates a result with zero SRAM traffic; extend via the public
    /// fields.
    ///
    /// # Panics
    ///
    /// Panics if `compute_units` is zero.
    #[must_use]
    pub fn new(label: &str, compute_units: usize, cycles: Cycle, macs: u64) -> Self {
        assert!(compute_units > 0, "an accelerator needs compute units");
        RunStats {
            label: label.to_owned(),
            compute_units,
            cycles,
            macs,
            sram_reads: 0,
            sram_writes: 0,
            extra: Stats::new(),
        }
    }

    /// Compute utilization: useful MACs over total MAC slots
    /// (`compute_units * cycles`). In `[0, 1]` for any causally
    /// consistent run. Shares [`maeri_sim::util::utilization`] with the
    /// network-level figure so the two agree bit for bit.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        maeri_sim::util::utilization(self.macs, self.compute_units, self.cycles.as_u64())
    }

    /// Throughput in MACs per cycle.
    #[must_use]
    pub fn macs_per_cycle(&self) -> f64 {
        self.cycles.rate(self.macs as f64)
    }

    /// Speedup of this run over `baseline` (ratio of cycle counts).
    ///
    /// # Panics
    ///
    /// Panics if this run took zero cycles.
    #[must_use]
    pub fn speedup_over(&self, baseline: &RunStats) -> f64 {
        assert!(
            !self.cycles.is_zero(),
            "cannot compute speedup of a 0-cycle run"
        );
        baseline.cycles.as_f64() / self.cycles.as_f64()
    }

    /// Total SRAM accesses (reads + writes).
    #[must_use]
    pub fn sram_accesses(&self) -> u64 {
        self.sram_reads + self.sram_writes
    }

    /// Merges a subsequent phase (e.g. the two LSTM phases, or per-layer
    /// runs of a fused group) into this one, summing cycles, work and
    /// traffic. Compute units must match.
    ///
    /// # Panics
    ///
    /// Panics if the two runs model different numbers of compute units.
    pub fn absorb(&mut self, other: &RunStats) {
        assert_eq!(
            self.compute_units, other.compute_units,
            "cannot merge runs over different fabrics"
        );
        self.cycles += other.cycles;
        self.macs += other.macs;
        self.sram_reads += other.sram_reads;
        self.sram_writes += other.sram_writes;
        self.extra.merge(&other.extra);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_basic() {
        let run = RunStats::new("x", 64, Cycle::new(10), 640);
        assert!((run.utilization() - 1.0).abs() < 1e-12);
        let half = RunStats::new("y", 64, Cycle::new(20), 640);
        assert!((half.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_zero_utilization() {
        let run = RunStats::new("z", 4, Cycle::ZERO, 0);
        assert_eq!(run.utilization(), 0.0);
        assert_eq!(run.macs_per_cycle(), 0.0);
    }

    #[test]
    fn speedup_is_cycle_ratio() {
        let fast = RunStats::new("fast", 64, Cycle::new(143), 1000);
        let slow = RunStats::new("slow", 64, Cycle::new(156), 1000);
        let speedup = fast.speedup_over(&slow);
        assert!((speedup - 156.0 / 143.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_sums_phases() {
        let mut a = RunStats::new("gates", 64, Cycle::new(100), 5000);
        a.sram_reads = 70;
        let mut b = RunStats::new("state", 64, Cycle::new(20), 300);
        b.sram_writes = 10;
        b.extra.add("phases", 1);
        a.absorb(&b);
        assert_eq!(a.cycles.as_u64(), 120);
        assert_eq!(a.macs, 5300);
        assert_eq!(a.sram_reads, 70);
        assert_eq!(a.sram_writes, 10);
        assert_eq!(a.sram_accesses(), 80);
        assert_eq!(a.extra.get("phases"), 1);
    }

    #[test]
    #[should_panic(expected = "different fabrics")]
    fn absorb_rejects_mismatched_units() {
        let mut a = RunStats::new("a", 64, Cycle::ZERO, 0);
        let b = RunStats::new("b", 32, Cycle::ZERO, 0);
        a.absorb(&b);
    }

    #[test]
    #[should_panic(expected = "needs compute units")]
    fn zero_units_panics() {
        let _ = RunStats::new("bad", 0, Cycle::ZERO, 0);
    }
}
