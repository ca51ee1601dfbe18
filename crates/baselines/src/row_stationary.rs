//! Eyeriss-style row-stationary spatial array (Figure 12 comparator).
//!
//! Row-stationary mapping (Chen et al., ISCA 2016): each PE performs a
//! 1-D convolution of one filter row against one input row; a vertical
//! group of `R` PEs accumulates one output row's partial sums. On an
//! `H x W` PE array:
//!
//! * `strips = floor(H / R)` filter-row groups fit vertically (when
//!   `R > H` the group folds `ceil(R / H)` ways),
//! * the `W` columns process `W` different output rows in parallel,
//! * filters and channels iterate temporally as *passes*; each pass
//!   computes `Q` outputs per column at `S` MACs each, costing
//!   `Q*S + R + W` cycles (compute plus fill/drain), stalled when the
//!   pass's input-row traffic exceeds the array's SRAM bandwidth.
//!
//! The rigidity the MAERI paper targets is visible here: with `R = 3`
//! on an 8-row array, only 6 of 8 PE rows can ever be busy.

use maeri::engine::RunStats;
use maeri_dnn::ConvLayer;
use maeri_sim::util::ceil_div;
use maeri_sim::Cycle;

/// An Eyeriss-style row-stationary accelerator.
///
/// # Example
///
/// ```
/// use maeri_baselines::RowStationary;
/// use maeri_dnn::ConvLayer;
///
/// let rs = RowStationary::new(8, 8, 8);
/// let layer = ConvLayer::new("c", 3, 16, 16, 8, 3, 3, 1, 1);
/// let run = rs.run_conv(&layer);
/// // 3-row filters leave 2 of 8 PE rows idle: utilization < 75%.
/// assert!(run.utilization() <= 0.75);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowStationary {
    pe_rows: usize,
    pe_cols: usize,
    sram_bandwidth: usize,
}

impl RowStationary {
    /// Creates an `pe_rows x pe_cols` array with the given SRAM
    /// bandwidth (words/cycle).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    #[must_use]
    pub fn new(pe_rows: usize, pe_cols: usize, sram_bandwidth: usize) -> Self {
        assert!(
            pe_rows > 0 && pe_cols > 0,
            "array dimensions must be positive"
        );
        assert!(sram_bandwidth > 0, "sram bandwidth must be positive");
        RowStationary {
            pe_rows,
            pe_cols,
            sram_bandwidth,
        }
    }

    /// Number of processing elements.
    #[must_use]
    pub fn num_pes(&self) -> usize {
        self.pe_rows * self.pe_cols
    }

    /// Costs a CONV layer.
    #[must_use]
    pub fn run_conv(&self, layer: &ConvLayer) -> RunStats {
        let r = layer.kernel_h;
        let (strips, fold_r) = if r <= self.pe_rows {
            ((self.pe_rows / r).max(1), 1u64)
        } else {
            (1, ceil_div(r as u64, self.pe_rows as u64))
        };
        let q = layer.out_w() as u64;
        let s = layer.kernel_w as u64;
        let out_cols = (layer.out_h() as u64).min(self.pe_cols as u64);
        // Work: every (filter, channel, fold, output-row group) is one
        // column-task; `strips` of them run concurrently.
        let row_batches = ceil_div(layer.out_h() as u64, self.pe_cols as u64);
        let units = layer.out_channels as u64 * layer.in_channels as u64 * fold_r * row_batches;
        let passes = ceil_div(units, strips as u64);

        // Per pass: compute plus array fill/drain.
        let compute = q * s + (self.pe_rows + self.pe_cols) as u64;
        // Input rows entering the array per pass (row-stationary reuses
        // each input row diagonally across the columns it feeds).
        let in_rows = out_cols * layer.stride as u64
            + (r as u64)
                .min(self.pe_rows as u64)
                .saturating_sub(layer.stride as u64);
        let input_words = in_rows * layer.in_w as u64 * strips as u64;
        let weight_words = (strips * r.min(self.pe_rows)) as u64 * s;
        let bandwidth_cycles = ceil_div(input_words + weight_words, self.sram_bandwidth as u64);
        let pass_cycles = compute.max(bandwidth_cycles);
        let cycles = passes * pass_cycles;

        let mut run = RunStats::new(
            &layer.name,
            self.num_pes(),
            Cycle::new(cycles),
            layer.macs(),
        );
        run.sram_reads = passes * (input_words + weight_words);
        run.sram_writes = layer.output_count() as u64;
        run.extra.add("passes", passes);
        run.extra.add("strips", strips as u64);
        run.extra.add("fold_r", fold_r);
        run
    }

    /// Peak spatial utilization for a filter height: the fraction of PE
    /// rows that can ever be occupied.
    #[must_use]
    pub fn spatial_ceiling(&self, kernel_h: usize) -> f64 {
        if kernel_h >= self.pe_rows {
            1.0
        } else {
            ((self.pe_rows / kernel_h) * kernel_h) as f64 / self.pe_rows as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs() -> RowStationary {
        RowStationary::new(8, 8, 8)
    }

    #[test]
    fn spatial_ceiling_examples() {
        let a = rs();
        assert!((a.spatial_ceiling(3) - 0.75).abs() < 1e-12); // 2 strips of 3
        assert!((a.spatial_ceiling(4) - 1.0).abs() < 1e-12);
        assert!((a.spatial_ceiling(5) - 0.625).abs() < 1e-12); // 1 strip of 5
        assert!((a.spatial_ceiling(11) - 1.0).abs() < 1e-12); // folded
    }

    #[test]
    fn utilization_bounded_by_spatial_ceiling() {
        let layer = ConvLayer::new("c", 64, 28, 28, 64, 3, 3, 1, 1);
        let run = rs().run_conv(&layer);
        assert!(run.utilization() <= rs().spatial_ceiling(3) + 1e-9);
        assert!(run.utilization() > 0.2);
    }

    #[test]
    fn five_by_five_filters_hurt_more_than_three() {
        // AlexNet C2's 5x5 maps worse than VGG's 3x3 (1 strip vs 2).
        let c3 = ConvLayer::new("k3", 32, 27, 27, 32, 3, 3, 1, 1);
        let c5 = ConvLayer::new("k5", 32, 27, 27, 32, 5, 5, 1, 2);
        let u3 = rs().run_conv(&c3).utilization();
        let u5 = rs().run_conv(&c5).utilization();
        assert!(u3 > u5, "3x3 {u3} should beat 5x5 {u5}");
    }

    #[test]
    fn oversized_filters_fold() {
        let c11 = ConvLayer::new("k11", 3, 224, 224, 96, 11, 11, 4, 2);
        let run = rs().run_conv(&c11);
        assert_eq!(run.extra.get("fold_r"), 2);
        assert!(run.cycles.as_u64() > 0);
        assert!(run.utilization() <= 1.0);
    }

    #[test]
    fn row_stationary_reads_less_than_systolic() {
        // The whole point of row stationary: input rows are reused
        // inside the array instead of re-streamed per window.
        let layer = ConvLayer::new("c", 16, 28, 28, 32, 3, 3, 1, 1);
        let rs_reads = rs().run_conv(&layer).sram_reads;
        let sa_reads = crate::SystolicArray::unconstrained(8, 8)
            .run_conv(&layer)
            .sram_reads;
        assert!(rs_reads < sa_reads, "rs {rs_reads} vs sa {sa_reads}");
    }

    #[test]
    fn bandwidth_limits_passes() {
        let layer = ConvLayer::new("c", 8, 56, 56, 8, 3, 3, 1, 1);
        let fast = RowStationary::new(8, 8, 32).run_conv(&layer);
        let slow = RowStationary::new(8, 8, 2).run_conv(&layer);
        assert!(slow.cycles > fast.cycles);
    }
}
