//! Weight-stationary systolic array (TPU-style), per Section 6.3.
//!
//! The paper's model (Figure 17): filters map to columns, sliding
//! windows map to rows. One *iteration* streams `T = R*S*C` weight and
//! input elements through the array, computing `rows x cols`
//! (window, filter) pairs; it costs `T + rows + cols` cycles (stream
//! plus injection skew plus drain). A trailing partial iteration with
//! `m < rows` windows costs `T + m - 1`.
//!
//! Because the array cannot reuse data internally, every active row
//! streams `T` input words and every column streams `T` weight words
//! from SRAM each iteration — the 1323-read count of the worked
//! example. The SRAM can provide `sram_bandwidth` words per cycle; when
//! an iteration demands more (`rows + cols` streams), the array stalls
//! proportionally.

use maeri::engine::RunStats;
use maeri_dnn::{ConvLayer, FcLayer};
use maeri_sim::util::ceil_div;
use maeri_sim::Cycle;

/// A weight-stationary systolic array.
///
/// # Example
///
/// ```
/// use maeri_baselines::SystolicArray;
/// use maeri_dnn::ConvLayer;
///
/// let sa = SystolicArray::new(8, 8, 8);
/// let layer = ConvLayer::new("c", 3, 8, 8, 16, 3, 3, 1, 1);
/// let run = sa.run_conv(&layer);
/// assert_eq!(run.macs, layer.macs());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystolicArray {
    rows: usize,
    cols: usize,
    sram_bandwidth: usize,
}

impl SystolicArray {
    /// Creates a `rows x cols` array fed by an SRAM that supplies
    /// `sram_bandwidth` words per cycle.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize, sram_bandwidth: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be positive");
        assert!(sram_bandwidth > 0, "sram bandwidth must be positive");
        SystolicArray {
            rows,
            cols,
            sram_bandwidth,
        }
    }

    /// An unconstrained-bandwidth array, matching the paper's by-hand
    /// Figure 17 arithmetic exactly.
    #[must_use]
    pub fn unconstrained(rows: usize, cols: usize) -> Self {
        // Demand never exceeds rows + cols streams.
        SystolicArray::new(rows, cols, rows + cols)
    }

    /// Number of processing elements.
    #[must_use]
    pub fn num_pes(&self) -> usize {
        self.rows * self.cols
    }

    /// Costs a CONV layer.
    #[must_use]
    pub fn run_conv(&self, layer: &ConvLayer) -> RunStats {
        let t = layer.filter_volume() as u64;
        let windows = (layer.out_h() * layer.out_w()) as u64;
        let filter_batches = ceil_div(layer.out_channels as u64, self.cols as u64);
        // Injection bandwidth: full iterations stream `rows` input
        // vectors + `cols` weight vectors concurrently.
        let stall = ((self.rows + self.cols) as f64 / self.sram_bandwidth as f64).max(1.0);

        let full = windows / self.rows as u64;
        let rem = windows % self.rows as u64;
        let mut cycles_per_batch =
            full as f64 * ((t as f64) * stall + (self.rows + self.cols) as f64);
        let mut reads_per_batch = full * (self.rows + self.cols) as u64 * t;
        if rem > 0 {
            // Partial iteration: weights stay resident from the last
            // full pass; only `rem` input streams flow.
            let part_stall =
                ((rem as usize + self.cols) as f64 / self.sram_bandwidth as f64).max(1.0);
            cycles_per_batch += (t as f64) * part_stall.min(stall) + (rem - 1) as f64;
            reads_per_batch += rem * t;
        }
        let total_cycles = (filter_batches as f64 * cycles_per_batch).ceil() as u64;
        let mut run = RunStats::new(
            &layer.name,
            self.num_pes(),
            Cycle::new(total_cycles),
            layer.macs(),
        );
        run.sram_reads = filter_batches * reads_per_batch;
        run.sram_writes = layer.output_count() as u64;
        run.extra.add("filter_batches", filter_batches);
        run.extra
            .add("window_iterations", full + u64::from(rem > 0));
        run
    }

    /// Costs an FC layer: output neurons map to columns, the single
    /// input vector streams through one row (no window parallelism).
    #[must_use]
    pub fn run_fc(&self, layer: &FcLayer) -> RunStats {
        let t = layer.inputs as u64;
        let batches = ceil_div(layer.outputs as u64, self.cols as u64);
        let stall = ((1 + self.cols) as f64 / self.sram_bandwidth as f64).max(1.0);
        let per_batch = t as f64 * stall + (self.rows + self.cols) as f64;
        let cycles = (batches as f64 * per_batch).ceil() as u64;
        let mut run = RunStats::new(
            &layer.name,
            self.num_pes(),
            Cycle::new(cycles),
            layer.macs(),
        );
        run.sram_reads = batches * (1 + self.cols as u64) * t;
        run.sram_writes = layer.outputs as u64;
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri_dnn::zoo;

    #[test]
    fn figure17_walkthrough_156_cycles_1323_reads() {
        let sa = SystolicArray::new(8, 8, 8);
        // Bandwidth 8 < 16 streams would stall; the paper's by-hand
        // numbers assume full streaming, so check the unconstrained
        // array reproduces them.
        let free = SystolicArray::unconstrained(8, 8);
        let run = free.run_conv(&zoo::fig17_example());
        assert_eq!(run.cycles.as_u64(), 156);
        assert_eq!(run.sram_reads, 1323);
        // The default-bandwidth variant is strictly slower.
        let constrained = sa.run_conv(&zoo::fig17_example());
        assert!(constrained.cycles.as_u64() >= 156);
        assert_eq!(constrained.sram_reads, 1323);
    }

    #[test]
    fn bandwidth_stall_scales_cycles() {
        let layer = ConvLayer::new("c", 16, 14, 14, 32, 3, 3, 1, 1);
        let fast = SystolicArray::new(8, 8, 16).run_conv(&layer);
        let slow = SystolicArray::new(8, 8, 4).run_conv(&layer);
        assert!(slow.cycles.as_u64() > 2 * fast.cycles.as_u64());
        // Reads are bandwidth-independent (same data moves).
        assert_eq!(fast.sram_reads, slow.sram_reads);
    }

    #[test]
    fn no_internal_reuse_means_reads_scale_with_streams() {
        // Doubling the filter count doubles the filter batches and so
        // re-streams the inputs.
        let small = ConvLayer::new("a", 3, 8, 8, 8, 3, 3, 1, 1);
        let big = ConvLayer::new("b", 3, 8, 8, 16, 3, 3, 1, 1);
        let sa = SystolicArray::unconstrained(8, 8);
        let reads_small = sa.run_conv(&small).sram_reads;
        let reads_big = sa.run_conv(&big).sram_reads;
        assert_eq!(reads_big, 2 * reads_small);
    }

    #[test]
    fn utilization_degrades_with_tiny_layers() {
        // A layer with fewer windows than rows leaves PEs idle.
        let tiny = ConvLayer::new("tiny", 3, 4, 4, 2, 3, 3, 1, 0);
        let sa = SystolicArray::unconstrained(8, 8);
        let run = sa.run_conv(&tiny);
        assert!(run.utilization() < 0.3, "util {}", run.utilization());
    }

    #[test]
    fn fc_uses_one_row() {
        let layer = FcLayer::new("fc", 256, 64);
        let sa = SystolicArray::unconstrained(8, 8);
        let run = sa.run_fc(&layer);
        assert_eq!(run.macs, layer.macs());
        // 8 batches of 256-deep streams.
        assert!(run.cycles.as_u64() >= 8 * 256);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_rows_panics() {
        let _ = SystolicArray::new(0, 8, 8);
    }
}
