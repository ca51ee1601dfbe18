//! Closed-form models of the Section 6.3 deep-dive (Figure 17).
//!
//! The paper walks one convolution — eight 3x3x3 filters over a 5x5x3
//! input, stride 1, "same" padding (25 sliding windows) — through an
//! 8x8 weight-stationary systolic array and a 64-multiplier MAERI, by
//! hand. This module reproduces both analyses as general formulas and
//! also records the paper's literal per-iteration decomposition.
//!
//! ## Known paper-internal arithmetic note
//!
//! The paper states each full MAERI iteration takes `1 + 9 + 27 = 37`
//! cycles and there are four iterations, then reports **143** total —
//! which matches `37*3 + 32`, i.e. a final 3-VN iteration whose weight
//! load is bandwidth-limited (`ceil(27/8) = 4`) rather than per-VN
//! serial (`9`). Physically, each multiplier switch stores one weight,
//! so the bandwidth rule `ceil(total_weights / 8)` applies to *every*
//! iteration, giving `36*3 + 32 = 140`. [`maeri_example`] uses the
//! consistent rule (140 cycles); [`maeri_example_paper_stated`] records
//! the paper's published decomposition (143 cycles). Both appear in the
//! `figure17` report, and `EXPERIMENTS.md` documents the discrepancy.

use maeri_dnn::ConvLayer;
use maeri_sim::util::ceil_div;
use maeri_sim::Result;

use crate::mapper::{ConvMapper, VnPolicy};
use crate::MaeriConfig;

/// Result of an analytic walk-through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyticResult {
    /// Design label.
    pub design: String,
    /// Total cycles.
    pub cycles: u64,
    /// Total SRAM reads (weights + inputs).
    pub sram_reads: u64,
    /// Human-readable derivation, one step per entry.
    pub breakdown: Vec<String>,
}

/// The paper's example layer: eight 3x3x3 filters over a 5x5x3 input,
/// stride 1, padding 1 (25 sliding windows).
#[must_use]
pub fn example_layer() -> ConvLayer {
    maeri_dnn::zoo::fig17_example()
}

/// Weight-stationary systolic array analysis (Section 6.3):
/// each row processes one sliding window per iteration; a full
/// iteration takes `T + rows + cols` cycles (`T = R*S*C`), a trailing
/// partial iteration with `m` windows takes `T + m - 1`.
///
/// SRAM reads: a full iteration streams `rows` input vectors and
/// `cols` weight vectors of length `T` (no on-array reuse); the partial
/// iteration re-streams only its `m` input vectors.
#[must_use]
pub fn systolic_example(layer: &ConvLayer, rows: usize, cols: usize) -> AnalyticResult {
    let t = layer.filter_volume() as u64;
    let windows = (layer.out_h() * layer.out_w()) as u64;
    let full = windows / rows as u64;
    let rem = windows % rows as u64;
    let full_cycles = t + rows as u64 + cols as u64;
    let mut cycles = full * full_cycles;
    let mut breakdown = vec![format!(
        "{full} full iterations x (T={t} + {rows} rows + {cols} cols) = {}",
        full * full_cycles
    )];
    if rem > 0 {
        // Weights are resident from the preceding full iteration; when
        // there was none, the partial iteration must stream them too.
        let last = if full == 0 {
            t + cols as u64 + rem - 1
        } else {
            t + rem - 1
        };
        cycles += last;
        breakdown.push(format!("1 partial iteration ({rem} windows) = {last}"));
    }
    let mut reads = full * (rows as u64 + cols as u64) * t;
    breakdown.push(format!(
        "{full} full iterations x ({rows}+{cols}) streams x T = {reads} reads"
    ));
    if rem > 0 {
        let mut partial = rem * t;
        if full == 0 {
            partial += cols as u64 * t;
        }
        reads += partial;
        breakdown.push(format!("partial iteration: {partial} reads"));
    }
    AnalyticResult {
        design: format!("{rows}x{cols} systolic array"),
        cycles,
        sram_reads: reads,
        breakdown,
    }
}

/// MAERI analysis (Section 6.3): one channel slice (`R*S` weights) per
/// virtual neuron, `floor(N / R*S)` VNs; `K*C` slices total; each
/// iteration costs `1` (configure) `+ ceil(weights / dist_bw)` (load)
/// `+ windows + S - 1` (stream every window through, with the first
/// window's extra columns as pipeline fill). Weights are read once,
/// inputs re-multicast every iteration.
#[must_use]
pub fn maeri_example(layer: &ConvLayer, num_ms: usize, dist_bw: usize) -> AnalyticResult {
    let rs = (layer.kernel_h * layer.kernel_w) as u64;
    let lanes = (num_ms as u64 / rs).max(1);
    let slices = (layer.out_channels * layer.in_channels) as u64;
    let windows = (layer.out_h() * layer.out_w()) as u64;
    let compute = windows + layer.kernel_w as u64 - 1;
    let iterations = ceil_div(slices, lanes);
    let mut cycles = 0u64;
    let mut breakdown = Vec::new();
    let mut remaining = slices;
    while remaining > 0 {
        let active = remaining.min(lanes);
        let weight_cycles = ceil_div(active * rs, dist_bw as u64);
        let iter_cycles = 1 + weight_cycles + compute;
        cycles += iter_cycles;
        breakdown.push(format!(
            "iteration ({active} VNs): 1 + {weight_cycles} weight + {compute} compute = {iter_cycles}"
        ));
        remaining -= active;
    }
    let weight_reads = layer.weight_count() as u64;
    let input_reads = layer.input_count() as u64 * iterations;
    breakdown.push(format!(
        "reads: {weight_reads} weights once + {} inputs x {iterations} iterations = {}",
        layer.input_count(),
        weight_reads + input_reads
    ));
    AnalyticResult {
        design: format!("MAERI with {num_ms} multiplier switches"),
        cycles,
        sram_reads: weight_reads + input_reads,
        breakdown,
    }
}

/// General analytic cycle estimate of a CONV mapping on an arbitrary
/// fabric: plans the layer under `policy` and applies the closed-form
/// cost model of [`ConvMapper`] — the same steady-state bandwidth
/// counting the clocked trace in [`crate::cycle_sim`] validates (see
/// `tests/analytic_vs_cycle.rs` for the fidelity bound). This is the
/// fast scoring function the mapping-space search (`maeri-mapspace`)
/// uses to rank candidates before cycle-accurate validation.
///
/// # Errors
///
/// Propagates planning failures (invalid tile, unmappable fabric).
pub fn conv_mapping(
    cfg: &MaeriConfig,
    layer: &ConvLayer,
    policy: VnPolicy,
) -> Result<AnalyticResult> {
    let mapper = ConvMapper::new(*cfg);
    let plan = mapper.plan(layer, policy)?;
    let run = mapper.cost(layer, &plan);
    let breakdown = vec![
        format!(
            "{} VNs of {} leaves (tile {}, {} segments x {} subfolds, {:?})",
            plan.num_vns,
            plan.vn_size,
            plan.channel_tile,
            plan.segments,
            plan.subfold,
            plan.loop_order
        ),
        format!(
            "{} iterations x {} output steps, {} fresh words/step over {}-wide distribution",
            plan.iterations,
            layer.out_w(),
            plan.step_inputs(layer),
            cfg.dist_bandwidth()
        ),
        format!(
            "total {} cycles, {} SRAM reads",
            run.cycles.as_u64(),
            run.sram_reads
        ),
    ];
    Ok(AnalyticResult {
        design: format!(
            "MAERI {}-MS analytic mapping of {}",
            cfg.num_mult_switches(),
            layer.name
        ),
        cycles: run.cycles.as_u64(),
        sram_reads: run.sram_reads,
        breakdown,
    })
}

/// The paper's literally stated decomposition for the 64-MS MAERI run:
/// three iterations of `1 + 9 + 27 = 37` plus a final `1 + 4 + 27 = 32`,
/// totalling 143 cycles and 516 SRAM reads.
#[must_use]
pub fn maeri_example_paper_stated() -> AnalyticResult {
    AnalyticResult {
        design: "MAERI with 64 multiplier switches (paper-stated)".to_owned(),
        cycles: 37 * 3 + 32,
        sram_reads: 216 + 75 * 4,
        breakdown: vec![
            "3 full iterations x (1 config + 9 weight + 27 compute) = 111".to_owned(),
            "1 partial iteration (3 VNs): 1 + ceil(27/8)=4 + 27 = 32".to_owned(),
            "reads: 216 weights once + 75 inputs x 4 iterations = 516".to_owned(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn systolic_reproduces_156_cycles_and_1323_reads() {
        let result = systolic_example(&example_layer(), 8, 8);
        assert_eq!(result.cycles, 156);
        assert_eq!(result.sram_reads, 1323);
    }

    #[test]
    fn paper_stated_maeri_numbers() {
        let result = maeri_example_paper_stated();
        assert_eq!(result.cycles, 143);
        assert_eq!(result.sram_reads, 516);
    }

    #[test]
    fn consistent_rule_maeri_is_close_to_paper() {
        // Uniform bandwidth rule: 36*3 + 32 = 140 cycles (2% below the
        // paper's 143); reads match exactly.
        let result = maeri_example(&example_layer(), 64, 8);
        assert_eq!(result.cycles, 140);
        assert_eq!(result.sram_reads, 516);
    }

    #[test]
    fn maeri_beats_systolic_on_both_axes() {
        // The Section 6.3 headline: ~9% fewer cycles, 65% fewer reads.
        let layer = example_layer();
        let sa = systolic_example(&layer, 8, 8);
        let maeri = maeri_example(&layer, 64, 8);
        assert!(maeri.cycles < sa.cycles);
        let read_ratio = maeri.sram_reads as f64 / sa.sram_reads as f64;
        assert!((read_ratio - 516.0 / 1323.0).abs() < 1e-9);
        assert!(read_ratio < 0.40, "read ratio {read_ratio}");
    }

    #[test]
    fn example_layer_matches_paper_dimensions() {
        let layer = example_layer();
        assert_eq!(layer.out_h() * layer.out_w(), 25); // 25 windows
        assert_eq!(layer.filter_volume(), 27);
        assert_eq!(layer.weight_count(), 216);
        assert_eq!(layer.input_count(), 75);
    }

    #[test]
    fn systolic_scales_with_array_size() {
        // Twice the rows halve the iterations (plus fill effects).
        let layer = example_layer();
        let small = systolic_example(&layer, 8, 8);
        let large = systolic_example(&layer, 32, 8);
        assert!(large.cycles < small.cycles);
    }

    #[test]
    fn breakdown_is_nonempty_prose() {
        let result = maeri_example(&example_layer(), 64, 8);
        assert!(result.breakdown.len() >= 4);
        assert!(result.breakdown.iter().all(|l| !l.is_empty()));
    }
}
