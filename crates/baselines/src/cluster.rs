//! SCNN-style fixed-cluster accelerator (Figures 13 and 14 baseline).
//!
//! The baseline in the paper's irregular-dataflow experiments: four
//! 4x4 PE clusters, each with an internal 16:1 adder tree, connected to
//! the SRAM by a shared bus. Its two rigidities are exactly what MAERI
//! removes:
//!
//! * **cluster granularity** — a neuron's reduction occupies *whole*
//!   clusters: a 27-MAC VGG neuron takes 2 clusters (32 MACs) and a
//!   13-MAC sparse neuron still takes a full 16-MAC cluster,
//! * **bus bandwidth** — input broadcast and partial-sum collection
//!   share one half-duplex bus, so when sparsity shrinks neurons and
//!   more of them finish per step, collection serializes.

use maeri::engine::RunStats;
use maeri_dnn::{ConvLayer, WeightMask};
use maeri_sim::util::ceil_div;
use maeri_sim::{Cycle, Result, SimError};

/// A fixed-cluster accelerator.
///
/// # Example
///
/// ```
/// use maeri_baselines::FixedClusterArray;
/// use maeri_dnn::{ConvLayer, WeightMask};
///
/// let fc = FixedClusterArray::paper_baseline();
/// let layer = ConvLayer::new("c", 3, 8, 8, 8, 3, 3, 1, 1);
/// let run = fc.run_conv(&layer, &WeightMask::dense(&layer), 3)?;
/// // 27-weight neurons occupy 2 clusters: utilization <= 27/32.
/// assert!(run.utilization() <= 27.0 / 32.0 + 1e-9);
/// # Ok::<(), maeri_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedClusterArray {
    clusters: usize,
    cluster_size: usize,
    bus_bandwidth: usize,
}

impl FixedClusterArray {
    /// Creates an array of `clusters` clusters of `cluster_size` PEs
    /// each, sharing a bus of `bus_bandwidth` words/cycle.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    #[must_use]
    pub fn new(clusters: usize, cluster_size: usize, bus_bandwidth: usize) -> Self {
        assert!(
            clusters > 0 && cluster_size > 0,
            "cluster shape must be positive"
        );
        assert!(bus_bandwidth > 0, "bus bandwidth must be positive");
        FixedClusterArray {
            clusters,
            cluster_size,
            bus_bandwidth,
        }
    }

    /// The paper's baseline: four 4x4 clusters sharing a bus with the
    /// same 8-word SRAM bandwidth the MAERI configuration enjoys.
    #[must_use]
    pub fn paper_baseline() -> Self {
        FixedClusterArray::new(4, 16, 8)
    }

    /// Total PEs.
    #[must_use]
    pub fn num_pes(&self) -> usize {
        self.clusters * self.cluster_size
    }

    /// Costs a (possibly sparse) CONV layer with `ct` channels per
    /// neuron slice — the same work decomposition the MAERI sparse
    /// mapper uses, for an apples-to-apples comparison.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unmappable`] for an invalid channel tile.
    pub fn run_conv(&self, layer: &ConvLayer, mask: &WeightMask, ct: usize) -> Result<RunStats> {
        if ct == 0 || ct > layer.in_channels {
            return Err(SimError::unmappable(format!(
                "channel tile {ct} invalid for {} channels",
                layer.in_channels
            )));
        }
        let rs = layer.kernel_h * layer.kernel_w;
        let segments = ceil_div(layer.in_channels as u64, ct as u64) as usize;
        // Neuron slices and their surviving weight counts, segment-major
        // so co-scheduled lanes share an input slice (matching the MAERI
        // sparse mapper's packing for a fair comparison).
        let mut slices: Vec<usize> = Vec::with_capacity(layer.out_channels * segments);
        for seg in 0..segments {
            for k in 0..layer.out_channels {
                let c_lo = seg * ct;
                let c_hi = ((seg + 1) * ct).min(layer.in_channels);
                let nz = (c_lo..c_hi)
                    .flat_map(|c| (0..rs).map(move |j| c * rs + j))
                    .filter(|&j| mask.is_kept(k, j))
                    .count();
                if nz > 0 {
                    slices.push(nz);
                }
            }
        }
        if slices.is_empty() {
            return Ok(RunStats::new(&layer.name, self.num_pes(), Cycle::ZERO, 0));
        }

        let (p, q) = (layer.out_h() as u64, layer.out_w() as u64);
        let r = layer.kernel_h as u64;
        let cols_new = (layer.stride as u64).min(layer.kernel_w as u64);
        let mut total_cycles = 0u64;
        let mut total_macs = 0u64;
        let mut reads = 0u64;
        let mut groups = 0u64;
        let mut idx = 0usize;
        while idx < slices.len() {
            // Fill clusters at whole-cluster granularity.
            let mut lanes: Vec<usize> = Vec::new();
            let mut clusters_used = 0usize;
            while idx < slices.len() {
                let need = ceil_div(slices[idx] as u64, self.cluster_size as u64) as usize;
                if clusters_used + need > self.clusters {
                    break;
                }
                clusters_used += need;
                lanes.push(slices[idx]);
                idx += 1;
            }
            if lanes.is_empty() {
                // A single slice larger than the whole array folds over
                // every cluster.
                let folds = ceil_div(
                    slices[idx] as u64,
                    (self.clusters * self.cluster_size) as u64,
                );
                lanes.push(slices[idx]);
                idx += 1;
                total_cycles += folds; // extra pass overhead
            }
            // Per output step: inputs broadcast over the bus while each
            // lane's partial sum returns over it — whichever serializes
            // longer bounds the step (collection is one word per cycle
            // per bus arbitration slot).
            let channels_active = (ct as u64).min(layer.in_channels as u64);
            let input_words = r * cols_new * channels_active;
            let step = ceil_div(input_words, self.bus_bandwidth as u64).max(lanes.len() as u64);
            total_cycles += p * q * step;
            let lane_weights: u64 = lanes.iter().map(|&v| v as u64).sum();
            total_macs += lane_weights * p * q;
            reads += lane_weights + p * q * input_words;
            groups += 1;
        }

        let mut run = RunStats::new(
            &layer.name,
            self.num_pes(),
            Cycle::new(total_cycles),
            total_macs,
        );
        run.sram_reads = reads;
        run.sram_writes = layer.output_count() as u64;
        run.extra.add("groups", groups);
        Ok(run)
    }

    /// Stage time of one fused layer given `share` whole clusters,
    /// using the shared pipeline model with this fabric's rigidity:
    /// one channel slice per cluster (idle PEs beyond the slice),
    /// multi-cluster slices, temporal folding when a slice outgrows
    /// the share, and a proportional bus share.
    fn fused_stage_cycles(&self, layer: &ConvLayer, share: usize) -> u64 {
        let rs = layer.kernel_h * layer.kernel_w;
        let clusters_per_slice = ceil_div(rs as u64, self.cluster_size as u64) as usize;
        let (lanes, pieces) = if clusters_per_slice <= share {
            ((share / clusters_per_slice).max(1), 1)
        } else {
            // Slice larger than the whole share: fold temporally.
            (
                1,
                ceil_div(clusters_per_slice as u64, share as u64) as usize,
            )
        };
        let bus_share = (self.bus_bandwidth as f64 * share as f64 / self.clusters as f64).max(1.0);
        maeri::mapper::cross_layer::pipeline_stage_cycles(layer, lanes, pieces, 1, bus_share)
            .as_u64()
    }

    /// Costs a fused multi-layer mapping: each layer gets whole
    /// clusters in proportion to MAC demand (at least one). This is the
    /// Figure 14 comparator: with only four rigid clusters, a fused
    /// chain cannot balance its stages.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unmappable`] when more layers are fused than
    /// clusters exist.
    pub fn run_fused(&self, layers: &[ConvLayer]) -> Result<RunStats> {
        if layers.is_empty() {
            return Err(SimError::unmappable("cannot fuse an empty chain"));
        }
        if layers.len() > self.clusters {
            return Err(SimError::unmappable(format!(
                "{} fused layers exceed {} clusters",
                layers.len(),
                self.clusters
            )));
        }
        // Whole-cluster shares, granted to the current bottleneck stage
        // (the same allocation objective as MAERI's fused mapper; the
        // difference is the coarse cluster granularity).
        let mut shares: Vec<usize> = vec![1; layers.len()];
        let mut left = self.clusters - layers.len();
        while left > 0 {
            let i = (0..layers.len())
                .max_by_key(|&i| self.fused_stage_cycles(&layers[i], shares[i]))
                .expect("non-empty");
            shares[i] += 1;
            left -= 1;
        }
        // Stage time from the shared pipeline model, with this fabric's
        // rigidity: a layer maps one channel slice per cluster (the
        // paper's Map C observation: only 9 of a cluster's 16 PEs
        // busy), a slice wider than a cluster consumes several whole
        // clusters, and each stage sees only its bus share.
        let mut bottleneck = 0u64;
        for (layer, &share) in layers.iter().zip(&shares) {
            bottleneck = bottleneck.max(self.fused_stage_cycles(layer, share));
        }
        let macs: u64 = layers.iter().map(ConvLayer::macs).sum();
        let mut run = RunStats::new(
            &format!("cluster-fused[{}]", layers.len()),
            self.num_pes(),
            Cycle::new(bottleneck),
            macs,
        );
        run.sram_reads = layers
            .iter()
            .map(|l| l.weight_count() as u64 + l.input_count() as u64)
            .sum();
        run.sram_writes = layers.last().map_or(0, |l| l.output_count() as u64);
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri_sim::SimRng;

    fn layer() -> ConvLayer {
        ConvLayer::new("vgg_c8_small", 256, 7, 7, 32, 3, 3, 1, 1)
    }

    #[test]
    fn dense_vgg_neuron_wastes_cluster_fraction() {
        // 27 MACs round to 2 clusters (32 PEs): peak util 27/32.
        let fc = FixedClusterArray::paper_baseline();
        let l = layer();
        let run = fc.run_conv(&l, &WeightMask::dense(&l), 3).unwrap();
        assert!(run.utilization() <= 27.0 / 32.0 + 1e-9);
        assert_eq!(run.macs, l.macs());
    }

    #[test]
    fn sparse_shrinks_work_but_not_proportionally_cycles() {
        // The bus serializes collection: halving the MACs does not come
        // close to halving the cycles (Figure 13's flat baseline).
        let fc = FixedClusterArray::paper_baseline();
        let l = layer();
        let dense = fc.run_conv(&l, &WeightMask::dense(&l), 3).unwrap();
        let sparse = fc
            .run_conv(&l, &WeightMask::generate(&l, 0.5, &mut SimRng::seed(3)), 3)
            .unwrap();
        assert!(sparse.macs < dense.macs / 2 + l.output_count() as u64);
        let cycle_ratio = sparse.cycles.as_f64() / dense.cycles.as_f64();
        assert!(
            cycle_ratio > 0.6,
            "baseline should barely speed up, got {cycle_ratio}"
        );
    }

    #[test]
    fn oversized_slice_folds_over_all_clusters() {
        let l = ConvLayer::new("big", 128, 7, 7, 4, 5, 5, 1, 2);
        let fc = FixedClusterArray::paper_baseline();
        // ct = 128: slices of up to 3200 weights >> 64 PEs.
        let run = fc.run_conv(&l, &WeightMask::dense(&l), 128).unwrap();
        assert_eq!(run.macs, l.macs());
        assert!(run.cycles.as_u64() > 0);
    }

    #[test]
    fn fused_chain_bottlenecked_by_rigid_shares() {
        let chain = vec![
            ConvLayer::new("c3", 256, 13, 13, 384, 3, 3, 1, 1),
            ConvLayer::new("c4", 384, 13, 13, 384, 3, 3, 1, 1),
            ConvLayer::new("c5", 384, 13, 13, 256, 3, 3, 1, 1),
        ];
        let fc = FixedClusterArray::paper_baseline();
        let run = fc.run_fused(&chain).unwrap();
        assert!(run.cycles.as_u64() > 0);
        // Rigid 16-PE clusters with 9-PE slices cap utilization.
        assert!(run.utilization() < 9.0 / 16.0 + 1e-9);
    }

    #[test]
    fn too_many_fused_layers_rejected() {
        let fc = FixedClusterArray::paper_baseline();
        let chain: Vec<ConvLayer> = (0..5)
            .map(|i| ConvLayer::new(&format!("l{i}"), 8, 8, 8, 8, 3, 3, 1, 1))
            .collect();
        assert!(fc.run_fused(&chain).is_err());
    }

    #[test]
    fn empty_mask_is_free() {
        let l = layer();
        let fc = FixedClusterArray::paper_baseline();
        let run = fc
            .run_conv(&l, &WeightMask::generate(&l, 1.0, &mut SimRng::seed(0)), 3)
            .unwrap();
        assert_eq!(run.macs, 0);
        assert_eq!(run.cycles, Cycle::ZERO);
    }

    #[test]
    fn invalid_tile_rejected() {
        let l = layer();
        let fc = FixedClusterArray::paper_baseline();
        assert!(fc.run_conv(&l, &WeightMask::dense(&l), 0).is_err());
    }
}
