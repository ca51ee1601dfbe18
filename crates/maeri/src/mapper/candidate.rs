//! The common currency between the heuristic mappers and the
//! mapping-space search (`maeri-mapspace`).
//!
//! Every mapper in this module exposes its tunable knobs as one
//! [`MappingCandidate`]: the layer-kind-specific partition
//! ([`CandidateKind`]) plus the distribution/collection chubby
//! bandwidths the fabric is built with. The legacy heuristics
//! ([`ConvMapper::heuristic_mapping`](super::ConvMapper::heuristic_mapping),
//! [`FcMapper::heuristic_vn_size`](super::FcMapper::heuristic_vn_size),
//! [`LstmMapper::heuristic_gate_vn_size`](super::LstmMapper::heuristic_gate_vn_size),
//! [`SparseConvMapper::auto_channel_tile`](super::SparseConvMapper::auto_channel_tile))
//! each resolve to one candidate, making them named points in the same
//! space the auto-tuner enumerates.

use maeri_sim::Result;

use super::conv::ConvMapping;
use crate::MaeriConfig;

/// The layer-kind-specific mapping knobs of one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CandidateKind {
    /// Dense CONV: channel tile, replication cap, loop order.
    Conv(ConvMapping),
    /// Sparse CONV: the channel tile survivor VNs are carved from.
    SparseConv {
        /// Channels covered per VN before mask compression.
        channel_tile: usize,
    },
    /// Fully-connected: the per-neuron VN-size target (folding knob).
    Fc {
        /// Multiplier switches per VN (each neuron folds
        /// `ceil(inputs / vn_size)` ways).
        vn_size: usize,
    },
    /// LSTM: the gate-phase VN-size target (the state phase always
    /// rebuilds two-wide VNs).
    Lstm {
        /// Multiplier switches per gate-phase VN.
        gate_vn_size: usize,
    },
}

/// One point in the mapping space: the partition knobs plus the fabric
/// bandwidth pair the candidate runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MappingCandidate {
    /// Layer-kind-specific knobs.
    pub kind: CandidateKind,
    /// Distribution-tree root bandwidth (words/cycle).
    pub dist_bandwidth: usize,
    /// Collection (ART) root bandwidth (words/cycle).
    pub collect_bandwidth: usize,
}

impl MappingCandidate {
    /// A candidate that keeps `base`'s bandwidth pair.
    #[must_use]
    pub fn with_base_bandwidth(kind: CandidateKind, base: &MaeriConfig) -> Self {
        MappingCandidate {
            kind,
            dist_bandwidth: base.dist_bandwidth(),
            collect_bandwidth: base.collect_bandwidth(),
        }
    }

    /// Rebuilds `base` with this candidate's bandwidth pair, keeping
    /// the multiplier count, local buffers, and any fault spec.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures (non-power-of-two
    /// or oversized bandwidths).
    pub fn config(&self, base: &MaeriConfig) -> Result<MaeriConfig> {
        let mut builder = MaeriConfig::builder(base.num_mult_switches())
            .distribution_bandwidth(self.dist_bandwidth)
            .collection_bandwidth(self.collect_bandwidth)
            .ms_local_buffers(base.ms_local_buffers());
        if let Some(spec) = base.faults() {
            builder = builder.faults(spec);
        }
        builder.build()
    }

    /// A stable human-readable label, e.g.
    /// `conv ct=3 max_vns=64 filter-major bw=8/8`.
    #[must_use]
    pub fn describe(&self) -> String {
        let knobs = match self.kind {
            CandidateKind::Conv(m) => {
                let order = match m.loop_order {
                    super::LoopOrder::FilterMajor => "filter-major",
                    super::LoopOrder::RowMajor => "row-major",
                };
                format!("conv ct={} max_vns={} {order}", m.channel_tile, m.max_vns)
            }
            CandidateKind::SparseConv { channel_tile } => {
                format!("sparse ct={channel_tile}")
            }
            CandidateKind::Fc { vn_size } => format!("fc vn={vn_size}"),
            CandidateKind::Lstm { gate_vn_size } => format!("lstm gate_vn={gate_vn_size}"),
        };
        format!(
            "{knobs} bw={}/{}",
            self.dist_bandwidth, self.collect_bandwidth
        )
    }
}
