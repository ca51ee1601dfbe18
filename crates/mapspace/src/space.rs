//! Search-space definition: what a search is over, and the full
//! deterministic enumeration of its candidates.

use maeri::{CandidateKind, ConvMapping, LoopOrder, MaeriConfig, MappingCandidate};
use maeri_dnn::{ConvLayer, FcLayer, LstmLayer};

use crate::strategy::Strategy;

/// The layer a search tunes. Sparse layers carry the mask *recipe*
/// (zero fraction + seed) rather than a materialized mask so specs
/// stay small, hashable, and serializable — the search regenerates the
/// mask deterministically.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchLayer {
    /// Dense convolution.
    Conv(ConvLayer),
    /// Sparse convolution with a seeded random weight mask.
    SparseConv {
        /// The dense layer shape.
        layer: ConvLayer,
        /// Fraction of weights that are zero (`0.0..=1.0`).
        zero_fraction: f64,
        /// Seed for the mask generator.
        mask_seed: u64,
    },
    /// Fully-connected layer.
    Fc(FcLayer),
    /// One LSTM time step (gate + state phases).
    Lstm(LstmLayer),
}

impl SearchLayer {
    /// The layer's name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            SearchLayer::Conv(l) | SearchLayer::SparseConv { layer: l, .. } => &l.name,
            SearchLayer::Fc(l) => &l.name,
            SearchLayer::Lstm(l) => &l.name,
        }
    }

    /// A short kind label (`conv`, `sparse`, `fc`, `lstm`).
    #[must_use]
    pub fn kind_label(&self) -> &'static str {
        match self {
            SearchLayer::Conv(_) => "conv",
            SearchLayer::SparseConv { .. } => "sparse",
            SearchLayer::Fc(_) => "fc",
            SearchLayer::Lstm(_) => "lstm",
        }
    }
}

/// A complete description of one mapping search. Everything the search
/// does is a deterministic function of this value, which is why
/// `maeri-runtime` can content-hash it as a cache key.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpec {
    /// The layer to tune.
    pub layer: SearchLayer,
    /// The fabric the layer runs on; candidate bandwidth pairs rebuild
    /// this config, keeping its multiplier count, buffers, and faults.
    pub base: MaeriConfig,
    /// Distribution/collection bandwidth pairs to explore. Empty means
    /// "only the base config's pair" — the default, which keeps the
    /// tuned-vs-heuristic comparison on identical hardware.
    pub bandwidths: Vec<(usize, usize)>,
    /// How to walk the space.
    pub strategy: Strategy,
    /// Frontier size: how many analytically-best candidates survive to
    /// exact validation (the heuristic point always joins them).
    pub top_k: usize,
}

impl SearchSpec {
    /// A spec with the default strategy (exhaustive), base-config
    /// bandwidths only, and a top-8 frontier.
    #[must_use]
    pub fn new(layer: SearchLayer, base: MaeriConfig) -> Self {
        SearchSpec {
            layer,
            base,
            bandwidths: Vec::new(),
            strategy: Strategy::Exhaustive,
            top_k: 8,
        }
    }

    /// Replaces the search strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Explores the given bandwidth pairs instead of the base pair.
    #[must_use]
    pub fn with_bandwidths(mut self, bandwidths: Vec<(usize, usize)>) -> Self {
        self.bandwidths = bandwidths;
        self
    }

    /// Replaces the frontier size.
    #[must_use]
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k;
        self
    }

    /// The effective bandwidth pairs (the base pair when none given).
    #[must_use]
    pub fn bandwidth_pairs(&self) -> Vec<(usize, usize)> {
        if self.bandwidths.is_empty() {
            vec![(self.base.dist_bandwidth(), self.base.collect_bandwidth())]
        } else {
            self.bandwidths.clone()
        }
    }
}

/// Closed-form size of the exhaustive space — the count [`enumerate`]
/// must produce (a test asserts the two agree, so exhaustive search
/// provably covers the space):
///
/// * CONV: `C x (log2(N) + 1) x 2 x |bandwidths|` (channel tiles x
///   power-of-two replication caps x loop orders x bandwidth pairs),
/// * sparse CONV: `C x |bandwidths|`,
/// * FC: `min(inputs, N) x |bandwidths|`,
/// * LSTM: `min(input_dim + hidden_dim, N) x |bandwidths|`.
#[must_use]
pub fn space_size(spec: &SearchSpec) -> u64 {
    let n = spec.base.num_mult_switches() as u64;
    let bw = spec.bandwidth_pairs().len() as u64;
    match &spec.layer {
        SearchLayer::Conv(l) => {
            let caps = spec.base.art_depth() as u64 + 1;
            l.in_channels as u64 * caps * 2 * bw
        }
        SearchLayer::SparseConv { layer, .. } => layer.in_channels as u64 * bw,
        SearchLayer::Fc(l) => (l.inputs as u64).min(n) * bw,
        SearchLayer::Lstm(l) => ((l.input_dim + l.hidden_dim) as u64).min(n) * bw,
    }
}

/// Every candidate in the space, in a fixed deterministic order
/// (bandwidth pairs outermost, then knobs ascending). Infeasible
/// candidates are *included* — the scoring pass prunes them, so the
/// enumeration count always matches [`space_size`].
#[must_use]
pub fn enumerate(spec: &SearchSpec) -> Vec<MappingCandidate> {
    let n = spec.base.num_mult_switches();
    let mut out = Vec::with_capacity(space_size(spec) as usize);
    for (dist_bandwidth, collect_bandwidth) in spec.bandwidth_pairs() {
        let push = |kind: CandidateKind, out: &mut Vec<MappingCandidate>| {
            out.push(MappingCandidate {
                kind,
                dist_bandwidth,
                collect_bandwidth,
            });
        };
        match &spec.layer {
            SearchLayer::Conv(l) => {
                for channel_tile in 1..=l.in_channels {
                    for exp in 0..=spec.base.art_depth() {
                        for loop_order in [LoopOrder::FilterMajor, LoopOrder::RowMajor] {
                            push(
                                CandidateKind::Conv(ConvMapping {
                                    channel_tile,
                                    max_vns: 1 << exp,
                                    loop_order,
                                }),
                                &mut out,
                            );
                        }
                    }
                }
            }
            SearchLayer::SparseConv { layer, .. } => {
                for channel_tile in 1..=layer.in_channels {
                    push(CandidateKind::SparseConv { channel_tile }, &mut out);
                }
            }
            SearchLayer::Fc(l) => {
                for vn_size in 1..=l.inputs.min(n) {
                    push(CandidateKind::Fc { vn_size }, &mut out);
                }
            }
            SearchLayer::Lstm(l) => {
                for gate_vn_size in 1..=(l.input_dim + l.hidden_dim).min(n) {
                    push(CandidateKind::Lstm { gate_vn_size }, &mut out);
                }
            }
        }
    }
    out
}
