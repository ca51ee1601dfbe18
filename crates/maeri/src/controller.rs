//! The programmable controller: whole-network execution.
//!
//! Section 3 of the paper: "The entire accelerator is controlled by a
//! programmable controller which manages reconfiguration of all three
//! sets of switches for mapping the target dataflow." This module plays
//! that role at network scope — it *compiles* a model into a per-layer
//! command schedule (which mapper, what VN shape, how many iterations)
//! and executes the schedule, accounting DRAM traffic against the
//! prefetch buffer's capacity: a layer whose input activations were
//! left in the buffer by its producer skips the DRAM fetch, which is
//! the memory-hierarchy effect cross-layer fusion generalizes.

use maeri_dnn::zoo::Model;
use maeri_dnn::{Layer, WeightMask};
use maeri_sim::{Result, SimRng};

use crate::engine::RunStats;
use crate::mapper::{ConvMapper, FcMapper, LstmMapper, PoolMapper, SparseConvMapper, VnPolicy};
use crate::MaeriConfig;

/// One entry of the compiled schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerCommand {
    /// Layer name.
    pub layer: String,
    /// Layer kind tag.
    pub kind: String,
    /// Virtual-neuron size chosen (leaves per VN).
    pub vn_size: usize,
    /// Simultaneous virtual neurons.
    pub num_vns: usize,
    /// Iterations (reconfiguration epochs) over the layer.
    pub iterations: u64,
}

/// Result of executing a whole model.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkRun {
    /// Model name.
    pub model: String,
    /// Per-layer results, in network order.
    pub layers: Vec<RunStats>,
    /// The compiled schedule.
    pub schedule: Vec<LayerCommand>,
    /// Words fetched from DRAM (weights always; activations only when
    /// they did not fit in the prefetch buffer).
    pub dram_words: u64,
    /// Words that stayed on chip because the producer's output fit in
    /// the prefetch buffer.
    pub dram_words_avoided: u64,
}

impl NetworkRun {
    /// Total cycles over all layers (layers run back to back).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles.as_u64()).sum()
    }

    /// Total useful work.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Network-level compute utilization. Shares
    /// [`maeri_sim::util::utilization`] with the per-layer
    /// [`RunStats::utilization`] so the two agree bit for bit.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let units = self.layers.first().map_or(64, |l| l.compute_units);
        maeri_sim::util::utilization(self.total_macs(), units, self.total_cycles())
    }
}

/// The network-scope controller.
///
/// # Example
///
/// ```
/// use maeri::controller::Controller;
/// use maeri::MaeriConfig;
/// use maeri_dnn::zoo;
///
/// let controller = Controller::new(MaeriConfig::paper_64(), 80);
/// let run = controller.run_model(&zoo::alexnet())?;
/// assert_eq!(run.layers.len(), zoo::alexnet().layers().len());
/// assert!(run.dram_words > 0);
/// # Ok::<(), maeri_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Controller {
    cfg: MaeriConfig,
    pb_words: u64,
}

impl Controller {
    /// Creates a controller over a fabric with a `prefetch_kb` kilobyte
    /// buffer (16-bit words).
    #[must_use]
    pub fn new(cfg: MaeriConfig, prefetch_kb: usize) -> Self {
        Controller {
            cfg,
            pb_words: (prefetch_kb as u64 * 1024) / 2,
        }
    }

    /// The fabric configuration.
    #[must_use]
    pub fn config(&self) -> &MaeriConfig {
        &self.cfg
    }

    /// Prefetch-buffer capacity in words.
    #[must_use]
    pub fn prefetch_words(&self) -> u64 {
        self.pb_words
    }

    /// Compiles and executes a model layer by layer.
    ///
    /// # Errors
    ///
    /// Propagates mapper failures.
    pub fn run_model(&self, model: &Model) -> Result<NetworkRun> {
        self.run_model_with(model, None)
    }

    /// Compiles and executes a model with every CONV layer pruned to
    /// `zero_fraction` sparsity (seeded).
    ///
    /// # Errors
    ///
    /// Propagates mapper failures.
    pub fn run_model_sparse(
        &self,
        model: &Model,
        zero_fraction: f64,
        seed: u64,
    ) -> Result<NetworkRun> {
        self.run_model_with(model, Some((zero_fraction, seed)))
    }

    fn run_model_with(&self, model: &Model, sparsity: Option<(f64, u64)>) -> Result<NetworkRun> {
        let mut layers = Vec::with_capacity(model.layers().len());
        let mut schedule = Vec::with_capacity(model.layers().len());
        let mut dram_words = 0u64;
        let mut dram_avoided = 0u64;
        // Words the previous layer left in the prefetch buffer (0 when
        // it spilled to DRAM).
        let mut resident_words = 0u64;
        for layer in model.layers() {
            let (run, command, input_words, output_words) = match layer {
                Layer::Conv(conv) => {
                    let mapper = ConvMapper::new(self.cfg);
                    let run = match sparsity {
                        Some((fraction, seed)) if fraction > 0.0 => {
                            let mask =
                                WeightMask::generate(conv, fraction, &mut SimRng::seed(seed));
                            let sparse = SparseConvMapper::new(self.cfg);
                            let ct = sparse.auto_channel_tile(conv, &mask);
                            sparse.run(conv, &mask, ct)?
                        }
                        _ => mapper.run(conv, VnPolicy::Auto)?,
                    };
                    let plan = mapper.plan(conv, VnPolicy::Auto)?;
                    let command = LayerCommand {
                        layer: conv.name.clone(),
                        kind: "CONV".to_owned(),
                        vn_size: plan.vn_size,
                        num_vns: plan.num_vns,
                        iterations: plan.iterations,
                    };
                    (
                        run,
                        command,
                        conv.input_count() as u64,
                        conv.output_count() as u64,
                    )
                }
                Layer::Fc(fc) => {
                    let run = FcMapper::new(self.cfg).run(fc)?;
                    let iterations = run.extra.get("fc_iterations");
                    let command = LayerCommand {
                        layer: fc.name.clone(),
                        kind: "FC".to_owned(),
                        vn_size: self.cfg.num_mult_switches().min(fc.inputs),
                        num_vns: (self.cfg.num_mult_switches()
                            / self.cfg.num_mult_switches().min(fc.inputs))
                        .max(1),
                        iterations,
                    };
                    (run, command, fc.inputs as u64, fc.outputs as u64)
                }
                Layer::Pool(pool) => {
                    let run = PoolMapper::new(self.cfg).run(pool)?;
                    let window = pool.window * pool.window;
                    let command = LayerCommand {
                        layer: pool.name.clone(),
                        kind: "POOL".to_owned(),
                        vn_size: window.min(self.cfg.num_mult_switches()),
                        num_vns: (self.cfg.num_mult_switches() / window).max(1),
                        iterations: run.extra.get("pool_iterations"),
                    };
                    (
                        run,
                        command,
                        (pool.channels * pool.in_h * pool.in_w) as u64,
                        (pool.channels * pool.out_h() * pool.out_w()) as u64,
                    )
                }
                Layer::Lstm(lstm) => {
                    let run = LstmMapper::new(self.cfg).run(lstm)?;
                    let d = lstm.input_dim + lstm.hidden_dim;
                    let vn = d.min(self.cfg.num_mult_switches());
                    let command = LayerCommand {
                        layer: lstm.name.clone(),
                        kind: "LSTM".to_owned(),
                        vn_size: vn,
                        num_vns: (self.cfg.num_mult_switches() / vn).max(1),
                        iterations: run.extra.get("gate_iterations"),
                    };
                    (run, command, lstm.input_dim as u64, lstm.hidden_dim as u64)
                }
                other => {
                    return Err(maeri_sim::SimError::unmappable(format!(
                        "unsupported layer kind {}",
                        other.kind()
                    )))
                }
            };
            // DRAM accounting: weights always come from DRAM; inputs
            // come from DRAM unless the producer left them resident.
            let weights_from_dram = match layer {
                Layer::Conv(conv) => conv.weight_count() as u64,
                Layer::Fc(fc) => fc.macs(),
                // Four gate matrices over [x; h_prev].
                Layer::Lstm(lstm) => lstm.gate_macs(),
                // Pooling (and any future weightless layer) loads none.
                _ => 0,
            };
            dram_words += weights_from_dram;
            if resident_words >= input_words && input_words > 0 {
                dram_avoided += input_words;
            } else {
                dram_words += input_words;
            }
            // Outputs stay resident when they fit; otherwise they spill.
            if output_words * 2 <= self.pb_words {
                resident_words = output_words;
            } else {
                dram_words += output_words;
                resident_words = 0;
            }
            layers.push(run);
            schedule.push(command);
        }
        Ok(NetworkRun {
            model: model.name().to_owned(),
            layers,
            schedule,
            dram_words,
            dram_words_avoided: dram_avoided,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maeri_dnn::zoo;

    fn controller() -> Controller {
        Controller::new(MaeriConfig::paper_64(), 80)
    }

    #[test]
    fn alexnet_schedule_covers_every_layer() {
        let run = controller().run_model(&zoo::alexnet()).unwrap();
        assert_eq!(run.layers.len(), 11);
        assert_eq!(run.schedule.len(), 11);
        assert_eq!(run.total_macs(), zoo::alexnet().total_work());
        // The schedule records sensible VN shapes.
        for cmd in &run.schedule {
            assert!(cmd.vn_size >= 1 && cmd.vn_size <= 64, "{cmd:?}");
            assert!(cmd.num_vns >= 1, "{cmd:?}");
            assert!(cmd.iterations >= 1, "{cmd:?}");
        }
    }

    #[test]
    fn small_activations_stay_on_chip() {
        // AlexNet's late layers produce small maps that fit the 80KB
        // buffer, so some DRAM input traffic is avoided.
        let run = controller().run_model(&zoo::alexnet()).unwrap();
        assert!(run.dram_words_avoided > 0);
        assert!(run.dram_words > 0);
    }

    #[test]
    fn tiny_buffer_avoids_nothing_on_big_maps() {
        // A 2KB buffer cannot hold VGG's early 224x224x64 maps.
        let small = Controller::new(MaeriConfig::paper_64(), 2);
        let run = small.run_model(&zoo::vgg16()).unwrap();
        let big = controller().run_model(&zoo::vgg16()).unwrap();
        assert!(run.dram_words_avoided <= big.dram_words_avoided);
        assert!(run.dram_words >= big.dram_words);
    }

    #[test]
    fn sparse_network_run_reduces_work() {
        let dense = controller().run_model(&zoo::alexnet()).unwrap();
        let sparse = controller()
            .run_model_sparse(&zoo::alexnet(), 0.4, 7)
            .unwrap();
        assert!(sparse.total_macs() < dense.total_macs());
        assert!(sparse.total_cycles() < dense.total_cycles());
    }

    #[test]
    fn recurrent_models_run_too() {
        let run = controller().run_model(&zoo::deepspeech2()).unwrap();
        assert_eq!(run.layers.len(), 10);
        assert!(run.schedule.iter().any(|c| c.kind == "LSTM"));
        assert!(run.utilization() > 0.0);
    }

    #[test]
    fn utilization_is_consistent_with_layers() {
        let run = controller().run_model(&zoo::vgg16()).unwrap();
        let util = run.utilization();
        assert!(util > 0.0 && util <= 1.0, "network utilization {util}");
    }

    #[test]
    fn network_and_layer_utilization_share_one_definition() {
        // A single-layer network's utilization must be *bitwise*
        // identical to that layer's RunStats figure — both sides go
        // through maeri_sim::util::utilization, so any drift between
        // the two formulas is a regression.
        let run = controller().run_model(&zoo::alexnet()).unwrap();
        let layer = run.layers[0].clone();
        let single = NetworkRun {
            model: "one-layer".to_owned(),
            layers: vec![layer.clone()],
            schedule: Vec::new(),
            dram_words: 0,
            dram_words_avoided: 0,
        };
        assert_eq!(
            single.utilization().to_bits(),
            layer.utilization().to_bits(),
            "network {} vs layer {}",
            single.utilization(),
            layer.utilization()
        );
    }
}
