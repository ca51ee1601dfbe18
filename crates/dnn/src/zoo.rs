//! Model zoo: the DNNs from Table 1 of the paper.
//!
//! Layer shapes follow the publicly documented topologies. Where the
//! original networks contain details irrelevant to the accelerator
//! evaluation (grouping in AlexNet, auxiliary classifiers in GoogLeNet,
//! GRU vs LSTM cells in DeepSpeech2), we use the closest standard shape
//! and note it in `DESIGN.md`; every evaluation in the paper depends only
//! on layer dimensions.

use std::collections::BTreeSet;

use crate::layer::{ConvLayer, FcLayer, Layer, LstmLayer, PoolLayer};

/// A named list of layers.
///
/// # Example
///
/// ```
/// use maeri_dnn::zoo;
///
/// let vgg = zoo::vgg16();
/// assert_eq!(vgg.count_kind("CONV"), 13);
/// assert_eq!(vgg.count_kind("FC"), 3);
/// assert_eq!(vgg.count_kind("POOL"), 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    name: String,
    layers: Vec<Layer>,
}

impl Model {
    /// Creates a model from a layer list.
    #[must_use]
    pub fn new(name: &str, layers: Vec<Layer>) -> Self {
        Model {
            name: name.to_owned(),
            layers,
        }
    }

    /// The model name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All layers in network order.
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Only the convolution layers, in order.
    #[must_use]
    pub fn conv_layers(&self) -> Vec<&ConvLayer> {
        self.layers
            .iter()
            .filter_map(|l| match l {
                Layer::Conv(c) => Some(c),
                _ => None,
            })
            .collect()
    }

    /// Finds a layer by name.
    #[must_use]
    pub fn layer(&self, name: &str) -> Option<&Layer> {
        self.layers.iter().find(|l| l.name() == name)
    }

    /// Number of layers of a given kind tag (`"CONV"`, `"FC"`, ...).
    #[must_use]
    pub fn count_kind(&self, kind: &str) -> usize {
        self.layers.iter().filter(|l| l.kind() == kind).count()
    }

    /// Distinct filter sizes used by the convolution layers, as
    /// `"RxS"` strings in sorted order (Table 1's "Filter Sizes").
    #[must_use]
    pub fn filter_sizes(&self) -> Vec<String> {
        let set: BTreeSet<(usize, usize)> = self
            .conv_layers()
            .iter()
            .map(|c| (c.kernel_h, c.kernel_w))
            .collect();
        set.into_iter().map(|(r, s)| format!("{r}x{s}")).collect()
    }

    /// Total MACs (comparisons for pooling) over all layers.
    #[must_use]
    pub fn total_work(&self) -> u64 {
        self.layers.iter().map(Layer::work).sum()
    }
}

fn conv(
    name: &str,
    in_c: usize,
    hw: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Layer {
    ConvLayer::new(name, in_c, hw, hw, out_c, k, k, stride, pad).into()
}

/// AlexNet (Krizhevsky et al., 2012), single-tower shapes.
#[must_use]
pub fn alexnet() -> Model {
    Model::new(
        "AlexNet",
        vec![
            conv("alexnet_conv1", 3, 224, 96, 11, 4, 2),
            PoolLayer::new("alexnet_pool1", 96, 55, 55, 3, 2).into(),
            conv("alexnet_conv2", 96, 27, 256, 5, 1, 2),
            PoolLayer::new("alexnet_pool2", 256, 27, 27, 3, 2).into(),
            conv("alexnet_conv3", 256, 13, 384, 3, 1, 1),
            conv("alexnet_conv4", 384, 13, 384, 3, 1, 1),
            conv("alexnet_conv5", 384, 13, 256, 3, 1, 1),
            PoolLayer::new("alexnet_pool5", 256, 13, 13, 3, 2).into(),
            FcLayer::new("alexnet_fc6", 256 * 6 * 6, 4096).into(),
            FcLayer::new("alexnet_fc7", 4096, 4096).into(),
            FcLayer::new("alexnet_fc8", 4096, 1000).into(),
        ],
    )
}

/// VGG-16 (Simonyan & Zisserman, 2014).
#[must_use]
pub fn vgg16() -> Model {
    let mut layers = Vec::new();
    // (count, in_channels, spatial, out_channels) per block.
    let blocks = [
        (2usize, 3usize, 224usize, 64usize),
        (2, 64, 112, 128),
        (3, 128, 56, 256),
        (3, 256, 28, 512),
        (3, 512, 14, 512),
    ];
    let mut conv_idx = 1usize;
    for (block_idx, &(count, in_c, hw, out_c)) in blocks.iter().enumerate() {
        let mut in_channels = in_c;
        for _ in 0..count {
            layers.push(conv(
                &format!("vgg16_conv{conv_idx}"),
                in_channels,
                hw,
                out_c,
                3,
                1,
                1,
            ));
            in_channels = out_c;
            conv_idx += 1;
        }
        layers.push(
            PoolLayer::new(&format!("vgg16_pool{}", block_idx + 1), out_c, hw, hw, 2, 2).into(),
        );
    }
    layers.push(FcLayer::new("vgg16_fc14", 512 * 7 * 7, 4096).into());
    layers.push(FcLayer::new("vgg16_fc15", 4096, 4096).into());
    layers.push(FcLayer::new("vgg16_fc16", 4096, 1000).into());
    Model::new("VGG-16", layers)
}

/// VGG-16 convolutional layer 8 — the layer used by the sparse-dataflow
/// experiment (Figure 13): 256 -> 512 channels at 28x28 with 3x3 filters.
#[must_use]
pub fn vgg16_c8() -> ConvLayer {
    ConvLayer::new("vgg16_conv8", 256, 28, 28, 512, 3, 3, 1, 1)
}

/// The worked example of Figure 17: eight 3x3x3 filters over a 5x5x3
/// input with stride 1 and "same" padding — the paper slides the window
/// 25 times, i.e. the output feature map is 5x5.
#[must_use]
pub fn fig17_example() -> ConvLayer {
    ConvLayer::new("fig17_example", 3, 5, 5, 8, 3, 3, 1, 1)
}

/// One GoogLeNet inception module: channel parameters as
/// `(n1x1, n3x3_reduce, n3x3, n5x5_reduce, n5x5, pool_proj)`.
fn inception(
    layers: &mut Vec<Layer>,
    name: &str,
    in_c: usize,
    hw: usize,
    p: (usize, usize, usize, usize, usize, usize),
) {
    let (n1, n3r, n3, n5r, n5, pp) = p;
    layers.push(conv(&format!("{name}_1x1"), in_c, hw, n1, 1, 1, 0));
    layers.push(conv(&format!("{name}_3x3r"), in_c, hw, n3r, 1, 1, 0));
    layers.push(conv(&format!("{name}_3x3"), n3r, hw, n3, 3, 1, 1));
    layers.push(conv(&format!("{name}_5x5r"), in_c, hw, n5r, 1, 1, 0));
    layers.push(conv(&format!("{name}_5x5"), n5r, hw, n5, 5, 1, 2));
    layers.push(conv(&format!("{name}_pool_proj"), in_c, hw, pp, 1, 1, 0));
}

/// GoogLeNet (Szegedy et al., 2014): stem + 9 inception modules + two
/// auxiliary-classifier 1x1 convolutions = 59 CONV layers, 16 POOL
/// layers (13 inception-internal + 3 reduction), 5 FC layers (main +
/// two aux heads with 2 FC each), matching Table 1's counts.
#[must_use]
pub fn googlenet() -> Model {
    let mut layers: Vec<Layer> = vec![
        conv("googlenet_conv1", 3, 224, 64, 7, 2, 3),
        PoolLayer::new("googlenet_pool1", 64, 112, 112, 3, 2).into(),
    ];
    layers.push(conv("googlenet_conv2r", 64, 56, 64, 1, 1, 0));
    layers.push(conv("googlenet_conv2", 64, 56, 192, 3, 1, 1));
    layers.push(PoolLayer::new("googlenet_pool2", 192, 56, 56, 3, 2).into());
    inception(
        &mut layers,
        "googlenet_3a",
        192,
        28,
        (64, 96, 128, 16, 32, 32),
    );
    layers.push(PoolLayer::new("googlenet_3a_pool", 192, 28, 28, 3, 1).into());
    inception(
        &mut layers,
        "googlenet_3b",
        256,
        28,
        (128, 128, 192, 32, 96, 64),
    );
    layers.push(PoolLayer::new("googlenet_3b_pool", 256, 28, 28, 3, 1).into());
    layers.push(PoolLayer::new("googlenet_pool3", 480, 28, 28, 3, 2).into());
    inception(
        &mut layers,
        "googlenet_4a",
        480,
        14,
        (192, 96, 208, 16, 48, 64),
    );
    layers.push(PoolLayer::new("googlenet_4a_pool", 480, 14, 14, 3, 1).into());
    inception(
        &mut layers,
        "googlenet_4b",
        512,
        14,
        (160, 112, 224, 24, 64, 64),
    );
    layers.push(PoolLayer::new("googlenet_4b_pool", 512, 14, 14, 3, 1).into());
    inception(
        &mut layers,
        "googlenet_4c",
        512,
        14,
        (128, 128, 256, 24, 64, 64),
    );
    layers.push(PoolLayer::new("googlenet_4c_pool", 512, 14, 14, 3, 1).into());
    inception(
        &mut layers,
        "googlenet_4d",
        512,
        14,
        (112, 144, 288, 32, 64, 64),
    );
    layers.push(PoolLayer::new("googlenet_4d_pool", 512, 14, 14, 3, 1).into());
    inception(
        &mut layers,
        "googlenet_4e",
        528,
        14,
        (256, 160, 320, 32, 128, 128),
    );
    layers.push(PoolLayer::new("googlenet_4e_pool", 528, 14, 14, 3, 1).into());
    layers.push(PoolLayer::new("googlenet_pool4", 832, 14, 14, 3, 2).into());
    inception(
        &mut layers,
        "googlenet_5a",
        832,
        7,
        (256, 160, 320, 32, 128, 128),
    );
    layers.push(PoolLayer::new("googlenet_5a_pool", 832, 7, 7, 3, 1).into());
    inception(
        &mut layers,
        "googlenet_5b",
        832,
        7,
        (384, 192, 384, 48, 128, 128),
    );
    layers.push(PoolLayer::new("googlenet_5b_pool", 832, 7, 7, 3, 1).into());
    layers.push(PoolLayer::new("googlenet_avgpool", 1024, 7, 7, 7, 7).into());
    // Auxiliary classifiers (4a and 4d taps): avg pool + 1x1 conv + 2 FC each.
    layers.push(PoolLayer::new("googlenet_aux1_pool", 512, 14, 14, 5, 3).into());
    layers.push(conv("googlenet_aux1_conv", 512, 4, 128, 1, 1, 0));
    layers.push(FcLayer::new("googlenet_aux1_fc1", 128 * 4 * 4, 1024).into());
    layers.push(FcLayer::new("googlenet_aux1_fc2", 1024, 1000).into());
    layers.push(PoolLayer::new("googlenet_aux2_pool", 528, 14, 14, 5, 3).into());
    layers.push(conv("googlenet_aux2_conv", 528, 4, 128, 1, 1, 0));
    layers.push(FcLayer::new("googlenet_aux2_fc1", 128 * 4 * 4, 1024).into());
    layers.push(FcLayer::new("googlenet_aux2_fc2", 1024, 1000).into());
    layers.push(FcLayer::new("googlenet_fc", 1024, 1000).into());
    Model::new("GoogLeNet", layers)
}

/// ResNet-50 (He et al., 2015): conv1 + 16 bottleneck blocks of 3
/// convolutions = 49 CONV layers (projection shortcuts not counted,
/// matching Table 1), 2 POOL layers.
#[must_use]
pub fn resnet50() -> Model {
    let mut layers: Vec<Layer> = Vec::new();
    layers.push(conv("resnet50_conv1", 3, 224, 64, 7, 2, 3));
    layers.push(PoolLayer::new("resnet50_pool1", 64, 112, 112, 3, 2).into());
    // (blocks, mid_channels, out_channels, spatial) per stage.
    let stages = [
        (3usize, 64usize, 256usize, 56usize),
        (4, 128, 512, 28),
        (6, 256, 1024, 14),
        (3, 512, 2048, 7),
    ];
    let mut in_c = 64usize;
    for (stage_idx, &(blocks, mid, out, hw)) in stages.iter().enumerate() {
        for b in 0..blocks {
            let tag = format!("resnet50_s{}b{}", stage_idx + 2, b + 1);
            layers.push(conv(&format!("{tag}_1x1a"), in_c, hw, mid, 1, 1, 0));
            layers.push(conv(&format!("{tag}_3x3"), mid, hw, mid, 3, 1, 1));
            layers.push(conv(&format!("{tag}_1x1b"), mid, hw, out, 1, 1, 0));
            in_c = out;
        }
    }
    layers.push(PoolLayer::new("resnet50_avgpool", 2048, 7, 7, 7, 7).into());
    Model::new("ResNet-50", layers)
}

/// DeepSpeech2 (Amodei et al., 2015): two 2-D convolutions with the
/// paper's 41x11 and 21x11 filters over a spectrogram, seven recurrent
/// layers (modeled as LSTM; the original uses GRU — identical shape for
/// mapping purposes), and one FC output layer.
#[must_use]
pub fn deepspeech2() -> Model {
    let mut layers: Vec<Layer> = Vec::new();
    // 161 frequency bins x 100 time steps, 32 filters.
    layers.push(ConvLayer::new("ds2_conv1", 1, 161, 100, 32, 41, 11, 2, 20).into());
    layers.push(ConvLayer::new("ds2_conv2", 32, 81, 50, 32, 21, 11, 2, 10).into());
    for i in 0..7 {
        let input_dim = if i == 0 { 32 * 41 } else { 1280 };
        layers.push(LstmLayer::new(&format!("ds2_rnn{}", i + 1), input_dim, 1280).into());
    }
    layers.push(FcLayer::new("ds2_fc", 1280, 29).into());
    Model::new("DeepSpeech2", layers)
}

/// Deep Voice (Arik et al., 2017): 40 recurrent layers and 3 FC layers
/// per Table 1; we model the recurrent stack as uniform LSTM layers over
/// the 28x29 input noted in the table.
#[must_use]
pub fn deepvoice() -> Model {
    let mut layers: Vec<Layer> = Vec::new();
    for i in 0..40 {
        let input_dim = if i == 0 { 28 * 29 } else { 256 };
        layers.push(LstmLayer::new(&format!("deepvoice_rnn{}", i + 1), input_dim, 256).into());
    }
    layers.push(FcLayer::new("deepvoice_fc1", 256, 256).into());
    layers.push(FcLayer::new("deepvoice_fc2", 256, 256).into());
    layers.push(FcLayer::new("deepvoice_fc3", 256, 64).into());
    Model::new("Deep Voice", layers)
}

/// Generates a random but *valid* feed-forward model: alternating
/// CONV/POOL stages with consistent channel chains, optionally ending
/// in FC layers — the workload generator used to fuzz the mappers and
/// the controller beyond the fixed zoo.
///
/// Shapes stay in the ranges real networks use (Table 1): kernels
/// 1/3/5/7/11, channels up to 512, spatial sizes halving through the
/// network.
#[must_use]
pub fn random_model(rng: &mut maeri_sim::SimRng, stages: usize) -> Model {
    let stages = stages.max(1);
    let mut layers: Vec<Layer> = Vec::new();
    let mut channels = [1usize, 3, 16][rng.next_below(3)];
    let mut hw = [16usize, 28, 32, 56][rng.next_below(4)];
    for stage in 0..stages {
        let kernel = [1usize, 3, 3, 5, 7, 11][rng.next_below(6)].min(hw);
        let stride = if kernel >= 7 && rng.next_bool(0.5) {
            2
        } else {
            1
        };
        let pad = kernel / 2;
        let out_channels = [8usize, 16, 32, 64, 128][rng.next_below(5)];
        layers.push(
            ConvLayer::new(
                &format!("rand_conv{stage}"),
                channels,
                hw,
                hw,
                out_channels,
                kernel,
                kernel,
                stride,
                pad,
            )
            .into(),
        );
        channels = out_channels;
        hw = (hw + 2 * pad - kernel) / stride + 1;
        // Occasionally pool the map down.
        if hw >= 4 && rng.next_bool(0.4) {
            layers
                .push(PoolLayer::new(&format!("rand_pool{stage}"), channels, hw, hw, 2, 2).into());
            hw = (hw - 2) / 2 + 1;
        }
        if hw < 2 {
            break;
        }
    }
    let flat = channels * hw * hw;
    layers.push(FcLayer::new("rand_fc", flat, 1 + rng.next_below(64)).into());
    Model::new("random", layers)
}

/// All six Table 1 models.
#[must_use]
pub fn all_models() -> Vec<Model> {
    vec![
        alexnet(),
        googlenet(),
        resnet50(),
        vgg16(),
        deepspeech2(),
        deepvoice(),
    ]
}

/// The convolution layers evaluated in Figure 12: AlexNet C1-C5 and a
/// representative spread of VGG-16 layers (early, middle, late).
#[must_use]
pub fn fig12_layers() -> Vec<ConvLayer> {
    let alexnet = alexnet();
    let vgg = vgg16();
    let mut out: Vec<ConvLayer> = alexnet.conv_layers().into_iter().cloned().collect();
    for name in [
        "vgg16_conv2",
        "vgg16_conv4",
        "vgg16_conv8",
        "vgg16_conv11",
        "vgg16_conv13",
    ] {
        if let Some(Layer::Conv(c)) = vgg.layer(name) {
            out.push(c.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_layer_counts() {
        // Paper Table 1 rows (POOL/FC counts for AlexNet differ between
        // publications; we match the canonical topology).
        let vgg = vgg16();
        assert_eq!(vgg.count_kind("CONV"), 13);
        assert_eq!(vgg.count_kind("POOL"), 5);
        assert_eq!(vgg.count_kind("FC"), 3);

        let goog = googlenet();
        assert_eq!(goog.count_kind("CONV"), 59);
        assert_eq!(goog.count_kind("POOL"), 16);
        assert_eq!(goog.count_kind("FC"), 5);

        let resnet = resnet50();
        assert_eq!(resnet.count_kind("CONV"), 49);
        assert_eq!(resnet.count_kind("POOL"), 2);

        let ds2 = deepspeech2();
        assert_eq!(ds2.count_kind("CONV"), 2);
        assert_eq!(ds2.count_kind("LSTM"), 7);
        assert_eq!(ds2.count_kind("FC"), 1);

        let dv = deepvoice();
        assert_eq!(dv.count_kind("LSTM"), 40);
        assert_eq!(dv.count_kind("FC"), 3);
    }

    #[test]
    fn alexnet_filter_sizes_match_table1() {
        let sizes = alexnet().filter_sizes();
        assert_eq!(sizes, vec!["3x3", "5x5", "11x11"]);
    }

    #[test]
    fn googlenet_filter_sizes_match_table1() {
        let sizes = googlenet().filter_sizes();
        assert_eq!(sizes, vec!["1x1", "3x3", "5x5", "7x7"]);
    }

    #[test]
    fn vgg_chain_shapes_are_consistent() {
        // Each conv layer's input channels must equal the previous
        // layer's output channels within a block chain.
        let vgg = vgg16();
        let convs = vgg.conv_layers();
        assert_eq!(convs[0].in_channels, 3);
        assert_eq!(convs[12].out_channels, 512);
        // All VGG convs are 3x3 stride 1 pad 1 (shape-preserving).
        for c in &convs {
            assert_eq!((c.kernel_h, c.kernel_w, c.stride, c.pad), (3, 3, 1, 1));
            assert_eq!(c.out_h(), c.in_h);
        }
    }

    #[test]
    fn vgg_c8_is_the_sparse_experiment_layer() {
        let c8 = vgg16_c8();
        assert_eq!(c8.in_channels, 256);
        assert_eq!(c8.out_channels, 512);
        assert_eq!(c8.in_h, 28);
        let from_model = vgg16();
        let Layer::Conv(model_c8) = from_model.layer("vgg16_conv8").unwrap() else {
            panic!("conv8 missing");
        };
        assert_eq!(&c8, model_c8);
    }

    #[test]
    fn fig17_example_matches_paper() {
        let e = fig17_example();
        assert_eq!(e.filter_volume(), 27);
        assert_eq!(e.out_channels, 8);
        // "the example requires sliding the window 25 times"
        assert_eq!(e.out_h() * e.out_w(), 25);
        assert_eq!(e.weight_count(), 216);
        assert_eq!(e.input_count(), 75);
    }

    #[test]
    fn fig12_selection_has_alexnet_and_vgg() {
        let layers = fig12_layers();
        assert_eq!(layers.len(), 10);
        assert_eq!(layers[0].name, "alexnet_conv1");
        assert!(layers.iter().any(|c| c.name == "vgg16_conv8"));
    }

    #[test]
    fn resnet_bottleneck_channel_chain() {
        let resnet = resnet50();
        let convs = resnet.conv_layers();
        // First bottleneck: 64 -> 64 -> 64 -> 256.
        assert_eq!(convs[1].in_channels, 64);
        assert_eq!(convs[3].out_channels, 256);
        // Second bottleneck input sees 256.
        assert_eq!(convs[4].in_channels, 256);
    }

    #[test]
    fn random_models_are_structurally_valid() {
        use maeri_sim::SimRng;
        for seed in 0..50 {
            let model = random_model(&mut SimRng::seed(seed), 1 + (seed as usize % 6));
            // Channel chains are consistent conv-to-conv.
            let convs = model.conv_layers();
            assert!(!convs.is_empty());
            assert!(model.total_work() > 0);
            // The final FC consumes whatever the feature extractor
            // produced.
            assert!(matches!(model.layers().last(), Some(Layer::Fc(_))));
        }
    }

    #[test]
    fn random_models_are_deterministic_per_seed() {
        use maeri_sim::SimRng;
        let a = random_model(&mut SimRng::seed(9), 4);
        let b = random_model(&mut SimRng::seed(9), 4);
        assert_eq!(a, b);
    }

    #[test]
    fn all_models_have_positive_work() {
        for model in all_models() {
            assert!(model.total_work() > 0, "{} has no work", model.name());
            assert!(!model.layers().is_empty());
        }
    }

    #[test]
    fn layer_lookup_by_name() {
        let alexnet = alexnet();
        assert!(alexnet.layer("alexnet_conv3").is_some());
        assert!(alexnet.layer("nonexistent").is_none());
    }
}
