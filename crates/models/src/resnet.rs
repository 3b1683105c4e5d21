//! ResNet50 (He et al., CVPR 2016), the paper's large model.
//!
//! Full architecture: a 7×7/2 stem, 3×3/2 max-pool, four stages of
//! bottleneck blocks (3, 4, 6, 3 blocks with widths 64/128/256/512),
//! global average pooling, and a 1000-way classifier. Inputs are
//! 224×224×3 images (NCHW `[3, 224, 224]` here); output is a 1000-class
//! probability vector. Weights are seeded random (content irrelevant for
//! the benchmarked quantity — see §4.1 of the paper).

use std::sync::Arc;

use crayfish_tensor::kernels::conv::Conv2dParams;
use crayfish_tensor::kernels::norm::BnParams;
use crayfish_tensor::{NnGraph, NodeId, Op, Shape, Tensor};

/// Number of output classes (ImageNet).
pub const CLASSES: usize = 1000;
/// Input channels/side.
pub const INPUT_SHAPE: [usize; 3] = [3, 224, 224];

/// Per-stage (block count, bottleneck width) for ResNet50.
const STAGES: [(usize, usize); 4] = [(3, 64), (4, 128), (6, 256), (3, 512)];
/// Bottleneck expansion factor.
const EXPANSION: usize = 4;

/// Builder state threading the seed counter through the graph.
struct Builder {
    g: NnGraph,
    seed: u64,
}

impl Builder {
    fn next_seed(&mut self) -> u64 {
        self.seed = self.seed.wrapping_add(1);
        self.seed
    }

    #[allow(clippy::too_many_arguments)] // mirrors the conv layer's natural parameter list
    fn conv(
        &mut self,
        name: &str,
        x: NodeId,
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> NodeId {
        let fan_in = in_c * kernel * kernel;
        let seed = self.next_seed();
        let w = Arc::new(Tensor::seeded_he(
            [out_c, in_c, kernel, kernel],
            seed,
            fan_in,
        ));
        self.g.add(
            name,
            Op::Conv2d {
                w,
                b: None,
                params: Conv2dParams {
                    in_c,
                    out_c,
                    kernel,
                    stride,
                    pad,
                },
            },
            vec![x],
        )
    }

    fn bn(&mut self, name: &str, x: NodeId, channels: usize) -> NodeId {
        // Near-identity batch-norm with mild per-channel variation so the
        // op is not numerically trivial; keeps deep activations bounded.
        let seed = self.next_seed();
        let gamma = Tensor::seeded_uniform([channels], seed, 0.9, 1.1).into_data();
        let beta = Tensor::seeded_uniform([channels], seed ^ 0xbeef, -0.05, 0.05).into_data();
        let params = Arc::new(BnParams {
            gamma,
            beta,
            mean: vec![0.0; channels],
            var: vec![1.0; channels],
            eps: 1e-5,
        });
        self.g.add(name, Op::BatchNorm { params }, vec![x])
    }

    fn relu(&mut self, name: &str, x: NodeId) -> NodeId {
        self.g.add(name, Op::Relu, vec![x])
    }

    /// One bottleneck block: 1×1 reduce → 3×3 → 1×1 expand, with a shortcut
    /// (projected by a 1×1 conv when the shape changes).
    fn bottleneck(
        &mut self,
        prefix: &str,
        x: NodeId,
        in_c: usize,
        width: usize,
        stride: usize,
    ) -> NodeId {
        let out_c = width * EXPANSION;
        let c1 = self.conv(&format!("{prefix}.conv1"), x, in_c, width, 1, 1, 0);
        let b1 = self.bn(&format!("{prefix}.bn1"), c1, width);
        let r1 = self.relu(&format!("{prefix}.relu1"), b1);
        let c2 = self.conv(&format!("{prefix}.conv2"), r1, width, width, 3, stride, 1);
        let b2 = self.bn(&format!("{prefix}.bn2"), c2, width);
        let r2 = self.relu(&format!("{prefix}.relu2"), b2);
        let c3 = self.conv(&format!("{prefix}.conv3"), r2, width, out_c, 1, 1, 0);
        let b3 = self.bn(&format!("{prefix}.bn3"), c3, out_c);
        let shortcut = if stride != 1 || in_c != out_c {
            let sc = self.conv(
                &format!("{prefix}.downsample"),
                x,
                in_c,
                out_c,
                1,
                stride,
                0,
            );
            self.bn(&format!("{prefix}.downsample_bn"), sc, out_c)
        } else {
            x
        };
        let sum = self
            .g
            .add(format!("{prefix}.add"), Op::Add, vec![b3, shortcut]);
        self.relu(&format!("{prefix}.relu_out"), sum)
    }
}

/// Build ResNet50 with weights seeded from `seed`.
pub fn build(seed: u64) -> NnGraph {
    build_scaled("resnet50", seed, INPUT_SHAPE[1], 64, &STAGES, CLASSES)
}

/// ResNet50's structure at another size: the 7×7/2 stem (`stem_c` filters)
/// and 3×3/2 max-pool over a `3 × side × side` input, then one stage of
/// bottleneck blocks per `(blocks, width)` entry — the first block of a
/// stage projects its shortcut (and, from the second stage on, strides by
/// 2), the others are identity blocks — global average pooling and a
/// `classes`-way classifier. Tests use it to put every fusion rule and
/// every convolution geometry of the real model into a graph that runs in
/// milliseconds.
pub fn build_scaled(
    name: &str,
    seed: u64,
    side: usize,
    stem_c: usize,
    stages: &[(usize, usize)],
    classes: usize,
) -> NnGraph {
    let mut b = Builder {
        g: NnGraph::new(name),
        seed,
    };
    let input = b.g.add(
        "input",
        Op::Input {
            shape: Shape::from([INPUT_SHAPE[0], side, side]),
        },
        vec![],
    );
    // Stem.
    let c = b.conv("stem.conv", input, INPUT_SHAPE[0], stem_c, 7, 2, 3);
    let n = b.bn("stem.bn", c, stem_c);
    let r = b.relu("stem.relu", n);
    let mut x =
        b.g.add("stem.maxpool", Op::MaxPool { k: 3, s: 2, pad: 1 }, vec![r]);
    // Stages.
    let mut in_c = stem_c;
    for (stage, &(blocks, width)) in stages.iter().enumerate() {
        for block in 0..blocks {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            x = b.bottleneck(
                &format!("layer{}.{}", stage + 1, block),
                x,
                in_c,
                width,
                stride,
            );
            in_c = width * EXPANSION;
        }
    }
    // Head.
    let gap = b.g.add("gap", Op::GlobalAvgPool, vec![x]);
    let seed_fc = b.next_seed();
    let w = Arc::new(Tensor::seeded_he([in_c, classes], seed_fc, in_c));
    let bias = Arc::new(Tensor::zeros([classes]));
    let fc = b.g.add("fc", Op::Dense { w, b: bias }, vec![gap]);
    b.g.add("softmax", Op::Softmax, vec![fc]);
    b.g
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Building ResNet50 materialises ~25 M random weights; share one
    /// instance across the tests.
    fn graph() -> &'static NnGraph {
        static G: OnceLock<NnGraph> = OnceLock::new();
        G.get_or_init(|| build(3))
    }

    #[test]
    fn io_shapes_match_table2() {
        let g = graph();
        assert_eq!(g.input_shape().unwrap().dims(), &[3, 224, 224]);
        assert_eq!(g.output_shape(1).unwrap().dims(), &[1, 1000]);
    }

    #[test]
    fn parameter_count_is_resnet50_scale() {
        let g = graph();
        let params = g.param_count();
        // Canonical ResNet50 has ~25.6 M parameters (the paper's Table 2
        // rounds the conv trunk to "23 M"). Accept the canonical range.
        assert!(
            (23_000_000..27_000_000).contains(&params),
            "params = {params}"
        );
    }

    #[test]
    fn flops_matches_canonical_resnet50() {
        let g = graph();
        let flops = g.flops(1).unwrap();
        // ResNet50 forward pass is canonically ~4.1 GMACs, i.e. ~8.2 GFLOPs
        // counting multiply and add separately (as `NnGraph::flops` does).
        assert!((7.5e9..9.0e9).contains(&(flops as f64)), "flops = {flops}");
    }

    #[test]
    fn intermediate_shapes_follow_the_paper_architecture() {
        let g = graph();
        let shapes = g.infer_shapes(1).unwrap();
        // After the stem max-pool the activation is [1, 64, 56, 56].
        let stem_pool = g
            .nodes()
            .iter()
            .find(|n| n.name == "stem.maxpool")
            .unwrap()
            .id;
        assert_eq!(shapes[stem_pool].dims(), &[1, 64, 56, 56]);
        // Final stage output is [1, 2048, 7, 7].
        let last_relu = g
            .nodes()
            .iter()
            .rfind(|n| n.name.starts_with("layer4") && n.name.ends_with("relu_out"))
            .unwrap()
            .id;
        assert_eq!(shapes[last_relu].dims(), &[1, 2048, 7, 7]);
    }

    #[test]
    fn scaled_build_keeps_the_block_structure() {
        // One projection block, one identity block, one strided projection.
        let g = build_scaled("resnet-mini", 1, 32, 8, &[(2, 8), (1, 16)], 10);
        assert_eq!(g.output_shape(2).unwrap().dims(), &[2, 10]);
        let count = |f: fn(&Op) -> bool| g.nodes().iter().filter(|n| f(&n.op)).count();
        assert_eq!(count(|op| matches!(op, Op::Add)), 3);
        // 1 stem + 3 blocks * 3 + 2 downsample projections.
        assert_eq!(count(|op| matches!(op, Op::Conv2d { .. })), 12);
    }

    #[test]
    fn has_53_convolutions_and_16_blocks() {
        let g = graph();
        let convs = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::Conv2d { .. }))
            .count();
        // 1 stem + 16 blocks * 3 + 4 downsample projections = 53.
        assert_eq!(convs, 53);
        let adds = g.nodes().iter().filter(|n| matches!(n.op, Op::Add)).count();
        assert_eq!(adds, 16);
    }
}
