//! Property tests of the serialized model formats: arbitrary generated
//! MLPs round-trip through every format, and the decoded graph computes the
//! same function.

use std::sync::Arc;

use proptest::prelude::*;

use crayfish_models::formats::{decode, encode, sniff};
use crayfish_models::ModelFormat;
use crayfish_tensor::kernels::conv::Conv2dParams;
use crayfish_tensor::{NnGraph, Op, Shape, Tensor, TensorError};

/// Build a random MLP from a layer-width specification.
fn random_mlp(widths: &[usize], seed: u64) -> NnGraph {
    let mut g = NnGraph::new(format!("mlp-{seed}"));
    let input = g.add(
        "input",
        Op::Input {
            shape: Shape::from([widths[0]]),
        },
        vec![],
    );
    let mut x = g.add("flatten", Op::Flatten, vec![input]);
    for (i, pair) in widths.windows(2).enumerate() {
        let (inf, outf) = (pair[0], pair[1]);
        let w = Arc::new(Tensor::seeded_uniform(
            [inf, outf],
            seed.wrapping_add(i as u64),
            -0.5,
            0.5,
        ));
        let b = Arc::new(Tensor::seeded_uniform(
            [outf],
            seed ^ (i as u64 + 99),
            -0.1,
            0.1,
        ));
        let d = g.add(format!("fc{i}"), Op::Dense { w, b }, vec![x]);
        x = g.add(format!("relu{i}"), Op::Relu, vec![d]);
    }
    g.add("softmax", Op::Softmax, vec![x]);
    g
}

/// Execute an MLP graph directly (small reference interpreter, independent
/// of `crayfish-runtime`).
fn forward(g: &NnGraph, input: &Tensor) -> Vec<f32> {
    let batch = input.batch();
    let mut outputs: Vec<Vec<f32>> = Vec::new();
    for node in g.nodes() {
        let value = match &node.op {
            Op::Input { .. } => input.data().to_vec(),
            Op::Flatten => outputs[node.inputs[0]].clone(),
            Op::Dense { w, b } => {
                let x = &outputs[node.inputs[0]];
                let (inf, outf) = (w.shape().dim(0), w.shape().dim(1));
                let mut out = vec![0.0f32; batch * outf];
                for r in 0..batch {
                    for o in 0..outf {
                        let mut acc = b.data()[o];
                        for i in 0..inf {
                            acc += x[r * inf + i] * w.data()[i * outf + o];
                        }
                        out[r * outf + o] = acc;
                    }
                }
                out
            }
            Op::Relu => outputs[node.inputs[0]].iter().map(|v| v.max(0.0)).collect(),
            Op::Softmax => {
                let x = &outputs[node.inputs[0]];
                let cols = x.len() / batch;
                let mut out = x.clone();
                crayfish_tensor::kernels::activation::softmax_rows(&mut out, batch, cols);
                out
            }
            other => panic!("unexpected op {}", other.kind()),
        };
        outputs.push(value);
    }
    outputs[g.output()].clone()
}

/// `input [2, 6, 6]` → one window op, as a careless exporter might write it.
fn one_window_op(op: Op) -> NnGraph {
    let mut g = NnGraph::new("window");
    let input = g.add(
        "input",
        Op::Input {
            shape: Shape::from([2, 6, 6]),
        },
        vec![],
    );
    g.add("window", op, vec![input]);
    g
}

fn conv_op(kernel: usize, stride: usize, pad: usize) -> Op {
    Op::Conv2d {
        w: Arc::new(Tensor::zeros([3, 2, kernel, kernel])),
        b: None,
        params: Conv2dParams {
            in_c: 2,
            out_c: 3,
            kernel,
            stride,
            pad,
        },
    }
}

/// Every format decodes a convolution or max-pool with a zero stride, a zero
/// kernel or a window larger than the padded input (they describe layers,
/// they do not judge them). Shape inference — the validator every executor
/// runs at load — must answer with a graph error: it used to divide by zero
/// or wrap around and abort on the allocation that followed.
#[test]
fn window_geometry_without_output_is_a_graph_error_in_every_format() {
    let cases = [
        ("conv stride 0", conv_op(3, 0, 1)),
        ("conv kernel 0", conv_op(0, 1, 0)),
        ("conv window > input", conv_op(9, 1, 1)),
        ("pool stride 0", Op::MaxPool { k: 2, s: 0, pad: 0 }),
        ("pool kernel 0", Op::MaxPool { k: 0, s: 1, pad: 0 }),
        ("pool window > input", Op::MaxPool { k: 7, s: 2, pad: 0 }),
    ];
    for (what, op) in cases {
        let g = one_window_op(op);
        for format in ModelFormat::ALL {
            let bytes = encode(&g, format).unwrap();
            let back =
                decode(&bytes).unwrap_or_else(|e| panic!("{what} in {}: {e}", format.name()));
            match back.infer_shapes(1) {
                Err(TensorError::Graph(msg)) => assert!(msg.contains("window"), "{what}: {msg}"),
                other => panic!(
                    "{what} in {}: expected a graph error, got {other:?}",
                    format.name()
                ),
            }
        }
    }
    // The same layers with a sound geometry pass.
    for op in [conv_op(3, 2, 1), Op::MaxPool { k: 3, s: 2, pad: 1 }] {
        let bytes = encode(&one_window_op(op), ModelFormat::Onnx).unwrap();
        assert!(decode(&bytes).unwrap().infer_shapes(4).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_mlps_roundtrip_every_format(
        widths in proptest::collection::vec(1usize..12, 2..5),
        seed in any::<u64>(),
    ) {
        let g = random_mlp(&widths, seed);
        let input = Tensor::seeded_uniform([2, widths[0]], seed ^ 0xF00D, -1.0, 1.0);
        let reference = forward(&g, &input);
        for format in ModelFormat::ALL {
            let bytes = encode(&g, format).unwrap();
            prop_assert_eq!(sniff(&bytes).unwrap(), format);
            let back = decode(&bytes).unwrap();
            prop_assert_eq!(back.param_count(), g.param_count());
            let replay = forward(&back, &input);
            for (a, b) in reference.iter().zip(&replay) {
                prop_assert!((a - b).abs() < 1e-5, "{} vs {} in {}", a, b, format.name());
            }
        }
    }

    #[test]
    fn format_sizes_rank_consistently(
        widths in proptest::collection::vec(4usize..32, 2..4),
        seed in any::<u64>(),
    ) {
        // For any model: onnx <= torch <= h5 <= saved_model (Table 2's
        // ordering holds structurally, not just for the paper's two models).
        let g = random_mlp(&widths, seed);
        let onnx = encode(&g, ModelFormat::Onnx).unwrap().len();
        let torch = encode(&g, ModelFormat::Torch).unwrap().len();
        let h5 = encode(&g, ModelFormat::H5).unwrap().len();
        let saved = encode(&g, ModelFormat::SavedModel).unwrap().len();
        prop_assert!(onnx <= torch);
        prop_assert!(torch <= h5);
        prop_assert!(h5 <= saved);
    }

    #[test]
    fn truncated_models_never_decode(
        widths in proptest::collection::vec(1usize..8, 2..4),
        seed in any::<u64>(),
        cut_fraction in 0.1f64..0.95,
    ) {
        let g = random_mlp(&widths, seed);
        let bytes = encode(&g, ModelFormat::Onnx).unwrap();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < bytes.len());
        prop_assert!(decode(&bytes[..cut]).is_err());
    }
}
