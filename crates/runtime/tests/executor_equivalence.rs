//! Cross-executor equivalence: every execution strategy (fused, unfused,
//! naive-conv, JNI-marshalled) computes the same function on randomly
//! generated convolutional models.

use std::sync::Arc;

use proptest::prelude::*;

use crayfish_runtime::exec::unfused::JniBoundary;
use crayfish_runtime::exec::{FusedExec, UnfusedExec};
use crayfish_sim::Cost;
use crayfish_tensor::kernels::conv::Conv2dParams;
use crayfish_tensor::kernels::norm::BnParams;
use crayfish_tensor::{NnGraph, Op, Shape, Tensor};

/// A randomly shaped conv → bn → relu → conv → add(residual) → gap → dense
/// network, exercising every fusion rule.
fn random_cnn(channels: usize, hw: usize, classes: usize, seed: u64) -> NnGraph {
    let mut g = NnGraph::new(format!("cnn-{seed}"));
    let input = g.add(
        "input",
        Op::Input {
            shape: Shape::from([3, hw, hw]),
        },
        vec![],
    );
    let w1 = Arc::new(Tensor::seeded_uniform([channels, 3, 3, 3], seed, -0.3, 0.3));
    let c1 = g.add(
        "conv1",
        Op::Conv2d {
            w: w1,
            b: None,
            params: Conv2dParams {
                in_c: 3,
                out_c: channels,
                kernel: 3,
                stride: 1,
                pad: 1,
            },
        },
        vec![input],
    );
    let bn = g.add(
        "bn1",
        Op::BatchNorm {
            params: Arc::new(BnParams {
                gamma: Tensor::seeded_uniform([channels], seed ^ 1, 0.8, 1.2).into_data(),
                beta: Tensor::seeded_uniform([channels], seed ^ 2, -0.2, 0.2).into_data(),
                mean: Tensor::seeded_uniform([channels], seed ^ 3, -0.5, 0.5).into_data(),
                var: Tensor::seeded_uniform([channels], seed ^ 4, 0.5, 1.5).into_data(),
                eps: 1e-5,
            }),
        },
        vec![c1],
    );
    let r1 = g.add("relu1", Op::Relu, vec![bn]);
    let w2 = Arc::new(Tensor::seeded_uniform(
        [channels, channels, 3, 3],
        seed ^ 5,
        -0.2,
        0.2,
    ));
    let c2 = g.add(
        "conv2",
        Op::Conv2d {
            w: w2,
            b: Some(Arc::new(Tensor::seeded_uniform(
                [channels],
                seed ^ 6,
                -0.1,
                0.1,
            ))),
            params: Conv2dParams {
                in_c: channels,
                out_c: channels,
                kernel: 3,
                stride: 1,
                pad: 1,
            },
        },
        vec![r1],
    );
    let add = g.add("residual", Op::Add, vec![c2, r1]);
    let r2 = g.add("relu2", Op::Relu, vec![add]);
    let gap = g.add("gap", Op::GlobalAvgPool, vec![r2]);
    let wf = Arc::new(Tensor::seeded_uniform(
        [channels, classes],
        seed ^ 7,
        -0.4,
        0.4,
    ));
    let bf = Arc::new(Tensor::seeded_uniform([classes], seed ^ 8, -0.1, 0.1));
    let fc = g.add("fc", Op::Dense { w: wf, b: bf }, vec![gap]);
    g.add("softmax", Op::Softmax, vec![fc]);
    g
}

/// ResNet50's block structure at test size: a projection block, an
/// identity block and a strided projection block behind the 7×7 stem.
fn mini_resnet(seed: u64) -> NnGraph {
    crayfish_models::resnet::build_scaled("resnet-mini", seed, 32, 8, &[(2, 8), (1, 16)], 10)
}

/// Both kinds of ResNet block fold their `Add` into the later convolution
/// (conv3 of the identity block, the downsample conv of the projection
/// blocks) — and the fused plan still computes what the unfused one does.
#[test]
fn resnet_blocks_fold_their_adds_into_the_later_convolution() {
    let g = mini_resnet(11);
    let mut fused = FusedExec::new(&g).unwrap();
    let mut unfused = UnfusedExec::new(g.clone(), true, None).unwrap();

    let steps = fused.step_infos();
    assert!(steps.iter().all(|s| s.kind != "add"), "an Add survived");
    let residual: Vec<&str> = steps
        .iter()
        .filter(|s| s.residual)
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(
        residual,
        [
            "layer1.0.downsample",
            "layer1.1.conv3",
            "layer2.0.downsample"
        ]
    );
    assert!(steps.iter().filter(|s| s.residual).all(|s| s.relu));
    // input, stem conv, max-pool, 4 + 3 + 4 convolutions, gap, fc, softmax:
    // every batch-norm, ReLU and Add of the 42-node graph is gone.
    assert_eq!(fused.step_count(), 17);
    // A GPU would still launch the Adds: 12 convolutions + 3 adds + pool,
    // gap, dense, softmax.
    assert_eq!(fused.kernel_count(), 19);

    for batch in [1usize, 2] {
        let input = Tensor::seeded_uniform([batch, 3, 32, 32], batch as u64, -1.0, 1.0);
        let a = fused.run(&input).unwrap();
        let b = unfused.run(&input).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-4);
    }
}

/// An `Add` whose convolution operand is read by someone else keeps its own
/// step: folding would hand the second reader the sum.
#[test]
fn an_add_is_not_folded_into_a_convolution_with_another_consumer() {
    let conv = |g: &mut NnGraph, name: &str, x, in_c, seed| {
        let params = Conv2dParams {
            in_c,
            out_c: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let w = Arc::new(Tensor::seeded_uniform([4, in_c, 3, 3], seed, -0.3, 0.3));
        g.add(name, Op::Conv2d { w, b: None, params }, vec![x])
    };
    let mut g = NnGraph::new("shared-conv");
    let input = g.add(
        "input",
        Op::Input {
            shape: Shape::from([3, 6, 6]),
        },
        vec![],
    );
    let c1 = conv(&mut g, "conv1", input, 3, 1);
    let c2 = conv(&mut g, "conv2", c1, 4, 2);
    let sum = g.add("sum", Op::Add, vec![c2, c1]);
    // conv2 feeds `sum` and, again, `again`.
    g.add("again", Op::Add, vec![sum, c2]);

    let mut fused = FusedExec::new(&g).unwrap();
    let steps = fused.step_infos();
    assert_eq!(steps.iter().filter(|s| s.kind == "add").count(), 2);
    assert!(steps.iter().all(|s| !s.residual));
    let mut unfused = UnfusedExec::new(g, true, None).unwrap();
    let input = Tensor::seeded_uniform([2, 3, 6, 6], 3, -1.0, 1.0);
    let (a, b) = (fused.run(&input).unwrap(), unfused.run(&input).unwrap());
    assert!(a.max_abs_diff(&b).unwrap() < 1e-4);
}

/// The simulated GPU charges one launch per compiled kernel, and its
/// profile was calibrated against ResNet50's count with every `Add` a
/// launch of its own. Folding the adds on the CPU must not move it:
/// 53 convolutions + 16 adds + max-pool, gap, fc, softmax.
#[test]
fn resnet50_kernel_count_is_what_the_gpu_profile_was_calibrated_with() {
    let plan = FusedExec::new(&crayfish_models::resnet::build(1)).unwrap();
    assert_eq!(plan.kernel_count(), 73);
    assert!(plan.step_infos().iter().all(|s| s.kind != "add"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_cpu_executors_agree(
        channels in 1usize..6,
        hw in 2usize..7,
        classes in 2usize..6,
        batch in 1usize..4,
        seed in any::<u64>(),
    ) {
        let g = random_cnn(channels, hw, classes, seed);
        let input = Tensor::seeded_uniform([batch, 3, hw, hw], seed ^ 0xAB, -1.0, 1.0);

        let mut fused = FusedExec::new(&g).unwrap();
        let mut unfused = UnfusedExec::new(g.clone(), true, None).unwrap();
        let mut naive = UnfusedExec::new(g.clone(), true, None).unwrap().with_naive_conv();
        let mut jni = UnfusedExec::new(
            g,
            false,
            Some(JniBoundary { cost: Cost::ZERO }),
        )
        .unwrap();

        let a = fused.run(&input).unwrap();
        let b = unfused.run(&input).unwrap();
        let c = naive.run(&input).unwrap();
        let d = jni.run(&input).unwrap();
        prop_assert!(a.max_abs_diff(&b).unwrap() < 1e-3);
        prop_assert!(a.max_abs_diff(&c).unwrap() < 1e-3);
        prop_assert!(a.max_abs_diff(&d).unwrap() < 1e-3);
        // Outputs are distributions.
        for r in 0..batch {
            let sum: f32 = a.batch_item(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn fusion_preserves_step_semantics_across_batches(
        channels in 1usize..5,
        seed in any::<u64>(),
    ) {
        // Running the same executor at varying batch sizes must keep
        // results consistent with fresh executors at that batch size.
        let g = random_cnn(channels, 4, 3, seed);
        let mut reused = FusedExec::new(&g).unwrap();
        for batch in [1usize, 3, 2] {
            let input = Tensor::seeded_uniform([batch, 3, 4, 4], seed ^ batch as u64, -1.0, 1.0);
            let from_reused = reused.run(&input).unwrap();
            let mut fresh = FusedExec::new(&g).unwrap();
            let from_fresh = fresh.run(&input).unwrap();
            prop_assert!(from_reused.max_abs_diff(&from_fresh).unwrap() < 1e-5);
        }
    }
}
