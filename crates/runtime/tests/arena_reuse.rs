//! Steady-state allocation discipline: after one warmup call, repeated
//! inference at the same batch size must not reallocate any arena buffer or
//! GEMM packing scratch — every `(ptr, capacity)` fingerprint has to stay
//! bit-identical. Together with the weights being packed at plan-compile
//! time, this is the "zero packing, zero allocation steady state" the fused
//! executor advertises. (`conv_scratch_bound.rs` holds the other half of
//! the scratch contract: a convolution's packing scratch is one block.)

use crayfish_models::{ffnn, tiny};
use crayfish_runtime::exec::{FusedExec, UnfusedExec};
use crayfish_tensor::Tensor;

#[test]
fn fused_cnn_steady_state_reuses_arena() {
    let g = tiny::tiny_cnn(4);
    let mut exec = FusedExec::new(&g).unwrap();
    let input = Tensor::seeded_uniform([2, 3, 8, 8], 1, -1.0, 1.0);
    let first = exec.run(&input).unwrap();
    let fp = exec.arena_fingerprint();
    for _ in 0..4 {
        let again = exec.run(&input).unwrap();
        assert_eq!(first, again, "steady-state output drifted");
        assert_eq!(exec.arena_fingerprint(), fp, "fused arena reallocated");
    }
}

#[test]
fn fused_resnet_blocks_steady_state_reuses_arena() {
    // Residual-carrying convolutions, the strided packs and the 7×7 stem.
    let g = crayfish_models::resnet::build_scaled("resnet-mini", 5, 32, 8, &[(2, 8), (1, 16)], 10);
    let mut exec = FusedExec::new(&g).unwrap();
    let input = Tensor::seeded_uniform([2, 3, 32, 32], 1, -1.0, 1.0);
    let first = exec.run(&input).unwrap();
    let fp = exec.arena_fingerprint();
    for _ in 0..3 {
        let again = exec.run(&input).unwrap();
        assert_eq!(first, again, "steady-state output drifted");
        assert_eq!(exec.arena_fingerprint(), fp, "fused arena reallocated");
    }
}

#[test]
fn fused_ffnn_steady_state_reuses_arena() {
    let g = ffnn::build(6);
    let mut exec = FusedExec::new(&g).unwrap();
    // Batch 8 exercises the packed (non-skinny) dense path.
    let input = Tensor::seeded_uniform([8, 28, 28], 3, 0.0, 1.0);
    exec.run(&input).unwrap();
    let fp = exec.arena_fingerprint();
    for _ in 0..4 {
        exec.run(&input).unwrap();
        assert_eq!(exec.arena_fingerprint(), fp, "fused arena reallocated");
    }
}

#[test]
fn unfused_reusing_executor_reuses_arena() {
    let g = tiny::tiny_cnn(4);
    let mut exec = UnfusedExec::new(g, true, None).unwrap();
    let input = Tensor::seeded_uniform([2, 3, 8, 8], 2, -1.0, 1.0);
    let first = exec.run(&input).unwrap();
    let fp = exec.arena_fingerprint();
    for _ in 0..4 {
        let again = exec.run(&input).unwrap();
        assert_eq!(first, again, "steady-state output drifted");
        assert_eq!(exec.arena_fingerprint(), fp, "unfused arena reallocated");
    }
}

#[test]
fn batch_change_resizes_then_restabilises() {
    let g = tiny::tiny_cnn(4);
    let mut exec = FusedExec::new(&g).unwrap();
    let small = Tensor::seeded_uniform([1, 3, 8, 8], 4, -1.0, 1.0);
    let big = Tensor::seeded_uniform([5, 3, 8, 8], 5, -1.0, 1.0);
    exec.run(&small).unwrap();
    // Growing the batch may reallocate once...
    exec.run(&big).unwrap();
    let fp = exec.arena_fingerprint();
    // ...after which both batch sizes must run inside the grown arena.
    exec.run(&small).unwrap();
    exec.run(&big).unwrap();
    assert_eq!(
        exec.arena_fingerprint(),
        fp,
        "arena reallocated after it had grown to the high-water mark"
    );
}
