//! A convolution's packing scratch is one `KC × NC` block of the virtual
//! `im2col` matrix, whatever the layer's size — not the matrix (which for
//! this graph's 3×3 layers is larger than the block, as it is for
//! ResNet50's).
//!
//! One test in a file of its own: the bound belongs to the single-threaded
//! path (the worker pool packs a whole `B`, see DESIGN.md §3h), and which
//! path runs is decided once per process from `CRAYFISH_THREADS`, the first
//! time a large GEMM asks. Here nothing else can ask first.

use crayfish_runtime::exec::FusedExec;
use crayfish_tensor::kernels::conv::CONV_BLOCK_FLOATS;
use crayfish_tensor::Tensor;

#[test]
fn conv_scratch_stays_within_one_block_on_a_resnet_shaped_pass() {
    std::env::set_var("CRAYFISH_THREADS", "1");
    // 64-wide bottlenecks over a 32×32 plane behind the stem: the 3×3
    // layers' matrix is 576 × 1024 floats, more than one block.
    let g = crayfish_models::resnet::build_scaled("resnet-128", 9, 128, 64, &[(2, 64)], 10);
    let widest = 64 * 9 * 32 * 32;
    assert!(
        widest > CONV_BLOCK_FLOATS,
        "the graph no longer tests the bound"
    );
    let mut exec = FusedExec::new(&g).unwrap();
    let input = Tensor::seeded_uniform([1, 3, 128, 128], 1, -1.0, 1.0);
    exec.run(&input).unwrap();
    let fp = exec.arena_fingerprint();
    exec.run(&input).unwrap();
    assert_eq!(exec.arena_fingerprint(), fp, "fused arena reallocated");
    assert!(
        exec.conv_scratch_capacity() <= CONV_BLOCK_FLOATS,
        "conv scratch grew to {} floats, one block is {CONV_BLOCK_FLOATS}",
        exec.conv_scratch_capacity()
    );
}
