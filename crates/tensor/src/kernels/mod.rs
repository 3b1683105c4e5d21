//! Neural-network compute kernels.
//!
//! GEMM-backed kernels (dense, implicit-GEMM convolution) run through the
//! packed, cache-blocked path in [`gemm`]; problems above the size floor
//! are additionally spread across the worker pool in [`crate::par`]
//! (default single-threaded — the paper's one-intra-op-thread serving
//! configuration — opt in via `CRAYFISH_THREADS`). Everything operates on
//! the row-major layouts documented in the crate root, and the hot-path
//! functions in this module are allocation-free (enforced by the
//! `hot-path-alloc` lint rule) — buffers come from caller arenas and
//! [`crate::packed`] scratch.

pub mod activation;
pub mod conv;
pub mod gemm;
pub mod microkernel;
pub mod norm;
pub mod pack;
pub mod pool;
pub mod quant;

pub use activation::{relu_inplace, softmax_rows};
pub use conv::{
    conv2d_direct_into, conv2d_dispatch_into, conv2d_f16_prepacked_into, conv2d_im2col_into,
    conv2d_prepacked_into, conv2d_q8_prepacked_into, im2col, pack_conv_block_into, Conv2dParams,
    ConvEpilogue,
};
pub use gemm::{
    dense, dense_dispatch_into, dense_into, dense_prepacked_into, gemm, gemm_ipj, gemm_prepacked_a,
    gemm_prepacked_a16, gemm_prepacked_b, gemm_prepacked_b16, gemm_prepacked_b16_ipj,
    gemm_prepacked_b_ipj, gemm_prepacked_qa, gemm_prepacked_qb, gemm_scratch, gemm_st,
    gemm_tiled_unpacked, gemm_with_pool, matmul_naive,
};
pub use norm::{batchnorm_inference, BnParams};
pub use pool::{avgpool_global_into, maxpool2d_into};

/// Elementwise `a += b` for residual connections.
///
/// # Panics
/// Panics if the slices differ in length (graph validation guarantees they
/// do not).
pub fn add_inplace(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "add_inplace length mismatch");
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// Elementwise `a = relu?(a + b)` in one pass: the in-place form of
/// [`add_into`], bit-identical to [`add_inplace`] then
/// [`relu_inplace`].
///
/// # Panics
/// Panics if the slices differ in length.
pub fn add_relu_inplace(a: &mut [f32], b: &[f32], relu: bool) {
    assert_eq!(a.len(), b.len(), "add_relu_inplace length mismatch");
    if relu {
        for (x, y) in a.iter_mut().zip(b) {
            let v = *x + y;
            *x = if v < 0.0 { 0.0 } else { v };
        }
    } else {
        add_inplace(a, b);
    }
}

/// Elementwise `out = a + b`, clamped at zero when `relu` — a residual
/// connection and the ReLU behind it in one pass over memory (`out` is
/// fully overwritten).
///
/// # Panics
/// Panics if the three slices differ in length.
pub fn add_into(a: &[f32], b: &[f32], out: &mut [f32], relu: bool) {
    assert_eq!(a.len(), b.len(), "add_into length mismatch");
    assert_eq!(a.len(), out.len(), "add_into length mismatch");
    if relu {
        for (o, (x, y)) in out.iter_mut().zip(a.iter().zip(b)) {
            let v = x + y;
            *o = if v < 0.0 { 0.0 } else { v };
        }
    } else {
        for (o, (x, y)) in out.iter_mut().zip(a.iter().zip(b)) {
            *o = x + y;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_pass_adds_match_the_three_pass_form() {
        let a = [1.0f32, -2.0, 0.5, -0.0];
        let b = [-3.0f32, 1.0, 0.25, 0.0];
        for relu in [false, true] {
            let mut want = a.to_vec();
            add_inplace(&mut want, &b);
            if relu {
                relu_inplace(&mut want);
            }
            let mut got = [f32::NAN; 4];
            add_into(&a, &b, &mut got, relu);
            let mut in_place = a;
            add_relu_inplace(&mut in_place, &b, relu);
            for ((g, i), w) in got.iter().zip(&in_place).zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits());
                assert_eq!(i.to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn add_inplace_adds() {
        let mut a = vec![1.0, 2.0];
        add_inplace(&mut a, &[10.0, 20.0]);
        assert_eq!(a, vec![11.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn add_inplace_panics_on_mismatch() {
        let mut a = vec![1.0];
        add_inplace(&mut a, &[1.0, 2.0]);
    }
}
