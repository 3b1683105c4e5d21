//! Property-based checks of the compute kernels against independent
//! reference implementations.

use proptest::prelude::*;

use crayfish_tensor::kernels::conv::{
    conv2d_f16_prepacked_into, conv2d_im2col_into, conv2d_prepacked_into, im2col,
    pack_conv_block_into, Conv2dParams, ConvEpilogue,
};
use crayfish_tensor::kernels::microkernel::{KC, MR, NC_STRIPS, NR};
use crayfish_tensor::kernels::pack::{b_strips, pack_b_into, packed_b_len};
use crayfish_tensor::kernels::{activation, add_inplace, gemm, norm, pool};
use crayfish_tensor::{GemmScratch, PackedA, PackedA16, PackedB, Tensor, ThreadPool};

/// Assert `got == c0 + naive(A, B)` elementwise within `1e-4` — the
/// contract every GEMM variant (which all accumulate into `C`) must meet.
#[allow(clippy::too_many_arguments)]
fn assert_accumulates(
    got: &[f32],
    c0: &[f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    label: &str,
) {
    let reference = gemm::matmul_naive(a, b, m, k, n);
    for i in 0..m * n {
        let expect = c0[i] + reference[i];
        assert!(
            (got[i] - expect).abs() < 1e-4,
            "{label} ({m},{k},{n})[{i}]: {} vs {}",
            got[i],
            expect
        );
    }
}

/// Deterministic sweep hitting every `MR`-row and `NR`-column remainder
/// (`MR = 6`, `NR = 16`), the `MC = 96`-row block boundary, and shapes past
/// 128 — the edge tiles the packed path zero-pads at pack time. Runs the
/// single-threaded packed driver and the tiled-unpacked ablation rung
/// against the naive oracle, accumulating into a non-zero `C`.
#[test]
fn packed_and_tiled_gemm_edge_remainder_sweep() {
    let mut scratch = GemmScratch::new();
    let ms: Vec<usize> = (1..=13).chain([96, 97, 130]).collect();
    let ns: Vec<usize> = (1..=17).chain([129, 130]).collect();
    let ks = [1usize, 3, 64, 130];
    for &m in &ms {
        for &n in &ns {
            for &k in &ks {
                let seed = (m * 1_000_000 + n * 1000 + k) as u64;
                let a = Tensor::seeded_uniform([m, k], seed, -1.0, 1.0);
                let b = Tensor::seeded_uniform([k, n], seed ^ 1, -1.0, 1.0);
                let c0 = Tensor::seeded_uniform([m, n], seed ^ 2, -1.0, 1.0);

                let mut c = c0.data().to_vec();
                gemm::gemm_st(a.data(), b.data(), &mut c, m, k, n, &mut scratch);
                assert_accumulates(&c, c0.data(), a.data(), b.data(), m, k, n, "st");

                if m % 7 == 0 {
                    // The unpacked rung shares no packing code; spot-check.
                    let mut c = c0.data().to_vec();
                    gemm::gemm_tiled_unpacked(a.data(), b.data(), &mut c, m, k, n);
                    assert_accumulates(&c, c0.data(), a.data(), b.data(), m, k, n, "tiled");
                }
            }
        }
    }
}

/// The worker-pool path must agree with the oracle across partition edge
/// cases: fewer strips than participants, remainder strips, and shapes big
/// enough that every participant owns several strips.
#[test]
fn pooled_gemm_matches_naive_on_mixed_shapes() {
    let pool = ThreadPool::new(3);
    let mut scratch = GemmScratch::new();
    for (m, k, n) in [
        (1usize, 1usize, 1usize),
        (5, 7, 17),
        (12, 16, 16),
        (13, 130, 33),
        (96, 64, 130),
        (130, 130, 130),
    ] {
        let seed = (m * 131 + n) as u64;
        let a = Tensor::seeded_uniform([m, k], seed, -1.0, 1.0);
        let b = Tensor::seeded_uniform([k, n], seed ^ 1, -1.0, 1.0);
        let c0 = Tensor::seeded_uniform([m, n], seed ^ 2, -1.0, 1.0);
        let mut c = c0.data().to_vec();
        gemm::gemm_with_pool(a.data(), b.data(), &mut c, m, k, n, &mut scratch, &pool);
        assert_accumulates(&c, c0.data(), a.data(), b.data(), m, k, n, "pool");
    }
}

/// Pre-packed weight operands must behave exactly like their row-major
/// originals, including on edge-tile shapes.
#[test]
fn prepacked_operands_match_naive_on_edge_shapes() {
    let mut scratch = GemmScratch::new();
    for (m, k, n) in [
        (1usize, 5usize, 1usize),
        (7, 9, 17),
        (61, 27, 50),
        (96, 16, 97),
    ] {
        let seed = (m + k * 7 + n * 1009) as u64;
        let a = Tensor::seeded_uniform([m, k], seed, -1.0, 1.0);
        let b = Tensor::seeded_uniform([k, n], seed ^ 1, -1.0, 1.0);
        let c0 = Tensor::seeded_uniform([m, n], seed ^ 2, -1.0, 1.0);

        let pa = PackedA::pack(a.data(), m, k);
        let mut c = c0.data().to_vec();
        gemm::gemm_prepacked_a(&pa, b.data(), &mut c, n, &mut scratch);
        assert_accumulates(&c, c0.data(), a.data(), b.data(), m, k, n, "prepacked_a");

        let pb = PackedB::pack(b.data(), k, n);
        let mut c = c0.data().to_vec();
        gemm::gemm_prepacked_b(a.data(), &pb, &mut c, m, &mut scratch);
        assert_accumulates(&c, c0.data(), a.data(), b.data(), m, k, n, "prepacked_b");
    }
}

/// The convolution as the executors ran it before `B` blocks were packed
/// from the image: materialise `im2col`, prefill the bias, accumulate the
/// blocked GEMM over the packed weights, then add the residual and clamp in
/// passes of their own. The implicit-GEMM path must reproduce this bit for
/// bit.
#[allow(clippy::too_many_arguments)]
fn materialised_conv(
    input: &[f32],
    batch: usize,
    h: usize,
    w: usize,
    weight: &PackedA,
    bias: &[f32],
    p: &Conv2dParams,
    residual: Option<&[f32]>,
    relu: bool,
) -> Vec<f32> {
    let (oh, ow) = p.out_hw(h, w);
    let (cols, krows) = (oh * ow, p.krows());
    let mut col = vec![0.0f32; krows * cols];
    let mut out = vec![0.0f32; batch * p.out_c * cols];
    let mut scratch = GemmScratch::new();
    for (img, out_img) in input
        .chunks_exact(p.in_c * h * w)
        .zip(out.chunks_exact_mut(p.out_c * cols))
    {
        im2col(img, h, w, p, &mut col);
        for (oc, plane) in out_img.chunks_exact_mut(cols).enumerate() {
            plane.fill(bias.get(oc).copied().unwrap_or(0.0));
        }
        gemm::gemm_prepacked_a(weight, &col, out_img, cols, &mut scratch);
    }
    if let Some(res) = residual {
        add_inplace(&mut out, res);
    }
    if relu {
        activation::relu_inplace(&mut out);
    }
    out
}

/// One geometry of the implicit-conv sweep, checked for every combination
/// of bias / residual / ReLU.
fn check_implicit_conv(
    p: Conv2dParams,
    batch: usize,
    h: usize,
    w: usize,
    scratch: &mut GemmScratch,
) {
    let (oh, ow) = p.out_hw(h, w);
    let seed = (p.in_c * 31 + p.kernel * 7 + p.stride * 3 + p.pad) as u64;
    let input = Tensor::seeded_uniform([batch, p.in_c, h, w], seed, -1.0, 1.0);
    let weight = Tensor::seeded_uniform([p.out_c, p.krows()], seed ^ 1, -0.5, 0.5);
    let bias = Tensor::seeded_uniform([p.out_c], seed ^ 2, -1.0, 1.0);
    let residual = Tensor::seeded_uniform([batch, p.out_c, oh, ow], seed ^ 3, -2.0, 2.0);
    let packed = PackedA::pack(weight.data(), p.out_c, p.krows());
    for flags in 0..8u32 {
        let bias: &[f32] = if flags & 1 != 0 { bias.data() } else { &[] };
        let res = (flags & 2 != 0).then(|| residual.data());
        let relu = flags & 4 != 0;
        let want = materialised_conv(input.data(), batch, h, w, &packed, bias, &p, res, relu);
        let mut got = vec![f32::NAN; want.len()];
        let epilogue = ConvEpilogue {
            residual: res,
            relu,
        };
        conv2d_prepacked_into(
            input.data(),
            batch,
            h,
            w,
            &packed,
            bias,
            &p,
            epilogue,
            &mut got,
            scratch,
        );
        for (i, (g, e)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "{p:?} {h}x{w} batch {batch} flags {flags:03b} [{i}]: {g} vs {e}"
            );
        }
    }
}

/// Implicit GEMM == the materialised pipeline, bit for bit, over kernel ∈
/// {1, 3, 7}, stride ∈ {1, 2}, pad ∈ 0..=3 on a 9×13 image (`h ≠ w`; the
/// 7×7 planes have `ow < NR`, so a strip spans several output rows; no
/// `cols` is a multiple of `NR`), with `krows` spanning one, two and a
/// partial third `KC` block, `out_c` not a multiple of `MR`, batch 2.
#[test]
fn implicit_conv_is_bit_identical_to_the_materialised_pipeline() {
    let mut scratch = GemmScratch::new();
    let out_c = 2 * MR + 1;
    for kernel in [1usize, 3, 7] {
        // in_c putting krows in (0, KC], (KC, 2·KC] and (2·KC, 3·KC).
        let k2 = kernel * kernel;
        let depths = [KC / k2 / 2 + 1, KC / k2 + 1, 2 * KC / k2 + 2];
        for stride in [1usize, 2] {
            for pad in 0usize..=3 {
                for (i, &in_c) in depths.iter().enumerate() {
                    let blocks = (in_c * k2).div_ceil(KC);
                    assert_eq!(blocks, i + 1, "depth {in_c} of kernel {kernel}");
                    assert!(in_c * k2 % KC != 0);
                    let p = Conv2dParams {
                        in_c,
                        out_c,
                        kernel,
                        stride,
                        pad,
                    };
                    let (oh, ow) = p.out_hw(9, 13);
                    assert!(oh * ow % NR != 0 || oh * ow < NR);
                    check_implicit_conv(p, 2, 9, 13, &mut scratch);
                }
            }
        }
    }
}

/// Planes wide enough to cross an `NC` column-block boundary (a second `jc`
/// iteration with its own first / last K blocks), for the 1×1 fast path, a
/// padded 3×3 and the strided gather.
#[test]
fn implicit_conv_is_bit_identical_across_column_blocks() {
    let mut scratch = GemmScratch::new();
    let side = ((NC_STRIPS * NR) as f64).sqrt() as usize + 3;
    for (kernel, stride, pad, hw) in [
        (1usize, 1usize, 0usize, side),
        (3, 1, 1, side),
        (1, 2, 0, 2 * side),
    ] {
        let p = Conv2dParams {
            in_c: KC / (kernel * kernel) + 2,
            out_c: MR + 2,
            kernel,
            stride,
            pad,
        };
        let (oh, ow) = p.out_hw(hw, hw + 1);
        assert!(
            oh * ow > NC_STRIPS * NR,
            "{oh}x{ow} stays inside one column block"
        );
        check_implicit_conv(p, 1, hw, hw + 1, &mut scratch);
    }
}

/// The block packer alone: every `(pc, kc, jcb, jc_end)` block equals the
/// matching slice of `pack_b_into(im2col(..))`.
#[test]
fn conv_block_packer_matches_packed_im2col_slices() {
    for (kernel, stride, pad, h, w) in [
        (1usize, 1usize, 0usize, 5usize, 9usize),
        (1, 2, 0, 9, 13),
        (3, 1, 1, 9, 13),
        (3, 2, 1, 9, 13),
        (3, 1, 0, 6, 40),
        (7, 2, 3, 9, 13),
        (7, 1, 2, 9, 13),
    ] {
        let p = Conv2dParams {
            in_c: 5,
            out_c: 1,
            kernel,
            stride,
            pad,
        };
        let (oh, ow) = p.out_hw(h, w);
        let (krows, cols) = (p.krows(), oh * ow);
        let img = Tensor::seeded_uniform([p.in_c, h, w], (kernel + h) as u64, -1.0, 1.0);
        let mut col = vec![0.0f32; krows * cols];
        im2col(img.data(), h, w, &p, &mut col);
        let mut full = vec![f32::NAN; packed_b_len(krows, cols)];
        pack_b_into(&col, krows, cols, &mut full);
        let strips = b_strips(cols);
        // The whole matrix as one block, then uneven row / strip splits.
        let row_cuts = [0, krows.min(3), krows / 2 + 1, krows];
        let strip_cuts = [0, 1.min(strips), strips];
        for rows in row_cuts
            .windows(2)
            .chain([[0, krows]].iter().map(|r| &r[..]))
        {
            for cut in strip_cuts
                .windows(2)
                .chain([[0, strips]].iter().map(|c| &c[..]))
            {
                let (pc, kc) = (rows[0], rows[1] - rows[0]);
                let (jcb, jc_end) = (cut[0], cut[1]);
                if kc == 0 || jcb == jc_end {
                    continue;
                }
                let mut blk = vec![f32::NAN; (jc_end - jcb) * kc * NR];
                pack_conv_block_into(img.data(), h, w, &p, pc, kc, jcb, jc_end, &mut blk);
                for js in jcb..jc_end {
                    let got = &blk[(js - jcb) * kc * NR..][..kc * NR];
                    let want = &full[js * krows * NR + pc * NR..][..kc * NR];
                    assert_eq!(
                        got, want,
                        "k{kernel} s{stride} p{pad} {h}x{w} rows {pc}+{kc} strip {js}"
                    );
                }
            }
        }
    }
}

/// The f16 arm shares the implicit driver: it must stay within half
/// precision of the f32 result (the tolerance it always had), epilogue
/// included, and agree with the allocating `im2col` oracle.
#[test]
fn f16_implicit_conv_tracks_the_f32_path() {
    let p = Conv2dParams {
        in_c: 30,
        out_c: 7,
        kernel: 3,
        stride: 2,
        pad: 1,
    };
    let (h, w, batch) = (9usize, 13usize, 2usize);
    let (oh, ow) = p.out_hw(h, w);
    let input = Tensor::seeded_uniform([batch, p.in_c, h, w], 5, -1.0, 1.0);
    let weight = Tensor::seeded_uniform([p.out_c, p.krows()], 6, -1.0, 1.0);
    let bias = Tensor::seeded_uniform([p.out_c], 7, -1.0, 1.0);
    let residual = Tensor::seeded_uniform([batch, p.out_c, oh, ow], 8, -1.0, 1.0);
    let epilogue = ConvEpilogue {
        residual: Some(residual.data()),
        relu: true,
    };
    let mut scratch = GemmScratch::new();
    let mut f32_out = vec![f32::NAN; residual.numel()];
    let pa = PackedA::pack(weight.data(), p.out_c, p.krows());
    conv2d_prepacked_into(
        input.data(),
        batch,
        h,
        w,
        &pa,
        bias.data(),
        &p,
        epilogue,
        &mut f32_out,
        &mut scratch,
    );
    let mut f16_out = vec![f32::NAN; residual.numel()];
    let pa16 = PackedA16::pack(weight.data(), p.out_c, p.krows());
    conv2d_f16_prepacked_into(
        input.data(),
        batch,
        h,
        w,
        &pa16,
        bias.data(),
        &p,
        epilogue,
        &mut f16_out,
        &mut scratch,
    );
    let mut oracle = vec![f32::NAN; residual.numel()];
    conv2d_im2col_into(
        input.data(),
        batch,
        h,
        w,
        weight.data(),
        bias.data(),
        &p,
        &mut Vec::new(),
        &mut oracle,
    );
    add_inplace(&mut oracle, residual.data());
    activation::relu_inplace(&mut oracle);
    let bound = p.krows() as f32 / 2048.0 + 1e-4;
    for i in 0..oracle.len() {
        assert!((f32_out[i] - oracle[i]).abs() < 1e-3, "f32 [{i}]");
        assert!((f16_out[i] - f32_out[i]).abs() < bound, "f16 [{i}]");
    }
}

/// Scalar reference for max pooling.
fn maxpool_reference(
    input: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    s: usize,
    pad: usize,
) -> Vec<f32> {
    let oh = (h + 2 * pad - k) / s + 1;
    let ow = (w + 2 * pad - k) / s + 1;
    let mut out = Vec::with_capacity(c * oh * ow);
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                for ky in 0..k {
                    for kx in 0..k {
                        let iy = (oy * s + ky) as isize - pad as isize;
                        let ix = (ox * s + kx) as isize - pad as isize;
                        if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            best = best.max(input[(ch * h + iy as usize) * w + ix as usize]);
                        }
                    }
                }
                out.push(best);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn maxpool_matches_reference(
        c in 1usize..3,
        hw in 2usize..9,
        k in 1usize..4,
        s in 1usize..3,
        pad in 0usize..2,
        seed in any::<u64>(),
    ) {
        prop_assume!(hw + 2 * pad >= k);
        let input = Tensor::seeded_uniform([1, c, hw, hw], seed, -5.0, 5.0);
        let slow = maxpool_reference(input.data(), c, hw, hw, k, s, pad);
        let mut fast = vec![f32::NAN; slow.len()];
        pool::maxpool2d_into(input.data(), 1, c, hw, hw, k, s, pad, &mut fast);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn batchnorm_matches_scalar_formula(
        c in 1usize..4,
        plane in 1usize..6,
        seed in any::<u64>(),
    ) {
        let x = Tensor::seeded_uniform([1, c, plane], seed, -3.0, 3.0);
        let gamma = Tensor::seeded_uniform([c], seed ^ 1, 0.5, 1.5).into_data();
        let beta = Tensor::seeded_uniform([c], seed ^ 2, -0.5, 0.5).into_data();
        let mean = Tensor::seeded_uniform([c], seed ^ 3, -1.0, 1.0).into_data();
        let var = Tensor::seeded_uniform([c], seed ^ 4, 0.1, 2.0).into_data();
        let params = norm::BnParams {
            gamma: gamma.clone(),
            beta: beta.clone(),
            mean: mean.clone(),
            var: var.clone(),
            eps: 1e-5,
        };
        let mut fast = x.data().to_vec();
        norm::batchnorm_inference(&mut fast, 1, c, plane, &params);
        for ch in 0..c {
            for p in 0..plane {
                let v = x.data()[ch * plane + p];
                let expect = gamma[ch] * (v - mean[ch]) / (var[ch] + 1e-5).sqrt() + beta[ch];
                prop_assert!((fast[ch * plane + p] - expect).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn gemm_is_linear_in_a(
        m in 1usize..4,
        k in 1usize..4,
        n in 1usize..4,
        alpha in -3.0f32..3.0,
        seed in any::<u64>(),
    ) {
        // gemm(alpha * A, B) == alpha * gemm(A, B)
        let a = Tensor::seeded_uniform([m, k], seed, -1.0, 1.0);
        let b = Tensor::seeded_uniform([k, n], seed ^ 7, -1.0, 1.0);
        let scaled: Vec<f32> = a.data().iter().map(|v| v * alpha).collect();
        let mut c1 = vec![0.0f32; m * n];
        gemm::gemm(&scaled, b.data(), &mut c1, m, k, n);
        let mut c2 = vec![0.0f32; m * n];
        gemm::gemm(a.data(), b.data(), &mut c2, m, k, n);
        for (x, y) in c1.iter().zip(&c2) {
            prop_assert!((x - alpha * y).abs() < 1e-3, "{} vs {}", x, alpha * y);
        }
    }

    #[test]
    fn packed_gemm_is_linear_in_a(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        alpha in -3.0f32..3.0,
        seed in any::<u64>(),
    ) {
        // gemm_st(alpha * A, B) == alpha * gemm_st(A, B): linearity must
        // survive packing, register tiling, and edge-tile padding.
        let a = Tensor::seeded_uniform([m, k], seed, -1.0, 1.0);
        let b = Tensor::seeded_uniform([k, n], seed ^ 7, -1.0, 1.0);
        let scaled: Vec<f32> = a.data().iter().map(|v| v * alpha).collect();
        let mut scratch = GemmScratch::new();
        let mut c1 = vec![0.0f32; m * n];
        gemm::gemm_st(&scaled, b.data(), &mut c1, m, k, n, &mut scratch);
        let mut c2 = vec![0.0f32; m * n];
        gemm::gemm_st(a.data(), b.data(), &mut c2, m, k, n, &mut scratch);
        for (x, y) in c1.iter().zip(&c2) {
            prop_assert!((x - alpha * y).abs() < 1e-3, "{} vs {}", x, alpha * y);
        }
    }

    #[test]
    fn packed_gemm_matches_naive_across_full_tile_range(
        m in 1usize..=130,
        k in 1usize..=130,
        n in 1usize..=130,
        seed in any::<u64>(),
    ) {
        // Every edge-tile remainder (m mod 6, n mod 16) and block boundary
        // within 1..=130, accumulating into a non-zero C.
        let a = Tensor::seeded_uniform([m, k], seed, -1.0, 1.0);
        let b = Tensor::seeded_uniform([k, n], seed ^ 7, -1.0, 1.0);
        let c0 = Tensor::seeded_uniform([m, n], seed ^ 8, -1.0, 1.0);
        let reference = gemm::matmul_naive(a.data(), b.data(), m, k, n);
        let mut scratch = GemmScratch::new();
        let mut c = c0.data().to_vec();
        gemm::gemm_st(a.data(), b.data(), &mut c, m, k, n, &mut scratch);
        for i in 0..m * n {
            let expect = c0.data()[i] + reference[i];
            prop_assert!((c[i] - expect).abs() < 1e-4, "[{}]: {} vs {}", i, c[i], expect);
        }
    }

    #[test]
    fn pooled_gemm_matches_naive_across_full_tile_range(
        m in 1usize..=130,
        k in 1usize..=96,
        n in 1usize..=130,
        threads in 2usize..=4,
        seed in any::<u64>(),
    ) {
        let a = Tensor::seeded_uniform([m, k], seed, -1.0, 1.0);
        let b = Tensor::seeded_uniform([k, n], seed ^ 7, -1.0, 1.0);
        let c0 = Tensor::seeded_uniform([m, n], seed ^ 8, -1.0, 1.0);
        let reference = gemm::matmul_naive(a.data(), b.data(), m, k, n);
        let pool = ThreadPool::new(threads);
        let mut scratch = GemmScratch::new();
        let mut c = c0.data().to_vec();
        gemm::gemm_with_pool(a.data(), b.data(), &mut c, m, k, n, &mut scratch, &pool);
        for i in 0..m * n {
            let expect = c0.data()[i] + reference[i];
            prop_assert!((c[i] - expect).abs() < 1e-4, "[{}]: {} vs {}", i, c[i], expect);
        }
    }

    #[test]
    fn relu_is_idempotent_and_nonnegative(
        n in 1usize..64,
        seed in any::<u64>(),
    ) {
        let mut x = Tensor::seeded_uniform([n], seed, -10.0, 10.0).into_data();
        activation::relu_inplace(&mut x);
        prop_assert!(x.iter().all(|&v| v >= 0.0));
        let once = x.clone();
        activation::relu_inplace(&mut x);
        prop_assert_eq!(x, once);
    }

    #[test]
    fn softmax_is_shift_invariant(
        cols in 2usize..10,
        shift in -20.0f32..20.0,
        seed in any::<u64>(),
    ) {
        let base = Tensor::seeded_uniform([1, cols], seed, -5.0, 5.0);
        let mut a = base.data().to_vec();
        let mut b: Vec<f32> = base.data().iter().map(|v| v + shift).collect();
        activation::softmax_rows(&mut a, 1, cols);
        activation::softmax_rows(&mut b, 1, cols);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4, "{} vs {}", x, y);
        }
    }

    #[test]
    fn avgpool_preserves_total_mass(
        c in 1usize..4,
        hw in 1usize..6,
        seed in any::<u64>(),
    ) {
        let input = Tensor::seeded_uniform([1, c, hw, hw], seed, -2.0, 2.0);
        let mut out = vec![f32::NAN; c];
        pool::avgpool_global_into(input.data(), 1, c, hw, hw, &mut out);
        let total_in: f32 = input.data().iter().sum();
        let total_out: f32 = out.iter().map(|v| v * (hw * hw) as f32).sum();
        prop_assert!((total_in - total_out).abs() < 1e-2);
    }
}
