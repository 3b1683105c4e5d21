//! The register-tiled GEMM microkernel and its blocking constants.
//!
//! This is the innermost piece of the BLIS-style GEMM (Goto & van de Geijn,
//! "Anatomy of High-Performance Matrix Multiplication"): an `MR×NR` tile of
//! `C` is held in registers while `kc` rank-1 updates stream in from packed
//! panels of `A` and `B`. Everything is plain safe Rust — the fixed-size
//! accumulator array and `chunks_exact` iteration are shaped so LLVM
//! promotes the tile to vector registers and emits FMA when the target has
//! it (the workspace builds with `-C target-cpu=native`, see
//! `.cargo/config.toml`).
//!
//! Layout contract (established by [`crate::kernels::pack`]):
//!
//! * the `A` panel stores one `MR`-row strip K-major: element `(r, p)` of
//!   the strip lives at `p * MR + r`;
//! * the `B` panel stores one `NR`-column strip K-major: element `(p, c)`
//!   lives at `p * NR + c`;
//! * edge strips are zero-padded to full `MR`/`NR`, so the microkernel
//!   always computes a full tile and the store step clips.

/// Rows of `C` computed per microkernel call. On AVX2 the tile is
/// `MR * NR / 8 = 12` YMM accumulators plus two `B` vectors and one
/// broadcast register — the largest tile that fits the 16 registers
/// without spilling (LLVM spills the whole tile at `MR = 8`, which costs
/// an order of magnitude).
pub const MR: usize = 6;

/// Columns of `C` computed per microkernel call: two vectors per row.
///
/// The accumulator tile is `MR * NR / lanes` independent FMA chains;
/// saturating two FMA ports at 4-cycle latency needs at least 8 in
/// flight. On AVX-512 one 16-lane ZMM per row would leave only 6 chains
/// (one FMA per cycle, measured exactly that), so `NR = 32` doubles the
/// tile to 12 of the 32 ZMM registers. On AVX2 `NR = 16` gives the same
/// 12-chain shape in YMM registers.
#[cfg(target_feature = "avx512f")]
pub const NR: usize = 32;
#[cfg(not(target_feature = "avx512f"))]
pub const NR: usize = 16;

/// K-dimension block: one packed `B` strip slice (`KC * NR * 4` = 16 or
/// 32 KiB) stays resident in L1 across the whole `ir` loop.
pub const KC: usize = 256;

/// Row-strips per `A` block: `MC = MC_STRIPS * MR = 192` rows, so an
/// `MC × KC` packed `A` block (~192 KiB) sits in L2 while the `B` block is
/// re-streamed fewer times per `jc` column block.
pub const MC_STRIPS: usize = 32;

/// Column-strips per `B` block: `NC = NC_STRIPS * NR` columns (1–2 K), so
/// a `KC × NC` packed `B` block (~1–2 MiB) sits in L2/L3.
pub const NC_STRIPS: usize = 64;

/// Fused multiply-add when the target has FMA; `a * b + c` otherwise.
/// (`f32::mul_add` without hardware FMA lowers to a libm call, which would
/// be ruinous in the inner loop.)
#[inline(always)]
fn fma(a: f32, b: f32, c: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + c
    }
}

/// Compute one `MR×NR` tile: the sum over `p < kc` of
/// `a_panel[p] ⊗ b_panel[p]`. Returns the tile by value so LLVM keeps the
/// accumulators in registers for the whole `kc` loop.
#[inline(always)]
pub fn microkernel(a_panel: &[f32], b_panel: &[f32], kc: usize) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    // Two rank-1 updates per iteration: halves the loop overhead and gives
    // the scheduler a wider window of independent FMAs per trip.
    let a_pairs = a_panel.chunks_exact(2 * MR);
    let b_pairs = b_panel.chunks_exact(2 * NR);
    let pairs = kc / 2;
    let (a_tail, b_tail) = (a_pairs.remainder(), b_pairs.remainder());
    for (av, bv) in a_pairs.take(pairs).zip(b_pairs.take(pairs)) {
        // Fixed-size views: the bounds checks vanish and the loops below
        // fully unroll and vectorise.
        let av: &[f32; 2 * MR] = av.try_into().expect("packed A strip width");
        let bv: &[f32; 2 * NR] = bv.try_into().expect("packed B strip width");
        for (row, &a) in acc.iter_mut().zip(av[..MR].iter()) {
            for (slot, &b) in row.iter_mut().zip(bv[..NR].iter()) {
                *slot = fma(a, b, *slot);
            }
        }
        for (row, &a) in acc.iter_mut().zip(av[MR..].iter()) {
            for (slot, &b) in row.iter_mut().zip(bv[NR..].iter()) {
                *slot = fma(a, b, *slot);
            }
        }
    }
    if kc % 2 == 1 {
        let av = &a_tail[..MR];
        let bv = &b_tail[..NR];
        for (row, &a) in acc.iter_mut().zip(av.iter()) {
            for (slot, &b) in row.iter_mut().zip(bv.iter()) {
                *slot = fma(a, b, *slot);
            }
        }
    }
    acc
}

/// Add the valid `mr_eff × nr_eff` corner of a computed tile into `C`
/// (row-major, leading dimension `ldc`, tile origin `(row0, col0)`).
#[inline(always)]
pub fn store_tile_add(
    acc: &[[f32; NR]; MR],
    c: &mut [f32],
    ldc: usize,
    row0: usize,
    col0: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    for (i, row) in acc.iter().enumerate().take(mr_eff) {
        let base = (row0 + i) * ldc + col0;
        for (slot, &v) in c[base..base + nr_eff].iter_mut().zip(row.iter()) {
            *slot += v;
        }
    }
}

/// What the convolution driver's tile store does besides accumulating,
/// decided by where the K block sits in the accumulation (see
/// [`store_tile_epilogue`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileEpilogue<'a> {
    /// `Some(bias)` on the first K block: the tile is written as
    /// `acc + bias[row]` (an empty slice is a zero bias) instead of being
    /// added onto whatever `C` held — there is no prefill pass.
    pub first: Option<&'a [f32]>,
    /// Clamp negatives to zero on the way out (last K block only).
    pub relu: bool,
}

/// [`store_tile_add`] with the convolution epilogue folded in. The order of
/// operations per element is exactly that of the separate passes it
/// replaces — `bias + acc₀`, `+ acc₁ …`, clamp — so the result is
/// bit-identical to prefill, accumulate, `relu_inplace`.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // mirrors store_tile_add plus the epilogue descriptor
pub(crate) fn store_tile_epilogue(
    acc: &[[f32; NR]; MR],
    c: &mut [f32],
    ldc: usize,
    row0: usize,
    col0: usize,
    mr_eff: usize,
    nr_eff: usize,
    epi: TileEpilogue<'_>,
) {
    for (i, row) in acc.iter().enumerate().take(mr_eff) {
        let base = (row0 + i) * ldc + col0;
        let c_row = &mut c[base..base + nr_eff];
        match epi.first {
            Some(bias) => {
                let bv = bias.get(row0 + i).copied().unwrap_or(0.0);
                for (slot, &v) in c_row.iter_mut().zip(row.iter()) {
                    *slot = v + bv;
                }
            }
            None => {
                for (slot, &v) in c_row.iter_mut().zip(row.iter()) {
                    *slot += v;
                }
            }
        }
        if epi.relu {
            for slot in c_row.iter_mut() {
                if *slot < 0.0 {
                    *slot = 0.0;
                }
            }
        }
    }
}

/// Rows per int8 microkernel tile (see [`q8_microkernel`]).
pub const QMR: usize = 4;

/// Columns per int8 microkernel tile.
pub const QNR: usize = 4;

/// K-padding multiple for quantized panels: 32 `i16` lanes = one 64-byte
/// ZMM load, so every dot product below runs over whole vectors with the
/// tail absorbed by zero padding at pack time.
pub const QK_ALIGN: usize = 32;

/// `k` rounded up to the quantized panel's K-padding.
#[inline]
pub fn padded_qk(k: usize) -> usize {
    k.div_ceil(QK_ALIGN) * QK_ALIGN
}

/// Compute one `QMR×QNR` tile of `i8×i8 → i32` dot products.
///
/// Layout contract (established by `quantize_*_into` in
/// [`crate::kernels::pack`]): `a_panel` holds `QMR` consecutive rows, each
/// `kp` `i16`s long; `b_panel` holds `QNR` consecutive *columns*, each `kp`
/// long — i.e. both operands are stored as contiguous full-K vectors, the
/// degenerate strip layout with one row (column) per strip. The values are
/// int8-range (`[-127, 127]`) but stored as `i16`.
///
/// Shape notes, established by experiment on the AVX-512 host:
///
/// * LLVM's X86PartialReduction pass only forms `vpmaddwd` (two 16-bit
///   MACs per 32-bit lane) when a plain scalar accumulator feeds a single
///   visible vector reduce — hence the textbook `s += x[k] * y[k]` dot
///   below. Interleaved multi-accumulator loops, manual even/odd pairing,
///   or returning raw vector accumulators all degrade to
///   `vpmovsxwd`+`vpmulld` at a fraction of the throughput.
/// * `i16` storage (not `i8`) because the `i8` load + sign-extend on the
///   critical path halved measured throughput; `i16` still halves the
///   memory traffic of `f32`.
/// * Accumulating a full-K dot in `i32` is safe for any practical `k`:
///   `k · 127²` stays below `2³¹` for `k` up to ~133 000.
///
/// `#[inline(never)]`: the reduce-pattern match above is fragile under
/// inlining into larger loop nests; keeping the function a codegen unit
/// pins the measured-good shape. At ≥ 512 MACs per call the call cost is
/// noise.
#[inline(never)]
pub fn q8_microkernel(a_panel: &[i16], b_panel: &[i16], kp: usize) -> [[i32; QNR]; QMR] {
    let mut out = [[0i32; QNR]; QMR];
    for (r, row) in out.iter_mut().enumerate() {
        let x = &a_panel[r * kp..(r + 1) * kp];
        for (c, slot) in row.iter_mut().enumerate() {
            let y = &b_panel[c * kp..(c + 1) * kp];
            let mut s = 0i32;
            // Codegen-sensitive: see the shape notes above.
            #[allow(clippy::needless_range_loop)]
            for k in 0..kp {
                s += x[k] as i32 * y[k] as i32;
            }
            *slot = s;
        }
    }
    out
}

/// Dequantize-on-store epilogue for the int8 path: add the valid
/// `mr_eff × nr_eff` corner of an `i32` tile into `C`, rescaling each
/// element by its row scale (`sa`, per output channel) and column scale
/// (`sb`, per activation row / per tensor).
#[inline(always)]
#[allow(clippy::too_many_arguments)] // mirrors store_tile_add plus the two scale vectors
pub fn store_tile_dequant(
    acc: &[[i32; QNR]; QMR],
    c: &mut [f32],
    ldc: usize,
    row0: usize,
    col0: usize,
    mr_eff: usize,
    nr_eff: usize,
    sa: &[f32],
    sb: &[f32],
) {
    for (i, row) in acc.iter().enumerate().take(mr_eff) {
        let si = sa[row0 + i];
        let base = (row0 + i) * ldc + col0;
        for (j, (slot, &v)) in c[base..base + nr_eff]
            .iter_mut()
            .zip(row.iter())
            .enumerate()
        {
            *slot += v as f32 * si * sb[col0 + j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microkernel_is_sum_of_outer_products() {
        // kc = 2: A strip rows [1..=6] then [10,..,60]; B strip [1..=16]
        // then all 0.5.
        let mut a = Vec::new();
        a.extend((1..=MR).map(|v| v as f32));
        a.extend((1..=MR).map(|v| 10.0 * v as f32));
        let mut b = Vec::new();
        b.extend((1..=NR).map(|v| v as f32));
        b.extend(std::iter::repeat(0.5).take(NR));
        let acc = microkernel(&a, &b, 2);
        for (i, row) in acc.iter().enumerate() {
            for (j, &got) in row.iter().enumerate() {
                let expect = (i + 1) as f32 * (j + 1) as f32 + 10.0 * (i + 1) as f32 * 0.5;
                assert_eq!(got, expect, "tile ({i},{j})");
            }
        }
    }

    #[test]
    fn q8_microkernel_matches_scalar_dots() {
        let kp = QK_ALIGN;
        let mut a = vec![0i16; QMR * kp];
        let mut b = vec![0i16; QNR * kp];
        for (i, v) in a.iter_mut().enumerate() {
            *v = ((i as i64 * 37 + 11) % 255 - 127) as i16;
        }
        for (i, v) in b.iter_mut().enumerate() {
            *v = ((i as i64 * 53 + 7) % 255 - 127) as i16;
        }
        let acc = q8_microkernel(&a, &b, kp);
        for r in 0..QMR {
            for c in 0..QNR {
                let want: i32 = (0..kp)
                    .map(|k| a[r * kp + k] as i32 * b[c * kp + k] as i32)
                    .sum();
                assert_eq!(acc[r][c], want, "tile ({r},{c})");
            }
        }
    }

    #[test]
    fn store_tile_dequant_applies_row_and_col_scales() {
        let mut acc = [[0i32; QNR]; QMR];
        for (r, row) in acc.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = (r * 10 + c) as i32;
            }
        }
        let sa = [2.0f32, 0.5, 1.0, 4.0];
        let sb = [1.0f32, 10.0, 0.1, 3.0];
        let mut c = vec![1.0f32; QMR * QNR];
        store_tile_dequant(&acc, &mut c, QNR, 0, 0, 3, 2, &sa, &sb);
        for r in 0..QMR {
            for j in 0..QNR {
                let expect = if r < 3 && j < 2 {
                    1.0 + (r * 10 + j) as f32 * sa[r] * sb[j]
                } else {
                    1.0
                };
                assert_eq!(c[r * QNR + j], expect, "({r},{j})");
            }
        }
    }

    #[test]
    fn padded_qk_rounds_up() {
        assert_eq!(padded_qk(1), QK_ALIGN);
        assert_eq!(padded_qk(QK_ALIGN), QK_ALIGN);
        assert_eq!(padded_qk(QK_ALIGN + 1), 2 * QK_ALIGN);
    }

    #[test]
    fn store_tile_clips_to_effective_size() {
        let acc = [[1.0f32; NR]; MR];
        let mut c = vec![0.0f32; 4 * 8];
        store_tile_add(&acc, &mut c, 8, 1, 2, 2, 3);
        let want_hot = [(1usize, 2usize), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)];
        for r in 0..4 {
            for col in 0..8 {
                let expect = if want_hot.contains(&(r, col)) {
                    1.0
                } else {
                    0.0
                };
                assert_eq!(c[r * 8 + col], expect, "({r},{col})");
            }
        }
    }
}
