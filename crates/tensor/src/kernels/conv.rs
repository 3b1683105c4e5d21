//! 2-D convolution: the production implicit-GEMM path, plus the
//! `im2col + GEMM` and direct reference implementations.
//!
//! A convolution is the GEMM `W · col` where `col` — the `im2col` matrix —
//! holds one row per `(channel, ky, kx)` tap and one column per output
//! pixel. The production path ([`conv2d_prepacked_into`]) never builds
//! `col`: it runs the blocked driver's `jc → pc → ic → jr → ir` nest and
//! packs each `KC × NC` block of the *virtual* matrix straight from the
//! NCHW image into the strip layout the microkernel consumes
//! ([`pack_conv_block_into`]), so the per-call scratch is one block. Bias
//! and ReLU are finished in the tile store of the first / last K block, the
//! residual operand of a ResNet block in a sweep over each finished column
//! block ([`ConvEpilogue`]) — none of them in a pass of its own over the
//! output. [`im2col`] survives for the int8 arm, which quantizes whole
//! patches, and for the oracles.

use crate::kernels::activation::relu_inplace;
use crate::kernels::add_relu_inplace;
use crate::kernels::gemm::{gemm, gemm_prepacked_qa, MT_MIN_WORK};
use crate::kernels::microkernel::{
    microkernel, store_tile_epilogue, TileEpilogue, KC, MC_STRIPS, MR, NC_STRIPS, NR,
};
use crate::kernels::pack::{a_strips, b_strips, packed_a_len};
use crate::kernels::quant::expand_f16_into;
use crate::packed::{ConvWeights, GemmScratch, PackedA, PackedA16, QuantizedA};

/// Static parameters of a conv2d op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel height/width (square kernels only — all ResNet50 kernels are).
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub pad: usize,
}

/// Output extent of a `kernel`-wide window sliding over `len` elements
/// padded by `pad` on both sides at `stride`, or `None` when the geometry
/// has no output: a zero kernel or stride, or a window wider than the
/// padded input. Graph validation ([`crate::NnGraph::infer_shapes`]) goes
/// through this, so the kernels may assume a checked geometry.
pub(crate) fn window_out(len: usize, kernel: usize, stride: usize, pad: usize) -> Option<usize> {
    if kernel == 0 || stride == 0 {
        return None;
    }
    let padded = len.checked_add(pad.checked_mul(2)?)?;
    Some(padded.checked_sub(kernel)? / stride + 1)
}

impl Conv2dParams {
    /// Output spatial size for an `h×w` input. The geometry must have an
    /// output — non-zero kernel and stride, window no larger than the padded
    /// input — which graphs are checked for when their shapes are inferred.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.pad - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.pad - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// Rows of the `im2col` matrix: the GEMM depth `in_c · k · k`.
    pub fn krows(&self) -> usize {
        self.in_c * self.kernel * self.kernel
    }

    /// Multiply-accumulate FLOPs (2 per MAC) for one image of `h×w`.
    pub fn flops(&self, h: usize, w: usize) -> u64 {
        let (oh, ow) = self.out_hw(h, w);
        2 * (self.out_c * oh * ow) as u64 * self.krows() as u64
    }
}

/// What a convolution finishes inside its driver after bias and
/// accumulation. The executors' plan compilers fill it in: `FusedExec`
/// folds a ResNet block's `Add` and the ReLU behind it into the later of
/// the block's two convolutions; `UnfusedExec` passes the default.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvEpilogue<'a> {
    /// Added element-wise to the output (`[batch, out_c, oh, ow]`, the
    /// convolution's own output layout) before the ReLU.
    pub residual: Option<&'a [f32]>,
    /// Clamp negatives to zero last.
    pub relu: bool,
}

/// Unfold one NCHW image (`[in_c, h, w]`) into the `im2col` matrix with shape
/// `[in_c * k * k, oh * ow]`, writing into `col` (which must have that many
/// elements; it is fully overwritten).
pub fn im2col(input: &[f32], h: usize, w: usize, p: &Conv2dParams, col: &mut [f32]) {
    let (oh, ow) = p.out_hw(h, w);
    let cols = oh * ow;
    assert_eq!(input.len(), p.in_c * h * w, "im2col: input length");
    assert_eq!(col.len(), p.krows() * cols, "im2col: col length");
    let mut row = 0usize;
    for c in 0..p.in_c {
        let chan = &input[c * h * w..(c + 1) * h * w];
        for ky in 0..p.kernel {
            for kx in 0..p.kernel {
                let out_row = &mut col[row * cols..(row + 1) * cols];
                let mut idx = 0usize;
                for oy in 0..oh {
                    let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        out_row[idx..idx + ow].fill(0.0);
                        idx += ow;
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..ow {
                        let ix = (ox * p.stride + kx) as isize - p.pad as isize;
                        out_row[idx] = if ix < 0 || ix >= w as isize {
                            0.0
                        } else {
                            chan[iy * w + ix as usize]
                        };
                        idx += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

/// Pack rows `[pc, pc + kc)` × column strips `[jcb, jc_end)` of one image's
/// *virtual* `im2col` matrix straight from the NCHW image into the strip
/// layout of [`crate::kernels::pack::pack_b_into`]: strip `js` occupies
/// `blk[(js - jcb) * kc * NR ..][.. kc * NR]` and element
/// `(pc + r, js * NR + c)` lands at `r * NR + c` inside it; columns past
/// `oh * ow` are zero. With `pc = 0`, `kc = krows` and all strips this is
/// exactly `pack_b_into(im2col(..))` without the matrix in between.
///
/// Each strip is written front to back while its `NR` columns are read from
/// the image one tap row at a time:
///
/// * 1×1, stride 1, no padding — the matrix *is* the input: row `r` is
///   channel `pc + r`'s plane, and a strip row is one contiguous copy;
/// * everything else — a strip covers one or more output-row segments, each
///   of which is a shifted `copy_from_slice` (stride 1) or a strided gather
///   of one image row with zero-filled borders; the bounds are worked out
///   per segment, never per element.
#[allow(clippy::too_many_arguments)] // a BLAS-style kernel signature: dims are positional by convention
pub fn pack_conv_block_into(
    img: &[f32],
    h: usize,
    w: usize,
    p: &Conv2dParams,
    pc: usize,
    kc: usize,
    jcb: usize,
    jc_end: usize,
    blk: &mut [f32],
) {
    let (oh, ow) = p.out_hw(h, w);
    let cols = oh * ow;
    let plane = h * w;
    assert_eq!(img.len(), p.in_c * plane, "pack_conv_block: image length");
    assert!(pc + kc <= p.krows(), "pack_conv_block: row range");
    assert!(jc_end <= b_strips(cols), "pack_conv_block: strip range");
    assert_eq!(
        blk.len(),
        (jc_end - jcb) * kc * NR,
        "pack_conv_block: block length"
    );
    let unit = p.kernel == 1 && p.stride == 1 && p.pad == 0;
    for (js, strip) in (jcb..jc_end).zip(blk.chunks_exact_mut(kc * NR)) {
        let j0 = js * NR;
        let n = NR.min(cols - j0);
        if unit {
            for (r, dst) in strip.chunks_exact_mut(NR).enumerate() {
                dst[..n].copy_from_slice(&img[(pc + r) * plane + j0..][..n]);
                dst[n..].fill(0.0);
            }
            continue;
        }
        let (oy0, ox0) = (j0 / ow, j0 % ow);
        let k2 = p.kernel * p.kernel;
        let (mut c, mut ky, mut kx) = (pc / k2, pc % k2 / p.kernel, pc % p.kernel);
        for dst in strip.chunks_exact_mut(NR) {
            let chan = &img[c * plane..(c + 1) * plane];
            // Output columns whose tap `kx` falls inside the image row:
            // `lo <= ox < hi` ⇔ `pad <= ox * stride + kx < w + pad`.
            let (lo, hi) = (p.pad.saturating_sub(kx), (w + p.pad).saturating_sub(kx));
            let (lo, hi) = match p.stride {
                1 => (lo, hi.min(ow)),
                s => (lo.div_ceil(s), hi.div_ceil(s).min(ow)),
            };
            let (mut oy, mut ox, mut done) = (oy0, ox0, 0usize);
            while done < n {
                let len = (ow - ox).min(n - done);
                let seg = &mut dst[done..done + len];
                let iy = oy * p.stride + ky;
                if iy < p.pad || iy - p.pad >= h {
                    seg.fill(0.0);
                } else {
                    let row = &chan[(iy - p.pad) * w..(iy - p.pad + 1) * w];
                    let a = lo.clamp(ox, ox + len);
                    let b = hi.clamp(a, ox + len);
                    seg[..a - ox].fill(0.0);
                    seg[b - ox..].fill(0.0);
                    let mid = &mut seg[a - ox..b - ox];
                    if !mid.is_empty() {
                        let start = a * p.stride + kx - p.pad;
                        match p.stride {
                            1 => mid.copy_from_slice(&row[start..start + mid.len()]),
                            2 => gather::<2>(mid, &row[start..]),
                            s => {
                                for (d, &v) in mid.iter_mut().zip(row[start..].iter().step_by(s)) {
                                    *d = v;
                                }
                            }
                        }
                    }
                }
                done += len;
                ox = 0;
                oy += 1;
            }
            dst[n..].fill(0.0);
            kx += 1;
            if kx == p.kernel {
                kx = 0;
                ky += 1;
                if ky == p.kernel {
                    ky = 0;
                    c += 1;
                }
            }
        }
    }
}

/// `dst[i] = src[i * S]` at a compile-time stride, shaped (`chunks_exact`)
/// so the strided loads vectorise; `dst` must not be empty.
#[inline(always)]
fn gather<const S: usize>(dst: &mut [f32], src: &[f32]) {
    let (last, body) = dst.split_last_mut().expect("gather: empty destination");
    for (d, s) in body.iter_mut().zip(src.chunks_exact(S)) {
        *d = s[0];
    }
    *last = src[body.len() * S];
}

/// The `ic → jr → ir` part of the blocked driver over one packed `B` block:
/// every `MR×NR` tile of `C` under the block's column strips gets the
/// block's `kc` rank-1 updates and is stored through `epi`.
///
/// `#[inline(never)]`, taking the block by `&[f32]`: the register tile is
/// fragile — with the packing code inlined into the same function as this
/// nest LLVM spilled the accumulators and every convolution ran 8× slower.
/// Keeping the nest its own codegen unit pins the shape
/// [`crate::kernels::gemm`]'s `gemm_packed_region` is measured at.
#[inline(never)]
#[allow(clippy::too_many_arguments)] // a GEMM driver's natural signature
fn conv_block_tiles(
    pa: &[f32],
    blk: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jcb: usize,
    epi: TileEpilogue<'_>,
) {
    let strips = a_strips(m);
    for icb in (0..strips).step_by(MC_STRIPS) {
        let ic_end = (icb + MC_STRIPS).min(strips);
        for (js, b_panel) in (jcb..).zip(blk.chunks_exact(kc * NR)) {
            let col0 = js * NR;
            let nr_eff = NR.min(n - col0);
            for is in icb..ic_end {
                let a_panel = &pa[is * k * MR + pc * MR..][..kc * MR];
                let acc = microkernel(a_panel, b_panel, kc);
                let row0 = is * MR;
                let mr_eff = MR.min(m - row0);
                store_tile_epilogue(&acc, c, n, row0, col0, mr_eff, nr_eff, epi);
            }
        }
    }
}

/// Floats of `B`-side scratch one convolution needs on the single-threaded
/// path: one `KC × NC` block, whatever the layer's size.
pub const CONV_BLOCK_FLOATS: usize = KC * NC_STRIPS * NR;

/// One image through the implicit-GEMM driver: `out_img = relu?(W · col +
/// bias + residual)` with `col` never built. `pa` is the packed `[out_c,
/// krows]` weight; `blk` must hold one block (see [`CONV_BLOCK_FLOATS`]).
///
/// Bias and ReLU ride in the tile store. A residual does not: a tile store
/// touches 2 cache lines in each of `MR` rows a plane apart, and fetching
/// the residual that way stalls on every line (measured 2.2 ms against
/// 1.1 ms without it for ResNet's 256×64×3136 layer). It is added, with the
/// ReLU behind it, in a row sweep over each column block as soon as the
/// block's last K block has been stored — long contiguous runs the
/// prefetcher follows, over output that is still in cache.
#[allow(clippy::too_many_arguments)] // a GEMM driver's natural signature
fn conv_image_blocked(
    pa: &[f32],
    img: &[f32],
    h: usize,
    w: usize,
    p: &Conv2dParams,
    bias: &[f32],
    epilogue: ConvEpilogue<'_>,
    out_img: &mut [f32],
    blk: &mut [f32],
) {
    let (oh, ow) = p.out_hw(h, w);
    let (m, k, n) = (p.out_c, p.krows(), oh * ow);
    let bs = b_strips(n);
    let tile_relu = epilogue.relu && epilogue.residual.is_none();
    for jcb in (0..bs).step_by(NC_STRIPS) {
        let jc_end = (jcb + NC_STRIPS).min(bs);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let blk = &mut blk[..(jc_end - jcb) * kc * NR];
            pack_conv_block_into(img, h, w, p, pc, kc, jcb, jc_end, blk);
            let epi = TileEpilogue {
                first: (pc == 0).then_some(bias),
                relu: tile_relu && pc + kc == k,
            };
            conv_block_tiles(pa, blk, out_img, m, k, n, pc, kc, jcb, epi);
        }
        if let Some(res) = epilogue.residual {
            let (c0, c1) = (jcb * NR, (jc_end * NR).min(n));
            for (out_row, res_row) in out_img.chunks_exact_mut(n).zip(res.chunks_exact(n)) {
                add_relu_inplace(&mut out_row[c0..c1], &res_row[c0..c1], epilogue.relu);
            }
        }
    }
}

/// The residual and ReLU of `epilogue` as a pass over a finished output —
/// what the arms that do not run the blocked driver's epilogue (worker
/// pool, int8) apply after their GEMM.
fn epilogue_pass(out: &mut [f32], epilogue: ConvEpilogue<'_>) {
    match epilogue.residual {
        Some(res) => add_relu_inplace(out, res, epilogue.relu),
        None if epilogue.relu => relu_inplace(out),
        None => {}
    }
}

/// The convolution behind both weight precisions that compute in f32.
/// `weight` is the plan's packed `[out_c, krows]` operand, or `None` when
/// the caller has just expanded f16 panels into `scratch`'s `A` side.
#[allow(clippy::too_many_arguments)] // a BLAS-style kernel signature: dims are positional by convention
fn conv2d_packed_into(
    input: &[f32],
    batch: usize,
    h: usize,
    w: usize,
    weight: Option<&PackedA>,
    bias: &[f32],
    p: &Conv2dParams,
    epilogue: ConvEpilogue<'_>,
    out: &mut [f32],
    scratch: &mut GemmScratch,
) {
    let (oh, ow) = p.out_hw(h, w);
    let (m, k, n) = (p.out_c, p.krows(), oh * ow);
    assert_eq!(input.len(), batch * p.in_c * h * w, "conv2d: input length");
    assert_eq!(out.len(), batch * m * n, "conv2d: out length");
    assert!(bias.is_empty() || bias.len() == m, "conv2d: bias length");
    if let Some(res) = epilogue.residual {
        assert_eq!(res.len(), out.len(), "conv2d: residual length");
    }
    let pool = if m * k * n >= MT_MIN_WORK {
        crate::par::global()
    } else {
        None
    };
    let images = input.chunks_exact(p.in_c * h * w);
    if let Some(pool) = pool {
        // The worker pool splits `C` by row panels over a whole packed `B`
        // and merges partial panels, so here `B` is packed in one piece (a
        // block spanning every row and strip), the bias prefilled and the
        // epilogue applied as passes — the results of the pooled path are
        // what they were with an `im2col` matrix in between.
        let bs = b_strips(n);
        for (img, out_img) in images.zip(out.chunks_exact_mut(m * n)) {
            pack_conv_block_into(img, h, w, p, 0, k, 0, bs, scratch.pb_mut(bs * k * NR));
            fill_bias(out_img, bias, m, n);
            let pa = weight.map_or(scratch.pa_arc(), |wt| wt.data());
            pool.gemm(pa, scratch.pb_arc(), out_img, m, k, n);
        }
        epilogue_pass(out, epilogue);
        return;
    }
    let block = b_strips(n).min(NC_STRIPS) * k.min(KC) * NR;
    let (expanded, blk) = scratch.pa_and_pb_mut(block);
    let pa: &[f32] = weight.map_or(expanded, |wt| wt.data());
    for (b, (img, out_img)) in images.zip(out.chunks_exact_mut(m * n)).enumerate() {
        let residual = epilogue.residual.map(|r| &r[b * m * n..(b + 1) * m * n]);
        let epilogue = ConvEpilogue {
            residual,
            ..epilogue
        };
        conv_image_blocked(pa, img, h, w, p, bias, epilogue, out_img, blk);
    }
}

/// Convolution of a batch of NCHW images against a weight matrix packed once
/// at plan-compile time (`[out_c, in_c*k*k]` as a [`PackedA`]), writing into
/// a caller-provided buffer — the allocation-free, zero-weight-packing,
/// `im2col`-free form the executors drive from their arenas.
///
/// * `input`: `[batch, in_c, h, w]`
/// * `bias`: `out_c` elements, or empty for no bias
/// * `out`: `batch * out_c * oh * ow` elements, fully overwritten with
///   `relu?(conv + bias + residual)` as `epilogue` says
///
/// Activation packing goes through `scratch`, one `KC × NC` block at a time.
#[allow(clippy::too_many_arguments)] // a BLAS-style kernel signature: dims are positional by convention
pub fn conv2d_prepacked_into(
    input: &[f32],
    batch: usize,
    h: usize,
    w: usize,
    weight: &PackedA,
    bias: &[f32],
    p: &Conv2dParams,
    epilogue: ConvEpilogue<'_>,
    out: &mut [f32],
    scratch: &mut GemmScratch,
) {
    assert_eq!(weight.m(), p.out_c, "conv2d: packed weight rows");
    assert_eq!(weight.k(), p.krows(), "conv2d: packed weight depth");
    conv2d_packed_into(
        input,
        batch,
        h,
        w,
        Some(weight),
        bias,
        p,
        epilogue,
        out,
        scratch,
    );
}

/// [`conv2d_prepacked_into`] against weights stored as f16 panels: half the
/// weight footprint, expanded to f32 in scratch per call, f32 accumulation.
#[allow(clippy::too_many_arguments)] // a BLAS-style kernel signature: dims are positional by convention
pub fn conv2d_f16_prepacked_into(
    input: &[f32],
    batch: usize,
    h: usize,
    w: usize,
    weight: &PackedA16,
    bias: &[f32],
    p: &Conv2dParams,
    epilogue: ConvEpilogue<'_>,
    out: &mut [f32],
    scratch: &mut GemmScratch,
) {
    assert_eq!(weight.m(), p.out_c, "conv2d: f16 weight rows");
    assert_eq!(weight.k(), p.krows(), "conv2d: f16 weight depth");
    let len = packed_a_len(weight.m(), weight.k());
    expand_f16_into(weight.data(), scratch.pa_mut(len));
    conv2d_packed_into(input, batch, h, w, None, bias, p, epilogue, out, scratch);
}

/// Convolution against weights int8-quantized at plan-compile time
/// (per-output-channel scales). This arm still goes through `im2col`: each
/// image's matrix is quantized per call with one per-tensor scale inside
/// [`gemm_prepacked_qa`]; accumulation is `i32`, dequantized on store, and
/// the epilogue runs as passes.
#[allow(clippy::too_many_arguments)] // a BLAS-style kernel signature: dims are positional by convention
pub fn conv2d_q8_prepacked_into(
    input: &[f32],
    batch: usize,
    h: usize,
    w: usize,
    weight: &QuantizedA,
    bias: &[f32],
    p: &Conv2dParams,
    epilogue: ConvEpilogue<'_>,
    out: &mut [f32],
    scratch: &mut GemmScratch,
) {
    let (oh, ow) = p.out_hw(h, w);
    let cols = oh * ow;
    let krows = p.krows();
    assert_eq!(weight.m(), p.out_c, "conv2d: quantized weight rows");
    assert_eq!(weight.k(), krows, "conv2d: quantized weight depth");
    assert_eq!(out.len(), batch * p.out_c * cols, "conv2d: out length");
    let mut col = scratch.take_col();
    col.resize(krows * cols, 0.0);
    for b in 0..batch {
        let img = &input[b * p.in_c * h * w..(b + 1) * p.in_c * h * w];
        im2col(img, h, w, p, &mut col);
        let out_img = &mut out[b * p.out_c * cols..(b + 1) * p.out_c * cols];
        fill_bias(out_img, bias, p.out_c, cols);
        gemm_prepacked_qa(weight, &col, out_img, cols, scratch);
    }
    scratch.put_col(col);
    epilogue_pass(out, epilogue);
}

/// The precision-dispatched convolution: the executors' single conv entry
/// point, routing to the kernel matching the weight operand's precision
/// (chosen per layer at plan-compile time — see the dense counterpart
/// [`crate::kernels::gemm::dense_dispatch_into`]). Every arm writes
/// `relu?(conv + bias + residual)` and allocates nothing past the first
/// call's scratch growth.
#[allow(clippy::too_many_arguments)] // a BLAS-style kernel signature: dims are positional by convention
pub fn conv2d_dispatch_into(
    input: &[f32],
    batch: usize,
    h: usize,
    w: usize,
    weight: &ConvWeights,
    bias: &[f32],
    p: &Conv2dParams,
    epilogue: ConvEpilogue<'_>,
    out: &mut [f32],
    scratch: &mut GemmScratch,
) {
    match weight {
        ConvWeights::F32(pa) => {
            conv2d_prepacked_into(input, batch, h, w, pa, bias, p, epilogue, out, scratch)
        }
        ConvWeights::Int8(qa) => {
            conv2d_q8_prepacked_into(input, batch, h, w, qa, bias, p, epilogue, out, scratch)
        }
        ConvWeights::F16(pa16) => {
            conv2d_f16_prepacked_into(input, batch, h, w, pa16, bias, p, epilogue, out, scratch)
        }
    }
}

/// Bias-fill (or zero) one image's output plane, one value per channel.
fn fill_bias(out_img: &mut [f32], bias: &[f32], out_c: usize, cols: usize) {
    if bias.is_empty() {
        out_img.fill(0.0);
    } else {
        assert_eq!(bias.len(), out_c, "conv2d: bias length");
        for (oc, &bv) in bias.iter().enumerate() {
            out_img[oc * cols..(oc + 1) * cols].fill(bv);
        }
    }
}

/// Convolution via a materialised `im2col` matrix + GEMM for a batch of
/// NCHW images — the structure the production path had before it packed
/// `B` blocks from the image, kept as the oracle its results are pinned to
/// (tests, `benches/micro.rs`).
///
/// * `weight`: `[out_c, in_c, k, k]` (used as a `[out_c, in_c*k*k]` matrix)
/// * `bias`: `out_c` elements, or empty for no bias (ResNet convs carry the
///   bias inside the following batch-norm)
/// * `col_scratch`: reusable buffer; resized as needed
/// * `out`: `batch * out_c * oh * ow` elements, fully overwritten
#[allow(clippy::too_many_arguments)] // a BLAS-style kernel signature: dims are positional by convention
pub fn conv2d_im2col_into(
    input: &[f32],
    batch: usize,
    h: usize,
    w: usize,
    weight: &[f32],
    bias: &[f32],
    p: &Conv2dParams,
    col_scratch: &mut Vec<f32>,
    out: &mut [f32],
) {
    let (oh, ow) = p.out_hw(h, w);
    let cols = oh * ow;
    let krows = p.krows();
    assert_eq!(weight.len(), p.out_c * krows, "conv2d: weight length");
    assert_eq!(out.len(), batch * p.out_c * cols, "conv2d: out length");
    col_scratch.resize(krows * cols, 0.0);
    for b in 0..batch {
        let img = &input[b * p.in_c * h * w..(b + 1) * p.in_c * h * w];
        im2col(img, h, w, p, col_scratch);
        let out_img = &mut out[b * p.out_c * cols..(b + 1) * p.out_c * cols];
        fill_bias(out_img, bias, p.out_c, cols);
        gemm(weight, col_scratch, out_img, p.out_c, krows, cols);
    }
}

/// Direct (sliding-window) convolution into `out` (`batch * out_c * oh *
/// ow` elements, fully overwritten). O(out * k²) per element with no
/// locality optimisation — the correctness reference for the GEMM-backed
/// paths, and the "eager kernel" of `UnfusedExec`'s naive-conv mode.
#[allow(clippy::too_many_arguments)] // a BLAS-style kernel signature: dims are positional by convention
pub fn conv2d_direct_into(
    input: &[f32],
    batch: usize,
    h: usize,
    w: usize,
    weight: &[f32],
    bias: &[f32],
    p: &Conv2dParams,
    out: &mut [f32],
) {
    let (oh, ow) = p.out_hw(h, w);
    assert_eq!(out.len(), batch * p.out_c * oh * ow, "conv2d: out length");
    for b in 0..batch {
        for oc in 0..p.out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = if bias.is_empty() { 0.0 } else { bias[oc] };
                    for ic in 0..p.in_c {
                        for ky in 0..p.kernel {
                            for kx in 0..p.kernel {
                                let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                                let ix = (ox * p.stride + kx) as isize - p.pad as isize;
                                if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let iv =
                                    input[((b * p.in_c + ic) * h + iy as usize) * w + ix as usize];
                                let wv =
                                    weight[((oc * p.in_c + ic) * p.kernel + ky) * p.kernel + kx];
                                acc += iv * wv;
                            }
                        }
                    }
                    out[((b * p.out_c + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;
    use proptest::prelude::*;

    /// The `im2col` oracle into a fresh buffer.
    fn im2col_conv(
        input: &[f32],
        batch: usize,
        h: usize,
        w: usize,
        weight: &[f32],
        bias: &[f32],
        p: &Conv2dParams,
    ) -> Vec<f32> {
        let (oh, ow) = p.out_hw(h, w);
        let mut out = vec![f32::NAN; batch * p.out_c * oh * ow];
        conv2d_im2col_into(
            input,
            batch,
            h,
            w,
            weight,
            bias,
            p,
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    /// The direct oracle into a fresh buffer.
    fn direct_conv(
        input: &[f32],
        batch: usize,
        h: usize,
        w: usize,
        weight: &[f32],
        bias: &[f32],
        p: &Conv2dParams,
    ) -> Vec<f32> {
        let (oh, ow) = p.out_hw(h, w);
        let mut out = vec![f32::NAN; batch * p.out_c * oh * ow];
        conv2d_direct_into(input, batch, h, w, weight, bias, p, &mut out);
        out
    }

    #[test]
    fn out_hw_standard_cases() {
        // ResNet50 stem: 224x224, k=7, s=2, p=3 -> 112x112
        let p = Conv2dParams {
            in_c: 3,
            out_c: 64,
            kernel: 7,
            stride: 2,
            pad: 3,
        };
        assert_eq!(p.out_hw(224, 224), (112, 112));
        // Same-size 3x3: k=3, s=1, p=1
        let p = Conv2dParams {
            in_c: 8,
            out_c: 8,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        assert_eq!(p.out_hw(56, 56), (56, 56));
    }

    #[test]
    fn identity_1x1_conv() {
        // A 1x1 conv with identity channel mixing returns the input.
        let p = Conv2dParams {
            in_c: 2,
            out_c: 2,
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        let input = Tensor::seeded_uniform([1, 2, 3, 3], 7, -1.0, 1.0);
        let weight = vec![1.0, 0.0, 0.0, 1.0]; // [2,2,1,1] identity
        let out = im2col_conv(input.data(), 1, 3, 3, &weight, &[], &p);
        assert_eq!(out, input.data());
    }

    #[test]
    fn bias_is_broadcast() {
        let p = Conv2dParams {
            in_c: 1,
            out_c: 2,
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        let input = vec![0.0; 4]; // 1x1x2x2 zeros
        let weight = vec![1.0, 1.0];
        let out = im2col_conv(&input, 1, 2, 2, &weight, &[3.0, 5.0], &p);
        assert_eq!(out, vec![3.0, 3.0, 3.0, 3.0, 5.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn strided_padded_matches_direct() {
        let p = Conv2dParams {
            in_c: 3,
            out_c: 4,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let input = Tensor::seeded_uniform([2, 3, 7, 7], 11, -1.0, 1.0);
        let weight = Tensor::seeded_uniform([4, 3, 3, 3], 12, -1.0, 1.0);
        let bias = vec![0.5, -0.5, 0.0, 1.0];
        let fast = im2col_conv(input.data(), 2, 7, 7, weight.data(), &bias, &p);
        let slow = direct_conv(input.data(), 2, 7, 7, weight.data(), &bias, &p);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn prepacked_conv_matches_im2col_path() {
        let p = Conv2dParams {
            in_c: 3,
            out_c: 5,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let input = Tensor::seeded_uniform([2, 3, 9, 9], 21, -1.0, 1.0);
        let weight = Tensor::seeded_uniform([5, 3, 3, 3], 22, -1.0, 1.0);
        let bias = vec![0.1, -0.2, 0.3, 0.0, 1.5];
        let expect = im2col_conv(input.data(), 2, 9, 9, weight.data(), &bias, &p);

        let packed = PackedA::pack(weight.data(), 5, 27);
        let mut out = vec![f32::NAN; expect.len()];
        let mut gs = GemmScratch::new();
        conv2d_prepacked_into(
            input.data(),
            2,
            9,
            9,
            &packed,
            &bias,
            &p,
            ConvEpilogue::default(),
            &mut out,
            &mut gs,
        );
        for (a, b) in out.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn prepacked_conv_scale_row_folds_like_weight_scaling() {
        // Folding BN into conv means scaling each output channel's weight
        // row; scale_row must act identically on the packed layout.
        let p = Conv2dParams {
            in_c: 2,
            out_c: 3,
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        let input = Tensor::seeded_uniform([1, 2, 4, 4], 31, -1.0, 1.0);
        let weight = Tensor::seeded_uniform([3, 2, 1, 1], 32, -1.0, 1.0);
        let scales = [2.0f32, 0.5, -1.25];
        let mut scaled = weight.data().to_vec();
        for (oc, &s) in scales.iter().enumerate() {
            for v in &mut scaled[oc * 2..(oc + 1) * 2] {
                *v *= s;
            }
        }
        let expect = im2col_conv(input.data(), 1, 4, 4, &scaled, &[], &p);

        let mut packed = PackedA::pack(weight.data(), 3, 2);
        for (oc, &s) in scales.iter().enumerate() {
            packed.scale_row(oc, s);
        }
        let mut out = vec![f32::NAN; expect.len()];
        let mut gs = GemmScratch::new();
        conv2d_prepacked_into(
            input.data(),
            1,
            4,
            4,
            &packed,
            &[],
            &p,
            ConvEpilogue::default(),
            &mut out,
            &mut gs,
        );
        for (a, b) in out.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn quantized_and_f16_conv_track_the_f32_path() {
        let p = Conv2dParams {
            in_c: 3,
            out_c: 5,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let input = Tensor::seeded_uniform([2, 3, 9, 9], 41, -1.0, 1.0);
        let weight = Tensor::seeded_uniform([5, 3, 3, 3], 42, -1.0, 1.0);
        let bias = vec![0.1, -0.2, 0.3, 0.0, 1.5];
        let expect = im2col_conv(input.data(), 2, 9, 9, weight.data(), &bias, &p);
        let mut gs = GemmScratch::new();

        // int8: k = 27 rounding steps bound the absolute error.
        let qw = QuantizedA::from_f32(weight.data(), 5, 27);
        let mut out = vec![f32::NAN; expect.len()];
        conv2d_q8_prepacked_into(
            input.data(),
            2,
            9,
            9,
            &qw,
            &bias,
            &p,
            ConvEpilogue::default(),
            &mut out,
            &mut gs,
        );
        let bound = 27.0 / 127.0 * 1.2;
        for (a, b) in out.iter().zip(&expect) {
            assert!((a - b).abs() < bound, "int8 {a} vs {b}");
        }

        // f16: much tighter.
        let hw = PackedA16::pack(weight.data(), 5, 27);
        let mut out = vec![f32::NAN; expect.len()];
        conv2d_f16_prepacked_into(
            input.data(),
            2,
            9,
            9,
            &hw,
            &bias,
            &p,
            ConvEpilogue::default(),
            &mut out,
            &mut gs,
        );
        for (a, b) in out.iter().zip(&expect) {
            assert!((a - b).abs() < 27.0 / 2048.0 + 1e-4, "f16 {a} vs {b}");
        }

        // The dispatcher routes each variant to the same kernels.
        let variants = [
            ConvWeights::F32(PackedA::pack(weight.data(), 5, 27)),
            ConvWeights::Int8(qw.clone()),
            ConvWeights::F16(hw.clone()),
        ];
        for cw in &variants {
            let mut out = vec![f32::NAN; expect.len()];
            conv2d_dispatch_into(
                input.data(),
                2,
                9,
                9,
                cw,
                &bias,
                &p,
                ConvEpilogue::default(),
                &mut out,
                &mut gs,
            );
            for (a, b) in out.iter().zip(&expect) {
                assert!(
                    (a - b).abs() < bound,
                    "{} dispatch {a} vs {b}",
                    cw.precision_name()
                );
            }
        }
    }

    #[test]
    fn window_out_rejects_geometry_without_output() {
        assert_eq!(window_out(224, 7, 2, 3), Some(112));
        assert_eq!(window_out(4, 4, 1, 0), Some(1));
        assert_eq!(window_out(4, 3, 0, 0), None, "zero stride");
        assert_eq!(window_out(4, 0, 1, 0), None, "zero kernel");
        assert_eq!(
            window_out(4, 7, 1, 1),
            None,
            "window wider than padded input"
        );
        assert_eq!(window_out(usize::MAX, 1, 1, 1), None, "overflow");
    }

    /// Small enough for Miri: the packer against `pack_b_into(im2col(..))`
    /// as one block and as two row × two strip blocks.
    #[test]
    fn block_packer_matches_packed_im2col() {
        use crate::kernels::pack::{pack_b_into, packed_b_len};
        for (kernel, stride, pad) in [(1usize, 1usize, 0usize), (1, 2, 0), (3, 1, 1), (3, 2, 2)] {
            let p = Conv2dParams {
                in_c: 2,
                out_c: 1,
                kernel,
                stride,
                pad,
            };
            let (h, w) = (5usize, 2 * NR + 3);
            let (oh, ow) = p.out_hw(h, w);
            let (krows, cols) = (p.krows(), oh * ow);
            let img: Vec<f32> = (0..p.in_c * h * w).map(|v| v as f32 + 1.0).collect();
            let mut col = vec![0.0f32; krows * cols];
            im2col(&img, h, w, &p, &mut col);
            let mut full = vec![f32::NAN; packed_b_len(krows, cols)];
            pack_b_into(&col, krows, cols, &mut full);
            let strips = b_strips(cols);

            let mut whole = vec![f32::NAN; full.len()];
            pack_conv_block_into(&img, h, w, &p, 0, krows, 0, strips, &mut whole);
            assert_eq!(whole, full, "k{kernel} s{stride} p{pad} whole");

            let (kc0, js0) = (krows.div_ceil(2), strips.div_ceil(2));
            for (pc, kc) in [(0, kc0), (kc0, krows - kc0)] {
                for (jcb, jc_end) in [(0, js0), (js0, strips)] {
                    if kc == 0 || jcb == jc_end {
                        continue;
                    }
                    let mut blk = vec![f32::NAN; (jc_end - jcb) * kc * NR];
                    pack_conv_block_into(&img, h, w, &p, pc, kc, jcb, jc_end, &mut blk);
                    for js in jcb..jc_end {
                        assert_eq!(
                            blk[(js - jcb) * kc * NR..][..kc * NR],
                            full[js * krows * NR + pc * NR..][..kc * NR],
                            "k{kernel} s{stride} p{pad} rows {pc}+{kc} strip {js}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn epilogue_adds_the_residual_then_clamps() {
        let p = Conv2dParams {
            in_c: 2,
            out_c: 3,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let input = Tensor::seeded_uniform([2, 2, 4, 5], 51, -1.0, 1.0);
        let weight = Tensor::seeded_uniform([3, 2, 3, 3], 52, -1.0, 1.0);
        let bias = [0.25f32, -0.5, 0.0];
        let residual = Tensor::seeded_uniform([2, 3, 4, 5], 53, -2.0, 2.0);
        let mut expect = im2col_conv(input.data(), 2, 4, 5, weight.data(), &bias, &p);
        for (e, r) in expect.iter_mut().zip(residual.data()) {
            *e = (*e + r).max(0.0);
        }
        let packed = PackedA::pack(weight.data(), 3, 18);
        let mut out = vec![f32::NAN; expect.len()];
        conv2d_prepacked_into(
            input.data(),
            2,
            4,
            5,
            &packed,
            &bias,
            &p,
            ConvEpilogue {
                residual: Some(residual.data()),
                relu: true,
            },
            &mut out,
            &mut GemmScratch::new(),
        );
        for (a, b) in out.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn flops_counts_macs_twice() {
        let p = Conv2dParams {
            in_c: 1,
            out_c: 1,
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        // 1 output element, 1 MAC -> 2 FLOPs, over a 1x1 image.
        assert_eq!(p.flops(1, 1), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn im2col_gemm_matches_direct(
            in_c in 1usize..4,
            out_c in 1usize..4,
            kernel in 1usize..4,
            stride in 1usize..3,
            pad in 0usize..2,
            hw in 3usize..9,
            seed in any::<u64>(),
        ) {
            prop_assume!(hw + 2 * pad >= kernel);
            let p = Conv2dParams { in_c, out_c, kernel, stride, pad };
            let input = Tensor::seeded_uniform([1, in_c, hw, hw], seed, -1.0, 1.0);
            let weight = Tensor::seeded_uniform([out_c, in_c, kernel, kernel], seed ^ 1, -1.0, 1.0);
                let fast = im2col_conv(input.data(), 1, hw, hw, weight.data(), &[], &p);
            let slow = direct_conv(input.data(), 1, hw, hw, weight.data(), &[], &p);
            prop_assert_eq!(fast.len(), slow.len());
            for (a, b) in fast.iter().zip(&slow) {
                prop_assert!((a - b).abs() < 1e-3, "{} vs {}", a, b);
            }
        }
    }
}
