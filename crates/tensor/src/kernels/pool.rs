//! Pooling kernels.

/// 2-D max pooling over NCHW data with square window `k`, stride `s`, and
/// zero padding `pad` (padded positions are treated as `-inf`, i.e. ignored),
/// into a caller-provided buffer (fully overwritten) — the allocation-free
/// form the executors drive from their arenas. Returns `(oh, ow)`.
///
/// The window's row test is hoisted out of the tap loop, and the interior
/// output columns — those whose every tap lies inside the image row — run
/// one branch-free pass per tap over the whole output row; only the border
/// columns test each tap. Taps are visited in the same `ky`, `kx` order
/// either way, so the result does not depend on which path a column took.
#[allow(clippy::too_many_arguments)] // a BLAS-style kernel signature: dims are positional by convention
pub fn maxpool2d_into(
    input: &[f32],
    batch: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    s: usize,
    pad: usize,
    out: &mut [f32],
) -> (usize, usize) {
    let oh = (h + 2 * pad - k) / s + 1;
    let ow = (w + 2 * pad - k) / s + 1;
    assert_eq!(input.len(), batch * c * h * w, "maxpool2d: input length");
    assert_eq!(out.len(), batch * c * oh * ow, "maxpool2d: out length");
    // Interior columns `[ox_lo, ox_hi)`: `pad <= ox * s` and
    // `ox * s + k <= w + pad`.
    let ox_lo = pad.div_ceil(s).min(ow);
    let ox_hi = (w + pad)
        .checked_sub(k)
        .map_or(ox_lo, |room| (room / s + 1).min(ow).max(ox_lo));
    for (chan, out_chan) in input.chunks_exact(h * w).zip(out.chunks_exact_mut(oh * ow)) {
        for (oy, out_row) in out_chan.chunks_exact_mut(ow).enumerate() {
            // Taps `[ky0, ky1)` land on image rows: `pad <= oy * s + ky < h + pad`.
            let ky0 = pad.saturating_sub(oy * s);
            let ky1 = k.min((h + pad).saturating_sub(oy * s));
            out_row.fill(f32::NEG_INFINITY);
            for ky in ky0..ky1 {
                let row = &chan[(oy * s + ky - pad) * w..][..w];
                for kx in 0..k {
                    let interior = &mut out_row[ox_lo..ox_hi];
                    if !interior.is_empty() {
                        let taps = &row[ox_lo * s + kx - pad..];
                        // The common strides as constants, so the strided
                        // loads vectorise.
                        match s {
                            1 => max_taps::<1>(interior, taps),
                            2 => max_taps::<2>(interior, taps),
                            _ => {
                                for (best, &v) in interior.iter_mut().zip(taps.iter().step_by(s)) {
                                    *best = best.max(v);
                                }
                            }
                        }
                    }
                    for ox in (0..ox_lo).chain(ox_hi..ow) {
                        let ix = ox * s + kx;
                        if ix >= pad && ix - pad < w {
                            out_row[ox] = out_row[ox].max(row[ix - pad]);
                        }
                    }
                }
            }
        }
    }
    (oh, ow)
}

/// `best[i] = max(best[i], taps[i * S])`: one window tap over a run of
/// output columns at a compile-time stride.
#[inline(always)]
fn max_taps<const S: usize>(best: &mut [f32], taps: &[f32]) {
    let Some((last, body)) = best.split_last_mut() else {
        return;
    };
    for (b, t) in body.iter_mut().zip(taps.chunks_exact(S)) {
        *b = b.max(t[0]);
    }
    *last = last.max(taps[body.len() * S]);
}

/// Global average pooling: reduce each channel's spatial plane to its mean,
/// `[batch, c, h, w]` → `[batch, c]`, into a caller-provided buffer (fully
/// overwritten) — the allocation-free form the executors drive from their
/// arenas.
pub fn avgpool_global_into(
    input: &[f32],
    batch: usize,
    c: usize,
    h: usize,
    w: usize,
    out: &mut [f32],
) {
    assert_eq!(
        input.len(),
        batch * c * h * w,
        "avgpool_global: input length"
    );
    assert_eq!(out.len(), batch * c, "avgpool_global: out length");
    let plane = (h * w) as f32;
    for (bc, slot) in out.iter_mut().enumerate() {
        let chan = &input[bc * h * w..(bc + 1) * h * w];
        *slot = chan.iter().sum::<f32>() / plane;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn maxpool(
        input: &[f32],
        batch: usize,
        c: usize,
        h: usize,
        w: usize,
        k: usize,
        s: usize,
        pad: usize,
    ) -> (Vec<f32>, (usize, usize)) {
        let oh = (h + 2 * pad - k) / s + 1;
        let ow = (w + 2 * pad - k) / s + 1;
        let mut out = vec![f32::NAN; batch * c * oh * ow];
        let dims = maxpool2d_into(input, batch, c, h, w, k, s, pad, &mut out);
        (out, dims)
    }

    fn avgpool(input: &[f32], batch: usize, c: usize, h: usize, w: usize) -> Vec<f32> {
        let mut out = vec![f32::NAN; batch * c];
        avgpool_global_into(input, batch, c, h, w, &mut out);
        out
    }

    #[test]
    fn maxpool_2x2_stride2() {
        // One 4x4 channel.
        #[rustfmt::skip]
        let input = vec![
            1.0, 2.0, 5.0, 6.0,
            3.0, 4.0, 7.0, 8.0,
            9.0, 10.0, 13.0, 14.0,
            11.0, 12.0, 15.0, 16.0,
        ];
        let (out, (oh, ow)) = maxpool(&input, 1, 1, 4, 4, 2, 2, 0);
        assert_eq!((oh, ow), (2, 2));
        assert_eq!(out, vec![4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn maxpool_with_padding_ignores_border() {
        // 2x2 input, k=3, s=2, pad=1 -> 1x1 output = max of everything.
        let input = vec![1.0, -2.0, 3.0, 0.5];
        let (out, (oh, ow)) = maxpool(&input, 1, 1, 2, 2, 3, 2, 1);
        assert_eq!((oh, ow), (1, 1));
        assert_eq!(out, vec![3.0]);
    }

    #[test]
    fn maxpool_interior_and_border_columns_agree_with_the_definition() {
        // 3x3 window, stride 2, pad 1 over 5x7: columns 0 and 3 of each
        // output row touch the padding, the middle ones do not.
        let (h, w) = (5usize, 7usize);
        let input: Vec<f32> = (0..h * w).map(|v| ((v * 37) % 41) as f32 - 20.0).collect();
        let (out, (oh, ow)) = maxpool(&input, 1, 1, h, w, 3, 2, 1);
        assert_eq!((oh, ow), (3, 4));
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                for ky in 0..3 {
                    for kx in 0..3 {
                        let (iy, ix) = (oy * 2 + ky, ox * 2 + kx);
                        if iy >= 1 && iy - 1 < h && ix >= 1 && ix - 1 < w {
                            best = best.max(input[(iy - 1) * w + ix - 1]);
                        }
                    }
                }
                assert_eq!(out[oy * ow + ox], best, "({oy},{ox})");
            }
        }
    }

    #[test]
    fn maxpool_resnet_stem_shape() {
        // ResNet50: 112x112, k=3, s=2, p=1 -> 56x56.
        let input = vec![0.0; 64 * 112 * 112];
        let (_, (oh, ow)) = maxpool(&input, 1, 64, 112, 112, 3, 2, 1);
        assert_eq!((oh, ow), (56, 56));
    }

    #[test]
    fn avgpool_global_means_channels() {
        // batch=1, c=2, 2x2 planes
        let input = vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0];
        let out = avgpool(&input, 1, 2, 2, 2);
        assert_eq!(out, vec![2.5, 10.0]);
    }

    #[test]
    fn avgpool_handles_batches() {
        let input = vec![2.0, 4.0, 6.0, 8.0]; // batch=2, c=1, 1x2
        let out = avgpool(&input, 2, 1, 1, 2);
        assert_eq!(out, vec![3.0, 7.0]);
    }
}
