//! Owning buffers for the blocked GEMM: pre-packed weight operands and
//! reusable packing scratch.
//!
//! The kernels in [`crate::kernels`] are allocation-free (enforced by the
//! repo's `hot-path-alloc` lint rule); every buffer they pack into comes
//! from here. Two lifetimes exist:
//!
//! * **Weights** are packed once — at executor plan-compile time — into
//!   [`PackedA`] (convolution weights, the left GEMM operand) or
//!   [`PackedB`] (dense weights, the right operand). Steady-state inference
//!   performs zero weight packing.
//! * **Activations** change per call and are packed into a [`GemmScratch`]
//!   owned by the caller (the executors keep one in their arena), which
//!   reuses its buffers across calls.
//!
//! Buffers are `Arc<Vec<f32>>` so the worker pool ([`crate::par`]) can
//! share them with its threads without copying; between calls the `Arc` is
//! unique again and `Arc::make_mut` reuses the existing allocation.

use std::cell::RefCell;

use crayfish_sync::Arc;

use crate::kernels::microkernel::padded_qk;
use crate::kernels::pack::{
    pack_a16_into, pack_a_into, pack_b16_into, pack_b_into, packed_a_len, packed_b_len,
    quant_a_len, quant_b_len, quantize_a_into, quantize_b_into,
};

/// A left-hand GEMM operand (`m×k`) packed once into `MR`-row strips.
/// Executor plans store convolution weights in this form.
#[derive(Debug, Clone, Default)]
pub struct PackedA {
    data: Arc<Vec<f32>>,
    m: usize,
    k: usize,
}

impl PackedA {
    /// Pack a row-major `m×k` matrix.
    pub fn pack(a: &[f32], m: usize, k: usize) -> PackedA {
        let mut data = vec![0.0f32; packed_a_len(m, k)];
        pack_a_into(a, m, k, &mut data);
        PackedA {
            data: Arc::new(data),
            m,
            k,
        }
    }

    /// Rows of the original matrix.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Columns of the original matrix (the GEMM depth).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The packed panels.
    pub(crate) fn data(&self) -> &Arc<Vec<f32>> {
        &self.data
    }

    /// Scale one original row by `s` in place (rows are interleaved inside
    /// strips, stride `MR`). This is how conv+batch-norm folding rescales
    /// already-packed convolution weights per output channel.
    pub fn scale_row(&mut self, row: usize, s: f32) {
        use crate::kernels::microkernel::MR;
        assert!(row < self.m, "scale_row: row {row} of {}", self.m);
        let k = self.k;
        let data = Arc::make_mut(&mut self.data);
        let strip = &mut data[(row / MR) * k * MR..(row / MR + 1) * k * MR];
        let lane = row % MR;
        for p in 0..k {
            strip[p * MR + lane] *= s;
        }
    }

    /// Unpack back to a row-major `m×k` matrix (test/debug aid).
    pub fn unpack(&self) -> Vec<f32> {
        use crate::kernels::microkernel::MR;
        let mut out = vec![0.0f32; self.m * self.k];
        for row in 0..self.m {
            let strip = &self.data[(row / MR) * self.k * MR..];
            for p in 0..self.k {
                out[row * self.k + p] = strip[p * MR + row % MR];
            }
        }
        out
    }
}

/// A right-hand GEMM operand (`k×n`) packed once into `NR`-column strips.
/// Executor plans store dense-layer weights in this form.
#[derive(Debug, Clone, Default)]
pub struct PackedB {
    data: Arc<Vec<f32>>,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Pack a row-major `k×n` matrix.
    pub fn pack(b: &[f32], k: usize, n: usize) -> PackedB {
        let mut data = vec![0.0f32; packed_b_len(k, n)];
        pack_b_into(b, k, n, &mut data);
        PackedB {
            data: Arc::new(data),
            k,
            n,
        }
    }

    /// Rows of the original matrix (the GEMM depth).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the original matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The packed panels.
    pub(crate) fn data(&self) -> &Arc<Vec<f32>> {
        &self.data
    }

    /// Unpack back to a row-major `k×n` matrix (used when re-quantizing an
    /// already-packed — possibly BN-folded — weight at plan-compile time,
    /// and as a test/debug aid).
    pub fn unpack(&self) -> Vec<f32> {
        use crate::kernels::microkernel::NR;
        let mut out = vec![0.0f32; self.k * self.n];
        for s in 0..self.n.div_ceil(NR) {
            let cols = NR.min(self.n - s * NR);
            for p in 0..self.k {
                let src = &self.data[s * self.k * NR + p * NR..][..cols];
                out[p * self.n + s * NR..p * self.n + s * NR + cols].copy_from_slice(src);
            }
        }
        out
    }
}

/// An `m×k` left GEMM operand quantized to per-channel symmetric int8 at
/// plan-compile time (convolution weights, one scale per output channel).
/// Values are int8-range but stored as `i16` — see
/// [`crate::kernels::quant`] for why — in the full-K row layout the int8
/// microkernel consumes.
#[derive(Debug, Clone, Default)]
pub struct QuantizedA {
    data: Arc<Vec<i16>>,
    scales: Arc<Vec<f32>>,
    m: usize,
    k: usize,
}

impl QuantizedA {
    /// Quantize a row-major `m×k` matrix, one scale per row.
    pub fn from_f32(a: &[f32], m: usize, k: usize) -> QuantizedA {
        let mut data = vec![0i16; quant_a_len(m, k)];
        let mut scales = vec![0.0f32; m];
        quantize_a_into(a, m, k, &mut data, &mut scales);
        QuantizedA {
            data: Arc::new(data),
            scales: Arc::new(scales),
            m,
            k,
        }
    }

    /// Rows of the original matrix.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Columns of the original matrix (the GEMM depth).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The K-padded row stride of the panel.
    pub fn kp(&self) -> usize {
        padded_qk(self.k)
    }

    /// The quantized panel.
    pub(crate) fn data(&self) -> &[i16] {
        &self.data
    }

    /// Per-row scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Dequantize back to a row-major `m×k` matrix (test/calibration aid).
    pub fn dequantize(&self) -> Vec<f32> {
        let kp = self.kp();
        let mut out = vec![0.0f32; self.m * self.k];
        for r in 0..self.m {
            let s = self.scales[r];
            for p in 0..self.k {
                out[r * self.k + p] = self.data[r * kp + p] as f32 * s;
            }
        }
        out
    }
}

/// A `k×n` right GEMM operand quantized to per-channel symmetric int8 at
/// plan-compile time (dense weights, one scale per output feature), stored
/// column-major with K padding (see [`QuantizedA`]).
#[derive(Debug, Clone, Default)]
pub struct QuantizedB {
    data: Arc<Vec<i16>>,
    scales: Arc<Vec<f32>>,
    k: usize,
    n: usize,
}

impl QuantizedB {
    /// Quantize a row-major `k×n` matrix, one scale per column.
    pub fn from_f32(b: &[f32], k: usize, n: usize) -> QuantizedB {
        let mut data = vec![0i16; quant_b_len(k, n)];
        let mut scales = vec![0.0f32; n];
        quantize_b_into(b, k, n, &mut data, &mut scales);
        QuantizedB {
            data: Arc::new(data),
            scales: Arc::new(scales),
            k,
            n,
        }
    }

    /// Rows of the original matrix (the GEMM depth).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the original matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The K-padded column stride of the panel.
    pub fn kp(&self) -> usize {
        padded_qk(self.k)
    }

    /// The quantized panel.
    pub(crate) fn data(&self) -> &[i16] {
        &self.data
    }

    /// Per-column scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Dequantize back to a row-major `k×n` matrix (test/calibration aid).
    pub fn dequantize(&self) -> Vec<f32> {
        let kp = self.kp();
        let mut out = vec![0.0f32; self.k * self.n];
        for j in 0..self.n {
            let s = self.scales[j];
            for p in 0..self.k {
                out[p * self.n + j] = self.data[j * kp + p] as f32 * s;
            }
        }
        out
    }
}

/// [`PackedA`] with f16 storage: identical strip geometry, half the bytes.
/// Expanded back to f32 into the caller's scratch before the (unchanged)
/// f32 microkernel consumes it.
#[derive(Debug, Clone, Default)]
pub struct PackedA16 {
    data: Arc<Vec<u16>>,
    m: usize,
    k: usize,
}

impl PackedA16 {
    /// Pack a row-major `m×k` matrix as f16 bits.
    pub fn pack(a: &[f32], m: usize, k: usize) -> PackedA16 {
        let mut data = vec![0u16; packed_a_len(m, k)];
        pack_a16_into(a, m, k, &mut data);
        PackedA16 {
            data: Arc::new(data),
            m,
            k,
        }
    }

    /// Rows of the original matrix.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Columns of the original matrix (the GEMM depth).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The packed f16 panels.
    pub(crate) fn data(&self) -> &[u16] {
        &self.data
    }
}

/// [`PackedB`] with f16 storage (see [`PackedA16`]).
#[derive(Debug, Clone, Default)]
pub struct PackedB16 {
    data: Arc<Vec<u16>>,
    k: usize,
    n: usize,
}

impl PackedB16 {
    /// Pack a row-major `k×n` matrix as f16 bits.
    pub fn pack(b: &[f32], k: usize, n: usize) -> PackedB16 {
        let mut data = vec![0u16; packed_b_len(k, n)];
        pack_b16_into(b, k, n, &mut data);
        PackedB16 {
            data: Arc::new(data),
            k,
            n,
        }
    }

    /// Rows of the original matrix (the GEMM depth).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the original matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The packed f16 panels.
    pub(crate) fn data(&self) -> &[u16] {
        &self.data
    }
}

/// A convolution weight operand at one of the supported precisions — the
/// payload of the precision-dispatched conv entry point
/// ([`crate::kernels::conv::conv2d_dispatch_into`]). Executor plans store
/// one per conv step.
#[derive(Debug, Clone)]
pub enum ConvWeights {
    /// Full precision: the packed-panel f32 layout.
    F32(PackedA),
    /// Per-output-channel symmetric int8.
    Int8(QuantizedA),
    /// f16 storage, f32 accumulate.
    F16(PackedA16),
}

impl ConvWeights {
    /// Output channels (GEMM rows).
    pub fn out_c(&self) -> usize {
        match self {
            ConvWeights::F32(w) => w.m(),
            ConvWeights::Int8(w) => w.m(),
            ConvWeights::F16(w) => w.m(),
        }
    }

    /// GEMM depth (`in_c · k · k`).
    pub fn krows(&self) -> usize {
        match self {
            ConvWeights::F32(w) => w.k(),
            ConvWeights::Int8(w) => w.k(),
            ConvWeights::F16(w) => w.k(),
        }
    }

    /// Short label for reports ("f32" / "int8" / "f16").
    pub fn precision_name(&self) -> &'static str {
        match self {
            ConvWeights::F32(_) => "f32",
            ConvWeights::Int8(_) => "int8",
            ConvWeights::F16(_) => "f16",
        }
    }
}

/// A dense-layer weight operand at one of the supported precisions — the
/// payload of the precision-dispatched dense entry point
/// ([`crate::kernels::gemm::dense_dispatch_into`]).
#[derive(Debug, Clone)]
pub enum DenseWeights {
    /// Full precision: the packed-panel f32 layout.
    F32(PackedB),
    /// Per-output-feature symmetric int8.
    Int8(QuantizedB),
    /// f16 storage, f32 accumulate.
    F16(PackedB16),
}

impl DenseWeights {
    /// Input features (GEMM depth).
    pub fn inf(&self) -> usize {
        match self {
            DenseWeights::F32(w) => w.k(),
            DenseWeights::Int8(w) => w.k(),
            DenseWeights::F16(w) => w.k(),
        }
    }

    /// Output features (GEMM columns).
    pub fn outf(&self) -> usize {
        match self {
            DenseWeights::F32(w) => w.n(),
            DenseWeights::Int8(w) => w.n(),
            DenseWeights::F16(w) => w.n(),
        }
    }

    /// Short label for reports ("f32" / "int8" / "f16").
    pub fn precision_name(&self) -> &'static str {
        match self {
            DenseWeights::F32(_) => "f32",
            DenseWeights::Int8(_) => "int8",
            DenseWeights::F16(_) => "f16",
        }
    }
}

/// Reusable packing scratch for the per-call GEMM operands (activations,
/// convolution `B` blocks). Holds its buffers across calls so steady-state
/// inference does not allocate.
#[derive(Debug, Default)]
pub struct GemmScratch {
    pa: Arc<Vec<f32>>,
    pb: Arc<Vec<f32>>,
    /// Quantized per-call operand (int8 path activations / patches).
    qa: Vec<i16>,
    /// Per-channel activation scales for the int8 path.
    qs: Vec<f32>,
    /// The `im2col` matrix of the int8 convolution — the one arm that still
    /// materialises it (it quantizes whole patches with a per-tensor scale).
    col: Vec<f32>,
}

/// `v[..len]`, growing `v` first when it is shorter. The buffers only ever
/// grow: a call that needs less leaves the tail alone, so alternating
/// between layer sizes does not re-zero the difference each time.
fn grown(v: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if v.len() < len {
        v.resize(len, 0.0);
    }
    &mut v[..len]
}

impl GemmScratch {
    pub fn new() -> GemmScratch {
        GemmScratch::default()
    }

    /// Borrow the `A`-side buffer at exactly `len` elements, reusing the
    /// allocation when capacity suffices. Between GEMM calls the `Arc` is
    /// unique, so `make_mut` never clones on the steady-state path.
    pub(crate) fn pa_mut(&mut self, len: usize) -> &mut [f32] {
        grown(Arc::make_mut(&mut self.pa), len)
    }

    /// Borrow the `B`-side buffer at exactly `len` elements (see
    /// [`GemmScratch::pa_mut`]).
    pub(crate) fn pb_mut(&mut self, len: usize) -> &mut [f32] {
        grown(Arc::make_mut(&mut self.pb), len)
    }

    /// The `A`-side buffer as last filled, together with the `B`-side
    /// buffer at `pb_len` elements — one method so the convolution driver
    /// can read expanded f16 weights while it packs `B` blocks.
    pub(crate) fn pa_and_pb_mut(&mut self, pb_len: usize) -> (&[f32], &mut [f32]) {
        (&self.pa[..], grown(Arc::make_mut(&mut self.pb), pb_len))
    }

    /// Take the int8 convolution's `im2col` buffer out (hand it back with
    /// [`GemmScratch::put_col`]); moving it sidesteps borrowing the scratch
    /// twice and allocates nothing.
    pub(crate) fn take_col(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.col)
    }

    /// Return the buffer taken by [`GemmScratch::take_col`].
    pub(crate) fn put_col(&mut self, col: Vec<f32>) {
        self.col = col;
    }

    /// Capacity, in floats, of the `B`-side buffer: what the largest
    /// convolution or GEMM so far needed for packed activations.
    pub fn packed_b_capacity(&self) -> usize {
        self.pb.capacity()
    }

    pub(crate) fn pa_arc(&self) -> &Arc<Vec<f32>> {
        &self.pa
    }

    pub(crate) fn pb_arc(&self) -> &Arc<Vec<f32>> {
        &self.pb
    }

    /// Borrow the quantized-operand buffer and its per-channel scale buffer
    /// together at exactly the requested lengths (one method so both halves
    /// can be mutably live at once). Reuses the allocations across calls.
    pub(crate) fn qa_qs_mut(&mut self, qa_len: usize, qs_len: usize) -> (&mut [i16], &mut [f32]) {
        self.qa.resize(qa_len, 0);
        self.qs.resize(qs_len, 0.0);
        (&mut self.qa[..], &mut self.qs[..])
    }

    /// The quantized per-call operand filled by [`GemmScratch::qa_qs_mut`].
    pub(crate) fn qa(&self) -> &[i16] {
        &self.qa
    }

    /// The per-channel activation scales filled by
    /// [`GemmScratch::qa_qs_mut`].
    pub(crate) fn qs(&self) -> &[f32] {
        &self.qs
    }

    /// `(ptr, capacity)` of each internal buffer — lets arena-reuse tests
    /// assert that steady-state calls touch no allocator.
    pub fn fingerprint(&self) -> [(usize, usize); 5] {
        [
            (self.pa.as_ptr() as usize, self.pa.capacity()),
            (self.pb.as_ptr() as usize, self.pb.capacity()),
            (self.qa.as_ptr() as usize, self.qa.capacity()),
            (self.qs.as_ptr() as usize, self.qs.capacity()),
            (self.col.as_ptr() as usize, self.col.capacity()),
        ]
    }
}

thread_local! {
    static TLS_SCRATCH: RefCell<GemmScratch> = RefCell::new(GemmScratch::new());
}

/// Run `f` with this thread's shared [`GemmScratch`] — the compatibility
/// path for callers of the plain `gemm()` signature, which has nowhere to
/// thread a scratch through. Hot paths own their scratch instead.
pub fn with_tls_scratch<R>(f: impl FnOnce(&mut GemmScratch) -> R) -> R {
    TLS_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::microkernel::MR;

    #[test]
    fn packed_a_roundtrips_and_scales_rows() {
        let m = MR + 2;
        let k = 5;
        let a: Vec<f32> = (0..m * k).map(|v| v as f32 + 1.0).collect();
        let mut pa = PackedA::pack(&a, m, k);
        assert_eq!(pa.unpack(), a);
        pa.scale_row(MR + 1, 2.0);
        let got = pa.unpack();
        for (i, (&x, &orig)) in got.iter().zip(&a).enumerate() {
            let row = i / k;
            let expect = if row == MR + 1 { orig * 2.0 } else { orig };
            assert_eq!(x, expect, "element {i}");
        }
    }

    #[test]
    fn scratch_reuses_its_allocation() {
        let mut s = GemmScratch::new();
        s.pa_mut(1024).fill(1.0);
        s.qa_qs_mut(2048, 64);
        let fp = s.fingerprint();
        s.pa_mut(512).fill(2.0);
        s.pa_mut(1024);
        s.qa_qs_mut(1024, 32);
        s.qa_qs_mut(2048, 64);
        assert_eq!(s.fingerprint(), fp, "scratch reallocated on shrink/grow");
    }

    #[test]
    fn packed_b_unpacks_to_original() {
        use crate::kernels::microkernel::NR;
        let k = 5;
        let n = NR + 3;
        let b: Vec<f32> = (0..k * n).map(|v| v as f32 * 0.5 - 7.0).collect();
        let pb = PackedB::pack(&b, k, n);
        assert_eq!(pb.unpack(), b);
    }

    #[test]
    fn quantized_a_dequantizes_within_half_step() {
        let m = 3;
        let k = 7;
        let a: Vec<f32> = (0..m * k).map(|v| (v as f32 - 10.0) * 0.37).collect();
        let qa = QuantizedA::from_f32(&a, m, k);
        assert_eq!((qa.m(), qa.k()), (m, k));
        let back = qa.dequantize();
        for r in 0..m {
            let s = qa.scales()[r];
            for p in 0..k {
                let err = (back[r * k + p] - a[r * k + p]).abs();
                assert!(err <= s * 0.5 + 1e-6, "row {r} col {p}: err {err}");
            }
        }
    }

    #[test]
    fn quantized_b_dequantizes_within_half_step() {
        let k = 5;
        let n = 6;
        let b: Vec<f32> = (0..k * n).map(|v| (v as f32 - 14.0) * 0.21).collect();
        let qb = QuantizedB::from_f32(&b, k, n);
        assert_eq!((qb.k(), qb.n()), (k, n));
        let back = qb.dequantize();
        for j in 0..n {
            let s = qb.scales()[j];
            for p in 0..k {
                let err = (back[p * n + j] - b[p * n + j]).abs();
                assert!(err <= s * 0.5 + 1e-6, "row {p} col {j}: err {err}");
            }
        }
    }

    #[test]
    fn packed16_preserves_f16_exact_values() {
        let m = MR + 1;
        let k = 4;
        // Small integers are exact in f16, so the half-width panels must
        // reproduce the f32 packing bit-for-bit after expansion.
        let a: Vec<f32> = (0..m * k).map(|v| v as f32 - 8.0).collect();
        let pa = PackedA::pack(&a, m, k);
        let pa16 = PackedA16::pack(&a, m, k);
        assert_eq!((pa16.m(), pa16.k()), (m, k));
        let expanded: Vec<f32> = pa16
            .data()
            .iter()
            .map(|&b| crate::kernels::quant::f16_bits_to_f32(b))
            .collect();
        assert_eq!(expanded[..], pa.data()[..]);

        let pb = PackedB::pack(&a, m, k);
        let pb16 = PackedB16::pack(&a, m, k);
        assert_eq!((pb16.k(), pb16.n()), (m, k));
        let expanded: Vec<f32> = pb16
            .data()
            .iter()
            .map(|&b| crate::kernels::quant::f16_bits_to_f32(b))
            .collect();
        assert_eq!(expanded[..], pb.data()[..]);
    }
}
