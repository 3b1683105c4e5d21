//! The direct (one-kernel-per-node) graph executor.

use std::time::Duration;

use crayfish_sim::Cost;
use crayfish_tensor::kernels::quant::amax;
use crayfish_tensor::kernels::{
    activation, add_into,
    conv::{conv2d_direct_into, conv2d_dispatch_into, ConvEpilogue},
    gemm::dense_dispatch_into,
    norm, pool,
};
use crayfish_tensor::{
    ConvWeights, DenseWeights, GemmScratch, NnGraph, Op, PackedA, PackedA16, PackedB, PackedB16,
    QuantizedA, QuantizedB, Shape, Tensor,
};

use crate::error::RuntimeError;
use crate::exec::check_batched_input;
use crate::precision::{LayerReport, Precision, PrecisionReport, QuantConfig};
use crate::Result;

/// Simulated foreign-function boundary configuration for DL4J-style
/// execution: every op crossing pays a real marshalling copy
/// (`f32 → f64 → f32` of its input activation, as a JVM binding converting
/// to/from `INDArray` storage does) plus the calibrated per-call cost.
#[derive(Debug, Clone, Copy)]
pub struct JniBoundary {
    /// Per-call fixed + per-byte cost (see `crayfish_sim::calibration`).
    pub cost: Cost,
}

/// A node's weight operand, packed once at executor-build time so
/// steady-state inference performs zero weight packing (even the unfused
/// runtimes' underlying BLAS pre-packs weights at model load).
#[derive(Debug)]
enum NodePack {
    None,
    /// Dense weight as the GEMM's right operand, at the plan's precision.
    Dense(DenseWeights),
    /// Conv weight (`[out_c, in_c*k*k]`) as the GEMM's left operand, at the
    /// plan's precision.
    Conv(ConvWeights),
}

/// A candidate reduced-precision weight plus its calibration output,
/// carried between the compute and the adopt/reject decision in
/// [`UnfusedExec::quantize_plan`].
enum CandPack {
    Dense(DenseWeights, Vec<f32>),
    Conv(ConvWeights, Vec<f32>),
}

/// Executes the graph node by node with no cross-op optimisation.
///
/// With `reuse_buffers = true` (SavedModel-style) per-node output buffers
/// persist across calls; with `false` (DL4J-style) every call allocates
/// fresh buffers, as a binding materialising new host arrays would.
#[derive(Debug)]
pub struct UnfusedExec {
    graph: NnGraph,
    input_shape: Shape,
    reuse_buffers: bool,
    /// Use the textbook sliding-window convolution instead of the
    /// GEMM-backed one — the "eager kernels without off-the-shelf CPU
    /// optimisations" the paper blames for TorchServe's deficit (§5.1.1).
    naive_conv: bool,
    jni: Option<JniBoundary>,
    /// Per-node activation buffers (kept across calls when reusing).
    buffers: Vec<Vec<f32>>,
    /// Cached shape inference for the last-seen batch size.
    shapes: Option<(usize, Vec<Shape>)>,
    /// Per-node pre-packed weights (indexed by node id).
    packs: Vec<NodePack>,
    gemm_scratch: GemmScratch,
    report: PrecisionReport,
}

impl UnfusedExec {
    /// Build an executor, validating the graph.
    pub fn new(graph: NnGraph, reuse_buffers: bool, jni: Option<JniBoundary>) -> Result<Self> {
        graph.infer_shapes(1)?;
        let input_shape = graph.input_shape()?;
        let n = graph.nodes().len();
        let packs =
            graph
                .nodes()
                .iter()
                .map(|node| match &node.op {
                    Op::Dense { w, .. } => NodePack::Dense(DenseWeights::F32(PackedB::pack(
                        w.data(),
                        w.shape().dim(0),
                        w.shape().dim(1),
                    ))),
                    Op::Conv2d { w, params, .. } => NodePack::Conv(ConvWeights::F32(
                        PackedA::pack(w.data(), params.out_c, params.krows()),
                    )),
                    _ => NodePack::None,
                })
                .collect();
        Ok(UnfusedExec {
            graph,
            input_shape,
            reuse_buffers,
            naive_conv: false,
            jni,
            buffers: (0..n).map(|_| Vec::new()).collect(),
            shapes: None,
            packs,
            gemm_scratch: GemmScratch::new(),
            report: PrecisionReport::default(),
        })
    }

    /// Build an executor whose conv/dense weights are compiled at
    /// `cfg.precision`, with the same per-layer calibration gate as
    /// [`crate::exec::FusedExec::with_precision`]. Unlike the fused plan
    /// there is no BN folding here (batch-norm stays its own node), so the
    /// raw node weights are what gets quantized.
    pub fn with_precision(
        graph: NnGraph,
        reuse_buffers: bool,
        jni: Option<JniBoundary>,
        cfg: QuantConfig,
    ) -> Result<Self> {
        let mut exec = Self::new(graph, reuse_buffers, jni)?;
        if cfg.precision != Precision::F32 {
            exec.report = exec.quantize_plan(&cfg)?;
        }
        Ok(exec)
    }

    /// Per-layer accuracy accounting from plan compilation (empty for f32
    /// plans).
    pub fn precision_report(&self) -> &PrecisionReport {
        &self.report
    }

    /// Node-level quantization post-pass: run a seeded calibration batch at
    /// f32, then re-compute each conv/dense node with candidate quantized
    /// weights against its exact f32 inputs, adopting the candidate only
    /// when the error passes the gate. The naive-conv path ignores packed
    /// weights entirely, so quantization only affects the GEMM-backed path.
    fn quantize_plan(&mut self, cfg: &QuantConfig) -> Result<PrecisionReport> {
        let mut report = PrecisionReport {
            requested: cfg.precision,
            layers: Vec::new(),
        };
        let batch = cfg.calib_batch.max(1);
        let mut dims = vec![batch];
        dims.extend_from_slice(self.input_shape.dims());
        let calib = Tensor::seeded_uniform(Shape::new(dims), cfg.calib_seed, -1.0, 1.0);
        // Fills self.buffers with every node's f32 output (buffers are only
        // cleared at the *start* of a non-reusing run).
        self.run(&calib)?;
        let shapes = &self.shapes.as_ref().expect("shapes cached by run").1;

        for id in 0..self.graph.nodes().len() {
            let node = &self.graph.nodes()[id];
            let oracle = &self.buffers[id];
            let (kind, replacement) = match &node.op {
                Op::Dense { w, b } => {
                    let (inf, outf) = (w.shape().dim(0), w.shape().dim(1));
                    let cand = match cfg.precision {
                        Precision::Int8 => {
                            DenseWeights::Int8(QuantizedB::from_f32(w.data(), inf, outf))
                        }
                        Precision::F16 => DenseWeights::F16(PackedB16::pack(w.data(), inf, outf)),
                        Precision::F32 => unreachable!("quantize_plan is gated on != F32"),
                    };
                    let mut tmp = vec![0.0f32; batch * outf];
                    dense_dispatch_into(
                        &self.buffers[node.inputs[0]],
                        &cand,
                        b.data(),
                        batch,
                        &mut tmp,
                        &mut self.gemm_scratch,
                    );
                    ("dense", CandPack::Dense(cand, tmp))
                }
                Op::Conv2d { w, b, params } => {
                    let krows = params.krows();
                    let cand = match cfg.precision {
                        Precision::Int8 => {
                            ConvWeights::Int8(QuantizedA::from_f32(w.data(), params.out_c, krows))
                        }
                        Precision::F16 => {
                            ConvWeights::F16(PackedA16::pack(w.data(), params.out_c, krows))
                        }
                        Precision::F32 => unreachable!("quantize_plan is gated on != F32"),
                    };
                    let s = &shapes[node.inputs[0]];
                    let bias: &[f32] = b.as_ref().map(|t| t.data()).unwrap_or(&[]);
                    let mut tmp = vec![0.0f32; shapes[id].numel()];
                    conv2d_dispatch_into(
                        &self.buffers[node.inputs[0]],
                        batch,
                        s.dim(2),
                        s.dim(3),
                        &cand,
                        bias,
                        params,
                        ConvEpilogue::default(),
                        &mut tmp,
                        &mut self.gemm_scratch,
                    );
                    ("conv", CandPack::Conv(cand, tmp))
                }
                _ => continue,
            };

            let candidate = match &replacement {
                CandPack::Dense(_, tmp) | CandPack::Conv(_, tmp) => tmp,
            };
            let max_abs_err = candidate
                .iter()
                .zip(oracle)
                .fold(0.0f32, |m, (&c, &o)| m.max((c - o).abs()));
            let rel_err = max_abs_err / amax(oracle).max(1e-12);
            let adopt = rel_err <= cfg.max_rel_err;
            if adopt {
                self.packs[id] = match replacement {
                    CandPack::Dense(cand, _) => NodePack::Dense(cand),
                    CandPack::Conv(cand, _) => NodePack::Conv(cand),
                };
            }
            report.layers.push(LayerReport {
                name: node.name.clone(),
                kind,
                requested: cfg.precision.name(),
                chosen: if adopt { cfg.precision.name() } else { "f32" },
                rel_err,
                max_abs_err,
            });
        }
        Ok(report)
    }

    /// `(ptr, capacity)` of every arena buffer and scratch — lets tests
    /// assert that steady-state inference reuses the arena instead of
    /// reallocating (only meaningful with `reuse_buffers = true`).
    #[doc(hidden)]
    pub fn arena_fingerprint(&self) -> Vec<(usize, usize)> {
        let mut fp: Vec<(usize, usize)> = self
            .buffers
            .iter()
            .map(|b| (b.as_ptr() as usize, b.capacity()))
            .collect();
        fp.extend(self.gemm_scratch.fingerprint());
        fp
    }

    /// The wrapped graph.
    pub fn graph(&self) -> &NnGraph {
        &self.graph
    }

    /// Switch convolutions to the direct (unoptimised) kernel.
    pub fn with_naive_conv(mut self) -> Self {
        self.naive_conv = true;
        self
    }

    /// Run a forward pass over a `[batch, ..input]` tensor.
    pub fn run(&mut self, input: &Tensor) -> Result<Tensor> {
        let batch = check_batched_input(input, &self.input_shape)?;
        if self.shapes.as_ref().map(|(b, _)| *b) != Some(batch) {
            self.shapes = Some((batch, self.graph.infer_shapes(batch)?));
        }
        let shapes = &self.shapes.as_ref().expect("shapes cached").1;
        if !self.reuse_buffers {
            // A fresh binding call: drop all retained activations.
            for b in &mut self.buffers {
                *b = Vec::new();
            }
        }

        for node in self.graph.nodes() {
            // Split borrows: the output buffer vs. the input buffers.
            let (before, rest) = self.buffers.split_at_mut(node.id);
            let out = &mut rest[0];
            let in_buf = |i: usize| -> &[f32] { &before[node.inputs[i]] };
            let in_shape = |i: usize| -> &Shape { &shapes[node.inputs[i]] };
            let out_numel = shapes[node.id].numel();

            if let Some(jni) = self.jni {
                // Real marshalling work for the op's inputs: the JVM binding
                // copies the array into foreign storage and back.
                let mut marshalled_bytes = 0usize;
                for i in 0..node.inputs.len() {
                    let src = in_buf(i);
                    let as_f64: Vec<f64> = src.iter().map(|&v| v as f64).collect();
                    let back: Vec<f32> = as_f64.iter().map(|&v| v as f32).collect();
                    // Keep the optimiser honest.
                    debug_assert_eq!(back.len(), src.len());
                    std::hint::black_box(&back);
                    marshalled_bytes += src.len() * 4;
                }
                if !matches!(node.op, Op::Input { .. }) {
                    // JNI/INDArray work is CPU-bound: it contends with real
                    // compute rather than overlapping with it.
                    jni.cost.spend_spinning(marshalled_bytes);
                }
            }

            match &node.op {
                Op::Input { .. } => {
                    out.clear();
                    out.extend_from_slice(input.data());
                }
                Op::Dense { w, b } => {
                    let outf = w.shape().dim(1);
                    out.resize(batch * outf, 0.0);
                    let NodePack::Dense(pw) = &self.packs[node.id] else {
                        unreachable!("dense node packed at build time");
                    };
                    dense_dispatch_into(
                        in_buf(0),
                        pw,
                        b.data(),
                        batch,
                        out,
                        &mut self.gemm_scratch,
                    );
                }
                Op::Conv2d { w, b, params } => {
                    let s = in_shape(0);
                    let bias: &[f32] = b.as_ref().map(|t| t.data()).unwrap_or(&[]);
                    out.resize(out_numel, 0.0);
                    if self.naive_conv {
                        conv2d_direct_into(
                            in_buf(0),
                            batch,
                            s.dim(2),
                            s.dim(3),
                            w.data(),
                            bias,
                            params,
                            out,
                        );
                    } else {
                        let NodePack::Conv(pw) = &self.packs[node.id] else {
                            unreachable!("conv node packed at build time");
                        };
                        // One kernel per node: bias only, the `Add` and the
                        // ReLU behind it stay nodes of their own.
                        conv2d_dispatch_into(
                            in_buf(0),
                            batch,
                            s.dim(2),
                            s.dim(3),
                            pw,
                            bias,
                            params,
                            ConvEpilogue::default(),
                            out,
                            &mut self.gemm_scratch,
                        );
                    }
                }
                Op::BatchNorm { params } => {
                    let s = in_shape(0);
                    out.clear();
                    out.extend_from_slice(in_buf(0));
                    let plane: usize = s.dims()[2..].iter().product();
                    norm::batchnorm_inference(out, batch, s.dim(1), plane, params);
                }
                Op::Relu => {
                    out.clear();
                    out.extend_from_slice(in_buf(0));
                    activation::relu_inplace(out);
                }
                Op::MaxPool { k, s: stride, pad } => {
                    let s = in_shape(0);
                    out.resize(out_numel, 0.0);
                    pool::maxpool2d_into(
                        in_buf(0),
                        batch,
                        s.dim(1),
                        s.dim(2),
                        s.dim(3),
                        *k,
                        *stride,
                        *pad,
                        out,
                    );
                }
                Op::GlobalAvgPool => {
                    let s = in_shape(0);
                    out.resize(out_numel, 0.0);
                    pool::avgpool_global_into(in_buf(0), batch, s.dim(1), s.dim(2), s.dim(3), out);
                }
                Op::Add => {
                    out.resize(out_numel, 0.0);
                    add_into(in_buf(0), in_buf(1), out, false);
                }
                Op::Flatten => {
                    out.clear();
                    out.extend_from_slice(in_buf(0));
                }
                Op::Softmax => {
                    let s = &shapes[node.id];
                    out.clear();
                    out.extend_from_slice(in_buf(0));
                    activation::softmax_rows(out, s.dim(0), s.dim(1));
                }
            }
            debug_assert_eq!(out.len(), out_numel, "node {} output size", node.name);
        }

        let out_id = self.graph.output();
        Tensor::from_vec(shapes[out_id].clone(), self.buffers[out_id].clone())
            .map_err(RuntimeError::from)
    }

    /// Total modelled JNI time for one forward pass of `batch` items —
    /// exposed for tests asserting the boundary is actually charged.
    pub fn modelled_jni_time(&self, batch: usize) -> Result<Duration> {
        let Some(jni) = self.jni else {
            return Ok(Duration::ZERO);
        };
        let shapes = self.graph.infer_shapes(batch)?;
        let mut total = Duration::ZERO;
        for node in self.graph.nodes() {
            if matches!(node.op, Op::Input { .. }) {
                continue;
            }
            let bytes: usize = node.inputs.iter().map(|&i| shapes[i].numel() * 4).sum();
            total += jni.cost.duration(bytes);
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crayfish_models::tiny;

    #[test]
    fn mlp_outputs_are_distributions() {
        let mut exec = UnfusedExec::new(tiny::tiny_mlp(4), true, None).unwrap();
        let input = Tensor::seeded_uniform([3, 8, 8], 9, 0.0, 1.0);
        let out = exec.run(&input).unwrap();
        assert_eq!(out.shape().dims(), &[3, 4]);
        for i in 0..3 {
            let sum: f32 = out.batch_item(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn cnn_runs_and_is_deterministic() {
        let mut exec = UnfusedExec::new(tiny::tiny_cnn(4), true, None).unwrap();
        let input = Tensor::seeded_uniform([2, 3, 8, 8], 1, 0.0, 1.0);
        let a = exec.run(&input).unwrap();
        let b = exec.run(&input).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fresh_buffers_match_reused_buffers() {
        let g = tiny::tiny_cnn(4);
        let mut reuse = UnfusedExec::new(g.clone(), true, None).unwrap();
        let mut fresh = UnfusedExec::new(g, false, None).unwrap();
        let input = Tensor::seeded_uniform([2, 3, 8, 8], 2, 0.0, 1.0);
        // Run the reusing executor twice to dirty its buffers first.
        reuse.run(&input).unwrap();
        let a = reuse.run(&input).unwrap();
        let b = fresh.run(&input).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-6);
    }

    #[test]
    fn varying_batch_sizes_work() {
        let mut exec = UnfusedExec::new(tiny::tiny_mlp(4), true, None).unwrap();
        for batch in [1usize, 5, 2, 8] {
            let input = Tensor::seeded_uniform([batch, 8, 8], batch as u64, 0.0, 1.0);
            let out = exec.run(&input).unwrap();
            assert_eq!(out.shape().dims(), &[batch, 4]);
        }
    }

    #[test]
    fn rejects_bad_input_shape() {
        let mut exec = UnfusedExec::new(tiny::tiny_mlp(4), true, None).unwrap();
        assert!(exec.run(&Tensor::zeros([8, 8])).is_err());
        assert!(exec.run(&Tensor::zeros([2, 8, 9])).is_err());
    }

    #[test]
    fn naive_conv_matches_im2col_numerically() {
        let g = tiny::tiny_cnn(9);
        let mut fast = UnfusedExec::new(g.clone(), true, None).unwrap();
        let mut slow = UnfusedExec::new(g, true, None).unwrap().with_naive_conv();
        let input = Tensor::seeded_uniform([2, 3, 8, 8], 5, -1.0, 1.0);
        let a = fast.run(&input).unwrap();
        let b = slow.run(&input).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-4);
    }

    #[test]
    fn quantized_plans_track_the_f32_plan() {
        let g = tiny::tiny_cnn(7);
        let input = Tensor::seeded_uniform([2, 3, 8, 8], 11, -1.0, 1.0);
        let mut f32_exec = UnfusedExec::new(g.clone(), true, None).unwrap();
        let oracle = f32_exec.run(&input).unwrap();
        for precision in [Precision::Int8, Precision::F16] {
            let cfg = QuantConfig::with_precision(precision);
            let mut exec = UnfusedExec::with_precision(g.clone(), true, None, cfg).unwrap();
            let report = exec.precision_report();
            assert_eq!(report.requested, precision);
            assert!(!report.layers.is_empty(), "conv+dense layers reported");
            let out = exec.run(&input).unwrap();
            assert!(
                oracle.max_abs_diff(&out).unwrap() < 0.05,
                "{} plan drifted",
                precision.name()
            );
        }
    }

    #[test]
    fn zero_threshold_falls_back_to_exact_f32() {
        let g = tiny::tiny_cnn(3);
        let input = Tensor::seeded_uniform([2, 3, 8, 8], 5, -1.0, 1.0);
        let mut f32_exec = UnfusedExec::new(g.clone(), true, None).unwrap();
        let mut cfg = QuantConfig::with_precision(Precision::F16);
        cfg.max_rel_err = 0.0;
        let mut exec = UnfusedExec::with_precision(g, true, None, cfg).unwrap();
        let report = exec.precision_report();
        assert_eq!(report.quantized_count(), 0, "gate rejects every layer");
        assert_eq!(f32_exec.run(&input).unwrap(), exec.run(&input).unwrap());
    }

    #[test]
    fn jni_boundary_charges_time() {
        let cost = Cost::fixed_us(200.0);
        let g = tiny::tiny_mlp(4);
        let mut exec = UnfusedExec::new(g, false, Some(JniBoundary { cost })).unwrap();
        let modelled = exec.modelled_jni_time(1).unwrap();
        // 5 non-input nodes (flatten, fc1, relu1, fc2, softmax) * 200 µs.
        assert!(modelled >= Duration::from_micros(900));
        let input = Tensor::seeded_uniform([1, 8, 8], 1, 0.0, 1.0);
        let sw = crayfish_sim::Stopwatch::start();
        exec.run(&input).unwrap();
        assert!(sw.elapsed() >= modelled, "JNI time not spent");
    }
}
