//! The graph-optimised executor (ONNX-Runtime-style).
//!
//! At load time the graph is compiled into a plan:
//!
//! * **Conv + BatchNorm folding** — a batch-norm that solely consumes a
//!   convolution is folded into the convolution's weights and bias, removing
//!   an entire pass over the activation.
//! * **ReLU fusion** — a ReLU that solely consumes a conv/dense/add/bn step
//!   is applied in that step's output loop instead of a separate pass.
//! * **Add folding** — a residual `Add` whose later-scheduled operand is a
//!   convolution nobody else reads (conv3 of an identity block, the
//!   downsample conv of a projection block) becomes that convolution's
//!   residual operand: the other operand is added inside the convolution,
//!   over each column block of the output while it is still in cache, the
//!   ReLU behind the `Add` follows it there, and the `Add` step and its
//!   output buffer disappear. The rule is: both
//!   operands distinct steps, the later one a `Conv` with no fused ReLU and
//!   no residual yet, and the node feeding the `Add` from it has no other
//!   consumer. An `Add` that does not qualify stays a step — one pass,
//!   `relu?(a + b)`. Once a convolution carries a residual or a ReLU,
//!   nothing more is folded into its *weights* (a batch-norm behind it
//!   scales the sum, not the convolution).
//! * **Weight pre-packing** — conv and dense weight matrices are packed
//!   into the blocked GEMM's strip layout once, here, so steady-state
//!   inference performs zero weight packing (conv weights as [`PackedA`],
//!   dense weights as [`PackedB`]; batch-norm folding rescales the packed
//!   panels in place).
//! * **Arena reuse** — per-step output buffers and the GEMM packing
//!   scratch (one `KC × NC` block for a convolution, whatever its size) are
//!   allocated once and reused across calls, so the steady-state hot path
//!   does not touch the allocator.
//!
//! These are the real optimisations ONNX Runtime's graph optimiser performs,
//! and they are why the paper measures ONNX as the fastest embedded option.

use crayfish_tensor::kernels::conv::{conv2d_dispatch_into, Conv2dParams, ConvEpilogue};
use crayfish_tensor::kernels::gemm::dense_dispatch_into;
use crayfish_tensor::kernels::quant::amax;
use crayfish_tensor::kernels::{activation, add_into, pool};
use crayfish_tensor::{
    ConvWeights, DenseWeights, GemmScratch, NnGraph, Op, PackedA, PackedA16, PackedB, PackedB16,
    QuantizedA, QuantizedB, Shape, Tensor,
};

use crate::error::RuntimeError;
use crate::exec::check_batched_input;
use crate::precision::{LayerReport, Precision, PrecisionReport, QuantConfig};
use crate::Result;

/// A compiled step's operation.
#[derive(Debug, Clone)]
enum FusedOp {
    Input,
    Conv {
        /// `[out_c, in_c*k*k]` weight, packed (and possibly quantized) at
        /// plan-compile time.
        w: ConvWeights,
        bias: Vec<f32>,
        params: Conv2dParams,
        /// A folded `Add`: the step's second input is added to the output
        /// inside the convolution (before `relu`).
        residual: bool,
        relu: bool,
    },
    Dense {
        /// `[inf, outf]` weight, packed (and possibly quantized) at
        /// plan-compile time.
        w: DenseWeights,
        bias: Vec<f32>,
        outf: usize,
        relu: bool,
    },
    BatchNorm {
        scale: Vec<f32>,
        shift: Vec<f32>,
        relu: bool,
    },
    MaxPool {
        k: usize,
        s: usize,
        pad: usize,
    },
    Gap,
    Add {
        relu: bool,
    },
    Flatten,
    Relu,
    Softmax,
}

impl FusedOp {
    /// Compute kernels this step launches on a GPU (the simulated device's
    /// cost model counts them). A convolution carrying a residual still
    /// counts as the two launches it was compiled from: folding the `Add`
    /// is a CPU cache optimisation, and the calibrated GPU profile was
    /// fitted with the `Add` as a kernel of its own.
    fn launches(&self) -> usize {
        match self {
            FusedOp::Input | FusedOp::Flatten => 0,
            FusedOp::Conv { residual: true, .. } => 2,
            _ => 1,
        }
    }
}

/// A candidate weight operand produced by the quantization post-pass,
/// tagged by the step kind it replaces.
enum StepWeights {
    Conv(ConvWeights),
    Dense(DenseWeights),
}

#[derive(Debug, Clone)]
struct Step {
    name: String,
    op: FusedOp,
    inputs: Vec<usize>,
    /// Per-item output shape (batch dimension stripped).
    item_shape: Shape,
}

/// One compiled step as [`FusedExec::step_infos`] describes it (shapes are
/// per batch item).
#[derive(Debug, Clone)]
pub struct StepInfo {
    /// The graph node the step was compiled from (the convolution, for a
    /// step that folded a batch-norm, an `Add` or a ReLU into it).
    pub name: String,
    /// `"conv"`, `"dense"`, `"maxpool"`, `"gap"`, `"add"`, `"batchnorm"`,
    /// `"relu"`, `"softmax"`, `"input"` or `"flatten"`.
    pub kind: &'static str,
    /// A convolution's geometry and weight precision (`"f32"` / `"f16"` /
    /// `"int8"`).
    pub conv: Option<(Conv2dParams, &'static str)>,
    /// The step is a convolution that adds its second input (a folded `Add`).
    pub residual: bool,
    /// A ReLU was fused into the step.
    pub relu: bool,
    /// Weight and bias elements the step reads.
    pub weight_elems: usize,
    /// Shapes of the step's inputs.
    pub in_shapes: Vec<Shape>,
    /// Shape of the step's output.
    pub out_shape: Shape,
}

/// The compiled, arena-backed executor.
#[derive(Debug)]
pub struct FusedExec {
    steps: Vec<Step>,
    output_step: usize,
    input_shape: Shape,
    per_item_flops: u64,
    buffers: Vec<Vec<f32>>,
    gemm_scratch: GemmScratch,
    report: PrecisionReport,
}

impl FusedExec {
    /// Compile `graph` into a fused plan at full (f32) precision.
    pub fn new(graph: &NnGraph) -> Result<Self> {
        Self::with_precision(graph, QuantConfig::default())
    }

    /// Compile `graph` at the requested precision: the f32 plan is built
    /// first (so Conv+BN folding happens *before* quantization), then each
    /// conv/dense layer is re-compiled at `cfg.precision` and adopted only
    /// if its calibration error passes `cfg.max_rel_err` (see
    /// [`crate::precision`]).
    pub fn with_precision(graph: &NnGraph, cfg: QuantConfig) -> Result<Self> {
        let mut exec = Self::build_f32(graph)?;
        if cfg.precision != Precision::F32 {
            exec.report = exec.quantize_plan(&cfg)?;
        }
        Ok(exec)
    }

    /// Compile the full-precision plan.
    fn build_f32(graph: &NnGraph) -> Result<Self> {
        let shapes = graph.infer_shapes(1)?;
        let input_shape = graph.input_shape()?;
        let per_item_flops = graph.flops(1)?;

        // How many nodes consume each node's output (the graph output
        // counts as one extra consumer so it is never fused away invisibly).
        let mut consumers = vec![0usize; graph.nodes().len()];
        for node in graph.nodes() {
            for &i in &node.inputs {
                consumers[i] += 1;
            }
        }
        consumers[graph.output()] += 1;

        let mut steps: Vec<Step> = Vec::with_capacity(graph.nodes().len());
        // node id -> step id
        let mut map: Vec<usize> = Vec::with_capacity(graph.nodes().len());

        for node in graph.nodes() {
            let step_inputs: Vec<usize> = node.inputs.iter().map(|&i| map[i]).collect();
            let item_shape = shapes[node.id].per_item();
            match &node.op {
                Op::Input { .. } => {
                    map.push(push(
                        &mut steps,
                        node.name.clone(),
                        FusedOp::Input,
                        step_inputs,
                        item_shape,
                    ));
                }
                Op::Conv2d { w, b, params } => {
                    let bias = b.as_ref().map(|t| t.data().to_vec()).unwrap_or_default();
                    let packed = PackedA::pack(w.data(), params.out_c, params.krows());
                    let op = FusedOp::Conv {
                        w: ConvWeights::F32(packed),
                        bias,
                        params: *params,
                        residual: false,
                        relu: false,
                    };
                    map.push(push(
                        &mut steps,
                        node.name.clone(),
                        op,
                        step_inputs,
                        item_shape,
                    ));
                }
                Op::Dense { w, b } => {
                    let (inf, outf) = (w.shape().dim(0), w.shape().dim(1));
                    let op = FusedOp::Dense {
                        w: DenseWeights::F32(PackedB::pack(w.data(), inf, outf)),
                        bias: b.data().to_vec(),
                        outf,
                        relu: false,
                    };
                    map.push(push(
                        &mut steps,
                        node.name.clone(),
                        op,
                        step_inputs,
                        item_shape,
                    ));
                }
                Op::BatchNorm { params } => {
                    let (scale, shift) = params.fold();
                    let producer = node.inputs[0];
                    let target = map[producer];
                    // A conv that already adds a residual or clamps cannot
                    // take the scale into its weights any more.
                    let foldable = consumers[producer] == 1
                        && matches!(
                            steps[target].op,
                            FusedOp::Conv {
                                residual: false,
                                relu: false,
                                ..
                            }
                        );
                    if foldable {
                        // Fold into the convolution's weights and bias. The
                        // plan is always built at f32 first (quantization is
                        // a post-pass), so the weights are still `F32` here.
                        if let FusedOp::Conv {
                            w: ConvWeights::F32(w),
                            bias,
                            ..
                        } = &mut steps[target].op
                        {
                            // Each output channel is one row of the GEMM's
                            // A operand; rescale it inside the packed panels.
                            for (oc, &s) in scale.iter().enumerate() {
                                w.scale_row(oc, s);
                            }
                            if bias.is_empty() {
                                *bias = shift.clone();
                            } else {
                                for (bv, (&s, &t)) in bias.iter_mut().zip(scale.iter().zip(&shift))
                                {
                                    *bv = *bv * s + t;
                                }
                            }
                        }
                        map.push(target);
                    } else {
                        let op = FusedOp::BatchNorm {
                            scale,
                            shift,
                            relu: false,
                        };
                        map.push(push(
                            &mut steps,
                            node.name.clone(),
                            op,
                            step_inputs,
                            item_shape,
                        ));
                    }
                }
                Op::Relu => {
                    let producer = node.inputs[0];
                    let target = map[producer];
                    let fusable = consumers[producer] == 1
                        && match &steps[target].op {
                            FusedOp::Conv { relu, .. }
                            | FusedOp::Dense { relu, .. }
                            | FusedOp::BatchNorm { relu, .. }
                            | FusedOp::Add { relu } => !relu,
                            _ => false,
                        };
                    if fusable {
                        match &mut steps[target].op {
                            FusedOp::Conv { relu, .. }
                            | FusedOp::Dense { relu, .. }
                            | FusedOp::BatchNorm { relu, .. }
                            | FusedOp::Add { relu } => *relu = true,
                            _ => unreachable!("fusable checked above"),
                        }
                        map.push(target);
                    } else {
                        map.push(push(
                            &mut steps,
                            node.name.clone(),
                            FusedOp::Relu,
                            step_inputs,
                            item_shape,
                        ));
                    }
                }
                Op::MaxPool { k, s, pad } => {
                    let op = FusedOp::MaxPool {
                        k: *k,
                        s: *s,
                        pad: *pad,
                    };
                    map.push(push(
                        &mut steps,
                        node.name.clone(),
                        op,
                        step_inputs,
                        item_shape,
                    ));
                }
                Op::GlobalAvgPool => {
                    map.push(push(
                        &mut steps,
                        node.name.clone(),
                        FusedOp::Gap,
                        step_inputs,
                        item_shape,
                    ));
                }
                Op::Add => {
                    // Fold into whichever operand is scheduled later, when
                    // that is a convolution only this node reads (see the
                    // module docs); its other operand is then already there.
                    let (later, earlier) = if step_inputs[0] > step_inputs[1] {
                        (0, 1)
                    } else {
                        (1, 0)
                    };
                    let target = step_inputs[later];
                    let foldable = target != step_inputs[earlier]
                        && consumers[node.inputs[later]] == 1
                        && matches!(
                            steps[target].op,
                            FusedOp::Conv {
                                residual: false,
                                relu: false,
                                ..
                            }
                        );
                    if foldable {
                        if let FusedOp::Conv { residual, .. } = &mut steps[target].op {
                            *residual = true;
                        }
                        steps[target].inputs.push(step_inputs[earlier]);
                        map.push(target);
                    } else {
                        map.push(push(
                            &mut steps,
                            node.name.clone(),
                            FusedOp::Add { relu: false },
                            step_inputs,
                            item_shape,
                        ));
                    }
                }
                Op::Flatten => {
                    map.push(push(
                        &mut steps,
                        node.name.clone(),
                        FusedOp::Flatten,
                        step_inputs,
                        item_shape,
                    ));
                }
                Op::Softmax => {
                    map.push(push(
                        &mut steps,
                        node.name.clone(),
                        FusedOp::Softmax,
                        step_inputs,
                        item_shape,
                    ));
                }
            }
        }

        let output_step = map[graph.output()];
        let n = steps.len();
        Ok(FusedExec {
            steps,
            output_step,
            input_shape,
            per_item_flops,
            buffers: (0..n).map(|_| Vec::new()).collect(),
            gemm_scratch: GemmScratch::new(),
            report: PrecisionReport::default(),
        })
    }

    /// The quantization post-pass: run a seeded calibration batch through
    /// the (already built, BN-folded) f32 plan, then re-compute each
    /// conv/dense step with candidate quantized weights against the same
    /// exact f32 inputs and adopt the candidate only when its error passes
    /// the gate. Runs once at plan-compile time; allocation here is fine.
    fn quantize_plan(&mut self, cfg: &QuantConfig) -> Result<PrecisionReport> {
        let mut report = PrecisionReport {
            requested: cfg.precision,
            layers: Vec::new(),
        };
        let batch = cfg.calib_batch.max(1);
        let mut dims = vec![batch];
        dims.extend_from_slice(self.input_shape.dims());
        let calib = Tensor::seeded_uniform(Shape::new(dims), cfg.calib_seed, -1.0, 1.0);
        // Fills self.buffers with every step's f32 output.
        self.run(&calib)?;

        for si in 0..self.steps.len() {
            let step = &self.steps[si];
            let out_len = batch * step.item_shape.numel();
            let mut candidate = vec![0.0f32; out_len];
            // The f32 output to compare against when it is not the step's
            // buffer as the calibration pass left it.
            let mut reference: Option<Vec<f32>> = None;
            let (kind, name, replacement) = match &step.op {
                FusedOp::Conv {
                    w: ConvWeights::F32(pa),
                    bias,
                    params,
                    residual,
                    relu,
                } => {
                    let raw = pa.unpack();
                    let cand = match cfg.precision {
                        Precision::Int8 => {
                            ConvWeights::Int8(QuantizedA::from_f32(&raw, pa.m(), pa.k()))
                        }
                        Precision::F16 => ConvWeights::F16(PackedA16::pack(&raw, pa.m(), pa.k())),
                        Precision::F32 => unreachable!("quantize_plan is gated on != F32"),
                    };
                    let in_shape = &self.steps[step.inputs[0]].item_shape;
                    // A residual-carrying conv is gated on the convolution
                    // alone (bias only, as when the `Add` was its own step):
                    // the residual would inflate the oracle's magnitude and
                    // loosen the relative-error gate.
                    let epilogue = ConvEpilogue {
                        residual: None,
                        relu: *relu && !*residual,
                    };
                    let mut conv_only = |w: &ConvWeights, out: &mut [f32]| {
                        conv2d_dispatch_into(
                            &self.buffers[step.inputs[0]],
                            batch,
                            in_shape.dim(1),
                            in_shape.dim(2),
                            w,
                            bias,
                            params,
                            epilogue,
                            out,
                            &mut self.gemm_scratch,
                        )
                    };
                    conv_only(&cand, &mut candidate);
                    if *residual {
                        let f32_weights = ConvWeights::F32(pa.clone());
                        conv_only(&f32_weights, reference.insert(vec![0.0f32; out_len]));
                    }
                    ("conv", step.name.clone(), StepWeights::Conv(cand))
                }
                FusedOp::Dense {
                    w: DenseWeights::F32(pb),
                    bias,
                    relu,
                    ..
                } => {
                    let raw = pb.unpack();
                    let cand = match cfg.precision {
                        Precision::Int8 => {
                            DenseWeights::Int8(QuantizedB::from_f32(&raw, pb.k(), pb.n()))
                        }
                        Precision::F16 => DenseWeights::F16(PackedB16::pack(&raw, pb.k(), pb.n())),
                        Precision::F32 => unreachable!("quantize_plan is gated on != F32"),
                    };
                    dense_dispatch_into(
                        &self.buffers[step.inputs[0]],
                        &cand,
                        bias,
                        batch,
                        &mut candidate,
                        &mut self.gemm_scratch,
                    );
                    if *relu {
                        activation::relu_inplace(&mut candidate);
                    }
                    ("dense", step.name.clone(), StepWeights::Dense(cand))
                }
                _ => continue,
            };

            let oracle = reference.as_ref().unwrap_or(&self.buffers[si]);
            let max_abs_err = candidate
                .iter()
                .zip(oracle)
                .fold(0.0f32, |m, (&c, &o)| m.max((c - o).abs()));
            let rel_err = max_abs_err / amax(oracle).max(1e-12);
            let adopt = rel_err <= cfg.max_rel_err;
            if adopt {
                match (&mut self.steps[si].op, replacement) {
                    (FusedOp::Conv { w, .. }, StepWeights::Conv(cand)) => *w = cand,
                    (FusedOp::Dense { w, .. }, StepWeights::Dense(cand)) => *w = cand,
                    _ => unreachable!("replacement kind matches the step it came from"),
                }
            }
            report.layers.push(LayerReport {
                name,
                kind,
                requested: cfg.precision.name(),
                chosen: if adopt { cfg.precision.name() } else { "f32" },
                rel_err,
                max_abs_err,
            });
        }
        Ok(report)
    }

    /// Per-layer accuracy accounting from plan compilation (empty for f32
    /// plans).
    pub fn precision_report(&self) -> &PrecisionReport {
        &self.report
    }

    /// `(ptr, capacity)` of every arena buffer and scratch — lets tests
    /// assert that steady-state inference reuses the arena instead of
    /// reallocating.
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

    /// Capacity, in floats, of the packed-activation scratch — what the
    /// largest convolution so far needed (one `KC × NC` block at most on the
    /// single-threaded path).
    #[doc(hidden)]
    pub fn conv_scratch_capacity(&self) -> usize {
        self.gemm_scratch.packed_b_capacity()
    }

    /// Number of compiled steps (after fusion).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Number of compute kernels — the launches a GPU would perform.
    pub fn kernel_count(&self) -> usize {
        self.steps.iter().map(|s| s.op.launches()).sum()
    }

    /// What each compiled step is, in execution order — the key to the
    /// indices [`FusedExec::run_with`] reports.
    pub fn step_infos(&self) -> Vec<StepInfo> {
        self.steps
            .iter()
            .map(|step| {
                let (kind, conv, residual, relu, weight_elems) = match &step.op {
                    FusedOp::Input => ("input", None, false, false, 0),
                    FusedOp::Conv {
                        w,
                        bias,
                        params,
                        residual,
                        relu,
                    } => (
                        "conv",
                        Some((*params, w.precision_name())),
                        *residual,
                        *relu,
                        w.out_c() * w.krows() + bias.len(),
                    ),
                    FusedOp::Dense { w, bias, relu, .. } => {
                        ("dense", None, false, *relu, w.inf() * w.outf() + bias.len())
                    }
                    FusedOp::BatchNorm { scale, relu, .. } => {
                        ("batchnorm", None, false, *relu, 2 * scale.len())
                    }
                    FusedOp::MaxPool { .. } => ("maxpool", None, false, false, 0),
                    FusedOp::Gap => ("gap", None, false, false, 0),
                    FusedOp::Add { relu } => ("add", None, false, *relu, 0),
                    FusedOp::Flatten => ("flatten", None, false, false, 0),
                    FusedOp::Relu => ("relu", None, false, false, 0),
                    FusedOp::Softmax => ("softmax", None, false, false, 0),
                };
                StepInfo {
                    name: step.name.clone(),
                    kind,
                    conv,
                    residual,
                    relu,
                    weight_elems,
                    in_shapes: step
                        .inputs
                        .iter()
                        .map(|&i| self.steps[i].item_shape.clone())
                        .collect(),
                    out_shape: step.item_shape.clone(),
                }
            })
            .collect()
    }

    /// Forward FLOPs per batch item.
    pub fn per_item_flops(&self) -> u64 {
        self.per_item_flops
    }

    /// The model's per-item input shape.
    pub fn input_shape(&self) -> &Shape {
        &self.input_shape
    }

    /// The model's per-item output shape.
    pub fn output_item_shape(&self) -> &Shape {
        &self.steps[self.output_step].item_shape
    }

    /// Run a forward pass over a `[batch, ..input]` tensor.
    pub fn run(&mut self, input: &Tensor) -> Result<Tensor> {
        self.run_with(input, |_| {})
    }

    /// [`FusedExec::run`], calling `after_step(i)` as soon as compiled step
    /// `i` (an index into [`FusedExec::step_infos`]) has written its output
    /// — the per-layer profiling hook. The observer reads its own clock, so
    /// the executor has none: with the no-op closure `run` passes, the hook
    /// compiles away.
    pub fn run_with(
        &mut self,
        input: &Tensor,
        mut after_step: impl FnMut(usize),
    ) -> Result<Tensor> {
        let batch = check_batched_input(input, &self.input_shape)?;
        for si in 0..self.steps.len() {
            let (before, rest) = self.buffers.split_at_mut(si);
            let out = &mut rest[0];
            // Clone step metadata borrows: split the steps slice the same way.
            let (steps_before, steps_rest) = self.steps.split_at(si);
            let step = &steps_rest[0];
            let in_buf = |i: usize| -> &[f32] { &before[step.inputs[i]] };
            let in_item = |i: usize| -> &Shape { &steps_before[step.inputs[i]].item_shape };
            let out_numel = batch * step.item_shape.numel();

            match &step.op {
                FusedOp::Input => {
                    out.clear();
                    out.extend_from_slice(input.data());
                }
                FusedOp::Conv {
                    w,
                    bias,
                    params,
                    residual,
                    relu,
                } => {
                    let s = in_item(0);
                    let (h, wd) = (s.dim(1), s.dim(2));
                    out.resize(out_numel, 0.0);
                    let epilogue = ConvEpilogue {
                        residual: residual.then(|| in_buf(1)),
                        relu: *relu,
                    };
                    conv2d_dispatch_into(
                        in_buf(0),
                        batch,
                        h,
                        wd,
                        w,
                        bias,
                        params,
                        epilogue,
                        out,
                        &mut self.gemm_scratch,
                    );
                }
                FusedOp::Dense {
                    w,
                    bias,
                    outf,
                    relu,
                    ..
                } => {
                    out.resize(batch * outf, 0.0);
                    dense_dispatch_into(in_buf(0), w, bias, batch, out, &mut self.gemm_scratch);
                    if *relu {
                        activation::relu_inplace(out);
                    }
                }
                FusedOp::BatchNorm { scale, shift, relu } => {
                    let s = in_item(0);
                    let c = s.dim(0);
                    let plane: usize = s.dims()[1..].iter().product();
                    out.clear();
                    out.extend_from_slice(in_buf(0));
                    for b in 0..batch {
                        for ch in 0..c {
                            let start = (b * c + ch) * plane;
                            let (sc, sh) = (scale[ch], shift[ch]);
                            for v in &mut out[start..start + plane] {
                                *v = sc * *v + sh;
                            }
                        }
                    }
                    if *relu {
                        activation::relu_inplace(out);
                    }
                }
                FusedOp::MaxPool { k, s, pad } => {
                    let sh = in_item(0);
                    out.resize(out_numel, 0.0);
                    pool::maxpool2d_into(
                        in_buf(0),
                        batch,
                        sh.dim(0),
                        sh.dim(1),
                        sh.dim(2),
                        *k,
                        *s,
                        *pad,
                        out,
                    );
                }
                FusedOp::Gap => {
                    let s = in_item(0);
                    out.resize(out_numel, 0.0);
                    pool::avgpool_global_into(in_buf(0), batch, s.dim(0), s.dim(1), s.dim(2), out);
                }
                FusedOp::Add { relu } => {
                    out.resize(out_numel, 0.0);
                    add_into(in_buf(0), in_buf(1), out, *relu);
                }
                FusedOp::Flatten => {
                    out.clear();
                    out.extend_from_slice(in_buf(0));
                }
                FusedOp::Relu => {
                    out.clear();
                    out.extend_from_slice(in_buf(0));
                    activation::relu_inplace(out);
                }
                FusedOp::Softmax => {
                    let cols = step.item_shape.numel();
                    out.clear();
                    out.extend_from_slice(in_buf(0));
                    activation::softmax_rows(out, batch, cols);
                }
            }
            debug_assert_eq!(out.len(), out_numel, "step {} output size", step.name);
            after_step(si);
        }

        let out_step = &self.steps[self.output_step];
        let shape = out_step.item_shape.clone();
        let mut dims = vec![batch];
        dims.extend_from_slice(shape.dims());
        Tensor::from_vec(Shape::new(dims), self.buffers[self.output_step].clone())
            .map_err(RuntimeError::from)
    }
}

fn push(
    steps: &mut Vec<Step>,
    name: String,
    op: FusedOp,
    inputs: Vec<usize>,
    item_shape: Shape,
) -> usize {
    steps.push(Step {
        name,
        op,
        inputs,
        item_shape,
    });
    steps.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::unfused::UnfusedExec;
    use crayfish_models::{ffnn, tiny};

    #[test]
    fn fusion_reduces_step_count() {
        let g = tiny::tiny_cnn(4);
        let exec = FusedExec::new(&g).unwrap();
        // conv1+bn1+relu1 fuse to 1 step; conv2 stays (its output feeds the
        // add); residual add fuses relu2.
        assert!(
            exec.step_count() < g.nodes().len(),
            "{} steps",
            exec.step_count()
        );
    }

    #[test]
    fn fused_matches_unfused_cnn() {
        let g = tiny::tiny_cnn(4);
        let mut fused = FusedExec::new(&g).unwrap();
        let mut plain = UnfusedExec::new(g, true, None).unwrap();
        for batch in [1usize, 3] {
            let input = Tensor::seeded_uniform([batch, 3, 8, 8], batch as u64, -1.0, 1.0);
            let a = fused.run(&input).unwrap();
            let b = plain.run(&input).unwrap();
            assert!(a.max_abs_diff(&b).unwrap() < 1e-4);
        }
    }

    #[test]
    fn fused_matches_unfused_ffnn() {
        let g = ffnn::build(6);
        let mut fused = FusedExec::new(&g).unwrap();
        let mut plain = UnfusedExec::new(g, true, None).unwrap();
        let input = Tensor::seeded_uniform([4, 28, 28], 3, 0.0, 1.0);
        let a = fused.run(&input).unwrap();
        let b = plain.run(&input).unwrap();
        assert_eq!(a.shape().dims(), &[4, 10]);
        assert!(a.max_abs_diff(&b).unwrap() < 1e-4);
    }

    #[test]
    fn repeated_calls_reuse_buffers_and_stay_correct() {
        let g = tiny::tiny_cnn(1);
        let mut fused = FusedExec::new(&g).unwrap();
        let input = Tensor::seeded_uniform([2, 3, 8, 8], 1, -1.0, 1.0);
        let first = fused.run(&input).unwrap();
        for _ in 0..5 {
            let again = fused.run(&input).unwrap();
            assert_eq!(first, again);
        }
        // Changing batch size mid-stream must also work.
        let big = Tensor::seeded_uniform([5, 3, 8, 8], 2, -1.0, 1.0);
        assert_eq!(fused.run(&big).unwrap().shape().dims(), &[5, 4]);
    }

    #[test]
    fn kernel_count_excludes_data_movement() {
        let g = tiny::tiny_mlp(1);
        let exec = FusedExec::new(&g).unwrap();
        assert!(exec.kernel_count() < exec.step_count());
        assert!(exec.kernel_count() >= 2, "at least the two dense layers");
    }

    #[test]
    fn exposes_shapes_and_flops() {
        let g = ffnn::build(2);
        let exec = FusedExec::new(&g).unwrap();
        assert_eq!(exec.input_shape().dims(), &[28, 28]);
        assert_eq!(exec.output_item_shape().dims(), &[10]);
        assert_eq!(exec.per_item_flops(), g.flops(1).unwrap());
    }

    #[test]
    fn quantized_plans_track_the_f32_plan() {
        let g = tiny::tiny_cnn(7);
        let input = Tensor::seeded_uniform([2, 3, 8, 8], 11, -1.0, 1.0);
        let mut f32_exec = FusedExec::new(&g).unwrap();
        let oracle = f32_exec.run(&input).unwrap();
        for precision in [Precision::Int8, Precision::F16] {
            let cfg = QuantConfig::with_precision(precision);
            let mut exec = FusedExec::with_precision(&g, cfg).unwrap();
            let report = exec.precision_report();
            assert_eq!(report.requested, precision);
            assert!(!report.layers.is_empty(), "conv+dense layers reported");
            for l in &report.layers {
                assert_eq!(l.requested, precision.name());
                assert!(l.rel_err >= 0.0 && l.max_abs_err >= 0.0);
            }
            let out = exec.run(&input).unwrap();
            // Softmax outputs live in [0,1]; quantized plans should stay
            // close enough that the distributions barely move.
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
        let mut f32_exec = FusedExec::new(&g).unwrap();
        let mut cfg = QuantConfig::with_precision(Precision::Int8);
        cfg.max_rel_err = 0.0;
        let mut exec = FusedExec::with_precision(&g, cfg).unwrap();
        let report = exec.precision_report();
        assert_eq!(report.quantized_count(), 0, "gate rejects every layer");
        assert_eq!(report.fallback_count(), report.layers.len());
        // With every layer back at f32 the plans are bit-identical.
        assert_eq!(f32_exec.run(&input).unwrap(), exec.run(&input).unwrap());
    }

    #[test]
    fn quantized_steady_state_reuses_the_arena() {
        let g = tiny::tiny_cnn(2);
        let cfg = QuantConfig::with_precision(Precision::Int8);
        let mut exec = FusedExec::with_precision(&g, cfg).unwrap();
        let input = Tensor::seeded_uniform([2, 3, 8, 8], 1, -1.0, 1.0);
        exec.run(&input).unwrap();
        let fp = exec.arena_fingerprint();
        for _ in 0..3 {
            exec.run(&input).unwrap();
        }
        assert_eq!(fp, exec.arena_fingerprint(), "int8 steady state reallocated");
    }
}
