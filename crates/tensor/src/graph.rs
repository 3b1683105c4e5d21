//! The neural-network graph IR.
//!
//! Models in Crayfish are static inference graphs: a list of nodes in
//! topological order, each applying one [`Op`] to the outputs of earlier
//! nodes. The IR carries its weights (shared via [`Arc`] so cloning a graph
//! for another worker is cheap) and knows how to infer activation shapes and
//! count FLOPs — the latter feeds the simulated-GPU cost model.
//!
//! Execution strategies live in `crayfish-runtime`; this module only defines
//! structure and validation.

use std::sync::Arc;

use crate::error::TensorError;
use crate::kernels::conv::{window_out, Conv2dParams};
use crate::kernels::norm::BnParams;
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::Result;

/// Index of a node within its graph.
pub type NodeId = usize;

/// One graph operation. Weight-bearing ops own their parameters.
#[derive(Debug, Clone)]
pub enum Op {
    /// Graph input with the per-item shape (no batch dimension), e.g.
    /// `[28, 28]` for the FFNN or `[3, 224, 224]` for ResNet50.
    Input {
        /// Per-item input shape.
        shape: Shape,
    },
    /// Fully connected layer; `w` is `[in, out]`, `b` is `[out]`.
    Dense {
        /// Weight matrix.
        w: Arc<Tensor>,
        /// Bias vector.
        b: Arc<Tensor>,
    },
    /// 2-D convolution; `w` is `[out_c, in_c, k, k]`.
    Conv2d {
        /// Filter weights.
        w: Arc<Tensor>,
        /// Optional bias (`[out_c]`); ResNet convs have none (folded in BN).
        b: Option<Arc<Tensor>>,
        /// Static convolution parameters.
        params: Conv2dParams,
    },
    /// Inference batch normalisation over the channel dimension.
    BatchNorm {
        /// Frozen parameters.
        params: Arc<BnParams>,
    },
    /// Rectified linear unit.
    Relu,
    /// 2-D max pooling.
    MaxPool {
        /// Window size.
        k: usize,
        /// Stride.
        s: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Global average pooling `[b,c,h,w] → [b,c]`.
    GlobalAvgPool,
    /// Elementwise sum of exactly two inputs (residual connection).
    Add,
    /// Flatten all trailing dimensions into one feature axis.
    Flatten,
    /// Row-wise softmax over `[b, classes]`.
    Softmax,
}

impl Op {
    /// Short kind name used in diagnostics and serialized formats.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Input { .. } => "input",
            Op::Dense { .. } => "dense",
            Op::Conv2d { .. } => "conv2d",
            Op::BatchNorm { .. } => "batchnorm",
            Op::Relu => "relu",
            Op::MaxPool { .. } => "maxpool",
            Op::GlobalAvgPool => "gavgpool",
            Op::Add => "add",
            Op::Flatten => "flatten",
            Op::Softmax => "softmax",
        }
    }

    /// Number of learned parameters carried by this op.
    pub fn param_count(&self) -> usize {
        match self {
            Op::Dense { w, b } => w.numel() + b.numel(),
            Op::Conv2d { w, b, .. } => w.numel() + b.as_ref().map_or(0, |t| t.numel()),
            Op::BatchNorm { params } => 4 * params.channels(),
            _ => 0,
        }
    }
}

/// A node: one op applied to the outputs of `inputs`.
#[derive(Debug, Clone)]
pub struct Node {
    /// This node's id (its position in the node list).
    pub id: NodeId,
    /// Human-readable name (e.g. `"layer2.0.conv1"`).
    pub name: String,
    /// The operation.
    pub op: Op,
    /// Ids of the nodes whose outputs feed this op, in order.
    pub inputs: Vec<NodeId>,
}

/// A static inference graph in topological order.
#[derive(Debug, Clone)]
pub struct NnGraph {
    name: String,
    nodes: Vec<Node>,
    output: NodeId,
}

impl NnGraph {
    /// Start an empty graph. Add nodes with [`NnGraph::add`], then declare
    /// the output with [`NnGraph::set_output`].
    pub fn new(name: impl Into<String>) -> Self {
        NnGraph {
            name: name.into(),
            nodes: Vec::new(),
            output: 0,
        }
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append a node; `inputs` must reference earlier nodes.
    ///
    /// # Panics
    /// Panics if an input id is not yet defined (a programming error when
    /// building a model).
    pub fn add(&mut self, name: impl Into<String>, op: Op, inputs: Vec<NodeId>) -> NodeId {
        let id = self.nodes.len();
        for &i in &inputs {
            assert!(i < id, "node input {i} not yet defined (adding node {id})");
        }
        self.nodes.push(Node {
            id,
            name: name.into(),
            op,
            inputs,
        });
        self.output = id;
        id
    }

    /// Declare which node produces the model output (defaults to the last
    /// added node).
    pub fn set_output(&mut self, id: NodeId) {
        assert!(id < self.nodes.len(), "output node {id} does not exist");
        self.output = id;
    }

    /// The output node id.
    pub fn output(&self) -> NodeId {
        self.output
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Total learned parameters.
    pub fn param_count(&self) -> usize {
        self.nodes.iter().map(|n| n.op.param_count()).sum()
    }

    /// The graph's input node and per-item shape.
    pub fn input_shape(&self) -> Result<Shape> {
        self.nodes
            .iter()
            .find_map(|n| match &n.op {
                Op::Input { shape } => Some(shape.clone()),
                _ => None,
            })
            .ok_or_else(|| TensorError::Graph("graph has no input node".into()))
    }

    /// Infer the activation shape of every node for a given batch size.
    /// Fails if any op receives incompatible input shapes — this is the
    /// graph validator.
    pub fn infer_shapes(&self, batch: usize) -> Result<Vec<Shape>> {
        let mut shapes: Vec<Shape> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let shape = self.infer_node_shape(node, batch, &shapes)?;
            shapes.push(shape);
        }
        Ok(shapes)
    }

    /// Output shape of the whole graph for a given batch size.
    pub fn output_shape(&self, batch: usize) -> Result<Shape> {
        let shapes = self.infer_shapes(batch)?;
        Ok(shapes[self.output].clone())
    }

    /// Total forward-pass FLOPs for a given batch size.
    pub fn flops(&self, batch: usize) -> Result<u64> {
        let shapes = self.infer_shapes(batch)?;
        let mut total = 0u64;
        for node in &self.nodes {
            total += self.node_flops(node, &shapes);
        }
        Ok(total)
    }

    /// FLOPs of a single node given all inferred shapes.
    pub fn node_flops(&self, node: &Node, shapes: &[Shape]) -> u64 {
        let out_numel = shapes[node.id].numel() as u64;
        match &node.op {
            Op::Input { .. } | Op::Flatten => 0,
            Op::Dense { w, .. } => {
                let batch = shapes[node.id].dim(0) as u64;
                2 * batch * w.shape().dim(0) as u64 * w.shape().dim(1) as u64
            }
            Op::Conv2d { params, .. } => {
                let in_shape = &shapes[node.inputs[0]];
                let batch = in_shape.dim(0) as u64;
                batch * params.flops(in_shape.dim(2), in_shape.dim(3))
            }
            Op::BatchNorm { .. } => 2 * out_numel,
            Op::Relu | Op::Add | Op::GlobalAvgPool => out_numel,
            Op::MaxPool { k, .. } => out_numel * (*k as u64) * (*k as u64),
            Op::Softmax => 5 * out_numel,
        }
    }

    fn infer_node_shape(&self, node: &Node, batch: usize, shapes: &[Shape]) -> Result<Shape> {
        let arity = |n: usize| -> Result<()> {
            if node.inputs.len() != n {
                return Err(TensorError::Graph(format!(
                    "node {} ({}) expects {n} inputs, has {}",
                    node.name,
                    node.op.kind(),
                    node.inputs.len()
                )));
            }
            Ok(())
        };
        let input = |i: usize| -> &Shape { &shapes[node.inputs[i]] };
        // Output extents of a sliding window, or why the geometry has none.
        let window = |h: usize, w: usize, k: usize, s: usize, pad: usize| {
            window_out(h, k, s, pad)
                .zip(window_out(w, k, s, pad))
                .ok_or_else(|| {
                    TensorError::Graph(format!(
                        "node {} ({}): kernel {k}, stride {s}, pad {pad} has no output over a \
                         {h}x{w} input (kernel and stride must be non-zero and the window no \
                         larger than the padded input)",
                        node.name,
                        node.op.kind()
                    ))
                })
        };
        match &node.op {
            Op::Input { shape } => {
                arity(0)?;
                let mut dims = vec![batch];
                dims.extend_from_slice(shape.dims());
                Ok(Shape::new(dims))
            }
            Op::Dense { w, b } => {
                arity(1)?;
                let in_shape = input(0);
                if in_shape.rank() != 2 {
                    return Err(TensorError::RankMismatch {
                        op: "dense",
                        expected: 2,
                        actual: in_shape.rank(),
                    });
                }
                let (inf, outf) = (w.shape().dim(0), w.shape().dim(1));
                if in_shape.dim(1) != inf || b.numel() != outf {
                    return Err(TensorError::ShapeMismatch {
                        op: "dense",
                        expected: Shape::from([in_shape.dim(0), inf]),
                        actual: in_shape.clone(),
                    });
                }
                Ok(Shape::from([in_shape.dim(0), outf]))
            }
            Op::Conv2d { w, b, params } => {
                arity(1)?;
                let s = input(0);
                if s.rank() != 4 {
                    return Err(TensorError::RankMismatch {
                        op: "conv2d",
                        expected: 4,
                        actual: s.rank(),
                    });
                }
                // The kernels index the weight as `[out_c, in_c·k·k]` rows and
                // the bias per output channel.
                let w_dims = [params.out_c, params.in_c, params.kernel, params.kernel];
                if w.shape().dims() != w_dims {
                    return Err(TensorError::Graph(format!(
                        "conv2d {}: weight shape {} is not [out_c, in_c, k, k] = {}",
                        node.name,
                        w.shape(),
                        Shape::from(w_dims)
                    )));
                }
                if b.as_ref()
                    .is_some_and(|b| b.shape().dims() != [params.out_c])
                {
                    return Err(TensorError::Graph(format!(
                        "conv2d {}: bias is not [out_c] = [{}]",
                        node.name, params.out_c
                    )));
                }
                if s.dim(1) != params.in_c {
                    return Err(TensorError::ShapeMismatch {
                        op: "conv2d",
                        expected: Shape::from([s.dim(0), params.in_c, s.dim(2), s.dim(3)]),
                        actual: s.clone(),
                    });
                }
                let (oh, ow) =
                    window(s.dim(2), s.dim(3), params.kernel, params.stride, params.pad)?;
                Ok(Shape::from([s.dim(0), params.out_c, oh, ow]))
            }
            Op::BatchNorm { params } => {
                arity(1)?;
                let s = input(0);
                if s.rank() < 2 || s.dim(1) != params.channels() {
                    return Err(TensorError::Graph(format!(
                        "batchnorm {}: expected {} channels, input shape {s}",
                        node.name,
                        params.channels()
                    )));
                }
                Ok(s.clone())
            }
            Op::Relu | Op::Softmax => {
                arity(1)?;
                Ok(input(0).clone())
            }
            Op::MaxPool { k, s, pad } => {
                arity(1)?;
                let sh = input(0);
                if sh.rank() != 4 {
                    return Err(TensorError::RankMismatch {
                        op: "maxpool",
                        expected: 4,
                        actual: sh.rank(),
                    });
                }
                let (oh, ow) = window(sh.dim(2), sh.dim(3), *k, *s, *pad)?;
                Ok(Shape::from([sh.dim(0), sh.dim(1), oh, ow]))
            }
            Op::GlobalAvgPool => {
                arity(1)?;
                let s = input(0);
                if s.rank() != 4 {
                    return Err(TensorError::RankMismatch {
                        op: "gavgpool",
                        expected: 4,
                        actual: s.rank(),
                    });
                }
                Ok(Shape::from([s.dim(0), s.dim(1)]))
            }
            Op::Add => {
                arity(2)?;
                if input(0) != input(1) {
                    return Err(TensorError::ShapeMismatch {
                        op: "add",
                        expected: input(0).clone(),
                        actual: input(1).clone(),
                    });
                }
                Ok(input(0).clone())
            }
            Op::Flatten => {
                arity(1)?;
                let s = input(0);
                Ok(Shape::from([s.dim(0), s.per_item().numel()]))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny two-layer MLP used across the tests.
    fn tiny_mlp() -> NnGraph {
        let mut g = NnGraph::new("tiny");
        let input = g.add(
            "input",
            Op::Input {
                shape: Shape::from([4]),
            },
            vec![],
        );
        let flat = g.add("flatten", Op::Flatten, vec![input]);
        let w1 = Arc::new(Tensor::seeded_he([4, 8], 1, 4));
        let b1 = Arc::new(Tensor::zeros([8]));
        let d1 = g.add("fc1", Op::Dense { w: w1, b: b1 }, vec![flat]);
        let r1 = g.add("relu1", Op::Relu, vec![d1]);
        let w2 = Arc::new(Tensor::seeded_he([8, 3], 2, 8));
        let b2 = Arc::new(Tensor::zeros([3]));
        let d2 = g.add("fc2", Op::Dense { w: w2, b: b2 }, vec![r1]);
        g.add("softmax", Op::Softmax, vec![d2]);
        g
    }

    #[test]
    fn shape_inference_through_mlp() {
        let g = tiny_mlp();
        let shapes = g.infer_shapes(5).unwrap();
        assert_eq!(shapes.last().unwrap().dims(), &[5, 3]);
        assert_eq!(g.output_shape(2).unwrap().dims(), &[2, 3]);
    }

    #[test]
    fn param_count_sums_layers() {
        let g = tiny_mlp();
        // fc1: 4*8+8 = 40, fc2: 8*3+3 = 27
        assert_eq!(g.param_count(), 67);
    }

    #[test]
    fn flops_counts_dense_macs() {
        let g = tiny_mlp();
        let flops = g.flops(1).unwrap();
        // fc1: 2*4*8=64, relu: 8, fc2: 2*8*3=48, softmax: 15 => 135
        assert_eq!(flops, 135);
    }

    #[test]
    fn input_shape_is_discoverable() {
        let g = tiny_mlp();
        assert_eq!(g.input_shape().unwrap().dims(), &[4]);
    }

    #[test]
    fn dense_shape_mismatch_is_detected() {
        let mut g = NnGraph::new("bad");
        let input = g.add(
            "input",
            Op::Input {
                shape: Shape::from([5]),
            },
            vec![],
        );
        let flat = g.add("flatten", Op::Flatten, vec![input]);
        let w = Arc::new(Tensor::zeros([4, 2])); // expects 4 features, gets 5
        let b = Arc::new(Tensor::zeros([2]));
        g.add("fc", Op::Dense { w, b }, vec![flat]);
        assert!(g.infer_shapes(1).is_err());
    }

    #[test]
    fn add_requires_equal_shapes() {
        let mut g = NnGraph::new("res");
        let a = g.add(
            "input",
            Op::Input {
                shape: Shape::from([2, 2, 2]),
            },
            vec![],
        );
        let pooled = g.add("pool", Op::MaxPool { k: 2, s: 2, pad: 0 }, vec![a]);
        g.add("add", Op::Add, vec![a, pooled]);
        assert!(g.infer_shapes(1).is_err());
    }

    #[test]
    #[should_panic(expected = "not yet defined")]
    fn forward_references_panic() {
        let mut g = NnGraph::new("bad");
        g.add("relu", Op::Relu, vec![3]);
    }

    /// `input [3, h, w]` → one conv with the given weight/bias/params.
    fn one_conv(hw: usize, w: Tensor, b: Option<Tensor>, params: Conv2dParams) -> NnGraph {
        let mut g = NnGraph::new("conv");
        let input = g.add(
            "input",
            Op::Input {
                shape: Shape::from([3, hw, hw]),
            },
            vec![],
        );
        g.add(
            "conv",
            Op::Conv2d {
                w: Arc::new(w),
                b: b.map(Arc::new),
                params,
            },
            vec![input],
        );
        g
    }

    #[test]
    fn conv_geometry_is_a_checked_precondition() {
        let ok = Conv2dParams {
            in_c: 3,
            out_c: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        assert!(one_conv(8, Tensor::zeros([4, 3, 3, 3]), None, ok)
            .infer_shapes(1)
            .is_ok());
        let graph_err = |g: NnGraph| match g.infer_shapes(1) {
            Err(TensorError::Graph(msg)) => msg,
            other => panic!("expected a graph error, got {other:?}"),
        };
        // Zero stride used to divide by zero inside shape inference.
        let p = Conv2dParams { stride: 0, ..ok };
        assert!(graph_err(one_conv(8, Tensor::zeros([4, 3, 3, 3]), None, p)).contains("stride 0"));
        // Zero kernel.
        let p = Conv2dParams { kernel: 0, ..ok };
        assert!(graph_err(one_conv(8, Tensor::zeros([4, 3, 0, 0]), None, p)).contains("kernel 0"));
        // Window larger than the padded input used to wrap around.
        let p = Conv2dParams {
            kernel: 7,
            pad: 0,
            ..ok
        };
        graph_err(one_conv(4, Tensor::zeros([4, 3, 7, 7]), None, p));
        // Weight that is not [out_c, in_c, k, k] (same element count).
        assert!(
            graph_err(one_conv(8, Tensor::zeros([4, 9, 3, 1]), None, ok)).contains("weight shape")
        );
        // Bias that is not [out_c].
        let bias = Some(Tensor::zeros([5]));
        assert!(graph_err(one_conv(8, Tensor::zeros([4, 3, 3, 3]), bias, ok)).contains("bias"));
    }

    #[test]
    fn pool_geometry_is_a_checked_precondition() {
        for (k, s, pad) in [(2usize, 0usize, 0usize), (0, 1, 0), (5, 1, 0)] {
            let mut g = NnGraph::new("pool");
            let a = g.add(
                "input",
                Op::Input {
                    shape: Shape::from([2, 4, 4]),
                },
                vec![],
            );
            g.add("pool", Op::MaxPool { k, s, pad }, vec![a]);
            assert!(
                matches!(g.infer_shapes(1), Err(TensorError::Graph(_))),
                "k={k} s={s} pad={pad}"
            );
        }
    }

    #[test]
    fn conv_and_pool_shapes() {
        let mut g = NnGraph::new("conv");
        let input = g.add(
            "input",
            Op::Input {
                shape: Shape::from([3, 8, 8]),
            },
            vec![],
        );
        let w = Arc::new(Tensor::zeros([4, 3, 3, 3]));
        let conv = g.add(
            "conv",
            Op::Conv2d {
                w,
                b: None,
                params: Conv2dParams {
                    in_c: 3,
                    out_c: 4,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                },
            },
            vec![input],
        );
        let pool = g.add("pool", Op::MaxPool { k: 2, s: 2, pad: 0 }, vec![conv]);
        g.add("gap", Op::GlobalAvgPool, vec![pool]);
        let shapes = g.infer_shapes(2).unwrap();
        assert_eq!(shapes[conv].dims(), &[2, 4, 8, 8]);
        assert_eq!(shapes[pool].dims(), &[2, 4, 4, 4]);
        assert_eq!(shapes.last().unwrap().dims(), &[2, 4]);
    }
}
