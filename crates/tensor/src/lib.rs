//! # crayfish-tensor
//!
//! The numerical substrate of the Crayfish reproduction: a small dense
//! tensor library with the kernels required by the paper's two pre-trained
//! models (an MNIST-scale feed-forward network and ResNet50), plus a graph
//! IR ([`graph::NnGraph`]) that the model runtimes in `crayfish-runtime`
//! execute with different strategies (fused/unfused, CPU/simulated GPU).
//!
//! Everything here is *real* computation — matrix multiplies, implicit-GEMM
//! convolutions, batch normalisation. Matrix multiplication runs through a
//! packed, cache-blocked, register-tiled kernel
//! ([`kernels::microkernel`]); by default it stays on one intra-op thread,
//! matching the paper's serving-tool configuration (§4.3 "Hardware
//! Acceleration"), and `CRAYFISH_THREADS` opts large GEMMs into the
//! persistent worker pool ([`par`]). Weight operands can be packed once at
//! plan-compile time ([`packed::PackedA`] / [`packed::PackedB`]) so the
//! executors' steady state does no packing and no allocation.
//!
//! ## Layout conventions
//!
//! * Dense activations are `[batch, features]`, row-major.
//! * Convolutional activations are `[batch, channels, height, width]`
//!   (NCHW), row-major.
//! * Convolution weights are `[out_channels, in_channels, kh, kw]`.

#![forbid(unsafe_code)]

pub mod error;
pub mod graph;
pub mod kernels;
pub mod packed;
pub mod par;
pub mod shape;
pub mod tensor;

pub use error::TensorError;
pub use graph::{NnGraph, Node, NodeId, Op};
pub use packed::{
    ConvWeights, DenseWeights, GemmScratch, PackedA, PackedA16, PackedB, PackedB16, QuantizedA,
    QuantizedB,
};
pub use par::ThreadPool;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
