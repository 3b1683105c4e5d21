//! The embedded serving runtimes and the paper's two-method interface.
//!
//! §3.2 of the paper: "Crayfish expects libraries to provide the
//! implementation of two methods: `load`, which specifies how the
//! pre-trained model is to be loaded into memory, and `apply`, which obtains
//! a prediction, given a CrayfishDataBatch object and a model."
//! [`EmbeddedRuntime::load_graph`] (plus its `load_bytes` convenience) and
//! [`LoadedModel::apply`] are that interface.

pub mod dl4j;
pub mod onnx;
pub mod saved_model;
pub mod torch;

pub use dl4j::Dl4jRuntime;
pub use onnx::OnnxRuntime;
pub use saved_model::SavedModelRuntime;
pub use torch::TorchRuntime;

use serde::{Deserialize, Serialize};

use crayfish_models::{formats, ModelFormat};
use crayfish_tensor::{NnGraph, Tensor};

use crate::device::Device;
use crate::error::RuntimeError;
use crate::exec::{FusedExec, GpuExec, UnfusedExec};
use crate::Result;

/// A model loaded by an [`EmbeddedRuntime`], ready to score batches.
///
/// `apply` takes `&mut self` because runtimes keep scratch arenas; each
/// worker owns its instance, matching the paper's setup where every parallel
/// scoring task loads the model independently.
pub trait LoadedModel: Send {
    /// Runtime name this model was loaded with.
    fn runtime_name(&self) -> &'static str;
    /// Score one batch: input `[batch, ..model input]` → output
    /// `[batch, classes]`.
    fn apply(&mut self, input: &Tensor) -> Result<Tensor>;
}

/// An embedded interoperability library (the paper's `CrayfishModel`
/// provider).
pub trait EmbeddedRuntime: Send + Sync {
    /// Library name as used in configurations ("onnx", "saved_model", "dl4j").
    fn name(&self) -> &'static str;
    /// The serialized format a real deployment of this library consumes.
    fn expected_format(&self) -> ModelFormat;
    /// Load an in-memory graph onto a device.
    fn load_graph(&self, graph: &NnGraph, device: Device) -> Result<Box<dyn LoadedModel>>;
    /// Load a serialized model (any of the four formats) onto a device.
    fn load_bytes(&self, bytes: &[u8], device: Device) -> Result<Box<dyn LoadedModel>> {
        let graph = formats::decode(bytes)?;
        self.load_graph(&graph, device)
    }
}

/// Enumeration of the shipped embedded libraries, for configs and sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum EmbeddedLib {
    /// DeepLearning4j analog.
    Dl4j,
    /// ONNX Runtime analog.
    Onnx,
    /// TensorFlow SavedModel analog.
    SavedModel,
}

impl EmbeddedLib {
    /// All embedded libraries, in the paper's Table 4 order.
    pub const ALL: [EmbeddedLib; 3] = [
        EmbeddedLib::Dl4j,
        EmbeddedLib::Onnx,
        EmbeddedLib::SavedModel,
    ];

    /// Configuration name.
    pub fn name(&self) -> &'static str {
        match self {
            EmbeddedLib::Dl4j => "dl4j",
            EmbeddedLib::Onnx => "onnx",
            EmbeddedLib::SavedModel => "saved_model",
        }
    }

    /// Instantiate the runtime.
    pub fn runtime(&self) -> Box<dyn EmbeddedRuntime> {
        match self {
            EmbeddedLib::Dl4j => Box::new(Dl4jRuntime::new()),
            EmbeddedLib::Onnx => Box::new(OnnxRuntime::new()),
            EmbeddedLib::SavedModel => Box::new(SavedModelRuntime::new()),
        }
    }
}

/// Look up an embedded library by configuration name.
pub fn embedded_by_name(name: &str) -> Result<EmbeddedLib> {
    EmbeddedLib::ALL
        .into_iter()
        .find(|l| l.name() == name)
        .ok_or_else(|| RuntimeError::Unsupported(format!("unknown embedded library: {name}")))
}

/// [`LoadedModel`] backed by the fused executor.
pub(crate) struct FusedModel {
    pub(crate) name: &'static str,
    pub(crate) exec: FusedExec,
}

impl LoadedModel for FusedModel {
    fn runtime_name(&self) -> &'static str {
        self.name
    }
    fn apply(&mut self, input: &Tensor) -> Result<Tensor> {
        self.exec.run(input)
    }
}

/// [`LoadedModel`] backed by the direct executor.
pub(crate) struct UnfusedModel {
    pub(crate) name: &'static str,
    pub(crate) exec: UnfusedExec,
}

impl LoadedModel for UnfusedModel {
    fn runtime_name(&self) -> &'static str {
        self.name
    }
    fn apply(&mut self, input: &Tensor) -> Result<Tensor> {
        self.exec.run(input)
    }
}

/// [`LoadedModel`] backed by the simulated GPU.
pub(crate) struct GpuModel {
    pub(crate) name: &'static str,
    pub(crate) exec: GpuExec,
}

impl LoadedModel for GpuModel {
    fn runtime_name(&self) -> &'static str {
        self.name
    }
    fn apply(&mut self, input: &Tensor) -> Result<Tensor> {
        self.exec.run(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crayfish_models::tiny;

    #[test]
    fn lookup_by_name() {
        for lib in EmbeddedLib::ALL {
            assert_eq!(embedded_by_name(lib.name()).unwrap(), lib);
        }
        assert!(embedded_by_name("tensorrt").is_err());
    }

    #[test]
    fn all_runtimes_load_and_apply() {
        let g = tiny::tiny_cnn(5);
        let input = Tensor::seeded_uniform([2, 3, 8, 8], 1, 0.0, 1.0);
        for lib in EmbeddedLib::ALL {
            let rt = lib.runtime();
            assert_eq!(rt.name(), lib.name());
            let mut model = rt.load_graph(&g, Device::Cpu).unwrap();
            let out = model.apply(&input).unwrap();
            assert_eq!(out.shape().dims(), &[2, 4], "{}", lib.name());
            assert_eq!(model.runtime_name(), lib.name());
        }
    }

    #[test]
    fn runtimes_agree_numerically_on_cpu() {
        let g = tiny::tiny_cnn(5);
        let input = Tensor::seeded_uniform([2, 3, 8, 8], 2, -1.0, 1.0);
        let mut outputs = Vec::new();
        for lib in EmbeddedLib::ALL {
            let mut model = lib.runtime().load_graph(&g, Device::Cpu).unwrap();
            outputs.push(model.apply(&input).unwrap());
        }
        for pair in outputs.windows(2) {
            assert!(pair[0].max_abs_diff(&pair[1]).unwrap() < 1e-4);
        }
    }

    #[test]
    fn load_bytes_roundtrips_through_each_library_format() {
        let g = tiny::tiny_mlp(5);
        let input = Tensor::seeded_uniform([1, 8, 8], 1, 0.0, 1.0);
        for lib in EmbeddedLib::ALL {
            let rt = lib.runtime();
            let bytes = formats::encode(&g, rt.expected_format()).unwrap();
            let mut model = rt.load_bytes(&bytes, Device::Cpu).unwrap();
            let out = model.apply(&input).unwrap();
            assert_eq!(out.shape().dims(), &[1, 4]);
        }
    }

    #[test]
    fn a_model_file_with_a_zero_stride_is_refused_not_fatal() {
        // `load_bytes` promises a `Result`; a stride-0 convolution used to
        // divide by zero inside shape inference instead.
        use crayfish_tensor::kernels::conv::Conv2dParams;
        use crayfish_tensor::{Op, Shape};
        use std::sync::Arc;
        let mut g = NnGraph::new("stride0");
        let input = g.add(
            "input",
            Op::Input {
                shape: Shape::from([1, 4, 4]),
            },
            vec![],
        );
        let params = Conv2dParams {
            in_c: 1,
            out_c: 1,
            kernel: 3,
            stride: 0,
            pad: 1,
        };
        let w = Arc::new(Tensor::zeros([1, 1, 3, 3]));
        g.add("conv", Op::Conv2d { w, b: None, params }, vec![input]);
        for lib in EmbeddedLib::ALL {
            let rt = lib.runtime();
            let bytes = formats::encode(&g, rt.expected_format()).unwrap();
            for device in [Device::Cpu, Device::gpu()] {
                assert!(rt.load_bytes(&bytes, device).is_err(), "{}", lib.name());
            }
        }
    }

    #[test]
    fn runtimes_agree_at_reduced_precision() {
        use crate::precision::Precision;
        let g = tiny::tiny_cnn(5);
        let input = Tensor::seeded_uniform([2, 3, 8, 8], 2, -1.0, 1.0);
        let mut oracle = OnnxRuntime::new().load_graph(&g, Device::Cpu).unwrap();
        let f32_out = oracle.apply(&input).unwrap();
        for precision in [Precision::Int8, Precision::F16] {
            let mut fused = OnnxRuntime::with_precision(precision)
                .load_graph(&g, Device::Cpu)
                .unwrap();
            let mut unfused = SavedModelRuntime::with_precision(precision)
                .load_graph(&g, Device::Cpu)
                .unwrap();
            let a = fused.apply(&input).unwrap();
            let b = unfused.apply(&input).unwrap();
            // The two executors quantize different weights (fused folds BN
            // first) but both must stay near the f32 oracle.
            assert!(a.max_abs_diff(&f32_out).unwrap() < 0.05, "{precision:?}");
            assert!(b.max_abs_diff(&f32_out).unwrap() < 0.05, "{precision:?}");
        }
    }

    #[test]
    fn gpu_device_loads_everywhere() {
        let g = tiny::tiny_mlp(5);
        let input = Tensor::seeded_uniform([1, 8, 8], 1, 0.0, 1.0);
        for lib in EmbeddedLib::ALL {
            let mut model = lib.runtime().load_graph(&g, Device::gpu()).unwrap();
            let out = model.apply(&input).unwrap();
            assert_eq!(out.shape().dims(), &[1, 4]);
        }
    }
}
