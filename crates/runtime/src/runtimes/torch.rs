//! Native PyTorch analog: the eager-mode runtime TorchServe hosts.
//!
//! Not one of the paper's three *embedded* libraries (Table 4 tests no
//! embedded Torch), but the execution engine behind the TorchServe external
//! server: eager kernels with none of the off-the-shelf CPU optimisations
//! the paper credits for TF-Serving's 3× edge (§5.1.1). Convolutions run
//! the direct sliding-window kernel instead of the GEMM-backed one.

use crayfish_models::ModelFormat;
use crayfish_tensor::NnGraph;

use crate::device::Device;
use crate::exec::{GpuExec, UnfusedExec};
use crate::precision::{Precision, QuantConfig};
use crate::runtimes::{EmbeddedRuntime, GpuModel, LoadedModel, UnfusedModel};
use crate::Result;

/// The PyTorch-eager-style runtime.
#[derive(Debug, Default, Clone, Copy)]
pub struct TorchRuntime {
    quant: QuantConfig,
}

impl TorchRuntime {
    /// Create the runtime (f32 plans).
    pub fn new() -> Self {
        TorchRuntime::default()
    }

    /// Compile CPU plans at `precision`. Only dense layers are affected:
    /// the naive sliding-window conv reads the raw f32 weights.
    pub fn with_precision(precision: Precision) -> Self {
        Self::with_quant(QuantConfig::with_precision(precision))
    }

    /// Compile CPU plans with an explicit quantization config.
    pub fn with_quant(quant: QuantConfig) -> Self {
        TorchRuntime { quant }
    }
}

impl EmbeddedRuntime for TorchRuntime {
    fn name(&self) -> &'static str {
        "torch"
    }

    fn expected_format(&self) -> ModelFormat {
        ModelFormat::Torch
    }

    fn load_graph(&self, graph: &NnGraph, device: Device) -> Result<Box<dyn LoadedModel>> {
        match device {
            Device::Cpu => Ok(Box::new(UnfusedModel {
                name: self.name(),
                exec: UnfusedExec::with_precision(graph.clone(), true, None, self.quant)?
                    .with_naive_conv(),
            })),
            Device::Gpu(spec) => Ok(Box::new(GpuModel {
                name: self.name(),
                exec: GpuExec::new(graph, spec)?,
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtimes::OnnxRuntime;
    use crayfish_models::tiny;
    use crayfish_sim::Stopwatch;
    use crayfish_tensor::Tensor;

    #[test]
    fn computes_the_same_function_as_onnx() {
        let g = tiny::tiny_cnn(3);
        let input = Tensor::seeded_uniform([2, 3, 8, 8], 1, -1.0, 1.0);
        let mut torch = TorchRuntime::new().load_graph(&g, Device::Cpu).unwrap();
        let mut onnx = OnnxRuntime::new().load_graph(&g, Device::Cpu).unwrap();
        let a = torch.apply(&input).unwrap();
        let b = onnx.apply(&input).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-4);
    }

    #[test]
    fn naive_kernels_are_slower_on_conv_models() {
        let g = tiny::tiny_cnn(3);
        // A larger spatial input magnifies the kernel difference.
        let input = Tensor::seeded_uniform([8, 3, 8, 8], 1, -1.0, 1.0);
        let mut torch = TorchRuntime::new().load_graph(&g, Device::Cpu).unwrap();
        let mut onnx = OnnxRuntime::new().load_graph(&g, Device::Cpu).unwrap();
        torch.apply(&input).unwrap();
        onnx.apply(&input).unwrap();
        let reps = 30;
        let sw = Stopwatch::start();
        for _ in 0..reps {
            torch.apply(&input).unwrap();
        }
        let t_torch = sw.elapsed();
        let sw = Stopwatch::start();
        for _ in 0..reps {
            onnx.apply(&input).unwrap();
        }
        let t_onnx = sw.elapsed();
        assert!(
            t_torch > t_onnx,
            "naive conv {t_torch:?} should be slower than fused {t_onnx:?}"
        );
    }
}
