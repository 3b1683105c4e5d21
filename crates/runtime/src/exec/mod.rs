//! Graph execution strategies.
//!
//! * [`unfused`] — walks the graph node by node, one kernel per op. This is
//!   what a direct binding (SavedModel, DL4J) executes.
//! * [`fused`] — compiles the graph at load time: batch-norm folded into the
//!   preceding convolution, ReLU and residual `Add` fused into producer
//!   kernels, buffers and packing scratch reused across calls. This is the
//!   ONNX-Runtime-style
//!   optimised path (also used by the simulated TensorFlow Serving).
//! * [`gpu`] — the simulated accelerator: wall time follows the
//!   [`crate::device::GpuSpec`] cost model.

pub mod fused;
pub mod gpu;
pub mod unfused;

pub use fused::{FusedExec, StepInfo};
pub use gpu::GpuExec;
pub use unfused::UnfusedExec;

use crayfish_tensor::{Shape, Tensor};

use crate::error::RuntimeError;
use crate::Result;

/// Validate that `input` is a batched instance of `expected` (i.e. its shape
/// is `[batch, ..expected]` for some `batch >= 1`) and return the batch size.
pub(crate) fn check_batched_input(input: &Tensor, expected: &Shape) -> Result<usize> {
    let shape = input.shape();
    if shape.rank() != expected.rank() + 1 || shape.per_item() != *expected {
        return Err(RuntimeError::BadInput(format!(
            "expected input of shape [batch{}{expected_inner}], got {shape}",
            if expected.rank() > 0 { ", " } else { "" },
            expected_inner = expected
                .dims()
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(", "),
        )));
    }
    let batch = shape.dim(0);
    if batch == 0 {
        return Err(RuntimeError::BadInput("empty batch".into()));
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_matching_batched_shape() {
        let input = Tensor::zeros([4, 3, 8, 8]);
        let expected = Shape::from([3, 8, 8]);
        assert_eq!(check_batched_input(&input, &expected).unwrap(), 4);
    }

    #[test]
    fn rejects_wrong_shape_and_empty_batch() {
        let expected = Shape::from([3, 8, 8]);
        assert!(check_batched_input(&Tensor::zeros([3, 8, 8]), &expected).is_err());
        assert!(check_batched_input(&Tensor::zeros([2, 3, 8, 4]), &expected).is_err());
        assert!(check_batched_input(&Tensor::zeros([0, 3, 8, 8]), &expected).is_err());
    }
}
