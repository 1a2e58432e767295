//! # fpdq-core
//!
//! The paper's contribution: **low-bitwidth floating-point post-training
//! quantization for diffusion models** (Chen, Giannoula, Moshovos — IISWC
//! 2024, arXiv:2408.06995), plus the integer-PTQ baseline it is compared
//! against.
//!
//! The method (paper §IV-V):
//!
//! 1. [`format::FpFormat`] — simulated ExMy floating-point quantization
//!    with a real-valued per-tensor exponent bias (eqs. 6-9).
//! 2. [`search`] — Algorithm 1: per-tensor grid search over encodings
//!    (E2M5/E3M4/E4M3/E5M2 for FP8; E1M2/E2M1 for FP4) × 111 bias
//!    candidates, minimising MSE against the full-precision tensor.
//! 3. [`rounding`] — gradient-based rounding learning for FP4 weights
//!    (eqs. 12-14): replace round-to-nearest with `⌊·⌋ + σ(α)` and learn
//!    `α` by per-layer output reconstruction with a boundary-pushing
//!    regularizer.
//! 4. [`int`] — the uniform asymmetric integer baseline (eq. 4) with an
//!    MSE-searched clipping range (the Q-Diffusion-class baseline).
//! 5. [`driver`] — the end-to-end PTQ pipeline over a U-Net: calibration
//!    capture, greedy per-layer weight quantization (+ optional rounding
//!    learning), activation quantizer installation with Q-Diffusion's
//!    split quantization of concatenated skip connections, and reporting.
//! 6. [`sparsity`] — the weight-sparsity census of §VI-G (Fig. 11).
//!
//! # Quick example
//!
//! ```
//! use fpdq_core::format::FpFormat;
//! use fpdq_tensor::Tensor;
//!
//! // Standard E4M3 quantization of a tensor.
//! let fmt = FpFormat::new(4, 3);
//! let x = Tensor::from_vec(vec![0.07, -1.03, 250.0], &[3]);
//! let q = fmt.quantize(&x);
//! assert_eq!(q.data()[2], fmt.max_value()); // clipped to c
//! ```

pub mod boundary;
pub mod calib;
pub mod driver;
pub mod format;
pub mod int;
pub mod perchannel;
pub mod quantizer;
pub mod rounding;
pub mod search;
pub mod sparsity;

pub use boundary::{BoundaryQuantizer, PanelQuantizer};
/// The strided row layout the quantizers write through (defined next to
/// the engines' operands in `fpdq-tensor`).
pub use fpdq_tensor::operand::Planes;
// The workspace error taxonomy lives in `fpdq-tensor` (the bottom of the
// dependency graph, so `fpdq-nn`/`fpdq-diffusion` can return it too) and
// is re-exported here as the user-facing path.
pub use calib::{record_trajectories, CalibPoint, CalibrationSet};
pub use driver::{quantize_unet, LayerReport, PtqConfig, QuantReport, Scheme};
pub use format::FpFormat;
pub use fpdq_tensor::FpdqError;
pub use int::IntFormat;
pub use perchannel::{search_fp_per_channel, PerChannelFp};
pub use quantizer::TensorQuantizer;
pub use rounding::{learn_rounding, RoundingConfig};
pub use search::{search_fp_format, search_int_format, SearchResult};
