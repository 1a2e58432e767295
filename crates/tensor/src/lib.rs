//! # fpdq-tensor
//!
//! A small, dependency-light, CPU n-dimensional `f32` tensor library that
//! serves as the numerical substrate for the `fpdq` workspace (a
//! reproduction of *"Low-Bitwidth Floating Point Quantization for Efficient
//! High-Quality Diffusion Models"*, IISWC 2024).
//!
//! The library provides exactly what a diffusion-model stack needs:
//!
//! * contiguous row-major tensors with NumPy-style broadcasting,
//! * a threaded matrix multiply and batched matmul (attention), with the
//!   NT micro-kernel runtime-dispatched over explicit AVX2/NEON paths
//!   ([`simd`]) that stay bit-identical to the scalar reference,
//! * SiLU, sigmoid, softmax and the fused attention core on one vector
//!   `exp` ([`simd::exp_inplace_as`]) that returns `f32::exp`'s bits,
//! * per-thread kernel scratch reused across calls ([`scratch`]),
//! * one NT GEMM ([`matmul::gemm_nt`]) and one implicit-GEMM 2-D
//!   convolution ([`conv::conv2d`]) for dense and packed weights alike,
//!   with an optional fused activation stage ([`operand`]), plus the
//!   convolution gradient kernels that the autograd crate builds on,
//! * pooling / nearest-neighbour upsampling,
//! * deterministic random initialisation helpers, and
//! * a simple named-tensor binary serialization format for model
//!   checkpoints.
//!
//! # Example
//!
//! ```
//! use fpdq_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

pub mod conv;
pub mod error;
pub mod io;
pub mod matmul;
pub mod operand;
pub mod parallel;
pub mod rng;
pub mod schedule;
pub mod scratch;
pub mod shape;
pub mod simd;
mod tensor;

pub use error::FpdqError;
pub use io::{load_tensors, save_tensors, TensorIoError};
pub use shape::{broadcast_shapes, Shape};
pub use tensor::Tensor;
