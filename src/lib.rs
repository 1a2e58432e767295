//! # fpdq — Low-Bitwidth Floating-Point Quantization for Diffusion Models
//!
//! A from-scratch Rust reproduction of *"Low-Bitwidth Floating Point
//! Quantization for Efficient High-Quality Diffusion Models"* (Chen,
//! Giannoula, Moshovos — IISWC 2024, arXiv:2408.06995): post-training
//! quantization of diffusion U-Nets to FP8/FP4 with per-tensor
//! format+bias search and gradient-based rounding learning, evaluated
//! against the uniform-integer baseline on trained-from-scratch diffusion
//! pipelines.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`quant`] | `fpdq-core` | **the paper's method**: FP formats, Algorithm-1 search, rounding learning, PTQ driver, sparsity census |
//! | [`tensor`] | `fpdq-tensor` | n-d `f32` tensors, threaded matmul/conv |
//! | [`autograd`] | `fpdq-autograd` | tape-based reverse-mode autodiff |
//! | [`nn`] | `fpdq-nn` | U-Net, autoencoder, text encoder, quantization taps |
//! | [`data`] | `fpdq-data` | procedural datasets + caption grammar |
//! | [`diffusion`] | `fpdq-diffusion` | schedules, DDIM/DDPM, pipelines, model zoo |
//! | [`metrics`] | `fpdq-metrics` | FID / sFID / precision / recall / CLIP-sim |
//! | [`perf`] | `fpdq-perf` | roofline latency + memory characterization |
//! | [`kernels`] | `fpdq-kernels` | bit-packed storage, packed GEMM + implicit-GEMM conv with fused activation quant |
//! | [`container`] | `fpdq-container` | the versioned `.fpdq` on-disk model format: checksummed, zero-copy, crash-safe |
//! | [`serve`] | `fpdq-serve` | fault-tolerant HTTP serving: continuous batching, deadlines, panic isolation, model registry |
//!
//! # Quickstart
//!
//! ```no_run
//! use fpdq::prelude::*;
//! use rand::SeedableRng;
//!
//! // A trained latent-diffusion pipeline (cached after first training).
//! let pipeline = Zoo::open_default().ldm_sim();
//!
//! // Calibrate from the full-precision model's own sampling trajectories.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let calib = record_trajectories(
//!     &pipeline.unet, &pipeline.schedule, &[4, 8, 8], &[None],
//!     20, 6, 64, 40, &mut rng,
//! );
//!
//! // Quantize weights + activations to FP8 with the paper's method.
//! let report = quantize_unet(&pipeline.unet, &calib, &PtqConfig::fp(8, 8), &mut rng);
//! println!("mean weight MSE: {:.3e}", report.mean_weight_mse());
//!
//! // Generate — the quantizers run inside the U-Net's layer taps.
//! let images = pipeline.generate(16, 25, &mut rng);
//! assert_eq!(images.dims()[0], 16);
//! ```

//! Release notes: see `CHANGELOG.md` in the repository root.

pub use fpdq_autograd as autograd;
pub use fpdq_container as container;
pub use fpdq_core as quant;
pub use fpdq_data as data;
pub use fpdq_diffusion as diffusion;
pub use fpdq_kernels as kernels;
pub use fpdq_metrics as metrics;
pub use fpdq_nn as nn;
pub use fpdq_perf as perf;
pub use fpdq_serve as serve;
pub use fpdq_tensor as tensor;

/// The most common imports for working with fpdq.
pub mod prelude {
    pub use fpdq_core::{
        quantize_unet, record_trajectories, CalibrationSet, FpFormat, IntFormat, PtqConfig,
        RoundingConfig, Scheme, TensorQuantizer,
    };
    pub use fpdq_data::{CaptionedScenes, Dataset, TinyBedrooms, TinyCifar, Tokenizer};
    pub use fpdq_diffusion::{DdimSim, LdmSim, NoiseSchedule, SdSim, Zoo};
    pub use fpdq_metrics::{evaluate, FeatureNet, QualityMetrics, SimClip};
    pub use fpdq_nn::{Autoencoder, TextEncoder, UNet, UNetConfig};
    pub use fpdq_tensor::Tensor;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        // Spot-check that key types resolve through the facade paths.
        let fmt = crate::quant::FpFormat::new(4, 3);
        assert_eq!(fmt.total_bits(), 8);
        let t = crate::tensor::Tensor::ones(&[2, 2]);
        assert_eq!(t.sum(), 4.0);
        let ds = crate::data::TinyCifar::new();
        use crate::data::Dataset;
        assert_eq!(ds.size(), 8);
    }
}
