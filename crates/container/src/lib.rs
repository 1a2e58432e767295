//! # fpdq-container
//!
//! The versioned on-disk format (`.fpdq`) for quantized, packed diffusion
//! models — the artifact `fpdq pack` writes and `fpdq generate`/`fpdq
//! serve` load.
//!
//! A container bundles everything a cold process needs to run a packed
//! pipeline without re-quantizing:
//!
//! * the **architecture** (U-Net, and for latent pipelines the
//!   autoencoder / text encoder configs) plus the noise schedule;
//! * the **PTQ outcome**: per-layer weight and activation formats,
//!   including the searched real-valued exponent biases of the paper's
//!   ExMy formats and the trunk/skip split formats;
//! * the **full-precision parameters** (tensor archives, so the dense
//!   fallback and bias-add paths are intact);
//! * the **packed weight payloads**, 64-byte aligned, loaded as zero-copy
//!   [`bytes::Bytes`] views and installed through
//!   [`fpdq_kernels::install_packed`] — model load skips the whole
//!   quantize-and-pack cost (the `cold_start` group of the bench suite
//!   measures the gap).
//!
//! **Robustness contract.** Writes are crash-safe (temp file + fsync +
//! atomic rename: a killed `fpdq pack` can never leave a torn file at the
//! target path). Loads are strict: every length, offset, alignment,
//! checksum, version and numeric domain is validated against typed
//! [`fpdq_tensor::FpdqError`] variants *before* any payload byte is
//! interpreted — a truncated, bit-flipped or version-skewed container is
//! rejected, never a panic or UB (`tests/corruption.rs` fuzzes every
//! section). The exact byte layout and the version-compatibility policy
//! live in `docs/container.md`.
//!
//! **Bit-identity contract.** Generation from a container-loaded model is
//! byte-for-byte identical to the in-process quantized+packed model it
//! was saved from, per format (FP4/FP8/INT4/INT8) and per ISA: the loader
//! replays the exact `quantize_unet` + `pack_unet` installation sequence
//! (taps first, then packed weights) and packed payloads/tables rebuild
//! through the same code paths as the encoder (`tests/roundtrip.rs`).

pub mod layout;
pub mod meta;
pub mod read;
pub mod write;

pub use layout::{ALIGN, FORMAT_VERSION, MAGIC};
pub use meta::{ContainerMeta, LayerEntry, PipelineKind};
pub use read::{load, load_bytes, LoadedModel};
pub use write::{container_bytes, save};

use fpdq_diffusion::{DdimSim, LdmSim, SdSim, ServeModel};
use fpdq_nn::UNet;

/// An owned pipeline of any family — what [`read::load`] returns and
/// [`write::save`] consumes.
#[allow(clippy::large_enum_variant)] // one per process; boxing buys nothing
pub enum SimPipeline {
    /// Pixel-space DDIM.
    Ddim(DdimSim),
    /// Unconditional latent diffusion.
    Ldm(LdmSim),
    /// Text-to-image latent diffusion.
    Sd(SdSim),
}

impl SimPipeline {
    /// Which family this is.
    pub fn kind(&self) -> PipelineKind {
        match self {
            SimPipeline::Ddim(_) => PipelineKind::Ddim,
            SimPipeline::Ldm(_) => PipelineKind::Ldm,
            SimPipeline::Sd(_) => PipelineKind::Sd,
        }
    }

    /// The denoising U-Net (the quantized/packed model).
    pub fn unet(&self) -> &UNet {
        match self {
            SimPipeline::Ddim(p) => &p.unet,
            SimPipeline::Ldm(p) => &p.unet,
            SimPipeline::Sd(p) => &p.unet,
        }
    }

    /// The pipeline as a generation loop sees it.
    pub fn model(&self) -> &dyn ServeModel {
        match self {
            SimPipeline::Ddim(p) => p,
            SimPipeline::Ldm(p) => p,
            SimPipeline::Sd(p) => p,
        }
    }

    /// [`Self::model`], owned (what a serving scheduler holds).
    pub fn into_model(self) -> Box<dyn ServeModel> {
        match self {
            SimPipeline::Ddim(p) => Box::new(p),
            SimPipeline::Ldm(p) => Box::new(p),
            SimPipeline::Sd(p) => Box::new(p),
        }
    }
}
