//! # fpdq-diffusion
//!
//! The diffusion-model substrate of the fpdq workspace: noise schedules,
//! DDPM/DDIM samplers, from-scratch training loops, and the four pipelines
//! the paper evaluates —
//!
//! * [`DdimSim`] — pixel-space DDIM (paper: DDIM on CIFAR-10),
//! * [`LdmSim`] — unconditional latent diffusion (paper: LDM on
//!   LSUN-Bedrooms),
//! * [`SdSim`] — text-to-image latent diffusion with classifier-free
//!   guidance (paper: Stable Diffusion), and
//! * the SDXL analogue (an [`SdSim`] with a ~3× larger U-Net, see
//!   [`zoo::Zoo::sdxl_sim`]).
//!
//! Each pipeline implements [`ServeModel`], and offline generation
//! ([`pipelines::sample`]) and the serving scheduler run the same
//! admission and step kernel over it ([`pipelines`], [`stepper`]).
//!
//! The paper quantizes *pre-trained* models; since none are available
//! offline, [`zoo::Zoo`] trains each substrate model once with a fixed
//! seed and caches the checkpoint, so every experiment harness reuses the
//! same full-precision baseline — exactly the role the paper's pretrained
//! checkpoints play.

pub mod conditioning;
pub mod pipelines;
pub mod sampler;
pub mod schedule;
pub mod stepper;
pub mod train;
pub mod zoo;

pub use conditioning::{eps_folded, Conditioning};
pub use pipelines::{DdimSim, LdmSim, SdSim, ServeModel};
pub use sampler::{ddim_sample, ddpm_sample, DdimParams};
pub use schedule::NoiseSchedule;
pub use stepper::{advance_batch_conditioned, DdimStepState};
pub use train::{train_autoencoder, train_text_to_image, train_unet, TrainConfig};
pub use zoo::Zoo;
