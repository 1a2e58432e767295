//! # fpdq-nn
//!
//! Neural-network layers and model architectures for the fpdq workspace:
//! the diffusion U-Net (ResNet + attention blocks with skip connections,
//! optional cross-attention conditioning), a small convolutional
//! autoencoder (the latent-diffusion first stage), and a transformer text
//! encoder — i.e. every subnetwork in Figure 1 of the paper.
//!
//! # Two forward paths
//!
//! Every layer has:
//!
//! * an **inference path** (`forward`) over plain [`fpdq_tensor::Tensor`]s —
//!   this is where post-training quantization hooks ([`Tap`]) live:
//!   activation fake-quantizers, split-quantization of concatenated skip
//!   connections, and calibration capture;
//! * a **training path** (`forward_var`) over [`fpdq_autograd::Var`]s used
//!   to train the substrate models from scratch.
//!
//! The two paths are verified against each other in tests.
//!
//! # Quantization interface
//!
//! `fpdq-core` (the paper's method) depends on this crate, not vice versa.
//! The coupling surface is deliberately small: quantizable layers implement
//! [`QuantLayer`], models implement [`visit_quant_layers`] enumeration, and
//! activation quantizers are plain `Fn(&Tensor) -> Tensor` objects installed
//! into each layer's [`Tap`].
//!
//! [`visit_quant_layers`]: UNet::visit_quant_layers

pub mod attention;
pub mod autoencoder;
pub mod blocks;
pub mod layers;
pub mod module;
pub mod text;
pub mod unet;

pub use attention::{MultiHeadAttention, TransformerBlock};
pub use autoencoder::{Autoencoder, AutoencoderConfig};
pub use layers::{
    group_norm_ref, layer_norm_ref, ActQuantFn, Conv2d, GroupNorm, LayerNorm, Linear,
    PackedForwardFn, PackedSlot, QuantKind, QuantLayer, SuspendedAct, Tap,
};
pub use module::{load_params, save_params, ParamCollector};
pub use text::{TextEncoder, TextEncoderConfig};
pub use unet::{UNet, UNetConfig};
