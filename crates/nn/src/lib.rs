//! # fpdq-nn
//!
//! Neural-network layers and model architectures for the fpdq workspace:
//! the diffusion U-Net (ResNet + attention blocks with skip connections,
//! optional cross-attention conditioning), a small convolutional
//! autoencoder (the latent-diffusion first stage), and a transformer text
//! encoder — i.e. every subnetwork in Figure 1 of the paper.
//!
//! # One forward, three interpreters
//!
//! Every block writes its forward once, generic over the [`Ops`] trait
//! (conv, linear, group/layer norm, SiLU, add, channel concat, upsample,
//! map↔token reshapes and attention). Three interpreters walk it:
//!
//! * [`Infer`] runs the ops on [`fpdq_tensor::Tensor`]s. This is the
//!   inference path, and where the post-training quantization hooks
//!   ([`Tap`]) live: activation fake-quantizers, split quantization of
//!   concatenated skip connections, and calibration capture.
//! * [`Train`] records the ops on an [`fpdq_autograd::Tape`], to train the
//!   substrate models from scratch.
//! * `fpdq-perf`'s census runs them on shapes, over a model built with
//!   [`ShapeOnly`] parameters, to cost every layer without allocating a
//!   weight.
//!
//! Layers are built by one constructor generic in their parameter source
//! ([`Init`]): any `Rng` for real weights, [`ShapeOnly`] for dims alone.
//! Entry points keep what is specific to them: [`UNet::try_forward`]
//! validates its inputs and builds the timestep embedding, and the text
//! encoder gathers its token embeddings.
//!
//! # Quantization interface
//!
//! `fpdq-core` (the paper's method) depends on this crate, not vice versa.
//! The coupling surface is deliberately small: quantizable layers implement
//! [`QuantLayer`], models implement [`visit_quant_layers`] enumeration, and
//! activation quantizers are plain `Fn(&Tensor) -> Tensor` objects installed
//! into each layer's [`Tap`].
//!
//! Each of [`Linear`] and [`Conv2d`] has one forward body, an engine call
//! of `fpdq-tensor` (`matmul::gemm_nt` or `conv::conv2d`) over a
//! `Weights` source. The dense forward and
//! [`QuantLayer::forward_with_weight`] pass `f32` weights; once the
//! packing driver in `fpdq-kernels` has installed a packed weight into
//! the layer's [`PackedSlot`], the same body runs on its decoded rows.
//! The slot holds data, not code: the packed weight, a bias copy, the
//! conv spec, and the activation stage when quantization is fused into
//! the engine. A fused layer's tap still captures but does not quantize;
//! it keeps its quantizers, so clearing the slot returns the layer to
//! fake-quantized dense execution as it was.
//!
//! [`visit_quant_layers`]: UNet::visit_quant_layers

pub mod attention;
pub mod autoencoder;
pub mod blocks;
pub mod layers;
pub mod module;
pub mod ops;
pub mod text;
pub mod unet;

pub use attention::{MultiHeadAttention, TransformerBlock};
pub use autoencoder::{Autoencoder, AutoencoderConfig};
pub use layers::{
    group_norm_ref, group_norm_ref_as, layer_norm_ref, ActQuantFn, Conv2d, GroupNorm, Init,
    LayerNorm, Linear, PackedSlot, QuantKind, QuantLayer, ShapeOnly, Tap,
};
pub use module::{load_params, save_params, ParamCollector};
pub use ops::{Infer, Ops, Train};
pub use text::{TextEncoder, TextEncoderConfig};
pub use unet::{UNet, UNetConfig};
