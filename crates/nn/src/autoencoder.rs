//! A small convolutional autoencoder: the latent-diffusion first stage
//! ("Autoencoder/Decoder" subnetwork in Figure 1 of the paper).
//!
//! The paper's LDM and Stable Diffusion run the U-Net in the latent space
//! of a pre-trained autoencoder and invoke the decoder once at the end of
//! sampling; the autoencoder itself stays in full precision.

use crate::layers::{Conv2d, GroupNorm};
use crate::ops::{Infer, Ops};
use fpdq_autograd::Param;
use fpdq_tensor::Tensor;
use rand::Rng;

/// Architecture of an [`Autoencoder`].
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AutoencoderConfig {
    /// Image channels (e.g. 3 for RGB).
    pub image_channels: usize,
    /// Base feature width.
    pub base_channels: usize,
    /// Latent channels.
    pub latent_channels: usize,
    /// GroupNorm groups.
    pub norm_groups: usize,
}

impl AutoencoderConfig {
    /// A small config with a 2× spatial downsampling factor.
    pub fn small(image_channels: usize, latent_channels: usize) -> Self {
        AutoencoderConfig { image_channels, base_channels: 16, latent_channels, norm_groups: 4 }
    }
}

/// Convolutional encoder/decoder pair with a single 2× downsampling stage.
///
/// `encode` maps `[b, ic, h, w]` to `[b, lc, h/2, w/2]`; `decode` inverts
/// the spatial mapping.
#[derive(Debug)]
pub struct Autoencoder {
    cfg: AutoencoderConfig,
    // Encoder
    e_conv_in: Conv2d,
    e_norm1: GroupNorm,
    e_down: Conv2d,
    e_norm2: GroupNorm,
    e_out: Conv2d,
    // Decoder
    d_conv_in: Conv2d,
    d_norm1: GroupNorm,
    d_up: Conv2d,
    d_norm2: GroupNorm,
    d_out: Conv2d,
}

impl Autoencoder {
    /// Builds an autoencoder with freshly initialised weights.
    pub fn new(cfg: AutoencoderConfig, rng: &mut impl Rng) -> Self {
        let (ic, ch, lc, g) =
            (cfg.image_channels, cfg.base_channels, cfg.latent_channels, cfg.norm_groups);
        Autoencoder {
            cfg: cfg.clone(),
            e_conv_in: Conv2d::new("ae.e_conv_in", ic, ch, 3, 1, 1, rng),
            e_norm1: GroupNorm::new("ae.e_norm1", ch, g.min(ch), rng),
            e_down: Conv2d::new("ae.e_down", ch, ch * 2, 3, 2, 1, rng),
            e_norm2: GroupNorm::new("ae.e_norm2", ch * 2, g.min(ch * 2), rng),
            e_out: Conv2d::new("ae.e_out", ch * 2, lc, 3, 1, 1, rng),
            d_conv_in: Conv2d::new("ae.d_conv_in", lc, ch * 2, 3, 1, 1, rng),
            d_norm1: GroupNorm::new("ae.d_norm1", ch * 2, g.min(ch * 2), rng),
            d_up: Conv2d::new("ae.d_up", ch * 2, ch, 3, 1, 1, rng),
            d_norm2: GroupNorm::new("ae.d_norm2", ch, g.min(ch), rng),
            d_out: Conv2d::new("ae.d_out", ch, ic, 3, 1, 1, rng),
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &AutoencoderConfig {
        &self.cfg
    }

    /// Encodes images into latents (inference path).
    pub fn encode(&self, x: &Tensor) -> Tensor {
        self.encode_with(&Infer, x)
    }

    /// Decodes latents into images (inference path).
    pub fn decode(&self, z: &Tensor) -> Tensor {
        self.decode_with(&Infer, z)
    }

    /// Full reconstruction (inference path).
    pub fn reconstruct(&self, x: &Tensor) -> Tensor {
        self.decode(&self.encode(x))
    }

    /// The encoder on any interpreter: `[b, ic, h, w]` → `[b, lc, h/2, w/2]`.
    pub fn encode_with<O: Ops<P = Param>>(&self, ops: &O, x: &O::V) -> O::V {
        let h = ops.conv(&self.e_conv_in, x);
        let h = ops.silu(&ops.group_norm(&self.e_norm1, &h), "ae", "e_silu1");
        let h = ops.conv(&self.e_down, &h);
        let h = ops.silu(&ops.group_norm(&self.e_norm2, &h), "ae", "e_silu2");
        ops.conv(&self.e_out, &h)
    }

    /// The decoder on any interpreter: the spatial inverse of
    /// [`Self::encode_with`].
    pub fn decode_with<O: Ops<P = Param>>(&self, ops: &O, z: &O::V) -> O::V {
        let h = ops.conv(&self.d_conv_in, z);
        let h = ops.silu(&ops.group_norm(&self.d_norm1, &h), "ae", "d_silu1");
        let h = ops.conv(&self.d_up, &ops.upsample(&h));
        let h = ops.silu(&ops.group_norm(&self.d_norm2, &h), "ae", "d_silu2");
        ops.conv(&self.d_out, &h)
    }

    /// Collects `(name, param)` pairs.
    pub fn collect_params(&self, out: &mut Vec<(String, Param)>) {
        self.e_conv_in.collect_params(out);
        self.e_norm1.collect_params(out);
        self.e_down.collect_params(out);
        self.e_norm2.collect_params(out);
        self.e_out.collect_params(out);
        self.d_conv_in.collect_params(out);
        self.d_norm1.collect_params(out);
        self.d_up.collect_params(out);
        self.d_norm2.collect_params(out);
        self.d_out.collect_params(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Train;
    use fpdq_autograd::{Adam, Tape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let ae = Autoencoder::new(AutoencoderConfig::small(3, 4), &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let z = ae.encode(&x);
        assert_eq!(z.dims(), &[2, 4, 4, 4]);
        let y = ae.decode(&z);
        assert_eq!(y.dims(), x.dims());
    }

    #[test]
    fn var_and_tensor_paths_agree() {
        let mut rng = StdRng::seed_from_u64(2);
        let ae = Autoencoder::new(AutoencoderConfig::small(2, 3), &mut rng);
        let x = Tensor::randn(&[1, 2, 8, 8], &mut rng);
        let y1 = ae.reconstruct(&x);
        let tape = Tape::new();
        let ops = Train(&tape);
        let y2 = ae.decode_with(&ops, &ae.encode_with(&ops, &tape.constant(x)));
        for (a, b) in y1.data().iter().zip(y2.value().data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn few_steps_of_training_reduce_reconstruction_loss() {
        let mut rng = StdRng::seed_from_u64(3);
        let ae = Autoencoder::new(AutoencoderConfig::small(1, 2), &mut rng);
        let mut params = Vec::new();
        ae.collect_params(&mut params);
        let plist: Vec<_> = params.iter().map(|(_, p)| p.clone()).collect();
        let mut opt = Adam::with_lr(1e-2);
        let x = Tensor::rand_uniform(&[4, 1, 8, 8], -1.0, 1.0, &mut rng);
        let mut losses = Vec::new();
        for _ in 0..30 {
            let tape = Tape::new();
            let xv = tape.constant(x.clone());
            let ops = Train(&tape);
            let recon = ae.decode_with(&ops, &ae.encode_with(&ops, &xv));
            let loss = recon.mse_loss(xv);
            losses.push(loss.value().item());
            let grads = tape.backward(loss);
            opt.step(&plist, &grads);
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.8),
            "loss did not decrease: {:?} -> {:?}",
            losses.first(),
            losses.last()
        );
    }
}
