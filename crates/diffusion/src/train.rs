//! From-scratch training of the substrate models (autoencoder, U-Net,
//! text-conditioned U-Net).
//!
//! The paper quantizes pre-trained checkpoints; these loops produce our
//! equivalents. They use the standard DDPM objective: predict the added
//! noise and minimise MSE.

use crate::schedule::NoiseSchedule;
use fpdq_autograd::{Adam, Tape};
use fpdq_nn::module::ParamCollector;
use fpdq_nn::{Autoencoder, TextEncoder, Train, UNet};
use fpdq_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// Hyper-parameters of a training run.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Optimizer steps.
    pub steps: usize,
    /// Batch size.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f32,
    /// Probability of dropping the text context per sample
    /// (classifier-free guidance training); ignored when unconditional.
    pub cfg_drop: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { steps: 500, batch: 16, lr: 2e-3, grad_clip: 1.0, cfg_drop: 0.1 }
    }
}

fn clip_and_step(
    opt: &mut Adam,
    params: &[fpdq_autograd::Param],
    mut grads: fpdq_autograd::Gradients,
    clip: f32,
) {
    if clip > 0.0 {
        let norm = grads.global_norm();
        if norm > clip {
            grads.scale(clip / norm);
        }
    }
    opt.step(params, &grads);
}

/// Builds the noised batch for the DDPM objective: per-sample timesteps,
/// `x_t = q_sample(x_0, t, ε)`, returning `(x_t, t_tensor, ε)`.
fn noised_batch(
    schedule: &NoiseSchedule,
    x0: &Tensor,
    rng: &mut StdRng,
) -> (Tensor, Tensor, Tensor) {
    let b = x0.dim(0);
    let noise = Tensor::randn(x0.dims(), rng);
    let ts = schedule.random_timesteps(b, rng);
    let mut xt_parts = Vec::with_capacity(b);
    for (i, &t) in ts.iter().enumerate() {
        let x0_i = x0.narrow(0, i, 1);
        let n_i = noise.narrow(0, i, 1);
        xt_parts.push(schedule.q_sample(&x0_i, t, &n_i));
    }
    let refs: Vec<&Tensor> = xt_parts.iter().collect();
    let xt = Tensor::concat(&refs, 0);
    let t_tensor = Tensor::from_vec(ts.iter().map(|&t| t as f32).collect(), &[b]);
    (xt, t_tensor, noise)
}

/// Trains an unconditional U-Net with the DDPM noise-prediction objective.
///
/// `next_batch` yields `x_0` batches `[b, c, h, w]` (images or latents).
/// Returns the per-step loss curve.
pub fn train_unet(
    unet: &UNet,
    schedule: &NoiseSchedule,
    cfg: &TrainConfig,
    rng: &mut StdRng,
    mut next_batch: impl FnMut(&mut StdRng) -> Tensor,
) -> Vec<f32> {
    let params = unet.params();
    let mut opt = Adam::with_lr(cfg.lr);
    let mut losses = Vec::with_capacity(cfg.steps);
    for _ in 0..cfg.steps {
        let x0 = next_batch(rng);
        let (xt, t_tensor, noise) = noised_batch(schedule, &x0, rng);
        let tape = Tape::new();
        let emb = unet.time_embedding(&t_tensor);
        let pred = unet.forward_with(&Train(&tape), &tape.constant(xt), &tape.constant(emb), None);
        let loss = pred.mse_loss(tape.constant(noise));
        losses.push(loss.value().item());
        let grads = tape.backward(loss);
        clip_and_step(&mut opt, &params, grads, cfg.grad_clip);
    }
    losses
}

/// Trains a text-conditioned U-Net jointly with its text encoder
/// (classifier-free guidance: each sample's context is dropped with
/// probability `cfg.cfg_drop`, replaced by the empty prompt).
///
/// `next_batch` yields `(x_0 latents, token sequences)`.
pub fn train_text_to_image(
    unet: &UNet,
    text: &TextEncoder,
    schedule: &NoiseSchedule,
    cfg: &TrainConfig,
    rng: &mut StdRng,
    mut next_batch: impl FnMut(&mut StdRng) -> (Tensor, Vec<Vec<usize>>),
) -> Vec<f32> {
    let mut params = unet.params();
    params.extend(text.params());
    let mut opt = Adam::with_lr(cfg.lr);
    let mut losses = Vec::with_capacity(cfg.steps);
    for _ in 0..cfg.steps {
        let (x0, mut tokens) = next_batch(rng);
        assert_eq!(x0.dim(0), tokens.len(), "batch/token count mismatch");
        for tok in tokens.iter_mut() {
            if rng.gen::<f32>() < cfg.cfg_drop {
                tok.clear(); // empty prompt = all padding = null context
            }
        }
        let (xt, t_tensor, noise) = noised_batch(schedule, &x0, rng);
        let tape = Tape::new();
        let ops = Train(&tape);
        let ctx = text.forward_with(&ops, text.embed_on_tape(&tape, &tokens));
        let emb = unet.time_embedding(&t_tensor);
        let pred = unet.forward_with(&ops, &tape.constant(xt), &tape.constant(emb), Some(&ctx));
        let loss = pred.mse_loss(tape.constant(noise));
        losses.push(loss.value().item());
        let grads = tape.backward(loss);
        clip_and_step(&mut opt, &params, grads, cfg.grad_clip);
    }
    losses
}

/// Trains the autoencoder with a plain reconstruction MSE.
///
/// `next_batch` yields image batches `[b, c, h, w]`.
pub fn train_autoencoder(
    ae: &Autoencoder,
    cfg: &TrainConfig,
    rng: &mut StdRng,
    mut next_batch: impl FnMut(&mut StdRng) -> Tensor,
) -> Vec<f32> {
    let params = ae.params();
    let mut opt = Adam::with_lr(cfg.lr);
    let mut losses = Vec::with_capacity(cfg.steps);
    for _ in 0..cfg.steps {
        let x = next_batch(rng);
        let tape = Tape::new();
        let xv = tape.constant(x);
        let ops = Train(&tape);
        let recon = ae.decode_with(&ops, &ae.encode_with(&ops, &xv));
        let loss = recon.mse_loss(xv);
        losses.push(loss.value().item());
        let grads = tape.backward(loss);
        clip_and_step(&mut opt, &params, grads, cfg.grad_clip);
    }
    losses
}

/// Mean of the final quarter of a loss curve (a stable "training
/// converged to" summary used by the zoo's sanity checks).
pub fn tail_loss(losses: &[f32]) -> f32 {
    let n = losses.len();
    if n == 0 {
        return f32::NAN;
    }
    let tail = &losses[n - (n / 4).max(1)..];
    tail.iter().sum::<f32>() / tail.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpdq_nn::{AutoencoderConfig, TextEncoderConfig, UNetConfig};
    use rand::SeedableRng;

    #[test]
    fn unet_training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(0);
        let unet = UNet::new(UNetConfig::tiny(2), &mut rng);
        let schedule = NoiseSchedule::linear_scaled(50);
        let cfg = TrainConfig { steps: 40, batch: 8, lr: 3e-3, ..TrainConfig::default() };
        // Single-mode data: a fixed blob image.
        let target = {
            let mut t = Tensor::full(&[1, 2, 8, 8], -0.8);
            for y in 2..6 {
                for x in 2..6 {
                    t.set(&[0, 0, y, x], 0.8);
                    t.set(&[0, 1, y, x], 0.3);
                }
            }
            t
        };
        let losses =
            train_unet(&unet, &schedule, &cfg, &mut rng, |_| target.broadcast_to(&[8, 2, 8, 8]));
        let head: f32 = losses[..5].iter().sum::<f32>() / 5.0;
        let tail = tail_loss(&losses);
        assert!(tail < head * 0.8, "loss did not drop: {head} -> {tail}");
    }

    #[test]
    fn text_to_image_training_runs_and_improves() {
        let mut rng = StdRng::seed_from_u64(1);
        let text_cfg = TextEncoderConfig { layers: 1, ..TextEncoderConfig::small(8, 4, 8) };
        let text = TextEncoder::new(text_cfg, &mut rng);
        let unet_cfg = UNetConfig { context_dim: Some(8), ..UNetConfig::tiny(2) };
        let unet = UNet::new(unet_cfg, &mut rng);
        let schedule = NoiseSchedule::linear_scaled(50);
        let cfg = TrainConfig { steps: 30, batch: 4, lr: 3e-3, ..TrainConfig::default() };
        let losses = train_text_to_image(&unet, &text, &schedule, &cfg, &mut rng, |r| {
            let x = Tensor::full(&[4, 2, 8, 8], if r.gen_bool(0.5) { 0.5 } else { -0.5 });
            (x, vec![vec![2, 3]; 4])
        });
        assert_eq!(losses.len(), 30);
        assert!(tail_loss(&losses) < losses[0], "no improvement");
    }

    #[test]
    fn autoencoder_training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(2);
        let ae = Autoencoder::new(AutoencoderConfig::small(2, 2), &mut rng);
        let cfg = TrainConfig { steps: 40, batch: 8, lr: 5e-3, ..TrainConfig::default() };
        let losses = train_autoencoder(&ae, &cfg, &mut rng, |r| {
            Tensor::rand_uniform(&[8, 2, 8, 8], -0.5, 0.5, r)
        });
        assert!(tail_loss(&losses) < losses[0] * 0.9, "ae loss did not drop");
    }

    /// Two-step loss curves of each training loop, pinned bit for bit:
    /// the forward, the tape it records and the Adam steps must all stay
    /// exactly as they are, on every ISA and worker count.
    #[test]
    fn two_step_losses_are_pinned_bit_for_bit() {
        let bits = |losses: Vec<f32>| losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        let schedule = NoiseSchedule::linear_scaled(50);
        let data = |r: &mut StdRng| Tensor::rand_uniform(&[2, 2, 8, 8], -1.0, 1.0, r);

        let mut rng = StdRng::seed_from_u64(0);
        let unet = UNet::new(UNetConfig::tiny(2), &mut rng);
        let cfg = TrainConfig { steps: 2, batch: 2, lr: 3e-3, ..TrainConfig::default() };
        let losses = train_unet(&unet, &schedule, &cfg, &mut rng, data);
        assert_eq!(bits(losses), [0x3fce6195, 0x3fbc51b1]);

        let mut rng = StdRng::seed_from_u64(1);
        let text_cfg = TextEncoderConfig { layers: 1, ..TextEncoderConfig::small(8, 4, 8) };
        let text = TextEncoder::new(text_cfg, &mut rng);
        let unet_cfg = UNetConfig { context_dim: Some(8), ..UNetConfig::tiny(2) };
        let unet = UNet::new(unet_cfg, &mut rng);
        let cfg = TrainConfig { cfg_drop: 0.5, ..cfg };
        let losses = train_text_to_image(&unet, &text, &schedule, &cfg, &mut rng, |r| {
            (data(r), vec![vec![2, 3], vec![5, 1, 7]])
        });
        assert_eq!(bits(losses), [0x3fb80c65, 0x3f996354]);

        let mut rng = StdRng::seed_from_u64(2);
        let ae = Autoencoder::new(AutoencoderConfig::small(2, 2), &mut rng);
        let cfg = TrainConfig { steps: 2, batch: 2, lr: 5e-3, ..TrainConfig::default() };
        let losses = train_autoencoder(&ae, &cfg, &mut rng, |r| {
            Tensor::rand_uniform(&[2, 2, 8, 8], -0.5, 0.5, r)
        });
        assert_eq!(bits(losses), [0x3f61091b, 0x3f1179d4]);
    }

    #[test]
    fn tail_loss_handles_short_curves() {
        assert!((tail_loss(&[4.0]) - 4.0).abs() < 1e-6);
        assert!((tail_loss(&[4.0, 2.0]) - 2.0).abs() < 1e-6);
        assert!(tail_loss(&[]).is_nan());
    }
}
