//! The evaluated pipelines — pixel-space DDIM, unconditional latent
//! diffusion, and text-to-image latent diffusion with classifier-free
//! guidance (Figure 1 of the paper) — and the one generation loop that
//! offline sampling and serving share.
//!
//! # What a pipeline is
//!
//! [`ServeModel`] is everything a generation loop needs from a pipeline:
//! the diffusion-space shape, the schedule, the `x_0` clamp, the batched
//! noise prediction, how a request's prompt becomes [`Conditioning`],
//! and how a finished `x_0` becomes an image. It is implemented once per
//! pipeline, here.
//!
//! # One generation loop
//!
//! [`admit`] turns one `(seed, prompt, guidance)` into a
//! [`DdimStepState`] (or a typed error), and
//! [`advance_batch_conditioned`] is the step kernel. The serving
//! scheduler admits requests one by one and interleaves them at step
//! boundaries; [`sample`] admits a chunk of at most [`GEN_CHUNK`] seeds,
//! steps it in lockstep and finishes it with one [`ServeModel::finish`]
//! call. Both run the same admission and step kernel, so a served image
//! equals the offline one for the same `(seed, prompt, steps)` by
//! construction.
//!
//! Every image is a pure function of its own seed and conditioning
//! ([`crate::stepper`]), so the batch size is a *throughput* knob —
//! larger batches amortise the packed engine's per-step weight decode
//! over more images — and never changes what a master seed generates.
//! The `generate`/`generate_seeded` methods are panicking shorthands
//! for [`sample`].

use crate::conditioning::Conditioning;
use crate::sampler::DdimParams;
use crate::schedule::NoiseSchedule;
use crate::stepper::{advance_batch_conditioned, DdimStepState};
use fpdq_data::Tokenizer;
use fpdq_nn::{Autoencoder, TextEncoder, UNet};
use fpdq_tensor::{FpdqError, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

/// Upper bound on the batch size [`sample`] steps at once (keeps the
/// attention intermediates small).
pub const GEN_CHUNK: usize = 16;

/// Per-image seeds for `n` images, drawn once from the master RNG so the
/// images are independent of how they are later chunked into batches.
pub fn per_image_seeds(n: usize, rng: &mut StdRng) -> Vec<u64> {
    (0..n).map(|_| rng.gen()).collect()
}

/// What a generation loop needs from a pipeline. Conditioning is a
/// first-class engine concept: a request's prompt is encoded **once at
/// admission** into a [`Conditioning`] its step state carries, and the
/// CFG double forward folds into the shared engine batch
/// ([`crate::conditioning::eps_folded`]).
pub trait ServeModel {
    /// Sample dims `[c, h, w]` of the diffusion space.
    fn chw(&self) -> [usize; 3];
    /// The noise schedule (bounds the per-request `steps`).
    fn schedule(&self) -> &NoiseSchedule;
    /// `x_0` clamp during sampling (pixel pipelines clamp, latent don't).
    fn clip_x0(&self) -> Option<f32>;
    /// Batched noise prediction `ε(x, t, ctx)`; per-image timesteps,
    /// optional per-row conditioning context.
    fn eps(&self, x: &Tensor, t: &Tensor, ctx: Option<&Tensor>) -> Tensor;
    /// Turns a request's `prompt`/`guidance` into the [`Conditioning`]
    /// its step state will carry. Runs once, at admission.
    /// Unconditional pipelines accept neither field; that is the
    /// default implementation.
    fn conditioning(
        &self,
        prompt: Option<&str>,
        guidance: Option<f32>,
    ) -> Result<Conditioning, FpdqError> {
        if prompt.is_some() || guidance.is_some() {
            return Err(FpdqError::invalid(
                "this model is unconditional: 'prompt' and 'guidance' are not supported",
            ));
        }
        Ok(Conditioning::Uncond)
    }
    /// Maps finished `x_0` estimates `[n, c, h, w]` to images (clamp /
    /// decode). Row `i` of the output depends only on row `i` of `x`.
    fn finish(&self, x: &Tensor) -> Tensor;
}

/// Admits one image: resolves its conditioning and starts its step
/// state. Both failure modes are typed [`FpdqError::InvalidArgument`]s —
/// a prompt or guidance the model cannot take, and `steps` outside
/// `1..=schedule.steps()`.
pub fn admit(
    model: &dyn ServeModel,
    seed: u64,
    steps: usize,
    prompt: Option<&str>,
    guidance: Option<f32>,
) -> Result<DdimStepState, FpdqError> {
    let cond = model.conditioning(prompt, guidance)?;
    let params = DdimParams { steps, eta: 0.0, clip_x0: model.clip_x0() };
    DdimStepState::new_conditioned(model.schedule(), model.chw(), seed, params, cond)
}

/// Generates one image per seed: admits `batch` seeds at a time
/// (clamped to `1..=GEN_CHUNK`), steps each chunk with
/// [`advance_batch_conditioned`] and finishes it with one
/// [`ServeModel::finish`]. `prompts`, when given, pairs one prompt with
/// each seed (conditional models; the model's default guidance applies).
///
/// The image produced for a seed is identical whatever the batch size
/// and whatever the rest of the seed list.
///
/// # Errors
///
/// [`FpdqError::ShapeMismatch`] when the prompt and seed counts differ;
/// otherwise whatever [`admit`] rejects.
pub fn sample(
    model: &dyn ServeModel,
    seeds: &[u64],
    prompts: Option<&[String]>,
    steps: usize,
    batch: usize,
) -> Result<Tensor, FpdqError> {
    if let Some(prompts) = prompts.filter(|p| p.len() != seeds.len()) {
        return Err(FpdqError::shape(format!(
            "need one seed per prompt: {} prompts, {} seeds",
            prompts.len(),
            seeds.len()
        )));
    }
    let batch = batch.clamp(1, GEN_CHUNK);
    let mut images = Vec::new();
    for (k, chunk) in seeds.chunks(batch).enumerate() {
        let mut states = chunk
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let prompt = prompts.map(|p| p[k * batch + i].as_str());
                admit(model, seed, steps, prompt, None)
            })
            .collect::<Result<Vec<_>, _>>()?;
        while !states[0].is_done() {
            let mut refs: Vec<&mut DdimStepState> = states.iter_mut().collect();
            advance_batch_conditioned(&mut refs, |x, t, ctx| model.eps(x, t, ctx));
        }
        let x0: Vec<Tensor> = states.into_iter().map(DdimStepState::into_result).collect();
        images.push(model.finish(&Tensor::concat(&x0.iter().collect::<Vec<_>>(), 0)));
    }
    if images.is_empty() {
        // Shape the empty result through `finish` (latent pipelines
        // decode to a different size).
        let [c, h, w] = model.chw();
        return Ok(model.finish(&Tensor::zeros(&[0, c, h, w])));
    }
    Ok(Tensor::concat(&images.iter().collect::<Vec<_>>(), 0))
}

/// Pixel-space DDIM pipeline (the paper's DDIM-on-CIFAR-10 configuration).
#[derive(Debug)]
pub struct DdimSim {
    /// The denoising network (quantization taps live inside its layers).
    pub unet: UNet,
    /// The training noise schedule.
    pub schedule: NoiseSchedule,
    /// Image channels.
    pub channels: usize,
    /// Image spatial size.
    pub image_size: usize,
}

impl DdimSim {
    /// Generates `n` images `[n, c, s, s]` with `steps` DDIM steps.
    ///
    /// Per-image seeds are drawn from `rng`, so fixing the master seed
    /// fixes the generated batch across quantization configurations
    /// (paper §VI-C) — and across batch sizes.
    pub fn generate(&self, n: usize, steps: usize, rng: &mut StdRng) -> Tensor {
        self.generate_seeded(&per_image_seeds(n, rng), steps, GEN_CHUNK)
    }

    /// Generates one image per seed, `batch` images per U-Net call.
    ///
    /// # Panics
    ///
    /// Panics with [`sample`]'s typed error (out-of-range `steps`).
    pub fn generate_seeded(&self, seeds: &[u64], steps: usize, batch: usize) -> Tensor {
        sample(self, seeds, None, steps, batch).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl ServeModel for DdimSim {
    fn chw(&self) -> [usize; 3] {
        [self.channels, self.image_size, self.image_size]
    }
    fn schedule(&self) -> &NoiseSchedule {
        &self.schedule
    }
    fn clip_x0(&self) -> Option<f32> {
        Some(1.0)
    }
    fn eps(&self, x: &Tensor, t: &Tensor, _ctx: Option<&Tensor>) -> Tensor {
        self.unet.forward(x, t, None)
    }
    fn finish(&self, x: &Tensor) -> Tensor {
        x.clamp(-1.0, 1.0)
    }
}

/// Unconditional latent-diffusion pipeline (the paper's LDM-on-Bedrooms
/// configuration): U-Net denoises in the autoencoder's latent space; the
/// decoder runs once at the end.
#[derive(Debug)]
pub struct LdmSim {
    /// First-stage autoencoder (kept full-precision, as in the paper).
    pub ae: Autoencoder,
    /// The latent denoising network.
    pub unet: UNet,
    /// The training noise schedule.
    pub schedule: NoiseSchedule,
    /// Latent channels.
    pub latent_channels: usize,
    /// Latent spatial size.
    pub latent_size: usize,
    /// Multiplier bringing raw latents to ~unit variance.
    pub latent_scale: f32,
}

impl LdmSim {
    /// Encodes images to scaled latents (the diffusion space).
    pub fn encode_scaled(&self, images: &Tensor) -> Tensor {
        self.ae.encode(images).mul_scalar(self.latent_scale)
    }

    /// Decodes scaled latents back to images.
    pub fn decode_scaled(&self, latents: &Tensor) -> Tensor {
        self.ae.decode(&latents.mul_scalar(1.0 / self.latent_scale)).clamp(-1.0, 1.0)
    }

    /// Generates `n` images with `steps` DDIM steps.
    pub fn generate(&self, n: usize, steps: usize, rng: &mut StdRng) -> Tensor {
        self.generate_seeded(&per_image_seeds(n, rng), steps, GEN_CHUNK)
    }

    /// Generates one image per seed, `batch` images per U-Net call.
    ///
    /// # Panics
    ///
    /// Panics with [`sample`]'s typed error (out-of-range `steps`).
    pub fn generate_seeded(&self, seeds: &[u64], steps: usize, batch: usize) -> Tensor {
        sample(self, seeds, None, steps, batch).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl ServeModel for LdmSim {
    fn chw(&self) -> [usize; 3] {
        [self.latent_channels, self.latent_size, self.latent_size]
    }
    fn schedule(&self) -> &NoiseSchedule {
        &self.schedule
    }
    fn clip_x0(&self) -> Option<f32> {
        None
    }
    fn eps(&self, x: &Tensor, t: &Tensor, _ctx: Option<&Tensor>) -> Tensor {
        self.unet.forward(x, t, None)
    }
    fn finish(&self, x: &Tensor) -> Tensor {
        self.decode_scaled(x)
    }
}

/// Text-to-image latent diffusion with classifier-free guidance (the
/// paper's Stable Diffusion / SDXL configuration).
#[derive(Debug)]
pub struct SdSim {
    /// Prompt tokenizer.
    pub tokenizer: Tokenizer,
    /// Text encoder (runs once per prompt; full precision, as in the
    /// paper).
    pub text: TextEncoder,
    /// First-stage autoencoder.
    pub ae: Autoencoder,
    /// The conditional latent denoising network.
    pub unet: UNet,
    /// The training noise schedule.
    pub schedule: NoiseSchedule,
    /// Latent channels.
    pub latent_channels: usize,
    /// Latent spatial size.
    pub latent_size: usize,
    /// Multiplier bringing raw latents to ~unit variance.
    pub latent_scale: f32,
    /// Classifier-free guidance scale (1 = no guidance).
    pub guidance: f32,
}

impl SdSim {
    /// Encodes images to scaled latents.
    pub fn encode_scaled(&self, images: &Tensor) -> Tensor {
        self.ae.encode(images).mul_scalar(self.latent_scale)
    }

    /// Decodes scaled latents back to images.
    pub fn decode_scaled(&self, latents: &Tensor) -> Tensor {
        self.ae.decode(&latents.mul_scalar(1.0 / self.latent_scale)).clamp(-1.0, 1.0)
    }

    /// Encodes prompts into conditioning context `[n, max_len, dim]`.
    pub fn encode_prompts(&self, prompts: &[String]) -> Tensor {
        let tokens: Vec<Vec<usize>> = prompts.iter().map(|p| self.tokenizer.encode(p)).collect();
        self.text.forward(&tokens)
    }

    /// The null (empty-prompt) context used for guidance, batched to `n`.
    pub fn null_context(&self, n: usize) -> Tensor {
        let empty: Vec<Vec<usize>> = vec![Vec::new(); n];
        self.text.forward(&empty)
    }

    /// Generates one image per prompt with `steps` DDIM steps and
    /// classifier-free guidance.
    pub fn generate(&self, prompts: &[String], steps: usize, rng: &mut StdRng) -> Tensor {
        self.generate_seeded(prompts, &per_image_seeds(prompts.len(), rng), steps, GEN_CHUNK)
    }

    /// Generates one image per (prompt, seed) pair, `batch` images per
    /// folded U-Net call.
    ///
    /// # Panics
    ///
    /// Panics with [`sample`]'s typed error (seed/prompt count mismatch,
    /// out-of-range `steps`).
    pub fn generate_seeded(
        &self,
        prompts: &[String],
        seeds: &[u64],
        steps: usize,
        batch: usize,
    ) -> Tensor {
        sample(self, seeds, Some(prompts), steps, batch).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl ServeModel for SdSim {
    fn chw(&self) -> [usize; 3] {
        [self.latent_channels, self.latent_size, self.latent_size]
    }
    fn schedule(&self) -> &NoiseSchedule {
        &self.schedule
    }
    fn clip_x0(&self) -> Option<f32> {
        None
    }
    fn eps(&self, x: &Tensor, t: &Tensor, ctx: Option<&Tensor>) -> Tensor {
        self.unet.forward(x, t, ctx)
    }
    fn conditioning(
        &self,
        prompt: Option<&str>,
        guidance: Option<f32>,
    ) -> Result<Conditioning, FpdqError> {
        if let Some(g) = guidance.filter(|g| !g.is_finite()) {
            return Err(FpdqError::invalid(format!("'guidance' must be finite, got {g}")));
        }
        // The text encoder runs full-precision (the paper quantizes only
        // the U-Net), once per image. The null context is
        // prompt-independent but cheap at n = 1; re-encoding it here
        // keeps the model immutable across requests.
        match prompt {
            Some(p) => {
                let cond = self.encode_prompts(&[p.to_string()]);
                let g = guidance.unwrap_or(self.guidance);
                Ok(Conditioning::guided(cond, self.null_context(1), g))
            }
            None if guidance.is_some() => {
                Err(FpdqError::invalid("'guidance' requires a 'prompt' to guide towards"))
            }
            // A prompt-less request on a conditional model samples the
            // null context — the model's own unconditional distribution.
            None => Ok(Conditioning::Direct(self.null_context(1))),
        }
    }
    fn finish(&self, x: &Tensor) -> Tensor {
        self.decode_scaled(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::ddim_sample_seeded;
    use fpdq_nn::{AutoencoderConfig, TextEncoderConfig, UNetConfig};
    use rand::SeedableRng;

    fn micro_ddim() -> DdimSim {
        let mut rng = StdRng::seed_from_u64(1);
        DdimSim {
            unet: UNet::new(UNetConfig::tiny(3), &mut rng),
            schedule: NoiseSchedule::linear_scaled(20),
            channels: 3,
            image_size: 8,
        }
    }

    fn micro_ldm() -> LdmSim {
        let mut rng = StdRng::seed_from_u64(3);
        LdmSim {
            ae: Autoencoder::new(AutoencoderConfig::small(3, 4), &mut rng),
            unet: UNet::new(UNetConfig::tiny(4), &mut rng),
            schedule: NoiseSchedule::linear_scaled(20),
            latent_channels: 4,
            latent_size: 8,
            latent_scale: 1.0,
        }
    }

    fn micro_sd(guidance: f32) -> SdSim {
        let mut rng = StdRng::seed_from_u64(21);
        let tokenizer = Tokenizer::caption_grammar();
        let text = TextEncoder::new(
            TextEncoderConfig {
                layers: 1,
                ..TextEncoderConfig::small(tokenizer.vocab_size(), 8, 8)
            },
            &mut rng,
        );
        SdSim {
            tokenizer,
            text,
            ae: Autoencoder::new(AutoencoderConfig::small(3, 4), &mut rng),
            unet: UNet::new(UNetConfig { context_dim: Some(8), ..UNetConfig::tiny(4) }, &mut rng),
            schedule: NoiseSchedule::linear_scaled(20),
            latent_channels: 4,
            latent_size: 8,
            latent_scale: 1.0,
            guidance,
        }
    }

    fn captions(n: usize) -> Vec<String> {
        let all = ["a red ball in a dark room", "a blue box in a bright room"];
        (0..n).map(|i| all[i % all.len()].to_string()).collect()
    }

    #[test]
    fn ddim_pipeline_shapes_and_range() {
        let p = micro_ddim();
        let mut rng = StdRng::seed_from_u64(2);
        let imgs = p.generate(3, 4, &mut rng);
        assert_eq!(imgs.dims(), &[3, 3, 8, 8]);
        assert!(imgs.min() >= -1.0 && imgs.max() <= 1.0);
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let p = micro_ddim();
        let a = p.generate(2, 4, &mut StdRng::seed_from_u64(5));
        let b = p.generate(2, 4, &mut StdRng::seed_from_u64(5));
        let c = p.generate(2, 4, &mut StdRng::seed_from_u64(6));
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());
    }

    #[test]
    fn batch_size_does_not_change_generated_images() {
        // The batch knob is pure throughput: the same seeds yield the
        // same images at every batch size, for every pipeline — which
        // also pins the per-chunk `finish` decode of the latent ones.
        let (ddim, ldm, sd) = (micro_ddim(), micro_ldm(), micro_sd(2.0));
        let prompts = captions(5);
        let cases: [(&dyn ServeModel, Option<&[String]>); 3] =
            [(&ddim, None), (&ldm, None), (&sd, Some(&prompts))];
        let seeds = per_image_seeds(5, &mut StdRng::seed_from_u64(9));
        for (k, (model, prompts)) in cases.into_iter().enumerate() {
            let want = sample(model, &seeds, prompts, 3, 1).unwrap();
            assert_eq!(want.dim(0), 5);
            for batch in [2usize, 3, 5, 16] {
                let got = sample(model, &seeds, prompts, 3, batch).unwrap();
                assert_eq!(got.dims(), want.dims());
                assert_eq!(
                    got.data(),
                    want.data(),
                    "pipeline {k}: batch {batch} changed the images"
                );
            }
        }
    }

    #[test]
    fn seeded_generation_is_order_independent() {
        let p = micro_ddim();
        let fwd = p.generate_seeded(&[11, 22, 33], 3, 2);
        let rev = p.generate_seeded(&[33, 22, 11], 3, 2);
        for i in 0..3 {
            assert_eq!(
                fwd.narrow(0, i, 1).data(),
                rev.narrow(0, 2 - i, 1).data(),
                "image {i} depends on batch composition"
            );
        }
    }

    #[test]
    fn try_generate_rejects_out_of_range_steps() {
        let p = micro_ddim();
        for steps in [0, p.schedule.steps() + 1] {
            let r = sample(&p, &[1], None, steps, 1);
            assert!(matches!(r, Err(FpdqError::InvalidArgument(_))), "steps {steps} accepted");
        }
        // In-range steps agree bit-exactly with the panicking path.
        let ok = sample(&p, &[1, 2], None, 3, 2).unwrap();
        assert_eq!(ok.data(), p.generate_seeded(&[1, 2], 3, 2).data());
    }

    #[test]
    #[should_panic(expected = "steps must be in 1..=20, got 21")]
    fn generate_panics_with_the_typed_steps_message() {
        micro_ddim().generate_seeded(&[1], 21, 1);
    }

    #[test]
    fn zero_count_generation_returns_empty_batch() {
        let p = micro_ddim();
        let imgs = p.generate(0, 3, &mut StdRng::seed_from_u64(1));
        assert_eq!(imgs.dims(), &[0, 3, 8, 8]);
    }

    #[test]
    fn zero_count_latent_generation_returns_empty_decoded_batch() {
        // The latent pipelines shape their empty result through the
        // decoder (an empty batch must still carry the decoded dims).
        let imgs = micro_ldm().generate(0, 3, &mut StdRng::seed_from_u64(13));
        assert_eq!(imgs.dims(), &[0, 3, 16, 16]);
    }

    #[test]
    fn ldm_pipeline_roundtrip_shapes() {
        let p = micro_ldm();
        let imgs = p.generate(2, 3, &mut StdRng::seed_from_u64(4));
        assert_eq!(imgs.dims(), &[2, 3, 16, 16]);
        // encode/decode round shape.
        let z = p.encode_scaled(&imgs);
        assert_eq!(z.dims(), &[2, 4, 8, 8]);
    }

    #[test]
    fn sd_pipeline_generates_per_prompt() {
        let p = micro_sd(2.0);
        let prompts = captions(2);
        let imgs = p.generate(&prompts, 3, &mut StdRng::seed_from_u64(6));
        assert_eq!(imgs.dims(), &[2, 3, 16, 16]);
        // Same seed, different prompts -> different images (conditioning
        // reaches the output even in an untrained net).
        let other = ["a cyan ring in a bright room".to_string(), prompts[1].clone()];
        let imgs2 = p.generate(&other, 3, &mut StdRng::seed_from_u64(6));
        let first_diff: f32 = imgs
            .narrow(0, 0, 1)
            .data()
            .iter()
            .zip(imgs2.narrow(0, 0, 1).data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(first_diff > 1e-4, "prompt change had no effect");
        // A seed/prompt count mismatch is a typed error from the loop.
        let err = sample(&p, &[1], Some(&prompts), 3, 2).unwrap_err();
        assert!(matches!(err, FpdqError::ShapeMismatch(_)), "{err}");
    }

    #[test]
    fn guidance_one_skips_null_branch() {
        // With guidance == 1 the pipeline must produce cond-only results;
        // we verify it differs from guidance = 3 on the same seed.
        let mut p = micro_sd(1.0);
        let prompts = captions(1);
        let a = p.generate(&prompts, 3, &mut StdRng::seed_from_u64(8));
        p.guidance = 3.0;
        let b = p.generate(&prompts, 3, &mut StdRng::seed_from_u64(8));
        assert_ne!(a.data(), b.data());
    }

    #[test]
    fn folded_cfg_matches_the_double_forward_bitwise() {
        // The fold contract: one 2n-row engine call per step must
        // reproduce the two sequential n-row calls bit-for-bit (U-Net
        // batch independence + elementwise guidance mix).
        let p = micro_sd(3.0);
        let prompts = captions(2);
        let seeds = [11u64, 22];
        let got = p.generate_seeded(&prompts, &seeds, 3, 2);

        // Reference: the loop sampler with cond and null halves as two
        // separate forwards per step.
        let cond = p.encode_prompts(&prompts);
        let null = p.null_context(prompts.len());
        let z = ddim_sample_seeded(
            &p.schedule,
            p.chw(),
            &seeds,
            DdimParams { steps: 3, eta: 0.0, clip_x0: None },
            |x, t| {
                let e_cond = p.unet.forward(x, t, Some(&cond));
                let e_null = p.unet.forward(x, t, Some(&null));
                e_null.add(&e_cond.sub(&e_null).mul_scalar(p.guidance))
            },
        );
        let want = p.decode_scaled(&z);
        assert_eq!(got.data(), want.data(), "fold diverged from the double forward");
    }

    #[test]
    fn chunking_past_gen_chunk_matches_solo_runs() {
        // More prompts than one chunk holds (17 > GEN_CHUNK = 16) must
        // produce exactly the images their batch-1 solo runs produce.
        let p = micro_sd(2.0);
        let prompts = captions(17);
        let seeds: Vec<u64> = (0..17).map(|i| 100 + i as u64).collect();
        let batched = p.generate_seeded(&prompts, &seeds, 2, 16);
        assert_eq!(batched.dim(0), 17);
        for (i, &seed) in seeds.iter().enumerate().step_by(8) {
            let solo = p.generate_seeded(&prompts[i..i + 1], &[seed], 2, 1);
            assert_eq!(
                batched.narrow(0, i, 1).data(),
                solo.data(),
                "image {i} depends on chunking"
            );
        }
    }
}
