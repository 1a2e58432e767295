//! The model zoo: train-once, cache, and reload the substrate models.
//!
//! The paper starts from pre-trained checkpoints (DDIM/CIFAR-10,
//! LDM/Bedrooms, Stable Diffusion, SDXL). Offline, the zoo is their
//! equivalent: each pipeline is trained from scratch with a fixed seed the
//! first time it is requested and cached under `target/fpdq-zoo/` (or
//! `$FPDQ_ZOO_DIR`), so every experiment harness quantizes the *same*
//! full-precision baseline.
//!
//! Set `FPDQ_FAST=1` to train much smaller budgets (CI/tests); fast and
//! full caches are kept separate.

use crate::pipelines::{DdimSim, LdmSim, SdSim};
use crate::schedule::NoiseSchedule;
use crate::train::{tail_loss, train_autoencoder, train_text_to_image, train_unet, TrainConfig};
use fpdq_data::{CaptionedScenes, Dataset, TinyBedrooms, TinyCifar, Tokenizer};
use fpdq_nn::module::{load_params, save_params};
use fpdq_nn::{Autoencoder, AutoencoderConfig, TextEncoder, TextEncoderConfig, UNet, UNetConfig};
use fpdq_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Bump to invalidate all cached checkpoints after architecture changes.
const ZOO_VERSION: u32 = 1;

static TRAIN_LOCK: Mutex<()> = Mutex::new(());

/// Handle to the on-disk model cache.
#[derive(Clone, Debug)]
pub struct Zoo {
    dir: PathBuf,
    fast: bool,
}

impl Zoo {
    /// Opens the default zoo: `$FPDQ_ZOO_DIR` or `target/fpdq-zoo`;
    /// `FPDQ_FAST=1` selects reduced training budgets.
    pub fn open_default() -> Self {
        let dir = std::env::var("FPDQ_ZOO_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/fpdq-zoo"));
        let fast = std::env::var("FPDQ_FAST").map(|v| v == "1").unwrap_or(false);
        Zoo { dir, fast }
    }

    /// Opens a zoo rooted at `dir` with an explicit budget flag.
    pub fn open(dir: impl Into<PathBuf>, fast: bool) -> Self {
        Zoo { dir: dir.into(), fast }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether reduced (fast) training budgets are in effect.
    pub fn is_fast(&self) -> bool {
        self.fast
    }

    fn model_dir(&self, name: &str) -> PathBuf {
        let flavor = if self.fast { "fast" } else { "full" };
        self.dir.join(format!("{name}-v{ZOO_VERSION}-{flavor}"))
    }

    fn budget(&self, full: usize) -> usize {
        if self.fast {
            (full / 12).max(20)
        } else {
            full
        }
    }

    // -- DDIM on TinyCifar (paper: DDIM on CIFAR-10) -----------------------

    /// U-Net config of the pixel-space DDIM pipeline.
    pub fn ddim_unet_config() -> UNetConfig {
        UNetConfig {
            in_channels: 3,
            out_channels: 3,
            base_channels: 16,
            channel_mults: vec![1, 2],
            num_res_blocks: 1,
            attn_levels: vec![1],
            heads: 2,
            context_dim: None,
            norm_groups: 4,
        }
    }

    /// Returns the trained pixel-space DDIM pipeline (trains and caches on
    /// first use).
    pub fn ddim_sim(&self) -> DdimSim {
        let _guard = TRAIN_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let dir = self.model_dir("ddim-cifar");
        let schedule = NoiseSchedule::linear_scaled(100);
        let mut rng = StdRng::seed_from_u64(101);
        let unet = UNet::new(Self::ddim_unet_config(), &mut rng);
        let ckpt = dir.join("unet.fpdq");
        if try_load(&unet, &ckpt) {
            // cached
        } else {
            std::fs::create_dir_all(&dir).expect("cannot create zoo dir");
            let ds = TinyCifar::new();
            let cfg = TrainConfig {
                steps: self.budget(900),
                batch: 16,
                lr: 2e-3,
                ..TrainConfig::default()
            };
            eprintln!("[zoo] training ddim-cifar ({} steps)...", cfg.steps);
            let losses = train_unet(&unet, &schedule, &cfg, &mut rng, |r| ds.batch(16, r));
            eprintln!("[zoo] ddim-cifar loss {:.4} -> {:.4}", losses[0], tail_loss(&losses));
            save_params(&unet, &ckpt).expect("cannot save checkpoint");
        }
        DdimSim { unet, schedule, channels: 3, image_size: 8 }
    }

    // -- LDM on TinyBedrooms (paper: LDM on LSUN-Bedrooms) ------------------

    /// U-Net config of the unconditional latent pipeline.
    pub fn ldm_unet_config() -> UNetConfig {
        UNetConfig {
            in_channels: 4,
            out_channels: 4,
            base_channels: 16,
            channel_mults: vec![1, 2],
            num_res_blocks: 1,
            attn_levels: vec![1],
            heads: 2,
            context_dim: None,
            norm_groups: 4,
        }
    }

    /// Returns the trained unconditional latent-diffusion pipeline.
    pub fn ldm_sim(&self) -> LdmSim {
        let _guard = TRAIN_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let dir = self.model_dir("ldm-bedroom");
        let schedule = NoiseSchedule::linear_scaled(100);
        let mut rng = StdRng::seed_from_u64(201);
        let ae = Autoencoder::new(AutoencoderConfig::small(3, 4), &mut rng);
        let unet = UNet::new(Self::ldm_unet_config(), &mut rng);
        let (ae_ckpt, unet_ckpt, meta_ckpt) =
            (dir.join("ae.fpdq"), dir.join("unet.fpdq"), dir.join("meta.fpdq"));
        let latent_scale;
        if try_load(&ae, &ae_ckpt) && try_load(&unet, &unet_ckpt) && meta_ckpt.exists() {
            latent_scale = load_meta(&meta_ckpt, "latent_scale");
        } else {
            std::fs::create_dir_all(&dir).expect("cannot create zoo dir");
            let ds = TinyBedrooms::new();
            let ae_cfg = TrainConfig {
                steps: self.budget(500),
                batch: 16,
                lr: 3e-3,
                ..TrainConfig::default()
            };
            eprintln!("[zoo] training ldm-bedroom autoencoder ({} steps)...", ae_cfg.steps);
            let ae_losses = train_autoencoder(&ae, &ae_cfg, &mut rng, |r| ds.batch(16, r));
            eprintln!("[zoo] ae loss {:.4} -> {:.4}", ae_losses[0], tail_loss(&ae_losses));

            latent_scale = compute_latent_scale(&ae, &mut rng, |r| ds.batch(64, r));
            eprintln!("[zoo] latent scale {latent_scale:.4}");

            let cfg = TrainConfig {
                steps: self.budget(900),
                batch: 16,
                lr: 2e-3,
                ..TrainConfig::default()
            };
            eprintln!("[zoo] training ldm-bedroom unet ({} steps)...", cfg.steps);
            let losses = train_unet(&unet, &schedule, &cfg, &mut rng, |r| {
                ae.encode(&ds.batch(16, r)).mul_scalar(latent_scale)
            });
            eprintln!("[zoo] unet loss {:.4} -> {:.4}", losses[0], tail_loss(&losses));

            save_params(&ae, &ae_ckpt).expect("cannot save checkpoint");
            save_params(&unet, &unet_ckpt).expect("cannot save checkpoint");
            save_meta(&meta_ckpt, &[("latent_scale", latent_scale)]);
        }
        LdmSim { ae, unet, schedule, latent_channels: 4, latent_size: 8, latent_scale }
    }

    // -- SD-sim on CaptionedScenes (paper: Stable Diffusion) ---------------

    /// U-Net config of the text-to-image pipeline.
    pub fn sd_unet_config() -> UNetConfig {
        UNetConfig {
            in_channels: 4,
            out_channels: 4,
            base_channels: 16,
            channel_mults: vec![1, 2],
            num_res_blocks: 1,
            attn_levels: vec![0, 1],
            heads: 2,
            context_dim: Some(16),
            norm_groups: 4,
        }
    }

    /// U-Net config of the "XL" text-to-image pipeline (~3× parameters,
    /// mirroring SDXL's scale-up in Table V).
    pub fn sdxl_unet_config() -> UNetConfig {
        UNetConfig {
            in_channels: 4,
            out_channels: 4,
            base_channels: 24,
            channel_mults: vec![1, 2, 2],
            num_res_blocks: 2,
            attn_levels: vec![1, 2],
            heads: 4,
            context_dim: Some(16),
            norm_groups: 4,
        }
    }

    /// Returns the trained text-to-image pipeline.
    pub fn sd_sim(&self) -> SdSim {
        self.text_pipeline("sd-scenes", 301, Self::sd_unet_config(), 1, self.budget(1100))
    }

    /// Returns the trained "XL" text-to-image pipeline.
    pub fn sdxl_sim(&self) -> SdSim {
        self.text_pipeline("sdxl-scenes", 401, Self::sdxl_unet_config(), 2, self.budget(900))
    }

    fn text_pipeline(
        &self,
        name: &str,
        seed: u64,
        unet_cfg: UNetConfig,
        text_layers: usize,
        train_steps: usize,
    ) -> SdSim {
        let _guard = TRAIN_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let dir = self.model_dir(name);
        let schedule = NoiseSchedule::linear_scaled(100);
        let tokenizer = Tokenizer::caption_grammar();
        let mut rng = StdRng::seed_from_u64(seed);
        let text_cfg = TextEncoderConfig {
            vocab_size: tokenizer.vocab_size(),
            max_len: 8,
            dim: unet_cfg.context_dim.expect("text pipeline needs context_dim"),
            heads: 2,
            layers: text_layers,
        };
        let text = TextEncoder::new(text_cfg, &mut rng);
        let ae = Autoencoder::new(AutoencoderConfig::small(3, 4), &mut rng);
        let unet = UNet::new(unet_cfg, &mut rng);
        let (ae_ckpt, unet_ckpt, text_ckpt, meta_ckpt) = (
            dir.join("ae.fpdq"),
            dir.join("unet.fpdq"),
            dir.join("text.fpdq"),
            dir.join("meta.fpdq"),
        );
        let latent_scale;
        if try_load(&ae, &ae_ckpt)
            && try_load(&unet, &unet_ckpt)
            && try_load(&text, &text_ckpt)
            && meta_ckpt.exists()
        {
            latent_scale = load_meta(&meta_ckpt, "latent_scale");
        } else {
            std::fs::create_dir_all(&dir).expect("cannot create zoo dir");
            let ds = CaptionedScenes::new();
            let ae_cfg = TrainConfig {
                steps: self.budget(500),
                batch: 16,
                lr: 3e-3,
                ..TrainConfig::default()
            };
            eprintln!("[zoo] training {name} autoencoder ({} steps)...", ae_cfg.steps);
            let ae_losses = train_autoencoder(&ae, &ae_cfg, &mut rng, |r| ds.batch(16, r));
            eprintln!("[zoo] ae loss {:.4} -> {:.4}", ae_losses[0], tail_loss(&ae_losses));

            latent_scale = compute_latent_scale(&ae, &mut rng, |r| ds.batch(64, r));
            eprintln!("[zoo] latent scale {latent_scale:.4}");

            let cfg = TrainConfig {
                steps: train_steps,
                batch: 16,
                lr: 2e-3,
                cfg_drop: 0.1,
                ..TrainConfig::default()
            };
            eprintln!("[zoo] training {name} unet+text ({} steps)...", cfg.steps);
            let tok = tokenizer.clone();
            let losses = train_text_to_image(&unet, &text, &schedule, &cfg, &mut rng, |r| {
                let (imgs, caps, _) = ds.batch_captioned(16, r);
                let latents = ae.encode(&imgs).mul_scalar(latent_scale);
                let tokens = caps.iter().map(|c| tok.encode(c)).collect();
                (latents, tokens)
            });
            eprintln!("[zoo] unet loss {:.4} -> {:.4}", losses[0], tail_loss(&losses));

            save_params(&ae, &ae_ckpt).expect("cannot save checkpoint");
            save_params(&unet, &unet_ckpt).expect("cannot save checkpoint");
            save_params(&text, &text_ckpt).expect("cannot save checkpoint");
            save_meta(&meta_ckpt, &[("latent_scale", latent_scale)]);
        }
        SdSim {
            tokenizer,
            text,
            ae,
            unet,
            schedule,
            latent_channels: 4,
            latent_size: 8,
            latent_scale,
            guidance: 3.0,
        }
    }
}

/// Attempts to load a checkpoint; a missing or stale (architecture-drift)
/// file triggers retraining instead of a hard failure.
fn try_load(model: &dyn fpdq_nn::module::ParamCollector, path: &Path) -> bool {
    if !path.exists() {
        return false;
    }
    match load_params(model, path) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("[zoo] stale checkpoint {path:?} ({e}); retraining");
            false
        }
    }
}

/// Scale bringing encoded latents to unit standard deviation (the analogue
/// of Stable Diffusion's 0.18215 factor).
fn compute_latent_scale(
    ae: &Autoencoder,
    rng: &mut StdRng,
    mut batch: impl FnMut(&mut StdRng) -> Tensor,
) -> f32 {
    let z = ae.encode(&batch(rng));
    let std = z.std().max(1e-4);
    1.0 / std
}

fn save_meta(path: &Path, entries: &[(&str, f32)]) {
    let mut map = BTreeMap::new();
    for (k, v) in entries {
        map.insert((*k).to_string(), Tensor::scalar(*v));
    }
    fpdq_tensor::save_tensors(path, &map).expect("cannot save zoo metadata");
}

fn load_meta(path: &Path, key: &str) -> f32 {
    let map = fpdq_tensor::load_tensors(path).expect("corrupt zoo metadata; delete the zoo dir");
    map.get(key).unwrap_or_else(|| panic!("zoo metadata missing '{key}'")).item()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_zoo(tag: &str) -> Zoo {
        let dir = std::env::temp_dir().join(format!("fpdq-zoo-test-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        Zoo::open(dir, true)
    }

    #[test]
    fn ddim_trains_then_reloads_identically() {
        let zoo = temp_zoo("ddim");
        let a = zoo.ddim_sim();
        let b = zoo.ddim_sim(); // loaded from cache
        let mut params_a = Vec::new();
        a.unet.collect_params(&mut params_a);
        let mut params_b = Vec::new();
        b.unet.collect_params(&mut params_b);
        for ((na, pa), (nb, pb)) in params_a.iter().zip(params_b.iter()) {
            assert_eq!(na, nb);
            assert_eq!(pa.value().data(), pb.value().data(), "{na} differs after reload");
        }
        std::fs::remove_dir_all(zoo.dir()).ok();
    }

    #[test]
    fn fast_training_actually_learns_something() {
        let zoo = temp_zoo("learn");
        let p = zoo.ddim_sim();
        // A trained model should produce images whose statistics are far
        // from pure noise: the dataset mean is non-zero in each channel.
        let mut rng = StdRng::seed_from_u64(0);
        let imgs = p.generate(8, 10, &mut rng);
        assert!(imgs.data().iter().all(|v| v.is_finite()));
        assert!(imgs.std() > 0.05, "degenerate output");
        std::fs::remove_dir_all(zoo.dir()).ok();
    }

    #[test]
    fn meta_roundtrip() {
        let dir = std::env::temp_dir().join("fpdq-zoo-meta-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("meta.fpdq");
        save_meta(&path, &[("latent_scale", 3.25)]);
        assert_eq!(load_meta(&path, "latent_scale"), 3.25);
        std::fs::remove_file(&path).ok();
    }
}
