//! Loading a container back into a runnable packed pipeline.
//!
//! The load path is strict-then-fast: every length, offset, alignment,
//! checksum and numeric domain is validated (typed [`FpdqError`], never a
//! panic) before any payload byte is interpreted; after that, packed
//! weight payloads are installed as zero-copy [`bytes::Bytes`] views of
//! the single file buffer — no decode, no copy, no re-quantization — via
//! [`fpdq_kernels::install_packed`].

use crate::layout::{
    parse_sections, require, ALIGN, SECTION_AE_PARAMS, SECTION_META, SECTION_TEXT_PARAMS,
    SECTION_UNET_PARAMS, SECTION_WEIGHTS,
};
use crate::meta::{ContainerMeta, LayerEntry, PipelineKind};
use crate::SimPipeline;
use bytes::Bytes;
use fpdq_core::TensorQuantizer;
use fpdq_data::Tokenizer;
use fpdq_diffusion::{DdimSim, LdmSim, NoiseSchedule, SdSim};
use fpdq_kernels::{install_packed, PackReport, PackedTensor};
use fpdq_nn::module::ParamCollector;
use fpdq_nn::{Autoencoder, TextEncoder, UNet};
use fpdq_tensor::{FpdqError, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;

/// A container loaded back into executable form.
pub struct LoadedModel {
    /// The rebuilt pipeline, already switched to packed execution.
    pub pipeline: SimPipeline,
    /// Per-layer packing stats (mirrors what `pack_unet` reports for the
    /// in-process path).
    pub pack: PackReport,
    /// The validated metadata the model was rebuilt from.
    pub meta: ContainerMeta,
}

fn corrupt(msg: impl std::fmt::Display) -> FpdqError {
    FpdqError::corrupt(format!("container: {msg}"))
}

/// Runs a panicking model constructor under `catch_unwind` so crafted
/// metadata that slips past explicit domain checks still surfaces as a
/// typed error instead of aborting the process.
fn build_guarded<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, FpdqError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|_| corrupt(format!("metadata describes an unbuildable {what}")))
}

/// Overwrites `model`'s parameters from a tensor-archive section.
fn apply_params(model: &dyn ParamCollector, bytes: &Bytes, what: &str) -> Result<(), FpdqError> {
    let map: BTreeMap<String, Tensor> =
        fpdq_tensor::io::from_bytes(bytes).map_err(|e| corrupt(format!("{what} params: {e}")))?;
    for (name, p) in model.named_params() {
        let t = map
            .get(&name)
            .ok_or_else(|| corrupt(format!("{what} params missing '{name}'")))?;
        if t.dims() != p.dims() {
            return Err(corrupt(format!(
                "{what} param '{name}' shape mismatch: container {:?}, model {:?}",
                t.dims(),
                p.dims()
            )));
        }
        p.replace(t.clone());
    }
    Ok(())
}

/// Slices one layer's packed payload out of the weights section and
/// rebuilds the packed tensor (tables and LUTs are reconstructed
/// deterministically — they are never stored).
fn packed_from_entry(entry: &LayerEntry, weights: &Bytes) -> Result<PackedTensor, FpdqError> {
    let format = entry.weight_format.as_ref().expect("caller checked weight_format");
    let end = entry
        .offset
        .checked_add(entry.len)
        .ok_or_else(|| corrupt(format!("layer '{}' payload span overflows", entry.name)))?;
    if end > weights.len() as u64 {
        return Err(corrupt(format!(
            "layer '{}' payload {}..{end} exceeds the {}-byte weights section",
            entry.name,
            entry.offset,
            weights.len()
        )));
    }
    debug_assert_eq!(entry.offset as usize % ALIGN, 0, "meta parser enforces alignment");
    let payload = weights.slice(entry.offset as usize..end as usize);
    PackedTensor::from_parts(*format, entry.dims.clone(), payload)
}

/// Installs activation taps and packed weights described by the layer
/// table into the rebuilt U-Net. Mirrors the in-process
/// `quantize_unet` + `pack_unet` sequence exactly, so generation from a
/// loaded container is bit-identical to the in-process packed model.
fn install_layers(
    unet: &UNet,
    meta: &ContainerMeta,
    weights: &Bytes,
) -> Result<PackReport, FpdqError> {
    let by_name: BTreeMap<&str, &LayerEntry> =
        meta.layers.iter().map(|l| (l.name.as_str(), l)).collect();
    let mut pack = PackReport::default();
    let mut matched = 0usize;
    let mut failed: Option<FpdqError> = None;
    unet.visit_quant_layers(&mut |layer| {
        if failed.is_some() {
            return;
        }
        let Some(entry) = by_name.get(layer.qname()) else {
            return;
        };
        matched += 1;
        // Taps first: the install decides whether to fuse from the tap
        // state, exactly like the in-process packer.
        {
            let mut tap = layer.tap().borrow_mut();
            tap.act_quant = entry.act_format.map(TensorQuantizer::into_act_fn);
            tap.act_quant_skip = entry.act_format_skip.map(TensorQuantizer::into_act_fn);
        }
        if entry.weight_format.is_some() {
            let result = packed_from_entry(entry, weights).and_then(|packed| {
                let (act, act_skip) = (entry.act_format.as_ref(), entry.act_format_skip.as_ref());
                install_packed(layer, packed, act, act_skip)
            });
            match result {
                Ok(info) => pack.layers.push(info),
                Err(e) => failed = Some(e),
            }
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    if matched != meta.layers.len() {
        let mut present = Vec::new();
        unet.visit_quant_layers(&mut |l| present.push(l.qname().to_string()));
        let ghost = meta
            .layers
            .iter()
            .find(|l| !present.iter().any(|p| p == &l.name))
            .map(|l| l.name.clone())
            .unwrap_or_default();
        return Err(corrupt(format!(
            "layer table names '{ghost}' which the described architecture does not contain"
        )));
    }
    Ok(pack)
}

/// Rebuilds and packs a pipeline from an in-memory container image.
///
/// The buffer is shared, not copied: every packed weight payload is a
/// zero-copy view into `data`, so N pipelines (or worker threads holding
/// clones of `data`) share one read-only mapping.
pub fn load_bytes(data: Bytes) -> Result<LoadedModel, FpdqError> {
    let sections = parse_sections(&data)?;
    let meta_bytes = require(&sections, SECTION_META, "metadata")?;
    let meta_text = std::str::from_utf8(meta_bytes)
        .map_err(|_| corrupt("metadata section is not valid UTF-8"))?;
    let meta = ContainerMeta::from_json(meta_text)?;
    let weights = require(&sections, SECTION_WEIGHTS, "packed weights")?.clone();
    let unet_params = require(&sections, SECTION_UNET_PARAMS, "unet params")?.clone();

    // The RNG only seeds throwaway initial weights; every parameter is
    // overwritten from the container below.
    let mut rng = StdRng::seed_from_u64(0);
    let unet = build_guarded("unet", || UNet::new(meta.unet.clone(), &mut rng))?;
    apply_params(&unet, &unet_params, "unet")?;

    let schedule = NoiseSchedule::from_betas(meta.betas.clone());
    let pack = install_layers(&unet, &meta, &weights)?;

    let pipeline = match meta.kind {
        PipelineKind::Ddim => SimPipeline::Ddim(DdimSim {
            unet,
            schedule,
            channels: meta.channels,
            image_size: meta.image_size,
        }),
        PipelineKind::Ldm => {
            let ae_cfg = meta.ae.clone().expect("meta validation requires ae");
            let ae = build_guarded("autoencoder", || Autoencoder::new(ae_cfg, &mut rng))?;
            apply_params(&ae, require(&sections, SECTION_AE_PARAMS, "autoencoder params")?, "ae")?;
            SimPipeline::Ldm(LdmSim {
                ae,
                unet,
                schedule,
                latent_channels: meta.channels,
                latent_size: meta.image_size,
                latent_scale: meta.latent_scale.expect("meta validation requires latent_scale"),
            })
        }
        PipelineKind::Sd => {
            let ae_cfg = meta.ae.clone().expect("meta validation requires ae");
            let text_cfg = meta.text.clone().expect("meta validation requires text");
            let tokenizer = Tokenizer::caption_grammar();
            if text_cfg.vocab_size != tokenizer.vocab_size() {
                return Err(corrupt(format!(
                    "text encoder vocab {} does not match the tokenizer grammar ({})",
                    text_cfg.vocab_size,
                    tokenizer.vocab_size()
                )));
            }
            let ae = build_guarded("autoencoder", || Autoencoder::new(ae_cfg, &mut rng))?;
            apply_params(&ae, require(&sections, SECTION_AE_PARAMS, "autoencoder params")?, "ae")?;
            let text = build_guarded("text encoder", || TextEncoder::new(text_cfg, &mut rng))?;
            apply_params(&text, require(&sections, SECTION_TEXT_PARAMS, "text params")?, "text")?;
            SimPipeline::Sd(SdSim {
                tokenizer,
                text,
                ae,
                unet,
                schedule,
                latent_channels: meta.channels,
                latent_size: meta.image_size,
                latent_scale: meta.latent_scale.expect("meta validation requires latent_scale"),
                guidance: meta.guidance.expect("meta validation requires guidance"),
            })
        }
    };
    Ok(LoadedModel { pipeline, pack, meta })
}

/// Reads and [`load_bytes`]-validates a container file.
pub fn load(path: impl AsRef<Path>) -> Result<LoadedModel, FpdqError> {
    let path = path.as_ref();
    let data = std::fs::read(path)
        .map_err(|e| FpdqError::io(format!("reading container {path:?}: {e}")))?;
    load_bytes(Bytes::from(data))
}
