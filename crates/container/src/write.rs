//! Building container images and writing them crash-safely to disk.

use crate::layout::{
    align_up, assemble, SECTION_AE_PARAMS, SECTION_META, SECTION_TEXT_PARAMS, SECTION_UNET_PARAMS,
    SECTION_WEIGHTS,
};
use crate::meta::{ContainerMeta, LayerEntry, PipelineKind};
use crate::SimPipeline;
use fpdq_core::QuantReport;
use fpdq_kernels::PackedTensor;
use fpdq_nn::module::ParamCollector;
use fpdq_nn::UNet;
use fpdq_tensor::FpdqError;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::Path;

fn params_bytes(model: &dyn ParamCollector) -> Vec<u8> {
    let mut map = BTreeMap::new();
    for (name, p) in model.named_params() {
        map.insert(name, p.value());
    }
    fpdq_tensor::io::to_bytes(&map).to_vec()
}

/// Re-encodes every packed layer's baked weight into its searched format
/// and lays the payloads out 64-byte aligned, producing the layer table
/// and the weights blob.
fn build_weights(unet: &UNet, report: &QuantReport) -> (Vec<LayerEntry>, Vec<u8>) {
    let mut layers = Vec::new();
    let mut blob: Vec<u8> = Vec::new();
    unet.visit_quant_layers(&mut |layer| {
        let Some(rep) = report.layers.iter().find(|l| l.name == layer.qname()) else {
            return;
        };
        if rep.weight_format.is_none() && rep.act_format.is_none() {
            return;
        }
        let dims = layer.weight().value().dims().to_vec();
        let (offset, len) = match &rep.weight_format {
            Some(format) => {
                let w = layer.weight().value();
                let payload = PackedTensor::encode(&w, *format).payload();
                let offset = align_up(blob.len());
                blob.resize(offset, 0);
                blob.extend_from_slice(&payload);
                (offset as u64, payload.len() as u64)
            }
            None => (0, 0),
        };
        layers.push(LayerEntry {
            name: rep.name.clone(),
            weight_format: rep.weight_format,
            act_format: rep.act_format,
            act_format_skip: rep.act_format_skip,
            dims,
            offset,
            len,
        });
    });
    (layers, blob)
}

/// Serialises a quantized pipeline plus its PTQ report into a complete
/// container image (the bytes that [`save`] writes to disk).
pub fn container_bytes(pipeline: &SimPipeline, report: &QuantReport) -> Result<Vec<u8>, FpdqError> {
    let unet = pipeline.unet();
    let (layers, weights) = build_weights(unet, report);
    let schedule = pipeline.model().schedule();
    let betas: Vec<f32> = (0..schedule.steps()).map(|t| schedule.beta(t)).collect();

    let mut sections: Vec<(u32, Vec<u8>)> = Vec::new();
    let meta = match pipeline {
        SimPipeline::Ddim(p) => {
            sections.push((SECTION_UNET_PARAMS, params_bytes(&p.unet)));
            ContainerMeta {
                kind: PipelineKind::Ddim,
                unet: p.unet.config().clone(),
                ae: None,
                text: None,
                betas,
                channels: p.channels,
                image_size: p.image_size,
                latent_scale: None,
                guidance: None,
                layers,
            }
        }
        SimPipeline::Ldm(p) => {
            sections.push((SECTION_UNET_PARAMS, params_bytes(&p.unet)));
            sections.push((SECTION_AE_PARAMS, params_bytes(&p.ae)));
            ContainerMeta {
                kind: PipelineKind::Ldm,
                unet: p.unet.config().clone(),
                ae: Some(p.ae.config().clone()),
                text: None,
                betas,
                channels: p.latent_channels,
                image_size: p.latent_size,
                latent_scale: Some(p.latent_scale),
                guidance: None,
                layers,
            }
        }
        SimPipeline::Sd(p) => {
            sections.push((SECTION_UNET_PARAMS, params_bytes(&p.unet)));
            sections.push((SECTION_AE_PARAMS, params_bytes(&p.ae)));
            sections.push((SECTION_TEXT_PARAMS, params_bytes(&p.text)));
            ContainerMeta {
                kind: PipelineKind::Sd,
                unet: p.unet.config().clone(),
                ae: Some(p.ae.config().clone()),
                text: Some(p.text.config().clone()),
                betas,
                channels: p.latent_channels,
                image_size: p.latent_size,
                latent_scale: Some(p.latent_scale),
                guidance: Some(p.guidance),
                layers,
            }
        }
    };
    sections.insert(0, (SECTION_META, meta.to_json().into_bytes()));
    sections.push((SECTION_WEIGHTS, weights));
    Ok(assemble(&sections))
}

/// Writes a container to `path` crash-safely: the image lands in a
/// sibling temp file, is fsynced, and is atomically renamed over the
/// target. A process killed at any point leaves either the old file or
/// the new one at `path` — never a torn write. `ALIGN`ment of every
/// payload is guaranteed by construction.
pub fn save(
    path: impl AsRef<Path>,
    pipeline: &SimPipeline,
    report: &QuantReport,
) -> Result<(), FpdqError> {
    let path = path.as_ref();
    let image = container_bytes(pipeline, report)?;
    let file_name = path
        .file_name()
        .ok_or_else(|| FpdqError::io(format!("container path {path:?} has no file name")))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);

    let write_all = || -> std::io::Result<()> {
        let mut f = File::create(&tmp)?;
        f.write_all(&image)?;
        // Data must be durable before the rename publishes it.
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        // Best-effort directory fsync so the rename itself is durable.
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    };
    write_all().map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        FpdqError::io(format!("writing container {path:?}: {e}"))
    })
}
