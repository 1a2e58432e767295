//! Packed-weight execution mode for the model stack.
//!
//! After the PTQ driver (`fpdq_core::quantize_unet`) bakes quantized
//! weights into a U-Net, every quantized Linear/Conv layer still executes
//! as a *dense* FP32 matmul over fake-quantized values. This module flips
//! the model into real packed execution: each layer's baked weight is
//! re-encoded into its chosen low-bit format ([`PackedTensor`] — bit-exact
//! with the baked values by construction) and installed into the layer's
//! [`fpdq_nn::PackedSlot`] ([`install_packed`]). From then on the layer's
//! one forward body runs its engine on the packed weight's decoded rows
//! instead of its `f32` weight, and end-to-end sampling streams 4-8× less
//! weight traffic than FP32 — the execution pattern whose cost the
//! paper's §III motivates.
//!
//! Activation quantization is *fused into the engines*: the slot also
//! holds a [`PanelQuantizer`] that quantizes the activations as the
//! engine stages them, through the boundary tables of
//! [`fpdq_core::BoundaryQuantizer`] — bit-exact with the tap's simulated
//! quantizers, without an intermediate activation tensor. A layer with
//! one whole-input format fuses it per tensor; a layer consuming a
//! skip-connection concatenation (the paper's split trunk/skip
//! quantization) fuses a per-channel [`PanelQuantizer::split`] — trunk
//! format below the split channel, skip format from it on — without the
//! tap's `narrow`/`concat` copies. The layer's tap keeps its quantizer
//! closures and only skips quantizing while the slot holds a fused
//! stage, so [`unpack_unet`] just clears every slot and re-packing needs
//! no restore.
//!
//! # Batched multi-image sampling
//!
//! The packed forwards are batch-shaped end to end: a batched sampler
//! step hands each packed linear an `[batch × positions, k]` activation
//! matrix and each packed conv an `[batch, c, h, w]` image stack, and
//! the engines — the conv via the same implicit-GEMM micro-kernel as the
//! linear ([`crate::conv`]) — decode every weight tile **once per
//! call** — once per sampling step, not once per image — picking their
//! parallel regime from the actual shape ([`crate::schedule`]). Because every regime is
//! bit-identical and every layer treats the batch dimension
//! independently, image `i` of a batch-N packed sampling run is
//! bit-identical to a batch-1 run with the same per-image seed
//! (`tests/batched_consistency.rs` pins this end to end).

use crate::packed::PackedTensor;
use fpdq_core::{PanelQuantizer, QuantReport, TensorQuantizer};
use fpdq_nn::{QuantKind, QuantLayer, UNet};
use fpdq_tensor::operand::ActStage;
use fpdq_tensor::FpdqError;

/// Per-layer outcome of packing a model.
#[derive(Clone, Debug)]
pub struct PackedLayerInfo {
    /// Hierarchical layer name.
    pub name: String,
    /// Conv or linear.
    pub kind: QuantKind,
    /// Storage format description (e.g. `"E4M3(b=8)"`).
    pub format: String,
    /// Fused activation format description, when the packed forward
    /// quantizes activations inside its tile loop: one format, or for a
    /// split layer both halves with the split channel
    /// (`"<trunk>[..at] <skip>[at..]"`).
    pub fused_act: Option<String>,
    /// Packed payload bytes.
    pub payload_bytes: usize,
    /// Dense FP32 bytes the payload replaces.
    pub dense_bytes: usize,
}

/// Outcome of [`pack_unet`]: which layers now execute packed, and the
/// aggregate weight-memory footprint.
#[derive(Clone, Debug, Default)]
pub struct PackReport {
    /// One entry per packed layer, in model order.
    pub layers: Vec<PackedLayerInfo>,
}

impl PackReport {
    /// Name of the SIMD path the packed kernels dispatch to
    /// (`scalar`/`avx2`/`neon` — see [`fpdq_tensor::simd`]), for CLI
    /// reports and cross-machine bench comparability. This reflects the
    /// process-wide dispatch (fixed for the process lifetime), not a
    /// per-report property.
    pub fn isa(&self) -> &'static str {
        fpdq_tensor::simd::active().name()
    }

    /// Total packed payload bytes across layers.
    pub fn payload_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.payload_bytes).sum()
    }

    /// Total dense FP32 bytes the payloads replace.
    pub fn dense_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.dense_bytes).sum()
    }

    /// Weight-memory compression ratio (dense / packed).
    pub fn compression(&self) -> f32 {
        let p = self.payload_bytes();
        if p == 0 {
            return 1.0;
        }
        self.dense_bytes() as f32 / p as f32
    }

    /// Number of layers whose activation quantizer runs fused inside the
    /// packed kernel (vs. staying in the layer tap).
    pub fn fused_act_layers(&self) -> usize {
        self.layers.iter().filter(|l| l.fused_act.is_some()).count()
    }
}

/// Installs a packed weight into a layer, validating before any
/// mutation: the packed dims must match the layer's weight, and a conv
/// layer must report its [`fpdq_tensor::conv::Conv2dSpec`]. An `Err`
/// leaves the layer exactly as it was. This is the one install path:
/// [`try_pack_unet`] encodes each baked weight and calls it, and the
/// container loader calls it on zero-copy payload views.
///
/// When `act` names the layer's activation format (the trunk half's, with
/// `act_skip` the skip half's, for a layer consuming a skip-connection
/// concatenation) and the tap quantizes, quantization runs fused inside
/// the engine, per tensor or split like the tap. Returns the packing
/// stats.
pub fn install_packed(
    layer: &dyn QuantLayer,
    packed: PackedTensor,
    act: Option<&TensorQuantizer>,
    act_skip: Option<&TensorQuantizer>,
) -> Result<PackedLayerInfo, FpdqError> {
    let w_dims = layer.weight().dims();
    if packed.dims() != w_dims {
        return Err(FpdqError::corrupt(format!(
            "packed dims {:?} do not match layer {} weight dims {:?}",
            packed.dims(),
            layer.qname(),
            w_dims
        )));
    }
    let spec = match layer.kind() {
        QuantKind::Linear => None,
        QuantKind::Conv => Some(layer.conv_spec().ok_or_else(|| {
            FpdqError::missing(format!(
                "conv layer without spec: {} reports no Conv2dSpec",
                layer.qname()
            ))
        })?),
    };
    let (stage, fused_act) = fuse_decision(layer, act, act_skip).unzip();
    let info = PackedLayerInfo {
        name: layer.qname().to_string(),
        kind: layer.kind(),
        format: packed.format().describe(),
        fused_act,
        payload_bytes: packed.payload_bytes(),
        dense_bytes: layer.weight().numel() * std::mem::size_of::<f32>(),
    };
    let stage = stage.map(|q| Box::new(q) as Box<dyn ActStage>);
    let bias = layer.bias().map(|b| b.value());
    layer.packed().install(Box::new(packed), stage, bias, spec);
    Ok(info)
}

/// Decides how an install fuses activation quantization into its engine,
/// mirroring the tap's own rule. A tap that quantizes, with `act` naming
/// its format, fuses per tensor; a tap that also splits a
/// `concat(trunk, skip)` input at a channel below the input width fuses
/// [`PanelQuantizer::split`] with `act_skip` on the skip half. Returns the
/// stage and its description, or `None` (the tap quantizes before the
/// engine) when the tap quantizes nothing or the formats do not describe
/// it.
fn fuse_decision(
    layer: &dyn QuantLayer,
    act: Option<&TensorQuantizer>,
    act_skip: Option<&TensorQuantizer>,
) -> Option<(PanelQuantizer, String)> {
    let tap = layer.tap().borrow();
    let trunk = act.filter(|_| tap.act_quant.is_some())?;
    let channels = layer.weight().dims()[1];
    match layer.concat_split().filter(|&at| at < channels && tap.act_quant_skip.is_some()) {
        None => Some((PanelQuantizer::per_tensor(trunk), trunk.describe())),
        Some(at) => {
            let skip = act_skip?;
            let desc = format!("{}[..{at}] {}[{at}..]", trunk.describe(), skip.describe());
            Some((PanelQuantizer::split(trunk, skip, at, channels), desc))
        }
    }
}

/// Switches a quantized U-Net to packed-weight execution: every layer the
/// PTQ report assigned a weight format is re-encoded into that format and
/// dispatched to the dequantize-on-the-fly kernels from now on, with its
/// activation quantizers (whole-input, or trunk and skip halves) fused
/// into the kernels' tile loops.
///
/// The model must already hold the baked (quantized) weights the report
/// describes. Each layer then runs the same engine on the packed
/// weight's decoded rows, so packed sampling matches the fake-quantized
/// evaluation wherever the baked weight lies on the packed grid.
pub fn pack_unet(unet: &UNet, report: &QuantReport) -> PackReport {
    match try_pack_unet(unet, report) {
        Ok(packed) => packed,
        Err(e) => panic!("{e}"),
    }
}

/// Validating variant of [`pack_unet`]: format/spec problems come back as
/// a typed [`FpdqError`]. On `Err`, layers already packed before the
/// failing one are reverted via [`unpack_unet`], so the model is never
/// left half-packed.
pub fn try_pack_unet(unet: &UNet, report: &QuantReport) -> Result<PackReport, FpdqError> {
    let mut packed = PackReport::default();
    let mut failed = None;
    unet.visit_quant_layers(&mut |layer| {
        if failed.is_some() {
            return;
        }
        let Some(rep) = report.layers.iter().find(|l| l.name == layer.qname()) else {
            return;
        };
        let Some(format) = &rep.weight_format else {
            return;
        };
        let weight = PackedTensor::encode(&layer.weight().value(), *format);
        let (act, act_skip) = (rep.act_format.as_ref(), rep.act_format_skip.as_ref());
        match install_packed(layer, weight, act, act_skip) {
            Ok(info) => packed.layers.push(info),
            Err(e) => failed = Some(e),
        }
    });
    if let Some(e) = failed {
        unpack_unet(unet);
        return Err(e);
    }
    Ok(packed)
}

/// Reverts a U-Net to dense execution by clearing every packed slot; the
/// taps, which kept their quantizers, quantize again.
pub fn unpack_unet(unet: &UNet) {
    unet.visit_quant_layers(&mut |layer| layer.packed().clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpdq_core::calib::{CalibPoint, CalibrationSet};
    use fpdq_core::{quantize_unet, PtqConfig, RoundingConfig};
    use fpdq_nn::UNetConfig;
    use fpdq_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quantized_tiny_unet(cfg: PtqConfig) -> (UNet, QuantReport, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let unet = UNet::new(UNetConfig::tiny(2), &mut rng);
        let points: Vec<CalibPoint> = (0..4)
            .map(|i| CalibPoint {
                x: Tensor::randn(&[1, 2, 8, 8], &mut rng),
                t: (i * 5) as f32,
                ctx: None,
            })
            .collect();
        let calib = CalibrationSet { init: points.clone(), rl: points };
        let mut cfg = cfg;
        cfg.bias_candidates = 15;
        cfg.rounding = RoundingConfig { iters: 8, batch: 2, ..RoundingConfig::default() };
        let report = quantize_unet(&unet, &calib, &cfg, &mut rng);
        (unet, report, rng)
    }

    #[test]
    fn packed_unet_matches_fake_quantized_forward() {
        let (unet, report, mut rng) = quantized_tiny_unet(PtqConfig::fp(8, 8));
        let x = Tensor::randn(&[1, 2, 8, 8], &mut rng);
        let t = Tensor::from_vec(vec![3.0], &[1]);
        let dense = unet.forward(&x, &t, None);

        let pack = pack_unet(&unet, &report);
        assert_eq!(pack.layers.len(), report.layers.len(), "every layer packs");
        let mut installed = 0;
        unet.visit_quant_layers(&mut |l| installed += usize::from(l.packed().is_installed()));
        assert_eq!(installed, pack.layers.len());

        let packed = unet.forward(&x, &t, None);
        let scale = dense.data().iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
        for (a, b) in dense.data().iter().zip(packed.data()) {
            assert!((a - b).abs() < 1e-3 * scale, "packed forward diverged: {a} vs {b}");
        }

        unpack_unet(&unet);
        let reverted = unet.forward(&x, &t, None);
        assert_eq!(reverted.data(), dense.data(), "unpack must restore dense path");
    }

    #[test]
    fn fused_act_quant_keeps_the_tap_closures() {
        let (unet, report, mut rng) = quantized_tiny_unet(PtqConfig::fp(8, 8));
        let x = Tensor::randn(&[1, 2, 8, 8], &mut rng);
        let t = Tensor::from_vec(vec![5.0], &[1]);
        let dense = unet.forward(&x, &t, None);

        // (trunk or whole-input closures, skip closures) held by the taps.
        let count_taps = || {
            let (mut trunk, mut skip) = (0, 0);
            unet.visit_quant_layers(&mut |l| {
                trunk += usize::from(l.tap().borrow().act_quant.is_some());
                skip += usize::from(l.tap().borrow().act_quant_skip.is_some());
            });
            (trunk, skip)
        };
        let taps_before = count_taps();
        assert!(taps_before.0 > 0, "PTQ must have installed tap quantizers");
        assert_eq!(taps_before.1, 4, "the up-path conv1 layers split their inputs");

        let pack = pack_unet(&unet, &report);
        // Every packed layer, split ones included, quantizes in its kernel,
        // and its tap keeps both closures.
        assert_eq!(pack.fused_act_layers(), pack.layers.len(), "every layer must fuse");
        assert_eq!(count_taps(), taps_before, "fused layers keep both tap closures");
        let mut split_infos = 0;
        for (info, rep) in pack.layers.iter().zip(&report.layers) {
            assert_eq!(info.name, rep.name);
            let (Some(trunk), Some(skip)) = (&rep.act_format, &rep.act_format_skip) else {
                continue;
            };
            let mut at = None;
            unet.visit_quant_layers(&mut |l| {
                if l.qname() == rep.name {
                    at = l.concat_split();
                }
            });
            let at = at.expect("a split format belongs to a split layer");
            let want = format!("{}[..{at}] {}[{at}..]", trunk.describe(), skip.describe());
            assert_eq!(info.fused_act.as_deref(), Some(want.as_str()), "{}", info.name);
            split_infos += 1;
        }
        assert_eq!(split_infos, 4, "split layers name both formats and the split channel");

        // Fused execution still matches the fake-quantized reference.
        let packed = unet.forward(&x, &t, None);
        let scale = dense.data().iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
        for (a, b) in dense.data().iter().zip(packed.data()) {
            assert!((a - b).abs() < 1e-3 * scale, "fused forward diverged: {a} vs {b}");
        }

        // Unpacking leaves every tap closure in place, skip halves included.
        unpack_unet(&unet);
        assert_eq!(count_taps(), taps_before, "unpack must keep the tap closures");
        let restored = unet.forward(&x, &t, None);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&restored), bits(&dense), "dense forward must be bit-identical");
    }

    #[test]
    fn fp8_packing_compresses_weights_4x() {
        let (unet, report, _) = quantized_tiny_unet(PtqConfig::fp(8, 8));
        let pack = pack_unet(&unet, &report);
        assert!(
            (pack.compression() - 4.0).abs() < 0.2,
            "FP8 compression {} != ~4x",
            pack.compression()
        );
    }

    #[test]
    fn int_packing_also_streams() {
        let (unet, report, mut rng) = quantized_tiny_unet(PtqConfig::int(8, 8));
        let x = Tensor::randn(&[1, 2, 8, 8], &mut rng);
        let t = Tensor::from_vec(vec![11.0], &[1]);
        let dense = unet.forward(&x, &t, None);
        let pack = pack_unet(&unet, &report);
        assert!(pack.compression() > 3.5, "INT8 compression {}", pack.compression());
        let packed = unet.forward(&x, &t, None);
        let scale = dense.data().iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
        for (a, b) in dense.data().iter().zip(packed.data()) {
            assert!((a - b).abs() < 1e-3 * scale, "{a} vs {b}");
        }
    }
}
