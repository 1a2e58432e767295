//! The end-to-end PTQ driver: the paper's full method over a U-Net.
//!
//! Pipeline (paper §V / §VI-A):
//!
//! 1. With the model still in full precision, capture every layer's
//!    activations on the initialization dataset (for the activation format
//!    search) and on the calibration dataset (as rounding-learning
//!    references).
//! 2. **Weights first**, layer by layer in breadth-first model order
//!    (Algorithm 1's greedy order): search the per-tensor format, then —
//!    for low-bitwidth FP — learn the rounding against the FP32 layer
//!    outputs using the *partially quantized* model's inputs, and bake the
//!    quantized weights in place.
//! 3. **Then activations**: search each layer's input format on the
//!    initialization activations and install runtime fake-quantizers into
//!    the layer taps, quantizing the skip-connection half of concatenated
//!    inputs separately (Q-Diffusion's split trick, applied to FP too).
//! 4. Report per-layer choices, errors and sparsity.

use crate::calib::{capture_layer_inputs, CalibrationSet};
use crate::quantizer::TensorQuantizer;
use crate::rounding::{learn_rounding, RoundingConfig};
use crate::search::{search_fp_format, search_int_format, PAPER_BIAS_CANDIDATES};
use fpdq_nn::{QuantKind, UNet};
use fpdq_tensor::Tensor;
use rand::rngs::StdRng;

/// Which number system to quantize into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// The paper's low-bitwidth floating point.
    Fp,
    /// The uniform-integer baseline.
    Int,
}

/// Configuration of one quantization run.
#[derive(Clone, Debug)]
pub struct PtqConfig {
    /// Number system for weights.
    pub weight_scheme: Scheme,
    /// Weight bitwidth (8 or 4 in the paper).
    pub weight_bits: u32,
    /// Number system for activations.
    pub act_scheme: Scheme,
    /// Activation bitwidth (8 in the paper).
    pub act_bits: u32,
    /// Bias / clipping grid resolution (the paper uses 111).
    pub bias_candidates: usize,
    /// Enable gradient-based rounding learning for FP weights.
    pub rounding_learning: bool,
    /// Rounding-learning hyper-parameters.
    pub rounding: RoundingConfig,
    /// Quantize the skip half of concatenated inputs separately.
    pub split_skip_quant: bool,
    /// Quantize weights at all (ablation toggle).
    pub quantize_weights: bool,
    /// Quantize activations at all (ablation toggle).
    pub quantize_acts: bool,
}

impl PtqConfig {
    /// The paper's FP configuration `FP<w>/FP<a>`; rounding learning is
    /// enabled automatically for 4-bit weights (§V-B applies it only
    /// there).
    pub fn fp(weight_bits: u32, act_bits: u32) -> Self {
        PtqConfig {
            weight_scheme: Scheme::Fp,
            weight_bits,
            act_scheme: Scheme::Fp,
            act_bits,
            bias_candidates: PAPER_BIAS_CANDIDATES,
            rounding_learning: weight_bits <= 4,
            rounding: RoundingConfig::default(),
            split_skip_quant: true,
            quantize_weights: true,
            quantize_acts: true,
        }
    }

    /// The integer baseline `INT<w>/INT<a>`.
    pub fn int(weight_bits: u32, act_bits: u32) -> Self {
        PtqConfig {
            weight_scheme: Scheme::Int,
            weight_bits,
            act_scheme: Scheme::Int,
            act_bits,
            bias_candidates: PAPER_BIAS_CANDIDATES,
            rounding_learning: false,
            rounding: RoundingConfig::default(),
            split_skip_quant: true,
            quantize_weights: true,
            quantize_acts: true,
        }
    }

    /// Disables rounding learning (the paper's "no RL" ablation,
    /// Tables I/III/IV).
    pub fn without_rounding_learning(mut self) -> Self {
        self.rounding_learning = false;
        self
    }

    /// A short tag like `"FP4/FP8"` (weights/activations).
    pub fn tag(&self) -> String {
        let w = match self.weight_scheme {
            Scheme::Fp => format!("FP{}", self.weight_bits),
            Scheme::Int => format!("INT{}", self.weight_bits),
        };
        let a = match self.act_scheme {
            Scheme::Fp => format!("FP{}", self.act_bits),
            Scheme::Int => format!("INT{}", self.act_bits),
        };
        format!("{w}/{a}")
    }
}

/// Per-layer outcome of a quantization run.
#[derive(Clone, Debug)]
pub struct LayerReport {
    /// Hierarchical layer name.
    pub name: String,
    /// Conv or linear.
    pub kind: QuantKind,
    /// Chosen weight quantizer description.
    pub weight_quantizer: Option<String>,
    /// The chosen weight quantizer itself (drives packed-weight
    /// deployment: `fpdq-kernels` re-encodes the baked weights with this
    /// exact format).
    pub weight_format: Option<TensorQuantizer>,
    /// Weight-tensor quantization MSE of the searched format.
    pub weight_mse: f32,
    /// Output reconstruction MSE with round-to-nearest (when RL ran).
    pub rtn_mse: Option<f32>,
    /// Output reconstruction MSE after rounding learning (when RL ran).
    pub learned_mse: Option<f32>,
    /// Chosen activation quantizer (trunk half when split).
    pub act_quantizer: Option<String>,
    /// The chosen activation quantizer itself — whole-input, or the trunk
    /// half's for a split layer (drives the fused weight+activation
    /// kernels in `fpdq-kernels`).
    pub act_format: Option<TensorQuantizer>,
    /// Chosen activation quantizer for the skip half (when split).
    pub act_quantizer_skip: Option<String>,
    /// The chosen skip-half activation quantizer itself (split layers
    /// only; lets the container rebuild both tap closures). When this is
    /// set, `act_format` holds the trunk half, and the fused kernels
    /// quantize each half of the concatenated input with its own format.
    pub act_format_skip: Option<TensorQuantizer>,
    /// Weight sparsity before quantization.
    pub sparsity_before: f32,
    /// Weight sparsity after quantization.
    pub sparsity_after: f32,
    /// Weight element count.
    pub weight_numel: usize,
}

/// Full outcome of a quantization run.
#[derive(Clone, Debug, Default)]
pub struct QuantReport {
    /// One entry per quantizable layer, in greedy order.
    pub layers: Vec<LayerReport>,
}

impl QuantReport {
    /// Element-weighted overall weight sparsity before quantization.
    pub fn sparsity_before(&self) -> f32 {
        weighted(&self.layers, |l| l.sparsity_before)
    }

    /// Element-weighted overall weight sparsity after quantization.
    pub fn sparsity_after(&self) -> f32 {
        weighted(&self.layers, |l| l.sparsity_after)
    }

    /// Mean weight quantization MSE across layers.
    pub fn mean_weight_mse(&self) -> f32 {
        if self.layers.is_empty() {
            return 0.0;
        }
        self.layers.iter().map(|l| l.weight_mse).sum::<f32>() / self.layers.len() as f32
    }

    /// Histogram of chosen *weight* encodings (e.g. `"E4M3" -> 12`),
    /// the per-tensor format diversity that motivates the search
    /// (Kuzmin et al. report the same analysis).
    pub fn weight_encoding_histogram(&self) -> std::collections::BTreeMap<String, usize> {
        histogram(self.layers.iter().filter_map(|l| l.weight_quantizer.as_deref()))
    }

    /// Histogram of chosen *activation* encodings (trunk quantizers).
    pub fn act_encoding_histogram(&self) -> std::collections::BTreeMap<String, usize> {
        histogram(self.layers.iter().filter_map(|l| l.act_quantizer.as_deref()))
    }

    /// Number of layers where rounding learning improved on
    /// round-to-nearest.
    pub fn rl_improved_layers(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| matches!((l.rtn_mse, l.learned_mse), (Some(r), Some(g)) if g < r))
            .count()
    }
}

/// Groups quantizer descriptions by their encoding prefix ("E4M3(b=8)"
/// -> "E4M3"; "INT8(s=...)" -> "INT8").
fn histogram<'a>(
    descs: impl Iterator<Item = &'a str>,
) -> std::collections::BTreeMap<String, usize> {
    let mut out = std::collections::BTreeMap::new();
    for d in descs {
        let key = d.split('(').next().unwrap_or(d).to_string();
        *out.entry(key).or_insert(0) += 1;
    }
    out
}

fn weighted(layers: &[LayerReport], f: impl Fn(&LayerReport) -> f32) -> f32 {
    let total: usize = layers.iter().map(|l| l.weight_numel).sum();
    if total == 0 {
        return 0.0;
    }
    layers.iter().map(|l| f(l) * l.weight_numel as f32).sum::<f32>() / total as f32
}

fn search_weight(w: &Tensor, cfg: &PtqConfig) -> crate::search::SearchResult {
    match cfg.weight_scheme {
        Scheme::Fp => search_fp_format(&[w], cfg.weight_bits, cfg.bias_candidates),
        Scheme::Int => search_int_format(&[w], cfg.weight_bits, cfg.bias_candidates),
    }
}

fn search_act(samples: &[&Tensor], cfg: &PtqConfig) -> crate::search::SearchResult {
    match cfg.act_scheme {
        Scheme::Fp => search_fp_format(samples, cfg.act_bits, cfg.bias_candidates),
        Scheme::Int => search_int_format(samples, cfg.act_bits, cfg.bias_candidates),
    }
}

/// Applies the paper's full PTQ method to a U-Net **in place**: weights
/// are overwritten with their quantized values and activation
/// fake-quantizers are installed into the layer taps.
///
/// The model must be in its full-precision state on entry (reload from the
/// zoo to re-quantize with a different config).
pub fn quantize_unet(
    unet: &UNet,
    calib: &CalibrationSet,
    cfg: &PtqConfig,
    rng: &mut StdRng,
) -> QuantReport {
    // Phase 0: capture full-precision activations before touching weights.
    let init_acts = if cfg.quantize_acts {
        capture_layer_inputs(unet, &calib.init, None)
    } else {
        Default::default()
    };
    let needs_rl = cfg.quantize_weights
        && cfg.rounding_learning
        && cfg.weight_scheme == Scheme::Fp
        && !calib.rl.is_empty();
    let fp_inputs =
        if needs_rl { capture_layer_inputs(unet, &calib.rl, None) } else { Default::default() };

    // Layer list in greedy (breadth-first model) order.
    let mut names = Vec::new();
    unet.visit_quant_layers(&mut |l| names.push(l.qname().to_string()));

    let mut report = QuantReport::default();
    for name in &names {
        let mut layer_report: Option<LayerReport> = None;
        // Phase A: weight quantization for this layer.
        if cfg.quantize_weights {
            // Error-aware inputs: capture this layer's inputs with all
            // previous layers already quantized.
            let rl_inputs = if needs_rl {
                capture_layer_inputs(unet, &calib.rl, Some(name)).remove(name)
            } else {
                None
            };
            unet.visit_quant_layers(&mut |layer| {
                if layer.qname() != name {
                    return;
                }
                let w = layer.weight().value();
                let found = search_weight(&w, cfg);
                let mut rep = LayerReport {
                    name: name.clone(),
                    kind: layer.kind(),
                    weight_quantizer: Some(found.quantizer.describe()),
                    weight_format: Some(found.quantizer),
                    weight_mse: found.mse,
                    rtn_mse: None,
                    learned_mse: None,
                    act_quantizer: None,
                    act_format: None,
                    act_quantizer_skip: None,
                    act_format_skip: None,
                    sparsity_before: w.sparsity(),
                    sparsity_after: 0.0,
                    weight_numel: w.numel(),
                };
                let baked = match (&found.quantizer, needs_rl, &rl_inputs) {
                    (TensorQuantizer::Fp(fmt), true, Some(inputs)) => {
                        let refs =
                            fp_inputs.get(name).expect("fp reference inputs missing for layer");
                        let out = learn_rounding(layer, *fmt, inputs, refs, &cfg.rounding, rng);
                        rep.rtn_mse = Some(out.rtn_mse);
                        rep.learned_mse = Some(out.learned_mse);
                        out.weight
                    }
                    _ => found.quantizer.quantize(&w),
                };
                rep.sparsity_after = baked.sparsity();
                layer.weight().replace(baked);
                layer_report = Some(rep);
            });
        }
        report.layers.push(layer_report.unwrap_or_else(|| {
            // Weights untouched (activation-only ablation): still record
            // the layer for the activation phase below.
            let mut rep = None;
            unet.visit_quant_layers(&mut |layer| {
                if layer.qname() == name {
                    let w = layer.weight().value();
                    rep = Some(LayerReport {
                        name: name.clone(),
                        kind: layer.kind(),
                        weight_quantizer: None,
                        weight_format: None,
                        weight_mse: 0.0,
                        rtn_mse: None,
                        learned_mse: None,
                        act_quantizer: None,
                        act_format: None,
                        act_quantizer_skip: None,
                        act_format_skip: None,
                        sparsity_before: w.sparsity(),
                        sparsity_after: w.sparsity(),
                        weight_numel: w.numel(),
                    });
                }
            });
            rep.expect("layer disappeared during quantization")
        }));
    }

    // Phase B: activation quantizers, installed after all weights baked.
    if cfg.quantize_acts {
        for rep in &mut report.layers {
            let Some(samples) = init_acts.get(&rep.name) else { continue };
            if samples.is_empty() {
                continue;
            }
            unet.visit_quant_layers(&mut |layer| {
                if layer.qname() != rep.name {
                    return;
                }
                let axis = match layer.kind() {
                    QuantKind::Conv => 1,
                    QuantKind::Linear => samples[0].ndim() - 1,
                };
                match (cfg.split_skip_quant, layer.concat_split()) {
                    (true, Some(split)) if split < samples[0].dim(axis) => {
                        let trunk: Vec<Tensor> =
                            samples.iter().map(|s| s.narrow(axis, 0, split)).collect();
                        let skip: Vec<Tensor> = samples
                            .iter()
                            .map(|s| s.narrow(axis, split, s.dim(axis) - split))
                            .collect();
                        let trunk_refs: Vec<&Tensor> = trunk.iter().collect();
                        let skip_refs: Vec<&Tensor> = skip.iter().collect();
                        let qt = search_act(&trunk_refs, cfg);
                        let qs = search_act(&skip_refs, cfg);
                        rep.act_quantizer = Some(qt.quantizer.describe());
                        rep.act_quantizer_skip = Some(qs.quantizer.describe());
                        // Record both formats: the container rebuilds the
                        // taps from them, and the packer fuses them into a
                        // split per-channel kernel quantizer.
                        rep.act_format = Some(qt.quantizer);
                        rep.act_format_skip = Some(qs.quantizer);
                        let mut tap = layer.tap().borrow_mut();
                        tap.act_quant = Some(qt.quantizer.into_act_fn());
                        tap.act_quant_skip = Some(qs.quantizer.into_act_fn());
                    }
                    _ => {
                        let refs: Vec<&Tensor> = samples.iter().collect();
                        let q = search_act(&refs, cfg);
                        rep.act_quantizer = Some(q.quantizer.describe());
                        rep.act_format = Some(q.quantizer);
                        layer.tap().borrow_mut().act_quant = Some(q.quantizer.into_act_fn());
                    }
                }
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::CalibPoint;
    use crate::format::FpFormat;
    use fpdq_nn::{UNet, UNetConfig};
    use rand::SeedableRng;

    fn tiny_setup(seed: u64) -> (UNet, CalibrationSet, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let unet = UNet::new(UNetConfig::tiny(2), &mut rng);
        let points: Vec<CalibPoint> = (0..6)
            .map(|i| CalibPoint {
                x: fpdq_tensor::Tensor::randn(&[1, 2, 8, 8], &mut rng),
                t: (i * 3) as f32,
                ctx: None,
            })
            .collect();
        let calib = CalibrationSet { init: points.clone(), rl: points };
        (unet, calib, rng)
    }

    fn fast_cfg(mut cfg: PtqConfig) -> PtqConfig {
        cfg.bias_candidates = 15;
        cfg.rounding = RoundingConfig { iters: 10, batch: 3, ..RoundingConfig::default() };
        cfg
    }

    #[test]
    fn fp8_quantization_preserves_model_output_closely() {
        let (unet, calib, mut rng) = tiny_setup(0);
        let x = fpdq_tensor::Tensor::randn(&[1, 2, 8, 8], &mut rng);
        let t = fpdq_tensor::Tensor::from_vec(vec![5.0], &[1]);
        let before = unet.forward(&x, &t, None);
        let report = quantize_unet(&unet, &calib, &fast_cfg(PtqConfig::fp(8, 8)), &mut rng);
        let after = unet.forward(&x, &t, None);
        let rel = after.mse(&before) / before.var().max(1e-9);
        assert!(rel < 0.05, "FP8/FP8 relative output error too large: {rel}");
        assert_eq!(report.layers.len(), {
            let mut n = 0;
            unet.visit_quant_layers(&mut |_| n += 1);
            n
        });
    }

    #[test]
    fn every_layer_gets_weight_and_act_quantizers() {
        let (unet, calib, mut rng) = tiny_setup(1);
        let report = quantize_unet(&unet, &calib, &fast_cfg(PtqConfig::fp(8, 8)), &mut rng);
        for l in &report.layers {
            assert!(l.weight_quantizer.is_some(), "{} missing weight quantizer", l.name);
            assert!(l.act_quantizer.is_some(), "{} missing act quantizer", l.name);
        }
        // Taps actually installed.
        let mut installed = 0;
        unet.visit_quant_layers(&mut |l| {
            if l.tap().borrow().act_quant.is_some() {
                installed += 1;
            }
        });
        assert_eq!(installed, report.layers.len());
    }

    #[test]
    fn split_layers_get_two_act_quantizers() {
        let (unet, calib, mut rng) = tiny_setup(2);
        let report = quantize_unet(&unet, &calib, &fast_cfg(PtqConfig::fp(8, 8)), &mut rng);
        let split_layers: Vec<_> =
            report.layers.iter().filter(|l| l.act_quantizer_skip.is_some()).collect();
        assert_eq!(split_layers.len(), 4, "2 levels x (1+1) up res blocks consume concats");
        for l in &split_layers {
            assert!(l.name.contains("conv1"), "split quantizer on unexpected layer {}", l.name);
        }
    }

    #[test]
    fn baked_fp_weights_are_representable() {
        let (unet, calib, mut rng) = tiny_setup(3);
        let report = quantize_unet(&unet, &calib, &fast_cfg(PtqConfig::fp(8, 8)), &mut rng);
        // Re-quantizing a baked weight with its own chosen format must be
        // the identity. Parse the E/M/bias back from the description.
        let mut checked = 0;
        unet.visit_quant_layers(&mut |layer| {
            let rep = report.layers.iter().find(|l| l.name == layer.qname()).unwrap();
            let desc = rep.weight_quantizer.as_ref().unwrap();
            // "E4M3(b=8)" style
            let e: u32 = desc[1..2].parse().unwrap();
            let m: u32 = desc[3..4].parse().unwrap();
            let b: f32 = desc[desc.find("b=").unwrap() + 2..desc.len() - 1].parse().unwrap();
            let fmt = FpFormat::with_bias(e, m, b);
            let w = layer.weight().value();
            let requant = fmt.quantize(&w);
            for (a, q) in w.data().iter().zip(requant.data()) {
                assert!((a - q).abs() < 1e-6, "{}: {a} not on grid", layer.qname());
            }
            checked += 1;
        });
        assert!(checked > 10);
    }

    #[test]
    fn int_weights_have_bounded_level_count() {
        let (unet, calib, mut rng) = tiny_setup(4);
        quantize_unet(&unet, &calib, &fast_cfg(PtqConfig::int(4, 8)), &mut rng);
        unet.visit_quant_layers(&mut |layer| {
            let w = layer.weight().value();
            let mut vals: Vec<f32> = w.data().to_vec();
            vals.sort_by(f32::total_cmp);
            vals.dedup();
            assert!(vals.len() <= 16, "{}: {} distinct INT4 levels", layer.qname(), vals.len());
        });
    }

    #[test]
    fn fp4_rl_reports_reconstruction_improvements() {
        let (unet, calib, mut rng) = tiny_setup(5);
        let mut cfg = fast_cfg(PtqConfig::fp(4, 8));
        cfg.rounding.iters = 40;
        assert!(cfg.rounding_learning, "FP4 must enable RL by default");
        let report = quantize_unet(&unet, &calib, &cfg, &mut rng);
        let with_rl = report.layers.iter().filter(|l| l.rtn_mse.is_some()).count();
        assert_eq!(with_rl, report.layers.len(), "RL must run on every layer");
        assert!(
            report.rl_improved_layers() * 2 >= report.layers.len(),
            "RL improved only {}/{} layers",
            report.rl_improved_layers(),
            report.layers.len()
        );
    }

    #[test]
    fn quantization_increases_sparsity() {
        let (unet, calib, mut rng) = tiny_setup(6);
        let report = quantize_unet(
            &unet,
            &calib,
            &fast_cfg(PtqConfig::fp(4, 8).without_rounding_learning()),
            &mut rng,
        );
        assert!(
            report.sparsity_after() > report.sparsity_before(),
            "FP4 should zero small weights: {} -> {}",
            report.sparsity_before(),
            report.sparsity_after()
        );
    }

    #[test]
    fn ablation_toggles_respected() {
        let (unet, calib, mut rng) = tiny_setup(7);
        let mut cfg = fast_cfg(PtqConfig::fp(8, 8));
        cfg.quantize_weights = false;
        let report = quantize_unet(&unet, &calib, &cfg, &mut rng);
        assert!(report.layers.iter().all(|l| l.weight_quantizer.is_none()));
        assert!(report.layers.iter().all(|l| l.act_quantizer.is_some()));
    }

    #[test]
    fn encoding_histograms_cover_all_layers() {
        let (unet, calib, mut rng) = tiny_setup(8);
        let report = quantize_unet(&unet, &calib, &fast_cfg(PtqConfig::fp(8, 8)), &mut rng);
        let w_hist = report.weight_encoding_histogram();
        let total: usize = w_hist.values().sum();
        assert_eq!(total, report.layers.len());
        // Every key is one of the four FP8 encodings.
        for key in w_hist.keys() {
            assert!(
                ["E2M5", "E3M4", "E4M3", "E5M2"].contains(&key.as_str()),
                "unexpected encoding {key}"
            );
        }
        let a_hist = report.act_encoding_histogram();
        assert_eq!(a_hist.values().sum::<usize>(), report.layers.len());
    }

    #[test]
    fn tags_match_paper_nomenclature() {
        assert_eq!(PtqConfig::fp(4, 8).tag(), "FP4/FP8");
        assert_eq!(PtqConfig::int(8, 8).tag(), "INT8/INT8");
    }
}
