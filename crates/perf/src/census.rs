//! Layer-by-layer cost census of a U-Net architecture.
//!
//! Runs the model's own forward ([`UNet::forward_with`]) on a shape
//! interpreter, over a U-Net whose parameters are bare shapes, and emits
//! one [`LayerCost`] per primitive operation. Rows carry the model's layer
//! names, so a conv or linear row is named after its
//! [`QuantLayer::qname`](fpdq_nn::QuantLayer::qname).

use fpdq_nn::{
    Conv2d, GroupNorm, LayerNorm, Linear, MultiHeadAttention, Ops, ShapeOnly, UNet, UNetConfig,
};
use fpdq_tensor::{Shape, Tensor};
use std::cell::RefCell;

/// The layer classes of the paper's Figure 4 breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LayerClass {
    /// 2-D convolutions.
    Conv2d,
    /// Fully connected layers, including attention projections (the
    /// paper's "linear layers (including layers inside the attention
    /// units)").
    Linear,
    /// Group / layer normalisation.
    Norm,
    /// SiLU activations.
    Silu,
    /// Attention internals that are neither conv nor linear: QKᵀ / AV
    /// batched matmuls and the softmax.
    Attention,
}

impl LayerClass {
    /// All classes in display order.
    pub const ALL: [LayerClass; 5] = [
        LayerClass::Conv2d,
        LayerClass::Linear,
        LayerClass::Norm,
        LayerClass::Silu,
        LayerClass::Attention,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            LayerClass::Conv2d => "Conv2d",
            LayerClass::Linear => "Linear",
            LayerClass::Norm => "Norm",
            LayerClass::Silu => "SiLU",
            LayerClass::Attention => "Attention",
        }
    }
}

/// Cost model of one primitive operation.
#[derive(Clone, Debug)]
pub struct LayerCost {
    /// Hierarchical name.
    pub name: String,
    /// Figure-4 class.
    pub class: LayerClass,
    /// Floating-point operations (multiply-accumulate = 2 FLOPs).
    pub flops: f64,
    /// Parameter count (elements).
    pub params: u64,
    /// Activation elements read.
    pub reads: u64,
    /// Activation elements written.
    pub writes: u64,
}

/// A complete architecture census.
#[derive(Clone, Debug, Default)]
pub struct Census {
    /// Every primitive in execution order.
    pub layers: Vec<LayerCost>,
}

impl Census {
    /// Total FLOPs of one forward pass.
    pub fn total_flops(&self) -> f64 {
        self.layers.iter().map(|l| l.flops).sum()
    }

    /// Total parameter elements.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(|l| l.params).sum()
    }

    /// FLOPs grouped by class, in [`LayerClass::ALL`] order.
    pub fn flops_by_class(&self) -> Vec<(LayerClass, f64)> {
        LayerClass::ALL
            .iter()
            .map(|&c| (c, self.layers.iter().filter(|l| l.class == c).map(|l| l.flops).sum()))
            .collect()
    }
}

/// The shape-and-cost interpreter: runs a forward on `[..]` dims over
/// layers that hold only parameter [`Shape`]s, and records one
/// [`LayerCost`] per conv, linear, norm, SiLU and attention op. Adds,
/// concats, upsampling and reshapes move data without arithmetic worth
/// modelling and record nothing.
#[derive(Default)]
struct Recorder {
    layers: RefCell<Vec<LayerCost>>,
}

impl Recorder {
    fn push(
        &self,
        name: String,
        class: LayerClass,
        flops: f64,
        params: u64,
        reads: u64,
        writes: u64,
    ) {
        let row = LayerCost { name, class, flops, params, reads, writes };
        self.layers.borrow_mut().push(row);
    }

    fn norm(&self, name: &str, gamma: &Shape, beta: &Shape, x: &[usize]) -> Vec<usize> {
        let n = numel(x);
        let params = (gamma.numel() + beta.numel()) as u64;
        self.push(name.to_string(), LayerClass::Norm, 5.0 * n as f64, params, n, n);
        x.to_vec()
    }
}

fn numel(dims: &[usize]) -> u64 {
    dims.iter().product::<usize>() as u64
}

fn param_count(weight: &Shape, bias: &Option<Shape>) -> u64 {
    (weight.numel() + bias.as_ref().map_or(0, Shape::numel)) as u64
}

impl Ops for Recorder {
    type P = Shape;
    type V = Vec<usize>;

    fn conv(&self, layer: &Conv2d<Shape>, x: &Vec<usize>) -> Vec<usize> {
        let (b, c, h, w) = (x[0], x[1], x[2], x[3]);
        let wd = layer.weight.dims();
        let (o, kh, kw) = (wd[0], wd[2], wd[3]);
        let spec = layer.spec();
        let out = vec![b, o, spec.out_extent(h, kh), spec.out_extent(w, kw)];
        let flops = 2.0 * (numel(&out) * (c * kh * kw) as u64) as f64;
        let (params, name) = (param_count(&layer.weight, &layer.bias), layer.name().to_string());
        self.push(name, LayerClass::Conv2d, flops, params, numel(x), numel(&out));
        out
    }
    fn linear(&self, layer: &Linear<Shape>, x: &Vec<usize>) -> Vec<usize> {
        let (out_f, in_f) = (layer.weight.dims()[0], layer.weight.dims()[1]);
        let mut out = x.clone();
        *out.last_mut().expect("linear input has a feature axis") = out_f;
        let flops = 2.0 * (numel(&out) * in_f as u64) as f64;
        let (params, name) = (param_count(&layer.weight, &layer.bias), layer.name().to_string());
        self.push(name, LayerClass::Linear, flops, params, numel(x), numel(&out));
        out
    }
    fn group_norm(&self, layer: &GroupNorm<Shape>, x: &Vec<usize>) -> Vec<usize> {
        self.norm(layer.name(), &layer.gamma, &layer.beta, x)
    }
    fn layer_norm(&self, layer: &LayerNorm<Shape>, x: &Vec<usize>) -> Vec<usize> {
        self.norm(layer.name(), &layer.gamma, &layer.beta, x)
    }
    fn silu(&self, x: &Vec<usize>, scope: &str, tag: &str) -> Vec<usize> {
        let name = if scope.is_empty() { tag.to_string() } else { format!("{scope}.{tag}") };
        let n = numel(x);
        self.push(name, LayerClass::Silu, 4.0 * n as f64, 0, n, n);
        x.clone()
    }
    fn add(&self, a: &Vec<usize>, _b: &Vec<usize>) -> Vec<usize> {
        a.clone()
    }
    fn add_channels(&self, x: &Vec<usize>, _t: Vec<usize>) -> Vec<usize> {
        x.clone()
    }
    fn concat(&self, trunk: &Vec<usize>, skip: &Vec<usize>) -> Vec<usize> {
        let mut out = trunk.clone();
        out[1] += skip[1];
        out
    }
    fn upsample(&self, x: &Vec<usize>) -> Vec<usize> {
        vec![x[0], x[1], 2 * x[2], 2 * x[3]]
    }
    fn to_tokens(&self, x: Vec<usize>) -> Vec<usize> {
        vec![x[0], x[2] * x[3], x[1]]
    }
    fn to_map(&self, _t: Vec<usize>, like: &Vec<usize>) -> Vec<usize> {
        like.clone()
    }
    /// QKᵀ and AV batched matmuls, then the softmax over `[n, m]` scores
    /// (costed over the full width `d`, so independent of the head count).
    fn attention(
        &self,
        attn: &MultiHeadAttention<Shape>,
        q: &Vec<usize>,
        k: &Vec<usize>,
        _v: &Vec<usize>,
    ) -> Vec<usize> {
        let (b, n, d, m) = (q[0] as u64, q[1] as u64, q[2] as u64, k[1] as u64);
        let scores = b * n * m;
        let (matmuls, softmax) = (4.0 * (scores * d) as f64, 5.0 * scores as f64);
        let name = attn.name();
        let qk_av = format!("{name}.qk_av");
        self.push(qk_av, LayerClass::Attention, matmuls, 0, b * (n + m) * d, scores);
        self.push(format!("{name}.softmax"), LayerClass::Attention, softmax, 0, scores, scores);
        q.clone()
    }
}

/// Costs one forward of `cfg` by running [`UNet::forward_with`] on the
/// shape interpreter, over a U-Net built with [`ShapeOnly`] parameters
/// (so no weight is allocated, whatever the scale).
///
/// `input` is `(channels, height, width)` of the U-Net input; `ctx_len`
/// the cross-attention sequence length (ignored for unconditional
/// configs).
pub fn census(
    cfg: &UNetConfig,
    input: (usize, usize, usize),
    batch: usize,
    ctx_len: usize,
) -> Census {
    let unet = UNet::new(cfg.clone(), &mut ShapeOnly);
    let recorder = Recorder::default();
    let x = vec![batch, input.0, input.1, input.2];
    let emb = unet.time_embedding(&Tensor::zeros(&[batch])).dims().to_vec();
    let context = cfg.context_dim.map(|d| vec![batch, ctx_len, d]);
    unet.forward_with(&recorder, &x, &emb, context.as_ref());
    Census { layers: recorder.layers.into_inner() }
}

/// A U-Net configuration at real Stable-Diffusion-v1 scale (≈ 860M
/// parameters, 64×64×4 latents, 77-token CLIP context) for reproducing the
/// paper's §III characterization numbers.
pub fn sd_scale_config() -> UNetConfig {
    UNetConfig {
        in_channels: 4,
        out_channels: 4,
        base_channels: 320,
        channel_mults: vec![1, 2, 4, 4],
        num_res_blocks: 2,
        attn_levels: vec![0, 1, 2],
        heads: 8,
        context_dim: Some(768),
        norm_groups: 32,
    }
}

/// Input dims that go with [`sd_scale_config`].
pub fn sd_scale_input() -> (usize, usize, usize) {
    (4, 64, 64)
}

/// CLIP context length that goes with [`sd_scale_config`].
pub const SD_CONTEXT_LEN: usize = 77;

#[cfg(test)]
mod tests {
    use super::*;
    use fpdq_nn::UNet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn three_level_config() -> UNetConfig {
        UNetConfig {
            in_channels: 4,
            out_channels: 4,
            base_channels: 16,
            channel_mults: vec![1, 2, 2],
            num_res_blocks: 2,
            attn_levels: vec![1, 2],
            heads: 2,
            context_dim: Some(16),
            norm_groups: 4,
        }
    }

    #[test]
    fn census_params_match_live_model_exactly() {
        // Every bias and norm parameter counts (excluding nothing).
        for cfg in [
            UNetConfig::tiny(3),
            UNetConfig { context_dim: Some(12), ..UNetConfig::tiny(4) },
            three_level_config(),
        ] {
            let mut rng = StdRng::seed_from_u64(0);
            let unet = UNet::new(cfg.clone(), &mut rng);
            let c = census(&cfg, (cfg.in_channels, 8, 8), 1, 6);
            assert_eq!(
                c.total_params(),
                unet.param_count() as u64,
                "census/model param mismatch for {cfg:?}"
            );
        }
    }

    #[test]
    fn census_quant_layer_count_matches_model() {
        // The census's conv and linear rows are the model's quantizable
        // layers, by name and in the paper's Algorithm-1 order.
        for cfg in
            [UNetConfig { context_dim: Some(12), ..UNetConfig::tiny(4) }, three_level_config()]
        {
            let mut rng = StdRng::seed_from_u64(1);
            let unet = UNet::new(cfg.clone(), &mut rng);
            let mut model_names = Vec::new();
            unet.visit_quant_layers(&mut |l| model_names.push(l.qname().to_string()));
            let c = census(&cfg, (cfg.in_channels, 8, 8), 1, 6);
            let census_names: Vec<String> = c
                .layers
                .iter()
                .filter(|l| matches!(l.class, LayerClass::Conv2d | LayerClass::Linear))
                .map(|l| l.name.clone())
                .collect();
            assert_eq!(census_names, model_names);
        }
    }

    /// `(rows, total FLOPs, params, reads, writes, FLOPs per class)`.
    fn totals(c: &Census) -> (usize, f64, u64, u64, u64, Vec<f64>) {
        (
            c.layers.len(),
            c.total_flops(),
            c.total_params(),
            c.layers.iter().map(|l| l.reads).sum(),
            c.layers.iter().map(|l| l.writes).sum(),
            c.flops_by_class().into_iter().map(|(_, f)| f).collect(),
        )
    }

    #[test]
    fn census_totals_are_pinned() {
        // Figures of the hand-written census walk this one replaced; the
        // Fig. 4 table and `fpdq characterize` are built from them.
        let tiny = census(&UNetConfig::tiny(3), (3, 8, 8), 1, 0);
        let tiny_expected = (
            134,
            2420608.0,
            51979,
            47112,
            41992,
            vec![1982464.0, 271360.0, 55040.0, 41088.0, 70656.0],
        );
        assert_eq!(totals(&tiny), tiny_expected);
        let three = census(&three_level_config(), (4, 8, 8), 1, 6);
        let three_expected = (
            388,
            14503312.0,
            537604,
            161504,
            140784,
            vec![11591680.0, 2334720.0, 184960.0, 125952.0, 266000.0],
        );
        assert_eq!(totals(&three), three_expected);
        let sd = census(&sd_scale_config(), sd_scale_input(), 1, SD_CONTEXT_LEN);
        let sd_expected = (
            539,
            702015186240.0,
            760397764,
            448768320,
            486772672,
            vec![443946106880.0, 130934046720.0, 398540800.0, 226544640.0, 126509947200.0],
        );
        assert_eq!(totals(&sd), sd_expected);
    }

    #[test]
    fn sd_scale_parameter_count_near_860m() {
        let c = census(&sd_scale_config(), sd_scale_input(), 1, SD_CONTEXT_LEN);
        let params = c.total_params() as f64;
        // The paper quotes 860M for Stable Diffusion's U-Net; our
        // architecture is the same family with a simplified transformer,
        // so demand the right order of magnitude.
        assert!((500e6..1_300e6).contains(&params), "SD-scale census has {params:.3e} params");
    }

    #[test]
    fn conv_and_linear_dominate_flops_at_sd_scale() {
        // §III: "Most of the time is spent on the Conv2d and linear
        // layers". At minimum they must dominate the FLOP census.
        let c = census(&sd_scale_config(), sd_scale_input(), 1, SD_CONTEXT_LEN);
        let by_class = c.flops_by_class();
        let total = c.total_flops();
        let convlin: f64 = by_class
            .iter()
            .filter(|(cl, _)| matches!(cl, LayerClass::Conv2d | LayerClass::Linear))
            .map(|(_, f)| f)
            .sum();
        assert!(convlin / total > 0.75, "conv+linear = {:.1}%", 100.0 * convlin / total);
    }

    #[test]
    fn flops_scale_linearly_with_batch() {
        let cfg = UNetConfig::tiny(3);
        let c1 = census(&cfg, (3, 8, 8), 1, 0);
        let c8 = census(&cfg, (3, 8, 8), 8, 0);
        assert!((c8.total_flops() / c1.total_flops() - 8.0).abs() < 1e-9);
        assert_eq!(c1.total_params(), c8.total_params());
    }
}
