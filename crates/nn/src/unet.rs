//! The diffusion U-Net: the noise-prediction network `ε_θ(x_t, t, ctx)`.
//!
//! Mirrors the Stable-Diffusion/LDM architecture at reduced scale:
//! ResNet blocks with timestep injection, spatial transformers with
//! optional cross-attention, stride-2 down/upsampling, and the
//! block-to-block **skip connections** whose concatenation consumers the
//! paper singles out for split activation quantization (§VI-A).

use crate::blocks::{timestep_embedding, ResBlock, SpatialTransformer};
use crate::layers::{Conv2d, GroupNorm, Init, Linear, QuantLayer};
use crate::ops::{Infer, Ops};
use fpdq_autograd::Param;
use fpdq_tensor::{FpdqError, Tensor};

/// Architecture hyper-parameters of a [`UNet`].
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct UNetConfig {
    /// Input channels (image or latent channels).
    pub in_channels: usize,
    /// Output channels (predicted noise channels).
    pub out_channels: usize,
    /// Channel width at the first level.
    pub base_channels: usize,
    /// Per-level channel multipliers (also sets the number of levels).
    pub channel_mults: Vec<usize>,
    /// Residual blocks per level.
    pub num_res_blocks: usize,
    /// Level indices that get spatial-transformer attention.
    pub attn_levels: Vec<usize>,
    /// Attention heads.
    pub heads: usize,
    /// Cross-attention context dimensionality (None = unconditional).
    pub context_dim: Option<usize>,
    /// GroupNorm group count.
    pub norm_groups: usize,
}

impl UNetConfig {
    /// A small unconditional config suitable for unit tests.
    pub fn tiny(in_channels: usize) -> Self {
        UNetConfig {
            in_channels,
            out_channels: in_channels,
            base_channels: 8,
            channel_mults: vec![1, 2],
            num_res_blocks: 1,
            attn_levels: vec![1],
            heads: 2,
            context_dim: None,
            norm_groups: 4,
        }
    }

    fn time_dim(&self) -> usize {
        self.base_channels * 4
    }
}

/// One resolution level: its blocks, then the conv that changes the
/// resolution (stride 2 on the way down; after a nearest-neighbour 2×
/// upsampling on the way up).
#[derive(Debug)]
struct Level<P> {
    blocks: Vec<(ResBlock<P>, Option<SpatialTransformer<P>>)>,
    resample: Option<Conv2d<P>>,
}

/// The denoising U-Net (see module docs), over parameters `P` (see
/// [`Init`]).
#[derive(Debug)]
pub struct UNet<P = Param> {
    cfg: UNetConfig,
    conv_in: Conv2d<P>,
    time1: Linear<P>,
    time2: Linear<P>,
    down: Vec<Level<P>>,
    mid: (ResBlock<P>, Option<SpatialTransformer<P>>, ResBlock<P>),
    up: Vec<Level<P>>,
    out_norm: GroupNorm<P>,
    conv_out: Conv2d<P>,
}

impl<P> UNet<P> {
    /// Builds a U-Net with parameters from `init` (see [`Init`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no levels, zero blocks).
    pub fn new(cfg: UNetConfig, init: &mut impl Init<P = P>) -> Self {
        assert!(!cfg.channel_mults.is_empty(), "need at least one level");
        assert!(cfg.num_res_blocks >= 1, "need at least one res block per level");
        let base = cfg.base_channels;
        let tdim = cfg.time_dim();
        let levels = cfg.channel_mults.len();
        let groups = cfg.norm_groups;

        let conv_in = Conv2d::new("conv_in", cfg.in_channels, base, 3, 1, 1, init);
        let time1 = Linear::new("time1", base, tdim, init);
        let time2 = Linear::new("time2", tdim, tdim, init);

        // Track skip channels exactly as forward will push them.
        let mut skip_chs = vec![base];
        let mut ch = base;
        let mut down = Vec::new();
        for (i, &mult) in cfg.channel_mults.iter().enumerate() {
            let out_ch = base * mult;
            let mut blocks = Vec::new();
            for j in 0..cfg.num_res_blocks {
                let rb =
                    ResBlock::new(&format!("down{i}.res{j}"), ch, out_ch, tdim, groups, None, init);
                ch = out_ch;
                let attn = cfg.attn_levels.contains(&i).then(|| {
                    SpatialTransformer::new(
                        &format!("down{i}.attn{j}"),
                        ch,
                        cfg.context_dim,
                        cfg.heads,
                        groups,
                        init,
                    )
                });
                blocks.push((rb, attn));
                skip_chs.push(ch);
            }
            let is_last = i == levels - 1;
            let downsample = (!is_last).then(|| {
                skip_chs.push(ch);
                Conv2d::new(format!("down{i}.down.conv"), ch, ch, 3, 2, 1, init)
            });
            down.push(Level { blocks, resample: downsample });
        }

        let mid_attn = (!cfg.attn_levels.is_empty() || cfg.context_dim.is_some()).then(|| {
            SpatialTransformer::new("mid.attn", ch, cfg.context_dim, cfg.heads, groups, init)
        });
        let mid = (
            ResBlock::new("mid.res0", ch, ch, tdim, groups, None, init),
            mid_attn,
            ResBlock::new("mid.res1", ch, ch, tdim, groups, None, init),
        );

        let mut up = Vec::new();
        for (i, &mult) in cfg.channel_mults.iter().enumerate().rev() {
            let out_ch = base * mult;
            let mut blocks = Vec::new();
            for j in 0..cfg.num_res_blocks + 1 {
                let skip_ch = skip_chs.pop().expect("skip channel bookkeeping out of sync");
                let rb = ResBlock::new(
                    &format!("up{i}.res{j}"),
                    ch + skip_ch,
                    out_ch,
                    tdim,
                    groups,
                    Some(ch),
                    init,
                );
                ch = out_ch;
                let attn = cfg.attn_levels.contains(&i).then(|| {
                    SpatialTransformer::new(
                        &format!("up{i}.attn{j}"),
                        ch,
                        cfg.context_dim,
                        cfg.heads,
                        groups,
                        init,
                    )
                });
                blocks.push((rb, attn));
            }
            let upsample =
                (i != 0).then(|| Conv2d::new(format!("up{i}.up.conv"), ch, ch, 3, 1, 1, init));
            up.push(Level { blocks, resample: upsample });
        }
        assert!(skip_chs.is_empty(), "skip channel bookkeeping out of sync");

        let out_norm = GroupNorm::new("out_norm", ch, groups.min(ch), init);
        let conv_out = Conv2d::new("conv_out", ch, cfg.out_channels, 3, 1, 1, init);
        UNet { cfg, conv_in, time1, time2, down, mid, up, out_norm, conv_out }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &UNetConfig {
        &self.cfg
    }

    /// The sinusoidal embedding `[b, base_channels]` of timesteps `t`
    /// `[b]`, the `emb` input of [`Self::forward_with`].
    pub fn time_embedding(&self, t: &Tensor) -> Tensor {
        timestep_embedding(t, self.cfg.base_channels, 10_000.0)
    }

    /// The architecture, once, on any interpreter: predicts noise for `x`
    /// `[b, c, h, w]` from the timesteps' embedding `emb`
    /// ([`Self::time_embedding`]) and optional `context` `[b, l, ctx_dim]`.
    /// Validates nothing; [`Self::try_forward`] is the checked tensor entry.
    pub fn forward_with<O: Ops<P = P>>(
        &self,
        ops: &O,
        x: &O::V,
        emb: &O::V,
        context: Option<&O::V>,
    ) -> O::V {
        // conv_in first: layers run in `visit_quant_layers` order.
        let mut h = ops.conv(&self.conv_in, x);
        let temb = ops.linear(&self.time1, emb);
        let temb = ops.linear(&self.time2, &ops.silu(&temb, "", "time_silu"));
        let mut skips = vec![h.clone()];
        for level in &self.down {
            for (rb, attn) in &level.blocks {
                h = rb.forward(ops, &h, &temb);
                if let Some(a) = attn {
                    h = a.forward(ops, &h, context);
                }
                skips.push(h.clone());
            }
            if let Some(d) = &level.resample {
                h = ops.conv(d, &h);
                skips.push(h.clone());
            }
        }
        h = self.mid.0.forward(ops, &h, &temb);
        if let Some(a) = &self.mid.1 {
            h = a.forward(ops, &h, context);
        }
        h = self.mid.2.forward(ops, &h, &temb);
        for level in &self.up {
            for (rb, attn) in &level.blocks {
                let skip = skips.pop().expect("skip stack underflow");
                // Trunk first, then skip: conv1.concat_split == trunk channels.
                h = rb.forward(ops, &ops.concat(&h, &skip), &temb);
                if let Some(a) = attn {
                    h = a.forward(ops, &h, context);
                }
            }
            if let Some(u) = &level.resample {
                h = ops.conv(u, &ops.upsample(&h));
            }
        }
        debug_assert!(skips.is_empty(), "skip stack not fully consumed");
        let h = ops.silu(&ops.group_norm(&self.out_norm, &h), "", "out_silu");
        ops.conv(&self.conv_out, &h)
    }
}

impl UNet {
    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        let mut params = Vec::new();
        self.collect_params(&mut params);
        params.iter().map(|(_, p)| p.numel()).sum()
    }

    /// Inference forward: predicts noise for `x` `[b, c, h, w]` at
    /// timesteps `t` `[b]` with optional cross-attention `context`
    /// `[b, l, context_dim]`.
    ///
    /// Every layer treats the batch dimension independently, so image
    /// `i` of a batch-N forward equals the batch-1 forward on image `i`
    /// — the property batched packed sampling builds on.
    ///
    /// # Panics
    ///
    /// Panics on every input [`Self::try_forward`] rejects: a wrong input
    /// rank, channel count or spatial size, a missing or misshapen
    /// context, or a timestep/context batch that does not match `x` (a
    /// shared-timestep tensor of the wrong length would silently pair
    /// images with wrong time embeddings via the downstream broadcast).
    /// [`Self::try_forward`] is the non-panicking variant for callers
    /// (like the serving layer) that must survive malformed inputs.
    pub fn forward(&self, x: &Tensor, t: &Tensor, context: Option<&Tensor>) -> Tensor {
        match self.try_forward(x, t, context) {
            Ok(y) => y,
            Err(e) => panic!("{e}"),
        }
    }

    /// Validating forward: like [`Self::forward`] but input mistakes come
    /// back as a typed [`FpdqError`] instead of a panic: `x` must be
    /// `[b, in_channels, h, w]` with `h` and `w` positive multiples of the
    /// total downsampling factor (so every upsampled trunk meets its skip
    /// at the same size), `t` must be `[b]`, and a conditional U-Net needs
    /// a `[b, l, context_dim]` context with `l ≥ 1`.
    pub fn try_forward(
        &self,
        x: &Tensor,
        t: &Tensor,
        context: Option<&Tensor>,
    ) -> Result<Tensor, FpdqError> {
        let &[b, c, h, w] = x.dims() else {
            return Err(FpdqError::shape(format!(
                "input must be [b, c, h, w], got {:?}",
                x.dims()
            )));
        };
        if c != self.cfg.in_channels {
            return Err(FpdqError::shape(format!(
                "input has {c} channels, this U-Net takes {}",
                self.cfg.in_channels
            )));
        }
        let factor = 1 << self.down.iter().filter(|l| l.resample.is_some()).count();
        if h == 0 || w == 0 || h % factor != 0 || w % factor != 0 {
            return Err(FpdqError::shape(format!(
                "input size {h}x{w} is not a positive multiple of the U-Net's downsampling factor {factor}"
            )));
        }
        if t.ndim() != 1 {
            return Err(FpdqError::shape(format!("timesteps must be [b], got {:?}", t.dims())));
        }
        if t.dim(0) != b {
            return Err(FpdqError::shape(format!(
                "timestep batch {} != image batch {b}",
                t.dim(0)
            )));
        }
        if let Some(cb) = context.map(|ctx| ctx.dims().first().copied().unwrap_or(0)) {
            if cb != b {
                return Err(FpdqError::shape(format!("context batch {cb} != image batch {b}")));
            }
        }
        match (self.cfg.context_dim, context) {
            (Some(_), None) => {
                return Err(FpdqError::missing("this U-Net is conditional: context required"));
            }
            (Some(cd), Some(ctx)) if !matches!(ctx.dims(), &[_, l, d] if l > 0 && d == cd) => {
                return Err(FpdqError::shape(format!(
                    "context must be [b, l >= 1, {cd}], got {:?}",
                    ctx.dims()
                )));
            }
            _ => {}
        }
        Ok(self.forward_with(&Infer, x, &self.time_embedding(t), context))
    }

    /// Collects `(name, param)` pairs for checkpointing and optimization.
    pub fn collect_params(&self, out: &mut Vec<(String, Param)>) {
        self.conv_in.collect_params(out);
        self.time1.collect_params(out);
        self.time2.collect_params(out);
        for level in &self.down {
            for (rb, attn) in &level.blocks {
                rb.collect_params(out);
                if let Some(a) = attn {
                    a.collect_params(out);
                }
            }
            if let Some(d) = &level.resample {
                d.collect_params(out);
            }
        }
        self.mid.0.collect_params(out);
        if let Some(a) = &self.mid.1 {
            a.collect_params(out);
        }
        self.mid.2.collect_params(out);
        for level in &self.up {
            for (rb, attn) in &level.blocks {
                rb.collect_params(out);
                if let Some(a) = attn {
                    a.collect_params(out);
                }
            }
            if let Some(u) = &level.resample {
                u.collect_params(out);
            }
        }
        self.out_norm.collect_params(out);
        self.conv_out.collect_params(out);
    }

    /// Visits every quantizable (conv/linear) layer in breadth-first model
    /// order — the greedy search order of the paper's Algorithm 1.
    pub fn visit_quant_layers<'a>(&'a self, f: &mut dyn FnMut(&'a dyn QuantLayer)) {
        f(&self.conv_in);
        f(&self.time1);
        f(&self.time2);
        for level in &self.down {
            for (rb, attn) in &level.blocks {
                rb.visit_quant_layers(f);
                if let Some(a) = attn {
                    a.visit_quant_layers(f);
                }
            }
            if let Some(d) = &level.resample {
                f(d);
            }
        }
        self.mid.0.visit_quant_layers(f);
        if let Some(a) = &self.mid.1 {
            a.visit_quant_layers(f);
        }
        self.mid.2.visit_quant_layers(f);
        for level in &self.up {
            for (rb, attn) in &level.blocks {
                rb.visit_quant_layers(f);
                if let Some(a) = attn {
                    a.visit_quant_layers(f);
                }
            }
            if let Some(u) = &level.resample {
                f(u);
            }
        }
        f(&self.conv_out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Train;
    use fpdq_autograd::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unconditional_forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let unet = UNet::new(UNetConfig::tiny(3), &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let t = Tensor::from_vec(vec![3.0, 77.0], &[2]);
        let y = unet.forward(&x, &t, None);
        assert_eq!(y.dims(), &[2, 3, 8, 8]);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn conditional_forward_uses_context() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = UNetConfig { context_dim: Some(12), ..UNetConfig::tiny(4) };
        let unet = UNet::new(cfg, &mut rng);
        let x = Tensor::randn(&[1, 4, 8, 8], &mut rng);
        let t = Tensor::from_vec(vec![5.0], &[1]);
        let ctx_a = Tensor::randn(&[1, 6, 12], &mut rng);
        let ctx_b = Tensor::randn(&[1, 6, 12], &mut rng);
        let ya = unet.forward(&x, &t, Some(&ctx_a));
        let yb = unet.forward(&x, &t, Some(&ctx_b));
        assert_eq!(ya.dims(), &[1, 4, 8, 8]);
        // Different context must change the output (cross-attention works).
        let diff: f32 = ya.data().iter().zip(yb.data()).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-3, "context had no effect: {diff}");
    }

    #[test]
    #[should_panic(expected = "context required")]
    fn conditional_unet_requires_context() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = UNetConfig { context_dim: Some(8), ..UNetConfig::tiny(3) };
        let unet = UNet::new(cfg, &mut rng);
        let x = Tensor::randn(&[1, 3, 8, 8], &mut rng);
        unet.forward(&x, &Tensor::from_vec(vec![1.0], &[1]), None);
    }

    #[test]
    fn try_forward_reports_input_mistakes_as_typed_errors() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = UNetConfig { context_dim: Some(8), ..UNetConfig::tiny(3) };
        let unet = UNet::new(cfg, &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let ctx = Tensor::randn(&[2, 4, 8], &mut rng);
        // Missing context.
        let err = unet.try_forward(&x, &t, None).unwrap_err();
        assert!(matches!(err, FpdqError::MissingInput(_)), "{err}");
        assert!(err.to_string().contains("context required"));
        // Timestep batch mismatch.
        let short_t = Tensor::from_vec(vec![1.0], &[1]);
        let err = unet.try_forward(&x, &short_t, Some(&ctx)).unwrap_err();
        assert!(matches!(err, FpdqError::ShapeMismatch(_)), "{err}");
        assert!(err.to_string().contains("timestep batch 1 != image batch 2"));
        // Context batch mismatch.
        let short_ctx = Tensor::randn(&[1, 4, 8], &mut rng);
        let err = unet.try_forward(&x, &t, Some(&short_ctx)).unwrap_err();
        assert!(matches!(err, FpdqError::ShapeMismatch(_)), "{err}");
        // And the happy path still runs.
        assert_eq!(unet.try_forward(&x, &t, Some(&ctx)).unwrap().dims(), &[2, 3, 8, 8]);
    }

    #[test]
    fn try_forward_rejects_bad_shapes_without_panicking() {
        // Channel counts, spatial sizes, input ranks and context shapes
        // around the valid ones, on the unconditional and the conditional
        // tiny configs: every bad input is a typed ShapeMismatch (or
        // MissingInput for an absent context), never a panic, and every
        // good one runs.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut rng = StdRng::seed_from_u64(6);
        for cd in [None, Some(8)] {
            let unet = UNet::new(UNetConfig { context_dim: cd, ..UNetConfig::tiny(3) }, &mut rng);
            let b = 2;
            let t = Tensor::from_vec(vec![1.0, 2.0], &[b]);
            let mut xs: Vec<(Vec<usize>, bool)> = vec![
                (vec![3, 8, 8], false),
                (vec![1, b, 3, 8, 8], false),
                (vec![b, 3, 0, 8], false),
            ];
            for c in [1, 3, 4] {
                for (h, w) in [(8, 8), (12, 16), (7, 7), (8, 9), (1, 8), (16, 6)] {
                    let good = c == 3 && h % 2 == 0 && w % 2 == 0;
                    xs.push((vec![b, c, h, w], good));
                }
            }
            let ctxs: Vec<(Option<Vec<usize>>, bool)> = match cd {
                None => vec![(None, true)],
                Some(d) => vec![
                    (None, false),
                    (Some(vec![b, 4, d]), true),
                    (Some(vec![b, 4, d - 1]), false),
                    (Some(vec![b, 4, d + 1]), false),
                    (Some(vec![b, 0, d]), false),
                    (Some(vec![b, d]), false),
                    (Some(vec![b + 1, 4, d]), false),
                ],
            };
            for (xd, x_ok) in &xs {
                let x = Tensor::randn(xd, &mut rng);
                for (ctxd, ctx_ok) in &ctxs {
                    let ctx = ctxd.as_ref().map(|d| Tensor::randn(d, &mut rng));
                    let case = format!("cd {cd:?} x {xd:?} ctx {ctxd:?}");
                    let out =
                        catch_unwind(AssertUnwindSafe(|| unet.try_forward(&x, &t, ctx.as_ref())))
                            .unwrap_or_else(|_| panic!("{case}: try_forward panicked"));
                    match out {
                        Ok(y) => {
                            assert!(x_ok & ctx_ok, "{case}: accepted a bad input");
                            assert_eq!(y.dims(), xd.as_slice(), "{case}");
                        }
                        Err(e) => {
                            assert!(!(x_ok & ctx_ok), "{case}: rejected a good input: {e}");
                            assert!(
                                matches!(
                                    e,
                                    FpdqError::ShapeMismatch(_) | FpdqError::MissingInput(_)
                                ),
                                "{case}: {e}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn forward_paths_agree() {
        let mut rng = StdRng::seed_from_u64(4);
        let unet = UNet::new(UNetConfig::tiny(3), &mut rng);
        let x = Tensor::randn(&[1, 3, 8, 8], &mut rng);
        let t = Tensor::from_vec(vec![9.0], &[1]);
        let y1 = unet.forward(&x, &t, None);
        let tape = Tape::new();
        let ops = Train(&tape);
        let y2 = unet.forward_with(
            &ops,
            &tape.constant(x),
            &tape.constant(unet.time_embedding(&t)),
            None,
        );
        for (a, b) in y1.data().iter().zip(y2.value().data()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn timestep_changes_output() {
        let mut rng = StdRng::seed_from_u64(5);
        let unet = UNet::new(UNetConfig::tiny(3), &mut rng);
        let x = Tensor::randn(&[1, 3, 8, 8], &mut rng);
        let y1 = unet.forward(&x, &Tensor::from_vec(vec![1.0], &[1]), None);
        let y2 = unet.forward(&x, &Tensor::from_vec(vec![90.0], &[1]), None);
        let diff: f32 = y1.data().iter().zip(y2.data()).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-3, "timestep had no effect");
    }

    #[test]
    fn quant_layers_have_unique_names_and_splits_on_up_path() {
        let mut rng = StdRng::seed_from_u64(6);
        let unet = UNet::new(UNetConfig::tiny(3), &mut rng);
        let mut names = std::collections::HashSet::new();
        let mut split_count = 0;
        let mut total = 0;
        unet.visit_quant_layers(&mut |l| {
            assert!(names.insert(l.qname().to_string()), "duplicate name {}", l.qname());
            if l.concat_split().is_some() {
                split_count += 1;
                assert!(l.qname().starts_with("up"), "split only on up-path conv1");
            }
            total += 1;
        });
        // Every up-level res block's conv1 consumes a concatenation:
        // levels * (num_res_blocks + 1) = 2 * 2.
        assert_eq!(split_count, 4);
        assert!(total > 20, "expected a realistic layer count, got {total}");
    }

    #[test]
    fn param_names_unique_and_counted() {
        let mut rng = StdRng::seed_from_u64(7);
        let unet = UNet::new(UNetConfig::tiny(3), &mut rng);
        let mut params = Vec::new();
        unet.collect_params(&mut params);
        let mut names = std::collections::HashSet::new();
        for (n, _) in &params {
            assert!(names.insert(n.clone()), "duplicate param name {n}");
        }
        assert_eq!(unet.param_count(), params.iter().map(|(_, p)| p.numel()).sum::<usize>());
        assert!(unet.param_count() > 1000);
    }

    #[test]
    fn three_level_unet_builds_and_runs() {
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = UNetConfig {
            in_channels: 2,
            out_channels: 2,
            base_channels: 8,
            channel_mults: vec![1, 2, 2],
            num_res_blocks: 2,
            attn_levels: vec![2],
            heads: 2,
            context_dim: None,
            norm_groups: 4,
        };
        let unet = UNet::new(cfg, &mut rng);
        let x = Tensor::randn(&[1, 2, 16, 16], &mut rng);
        let y = unet.forward(&x, &Tensor::from_vec(vec![42.0], &[1]), None);
        assert_eq!(y.dims(), &[1, 2, 16, 16]);
    }
}
