//! U-Net building blocks: timestep embeddings, residual blocks and spatial
//! transformers.

use crate::attention::TransformerBlock;
use crate::layers::{Conv2d, GroupNorm, Init, Linear, QuantLayer};
use crate::ops::Ops;
use fpdq_autograd::Param;
use fpdq_tensor::Tensor;

/// Sinusoidal timestep embedding (the DDPM positional encoding).
///
/// `timesteps` is `[b]`; returns `[b, dim]`.
///
/// # Panics
///
/// Panics if `dim` is odd.
pub fn timestep_embedding(timesteps: &Tensor, dim: usize, max_period: f32) -> Tensor {
    assert_eq!(dim % 2, 0, "timestep embedding dim must be even");
    assert_eq!(timesteps.ndim(), 1, "timesteps must be 1-D");
    let b = timesteps.dim(0);
    let half = dim / 2;
    let mut out = vec![0.0f32; b * dim];
    for (i, &t) in timesteps.data().iter().enumerate() {
        for j in 0..half {
            let freq = (-(j as f32) * max_period.ln() / half as f32).exp();
            out[i * dim + j] = (t * freq).cos();
            out[i * dim + half + j] = (t * freq).sin();
        }
    }
    Tensor::from_vec(out, &[b, dim])
}

/// The U-Net residual block: two GroupNorm→SiLU→Conv stages with a timestep
/// embedding injection and a learned shortcut when channel counts change.
#[derive(Debug)]
pub struct ResBlock<P = Param> {
    name: String,
    norm1: GroupNorm<P>,
    conv1: Conv2d<P>,
    time_proj: Linear<P>,
    norm2: GroupNorm<P>,
    conv2: Conv2d<P>,
    shortcut: Option<Conv2d<P>>,
}

impl<P> ResBlock<P> {
    /// Creates a residual block mapping `in_c` to `out_c` channels, with
    /// `temb_dim`-dimensional timestep embeddings.
    ///
    /// `concat_split` marks the input as `concat(trunk, skip)` starting at
    /// the given channel (propagated to the first conv for the paper's
    /// split activation quantization).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        in_c: usize,
        out_c: usize,
        temb_dim: usize,
        groups: usize,
        concat_split: Option<usize>,
        init: &mut impl Init<P = P>,
    ) -> Self {
        let mut conv1 = Conv2d::new(format!("{name}.conv1"), in_c, out_c, 3, 1, 1, init);
        if let Some(split) = concat_split {
            conv1.set_concat_split(split);
        }
        ResBlock {
            name: name.to_string(),
            norm1: GroupNorm::new(format!("{name}.norm1"), in_c, groups.min(in_c), init),
            conv1,
            time_proj: Linear::new(format!("{name}.time_proj"), temb_dim, out_c, init),
            norm2: GroupNorm::new(format!("{name}.norm2"), out_c, groups.min(out_c), init),
            conv2: Conv2d::new(format!("{name}.conv2"), out_c, out_c, 3, 1, 1, init),
            shortcut: (in_c != out_c)
                .then(|| Conv2d::new(format!("{name}.shortcut"), in_c, out_c, 1, 1, 0, init)),
        }
    }

    /// Forward: `x` is `[b, c, h, w]`, `temb` is `[b, temb_dim]`.
    pub fn forward<O: Ops<P = P>>(&self, ops: &O, x: &O::V, temb: &O::V) -> O::V {
        let h = ops.silu(&ops.group_norm(&self.norm1, x), &self.name, "silu1");
        let h = ops.conv(&self.conv1, &h);
        let t = ops.linear(&self.time_proj, &ops.silu(temb, &self.name, "silu_t"));
        let h = ops.add_channels(&h, t);
        let h = ops.silu(&ops.group_norm(&self.norm2, &h), &self.name, "silu2");
        let h = ops.conv(&self.conv2, &h);
        match &self.shortcut {
            Some(conv) => ops.add(&h, &ops.conv(conv, x)),
            None => ops.add(&h, x),
        }
    }
}

impl ResBlock {
    /// Collects `(name, param)` pairs.
    pub fn collect_params(&self, out: &mut Vec<(String, Param)>) {
        self.norm1.collect_params(out);
        self.conv1.collect_params(out);
        self.time_proj.collect_params(out);
        self.norm2.collect_params(out);
        self.conv2.collect_params(out);
        if let Some(s) = &self.shortcut {
            s.collect_params(out);
        }
    }

    /// Visits quantizable layers.
    pub fn visit_quant_layers<'a>(&'a self, f: &mut dyn FnMut(&'a dyn QuantLayer)) {
        f(&self.conv1);
        f(&self.time_proj);
        f(&self.conv2);
        if let Some(s) = &self.shortcut {
            f(s);
        }
    }
}

/// A spatial transformer: group-norm, 1×1 projection in, a
/// [`TransformerBlock`] over flattened spatial positions, 1×1 projection
/// out, residual.
#[derive(Debug)]
pub struct SpatialTransformer<P = Param> {
    norm: GroupNorm<P>,
    proj_in: Conv2d<P>,
    block: TransformerBlock<P>,
    proj_out: Conv2d<P>,
}

impl<P> SpatialTransformer<P> {
    /// Creates a spatial transformer over `channels` with optional
    /// cross-attention to `context_dim` features.
    pub fn new(
        name: &str,
        channels: usize,
        context_dim: Option<usize>,
        heads: usize,
        groups: usize,
        init: &mut impl Init<P = P>,
    ) -> Self {
        SpatialTransformer {
            norm: GroupNorm::new(format!("{name}.norm"), channels, groups.min(channels), init),
            proj_in: Conv2d::new(format!("{name}.proj_in"), channels, channels, 1, 1, 0, init),
            block: TransformerBlock::new(
                &format!("{name}.block"),
                channels,
                context_dim,
                heads,
                init,
            ),
            proj_out: Conv2d::new(format!("{name}.proj_out"), channels, channels, 1, 1, 0, init),
        }
    }

    /// Forward: `x` is `[b, c, h, w]`; the block runs over `[b, h·w, c]`
    /// tokens.
    pub fn forward<O: Ops<P = P>>(&self, ops: &O, x: &O::V, context: Option<&O::V>) -> O::V {
        let t = ops.conv(&self.proj_in, &ops.group_norm(&self.norm, x));
        let t = self.block.forward(ops, &ops.to_tokens(t), context);
        ops.add(x, &ops.conv(&self.proj_out, &ops.to_map(t, x)))
    }
}

impl SpatialTransformer {
    /// Collects `(name, param)` pairs.
    pub fn collect_params(&self, out: &mut Vec<(String, Param)>) {
        self.norm.collect_params(out);
        self.proj_in.collect_params(out);
        self.block.collect_params(out);
        self.proj_out.collect_params(out);
    }

    /// Visits quantizable layers.
    pub fn visit_quant_layers<'a>(&'a self, f: &mut dyn FnMut(&'a dyn QuantLayer)) {
        f(&self.proj_in);
        self.block.visit_quant_layers(f);
        f(&self.proj_out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Infer, Train};
    use fpdq_autograd::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn timestep_embedding_distinguishes_timesteps() {
        let t = Tensor::from_vec(vec![0.0, 10.0, 500.0], &[3]);
        let emb = timestep_embedding(&t, 16, 10_000.0);
        assert_eq!(emb.dims(), &[3, 16]);
        // t=0: cos part all ones, sin part all zeros.
        for j in 0..8 {
            assert!((emb.at(&[0, j]) - 1.0).abs() < 1e-6);
            assert!(emb.at(&[0, 8 + j]).abs() < 1e-6);
        }
        // Distinct timesteps get distinct embeddings.
        let d01: f32 = (0..16).map(|j| (emb.at(&[0, j]) - emb.at(&[1, j])).abs()).sum();
        assert!(d01 > 0.1);
    }

    #[test]
    fn resblock_shapes_and_path_agreement() {
        let mut rng = StdRng::seed_from_u64(1);
        let rb = ResBlock::new("r", 4, 8, 16, 2, None, &mut rng);
        let x = Tensor::randn(&[2, 4, 6, 6], &mut rng);
        let temb = Tensor::randn(&[2, 16], &mut rng);
        let y = rb.forward(&Infer, &x, &temb);
        assert_eq!(y.dims(), &[2, 8, 6, 6]);
        let tape = Tape::new();
        let y2 = rb.forward(&Train(&tape), &tape.constant(x), &tape.constant(temb));
        for (a, b) in y.data().iter().zip(y2.value().data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn resblock_identity_shortcut_when_channels_match() {
        let mut rng = StdRng::seed_from_u64(2);
        let rb = ResBlock::new("r", 4, 4, 8, 2, None, &mut rng);
        let mut names = Vec::new();
        rb.visit_quant_layers(&mut |l| names.push(l.qname().to_string()));
        assert!(!names.iter().any(|n| n.contains("shortcut")));
        assert_eq!(names.len(), 3); // conv1, time_proj, conv2
    }

    #[test]
    fn spatial_transformer_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let st = SpatialTransformer::new("s", 8, Some(6), 2, 4, &mut rng);
        let x = Tensor::randn(&[2, 8, 4, 4], &mut rng);
        let ctx = Tensor::randn(&[2, 3, 6], &mut rng);
        let y = st.forward(&Infer, &x, Some(&ctx));
        assert_eq!(y.dims(), x.dims());
        let tape = Tape::new();
        let y2 = st.forward(&Train(&tape), &tape.constant(x), Some(&tape.constant(ctx)));
        for (a, b) in y.data().iter().zip(y2.value().data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn resblock_concat_split_reaches_conv1() {
        let mut rng = StdRng::seed_from_u64(5);
        let rb = ResBlock::new("r", 8, 4, 8, 2, Some(5), &mut rng);
        let mut splits = Vec::new();
        rb.visit_quant_layers(&mut |l| splits.push((l.qname().to_string(), l.concat_split())));
        let conv1 = splits.iter().find(|(n, _)| n.ends_with("conv1")).unwrap();
        assert_eq!(conv1.1, Some(5));
    }
}
