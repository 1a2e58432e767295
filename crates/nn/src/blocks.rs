//! U-Net building blocks: timestep embeddings, residual blocks, spatial
//! transformers, down/upsampling.

use crate::attention::TransformerBlock;
use crate::layers::{Conv2d, GroupNorm, Linear, QuantLayer};
use fpdq_autograd::{Param, Tape, Var};
use fpdq_tensor::Tensor;
use rand::Rng;

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
pub struct ResBlock {
    norm1: GroupNorm,
    conv1: Conv2d,
    time_proj: Linear,
    norm2: GroupNorm,
    conv2: Conv2d,
    shortcut: Option<Conv2d>,
}

impl ResBlock {
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
        rng: &mut impl Rng,
    ) -> Self {
        let mut conv1 = Conv2d::new(format!("{name}.conv1"), in_c, out_c, 3, 1, 1, rng);
        if let Some(split) = concat_split {
            conv1.set_concat_split(split);
        }
        ResBlock {
            norm1: GroupNorm::new(format!("{name}.norm1"), in_c, groups.min(in_c)),
            conv1,
            time_proj: Linear::new(format!("{name}.time_proj"), temb_dim, out_c, rng),
            norm2: GroupNorm::new(format!("{name}.norm2"), out_c, groups.min(out_c)),
            conv2: Conv2d::new(format!("{name}.conv2"), out_c, out_c, 3, 1, 1, rng),
            shortcut: (in_c != out_c)
                .then(|| Conv2d::new(format!("{name}.shortcut"), in_c, out_c, 1, 1, 0, rng)),
        }
    }

    /// Inference forward: `x` is `[b, c, h, w]`, `temb` is `[b, temb_dim]`.
    pub fn forward(&self, x: &Tensor, temb: &Tensor) -> Tensor {
        let mut h = self.conv1.forward(&self.norm1.forward(x).silu());
        let t = self.time_proj.forward(&temb.silu());
        // Broadcast [b, out_c] over spatial dims.
        let (b, c) = (t.dim(0), t.dim(1));
        h = h.add(&t.into_shape(&[b, c, 1, 1]));
        h = self.conv2.forward(&self.norm2.forward(&h).silu());
        let skip = match &self.shortcut {
            Some(conv) => conv.forward(x),
            None => x.clone(),
        };
        h.add(&skip)
    }

    /// Training forward.
    pub fn forward_var<'t>(&self, tape: &'t Tape, x: Var<'t>, temb: Var<'t>) -> Var<'t> {
        let mut h = self.conv1.forward_var(tape, self.norm1.forward_var(tape, x).silu());
        let t = self.time_proj.forward_var(tape, temb.silu());
        let tdims = t.dims();
        let t = t.reshape(&[tdims[0], tdims[1], 1, 1]);
        h = h.add(t);
        h = self.conv2.forward_var(tape, self.norm2.forward_var(tape, h).silu());
        let skip = match &self.shortcut {
            Some(conv) => conv.forward_var(tape, x),
            None => x,
        };
        h.add(skip)
    }

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
pub struct SpatialTransformer {
    norm: GroupNorm,
    proj_in: Conv2d,
    block: TransformerBlock,
    proj_out: Conv2d,
}

impl SpatialTransformer {
    /// Creates a spatial transformer over `channels` with optional
    /// cross-attention to `context_dim` features.
    pub fn new(
        name: &str,
        channels: usize,
        context_dim: Option<usize>,
        heads: usize,
        groups: usize,
        rng: &mut impl Rng,
    ) -> Self {
        SpatialTransformer {
            norm: GroupNorm::new(format!("{name}.norm"), channels, groups.min(channels)),
            proj_in: Conv2d::new(format!("{name}.proj_in"), channels, channels, 1, 1, 0, rng),
            block: TransformerBlock::new(
                &format!("{name}.block"),
                channels,
                context_dim,
                heads,
                rng,
            ),
            proj_out: Conv2d::new(format!("{name}.proj_out"), channels, channels, 1, 1, 0, rng),
        }
    }

    /// Inference forward: `x` is `[b, c, h, w]`.
    pub fn forward(&self, x: &Tensor, context: Option<&Tensor>) -> Tensor {
        let (b, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let mut t = self.proj_in.forward(&self.norm.forward(x));
        // [b, c, h, w] -> [b, hw, c]
        t = t.into_shape(&[b, c, h * w]).permute(&[0, 2, 1]);
        t = self.block.forward(&t, context);
        t = t.permute(&[0, 2, 1]).into_shape(&[b, c, h, w]);
        x.add(&self.proj_out.forward(&t))
    }

    /// Training forward.
    pub fn forward_var<'t>(&self, tape: &'t Tape, x: Var<'t>, context: Option<Var<'t>>) -> Var<'t> {
        let dims = x.dims();
        let (b, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let mut t = self.proj_in.forward_var(tape, self.norm.forward_var(tape, x));
        t = t.reshape(&[b, c, h * w]).permute(&[0, 2, 1]);
        t = self.block.forward_var(tape, t, context);
        t = t.permute(&[0, 2, 1]).reshape(&[b, c, h, w]);
        x.add(self.proj_out.forward_var(tape, t))
    }

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

/// Stride-2 convolutional downsampling.
#[derive(Debug)]
pub struct Downsample {
    conv: Conv2d,
}

impl Downsample {
    /// Creates a downsampler over `channels`.
    pub fn new(name: &str, channels: usize, rng: &mut impl Rng) -> Self {
        Downsample { conv: Conv2d::new(format!("{name}.conv"), channels, channels, 3, 2, 1, rng) }
    }

    /// Inference forward (halves spatial extents).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.conv.forward(x)
    }

    /// Training forward.
    pub fn forward_var<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        self.conv.forward_var(tape, x)
    }

    /// Collects `(name, param)` pairs.
    pub fn collect_params(&self, out: &mut Vec<(String, Param)>) {
        self.conv.collect_params(out);
    }

    /// Visits quantizable layers.
    pub fn visit_quant_layers<'a>(&'a self, f: &mut dyn FnMut(&'a dyn QuantLayer)) {
        f(&self.conv);
    }
}

/// Nearest-neighbour 2× upsampling followed by a 3×3 convolution.
#[derive(Debug)]
pub struct Upsample {
    conv: Conv2d,
}

impl Upsample {
    /// Creates an upsampler over `channels`.
    pub fn new(name: &str, channels: usize, rng: &mut impl Rng) -> Self {
        Upsample { conv: Conv2d::new(format!("{name}.conv"), channels, channels, 3, 1, 1, rng) }
    }

    /// Inference forward (doubles spatial extents).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.conv.forward(&x.upsample_nearest(2))
    }

    /// Training forward.
    pub fn forward_var<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        self.conv.forward_var(tape, x.upsample_nearest(2))
    }

    /// Collects `(name, param)` pairs.
    pub fn collect_params(&self, out: &mut Vec<(String, Param)>) {
        self.conv.collect_params(out);
    }

    /// Visits quantizable layers.
    pub fn visit_quant_layers<'a>(&'a self, f: &mut dyn FnMut(&'a dyn QuantLayer)) {
        f(&self.conv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let y = rb.forward(&x, &temb);
        assert_eq!(y.dims(), &[2, 8, 6, 6]);
        let tape = Tape::new();
        let y2 = rb.forward_var(&tape, tape.constant(x), tape.constant(temb));
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
        let y = st.forward(&x, Some(&ctx));
        assert_eq!(y.dims(), x.dims());
        let tape = Tape::new();
        let y2 = st.forward_var(&tape, tape.constant(x), Some(tape.constant(ctx)));
        for (a, b) in y.data().iter().zip(y2.value().data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn down_up_sample_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let down = Downsample::new("d", 4, &mut rng);
        let up = Upsample::new("u", 4, &mut rng);
        let x = Tensor::randn(&[1, 4, 8, 8], &mut rng);
        let lo = down.forward(&x);
        assert_eq!(lo.dims(), &[1, 4, 4, 4]);
        let hi = up.forward(&lo);
        assert_eq!(hi.dims(), &[1, 4, 8, 8]);
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
