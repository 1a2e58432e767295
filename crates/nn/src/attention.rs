//! Multi-head attention and transformer blocks (self- and cross-attention).
//!
//! Cross-attention is how the Stable-Diffusion-style pipeline conditions
//! the U-Net on the text encoder's output (Figure 1 of the paper). All
//! projections are [`Linear`] layers and therefore quantization targets;
//! the attention itself (scores, softmax, weighted sum) stays in FP32.
//!
//! Inference runs that FP32 part through the fused per-head core
//! [`Tensor::attention`], so the `[b, n, d]` projections are never
//! copied into a head-major `[b·h, n, dh]` layout nor merged back. The
//! training path ([`MultiHeadAttention::forward_var`]) keeps the explicit
//! split and merge on autograd variables, which the backward pass needs.

use crate::layers::{Linear, QuantLayer};
use fpdq_autograd::{Param, Tape, Var};
use fpdq_tensor::Tensor;
use rand::Rng;

/// Multi-head scaled-dot-product attention.
///
/// Self-attention when no context is passed; cross-attention when the
/// key/value source differs from the query source.
#[derive(Debug)]
pub struct MultiHeadAttention {
    to_q: Linear,
    to_k: Linear,
    to_v: Linear,
    to_out: Linear,
    heads: usize,
    head_dim: usize,
}

impl MultiHeadAttention {
    /// Creates an attention block over `dim` features with `heads` heads.
    ///
    /// `context_dim` is the key/value source dimensionality (defaults to
    /// `dim` for self-attention).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(
        name: &str,
        dim: usize,
        context_dim: Option<usize>,
        heads: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert_eq!(dim % heads, 0, "dim {dim} not divisible by {heads} heads");
        let ctx = context_dim.unwrap_or(dim);
        MultiHeadAttention {
            to_q: Linear::new(format!("{name}.to_q"), dim, dim, rng),
            to_k: Linear::new(format!("{name}.to_k"), ctx, dim, rng),
            to_v: Linear::new(format!("{name}.to_v"), ctx, dim, rng),
            to_out: Linear::new(format!("{name}.to_out"), dim, dim, rng),
            heads,
            head_dim: dim / heads,
        }
    }

    fn scale(&self) -> f32 {
        1.0 / (self.head_dim as f32).sqrt()
    }

    /// Inference forward: `x` is `[b, n, d]`, `context` (if any) `[b, m, c]`.
    pub fn forward(&self, x: &Tensor, context: Option<&Tensor>) -> Tensor {
        let ctx = context.unwrap_or(x);
        let q = self.to_q.forward(x);
        let k = self.to_k.forward(ctx);
        let v = self.to_v.forward(ctx);
        self.to_out.forward(&q.attention(&k, &v, self.heads, self.scale()))
    }

    /// Training forward over autograd variables.
    pub fn forward_var<'t>(&self, tape: &'t Tape, x: Var<'t>, context: Option<Var<'t>>) -> Var<'t> {
        let dims = x.dims();
        let (b, n) = (dims[0], dims[1]);
        let ctx = context.unwrap_or(x);
        let m = ctx.dims()[1];
        let split = |v: Var<'t>, len: usize| {
            v.reshape(&[b, len, self.heads, self.head_dim])
                .permute(&[0, 2, 1, 3])
                .reshape(&[b * self.heads, len, self.head_dim])
        };
        let q = split(self.to_q.forward_var(tape, x), n);
        let k = split(self.to_k.forward_var(tape, ctx), m);
        let v = split(self.to_v.forward_var(tape, ctx), m);
        let attn = q.bmm(k.permute(&[0, 2, 1])).mul_scalar(self.scale()).softmax_lastdim();
        let out = attn
            .bmm(v)
            .reshape(&[b, self.heads, n, self.head_dim])
            .permute(&[0, 2, 1, 3])
            .reshape(&[b, n, self.heads * self.head_dim]);
        self.to_out.forward_var(tape, out)
    }

    /// Collects `(name, param)` pairs.
    pub fn collect_params(&self, out: &mut Vec<(String, Param)>) {
        self.to_q.collect_params(out);
        self.to_k.collect_params(out);
        self.to_v.collect_params(out);
        self.to_out.collect_params(out);
    }

    /// Visits the four projection layers (all quantization targets).
    pub fn visit_quant_layers<'a>(&'a self, f: &mut dyn FnMut(&'a dyn QuantLayer)) {
        f(&self.to_q);
        f(&self.to_k);
        f(&self.to_v);
        f(&self.to_out);
    }
}

/// A pre-norm transformer block: self-attention, optional cross-attention,
/// and a SiLU feed-forward, each with residual connections.
#[derive(Debug)]
pub struct TransformerBlock {
    norm1: crate::layers::LayerNorm,
    attn1: MultiHeadAttention,
    cross: Option<(crate::layers::LayerNorm, MultiHeadAttention)>,
    norm_ff: crate::layers::LayerNorm,
    ff1: Linear,
    ff2: Linear,
}

impl TransformerBlock {
    /// Creates a transformer block over `dim` features.
    ///
    /// When `context_dim` is `Some`, a cross-attention sub-block is added
    /// (text conditioning path).
    pub fn new(
        name: &str,
        dim: usize,
        context_dim: Option<usize>,
        heads: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let hidden = dim * 2;
        TransformerBlock {
            norm1: crate::layers::LayerNorm::new(format!("{name}.norm1"), dim),
            attn1: MultiHeadAttention::new(&format!("{name}.attn1"), dim, None, heads, rng),
            cross: context_dim.map(|cd| {
                (
                    crate::layers::LayerNorm::new(format!("{name}.norm2"), dim),
                    MultiHeadAttention::new(&format!("{name}.attn2"), dim, Some(cd), heads, rng),
                )
            }),
            norm_ff: crate::layers::LayerNorm::new(format!("{name}.norm_ff"), dim),
            ff1: Linear::new(format!("{name}.ff1"), dim, hidden, rng),
            ff2: Linear::new(format!("{name}.ff2"), hidden, dim, rng),
        }
    }

    /// Inference forward: `x` is `[b, n, d]`.
    pub fn forward(&self, x: &Tensor, context: Option<&Tensor>) -> Tensor {
        let mut h = x.add(&self.attn1.forward(&self.norm1.forward(x), None));
        if let Some((norm2, attn2)) = &self.cross {
            h = h.add(&attn2.forward(&norm2.forward(&h), context));
        }
        let ff = self.ff2.forward(&self.ff1.forward(&self.norm_ff.forward(&h)).silu());
        h.add(&ff)
    }

    /// Training forward.
    pub fn forward_var<'t>(&self, tape: &'t Tape, x: Var<'t>, context: Option<Var<'t>>) -> Var<'t> {
        let mut h = x.add(self.attn1.forward_var(tape, self.norm1.forward_var(tape, x), None));
        if let Some((norm2, attn2)) = &self.cross {
            let n = norm2.forward_var(tape, h);
            h = h.add(attn2.forward_var(tape, n, context));
        }
        let ff = self.ff2.forward_var(
            tape,
            self.ff1.forward_var(tape, self.norm_ff.forward_var(tape, h)).silu(),
        );
        h.add(ff)
    }

    /// Collects `(name, param)` pairs.
    pub fn collect_params(&self, out: &mut Vec<(String, Param)>) {
        self.norm1.collect_params(out);
        self.attn1.collect_params(out);
        if let Some((norm2, attn2)) = &self.cross {
            norm2.collect_params(out);
            attn2.collect_params(out);
        }
        self.norm_ff.collect_params(out);
        self.ff1.collect_params(out);
        self.ff2.collect_params(out);
    }

    /// Visits quantizable layers (attention projections + feed-forward).
    pub fn visit_quant_layers<'a>(&'a self, f: &mut dyn FnMut(&'a dyn QuantLayer)) {
        self.attn1.visit_quant_layers(f);
        if let Some((_, attn2)) = &self.cross {
            attn2.visit_quant_layers(f);
        }
        f(&self.ff1);
        f(&self.ff2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn self_attention_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let attn = MultiHeadAttention::new("a", 8, None, 2, &mut rng);
        let x = Tensor::randn(&[2, 5, 8], &mut rng);
        let y = attn.forward(&x, None);
        assert_eq!(y.dims(), &[2, 5, 8]);
    }

    #[test]
    fn cross_attention_uses_context_length() {
        let mut rng = StdRng::seed_from_u64(2);
        let attn = MultiHeadAttention::new("a", 8, Some(6), 2, &mut rng);
        let x = Tensor::randn(&[2, 4, 8], &mut rng);
        let ctx = Tensor::randn(&[2, 7, 6], &mut rng);
        let y = attn.forward(&x, Some(&ctx));
        assert_eq!(y.dims(), &[2, 4, 8]);
    }

    #[test]
    fn attention_paths_agree() {
        let mut rng = StdRng::seed_from_u64(3);
        let attn = MultiHeadAttention::new("a", 8, None, 4, &mut rng);
        let x = Tensor::randn(&[2, 3, 8], &mut rng);
        let y1 = attn.forward(&x, None);
        let tape = Tape::new();
        let y2 = attn.forward_var(&tape, tape.constant(x), None);
        for (a, b) in y1.data().iter().zip(y2.value().data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn transformer_block_paths_agree_with_cross() {
        let mut rng = StdRng::seed_from_u64(4);
        let blk = TransformerBlock::new("t", 8, Some(6), 2, &mut rng);
        let x = Tensor::randn(&[2, 4, 8], &mut rng);
        let ctx = Tensor::randn(&[2, 3, 6], &mut rng);
        let y1 = blk.forward(&x, Some(&ctx));
        let tape = Tape::new();
        let y2 = blk.forward_var(&tape, tape.constant(x), Some(tape.constant(ctx)));
        assert_eq!(y1.dims(), &[2, 4, 8]);
        for (a, b) in y1.data().iter().zip(y2.value().data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn attention_is_permutation_sensitive_to_queries() {
        // Sanity: swapping query rows swaps output rows (attention maps
        // each query independently given fixed kv).
        let mut rng = StdRng::seed_from_u64(5);
        let attn = MultiHeadAttention::new("a", 4, None, 1, &mut rng);
        let x = Tensor::randn(&[1, 3, 4], &mut rng);
        let ctx = Tensor::randn(&[1, 3, 4], &mut rng);
        let y = attn.forward(&x, Some(&ctx));
        let xs = x.index_select(1, &[1, 0, 2]);
        let ys = attn.forward(&xs, Some(&ctx));
        for (a, b) in y.narrow(1, 0, 1).data().iter().zip(ys.narrow(1, 1, 1).data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn quant_layer_visitation_counts() {
        let mut rng = StdRng::seed_from_u64(6);
        let blk = TransformerBlock::new("t", 8, Some(4), 2, &mut rng);
        let mut names = Vec::new();
        blk.visit_quant_layers(&mut |l| names.push(l.qname().to_string()));
        // 4 self-attn + 4 cross-attn + 2 ff
        assert_eq!(names.len(), 10);
        assert!(names.contains(&"t.attn2.to_k".to_string()));
    }
}
