//! Multi-head attention and transformer blocks (self- and cross-attention).
//!
//! Cross-attention is how the Stable-Diffusion-style pipeline conditions
//! the U-Net on the text encoder's output (Figure 1 of the paper). All
//! projections are [`Linear`] layers and therefore quantization targets;
//! the attention itself (scores, softmax, weighted sum) stays in FP32.
//!
//! The FP32 part is one [`Ops::attention`] call. Inference runs it as the
//! fused per-head core [`Tensor::attention`](fpdq_tensor::Tensor::attention),
//! so the `[b, n, d]` projections are never copied into a head-major
//! `[b·h, n, dh]` layout nor merged back. Training
//! ([`Train`](crate::ops::Train)) records the explicit split → `bmm` →
//! softmax → merge chain, which the backward pass needs.

use crate::layers::{Init, LayerNorm, Linear, QuantLayer};
use crate::ops::Ops;
use fpdq_autograd::Param;

/// Multi-head scaled-dot-product attention.
///
/// Self-attention when no context is passed; cross-attention when the
/// key/value source differs from the query source.
#[derive(Debug)]
pub struct MultiHeadAttention<P = Param> {
    name: String,
    to_q: Linear<P>,
    to_k: Linear<P>,
    to_v: Linear<P>,
    to_out: Linear<P>,
    pub(crate) heads: usize,
    head_dim: usize,
}

impl<P> MultiHeadAttention<P> {
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
        init: &mut impl Init<P = P>,
    ) -> Self {
        assert_eq!(dim % heads, 0, "dim {dim} not divisible by {heads} heads");
        let ctx = context_dim.unwrap_or(dim);
        MultiHeadAttention {
            name: name.to_string(),
            to_q: Linear::new(format!("{name}.to_q"), dim, dim, init),
            to_k: Linear::new(format!("{name}.to_k"), ctx, dim, init),
            to_v: Linear::new(format!("{name}.to_v"), ctx, dim, init),
            to_out: Linear::new(format!("{name}.to_out"), dim, dim, init),
            heads,
            head_dim: dim / heads,
        }
    }

    /// Hierarchical block name (its projections are `"{name}.to_q"` etc.).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Score scale `1/√head_dim`.
    pub(crate) fn scale(&self) -> f32 {
        1.0 / (self.head_dim as f32).sqrt()
    }

    /// Forward: `x` is `[b, n, d]`, `context` (if any) `[b, m, c]`.
    pub fn forward<O: Ops<P = P>>(&self, ops: &O, x: &O::V, context: Option<&O::V>) -> O::V {
        let ctx = context.unwrap_or(x);
        let q = ops.linear(&self.to_q, x);
        let k = ops.linear(&self.to_k, ctx);
        let v = ops.linear(&self.to_v, ctx);
        ops.linear(&self.to_out, &ops.attention(self, &q, &k, &v))
    }
}

impl MultiHeadAttention {
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
pub struct TransformerBlock<P = Param> {
    name: String,
    norm1: LayerNorm<P>,
    attn1: MultiHeadAttention<P>,
    cross: Option<(LayerNorm<P>, MultiHeadAttention<P>)>,
    norm_ff: LayerNorm<P>,
    ff1: Linear<P>,
    ff2: Linear<P>,
}

impl<P> TransformerBlock<P> {
    /// Creates a transformer block over `dim` features.
    ///
    /// When `context_dim` is `Some`, a cross-attention sub-block is added
    /// (text conditioning path).
    pub fn new(
        name: &str,
        dim: usize,
        context_dim: Option<usize>,
        heads: usize,
        init: &mut impl Init<P = P>,
    ) -> Self {
        let hidden = dim * 2;
        TransformerBlock {
            name: name.to_string(),
            norm1: LayerNorm::new(format!("{name}.norm1"), dim, init),
            attn1: MultiHeadAttention::new(&format!("{name}.attn1"), dim, None, heads, init),
            cross: context_dim.map(|cd| {
                (
                    LayerNorm::new(format!("{name}.norm2"), dim, init),
                    MultiHeadAttention::new(&format!("{name}.attn2"), dim, Some(cd), heads, init),
                )
            }),
            norm_ff: LayerNorm::new(format!("{name}.norm_ff"), dim, init),
            ff1: Linear::new(format!("{name}.ff1"), dim, hidden, init),
            ff2: Linear::new(format!("{name}.ff2"), hidden, dim, init),
        }
    }

    /// Forward: `x` is `[b, n, d]`.
    pub fn forward<O: Ops<P = P>>(&self, ops: &O, x: &O::V, context: Option<&O::V>) -> O::V {
        let attn = self.attn1.forward(ops, &ops.layer_norm(&self.norm1, x), None);
        let mut h = ops.add(x, &attn);
        if let Some((norm2, attn2)) = &self.cross {
            let attn = attn2.forward(ops, &ops.layer_norm(norm2, &h), context);
            h = ops.add(&h, &attn);
        }
        let hidden = ops.linear(&self.ff1, &ops.layer_norm(&self.norm_ff, &h));
        let ff = ops.linear(&self.ff2, &ops.silu(&hidden, &self.name, "ff_silu"));
        ops.add(&h, &ff)
    }
}

impl TransformerBlock {
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
    use crate::ops::{Infer, Train};
    use fpdq_autograd::Tape;
    use fpdq_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn self_attention_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let attn = MultiHeadAttention::new("a", 8, None, 2, &mut rng);
        let x = Tensor::randn(&[2, 5, 8], &mut rng);
        let y = attn.forward(&Infer, &x, None);
        assert_eq!(y.dims(), &[2, 5, 8]);
    }

    #[test]
    fn cross_attention_uses_context_length() {
        let mut rng = StdRng::seed_from_u64(2);
        let attn = MultiHeadAttention::new("a", 8, Some(6), 2, &mut rng);
        let x = Tensor::randn(&[2, 4, 8], &mut rng);
        let ctx = Tensor::randn(&[2, 7, 6], &mut rng);
        let y = attn.forward(&Infer, &x, Some(&ctx));
        assert_eq!(y.dims(), &[2, 4, 8]);
    }

    #[test]
    fn attention_paths_agree() {
        let mut rng = StdRng::seed_from_u64(3);
        let attn = MultiHeadAttention::new("a", 8, None, 4, &mut rng);
        let x = Tensor::randn(&[2, 3, 8], &mut rng);
        let y1 = attn.forward(&Infer, &x, None);
        let tape = Tape::new();
        let y2 = attn.forward(&Train(&tape), &tape.constant(x), None);
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
        let y1 = blk.forward(&Infer, &x, Some(&ctx));
        let tape = Tape::new();
        let y2 = blk.forward(&Train(&tape), &tape.constant(x), Some(&tape.constant(ctx)));
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
        let y = attn.forward(&Infer, &x, Some(&ctx));
        let xs = x.index_select(1, &[1, 0, 2]);
        let ys = attn.forward(&Infer, &xs, Some(&ctx));
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
