//! The op trait every model forward is written against, with its tensor
//! ([`Infer`]) and autograd ([`Train`]) interpreters; see the crate docs.

use crate::attention::MultiHeadAttention;
use crate::layers::{group_norm_ref, layer_norm_ref, Conv2d, GroupNorm, LayerNorm, Linear};
use fpdq_autograd::{Param, Tape, Var};
use fpdq_tensor::Tensor;

/// The primitive operations of the model zoo's forwards.
///
/// `P` is the parameter type of the layers the interpreter runs and `V`
/// the value passed between ops. Ops that reshape take their input by
/// value, so an interpreter can move instead of copy.
pub trait Ops {
    /// Parameter type of the layers this interpreter runs.
    type P;
    /// Value flowing between ops.
    type V: Clone;

    /// A convolution layer.
    fn conv(&self, layer: &Conv2d<Self::P>, x: &Self::V) -> Self::V;
    /// A fully connected layer over `[b, in]` or `[b, l, in]`.
    fn linear(&self, layer: &Linear<Self::P>, x: &Self::V) -> Self::V;
    /// Group normalisation of a `[b, c, h, w]` map.
    fn group_norm(&self, layer: &GroupNorm<Self::P>, x: &Self::V) -> Self::V;
    /// Layer normalisation over the innermost dimension.
    fn layer_norm(&self, layer: &LayerNorm<Self::P>, x: &Self::V) -> Self::V;
    /// SiLU, named `"{scope}.{tag}"` (just `tag` when `scope` is empty)
    /// for interpreters that report per op.
    fn silu(&self, x: &Self::V, scope: &str, tag: &str) -> Self::V;
    /// Elementwise sum of two values of one shape.
    fn add(&self, a: &Self::V, b: &Self::V) -> Self::V;
    /// Adds a `[b, c]` row to every position of a `[b, c, h, w]` map.
    fn add_channels(&self, x: &Self::V, t: Self::V) -> Self::V;
    /// `concat(trunk, skip)` along the channel axis.
    fn concat(&self, trunk: &Self::V, skip: &Self::V) -> Self::V;
    /// Nearest-neighbour 2× upsampling.
    fn upsample(&self, x: &Self::V) -> Self::V;
    /// `[b, c, h, w]` map → `[b, h·w, c]` tokens.
    fn to_tokens(&self, x: Self::V) -> Self::V;
    /// `[b, h·w, c]` tokens → the `[b, c, h, w]` layout of `like`.
    fn to_map(&self, t: Self::V, like: &Self::V) -> Self::V;
    /// Multi-head softmax attention of projected `q` `[b, n, d]` over
    /// `k`, `v` `[b, m, d]`, with `attn`'s heads and scale.
    fn attention(
        &self,
        attn: &MultiHeadAttention<Self::P>,
        q: &Self::V,
        k: &Self::V,
        v: &Self::V,
    ) -> Self::V;
}

/// The inference interpreter: plain [`Tensor`] ops, through each leaf
/// layer's tapped (and possibly packed) `forward`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Infer;

impl Ops for Infer {
    type P = Param;
    type V = Tensor;

    fn conv(&self, layer: &Conv2d, x: &Tensor) -> Tensor {
        layer.forward(x)
    }
    fn linear(&self, layer: &Linear, x: &Tensor) -> Tensor {
        layer.forward(x)
    }
    fn group_norm(&self, layer: &GroupNorm, x: &Tensor) -> Tensor {
        layer.gamma.with_value(|gamma| {
            layer
                .beta
                .with_value(|beta| group_norm_ref(x, gamma, beta, layer.groups, layer.eps))
        })
    }
    fn layer_norm(&self, layer: &LayerNorm, x: &Tensor) -> Tensor {
        layer.gamma.with_value(|gamma| {
            layer.beta.with_value(|beta| layer_norm_ref(x, gamma, beta, layer.eps))
        })
    }
    fn silu(&self, x: &Tensor, _scope: &str, _tag: &str) -> Tensor {
        x.silu()
    }
    fn add(&self, a: &Tensor, b: &Tensor) -> Tensor {
        a.add(b)
    }
    fn add_channels(&self, x: &Tensor, t: Tensor) -> Tensor {
        let (b, c) = (t.dim(0), t.dim(1));
        x.add(&t.into_shape(&[b, c, 1, 1]))
    }
    fn concat(&self, trunk: &Tensor, skip: &Tensor) -> Tensor {
        Tensor::concat(&[trunk, skip], 1)
    }
    fn upsample(&self, x: &Tensor) -> Tensor {
        x.upsample_nearest(2)
    }
    fn to_tokens(&self, x: Tensor) -> Tensor {
        let (b, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        x.into_shape(&[b, c, h * w]).permute(&[0, 2, 1])
    }
    fn to_map(&self, t: Tensor, like: &Tensor) -> Tensor {
        t.permute(&[0, 2, 1]).into_shape(like.dims())
    }
    fn attention(&self, attn: &MultiHeadAttention, q: &Tensor, k: &Tensor, v: &Tensor) -> Tensor {
        q.attention(k, v, attn.heads, attn.scale())
    }
}

/// The training interpreter: records every op on an autograd [`Tape`].
#[derive(Clone, Copy)]
pub struct Train<'t>(pub &'t Tape);

impl<'t> Ops for Train<'t> {
    type P = Param;
    type V = Var<'t>;

    fn conv(&self, layer: &Conv2d, x: &Var<'t>) -> Var<'t> {
        let w = self.0.param(&layer.weight);
        let b = layer.bias.as_ref().map(|b| self.0.param(b));
        x.conv2d(w, b, layer.spec())
    }
    fn linear(&self, layer: &Linear, x: &Var<'t>) -> Var<'t> {
        let w = self.0.param(&layer.weight);
        let d = x.dims();
        let rows = if d.len() == 3 { x.reshape(&[d[0] * d[1], d[2]]) } else { *x };
        let mut y = rows.matmul_nt(w);
        if let Some(b) = &layer.bias {
            y = y.add(self.0.param(b));
        }
        if d.len() == 3 {
            y.reshape(&[d[0], d[1], layer.out_features()])
        } else {
            y
        }
    }
    fn group_norm(&self, layer: &GroupNorm, x: &Var<'t>) -> Var<'t> {
        let (gamma, beta) = (self.0.param(&layer.gamma), self.0.param(&layer.beta));
        x.group_norm(gamma, beta, layer.groups, layer.eps)
    }
    fn layer_norm(&self, layer: &LayerNorm, x: &Var<'t>) -> Var<'t> {
        x.layer_norm(self.0.param(&layer.gamma), self.0.param(&layer.beta), layer.eps)
    }
    fn silu(&self, x: &Var<'t>, _scope: &str, _tag: &str) -> Var<'t> {
        x.silu()
    }
    fn add(&self, a: &Var<'t>, b: &Var<'t>) -> Var<'t> {
        a.add(*b)
    }
    fn add_channels(&self, x: &Var<'t>, t: Var<'t>) -> Var<'t> {
        let dims = t.dims();
        x.add(t.reshape(&[dims[0], dims[1], 1, 1]))
    }
    fn concat(&self, trunk: &Var<'t>, skip: &Var<'t>) -> Var<'t> {
        Var::concat(&[*trunk, *skip], 1)
    }
    fn upsample(&self, x: &Var<'t>) -> Var<'t> {
        x.upsample_nearest(2)
    }
    fn to_tokens(&self, x: Var<'t>) -> Var<'t> {
        let d = x.dims();
        x.reshape(&[d[0], d[1], d[2] * d[3]]).permute(&[0, 2, 1])
    }
    fn to_map(&self, t: Var<'t>, like: &Var<'t>) -> Var<'t> {
        t.permute(&[0, 2, 1]).reshape(&like.dims())
    }
    /// Splits heads into a `[b·heads, len, dh]` batch, runs `bmm` → scale
    /// → softmax → `bmm`, and merges the heads back: the explicit chain
    /// the backward pass differentiates.
    fn attention(
        &self,
        attn: &MultiHeadAttention,
        q: &Var<'t>,
        k: &Var<'t>,
        v: &Var<'t>,
    ) -> Var<'t> {
        let (qd, m) = (q.dims(), k.dims()[1]);
        let (b, n, heads) = (qd[0], qd[1], attn.heads);
        let dh = qd[2] / heads;
        let split = |x: &Var<'t>, len: usize| {
            x.reshape(&[b, len, heads, dh])
                .permute(&[0, 2, 1, 3])
                .reshape(&[b * heads, len, dh])
        };
        let (q, k, v) = (split(q, n), split(k, m), split(v, m));
        let scores = q.bmm(k.permute(&[0, 2, 1])).mul_scalar(attn.scale()).softmax_lastdim();
        let merged = scores.bmm(v).reshape(&[b, heads, n, dh]).permute(&[0, 2, 1, 3]);
        merged.reshape(&[b, n, heads * dh])
    }
}
