//! The prompt ("text") encoder for text-to-image pipelines.
//!
//! A small pre-norm transformer over token embeddings with learned
//! positions — the same role CLIP's text tower plays for Stable Diffusion
//! (Figure 1 of the paper). Like the paper, the text encoder runs once per
//! prompt and is left in full precision by the quantization pass.

use crate::attention::TransformerBlock;
use crate::layers::LayerNorm;
use crate::ops::{Infer, Ops};
use fpdq_autograd::{Param, Tape, Var};
use fpdq_tensor::Tensor;
use rand::Rng;

/// Architecture of a [`TextEncoder`].
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TextEncoderConfig {
    /// Vocabulary size (token id 0 is reserved for padding).
    pub vocab_size: usize,
    /// Fixed sequence length; shorter prompts are padded with token 0.
    pub max_len: usize,
    /// Embedding/attention width (this is the U-Net's `context_dim`).
    pub dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Transformer depth.
    pub layers: usize,
}

impl TextEncoderConfig {
    /// A small config suitable for the synthetic caption grammar.
    pub fn small(vocab_size: usize, max_len: usize, dim: usize) -> Self {
        TextEncoderConfig { vocab_size, max_len, dim, heads: 2, layers: 2 }
    }
}

/// Transformer text encoder producing `[b, max_len, dim]` context.
#[derive(Debug)]
pub struct TextEncoder {
    cfg: TextEncoderConfig,
    token_emb: Param,
    pos_emb: Param,
    blocks: Vec<TransformerBlock>,
    final_norm: LayerNorm,
}

impl TextEncoder {
    /// Builds a text encoder with freshly initialised weights.
    pub fn new(cfg: TextEncoderConfig, rng: &mut impl Rng) -> Self {
        let token_emb = Param::new(Tensor::randn(&[cfg.vocab_size, cfg.dim], rng).mul_scalar(0.02));
        let pos_emb = Param::new(Tensor::randn(&[cfg.max_len, cfg.dim], rng).mul_scalar(0.02));
        let blocks = (0..cfg.layers)
            .map(|i| {
                TransformerBlock::new(&format!("text.block{i}"), cfg.dim, None, cfg.heads, rng)
            })
            .collect();
        TextEncoder {
            final_norm: LayerNorm::new("text.final_norm", cfg.dim, rng),
            token_emb,
            pos_emb,
            blocks,
            cfg,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &TextEncoderConfig {
        &self.cfg
    }

    /// Pads or truncates a token sequence to `max_len` (pad token 0).
    pub fn pad(&self, tokens: &[usize]) -> Vec<usize> {
        let mut out = tokens.to_vec();
        out.truncate(self.cfg.max_len);
        out.resize(self.cfg.max_len, 0);
        out
    }

    /// The padded token ids of a batch, flattened; panics on a token
    /// outside the vocabulary.
    fn token_ids(&self, batch: &[Vec<usize>]) -> Vec<usize> {
        let ids: Vec<usize> = batch.iter().flat_map(|tokens| self.pad(tokens)).collect();
        if let Some(tok) = ids.iter().find(|&&tok| tok >= self.cfg.vocab_size) {
            panic!("token {tok} out of vocabulary");
        }
        ids
    }

    fn gather_embeddings(&self, batch: &[Vec<usize>]) -> Tensor {
        let (b, l, d) = (batch.len(), self.cfg.max_len, self.cfg.dim);
        let tok = self.token_emb.value().index_select(0, &self.token_ids(batch));
        tok.into_shape(&[b, l, d]).add(&self.pos_emb.value().into_shape(&[1, l, d]))
    }

    /// The token plus position embeddings of a batch on a training tape:
    /// the [`Train`](crate::ops::Train) input of [`Self::forward_with`].
    pub fn embed_on_tape<'t>(&self, tape: &'t Tape, batch: &[Vec<usize>]) -> Var<'t> {
        let (b, l, d) = (batch.len(), self.cfg.max_len, self.cfg.dim);
        let ids = self.token_ids(batch);
        let tok = tape.param(&self.token_emb).embedding(&ids).reshape(&[b, l, d]);
        let pos = tape.param(&self.pos_emb).reshape(&[1, l, d]);
        tok.add(pos)
    }

    /// Encodes a batch of token sequences (inference path) into
    /// `[b, max_len, dim]` conditioning context.
    pub fn forward(&self, batch: &[Vec<usize>]) -> Tensor {
        self.forward_with(&Infer, self.gather_embeddings(batch))
    }

    /// The transformer stack on any interpreter, over embedded tokens
    /// `[b, max_len, dim]`.
    pub fn forward_with<O: Ops<P = Param>>(&self, ops: &O, embedded: O::V) -> O::V {
        let mut h = embedded;
        for blk in &self.blocks {
            h = blk.forward(ops, &h, None);
        }
        ops.layer_norm(&self.final_norm, &h)
    }

    /// Collects `(name, param)` pairs.
    pub fn collect_params(&self, out: &mut Vec<(String, Param)>) {
        out.push(("text.token_emb".to_string(), self.token_emb.clone()));
        out.push(("text.pos_emb".to_string(), self.pos_emb.clone()));
        for blk in &self.blocks {
            blk.collect_params(out);
        }
        self.final_norm.collect_params(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Train;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_and_padding() {
        let mut rng = StdRng::seed_from_u64(1);
        let enc = TextEncoder::new(TextEncoderConfig::small(20, 6, 8), &mut rng);
        let out = enc.forward(&[vec![1, 2, 3], vec![4, 5, 6, 7, 8, 9]]);
        assert_eq!(out.dims(), &[2, 6, 8]);
    }

    #[test]
    fn different_prompts_different_context() {
        let mut rng = StdRng::seed_from_u64(2);
        let enc = TextEncoder::new(TextEncoderConfig::small(20, 4, 8), &mut rng);
        let a = enc.forward(&[vec![1, 2]]);
        let b = enc.forward(&[vec![3, 4]]);
        let diff: f32 = a.data().iter().zip(b.data()).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-3);
    }

    #[test]
    fn paths_agree() {
        let mut rng = StdRng::seed_from_u64(3);
        let enc = TextEncoder::new(TextEncoderConfig::small(10, 4, 8), &mut rng);
        let batch = vec![vec![1, 2, 3], vec![9]];
        let y1 = enc.forward(&batch);
        let tape = Tape::new();
        let y2 = enc.forward_with(&Train(&tape), enc.embed_on_tape(&tape, &batch));
        for (a, b) in y1.data().iter().zip(y2.value().data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn out_of_vocab_token_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        let enc = TextEncoder::new(TextEncoderConfig::small(10, 4, 8), &mut rng);
        enc.forward(&[vec![10]]);
    }

    #[test]
    fn truncates_overlong_prompts() {
        let mut rng = StdRng::seed_from_u64(5);
        let enc = TextEncoder::new(TextEncoderConfig::small(10, 3, 8), &mut rng);
        let out = enc.forward(&[vec![1, 2, 3, 4, 5, 6, 7]]);
        assert_eq!(out.dims(), &[1, 3, 8]);
    }
}
