//! Conditioning as a first-class engine concept.
//!
//! Classifier-free guidance evaluates the U-Net twice per step — once
//! with the prompt context, once with the null (empty-prompt) context —
//! and mixes `ε = ε_null + g · (ε_cond − ε_null)`. Run naively that is
//! two sequential engine calls per step, which throws away the batched
//! engine's amortisation (the packed kernels decode each weight tile
//! once *per call*, however many rows share it). [`eps_folded`] folds
//! both halves into **one** engine call: for `n` images it builds a
//! single batch whose first `n` rows carry each image's primary context
//! and whose trailing rows repeat the guided images against the null
//! context, then splits the result and applies the guidance mix per
//! image.
//!
//! # Folded batch layout
//!
//! ```text
//! rows      0 .. n      one per image: x_i, t_i, primary context
//!                       (cond_i for guided, ctx_i for direct rows)
//! rows      n .. n+k    one per *guided* image, in image order:
//!                       x_i, t_i again, but with null_i as context
//! ```
//!
//! # Bit-identity
//!
//! The U-Net treats batch rows independently (the contract pinned by
//! `tests/batched_consistency.rs`), so row `i` of the folded call equals
//! the same row of the separate cond call, and row `n+j` equals the
//! separate null call — the fold changes *when* rows are computed, never
//! *what*. The guidance mix is elementwise with scalar coefficients, so
//! applying it per-image slice is bit-identical to applying it to the
//! stacked halves. [`eps_folded`] is therefore bit-identical to the
//! double-forward it replaces (pinned by a regression test in
//! [`crate::pipelines`]).
//!
//! Per-image conditioning ([`Conditioning`]) travels with a request, so
//! the serving scheduler can interleave prompted and unprompted requests
//! in one engine batch and requests can join/leave at step boundaries —
//! see [`crate::stepper::advance_batch_conditioned`].

use fpdq_tensor::Tensor;

/// One image's conditioning, carried alongside its sampling state.
#[derive(Clone, Debug)]
pub enum Conditioning {
    /// Context-free: the model takes no conditioning input (the
    /// unconditional pipelines).
    Uncond,
    /// A single `[1, max_len, dim]` context per forward — a conditional
    /// model sampling without guidance (`g = 1`) or against the null
    /// context (an unprompted request on a text-to-image server).
    Direct(Tensor),
    /// Classifier-free guidance: both halves run inside one folded
    /// engine call (see the module docs), mixed as
    /// `ε = ε_null + g · (ε_cond − ε_null)`.
    Guided {
        /// Prompt context `[1, max_len, dim]`.
        cond: Tensor,
        /// Null (empty-prompt) context `[1, max_len, dim]`.
        null: Tensor,
        /// Guidance scale `g`.
        guidance: f32,
    },
}

impl Conditioning {
    /// Builds guided conditioning, collapsing `g = 1` to
    /// [`Conditioning::Direct`] — at guidance 1 the mix reduces to
    /// `ε_cond`, so the null half need not run at all.
    pub fn guided(cond: Tensor, null: Tensor, guidance: f32) -> Conditioning {
        if (guidance - 1.0).abs() < f32::EPSILON {
            Conditioning::Direct(cond)
        } else {
            Conditioning::Guided { cond, null, guidance }
        }
    }

    /// The context of this image's primary row (`None` for
    /// [`Conditioning::Uncond`]).
    fn primary_context(&self) -> Option<&Tensor> {
        match self {
            Conditioning::Uncond => None,
            Conditioning::Direct(ctx) => Some(ctx),
            Conditioning::Guided { cond, .. } => Some(cond),
        }
    }
}

/// One folded noise prediction for a batch of per-image conditionings:
/// exactly **one** `forward(x, t, context)` engine call, whatever mix of
/// direct and guided rows the batch holds (`2n` rows when all `n` images
/// are guided). Returns `[n, c, h, w]`, image `i`'s prediction in row
/// `i`.
///
/// # Panics
///
/// Panics if `conds.len() != x.dim(0)`, or if context-free
/// ([`Conditioning::Uncond`]) and context-carrying rows are mixed — the
/// network takes one context tensor for the whole batch, so that mix
/// cannot share an engine call (it cannot arise from a single model
/// either: a model either consumes context or doesn't).
pub fn eps_folded(
    forward: impl FnOnce(&Tensor, &Tensor, Option<&Tensor>) -> Tensor,
    x: &Tensor,
    t: &Tensor,
    conds: &[&Conditioning],
) -> Tensor {
    let n = x.dim(0);
    assert_eq!(conds.len(), n, "need one conditioning per image");
    if conds.iter().all(|c| matches!(c, Conditioning::Uncond)) {
        return forward(x, t, None);
    }
    assert!(
        !conds.iter().any(|c| matches!(c, Conditioning::Uncond)),
        "cannot mix context-free and conditioned images in one engine batch"
    );

    // Primary rows 0..n, then the guided images' null rows in image order.
    let mut ctx_rows: Vec<&Tensor> = conds
        .iter()
        .map(|c| c.primary_context().expect("context-carrying row"))
        .collect();
    let mut extra_x: Vec<Tensor> = Vec::new();
    let mut t2: Vec<f32> = t.data().to_vec();
    let mut null_row: Vec<Option<usize>> = vec![None; n];
    for (i, c) in conds.iter().enumerate() {
        if let Conditioning::Guided { null, .. } = c {
            null_row[i] = Some(n + extra_x.len());
            extra_x.push(x.narrow(0, i, 1));
            ctx_rows.push(null);
            t2.push(t.data()[i]);
        }
    }
    let rows = ctx_rows.len();
    let context = Tensor::concat(&ctx_rows, 0);
    let x2 = if extra_x.is_empty() {
        x.clone()
    } else {
        let mut x_rows: Vec<&Tensor> = Vec::with_capacity(rows);
        x_rows.push(x);
        x_rows.extend(extra_x.iter());
        Tensor::concat(&x_rows, 0)
    };
    let e = forward(&x2, &Tensor::from_vec(t2, &[rows]), Some(&context));
    assert_eq!(e.dim(0), rows, "forward returned a wrong-sized batch");

    let mixed: Vec<Tensor> = conds
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let e_cond = e.narrow(0, i, 1);
            match c {
                Conditioning::Guided { guidance, .. } => {
                    let e_null = e.narrow(0, null_row[i].expect("guided row"), 1);
                    // ε = ε_null + g · (ε_cond − ε_null)
                    e_null.add(&e_cond.sub(&e_null).mul_scalar(*guidance))
                }
                _ => e_cond,
            }
        })
        .collect();
    let refs: Vec<&Tensor> = mixed.iter().collect();
    Tensor::concat(&refs, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A batch-independent toy "network": per row,
    /// `e = x + 0.5·mean(ctx_row) + 0.01·t` (ctx-free rows use 0).
    fn toy_forward(x: &Tensor, t: &Tensor, ctx: Option<&Tensor>) -> Tensor {
        let dims = x.dims();
        let plane: usize = dims[1..].iter().product();
        let ctx_plane = ctx.map(|c| c.numel() / c.dim(0)).unwrap_or(0);
        let mut out = Vec::with_capacity(x.numel());
        for (i, &ti) in t.data().iter().enumerate() {
            let bias = ctx
                .map(|c| {
                    let row = &c.data()[i * ctx_plane..(i + 1) * ctx_plane];
                    0.5 * row.iter().sum::<f32>() / ctx_plane as f32
                })
                .unwrap_or(0.0);
            for v in &x.data()[i * plane..(i + 1) * plane] {
                out.push(v + bias + 0.01 * ti);
            }
        }
        Tensor::from_vec(out, dims)
    }

    fn ctx(seed: u64) -> Tensor {
        Tensor::randn(&[1, 3, 4], &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn folded_matches_double_forward_bitwise() {
        let x = Tensor::randn(&[3, 2, 2, 2], &mut StdRng::seed_from_u64(1));
        let t = Tensor::from_vec(vec![5.0, 9.0, 2.0], &[3]);
        let conds: Vec<Conditioning> =
            (0..3).map(|i| Conditioning::guided(ctx(10 + i), ctx(99), 3.0)).collect();
        let refs: Vec<&Conditioning> = conds.iter().collect();
        let mut calls = 0;
        let folded = eps_folded(
            |x, t, c| {
                calls += 1;
                toy_forward(x, t, c)
            },
            &x,
            &t,
            &refs,
        );
        assert_eq!(calls, 1, "fold must issue exactly one engine call");

        // Reference: the classic two-call CFG per the whole batch.
        let cond_rows: Vec<&Conditioning> = refs.clone();
        let cond_ctx: Vec<Tensor> = cond_rows
            .iter()
            .map(|c| match c {
                Conditioning::Guided { cond, .. } => cond.clone(),
                _ => unreachable!(),
            })
            .collect();
        let cr: Vec<&Tensor> = cond_ctx.iter().collect();
        let e_cond = toy_forward(&x, &t, Some(&Tensor::concat(&cr, 0)));
        let null_ctx: Vec<Tensor> = (0..3).map(|_| ctx(99)).collect();
        let nr: Vec<&Tensor> = null_ctx.iter().collect();
        let e_null = toy_forward(&x, &t, Some(&Tensor::concat(&nr, 0)));
        let want = e_null.add(&e_cond.sub(&e_null).mul_scalar(3.0));
        assert_eq!(folded.data(), want.data(), "fold diverged from double forward");
    }

    #[test]
    fn mixed_direct_and_guided_rows_share_one_call() {
        let x = Tensor::randn(&[3, 1, 2, 2], &mut StdRng::seed_from_u64(2));
        let t = Tensor::from_vec(vec![4.0, 4.0, 7.0], &[3]);
        let conds = [
            Conditioning::guided(ctx(1), ctx(0), 2.0),
            Conditioning::Direct(ctx(5)),
            Conditioning::guided(ctx(2), ctx(0), 4.0),
        ];
        let refs: Vec<&Conditioning> = conds.iter().collect();
        let mut calls = 0;
        let got = eps_folded(
            |x, t, c| {
                calls += 1;
                assert_eq!(x.dim(0), 5, "3 primaries + 2 null rows");
                toy_forward(x, t, c)
            },
            &x,
            &t,
            &refs,
        );
        assert_eq!(calls, 1);
        // Each row must equal its solo (batch-1) computation.
        for (i, c) in conds.iter().enumerate() {
            let xi = x.narrow(0, i, 1);
            let ti = Tensor::from_vec(vec![t.data()[i]], &[1]);
            let want = match c {
                Conditioning::Guided { cond, null, guidance } => {
                    let ec = toy_forward(&xi, &ti, Some(cond));
                    let en = toy_forward(&xi, &ti, Some(null));
                    en.add(&ec.sub(&en).mul_scalar(*guidance))
                }
                Conditioning::Direct(ctx) => toy_forward(&xi, &ti, Some(ctx)),
                Conditioning::Uncond => unreachable!(),
            };
            assert_eq!(got.narrow(0, i, 1).data(), want.data(), "row {i}");
        }
    }

    #[test]
    fn uncond_batch_passes_no_context() {
        let x = Tensor::randn(&[2, 1, 2, 2], &mut StdRng::seed_from_u64(3));
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let conds = [Conditioning::Uncond, Conditioning::Uncond];
        let refs: Vec<&Conditioning> = conds.iter().collect();
        let got = eps_folded(
            |x, t, c| {
                assert!(c.is_none(), "uncond batch must not fabricate context");
                toy_forward(x, t, c)
            },
            &x,
            &t,
            &refs,
        );
        assert_eq!(got.data(), toy_forward(&x, &t, None).data());
    }

    #[test]
    #[should_panic(expected = "cannot mix")]
    fn mixing_uncond_with_context_rows_panics() {
        let x = Tensor::zeros(&[2, 1, 2, 2]);
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let conds = [Conditioning::Uncond, Conditioning::Direct(ctx(1))];
        let refs: Vec<&Conditioning> = conds.iter().collect();
        eps_folded(toy_forward, &x, &t, &refs);
    }

    #[test]
    fn guidance_one_collapses_to_direct() {
        assert!(matches!(Conditioning::guided(ctx(1), ctx(2), 1.0), Conditioning::Direct(_)));
        assert!(matches!(Conditioning::guided(ctx(1), ctx(2), 3.0), Conditioning::Guided { .. }));
    }
}
