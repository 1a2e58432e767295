//! Step-wise DDIM sampling: the step kernel every generation runs.
//!
//! [`DdimStepState`] holds one image's `x_t`, RNG stream and position in
//! the timestep subsequence, and [`DdimStepState::advance`] applies
//! exactly one DDIM update given the noise prediction for the *current*
//! timestep. [`advance_batch_conditioned`] runs one engine call for a
//! set of states and advances each.
//!
//! Offline generation and serving share this kernel and the admission
//! that builds its states (`pipelines::admit`): the offline loop
//! (`pipelines::sample`) steps a chunk of images in lockstep, and the
//! serving scheduler interleaves requests that join and leave at step
//! boundaries (continuous batching). The loop samplers in
//! [`crate::sampler`] are the reference both are tested against, and
//! what calibration drives.
//!
//! # Bit-identity contract
//!
//! A request stepped to completion through this API is **bit-identical**
//! to `ddim_sample_seeded` with the same seed/params, no matter how the
//! scheduler batches it with other requests. Two facts compose into that
//! guarantee:
//!
//! 1. `advance` applies the batched sampler's update function
//!    (`sampler::ddim_update`) to the request's own
//!    `[1, c, h, w]` slice. Every op in the update is
//!    elementwise with scalar coefficients, so slicing commutes with the
//!    math, and stochastic noise comes from the request's own stream —
//!    exactly what `randn_per_image` would have drawn for it.
//! 2. The U-Net treats the batch dimension independently (pinned by
//!    `tests/batched_consistency.rs`), so the ε the scheduler computes
//!    for this image inside any batch equals its batch-1 ε.
//!
//! The tests below pin the contract for solo runs, uniform batches, and
//! the serving-shaped case: requests joining and leaving mid-flight, each
//! at its own timestep.

use crate::conditioning::{eps_folded, Conditioning};
use crate::sampler::{ddim_timesteps, ddim_update, DdimParams};
use crate::schedule::NoiseSchedule;
use fpdq_tensor::{FpdqError, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One in-flight image's DDIM sampling state.
#[derive(Clone, Debug)]
pub struct DdimStepState {
    x: Tensor,
    rng: StdRng,
    ts: Vec<usize>,
    pos: usize,
    params: DdimParams,
    schedule: NoiseSchedule,
    cond: Conditioning,
}

impl DdimStepState {
    /// Starts a request: derives the starting noise `[1, c, h, w]` and
    /// the stochastic stream from `seed`, exactly as
    /// [`crate::sampler::ddim_sample_seeded`] does for a batch-1 call.
    /// The conditioning (and guidance, when [`Conditioning::Guided`])
    /// travels with the state, so conditional and unconditional
    /// requests join and leave a running batch alike —
    /// [`advance_batch_conditioned`] folds every member's halves into
    /// one engine call per step.
    ///
    /// Conditioning shapes ε, never the noise streams, so the
    /// bit-identity contract (solo run == any batch composition) holds
    /// per (seed, conditioning) pair. `params.steps` must be in
    /// `1..=schedule.steps()`: out-of-range steps are a typed
    /// [`FpdqError::InvalidArgument`], never clamped.
    pub fn new_conditioned(
        schedule: &NoiseSchedule,
        chw: [usize; 3],
        seed: u64,
        params: DdimParams,
        cond: Conditioning,
    ) -> Result<DdimStepState, FpdqError> {
        if params.steps == 0 || params.steps > schedule.steps() {
            return Err(FpdqError::invalid(format!(
                "steps must be in 1..={}, got {}",
                schedule.steps(),
                params.steps
            )));
        }
        let [c, h, w] = chw;
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&[1, c, h, w], &mut rng);
        let ts = ddim_timesteps(schedule, params.steps);
        Ok(DdimStepState { x, rng, ts, pos: 0, params, schedule: schedule.clone(), cond })
    }

    /// This request's conditioning (what [`advance_batch_conditioned`]
    /// stacks into the folded engine batch).
    pub fn conditioning(&self) -> &Conditioning {
        &self.cond
    }

    /// The current `x_t` `[1, c, h, w]` (the tensor `advance` expects the
    /// noise prediction for).
    pub fn x(&self) -> &Tensor {
        &self.x
    }

    /// The schedule timestep the next `advance` consumes.
    ///
    /// # Panics
    ///
    /// Panics if the request is already done.
    pub fn current_t(&self) -> usize {
        assert!(!self.is_done(), "current_t on a finished request");
        self.ts[self.pos]
    }

    /// Whether every step has been applied (`x` is now the `x_0` estimate).
    pub fn is_done(&self) -> bool {
        self.pos >= self.ts.len()
    }

    /// Steps applied so far / total steps.
    pub fn progress(&self) -> (usize, usize) {
        (self.pos, self.ts.len())
    }

    /// Applies one DDIM update given `e`, the noise prediction for
    /// [`Self::x`] at [`Self::current_t`] — the same `sampler::ddim_update`
    /// the loop of [`crate::sampler::ddim_sample_batched`] applies, on
    /// this image's slice.
    ///
    /// # Panics
    ///
    /// Panics if the request is already done or `e` has the wrong shape
    /// (scheduler bookkeeping bugs, not caller input).
    pub fn advance(&mut self, e: &Tensor) {
        assert!(!self.is_done(), "advance on a finished request");
        assert_eq!(e.dims(), self.x.dims(), "noise prediction shape mismatch");
        let rng = &mut self.rng;
        self.x = ddim_update(&self.schedule, self.params, &self.ts, self.pos, &self.x, e, |dims| {
            Tensor::randn(dims, rng)
        });
        self.pos += 1;
    }

    /// Consumes the finished request, returning the `x_0` estimate
    /// `[1, c, h, w]`.
    ///
    /// # Panics
    ///
    /// Panics if steps remain.
    pub fn into_result(self) -> Tensor {
        assert!(self.is_done(), "into_result on an unfinished request");
        self.x
    }
}

/// Runs one batched engine call for a set of in-flight requests and
/// advances each: stacks their `x_t`s (`[n, c, h, w]`) and per-image
/// timesteps (`[n]`), routes ε through [`eps_folded`] so every member's
/// conditioning — including both CFG halves of guided requests — shares
/// **one** `forward(x, t, context)` call, then hands each request its
/// slice. Uncond-only batches degenerate to a context-free call. This is
/// the scheduler's step kernel; it lives here so the batch/slice plumbing
/// is pinned by the same tests as the update math.
///
/// Requests may sit at *different* timesteps — per-image `t` is exactly
/// what the U-Net's timestep embedding supports.
///
/// # Panics
///
/// Panics if `states` is empty, any state is already done, or the batch
/// mixes context-free and conditioned requests (cannot come from one
/// model; see [`eps_folded`]).
pub fn advance_batch_conditioned(
    states: &mut [&mut DdimStepState],
    forward: impl FnOnce(&Tensor, &Tensor, Option<&Tensor>) -> Tensor,
) {
    assert!(!states.is_empty(), "advance_batch_conditioned on an empty set");
    let xs: Vec<Tensor> = states.iter().map(|s| s.x().clone()).collect();
    let refs: Vec<&Tensor> = xs.iter().collect();
    let x = Tensor::concat(&refs, 0);
    let t: Vec<f32> = states.iter().map(|s| s.current_t() as f32).collect();
    let n = t.len();
    let conds: Vec<&Conditioning> = states.iter().map(|s| s.conditioning()).collect();
    let e = eps_folded(forward, &x, &Tensor::from_vec(t, &[n]), &conds);
    drop(conds);
    assert_eq!(e.dim(0), n, "eps returned a wrong-sized batch");
    for (i, s) in states.iter_mut().enumerate() {
        s.advance(&e.narrow(0, i, 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::ddim_sample_seeded;

    fn schedule() -> NoiseSchedule {
        NoiseSchedule::linear_scaled(20)
    }

    /// A cheap, batch-independent ε: per image, `e = 0.1·x + 0.01·t`.
    /// Mirrors the U-Net's contract (image `i` of a batch call equals its
    /// batch-1 call) without the cost of a real network.
    fn toy_eps(x: &Tensor, t: &Tensor) -> Tensor {
        let dims = x.dims();
        let plane: usize = dims[1..].iter().product();
        let mut out = Vec::with_capacity(x.numel());
        for (i, &ti) in t.data().iter().enumerate() {
            for v in &x.data()[i * plane..(i + 1) * plane] {
                out.push(0.1 * v + 0.01 * ti);
            }
        }
        Tensor::from_vec(out, dims)
    }

    /// An unconditioned request's state.
    fn uncond(seed: u64, chw: [usize; 3], params: DdimParams) -> DdimStepState {
        DdimStepState::new_conditioned(&schedule(), chw, seed, params, Conditioning::Uncond)
            .unwrap()
    }

    fn solo_reference(seed: u64, params: DdimParams) -> Tensor {
        ddim_sample_seeded(&schedule(), [1, 4, 4], &[seed], params, toy_eps)
    }

    #[test]
    fn stepping_to_completion_matches_the_loop_sampler() {
        for eta in [0.0, 0.7] {
            let params = DdimParams { steps: 6, eta, clip_x0: Some(1.0) };
            let mut s = uncond(42, [1, 4, 4], params);
            let mut steps = 0;
            while !s.is_done() {
                let e = toy_eps(s.x(), &Tensor::from_vec(vec![s.current_t() as f32], &[1]));
                s.advance(&e);
                steps += 1;
            }
            assert_eq!(steps, 6);
            assert_eq!(
                s.into_result().data(),
                solo_reference(42, params).data(),
                "eta {eta} diverged from the loop sampler"
            );
        }
    }

    #[test]
    fn mixed_timestep_batches_preserve_bit_identity() {
        // Serving-shaped schedule: request A starts alone, B joins two
        // steps later, C joins after A left. Every image must still be
        // bit-identical to its solo loop-sampler run.
        let params = DdimParams { steps: 4, eta: 0.3, clip_x0: None };
        let mut a = uncond(1, [1, 4, 4], params);
        let mut b = uncond(2, [1, 4, 4], params);
        let mut c = uncond(3, [1, 4, 4], params);

        // Unconditioned requests: the engine never sees a context.
        let eps = |x: &Tensor, t: &Tensor, _: Option<&Tensor>| toy_eps(x, t);
        // A solo for 2 steps.
        advance_batch_conditioned(&mut [&mut a], eps);
        advance_batch_conditioned(&mut [&mut a], eps);
        // A and B together (A at step 2, B at step 0) until A finishes.
        advance_batch_conditioned(&mut [&mut a, &mut b], eps);
        advance_batch_conditioned(&mut [&mut a, &mut b], eps);
        assert!(a.is_done() && !b.is_done());
        // C joins B.
        advance_batch_conditioned(&mut [&mut b, &mut c], eps);
        advance_batch_conditioned(&mut [&mut b, &mut c], eps);
        assert!(b.is_done());
        while !c.is_done() {
            advance_batch_conditioned(&mut [&mut c], eps);
        }

        for (state, seed) in [(a, 1u64), (b, 2), (c, 3)] {
            assert_eq!(
                state.into_result().data(),
                solo_reference(seed, params).data(),
                "seed {seed} depends on batch composition"
            );
        }
    }

    #[test]
    fn new_conditioned_rejects_out_of_range_steps() {
        let sch = schedule();
        for steps in [0, sch.steps() + 1] {
            let r = DdimStepState::new_conditioned(
                &sch,
                [1, 4, 4],
                7,
                DdimParams { steps, eta: 0.0, clip_x0: None },
                Conditioning::Uncond,
            );
            assert!(matches!(r, Err(FpdqError::InvalidArgument(_))), "steps {steps} accepted");
        }
    }

    /// Context-aware toy network mirroring the U-Net contract: per row,
    /// `e = 0.1·x + 0.5·mean(ctx_row) + 0.01·t` (no context → 0 bias).
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
                out.push(0.1 * v + bias + 0.01 * ti);
            }
        }
        Tensor::from_vec(out, dims)
    }

    #[test]
    fn conditioned_requests_join_and_leave_batches_bit_identically() {
        use rand::SeedableRng;

        let params = DdimParams { steps: 4, eta: 0.3, clip_x0: None };
        let sch = schedule();
        let ctx = |seed: u64| Tensor::randn(&[1, 3, 4], &mut StdRng::seed_from_u64(seed));
        // A guided, a direct and a differently guided request, each with
        // its own conditioning, interleaved serving-style.
        let conds = [
            Conditioning::guided(ctx(1), ctx(0), 3.0),
            Conditioning::Direct(ctx(2)),
            Conditioning::guided(ctx(3), ctx(0), 1.5),
        ];
        let mk = |seed: u64, cond: &Conditioning| {
            DdimStepState::new_conditioned(&sch, [1, 4, 4], seed, params, cond.clone()).unwrap()
        };
        let mut a = mk(1, &conds[0]);
        let mut b = mk(2, &conds[1]);
        let mut c = mk(3, &conds[2]);

        advance_batch_conditioned(&mut [&mut a], toy_forward);
        advance_batch_conditioned(&mut [&mut a], toy_forward);
        advance_batch_conditioned(&mut [&mut a, &mut b], toy_forward);
        advance_batch_conditioned(&mut [&mut a, &mut b], toy_forward);
        assert!(a.is_done() && !b.is_done());
        advance_batch_conditioned(&mut [&mut b, &mut c], toy_forward);
        advance_batch_conditioned(&mut [&mut b, &mut c], toy_forward);
        assert!(b.is_done());
        while !c.is_done() {
            advance_batch_conditioned(&mut [&mut c], toy_forward);
        }

        for (state, seed, cond) in [(a, 1u64, &conds[0]), (b, 2, &conds[1]), (c, 3, &conds[2])] {
            // Reference: the loop sampler with the folded ε of this one
            // request.
            let solo = ddim_sample_seeded(&sch, [1, 4, 4], &[seed], params, |x, t| {
                eps_folded(toy_forward, x, t, &[cond])
            });
            assert_eq!(
                state.into_result().data(),
                solo.data(),
                "seed {seed} depends on batch composition"
            );
        }
    }

    #[test]
    #[should_panic(expected = "finished request")]
    fn advancing_a_finished_request_panics() {
        let params = DdimParams { steps: 1, eta: 0.0, clip_x0: None };
        let mut s = uncond(9, [1, 2, 2], params);
        let e = Tensor::zeros(&[1, 1, 2, 2]);
        s.advance(&e);
        s.advance(&e);
    }
}
