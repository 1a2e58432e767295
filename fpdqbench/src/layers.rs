//! The in-process, traced per-layer profile.
//!
//! Replays whole request lifecycles through the public entry points the
//! server uses — `ServeModel::conditioning` (admit),
//! `advance_batch_conditioned` (step) with `UNet::forward` as its ε
//! closure, `ServeModel::finish` — at the batch rows the workload really
//! issues, with spans around each call. It then times the layers below
//! the forward from outside: every packed layer's
//! `QuantLayer::packed().run(x)` on the input that layer saw in one
//! forward, the `BoundaryQuantizer` on a captured activation, and one
//! empty `parallel_rows_in` region.

use crate::stats::median;
use crate::trace::{timed, Tracer};
use crate::workload::{reference, serve_model, Input, STEPS};
use fpdq::container::{ContainerMeta, SimPipeline};
use fpdq::diffusion::{advance_batch_conditioned, DdimParams, DdimStepState};
use fpdq::nn::{QuantKind, QuantLayer};
use fpdq::quant::BoundaryQuantizer;
use fpdq::serve::ServeModel;
use fpdq::tensor::parallel::{num_threads, parallel_rows_in};
use fpdq::tensor::Tensor;
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Per-layer timings of one workload at its batch rows.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Median `ServeModel::conditioning` per request.
    pub admit_ms: f64,
    /// Median `advance_batch_conditioned` call.
    pub step_ms: f64,
    /// Median step self time (DDIM update and CFG concat/split/mix).
    pub update_ms: f64,
    /// Median `UNet::forward` inside a step.
    pub forward_ms: f64,
    /// Median `ServeModel::finish` per request.
    pub finish_ms: f64,
    /// Σ of per-layer median packed-kernel replays for one forward.
    pub packed_ms: f64,
    /// The conv share of `packed_ms`.
    pub conv_ms: f64,
    /// The linear share of `packed_ms`.
    pub linear_ms: f64,
    /// Packed-layer calls in one forward.
    pub calls: usize,
    /// Boundary quantization cost per activation element.
    pub act_quant_ns_per_elem: f64,
    /// One empty parallel region at the default worker count.
    pub parallel_region_us: f64,
    /// Requests per engine step (request-steps ÷ steps).
    pub requests_per_step: f64,
    /// Images/s of the traced rounds.
    pub traced_ips: f64,
    /// Images/s of the untraced rounds.
    pub untraced_ips: f64,
    /// In-process images that differ from the offline reference.
    pub mismatches: usize,
}

/// The (x, t, context) one ε call received.
type EpsArgs = (Tensor, Tensor, Option<Tensor>);

/// A layer's tap capture buffer.
type Capture = Rc<RefCell<Vec<Tensor>>>;

/// One request group through admit → 20 steps → finish; returns the
/// finished images.
fn round(
    model: &dyn ServeModel,
    reqs: &[Input],
    id: u64,
    tracer: Option<&Tracer>,
    capture: &mut Option<EpsArgs>,
) -> Vec<Vec<f32>> {
    timed(tracer, "request", Some(id), || {
        let params = DdimParams { steps: STEPS, eta: 0.0, clip_x0: model.clip_x0() };
        let mut states: Vec<DdimStepState> = reqs
            .iter()
            .map(|r| {
                let cond = timed(tracer, "diffusion.admit", Some(id), || {
                    model.conditioning(r.prompt.as_deref(), None)
                })
                .expect("benchmark requests are valid");
                DdimStepState::new_conditioned(model.schedule(), model.chw(), r.seed, params, cond)
                    .expect("benchmark steps fit the schedule")
            })
            .collect();
        for _ in 0..STEPS {
            let mut refs: Vec<&mut DdimStepState> = states.iter_mut().collect();
            timed(tracer, "diffusion.step", Some(id), || {
                advance_batch_conditioned(&mut refs, |x, t, ctx| {
                    if capture.is_none() {
                        *capture = Some((x.clone(), t.clone(), ctx.cloned()));
                    }
                    timed(tracer, "nn.unet_forward", Some(id), || model.eps(x, t, ctx))
                })
            });
        }
        states
            .into_iter()
            .map(|s| {
                let img =
                    timed(tracer, "diffusion.finish", Some(id), || model.finish(&s.into_result()));
                img.data().to_vec()
            })
            .collect()
    })
}

/// The input a layer's packed forward receives for a captured tap input:
/// the tap's activation quantizer applied as `Tap::apply` does (fused
/// layers have none — their kernel quantizes).
fn tapped(layer: &dyn QuantLayer, x: &Tensor) -> Tensor {
    let tap = layer.tap().borrow();
    let axis = match layer.kind() {
        QuantKind::Conv => 1,
        QuantKind::Linear => x.ndim() - 1,
    };
    match (&tap.act_quant, layer.concat_split(), &tap.act_quant_skip) {
        (Some(q), Some(at), Some(qs)) if at < x.dim(axis) => {
            let trunk = x.narrow(axis, 0, at);
            let skip = x.narrow(axis, at, x.dim(axis) - at);
            Tensor::concat(&[&q(&trunk), &qs(&skip)], axis)
        }
        (Some(q), _, _) => q(x),
        (None, _, _) => x.clone(),
    }
}

/// Packed kernel replays: `(packed_ms, conv_ms, linear_ms, calls,
/// largest packed input and its layer name)`.
fn replay_kernels(
    pipeline: &SimPipeline,
    args: &EpsArgs,
    budget: Duration,
) -> (f64, f64, f64, usize, Option<(String, Tensor)>) {
    let unet = pipeline.unet();
    let mut layers: Vec<(&dyn QuantLayer, Capture)> = Vec::new();
    unet.visit_quant_layers(&mut |l| {
        if l.packed().is_installed() {
            let buf = Rc::new(RefCell::new(Vec::new()));
            l.tap().borrow_mut().capture = Some(buf.clone());
            layers.push((l, buf));
        }
    });
    black_box(unet.forward(&args.0, &args.1, args.2.as_ref()));
    let mut calls: Vec<(&dyn QuantLayer, Tensor)> = Vec::new();
    for (l, buf) in &layers {
        l.tap().borrow_mut().capture = None;
        for x in buf.borrow().iter() {
            calls.push((*l, tapped(*l, x)));
        }
    }
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); calls.len()];
    let start = Instant::now();
    for rep in 0..200 {
        for (i, (l, x)) in calls.iter().enumerate() {
            let t0 = Instant::now();
            black_box(l.packed().run(black_box(x)));
            times[i].push(t0.elapsed().as_secs_f64() * 1e3);
        }
        if rep >= 4 && start.elapsed() > budget {
            break;
        }
    }
    let (mut conv, mut linear) = (0.0, 0.0);
    for ((l, _), t) in calls.iter().zip(&times) {
        match l.kind() {
            QuantKind::Conv => conv += median(t),
            QuantKind::Linear => linear += median(t),
        }
    }
    let largest = calls
        .iter()
        .max_by_key(|(_, x)| x.numel())
        .map(|(l, x)| (l.qname().to_string(), x.clone()));
    (conv + linear, conv, linear, calls.len(), largest)
}

/// Median ns per element of the boundary quantizer on `x` in `layer`'s
/// stored activation format (the first layer with one, if `layer` has
/// none).
fn act_quant_ns(meta: &ContainerMeta, layer: &str, x: &Tensor) -> f64 {
    let fmt = meta
        .layers
        .iter()
        .find(|l| l.name == layer && l.act_format.is_some())
        .or_else(|| meta.layers.iter().find(|l| l.act_format.is_some()))
        .and_then(|l| l.act_format)
        .expect("a quantized container stores activation formats");
    let q = BoundaryQuantizer::cached(&fmt);
    let src = x.data();
    let mut dst = vec![0.0f32; src.len()];
    let per_rep = |dst: &mut [f32]| {
        let t0 = Instant::now();
        for _ in 0..20 {
            q.quantize_slice_into(black_box(src), dst);
        }
        black_box(&*dst);
        t0.elapsed().as_secs_f64() * 1e9 / (20 * src.len()) as f64
    };
    per_rep(&mut dst);
    let reps: Vec<f64> = (0..31).map(|_| per_rep(&mut dst)).collect();
    median(&reps)
}

/// Median µs of one `parallel_rows_in(num_threads(), …)` region whose body
/// touches one element per chunk, over `rows × row` floats.
fn parallel_region_us(rows: usize, row: usize) -> f64 {
    let mut buf = vec![0.0f32; rows * row];
    let batch = |buf: &mut [f32]| {
        let t0 = Instant::now();
        for _ in 0..50 {
            parallel_rows_in(num_threads(), buf, rows, row, 1, |_, chunk| chunk[0] += 1.0);
        }
        black_box(&*buf);
        t0.elapsed().as_secs_f64() * 1e6 / 50.0
    };
    batch(&mut buf);
    let reps: Vec<f64> = (0..31).map(|_| batch(&mut buf)).collect();
    median(&reps)
}

/// Runs the profile: rounds of `group`-sized request groups (alternating
/// traced and untraced) for about `budget`, then the layer replays.
/// `next_group(k)` yields the inputs of round `k`.
pub fn profile(
    pipeline: &SimPipeline,
    meta: &ContainerMeta,
    next_group: &dyn Fn(u64) -> Vec<Input>,
    budget: Duration,
    tracer: &Tracer,
) -> Profile {
    let model = serve_model(pipeline);
    let mut prof = Profile::default();
    let mut capture: Option<EpsArgs> = None;

    // Warm-up round, checked against the offline pipeline.
    let first = next_group(0);
    let got = round(model, &first, 0, None, &mut capture);
    let want = reference(pipeline, &first);
    prof.mismatches = got
        .iter()
        .zip(&want)
        .filter(|(a, b)| a.iter().map(|v| v.to_bits()).ne(b.iter().map(|v| v.to_bits())))
        .count()
        + want.len().abs_diff(got.len());

    let (mut traced_s, mut untraced_s, mut traced_n, mut untraced_n) = (0.0, 0.0, 0usize, 0usize);
    let start = Instant::now();
    let mut k = 1u64;
    while k <= 4 || start.elapsed() < budget {
        let reqs = next_group(k);
        let traced = k % 2 == 1;
        let t0 = Instant::now();
        let imgs = round(model, &reqs, k, traced.then_some(tracer), &mut capture);
        let dt = t0.elapsed().as_secs_f64();
        if traced {
            traced_s += dt;
            traced_n += imgs.len();
        } else {
            untraced_s += dt;
            untraced_n += imgs.len();
        }
        k += 1;
    }
    prof.traced_ips = traced_n as f64 / traced_s;
    prof.untraced_ips = untraced_n as f64 / untraced_s;
    prof.admit_ms = median(&tracer.durations("diffusion.admit"));
    prof.step_ms = median(&tracer.durations("diffusion.step"));
    prof.update_ms = median(&tracer.self_times("diffusion.step"));
    prof.forward_ms = median(&tracer.durations("nn.unet_forward"));
    prof.finish_ms = median(&tracer.durations("diffusion.finish"));
    prof.requests_per_step =
        (traced_n * STEPS) as f64 / tracer.durations("diffusion.step").len() as f64;

    let args = capture.expect("every round calls ε");
    let (packed, conv, linear, calls, largest) = replay_kernels(pipeline, &args, budget / 2);
    prof.packed_ms = packed;
    prof.conv_ms = conv;
    prof.linear_ms = linear;
    prof.calls = calls;
    let (name, x) = largest.expect("a packed container has packed layers");
    prof.act_quant_ns_per_elem = act_quant_ns(meta, &name, &x);
    let x = &args.0;
    let base = pipeline.unet().config().base_channels;
    prof.parallel_region_us = parallel_region_us(x.dim(0) * base, x.dim(2) * x.dim(3));
    prof
}
