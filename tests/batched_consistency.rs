//! Differential batched-vs-single suite: batch-N packed execution must
//! be **bit-identical** to N independent batch-1 runs — per image, with
//! the same per-image seed — across quantized formats, activation
//! granularities, ISA paths, worker counts, and scheduling regimes.
//!
//! This is the contract that makes batched multi-image sampling a pure
//! throughput knob: the packed engine may pick row-parallel or
//! column-parallel GEMM schedules, batch-parallel or channel-parallel
//! conv schedules, and any worker count, without changing a single
//! output bit (`fpdq::kernels::schedule` documents why the regime choice
//! is bit-neutral). The kernel-level sweeps pass an explicit `Exec` so
//! worker counts vary in one process (`FPDQ_THREADS` is process-wide and
//! cached); the model- and sampler-level tests then pin the same property
//! end to end through `pack_unet` and the seeded samplers.

mod common;

use common::{direct_act_quantizers, direct_shapes, panel_conv};
use fpdq::diffusion::sampler::{ddim_sample_seeded, ddpm_sample_seeded, DdimParams};
use fpdq::diffusion::NoiseSchedule;
use fpdq::kernels::{conv2d_packed, gemm_packed, pack_unet, Exec, PackedTensor};
use fpdq::nn::{UNet, UNetConfig};
use fpdq::quant::calib::{CalibPoint, CalibrationSet};
use fpdq::quant::{
    quantize_unet, FpFormat, IntFormat, PanelQuantizer, PtqConfig, QuantReport, RoundingConfig,
    TensorQuantizer,
};
use fpdq::tensor::conv::Conv2dSpec;
use fpdq::tensor::simd;
use fpdq::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Worker counts swept in-process (1 = serial reference schedule).
const WORKER_SWEEP: [usize; 3] = [1, 2, 8];

fn assert_slices_bit_eq(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx} elem {i}: {g} vs {w} not bit-identical");
    }
}

/// Weight formats covering the deployed FP4/FP8/INT4/INT8 encodings.
fn weight_quantizers(w: &Tensor) -> Vec<TensorQuantizer> {
    vec![
        TensorQuantizer::Fp(FpFormat::new(4, 3)),
        TensorQuantizer::Fp(FpFormat::new(2, 1)),
        TensorQuantizer::Int(IntFormat::fit(w, 8)),
        TensorQuantizer::Int(IntFormat::fit(w, 4)),
    ]
}

/// Per-tensor and per-channel activation quantizers for `k` channels.
fn act_quantizers(k: usize) -> Vec<PanelQuantizer> {
    let per_tensor = PanelQuantizer::per_tensor(&TensorQuantizer::Fp(FpFormat::new(4, 3)));
    let formats: Vec<TensorQuantizer> = (0..k)
        .map(|j| {
            if j % 2 == 0 {
                TensorQuantizer::Fp(FpFormat::with_bias(4, 3, 7.0 + j as f32 * 0.5))
            } else {
                TensorQuantizer::Int(IntFormat::from_range(8, -2.0 - j as f32, 2.0 + j as f32))
            }
        })
        .collect();
    vec![per_tensor, PanelQuantizer::per_channel(&formats)]
}

// ---------------------------------------------------------------------------
// Kernel level: GEMM and conv
// ---------------------------------------------------------------------------

#[test]
fn batched_gemm_matches_stacked_singles_across_formats_isas_workers() {
    // [N·l, k] activations against every format × granularity × ISA ×
    // worker count must reproduce the N separate [l, k] calls row-wise.
    // l = 12 and batch = 5 put the batched call across panel and
    // ACT_BLOCK boundaries while single calls stay below them.
    let (batch, l, k, n) = (5usize, 12usize, 10usize, 6usize);
    let mut rng = StdRng::seed_from_u64(1);
    let a = Tensor::randn(&[batch * l, k], &mut rng).mul_scalar(2.0);
    let w = Tensor::randn(&[n, k], &mut rng);
    for wfmt in weight_quantizers(&w) {
        for pq in act_quantizers(k) {
            for &isa in simd::available() {
                for &workers in &WORKER_SWEEP {
                    let ctx = format!(
                        "w={wfmt:?} act_ch={} isa={isa:?} workers={workers}",
                        pq.channels()
                    );
                    let packed = PackedTensor::encode(&w, wfmt);
                    let run =
                        |x: &Tensor| gemm_packed(x, &packed, Some(&pq), Exec::new(isa, workers));
                    let full = run(&a);
                    for img in 0..batch {
                        let ai = Tensor::from_vec(
                            a.data()[img * l * k..(img + 1) * l * k].to_vec(),
                            &[l, k],
                        );
                        let single = run(&ai);
                        assert_slices_bit_eq(
                            &full.data()[img * l * n..(img + 1) * l * n],
                            single.data(),
                            &format!("{ctx} img={img}"),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn batched_conv_matches_per_image_calls_across_formats_isas_workers() {
    // [N, c, h, w] input across every format × granularity × ISA ×
    // worker count: image i of the batch equals the batch-1 call on
    // image i. Batch sizes straddle the regime boundary for every
    // worker count in the sweep.
    let (c, o, hw) = (3usize, 6usize, 5usize);
    let spec = Conv2dSpec::new(1, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let w = Tensor::randn(&[o, c, 3, 3], &mut rng);
    let bias = Tensor::randn(&[o], &mut rng);
    for wfmt in weight_quantizers(&w) {
        for pq in act_quantizers(c) {
            for &isa in simd::available() {
                for &workers in &WORKER_SWEEP {
                    for batch in [1usize, 3, 9] {
                        let x = Tensor::randn(&[batch, c, hw, hw], &mut rng);
                        let ctx = format!(
                            "w={wfmt:?} act_ch={} isa={isa:?} workers={workers} batch={batch}",
                            pq.channels()
                        );
                        let packed = PackedTensor::encode(&w, wfmt);
                        let exec = Exec::new(isa, workers);
                        let run = |img: &Tensor| {
                            conv2d_packed(img, &packed, Some(&bias), spec, Some(&pq), exec)
                        };
                        let full = run(&x);
                        let plane = full.numel() / batch;
                        for img in 0..batch {
                            let xi = Tensor::from_vec(
                                x.data()[img * c * hw * hw..(img + 1) * c * hw * hw].to_vec(),
                                &[1, c, hw, hw],
                            );
                            let single = run(&xi);
                            assert_slices_bit_eq(
                                &full.data()[img * plane..(img + 1) * plane],
                                single.data(),
                                &format!("{ctx} img={img}"),
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn direct_conv_batches_match_the_panel_path_across_workers() {
    // The direct path in both conv regimes: batches of 1, 2 and 3 images
    // on 1, 2, 3 and 16 workers must reproduce the scalar one-thread
    // panel path bit for bit, with every quantizer and NaN/±∞ inputs.
    let mut rng = StdRng::seed_from_u64(70);
    for (k, spec, hw) in direct_shapes() {
        for (c, o) in [(1usize, 3usize), (3, 4), (8, 12), (24, 16)] {
            let mut vals = Tensor::randn(&[3, c, hw, hw], &mut rng).data().to_vec();
            let n = vals.len();
            vals[n / 5] = f32::NAN;
            vals[n / 2] = f32::INFINITY;
            vals[n - 2] = f32::NEG_INFINITY;
            let x3 = Tensor::from_vec(vals, &[3, c, hw, hw]);
            let w = Tensor::randn(&[o, c, k, k], &mut rng);
            let bias = Tensor::randn(&[o], &mut rng);
            let packed = PackedTensor::encode(&w, FpFormat::new(4, 3));
            for act in direct_act_quantizers(c) {
                for batch in [1usize, 2, 3] {
                    let x = x3.narrow(0, 0, batch);
                    let want = panel_conv(&x, &packed, Some(&bias), spec, act.as_ref());
                    for workers in [1usize, 2, 3, 16] {
                        let exec = Exec::new(simd::active(), workers);
                        let got = conv2d_packed(&x, &packed, Some(&bias), spec, act.as_ref(), exec);
                        let ctx = format!(
                            "{k}x{k} {hw}x{hw} c {c} o {o} act {} batch {batch} workers {workers}",
                            act.as_ref().map_or(0, |q| q.channels())
                        );
                        assert_slices_bit_eq(got.data(), want.data(), &ctx);
                    }
                }
            }
        }
    }
}

#[test]
fn conv_tower_batches_match_singles_across_formats_isas_workers() {
    // A conv-heavy three-layer tower through the implicit-GEMM path at
    // off-tile batch sizes {1, 2, 7, 8}: the layer shapes are chosen so
    // panel widths land off the NT_NR tile at every depth (6×6 → 36
    // pixels = 4.5 panels, the stride-2 stage → 9 pixels, the valid 3×3
    // stage → a single-pixel panel), and batches 7/8 straddle the
    // batch-parallel/channel-parallel regime boundary for the larger
    // worker counts. Image i of every batch must equal the batch-1
    // tower on image i, bitwise, for FP4/FP8/INT4/INT8 weights ×
    // scalar+dispatched ISAs × workers 1/2/8.
    let mut rng = StdRng::seed_from_u64(7);
    let specs = [Conv2dSpec::new(1, 1), Conv2dSpec::new(2, 1), Conv2dSpec::new(1, 0)];
    let ws = [
        Tensor::randn(&[5, 3, 3, 3], &mut rng),
        Tensor::randn(&[6, 5, 3, 3], &mut rng),
        Tensor::randn(&[4, 6, 3, 3], &mut rng),
    ];
    let biases: Vec<Tensor> = ws.iter().map(|w| Tensor::randn(&[w.dim(0)], &mut rng)).collect();
    let pq = PanelQuantizer::per_tensor(&TensorQuantizer::Fp(FpFormat::new(4, 3)));
    let images: Vec<Tensor> = (0..8).map(|_| Tensor::randn(&[1, 3, 6, 6], &mut rng)).collect();
    for fidx in 0..4 {
        for &isa in simd::available() {
            for &workers in &WORKER_SWEEP {
                let tower = |x: &Tensor| {
                    let mut y = x.clone();
                    for ((w, bias), &spec) in ws.iter().zip(&biases).zip(&specs) {
                        let packed = PackedTensor::encode(w, weight_quantizers(w)[fidx]);
                        let exec = Exec::new(isa, workers);
                        y = conv2d_packed(&y, &packed, Some(bias), spec, Some(&pq), exec);
                    }
                    y
                };
                let singles: Vec<Tensor> = images.iter().map(&tower).collect();
                for batch in [1usize, 2, 7, 8] {
                    let mut stacked = Vec::new();
                    for img in images.iter().take(batch) {
                        stacked.extend_from_slice(img.data());
                    }
                    let full = tower(&Tensor::from_vec(stacked, &[batch, 3, 6, 6]));
                    let plane = full.numel() / batch;
                    for (img, single) in singles.iter().take(batch).enumerate() {
                        assert_slices_bit_eq(
                            &full.data()[img * plane..(img + 1) * plane],
                            single.data(),
                            &format!(
                                "tower fmt={fidx} isa={isa:?} workers={workers} \
                                 batch={batch} img={img}"
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn degenerate_batched_shapes_stay_panic_free_in_both_regimes() {
    // batch == 0 / m == 0 must return empty tensors from every regime
    // and worker count, never slice past the packed payload.
    let fmt = FpFormat::new(4, 3);
    let pq = PanelQuantizer::per_tensor(&TensorQuantizer::Fp(fmt));
    let w = PackedTensor::encode(&Tensor::zeros(&[6, 10]), fmt);
    for &workers in &WORKER_SWEEP {
        let exec = Exec::new(simd::active(), workers);
        let y = gemm_packed(&Tensor::zeros(&[0, 10]), &w, Some(&pq), exec);
        assert_eq!(y.dims(), &[0, 6]);
    }
    let wc = PackedTensor::encode(&Tensor::zeros(&[4, 3, 3, 3]), fmt);
    for &workers in &WORKER_SWEEP {
        let exec = Exec::new(simd::active(), workers);
        let y = conv2d_packed(
            &Tensor::zeros(&[0, 3, 5, 5]),
            &wc,
            None,
            Conv2dSpec::new(1, 1),
            None,
            exec,
        );
        assert_eq!(y.dims(), &[0, 4, 5, 5]);
    }
}

// ---------------------------------------------------------------------------
// Model level: packed U-Net forward
// ---------------------------------------------------------------------------

/// A PTQ'd tiny U-Net plus its report (mirrors the exec-crate fixture).
fn quantized_tiny_unet(cfg: PtqConfig) -> (UNet, QuantReport, StdRng) {
    let mut rng = StdRng::seed_from_u64(0);
    let unet = UNet::new(UNetConfig::tiny(2), &mut rng);
    let points: Vec<CalibPoint> = (0..4)
        .map(|i| CalibPoint {
            x: Tensor::randn(&[1, 2, 8, 8], &mut rng),
            t: (i * 5) as f32,
            ctx: None,
        })
        .collect();
    let calib = CalibrationSet { init: points.clone(), rl: points };
    let mut cfg = cfg;
    cfg.bias_candidates = 15;
    cfg.rounding = RoundingConfig { iters: 8, batch: 2, ..RoundingConfig::default() };
    let report = quantize_unet(&unet, &calib, &cfg, &mut rng);
    (unet, report, rng)
}

#[test]
fn packed_unet_forward_is_batch_invariant_per_image() {
    // Image i of a batch-6 packed forward equals the batch-1 forward on
    // image i, bitwise — for FP and INT packed engines. This is the load-
    // bearing property under batched sampling: every layer (packed GEMM
    // and conv, group norm, attention, time embedding) treats the batch
    // dimension independently.
    for cfg in [PtqConfig::fp(8, 8), PtqConfig::int(4, 8)] {
        let (unet, report, mut rng) = quantized_tiny_unet(cfg);
        let pack = pack_unet(&unet, &report);
        assert!(!pack.layers.is_empty());
        let batch = 6usize;
        let x = Tensor::randn(&[batch, 2, 8, 8], &mut rng);
        let t = Tensor::from_vec((0..batch).map(|i| (3 + i) as f32).collect(), &[batch]);
        let full = unet.forward(&x, &t, None);
        let plane = full.numel() / batch;
        for img in 0..batch {
            let xi = Tensor::from_vec(
                x.data()[img * 2 * 64..(img + 1) * 2 * 64].to_vec(),
                &[1, 2, 8, 8],
            );
            let ti = Tensor::from_vec(vec![t.data()[img]], &[1]);
            let single = unet.forward(&xi, &ti, None);
            assert_slices_bit_eq(
                &full.data()[img * plane..(img + 1) * plane],
                single.data(),
                &format!("packed U-Net img {img}"),
            );
        }
    }
}

#[test]
fn conv_heavy_packed_unet_forward_matches_singles_at_off_tile_batches() {
    // The model-level face of the conv tower test: packed U-Net forwards
    // (conv-dominated — every resolution stage is 3×3 convs through the
    // implicit-GEMM path) at off-tile batch sizes {1, 2, 7, 8} for all
    // four deployed formats. Each batch image must equal its batch-1
    // forward bitwise. The ISA and worker axes are process-wide here
    // (the packed forward dispatches internally), so the CI
    // forced-scalar/+avx2 and FPDQ_THREADS 1/16 jobs sweep them by
    // re-running this whole suite.
    for cfg in
        [PtqConfig::fp(4, 8), PtqConfig::fp(8, 8), PtqConfig::int(4, 8), PtqConfig::int(8, 8)]
    {
        let tag = cfg.tag();
        let (unet, report, mut rng) = quantized_tiny_unet(cfg);
        let pack = pack_unet(&unet, &report);
        assert!(!pack.layers.is_empty());
        let images: Vec<Tensor> = (0..8).map(|_| Tensor::randn(&[1, 2, 8, 8], &mut rng)).collect();
        let singles: Vec<Tensor> = images
            .iter()
            .enumerate()
            .map(|(i, xi)| {
                let ti = Tensor::from_vec(vec![(3 + i) as f32], &[1]);
                unet.forward(xi, &ti, None)
            })
            .collect();
        for batch in [1usize, 2, 7, 8] {
            let mut stacked = Vec::new();
            for img in images.iter().take(batch) {
                stacked.extend_from_slice(img.data());
            }
            let x = Tensor::from_vec(stacked, &[batch, 2, 8, 8]);
            let t = Tensor::from_vec((0..batch).map(|i| (3 + i) as f32).collect(), &[batch]);
            let full = unet.forward(&x, &t, None);
            let plane = full.numel() / batch;
            for (img, single) in singles.iter().take(batch).enumerate() {
                assert_slices_bit_eq(
                    &full.data()[img * plane..(img + 1) * plane],
                    single.data(),
                    &format!("{tag} batch={batch} img={img}"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sampler level: batched packed sampling
// ---------------------------------------------------------------------------

#[test]
fn batched_packed_sampling_matches_single_image_runs_bitwise() {
    // The acceptance contract end to end: batch-N DDIM/DDPM sampling on
    // the packed engine is bit-identical to N independent batch-1 runs
    // with the same per-image seeds — including stochastic steps (η > 0
    // exercises the per-image RNG streams every step).
    let (unet, report, _) = quantized_tiny_unet(PtqConfig::fp(8, 8));
    pack_unet(&unet, &report);
    let schedule = NoiseSchedule::linear_scaled(12);
    let seeds = [17u64, 91, 17, 4242]; // duplicate seed -> identical images
    let params = DdimParams { steps: 6, eta: 0.5, clip_x0: Some(1.0) };
    let eps = |x: &Tensor, t: &Tensor| unet.forward(x, t, None);
    let batch = ddim_sample_seeded(&schedule, [2, 8, 8], &seeds, params, eps);
    assert_eq!(batch.dims(), &[4, 2, 8, 8]);
    for (i, &s) in seeds.iter().enumerate() {
        let single = ddim_sample_seeded(&schedule, [2, 8, 8], &[s], params, eps);
        assert_slices_bit_eq(
            batch.narrow(0, i, 1).data(),
            single.data(),
            &format!("packed DDIM img {i} seed {s}"),
        );
    }
    assert_slices_bit_eq(batch.narrow(0, 0, 1).data(), batch.narrow(0, 2, 1).data(), "dup seeds");

    let batch = ddpm_sample_seeded(&schedule, [2, 8, 8], &seeds, Some(1.0), eps);
    for (i, &s) in seeds.iter().enumerate() {
        let single = ddpm_sample_seeded(&schedule, [2, 8, 8], &[s], Some(1.0), eps);
        assert_slices_bit_eq(
            batch.narrow(0, i, 1).data(),
            single.data(),
            &format!("packed DDPM img {i} seed {s}"),
        );
    }
}

#[test]
fn batched_packed_sampling_is_composition_order_independent() {
    // Reordering the seed list permutes the packed-engine outputs
    // without changing any image.
    let (unet, report, _) = quantized_tiny_unet(PtqConfig::fp(4, 8));
    pack_unet(&unet, &report);
    let schedule = NoiseSchedule::linear_scaled(10);
    let params = DdimParams { steps: 5, eta: 1.0, clip_x0: None };
    let eps = |x: &Tensor, t: &Tensor| unet.forward(x, t, None);
    let fwd = ddim_sample_seeded(&schedule, [2, 8, 8], &[5, 6, 7], params, eps);
    let rev = ddim_sample_seeded(&schedule, [2, 8, 8], &[7, 6, 5], params, eps);
    for i in 0..3 {
        assert_slices_bit_eq(
            fwd.narrow(0, i, 1).data(),
            rev.narrow(0, 2 - i, 1).data(),
            &format!("img {i}"),
        );
    }
}
