//! The packed convolution entry point: [`fpdq_tensor::conv::conv2d`]
//! with its filter bank decoded from a [`PackedTensor`] and the
//! activation quantizer fused into the staging.
//!
//! The convolution is implicit GEMM on the NT micro-kernel shared with
//! the GEMM: each image is staged once (quantized straight into its
//! zero-bordered operand and read in place by the direct kernel, or
//! lowered into im2col micro-panels), and swept against a filter bank
//! that a packed weight expands into exactly once per call, in parallel,
//! so at batch scale the decode cost is amortised across every image of
//! the step. The input streams through [`fpdq_core::PanelQuantizer`]'s
//! boundary tables (per tensor, per input channel, or split trunk/skip)
//! exactly once: no whole-tensor fake-quant pass, no `log2`/`powf`.
//!
//! Dense `Tensor::conv2d` runs the same engine on `f32` filters read in
//! place, so on the same decoded weights the two entry points return the
//! same bits. The staging paths, the two parallel regimes
//! ([`crate::schedule`]) and the bit-identity argument are documented in
//! [`fpdq_tensor::conv`].

use crate::packed::PackedTensor;
use fpdq_core::PanelQuantizer;
use fpdq_tensor::conv::{conv2d, Conv2dSpec};
use fpdq_tensor::operand::{ActStage, Weights};
use fpdq_tensor::parallel::Exec;
use fpdq_tensor::Tensor;

/// 2-D convolution over packed weights — the one packed conv entry
/// point: input `[n, c, h, w]`, packed weight `[o, c, kh, kw]`, optional
/// bias `[o]`.
///
/// `act`, when set, quantizes the input inside the engine (as the model
/// taps do): per tensor, or per input channel with `channels == c`, where
/// channel `ci` quantizes through table `ci`. `exec` names the ISA path of
/// the filter decode, the fused input quantization and the NT
/// micro-kernel (see [`fpdq_tensor::simd`]), and the worker count of both
/// the regime decision ([`crate::schedule::pick_conv_regime`]) and the
/// parallel splits. Results are bit-identical for every `exec`.
///
/// # Panics
///
/// Panics on rank/shape mismatches, or if a per-channel quantizer's
/// channel count differs from `c`.
pub fn conv2d_packed(
    x: &Tensor,
    weight: &PackedTensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    act: Option<&PanelQuantizer>,
    exec: Exec,
) -> Tensor {
    conv2d(x, Weights::Decoded(weight), bias, spec, act.map(|q| q as &dyn ActStage), exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{decode_log, PackedTensor};
    use fpdq_core::{FpFormat, IntFormat, TensorQuantizer};
    use fpdq_tensor::simd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The dispatched packed conv with an optional per-tensor activation
    /// quantizer.
    fn conv(
        x: &Tensor,
        w: &PackedTensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
        act: Option<&TensorQuantizer>,
    ) -> Tensor {
        let pq = act.map(PanelQuantizer::per_tensor);
        conv2d_packed(x, w, bias, spec, pq.as_ref(), Exec::default())
    }

    #[test]
    fn packed_conv_matches_dense_reference() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(&[2, 3, 6, 6], &mut rng);
        let w = Tensor::randn(&[5, 3, 3, 3], &mut rng);
        let b = Tensor::randn(&[5], &mut rng);
        for (fmt, spec) in [
            (FpFormat::new(4, 3), Conv2dSpec::new(1, 1)),
            (FpFormat::new(2, 1), Conv2dSpec::new(2, 1)),
        ] {
            let packed = PackedTensor::encode(&w, fmt);
            let fast = conv(&x, &packed, Some(&b), spec, None);
            let reference = x.conv2d(&fmt.quantize(&w), Some(&b), spec);
            assert_eq!(fast.dims(), reference.dims());
            for (a, e) in fast.data().iter().zip(reference.data()) {
                assert!((a - e).abs() < 1e-4, "{fmt}: {a} vs {e}");
            }
        }
    }

    #[test]
    fn packed_int_conv_matches_dense_reference() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::randn(&[2, 2, 5, 5], &mut rng);
        let w = Tensor::randn(&[4, 2, 3, 3], &mut rng);
        let b = Tensor::randn(&[4], &mut rng);
        let spec = Conv2dSpec::new(1, 1);
        for bits in [4u32, 8] {
            let fmt = IntFormat::fit(&w, bits);
            let packed = PackedTensor::encode(&w, fmt);
            let fast = conv(&x, &packed, Some(&b), spec, None);
            let reference = x.conv2d(&fmt.quantize(&w), Some(&b), spec);
            for (a, e) in fast.data().iter().zip(reference.data()) {
                assert!((a - e).abs() < 1e-4, "INT{bits}: {a} vs {e}");
            }
        }
    }

    #[test]
    fn packed_conv_with_act_quant_matches_model_taps() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(&[1, 2, 5, 5], &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        let wfmt = FpFormat::new(2, 1);
        let act = TensorQuantizer::Fp(FpFormat::new(4, 3));
        let spec = Conv2dSpec::new(1, 1);
        let packed = PackedTensor::encode(&w, wfmt);
        let fast = conv(&x, &packed, None, spec, Some(&act));
        let reference = act.quantize(&x).conv2d(&wfmt.quantize(&w), None, spec);
        for (a, e) in fast.data().iter().zip(reference.data()) {
            assert!((a - e).abs() < 1e-4);
        }
    }

    /// Reference for the fused path: fake-quantize the whole input first,
    /// then the identical packed conv without the fused quantizer.
    fn reference_wa(
        x: &Tensor,
        w: &PackedTensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
        act: &TensorQuantizer,
    ) -> Tensor {
        conv(&act.quantize(x), w, bias, spec, None)
    }

    #[test]
    fn fused_act_quant_is_bit_exact_with_prequantized_path() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::randn(&[3, 4, 7, 7], &mut rng).mul_scalar(1.7);
        let w = Tensor::randn(&[6, 4, 3, 3], &mut rng);
        let b = Tensor::randn(&[6], &mut rng);
        let spec = Conv2dSpec::new(1, 1);
        for wfmt in [FpFormat::new(4, 3), FpFormat::new(2, 1)] {
            let packed = PackedTensor::encode(&w, wfmt);
            for act in [
                TensorQuantizer::Fp(FpFormat::new(4, 3)),
                TensorQuantizer::Fp(FpFormat::new(2, 1)),
                TensorQuantizer::Int(IntFormat::fit(&x, 8)),
                TensorQuantizer::Int(IntFormat::fit(&x, 4)),
            ] {
                let fused = conv(&x, &packed, Some(&b), spec, Some(&act));
                let reference = reference_wa(&x, &packed, Some(&b), spec, &act);
                for (i, (a, e)) in fused.data().iter().zip(reference.data()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        e.to_bits(),
                        "{wfmt}/{act} elem {i}: {a} vs {e} not bit-exact"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_handles_nan_and_inf_inputs() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut vals: Vec<f32> = Tensor::randn(&[2 * 3 * 5 * 5], &mut rng).data().to_vec();
        vals[7] = f32::NAN;
        vals[31] = f32::INFINITY;
        vals[99] = f32::NEG_INFINITY;
        let x = Tensor::from_vec(vals, &[2, 3, 5, 5]);
        let w = Tensor::randn(&[4, 3, 3, 3], &mut rng);
        let spec = Conv2dSpec::new(1, 1);
        let packed = PackedTensor::encode(&w, FpFormat::new(4, 3));
        for act in [
            TensorQuantizer::Fp(FpFormat::new(2, 1)),
            TensorQuantizer::Int(IntFormat::from_range(8, -2.0, 2.0)),
        ] {
            let fused = conv(&x, &packed, None, spec, Some(&act));
            let reference = reference_wa(&x, &packed, None, spec, &act);
            assert!(fused.data().iter().all(|v| v.is_finite()), "{act}: non-finite output");
            for (a, e) in fused.data().iter().zip(reference.data()) {
                assert_eq!(a.to_bits(), e.to_bits(), "{act}: {a} vs {e}");
            }
        }
    }

    #[test]
    fn per_channel_fused_matches_planewise_prequantization() {
        let mut rng = StdRng::seed_from_u64(6);
        let (c, h, w_) = (3usize, 5usize, 5usize);
        let x = Tensor::randn(&[2, c, h, w_], &mut rng);
        let w = Tensor::randn(&[4, c, 3, 3], &mut rng);
        let spec = Conv2dSpec::new(1, 1);
        let packed = PackedTensor::encode(&w, FpFormat::new(4, 3));
        let formats: Vec<TensorQuantizer> = (0..c)
            .map(|ci| TensorQuantizer::Fp(FpFormat::with_bias(4, 3, 7.0 + ci as f32)))
            .collect();
        let pq = PanelQuantizer::per_channel(&formats);
        let fused = conv2d_packed(&x, &packed, None, spec, Some(&pq), Exec::default());
        // Reference: quantize each input-channel plane with its format.
        let mut xq = x.clone();
        for b in 0..2 {
            for (ci, fmt) in formats.iter().enumerate() {
                let start = (b * c + ci) * h * w_;
                let plane = Tensor::from_vec(x.data()[start..start + h * w_].to_vec(), &[h * w_]);
                let qplane = fmt.quantize(&plane);
                xq.data_mut()[start..start + h * w_].copy_from_slice(qplane.data());
            }
        }
        let reference = conv2d_packed(&xq, &packed, None, spec, None, Exec::default());
        for (i, (a, e)) in fused.data().iter().zip(reference.data()).enumerate() {
            assert_eq!(a.to_bits(), e.to_bits(), "elem {i}: {a} vs {e}");
        }
    }

    #[test]
    fn regimes_are_bit_identical_at_worker_count_boundaries() {
        // n around the worker count is exactly where the old `n < workers`
        // heuristic flipped schedules; sweep batch sizes across the
        // boundary (and worker counts across regimes) and require
        // identical bits everywhere, including batch-N slice i ==
        // the batch-1 run on image i.
        use crate::schedule::{pick_conv_regime, ConvRegime};
        let mut rng = StdRng::seed_from_u64(31);
        let (c, o, hw) = (3usize, 8usize, 5usize);
        let spec = Conv2dSpec::new(1, 1);
        let w = Tensor::randn(&[o, c, 3, 3], &mut rng);
        let packed = PackedTensor::encode(&w, FpFormat::new(4, 3));
        let act = TensorQuantizer::Fp(FpFormat::new(4, 3));
        let pq = PanelQuantizer::per_tensor(&act);
        // Both regimes must actually occur in this sweep.
        let workers_swept = [1usize, 2, 4, 8];
        let batches = [1usize, 3, 4, 5, 8];
        let mut seen = std::collections::HashSet::new();
        for &n in &batches {
            let x = Tensor::randn(&[n, c, hw, hw], &mut rng);
            let singles: Vec<Tensor> = (0..n)
                .map(|i| {
                    let img = Tensor::from_vec(
                        x.data()[i * c * hw * hw..(i + 1) * c * hw * hw].to_vec(),
                        &[1, c, hw, hw],
                    );
                    conv2d_packed(
                        &img,
                        &packed,
                        None,
                        spec,
                        Some(&pq),
                        Exec::new(simd::active(), 1),
                    )
                })
                .collect();
            for &workers in &workers_swept {
                seen.insert(pick_conv_regime(n, o, workers));
                let full = conv2d_packed(
                    &x,
                    &packed,
                    None,
                    spec,
                    Some(&pq),
                    Exec::new(simd::active(), workers),
                );
                let plane = full.numel() / n;
                for (i, single) in singles.iter().enumerate() {
                    for (j, (a, e)) in full.data()[i * plane..(i + 1) * plane]
                        .iter()
                        .zip(single.data())
                        .enumerate()
                    {
                        assert_eq!(
                            a.to_bits(),
                            e.to_bits(),
                            "n {n} workers {workers} img {i} elem {j}: {a} vs {e}"
                        );
                    }
                }
            }
        }
        assert!(seen.contains(&ConvRegime::BatchParallel), "sweep never hit batch-parallel");
        assert!(seen.contains(&ConvRegime::ChannelParallel), "sweep never hit channel-parallel");
    }

    #[test]
    fn degenerate_conv_shapes_are_panic_free() {
        let fmt = FpFormat::new(4, 3);
        // Zero batch.
        let w = PackedTensor::encode(&Tensor::zeros(&[2, 3, 3, 3]), fmt);
        let y = conv(&Tensor::zeros(&[0, 3, 5, 5]), &w, None, Conv2dSpec::new(1, 1), None);
        assert_eq!(y.dims(), &[0, 2, 5, 5]);
        // Zero input channels: an empty reduction — zeros without a bias,
        // the broadcast bias with one (same as the dense reference).
        let w2 = PackedTensor::encode(&Tensor::zeros(&[2, 0, 3, 3]), fmt);
        let y2 = conv(&Tensor::zeros(&[1, 0, 5, 5]), &w2, None, Conv2dSpec::new(1, 1), None);
        assert_eq!(y2.dims(), &[1, 2, 5, 5]);
        assert!(y2.data().iter().all(|&v| v == 0.0));
        let b = Tensor::from_vec(vec![0.5, -1.25], &[2]);
        let y2b = conv(&Tensor::zeros(&[1, 0, 5, 5]), &w2, Some(&b), Conv2dSpec::new(1, 1), None);
        for (oc, plane) in y2b.data().chunks(25).enumerate() {
            assert!(plane.iter().all(|&v| v == b.data()[oc]), "channel {oc} not bias-filled");
        }
        // Zero output channels.
        let w3 = PackedTensor::encode(&Tensor::zeros(&[0, 3, 3, 3]), fmt);
        let y3 = conv(&Tensor::zeros(&[2, 3, 5, 5]), &w3, None, Conv2dSpec::new(1, 1), None);
        assert_eq!(y3.dims(), &[2, 0, 5, 5]);
        assert!(y3.data().is_empty());
        // Kernel exceeding the padded input: empty output plane, no OOB.
        let w4 = PackedTensor::encode(&Tensor::zeros(&[2, 3, 5, 5]), fmt);
        let y4 = conv(&Tensor::zeros(&[2, 3, 2, 6]), &w4, None, Conv2dSpec::new(1, 0), None);
        assert_eq!(y4.dims(), &[2, 2, 0, 2]);
        assert!(y4.data().is_empty());
    }

    #[test]
    fn edge_shapes_match_dense_reference() {
        // The degenerate/edge sweep of the implicit-GEMM path against the
        // dense conv on the *same* quantized weights: kernels at least as
        // large as the (padded) image, stride above the kernel extent,
        // and 1×1 pointwise lowering. Every worker count must agree.
        let mut rng = StdRng::seed_from_u64(40);
        for (h, w_, kh, kw, stride, padding) in [
            (2usize, 2usize, 3usize, 3usize, 1usize, 1usize), // kernel > image, padded
            (3, 5, 3, 3, 1, 2),                               // padding > image edge
            (6, 6, 2, 2, 3, 0),                               // stride > kernel
            (2, 6, 2, 3, 3, 1),                               // mixed tall/wide
            (5, 5, 1, 1, 1, 0),                               // pointwise
        ] {
            let x = Tensor::randn(&[2, 3, h, w_], &mut rng);
            let w = Tensor::randn(&[5, 3, kh, kw], &mut rng);
            let b = Tensor::randn(&[5], &mut rng);
            let spec = Conv2dSpec::new(stride, padding);
            let fmt = FpFormat::new(4, 3);
            let packed = PackedTensor::encode(&w, fmt);
            let reference = x.conv2d(&fmt.quantize(&w), Some(&b), spec);
            for workers in [1usize, 2, 8] {
                let fast = conv2d_packed(
                    &x,
                    &packed,
                    Some(&b),
                    spec,
                    None,
                    Exec::new(simd::active(), workers),
                );
                assert_eq!(fast.dims(), reference.dims(), "k={kh}x{kw} s={stride} p={padding}");
                for (a, e) in fast.data().iter().zip(reference.data()) {
                    assert!(
                        (a - e).abs() < 1e-4,
                        "k={kh}x{kw} s={stride} p={padding} workers={workers}: {a} vs {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_calls_decode_each_filter_element_once() {
        // The filter bank expands once per call, whatever the batch, the
        // regime or the path: every element of the packed weight is
        // decoded exactly once.
        let mut rng = StdRng::seed_from_u64(50);
        let act = PanelQuantizer::per_tensor(&TensorQuantizer::Fp(FpFormat::new(4, 3)));
        for (hw, spec) in [(8usize, Conv2dSpec::new(1, 1)), (6, Conv2dSpec::new(2, 1))] {
            for n in [1usize, 8] {
                for workers in [1usize, 2] {
                    let x = Tensor::randn(&[n, 3, hw, hw], &mut rng);
                    let w = Tensor::randn(&[16, 3, 3, 3], &mut rng);
                    let packed = PackedTensor::encode(&w, FpFormat::new(2, 1));
                    let exec = Exec::new(simd::active(), workers);
                    let payload = packed.payload().as_ptr();
                    decode_log::watch(payload, w.numel());
                    conv2d_packed(&x, &packed, None, spec, Some(&act), exec);
                    let counts = decode_log::take(payload);
                    let ctx = format!("{hw}x{hw} stride {} n {n} workers {workers}", spec.stride);
                    assert!(counts.iter().all(|&k| k == 1), "{ctx}: decode counts {counts:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn channel_mismatch_panics() {
        let x = Tensor::zeros(&[1, 3, 4, 4]);
        let w = PackedTensor::encode(&Tensor::zeros(&[2, 2, 3, 3]), FpFormat::new(4, 3));
        conv(&x, &w, None, Conv2dSpec::new(1, 1), None);
    }
}
