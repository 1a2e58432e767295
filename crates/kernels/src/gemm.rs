//! The packed GEMM entry point: [`fpdq_tensor::matmul::gemm_nt`] with
//! its weight rows decoded from a [`PackedTensor`] and the activation
//! quantizer fused into the staging.
//!
//! The execution pattern of weight-quantized inference on hardware without
//! native low-bit units: weights stream from memory in packed form (4-8×
//! less traffic than FP32) and are expanded to the accumulator type in
//! per-thread scratch, each tile once per call. In the weight+activation
//! configuration the activations are quantized as they are staged for the
//! micro-kernel, through the boundary tables of
//! [`fpdq_core::BoundaryQuantizer`]: no whole-tensor fake-quant pass, no
//! `log2`/`powf` per element, no intermediate activation tensor, and
//! bit-exact against the simulated quantizers.
//!
//! Dense `Tensor::matmul_nt` runs the same engine on `f32` rows read in
//! place, so on the same decoded weights the two entry points return the
//! same bits. The engine's two tile schedules, its regime choice
//! ([`crate::schedule`]) and its bit-identity argument are documented on
//! [`fpdq_tensor::matmul::gemm_nt`].

use crate::packed::PackedTensor;
use fpdq_core::PanelQuantizer;
use fpdq_tensor::matmul::gemm_nt;
use fpdq_tensor::operand::{ActStage, Weights};
use fpdq_tensor::parallel::Exec;
use fpdq_tensor::Tensor;

/// `a [.., k] × wᵀ [n,k] → [m,n]` over packed weights — the one packed
/// GEMM entry point. The activations are read as `m = numel / k` rows of
/// a row-major `[m, k]` matrix in place (every leading dim folds into the
/// rows), so a `[b, l, d]` input needs no flattening copy. When a dim is
/// 0 the result is the all-zero `[m, n]` (an empty sum).
///
/// `act`, when set, quantizes the activations inside the engine (the
/// paper's weight+activation configuration): per tensor, or per channel
/// with `channels == k`, where column `j` quantizes through table `j`.
/// `exec` names the ISA path of the weight decode, the activation
/// quantization and the NT micro-kernel (see [`fpdq_tensor::simd`]), and
/// the worker count of both the regime decision
/// ([`crate::schedule::pick_gemm_regime`]) and the parallel split.
/// Results are bit-identical for every `exec` — the property
/// `tests/simd_consistency.rs` and `tests/batched_consistency.rs` pin.
///
/// # Panics
///
/// Panics on shape mismatches (including a 0-D `a`), or if a per-channel
/// quantizer's channel count differs from `k`.
pub fn gemm_packed(
    a: &Tensor,
    w: &PackedTensor,
    act: Option<&PanelQuantizer>,
    exec: Exec,
) -> Tensor {
    gemm_nt(a, Weights::Decoded(w), act.map(|q| q as &dyn ActStage), exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpdq_core::{FpFormat, IntFormat, TensorQuantizer};
    use fpdq_tensor::matmul::{gemm_nt_panel_as, pack_nt_panel, NT_NR};
    use fpdq_tensor::parallel::num_threads;
    use fpdq_tensor::simd;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The dispatched packed GEMM with an optional per-tensor activation
    /// quantizer.
    fn gemm(a: &Tensor, w: &PackedTensor, act: Option<&TensorQuantizer>) -> Tensor {
        let pq = act.map(PanelQuantizer::per_tensor);
        gemm_packed(a, w, pq.as_ref(), Exec::default())
    }

    #[test]
    fn packed_fp_gemm_matches_dense_reference() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Tensor::randn(&[7, 24], &mut rng);
        let w = Tensor::randn(&[13, 24], &mut rng);
        let fmt = FpFormat::new(4, 3);
        let packed = PackedTensor::encode(&w, fmt);
        let fast = gemm(&a, &packed, None);
        let reference = a.matmul_nt(&fmt.quantize(&w));
        assert_eq!(fast.dims(), &[7, 13]);
        for (x, y) in fast.data().iter().zip(reference.data()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn packed_fp_gemm_with_act_quant_matches_double_fake_quant() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::randn(&[5, 16], &mut rng);
        let w = Tensor::randn(&[6, 16], &mut rng);
        let wfmt = FpFormat::new(2, 1);
        let afmt = TensorQuantizer::Fp(FpFormat::new(4, 3));
        let packed = PackedTensor::encode(&w, wfmt);
        let fast = gemm(&a, &packed, Some(&afmt));
        let reference = afmt.quantize(&a).matmul_nt(&wfmt.quantize(&w));
        for (x, y) in fast.data().iter().zip(reference.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn packed_int_gemm_matches_dense_reference() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::randn(&[4, 32], &mut rng);
        let w = Tensor::randn(&[9, 32], &mut rng);
        let fmt = IntFormat::fit(&w, 8);
        let packed = PackedTensor::encode(&w, fmt);
        let fast = gemm(&a, &packed, None);
        let reference = a.matmul_nt(&fmt.quantize(&w));
        for (x, y) in fast.data().iter().zip(reference.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn packed_int_gemm_streams_odd_bitwidths() {
        // INT3/INT5 exercise the non-LUT generic decode inside the tiled
        // kernel (bit-level row streaming, still no densification).
        let mut rng = StdRng::seed_from_u64(5);
        let a = Tensor::randn(&[3, 21], &mut rng);
        let w = Tensor::randn(&[10, 21], &mut rng);
        for bits in [3u32, 5] {
            let fmt = IntFormat::fit(&w, bits);
            let packed = PackedTensor::encode(&w, fmt);
            let fast = gemm(&a, &packed, None);
            let reference = a.matmul_nt(&fmt.quantize(&w));
            for (x, y) in fast.data().iter().zip(reference.data()) {
                assert!((x - y).abs() < 1e-4, "INT{bits}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn tiled_gemm_handles_edge_shapes() {
        // m/n/k off the register-block grid, single activation rows, tiny
        // k, and m spanning multiple activation blocks — every case must
        // agree with the dense reference.
        let mut rng = StdRng::seed_from_u64(3);
        let fmt = FpFormat::new(4, 3);
        for (m, n, k) in [
            (1usize, 1usize, 1usize),
            (1, 13, 24),
            (2, 3, 2),
            (3, 9, 3),
            (5, 7, 31),
            (4, 4, 4),
            (6, 17, 33),
            (9, 8, 128),
            (33, 31, 65),
            (70, 5, 9),
        ] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let w = Tensor::randn(&[n, k], &mut rng);
            let packed = PackedTensor::encode(&w, fmt);
            let fast = gemm(&a, &packed, None);
            let reference = a.matmul_nt(&fmt.quantize(&w));
            assert_eq!(fast.dims(), &[m, n]);
            for (i, (x, y)) in fast.data().iter().zip(reference.data()).enumerate() {
                assert!((x - y).abs() < 1e-3, "({m},{n},{k}) elem {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn degenerate_shapes_produce_empty_or_zero_outputs() {
        // m == 0 / k == 0 / n == 0 must not slice past the packed payload
        // — both the packed GEMM and the dense matmul_nt return the
        // well-defined empty-sum result.
        let fmt = FpFormat::new(4, 3);
        for (m, n, k) in [(0usize, 4usize, 3usize), (2, 0, 3), (2, 4, 0), (0, 0, 0)] {
            let a = Tensor::zeros(&[m, k]);
            let w = PackedTensor::encode(&Tensor::zeros(&[n, k]), fmt);
            let y = gemm(&a, &w, None);
            assert_eq!(y.dims(), &[m, n], "({m},{n},{k})");
            assert!(y.data().iter().all(|&v| v == 0.0));
            let dense = Tensor::zeros(&[m, k]).matmul_nt(&Tensor::zeros(&[n, k]));
            assert_eq!(dense.dims(), &[m, n]);
            let wa = gemm(&a, &w, Some(&TensorQuantizer::Fp(fmt)));
            assert_eq!(wa.dims(), &[m, n]);
        }
    }

    /// Reference for the fused path: fake-quantize the whole activation
    /// tensor first, then run the identical packed kernel without the
    /// fused quantizer.
    fn reference_wa(a: &Tensor, w: &PackedTensor, act: &TensorQuantizer) -> Tensor {
        gemm(&act.quantize(a), w, None)
    }

    #[test]
    fn fused_act_quant_is_bit_exact_with_prequantized_path() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::randn(&[33, 40], &mut rng).mul_scalar(2.5);
        let w = Tensor::randn(&[19, 40], &mut rng);
        for wfmt in [FpFormat::new(4, 3), FpFormat::new(2, 1)] {
            let packed = PackedTensor::encode(&w, wfmt);
            for act in [
                TensorQuantizer::Fp(FpFormat::new(4, 3)),
                TensorQuantizer::Fp(FpFormat::new(2, 1)),
                TensorQuantizer::Int(IntFormat::fit(&a, 8)),
                TensorQuantizer::Int(IntFormat::fit(&a, 4)),
            ] {
                let fused = gemm(&a, &packed, Some(&act));
                let reference = reference_wa(&a, &packed, &act);
                for (i, (x, y)) in fused.data().iter().zip(reference.data()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{wfmt}/{act} elem {i}: {x} vs {y} not bit-exact"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_handles_nan_and_inf_activations() {
        // NaN maps through the boundary table exactly like the simulated
        // quantizer (to 0 for FP, the zero level for INT); ±∞ clip.
        let mut rng = StdRng::seed_from_u64(8);
        let mut vals: Vec<f32> = Tensor::randn(&[6 * 12], &mut rng).data().to_vec();
        vals[3] = f32::NAN;
        vals[17] = f32::INFINITY;
        vals[40] = f32::NEG_INFINITY;
        let a = Tensor::from_vec(vals, &[6, 12]);
        let w = Tensor::randn(&[5, 12], &mut rng);
        let packed = PackedTensor::encode(&w, FpFormat::new(4, 3));
        for act in [
            TensorQuantizer::Fp(FpFormat::new(4, 3)),
            TensorQuantizer::Int(IntFormat::from_range(8, -2.0, 2.0)),
        ] {
            let fused = gemm(&a, &packed, Some(&act));
            let reference = reference_wa(&a, &packed, &act);
            assert!(fused.data().iter().all(|v| v.is_finite()), "{act}: non-finite output");
            for (x, y) in fused.data().iter().zip(reference.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{act}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn per_channel_fused_matches_columnwise_prequantization() {
        let mut rng = StdRng::seed_from_u64(9);
        let (m, k, n) = (9usize, 6usize, 7usize);
        let a = Tensor::randn(&[m, k], &mut rng);
        let w = Tensor::randn(&[n, k], &mut rng);
        let packed = PackedTensor::encode(&w, FpFormat::new(4, 3));
        // One distinct format per input feature (column).
        let formats: Vec<TensorQuantizer> = (0..k)
            .map(|j| {
                if j % 2 == 0 {
                    TensorQuantizer::Fp(FpFormat::with_bias(4, 3, 8.0 + j as f32 * 0.5))
                } else {
                    TensorQuantizer::Int(IntFormat::from_range(8, -1.0 - j as f32, 1.0 + j as f32))
                }
            })
            .collect();
        let pq = PanelQuantizer::per_channel(&formats);
        let fused = gemm_packed(&a, &packed, Some(&pq), Exec::default());
        // Reference: quantize each column with its own format, then the
        // identical kernel without fusion.
        let mut aq = a.clone();
        for i in 0..m {
            for (j, fmt) in formats.iter().enumerate() {
                let v = Tensor::from_vec(vec![a.data()[i * k + j]], &[1]);
                aq.data_mut()[i * k + j] = fmt.quantize(&v).data()[0];
            }
        }
        let reference = gemm_packed(&aq, &packed, None, Exec::default());
        for (i, (x, y)) in fused.data().iter().zip(reference.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "elem {i}: {x} vs {y}");
        }
    }

    #[test]
    fn multithreaded_output_is_bit_identical_to_single_threaded() {
        // The kernel accumulates every output element in plain k order in
        // every code path, so the thread count must not change a single
        // bit. FPDQ_THREADS is process-wide and cached; emulate the
        // single-thread schedule by running the serial body directly.
        let mut rng = StdRng::seed_from_u64(10);
        let a = Tensor::randn(&[37, 48], &mut rng);
        let w = Tensor::randn(&[29, 48], &mut rng);
        let act = TensorQuantizer::Fp(FpFormat::new(4, 3));
        let packed = PackedTensor::encode(&w, FpFormat::new(2, 1));
        let threaded = gemm(&a, &packed, Some(&act));
        // Reference schedule: one tile at a time via a 1-row-chunk sweep.
        let reference = {
            let aq = act.quantize(&a);
            let mut bp = vec![0.0f32; 48 * NT_NR];
            let mut wrow = vec![0.0f32; 48];
            let mut out = vec![0.0f32; 37 * 29];
            for j0 in (0..37).step_by(NT_NR) {
                let nw = NT_NR.min(37 - j0);
                pack_nt_panel(&aq.data()[j0 * 48..(j0 + nw) * 48], 48, nw, &mut bp);
                for r in 0..29 {
                    packed.decode_range_into_as(simd::active(), r * 48, &mut wrow);
                    let mut crow = vec![0.0f32; 37];
                    crow.copy_from_slice(&out[r * 37..(r + 1) * 37]);
                    gemm_nt_panel_as(simd::active(), &wrow, &bp, &mut crow, 1, 48, 37, j0, nw);
                    out[r * 37..(r + 1) * 37].copy_from_slice(&crow);
                }
            }
            Tensor::from_vec(out, &[29, 37]).transpose()
        };
        assert!(num_threads() >= 1);
        for (i, (x, y)) in threaded.data().iter().zip(reference.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "elem {i}: schedule changed the bits");
        }
    }

    #[test]
    fn row_and_col_regimes_are_bit_identical_across_worker_counts() {
        // Two shapes pin both regimes: m = 24 stays weight-stationary
        // (row-parallel) at every worker count, m = 64 over a narrow
        // n = 8 layer is activation-stationary (column-parallel) — and
        // in each regime every worker count must produce the same bits.
        use crate::schedule::{pick_gemm_regime, GemmRegime};
        let mut rng = StdRng::seed_from_u64(21);
        let act = TensorQuantizer::Fp(FpFormat::new(4, 3));
        let pq = PanelQuantizer::per_tensor(&act);
        assert_eq!(pick_gemm_regime(24, 32, 8), GemmRegime::RowParallel);
        assert_eq!(pick_gemm_regime(64, 8, 1), GemmRegime::ColParallel);
        for (m, n) in [(24usize, 32usize), (64, 8)] {
            let a = Tensor::randn(&[m, 24], &mut rng).mul_scalar(2.0);
            let w = Tensor::randn(&[n, 24], &mut rng);
            let packed = PackedTensor::encode(&w, FpFormat::new(2, 1));
            let want = gemm_packed(&a, &packed, Some(&pq), Exec::new(simd::active(), 1));
            // The reference matmul pins cross-regime identity too.
            let dense = act.quantize(&a).matmul_nt(&FpFormat::new(2, 1).quantize(&w));
            for (x, y) in want.data().iter().zip(dense.data()) {
                assert!((x - y).abs() < 1e-4, "({m},{n}): {x} vs {y}");
            }
            for workers in [2usize, 3, 8, 16] {
                let got = gemm_packed(&a, &packed, Some(&pq), Exec::new(simd::active(), workers));
                assert_eq!(got.dims(), want.dims());
                for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "({m},{n}) workers {workers} elem {i}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_rows_match_stacked_single_image_calls() {
        // The core batched-sampling contract at the GEMM level: an
        // [N·l, k] activation matrix must reproduce N independent [l, k]
        // calls row-for-row, bitwise, in both regimes.
        let mut rng = StdRng::seed_from_u64(22);
        let (l, k, n) = (16usize, 20usize, 6usize);
        let batch = 5usize;
        let a = Tensor::randn(&[batch * l, k], &mut rng);
        let w = Tensor::randn(&[n, k], &mut rng);
        let act = TensorQuantizer::Fp(FpFormat::new(4, 3));
        let pq = PanelQuantizer::per_tensor(&act);
        let packed = PackedTensor::encode(&w, FpFormat::new(2, 1));
        for workers in [1usize, 2, 8] {
            let full = gemm_packed(&a, &packed, Some(&pq), Exec::new(simd::active(), workers));
            for img in 0..batch {
                let ai =
                    Tensor::from_vec(a.data()[img * l * k..(img + 1) * l * k].to_vec(), &[l, k]);
                let single =
                    gemm_packed(&ai, &packed, Some(&pq), Exec::new(simd::active(), workers));
                for (i, (x, y)) in full.data()[img * l * n..(img + 1) * l * n]
                    .iter()
                    .zip(single.data())
                    .enumerate()
                {
                    assert_eq!(x.to_bits(), y.to_bits(), "img {img} workers {workers} elem {i}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn fused_wa_gemm_bit_exact_property(
            seed in 0u64..1000,
            m in 1usize..20,
            k in 1usize..24,
            n in 1usize..12,
            wpick in 0usize..4,
            apick in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Tensor::randn(&[m, k], &mut rng).mul_scalar(3.0);
            let w = Tensor::randn(&[n, k], &mut rng);
            let wfmt = [FpFormat::new(4, 3), FpFormat::new(2, 1),
                        FpFormat::new(5, 2), FpFormat::new(1, 2)][wpick];
            let act = match apick {
                0 => TensorQuantizer::Fp(FpFormat::new(4, 3)),
                1 => TensorQuantizer::Fp(FpFormat::new(2, 1)),
                2 => TensorQuantizer::Int(IntFormat::fit(&a, 8)),
                _ => TensorQuantizer::Int(IntFormat::fit(&a, 4)),
            };
            let packed = PackedTensor::encode(&w, wfmt);
            let fused = gemm(&a, &packed, Some(&act));
            let reference = reference_wa(&a, &packed, &act);
            for (x, y) in fused.data().iter().zip(reference.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn shape_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let w = PackedTensor::encode(&Tensor::zeros(&[4, 5]), FpFormat::new(4, 3));
        gemm(&a, &w, None);
    }
}
