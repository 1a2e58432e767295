//! Per-tensor format selection (paper §V-A, Algorithm 1).
//!
//! For floating point: a grid search over the bitwidth's encoding
//! candidates × 111 bias candidates, minimising MSE between the quantized
//! and full-precision tensor. For the integer baseline: an equivalent
//! MSE-driven clipping-range search (matching the strength of the
//! Q-Diffusion baseline's range calibration).
//!
//! Note on Algorithm 1 as printed: the pseudo-code initialises
//! `prev_mse = 0` and updates on `prev_mse > curr_mse`, which as written
//! never fires; the obvious intent (and what we implement) is
//! "keep the argmin", i.e. initialise to +∞.

use crate::format::FpFormat;
use crate::int::IntFormat;
use crate::quantizer::TensorQuantizer;
use fpdq_tensor::parallel::{num_threads, parallel_rows_in};
use fpdq_tensor::Tensor;

/// Number of bias candidates used throughout the paper ("111 bias values
/// provide the best trade-off between search time and task performance",
/// §V-A).
pub const PAPER_BIAS_CANDIDATES: usize = 111;

/// Outcome of a format search.
#[derive(Clone, Copy, Debug)]
pub struct SearchResult {
    /// The argmin quantizer.
    pub quantizer: TensorQuantizer,
    /// Its mean squared error against the full-precision data.
    pub mse: f32,
}

/// Mean squared quantization error of `q` over a set of sample tensors.
pub fn quantization_mse(samples: &[&Tensor], q: &TensorQuantizer) -> f32 {
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for s in samples {
        for &x in s.data() {
            let e = (q.quantize(&Tensor::scalar(x)).data()[0] - x) as f64;
            sum += e * e;
        }
        count += s.numel();
    }
    (sum / count.max(1) as f64) as f32
}

fn mse_of(samples: &[&Tensor], q: TensorQuantizer) -> f32 {
    // Hot path: avoid per-scalar tensor allocation.
    let mut sum = 0.0f64;
    let mut count = 0usize;
    match q {
        TensorQuantizer::Fp(f) => {
            for s in samples {
                for &x in s.data() {
                    let e = (f.quantize_scalar(x) - x) as f64;
                    sum += e * e;
                }
                count += s.numel();
            }
        }
        TensorQuantizer::Int(f) => {
            for s in samples {
                for &x in s.data() {
                    let e = (f.quantize_scalar(x) - x) as f64;
                    sum += e * e;
                }
                count += s.numel();
            }
        }
    }
    (sum / count.max(1) as f64) as f32
}

fn abs_max(samples: &[&Tensor]) -> f32 {
    samples.iter().map(|s| s.abs().max()).fold(0.0, f32::max)
}

/// The bias candidates for one encoding: clipping maxima evenly spaced
/// over the data's magnitude range, each converted to a bias via eq. (7)
/// (`b = 2^e - 1 - log2(c / (2 - 2^-m))`).
pub fn bias_candidates(encoding: &FpFormat, max_abs: f32, count: usize) -> Vec<f32> {
    let count = count.max(1);
    let hi = max_abs.max(1e-8);
    let lo = hi * 1e-3;
    let denom = 2.0 - 2f32.powi(-(encoding.man_bits() as i32));
    (0..count)
        .map(|k| {
            let c = lo + (hi - lo) * k as f32 / (count - 1).max(1) as f32;
            2f32.powi(encoding.exp_bits() as i32) - 1.0 - (c / denom).log2()
        })
        .collect()
}

/// Algorithm 1: finds the `(encoding, bias)` pair minimising quantization
/// MSE over the sample set.
///
/// `samples` is the data to be quantized — the weight tensor itself for
/// weights, or captured activations (the paper's *initialization dataset*)
/// for activations.
///
/// # Panics
///
/// Panics if `samples` is empty or contains only empty tensors.
pub fn search_fp_format(samples: &[&Tensor], bits: u32, n_bias: usize) -> SearchResult {
    assert!(!samples.is_empty(), "format search needs at least one sample");
    let total: usize = samples.iter().map(|s| s.numel()).sum();
    assert!(total > 0, "format search needs non-empty samples");
    let max_abs = abs_max(samples);
    let mut candidates: Vec<FpFormat> = Vec::new();
    for enc in FpFormat::encodings_for_bits(bits) {
        for b in bias_candidates(&enc, max_abs, n_bias) {
            candidates.push(enc.rebias(b));
        }
    }
    let mut mses = vec![0.0f32; candidates.len()];
    parallel_rows_in(num_threads(), &mut mses, candidates.len(), 1, 8, |start, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            *slot = mse_of(samples, TensorQuantizer::Fp(candidates[start + i]));
        }
    });
    let best = mses
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("non-empty candidate set");
    SearchResult { quantizer: TensorQuantizer::Fp(candidates[best]), mse: mses[best] }
}

/// MSE-driven clipping search for the integer baseline: evaluates `n_clip`
/// shrink factors of the min/max range and keeps the argmin.
///
/// # Panics
///
/// Panics if `samples` is empty or contains only empty tensors.
pub fn search_int_format(samples: &[&Tensor], bits: u32, n_clip: usize) -> SearchResult {
    assert!(!samples.is_empty(), "format search needs at least one sample");
    let total: usize = samples.iter().map(|s| s.numel()).sum();
    assert!(total > 0, "format search needs non-empty samples");
    let lo = samples.iter().map(|s| s.min()).fold(f32::INFINITY, f32::min);
    let hi = samples.iter().map(|s| s.max()).fold(f32::NEG_INFINITY, f32::max);
    let n = n_clip.max(1);
    let candidates: Vec<IntFormat> = (1..=n)
        .map(|k| {
            let f = k as f32 / n as f32;
            IntFormat::from_range(bits, lo * f, hi * f)
        })
        .collect();
    let mut mses = vec![0.0f32; candidates.len()];
    parallel_rows_in(num_threads(), &mut mses, candidates.len(), 1, 8, |start, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            *slot = mse_of(samples, TensorQuantizer::Int(candidates[start + i]));
        }
    });
    let best = mses
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("non-empty candidate set");
    SearchResult { quantizer: TensorQuantizer::Int(candidates[best]), mse: mses[best] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn searched_fp8_beats_standard_bias_on_small_values() {
        // Data concentrated in [-0.1, 0.1]: the standard E4M3 range (±240)
        // wastes exponent range; a searched bias must do better.
        let mut rng = StdRng::seed_from_u64(0);
        let x = fpdq_tensor::Tensor::randn(&[4096], &mut rng).mul_scalar(0.03);
        let standard = TensorQuantizer::Fp(FpFormat::new(4, 3));
        let standard_mse = quantization_mse(&[&x], &standard);
        let found = search_fp_format(&[&x], 8, 41);
        assert!(
            found.mse < standard_mse * 0.5,
            "search {} ({:.3e}) should beat standard E4M3 ({standard_mse:.3e})",
            found.quantizer,
            found.mse
        );
    }

    #[test]
    fn search_picks_more_mantissa_for_narrow_distributions() {
        // A tight uniform distribution rewards precision over range: the
        // search should not pick E5M2 (2 mantissa bits).
        let mut rng = StdRng::seed_from_u64(1);
        let x = fpdq_tensor::Tensor::rand_uniform(&[4096], 0.5, 1.0, &mut rng);
        let found = search_fp_format(&[&x], 8, 41);
        let TensorQuantizer::Fp(f) = found.quantizer else { panic!("expected fp") };
        assert!(f.man_bits() >= 3, "picked {f} for a narrow distribution");
    }

    #[test]
    fn search_picks_more_exponent_for_heavy_tails() {
        // A long-tailed distribution rewards range: E2M5's tiny range
        // (max 2^(2^2 - 2 - 1)·~2 ≈ 4) should lose to wider-exponent
        // encodings once the tail matters.
        let mut rng = StdRng::seed_from_u64(2);
        let base = fpdq_tensor::Tensor::randn(&[4096], &mut rng);
        let x = base.map(|v| v.powi(3) * 10.0); // heavy tails
        let found = search_fp_format(&[&x], 8, 41);
        let TensorQuantizer::Fp(f) = found.quantizer else { panic!("expected fp") };
        assert!(f.exp_bits() >= 3, "picked {f} for a heavy-tailed distribution");
    }

    #[test]
    fn int4_clip_search_beats_naive_minmax_on_heavy_tails() {
        // At 4 bits, min/max calibration wastes most of the 16 levels on
        // the tails of a leptokurtic distribution; MSE clipping recovers.
        // (At 8 bits with a single extreme outlier, clipping the outlier
        // costs more than it saves — min/max is already near-optimal.)
        let mut rng = StdRng::seed_from_u64(3);
        let x =
            fpdq_tensor::Tensor::randn(&[4096], &mut rng).map(|z| z.abs().powf(1.5).copysign(z));
        let naive = TensorQuantizer::Int(IntFormat::fit(&x, 4));
        let naive_mse = quantization_mse(&[&x], &naive);
        let found = search_int_format(&[&x], 4, PAPER_BIAS_CANDIDATES);
        assert!(
            found.mse < naive_mse * 0.8,
            "clip search ({:.3e}) should beat naive min/max ({naive_mse:.3e})",
            found.mse
        );
    }

    #[test]
    fn fp4_search_beats_int4_on_laplacian_weights() {
        // The paper's core premise at 4 bits: FP's logarithmic grid fits
        // the heavy-tailed (Laplacian-like) weight distributions of real
        // networks better than a uniform grid — even against an
        // MSE-clipped INT baseline.
        let mut rng = StdRng::seed_from_u64(4);
        let x = fpdq_tensor::Tensor::rand_uniform(&[8192], 1e-6, 1.0, &mut rng)
            .zip_map(&fpdq_tensor::Tensor::rand_uniform(&[8192], -1.0, 1.0, &mut rng), |u, v| {
                -0.05 * u.ln() * v.signum()
            });
        let fp = search_fp_format(&[&x], 4, PAPER_BIAS_CANDIDATES);
        let int = search_int_format(&[&x], 4, PAPER_BIAS_CANDIDATES);
        assert!(
            fp.mse < int.mse,
            "FP4 ({:.3e}) should beat INT4 ({:.3e}) on Laplacian data",
            fp.mse,
            int.mse
        );
    }

    #[test]
    fn bias_candidates_cover_requested_count_and_are_finite() {
        let enc = FpFormat::new(4, 3);
        let biases = bias_candidates(&enc, 2.5, PAPER_BIAS_CANDIDATES);
        assert_eq!(biases.len(), PAPER_BIAS_CANDIDATES);
        assert!(biases.iter().all(|b| b.is_finite()));
        // The last candidate targets c = max_abs exactly.
        let last = enc.rebias(*biases.last().unwrap());
        assert!((last.max_value() - 2.5).abs() < 1e-3, "c = {}", last.max_value());
    }

    #[test]
    fn multiple_samples_are_pooled() {
        let a = fpdq_tensor::Tensor::full(&[64], 0.01);
        let b = fpdq_tensor::Tensor::full(&[64], 0.02);
        let r = search_fp_format(&[&a, &b], 8, 21);
        // Perfectly representable two-point distribution: near-zero MSE.
        assert!(r.mse < 1e-8, "mse {}", r.mse);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_panic() {
        search_fp_format(&[], 8, 11);
    }
}
