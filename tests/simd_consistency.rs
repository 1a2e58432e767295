//! Differential SIMD-vs-scalar suite: every runtime-dispatched kernel
//! path (AVX2 on x86-64, NEON on aarch64) must be **bit-identical** to
//! the scalar reference — the contract that makes shipping explicit SIMD
//! kernels safe (`fpdq_tensor::simd` documents it).
//!
//! Each test sweeps `fpdq::tensor::simd::available()`, so on a machine
//! without wide instructions the comparisons degenerate to
//! scalar-vs-scalar (and still run), while on AVX2/NEON hardware both
//! sides of every dispatch are exercised in one process. The
//! `FPDQ_FORCE_SCALAR=1` environment override is covered process-wide by
//! the dedicated CI job that re-runs the entire workspace suite under it:
//! together with these in-process sweeps, outputs are pinned across
//! `FPDQ_FORCE_SCALAR=0/1`, across ISAs, and across thread counts
//! (threaded dispatched kernels are compared against single-threaded
//! scalar schedules below).

mod common;

use common::{direct_act_quantizers, direct_shapes, panel_conv};
use fpdq::kernels::{conv2d_packed, gemm_packed, Exec, PackedTensor};
use fpdq::nn::group_norm_ref_as;
use fpdq::quant::{BoundaryQuantizer, FpFormat, IntFormat, PanelQuantizer, TensorQuantizer};
use fpdq::tensor::conv::Conv2dSpec;
use fpdq::tensor::matmul::{
    gemm_nt_panel_as, gemm_nt_serial_as, gemm_serial, gemm_serial_as, pack_nt_panel, NT_NR,
};
use fpdq::tensor::simd::{self, Isa};
use fpdq::tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Asserts two tensors are bit-identical (NaNs included).
fn assert_bits_eq(got: &Tensor, want: &Tensor, ctx: &str) {
    assert_eq!(got.dims(), want.dims(), "{ctx}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx} elem {i}: {g} vs {w} not bit-identical");
    }
}

/// Random tensor with NaN/±∞ planted at fixed positions (when it is big
/// enough), so the non-finite paths of every kernel are exercised.
fn tensor_with_specials(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vals: Vec<f32> = Tensor::randn(dims, &mut rng).mul_scalar(2.5).data().to_vec();
    let n = vals.len();
    if n >= 4 {
        vals[n / 4] = f32::NAN;
        vals[n / 2] = f32::INFINITY;
        vals[3 * n / 4] = f32::NEG_INFINITY;
    }
    Tensor::from_vec(vals, dims)
}

/// Activation quantizers covering FP4/FP8/INT4/INT8. Fixed INT ranges
/// (not `fit`): fitting a range to NaN/∞-containing calibration data
/// yields a degenerate quantizer (infinite scale), and a *well-formed*
/// quantizer is what maps the non-finite activations to finite values
/// before they reach the accumulating kernel.
fn act_quantizers() -> Vec<TensorQuantizer> {
    vec![
        TensorQuantizer::Fp(FpFormat::new(4, 3)),
        TensorQuantizer::Fp(FpFormat::new(2, 1)),
        TensorQuantizer::Int(IntFormat::from_range(8, -3.0, 3.0)),
        TensorQuantizer::Int(IntFormat::from_range(4, -2.0, 2.0)),
    ]
}

/// The default (threaded) worker count on an explicit ISA path.
fn on(isa: Isa) -> Exec {
    Exec { isa, ..Exec::default() }
}

/// Bit views for slice comparisons that must treat NaNs as values.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// [`bits`] with every NaN mapped to one pattern, for kernels whose adds
/// can meet two NaNs at once: which payload survives such an add is the
/// compiler's choice (Rust leaves it unspecified), and the scalar
/// reference's own choice moves with its codegen. Every other bit must
/// match, and NaN must stay NaN.
fn bits_nan_as_one(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() })
        .collect()
}

// ---------------------------------------------------------------------------
// Dense NT kernel
// ---------------------------------------------------------------------------

#[test]
fn threaded_matmul_nt_matches_serial_scalar_reference() {
    // The dispatched, threaded matmul_nt against a single-threaded scalar
    // panel sweep: pins bit-identity across ISA × thread schedule at
    // once. Every row count runs the one NT GEMM, m < 4 (one partial
    // register block) included.
    for (m, n, k) in [
        (1usize, 8usize, 16usize),
        (2, 13, 31),
        (3, 17, 40),
        (4, 8, 16),
        (5, 3, 7),
        (9, 13, 31),
        (32, 17, 40),
        (6, 8, 1),
    ] {
        let a = tensor_with_specials(&[m, k], (m * 37 + n) as u64);
        let b = tensor_with_specials(&[n, k], (k * 53 + m) as u64);
        let fast = a.matmul_nt(&b);
        let mut want = vec![0.0f32; m * n];
        gemm_nt_serial_as(Isa::Scalar, a.data(), b.data(), &mut want, m, k, n);
        // NaNs compare as NaN: see `bits_nan_as_one`.
        assert_eq!(bits_nan_as_one(fast.data()), bits_nan_as_one(&want), "({m},{n},{k})");
    }
}

#[test]
fn nt_panel_isa_sweep_with_non_finite_inputs() {
    // The raw micro-kernel on every supported ISA, off-tile shapes
    // (m = 1, k < 8, n not a multiple of 8) and NaN/∞ operands included.
    // The SIMD paths keep the scalar path's operand order on every
    // multiply and add, but an add of two NaNs may return either payload
    // (see `bits_nan_as_one`): NaN lanes must line up, every other lane
    // is bit-exact.
    for (m, n, k) in [(1usize, 1usize, 1usize), (1, 9, 3), (4, 8, 5), (7, 11, 2), (5, 8, 24)] {
        let a = tensor_with_specials(&[m, k], (m * 3 + k) as u64);
        let b = tensor_with_specials(&[n, k], (n * 5 + k) as u64);
        let mut bp = vec![0.0f32; k * NT_NR];
        let mut want = vec![0.0f32; m * n];
        let mut j0 = 0;
        while j0 < n {
            let nw = NT_NR.min(n - j0);
            pack_nt_panel(&b.data()[j0 * k..(j0 + nw) * k], k, nw, &mut bp);
            gemm_nt_panel_as(Isa::Scalar, a.data(), &bp, &mut want, m, k, n, j0, nw);
            j0 += nw;
        }
        for &isa in simd::available() {
            let mut got = vec![0.0f32; m * n];
            gemm_nt_serial_as(isa, a.data(), b.data(), &mut got, m, k, n);
            assert_eq!(bits_nan_as_one(&got), bits_nan_as_one(&want), "{isa:?} ({m},{n},{k})");
        }
    }
}

// ---------------------------------------------------------------------------
// Packed decode
// ---------------------------------------------------------------------------

#[test]
fn packed_decode_isa_sweep_all_formats() {
    // FP8 exercises the AVX2 gather path, FP4/INT4 the nibble-shuffle
    // path (odd starts enter and leave mid-byte), INT8 the gather path
    // over the affine LUT.
    let x = tensor_with_specials(&[83], 7);
    let fp8 = PackedTensor::encode(&x, FpFormat::new(4, 3));
    let fp4 = PackedTensor::encode(&x, FpFormat::new(2, 1));
    let int8 = PackedTensor::encode(&x, IntFormat::from_range(8, -3.0, 3.0));
    let int4 = PackedTensor::encode(&x, IntFormat::from_range(4, -2.0, 2.0));
    for (start, len) in [(0usize, 83usize), (1, 82), (1, 16), (2, 17), (9, 40), (82, 1), (3, 0)] {
        let mut want = vec![0.0f32; len];
        let mut got = vec![f32::NAN; len];
        for &isa in simd::available() {
            fp8.decode_range_into_as(Isa::Scalar, start, &mut want);
            fp8.decode_range_into_as(isa, start, &mut got);
            assert_eq!(bits(&got), bits(&want), "fp8 {isa:?} start={start} len={len}");
            fp4.decode_range_into_as(Isa::Scalar, start, &mut want);
            fp4.decode_range_into_as(isa, start, &mut got);
            assert_eq!(bits(&got), bits(&want), "fp4 {isa:?} start={start} len={len}");
            int8.decode_range_into_as(Isa::Scalar, start, &mut want);
            int8.decode_range_into_as(isa, start, &mut got);
            assert_eq!(bits(&got), bits(&want), "int8 {isa:?} start={start} len={len}");
            int4.decode_range_into_as(Isa::Scalar, start, &mut want);
            int4.decode_range_into_as(isa, start, &mut got);
            assert_eq!(bits(&got), bits(&want), "int4 {isa:?} start={start} len={len}");
        }
    }
}

// ---------------------------------------------------------------------------
// Boundary-table activation quantizer
// ---------------------------------------------------------------------------

#[test]
fn boundary_quantizer_isa_sweep_on_adversarial_values() {
    // Probe exactly where the folded magnitude lookup can go wrong: on
    // and one ULP around every representable value, plus non-finite,
    // signed-zero and subnormal inputs. The reference is the plain table bisection
    // (`quantize_scalar`), independent of the slice path on every ISA.
    let largest_subnormal = f32::from_bits(0x007F_FFFF);
    for q in [
        TensorQuantizer::Fp(FpFormat::new(4, 3)),
        TensorQuantizer::Fp(FpFormat::new(2, 1)),
        TensorQuantizer::Fp(FpFormat::with_bias(3, 4, 6.5)),
    ] {
        let bq = BoundaryQuantizer::cached(&q);
        let mut probes = vec![
            0.0f32,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 2.0,
            largest_subnormal,
            -largest_subnormal,
            f32::MAX,
            -f32::MAX,
        ];
        for pair in bq.values().windows(2) {
            let mid = ((f64::from(pair[0]) + f64::from(pair[1])) * 0.5) as f32;
            for v in [pair[0], pair[1], mid] {
                probes.push(v);
                probes.push(f32::from_bits(v.to_bits().wrapping_add(1)));
                probes.push(f32::from_bits(v.to_bits().wrapping_sub(1)));
            }
        }
        let want: Vec<f32> = probes.iter().map(|&v| bq.quantize_scalar(v)).collect();
        for &isa in simd::available() {
            // Every length up to two 8-lane blocks and a tail, at every
            // offset, then the whole probe set in one call.
            for len in 0..=17usize {
                for start in 0..probes.len().saturating_sub(len) {
                    let mut got = vec![0.0f32; len];
                    bq.quantize_slice_into_as(isa, &probes[start..start + len], &mut got);
                    for (i, (g, w)) in got.iter().zip(&want[start..]).enumerate() {
                        let p = probes[start + i];
                        assert_eq!(g.to_bits(), w.to_bits(), "{q} {isa:?} len {len} probe {p}");
                    }
                }
            }
            let mut got = vec![0.0f32; probes.len()];
            bq.quantize_slice_into_as(isa, &probes, &mut got);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{q} {isa:?} probe {}: {g} vs {w}", probes[i]);
            }
        }
    }
}

#[test]
#[ignore = "all 2^32 inputs for three tables: a few minutes in release"]
fn boundary_quantizer_matches_the_table_on_every_bit_pattern() {
    // The proof of the folded slice path: every f32 bit pattern, NaN
    // payloads included, on every ISA, against the plain bisection of the
    // signed table, for a searched-bias E2M5 (as containers ship), E4M3
    // and E2M1. Blocks split into contiguous ranges over at most
    // `available_parallelism()` threads; each block's reference is
    // computed once and checked on every ISA.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(64) as u64;
    let span = (1u64 << 32).div_ceil(threads);
    for fmt in [FpFormat::with_bias(2, 5, 1.787_683), FpFormat::new(4, 3), FpFormat::new(2, 1)] {
        let bq = BoundaryQuantizer::from_fp(fmt);
        let bq = &bq;
        let bad: Vec<(Isa, u32)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let (lo, hi) = (t * span, ((t + 1) * span).min(1 << 32));
                        let mut bad = Vec::new();
                        let mut got = vec![0.0f32; 1 << 16];
                        for block in (lo..hi).step_by(1 << 16) {
                            let end = (block + (1 << 16)).min(hi);
                            let xs: Vec<f32> =
                                (block..end).map(|b| f32::from_bits(b as u32)).collect();
                            let want: Vec<u32> =
                                xs.iter().map(|&x| bq.quantize_scalar(x).to_bits()).collect();
                            for &isa in simd::available() {
                                let got = &mut got[..xs.len()];
                                bq.quantize_slice_into_as(isa, &xs, got);
                                bad.extend(
                                    xs.iter()
                                        .zip(got.iter().zip(&want))
                                        .filter(|(_, (g, w))| g.to_bits() != **w)
                                        .map(|(x, _)| (isa, x.to_bits())),
                                );
                            }
                        }
                        bad
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
        });
        let first: Vec<String> =
            bad.iter().take(8).map(|(isa, b)| format!("{isa:?} {b:#010x}")).collect();
        assert!(bad.is_empty(), "{fmt}: {} mismatches, first {first:?}", bad.len());
    }
}

// ---------------------------------------------------------------------------
// Fused W+A GEMM and conv
// ---------------------------------------------------------------------------

#[test]
fn fused_wa_gemm_isa_sweep_per_tensor() {
    // The full fused weight+activation GEMM (decode + boundary-table
    // quantization + NT kernel, threaded) across FP4/FP8/INT4/INT8
    // weights and activations, NaN/∞ activations included, on off-tile
    // shapes.
    for (m, n, k) in [(1usize, 5usize, 3usize), (4, 8, 16), (33, 19, 40), (6, 7, 5)] {
        let a = tensor_with_specials(&[m, k], (m + n * 17) as u64);
        let w = Tensor::randn(&[n, k], &mut StdRng::seed_from_u64((k + m) as u64));
        let wfp8 = PackedTensor::encode(&w, FpFormat::new(4, 3));
        let wfp4 = PackedTensor::encode(&w, FpFormat::new(2, 1));
        let wint8 = PackedTensor::encode(&w, IntFormat::fit(&w, 8));
        let wint4 = PackedTensor::encode(&w, IntFormat::fit(&w, 4));
        for act in act_quantizers() {
            let pq = PanelQuantizer::per_tensor(&act);
            for &isa in simd::available() {
                let ctx = format!("({m},{n},{k}) act {act} {isa:?}");
                let want = gemm_packed(&a, &wfp8, Some(&pq), on(Isa::Scalar));
                assert_bits_eq(&gemm_packed(&a, &wfp8, Some(&pq), on(isa)), &want, &ctx);
                let want = gemm_packed(&a, &wfp4, Some(&pq), on(Isa::Scalar));
                assert_bits_eq(&gemm_packed(&a, &wfp4, Some(&pq), on(isa)), &want, &ctx);
                let want = gemm_packed(&a, &wint8, Some(&pq), on(Isa::Scalar));
                assert_bits_eq(&gemm_packed(&a, &wint8, Some(&pq), on(isa)), &want, &ctx);
                let want = gemm_packed(&a, &wint4, Some(&pq), on(Isa::Scalar));
                assert_bits_eq(&gemm_packed(&a, &wint4, Some(&pq), on(isa)), &want, &ctx);
            }
        }
    }
}

#[test]
fn fused_wa_gemm_isa_sweep_per_channel() {
    let (m, k, n) = (9usize, 6usize, 8usize);
    let a = tensor_with_specials(&[m, k], 23);
    let w = Tensor::randn(&[n, k], &mut StdRng::seed_from_u64(24));
    let packed = PackedTensor::encode(&w, FpFormat::new(4, 3));
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
    let want = gemm_packed(&a, &packed, Some(&pq), on(Isa::Scalar));
    for &isa in simd::available() {
        let got = gemm_packed(&a, &packed, Some(&pq), on(isa));
        assert_bits_eq(&got, &want, &format!("per-channel {isa:?}"));
    }
}

#[test]
fn threaded_fused_gemm_matches_serial_scalar_schedule() {
    // Thread count × ISA at once: the threaded dispatched fused kernel
    // against a hand-rolled single-tile-at-a-time schedule built entirely
    // from explicitly-scalar pieces (prequantized activations, scalar
    // row decode, scalar panel kernel).
    let (m, n, k) = (37usize, 29usize, 48usize);
    let a = tensor_with_specials(&[m, k], 31);
    let w = Tensor::randn(&[n, k], &mut StdRng::seed_from_u64(32));
    let act = TensorQuantizer::Fp(FpFormat::new(4, 3));
    let packed = PackedTensor::encode(&w, FpFormat::new(2, 1));
    let pq = PanelQuantizer::per_tensor(&act);
    let threaded = gemm_packed(&a, &packed, Some(&pq), on(simd::active()));
    let reference = {
        let mut aq = vec![0.0f32; m * k];
        BoundaryQuantizer::cached(&act).quantize_slice_into_as(Isa::Scalar, a.data(), &mut aq);
        let mut bp = vec![0.0f32; k * NT_NR];
        let mut wrow = vec![0.0f32; k];
        let mut out = vec![0.0f32; n * m];
        for j0 in (0..m).step_by(NT_NR) {
            let nw = NT_NR.min(m - j0);
            pack_nt_panel(&aq[j0 * k..(j0 + nw) * k], k, nw, &mut bp);
            for r in 0..n {
                packed.decode_range_into_as(Isa::Scalar, r * k, &mut wrow);
                let mut crow = vec![0.0f32; m];
                crow.copy_from_slice(&out[r * m..(r + 1) * m]);
                gemm_nt_panel_as(Isa::Scalar, &wrow, &bp, &mut crow, 1, k, m, j0, nw);
                out[r * m..(r + 1) * m].copy_from_slice(&crow);
            }
        }
        Tensor::from_vec(out, &[n, m]).transpose()
    };
    assert_bits_eq(&threaded, &reference, "threaded dispatched vs serial scalar");
}

#[test]
fn fused_wa_conv_isa_sweep() {
    let x = tensor_with_specials(&[2, 3, 7, 7], 41);
    let w = Tensor::randn(&[5, 3, 3, 3], &mut StdRng::seed_from_u64(42));
    let b = Tensor::randn(&[5], &mut StdRng::seed_from_u64(43));
    let spec = Conv2dSpec::new(1, 1);
    let wfp8 = PackedTensor::encode(&w, FpFormat::new(4, 3));
    let wfp4 = PackedTensor::encode(&w, FpFormat::new(2, 1));
    let wint8 = PackedTensor::encode(&w, IntFormat::fit(&w, 8));
    let wint4 = PackedTensor::encode(&w, IntFormat::fit(&w, 4));
    for act in act_quantizers() {
        let pq = PanelQuantizer::per_tensor(&act);
        for &isa in simd::available() {
            let ctx = format!("conv act {act} {isa:?}");
            let want = conv2d_packed(&x, &wfp8, Some(&b), spec, Some(&pq), on(Isa::Scalar));
            let got = conv2d_packed(&x, &wfp8, Some(&b), spec, Some(&pq), on(isa));
            assert_bits_eq(&got, &want, &ctx);
            let want = conv2d_packed(&x, &wfp4, None, spec, Some(&pq), on(Isa::Scalar));
            let got = conv2d_packed(&x, &wfp4, None, spec, Some(&pq), on(isa));
            assert_bits_eq(&got, &want, &ctx);
            let want = conv2d_packed(&x, &wint8, Some(&b), spec, Some(&pq), on(Isa::Scalar));
            let got = conv2d_packed(&x, &wint8, Some(&b), spec, Some(&pq), on(isa));
            assert_bits_eq(&got, &want, &ctx);
            let want = conv2d_packed(&x, &wint4, None, spec, Some(&pq), on(Isa::Scalar));
            let got = conv2d_packed(&x, &wint4, None, spec, Some(&pq), on(isa));
            assert_bits_eq(&got, &want, &ctx);
        }
    }
}

#[test]
fn fused_wa_conv_isa_sweep_per_channel() {
    let (c, h, w_) = (3usize, 6usize, 6usize);
    let x = tensor_with_specials(&[1, c, h, w_], 51);
    let w = Tensor::randn(&[4, c, 3, 3], &mut StdRng::seed_from_u64(52));
    let spec = Conv2dSpec::new(1, 1);
    let packed = PackedTensor::encode(&w, FpFormat::new(4, 3));
    let formats: Vec<TensorQuantizer> = (0..c)
        .map(|ci| TensorQuantizer::Fp(FpFormat::with_bias(4, 3, 7.0 + ci as f32)))
        .collect();
    let pq = PanelQuantizer::per_channel(&formats);
    let want = conv2d_packed(&x, &packed, None, spec, Some(&pq), on(Isa::Scalar));
    for &isa in simd::available() {
        let got = conv2d_packed(&x, &packed, None, spec, Some(&pq), on(isa));
        assert_bits_eq(&got, &want, &format!("per-channel conv {isa:?}"));
    }
}

#[test]
fn fused_wa_conv_split_sweep() {
    // The skip-connection split fused into the conv must equal the layer
    // tap's `concat(trunk(x[:, ..at]), skip(x[:, at..]))` followed by the
    // unfused conv, bit for bit, for every FP4/FP8/INT4/INT8 trunk/skip
    // pair, split channel, ISA and worker count. From `at = c` on there
    // is no skip half and the trunk format applies per tensor.
    let (n, c, hw) = (2usize, 6usize, 5usize);
    let x = tensor_with_specials(&[n, c, hw, hw], 61);
    let w = Tensor::randn(&[5, c, 3, 3], &mut StdRng::seed_from_u64(62));
    let b = Tensor::randn(&[5], &mut StdRng::seed_from_u64(63));
    let spec = Conv2dSpec::new(1, 1);
    let packed = PackedTensor::encode(&w, FpFormat::new(4, 3));
    for trunk in act_quantizers() {
        for skip in act_quantizers() {
            for at in [1, c / 2, c - 1, c, c + 3] {
                let tapped = if at < c {
                    let halves = [
                        trunk.quantize(&x.narrow(1, 0, at)),
                        skip.quantize(&x.narrow(1, at, c - at)),
                    ];
                    Tensor::concat(&[&halves[0], &halves[1]], 1)
                } else {
                    trunk.quantize(&x)
                };
                let want = conv2d_packed(
                    &tapped,
                    &packed,
                    Some(&b),
                    spec,
                    None,
                    Exec::new(Isa::Scalar, 1),
                );
                let pq = PanelQuantizer::split(&trunk, &skip, at, c);
                for &isa in simd::available() {
                    for workers in [1, 2, 8] {
                        let exec = Exec::new(isa, workers);
                        let got = conv2d_packed(&x, &packed, Some(&b), spec, Some(&pq), exec);
                        let ctx = format!("trunk {trunk} skip {skip} at {at} {isa:?} x{workers}");
                        assert_bits_eq(&got, &want, &ctx);
                    }
                }
            }
        }
    }
}

#[test]
fn direct_conv_matches_the_panel_path_on_every_isa() {
    // Stride-1 convs whose 8-pixel tiles are whole panels run the direct
    // path, which reads the staged image in place. Against the panel
    // path rebuilt from its public pieces (scalar, one thread) they must
    // agree bit for bit on every ISA, for every quantizer, with and
    // without bias, with NaN and ±∞ in the input (NaN outputs compare as
    // NaN: see `bits_nan_as_one`).
    for (k, spec, hw) in direct_shapes() {
        for c in [1usize, 3, 8, 24] {
            for o in [1usize, 3, 4, 8, 12, 16] {
                let seed = (k * 1000 + hw * 100 + c * 10 + o) as u64;
                let x = tensor_with_specials(&[2, c, hw, hw], seed);
                let w = Tensor::randn(&[o, c, k, k], &mut StdRng::seed_from_u64(seed + 1));
                let b = Tensor::randn(&[o], &mut StdRng::seed_from_u64(seed + 2));
                let packed = PackedTensor::encode(&w, FpFormat::new(2, 1));
                for act in direct_act_quantizers(c) {
                    for bias in [None, Some(&b)] {
                        let want = panel_conv(&x, &packed, bias, spec, act.as_ref());
                        for &isa in simd::available() {
                            let exec = Exec::new(isa, 1);
                            let got = conv2d_packed(&x, &packed, bias, spec, act.as_ref(), exec);
                            let ctx = format!(
                                "{k}x{k} {hw}x{hw} c {c} o {o} act {} bias {} {isa:?}",
                                act.as_ref().map_or(0, |q| q.channels()),
                                bias.is_some()
                            );
                            let (g, w) = (got.data(), want.data());
                            assert_eq!(bits_nan_as_one(g), bits_nan_as_one(w), "{ctx}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn dense_and_packed_entry_points_agree_on_the_decoded_weights() {
    // `Tensor::conv2d`/`matmul_nt` and `conv2d_packed`/`gemm_packed` are
    // entry points of one engine each: on the packed weight's own decoded
    // values they must return the same bits, on the direct path (the
    // direct shapes), the panel path (stride 2, and a 6-wide output) and
    // at every GEMM row count, with NaN and ±∞ in the input (NaN outputs
    // compare as NaN: see `bits_nan_as_one`).
    let mut convs = direct_shapes();
    convs.push((3, Conv2dSpec::new(2, 1), 8));
    convs.push((3, Conv2dSpec::new(1, 1), 6));
    for (k, spec, hw) in convs {
        let seed = (k * 100 + hw * 10 + spec.stride) as u64;
        let x = tensor_with_specials(&[2, 3, hw, hw], seed);
        let w = Tensor::randn(&[12, 3, k, k], &mut StdRng::seed_from_u64(seed + 1));
        let b = Tensor::randn(&[12], &mut StdRng::seed_from_u64(seed + 2));
        let p = PackedTensor::encode(&w, FpFormat::new(2, 1));
        for bias in [None, Some(&b)] {
            let dense = x.conv2d(&p.decode(), bias, spec);
            let packed = conv2d_packed(&x, &p, bias, spec, None, Exec::default());
            let ctx = format!("{k}x{k} {hw}x{hw} stride {} bias {}", spec.stride, bias.is_some());
            assert_eq!(dense.dims(), packed.dims(), "{ctx}");
            assert_eq!(bits_nan_as_one(dense.data()), bits_nan_as_one(packed.data()), "{ctx}");
        }
    }
    for m in [1usize, 3, 4, 9, 40] {
        let a = tensor_with_specials(&[m, 24], m as u64);
        let w = Tensor::randn(&[19, 24], &mut StdRng::seed_from_u64(m as u64 + 1));
        let p = PackedTensor::encode(&w, FpFormat::new(4, 3));
        let dense = a.matmul_nt(&p.decode());
        let packed = gemm_packed(&a, &p, None, Exec::default());
        assert_eq!(dense.dims(), packed.dims(), "m {m}");
        assert_eq!(bits_nan_as_one(dense.data()), bits_nan_as_one(packed.data()), "m {m}");
    }
}

// ---------------------------------------------------------------------------
// The vector exp and the full-precision ops built on it
// ---------------------------------------------------------------------------

/// Bit patterns where an `expf` port goes wrong first: signed zeros and
/// the denormal extremes, ±∞, quiet and signalling NaNs with payloads,
/// both sides of the overflow (`0x42b17217`/`…18`) and underflow
/// (`0xc2cff1b4`/`…b5`) thresholds and of `|x| = 88`, where lanes leave
/// the vector path, and the two inputs on which the same algorithm
/// without fused multiply-adds rounds differently (`0x4202422f`,
/// `0xc27c65d9`).
#[rustfmt::skip]
const EXP_EDGE_BITS: [u32; 24] = [
    0x0000_0000, 0x8000_0000, 0x0000_0001, 0x8000_0001, 0x007f_ffff, 0x807f_ffff, // ±0, denormals
    0x7f80_0000, 0xff80_0000, 0x7fc0_0000, 0xffc0_1234, 0x7fa0_0001, 0xff80_0abc, // ±∞, NaNs
    0x42b1_7217, 0x42b1_7218, 0xc2cf_f1b4, 0xc2cf_f1b5, // overflow, underflow
    0x42af_ffff, 0x42b0_0000, 0xc2af_ffff, 0xc2b0_0000, // |x| = 88
    0x4202_422f, 0xc27c_65d9, 0x3f80_0000, 0xbf80_0000, // FMA witnesses, ±1
];

/// Runs `exp_inplace_as` on `bits` (as `f32`s) on `isa` and returns the
/// inputs whose output bits differ from `f32::exp`'s.
fn exp_mismatches(isa: Isa, bits: impl Iterator<Item = u32>) -> Vec<u32> {
    let xs: Vec<f32> = bits.map(f32::from_bits).collect();
    let mut ys = xs.clone();
    simd::exp_inplace_as(isa, &mut ys);
    xs.iter()
        .zip(&ys)
        .filter(|(x, y)| x.exp().to_bits() != y.to_bits())
        .map(|(x, _)| x.to_bits())
        .collect()
}

#[test]
fn exp_matches_libm_bitwise_on_every_isa() {
    // Every 65,537th bit pattern (65,537 inputs spread over all
    // exponents and both signs) plus the edge cases, at every offset of
    // an 8-lane block and in every tail length.
    let sweep = (0..=u32::MAX / 65_537).map(|i| i * 65_537);
    for &isa in simd::available() {
        assert_eq!(exp_mismatches(isa, sweep.clone()), Vec::<u32>::new(), "{isa:?} sweep");
        for pad in 0..8 {
            let padded = (0..pad).map(|i| 0x3e00_0000 + i).chain(EXP_EDGE_BITS);
            assert_eq!(exp_mismatches(isa, padded), Vec::<u32>::new(), "{isa:?} pad {pad}");
        }
        for len in 0..=EXP_EDGE_BITS.len() {
            let head = EXP_EDGE_BITS[..len].iter().copied();
            assert_eq!(exp_mismatches(isa, head), Vec::<u32>::new(), "{isa:?} len {len}");
        }
    }
}

#[test]
#[ignore = "all 2^32 inputs: about a minute in release"]
fn exp_matches_libm_on_every_bit_pattern() {
    // The proof of the port: every f32 bit pattern, NaN payloads
    // included, on every ISA, split into contiguous ranges over at most
    // `available_parallelism()` threads.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(64) as u64;
    let span = (1u64 << 32).div_ceil(threads);
    for &isa in simd::available() {
        let bad: Vec<u32> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let (lo, hi) = (t * span, ((t + 1) * span).min(1 << 32));
                        let mut bad = Vec::new();
                        for block in (lo..hi).step_by(1 << 16) {
                            let end = (block + (1 << 16)).min(hi);
                            bad.extend(exp_mismatches(isa, (block..end).map(|b| b as u32)));
                        }
                        bad
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
        });
        let first: Vec<String> = bad.iter().take(8).map(|b| format!("{b:#010x}")).collect();
        assert!(bad.is_empty(), "{isa:?}: {} mismatches, first {first:?}", bad.len());
    }
}

/// Row lengths around the 8-lane block: one lane, short and long tails,
/// exact blocks.
const ROW_LENS: [usize; 7] = [1, 3, 7, 8, 9, 16, 17];

#[test]
fn silu_and_sigmoid_isa_sweep_match_the_scalar_expressions() {
    // Against the scalar expressions themselves (`f32::exp` per element),
    // with NaN/±∞ planted and values past ±88 where lanes leave the
    // vector exp.
    for (i, &len) in ROW_LENS.iter().chain(&[64, 83]).enumerate() {
        let mut x = tensor_with_specials(&[2, len], 60 + i as u64).mul_scalar(12.0);
        x.data_mut()[0] = -0.0;
        let silu = x.map(|v| v / (1.0 + (-v).exp()));
        let sigmoid = x.map(|v| 1.0 / (1.0 + (-v).exp()));
        for &isa in simd::available() {
            assert_bits_eq(&x.silu_as(isa), &silu, &format!("{isa:?} silu len {len}"));
            assert_bits_eq(&x.sigmoid_as(isa), &sigmoid, &format!("{isa:?} sigmoid len {len}"));
        }
    }
}

/// The softmax row as it was written before the vector exp: max, then
/// `exp(v - max)` summed in element order, then the divide.
fn softmax_rows_scalar(x: &Tensor) -> Tensor {
    let inner = *x.dims().last().unwrap();
    let mut out = x.clone();
    for row in out.data_mut().chunks_exact_mut(inner.max(1)) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            denom += *v;
        }
        row.iter_mut().for_each(|v| *v /= denom);
    }
    out
}

#[test]
fn softmax_isa_sweep_matches_the_scalar_rows() {
    for (i, &len) in ROW_LENS.iter().enumerate() {
        // Rows of plain values, rows holding NaN/±∞, an all -∞ row and
        // one whose range spans past the vector exp's |x| < 88.
        let mut x = tensor_with_specials(&[5, len], 80 + i as u64).mul_scalar(4.0);
        x.data_mut()[..len].fill(f32::NEG_INFINITY);
        x.data_mut()[len] = 95.0;
        let want = softmax_rows_scalar(&x);
        for &isa in simd::available() {
            assert_bits_eq(&x.softmax_lastdim_as(isa), &want, &format!("{isa:?} len {len}"));
        }
    }
}

#[test]
fn gemm_serial_isa_sweep_keeps_the_zero_skips() {
    // `a`'s step 0 is zero in all four rows of the first block (the block
    // skips it), step 1 in three of them (no skip: 0·∞ reaches c), and
    // the last row is zero at step 2 (a remainder row skips on its own
    // zero); `b` holds ±∞ in exactly those rows, so a wrong skip shows as
    // a NaN (or a missing one). NaNs compare as NaN: see
    // `bits_nan_as_one`.
    for &n in &ROW_LENS {
        for m in [1usize, 3, 4, 5, 9] {
            for k in [3usize, 8, 17] {
                let mut a = tensor_with_specials(&[m, k], (m * 7 + k * 3 + n) as u64);
                let mut b = Tensor::randn(&[k, n], &mut StdRng::seed_from_u64(n as u64 + 5));
                for r in 0..m.min(4) {
                    a.set(&[r, 0], if r % 2 == 0 { 0.0 } else { -0.0 });
                    if r < 3 {
                        a.set(&[r, 1], 0.0);
                    }
                }
                a.set(&[m - 1, 2], 0.0);
                for j in 0..n {
                    b.set(&[0, j], f32::INFINITY);
                    b.set(&[1, j], f32::NEG_INFINITY);
                    b.set(&[2, j], if j % 2 == 0 { f32::INFINITY } else { f32::NAN });
                }
                let mut want = vec![0.0f32; m * n];
                gemm_serial(a.data(), b.data(), &mut want, m, k, n);
                for &isa in simd::available() {
                    let mut got = vec![0.0f32; m * n];
                    gemm_serial_as(isa, a.data(), b.data(), &mut got, m, k, n);
                    let what = format!("{isa:?} m {m} k {k} n {n}");
                    assert_eq!(bits_nan_as_one(&got), bits_nan_as_one(&want), "{what}");
                }
            }
        }
    }
}

#[test]
fn attention_core_isa_sweep_with_non_finite_operands() {
    // Head widths 1, 4 and 8, one key (m = 1) and key counts around the
    // 8-lane block, with NaN/±∞ in q, k and v.
    for dh in [1usize, 4, 8] {
        for (heads, n) in [(1usize, 5usize), (2, 9)] {
            for &m in &ROW_LENS {
                let d = heads * dh;
                let seed = (dh * 100 + heads * 10 + m) as u64;
                let q = tensor_with_specials(&[2, n, d], seed);
                let k = tensor_with_specials(&[2, m, d], seed + 1);
                let v = tensor_with_specials(&[2, m, d], seed + 2);
                let scale = 1.0 / (dh as f32).sqrt();
                let want = q.attention_as(Isa::Scalar, &k, &v, heads, scale);
                for &isa in simd::available() {
                    let got = q.attention_as(isa, &k, &v, heads, scale);
                    assert_bits_eq(&got, &want, &format!("{isa:?} dh {dh} heads {heads} m {m}"));
                }
            }
        }
    }
}

#[test]
fn group_norm_isa_sweep_with_non_finite_inputs() {
    // Planes of 1..17 pixels (tails of the 8-lane normalize pass), a
    // group holding NaN/±∞, and a NaN/∞ among the affine parameters
    // (where a NaN `β` meets a NaN normalized value: see
    // `bits_nan_as_one`).
    for (i, &hw) in ROW_LENS.iter().enumerate() {
        let x = tensor_with_specials(&[2, 4, 1, hw], 90 + i as u64);
        let mut gamma = Tensor::randn(&[4], &mut StdRng::seed_from_u64(7));
        let mut beta = Tensor::randn(&[4], &mut StdRng::seed_from_u64(8));
        gamma.set(&[3], f32::INFINITY);
        beta.set(&[2], f32::NAN);
        for groups in [1, 2, 4] {
            let want = group_norm_ref_as(Isa::Scalar, &x, &gamma, &beta, groups, 1e-5);
            for &isa in simd::available() {
                let got = group_norm_ref_as(isa, &x, &gamma, &beta, groups, 1e-5);
                let what = format!("{isa:?} hw {hw} groups {groups}");
                assert_eq!(bits_nan_as_one(got.data()), bits_nan_as_one(want.data()), "{what}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn gemm_nt_isa_bit_identity_property(
        seed in 0u64..500,
        m in 1usize..12,
        n in 1usize..20,
        k in 1usize..32,
    ) {
        let a = Tensor::randn(&[m, k], &mut StdRng::seed_from_u64(seed)).mul_scalar(3.0);
        let b = Tensor::randn(&[n, k], &mut StdRng::seed_from_u64(seed ^ 0xABCD));
        let mut want = vec![0.0f32; m * n];
        gemm_nt_serial_as(Isa::Scalar, a.data(), b.data(), &mut want, m, k, n);
        for &isa in simd::available() {
            let mut got = vec![0.0f32; m * n];
            gemm_nt_serial_as(isa, a.data(), b.data(), &mut got, m, k, n);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "{:?}: {} vs {}", isa, g, w);
            }
        }
    }

    #[test]
    fn packed_decode_isa_bit_identity_property(
        vals in prop::collection::vec(-80.0f32..80.0, 1..96),
        start_frac in 0.0f64..1.0,
        wpick in 0usize..4,
    ) {
        let x = Tensor::from_vec(vals.clone(), &[vals.len()]);
        let start = (start_frac * (vals.len() - 1) as f64) as usize;
        let len = vals.len() - start;
        let mut want = vec![0.0f32; len];
        let mut got = vec![0.0f32; len];
        let fmt: TensorQuantizer = match wpick {
            0 => FpFormat::new(4, 3).into(),
            1 => FpFormat::new(2, 1).into(),
            2 => IntFormat::fit(&x, 8).into(),
            _ => IntFormat::fit(&x, 4).into(),
        };
        let p = PackedTensor::encode(&x, fmt);
        for &isa in simd::available() {
            p.decode_range_into_as(Isa::Scalar, start, &mut want);
            p.decode_range_into_as(isa, start, &mut got);
            prop_assert_eq!(&got, &want, "{:?} wpick={} start={}", isa, wpick, start);
        }
    }

    #[test]
    fn fused_wa_gemm_isa_bit_identity_property(
        seed in 0u64..500,
        m in 1usize..16,
        n in 1usize..10,
        k in 1usize..20,
        wpick in 0usize..4,
        apick in 0usize..4,
    ) {
        let a = Tensor::randn(&[m, k], &mut StdRng::seed_from_u64(seed)).mul_scalar(3.0);
        let w = Tensor::randn(&[n, k], &mut StdRng::seed_from_u64(seed ^ 0x5EED));
        let act = match apick {
            0 => TensorQuantizer::Fp(FpFormat::new(4, 3)),
            1 => TensorQuantizer::Fp(FpFormat::new(2, 1)),
            2 => TensorQuantizer::Int(IntFormat::fit(&a, 8)),
            _ => TensorQuantizer::Int(IntFormat::fit(&a, 4)),
        };
        let pq = PanelQuantizer::per_tensor(&act);
        let wfmt: TensorQuantizer = match wpick {
            0 => FpFormat::new(4, 3).into(),
            1 => FpFormat::new(2, 1).into(),
            2 => IntFormat::fit(&w, 8).into(),
            _ => IntFormat::fit(&w, 4).into(),
        };
        let p = PackedTensor::encode(&w, wfmt);
        for &isa in simd::available() {
            let want = gemm_packed(&a, &p, Some(&pq), on(Isa::Scalar));
            let got = gemm_packed(&a, &p, Some(&pq), on(isa));
            for (g, wv) in got.data().iter().zip(want.data()) {
                prop_assert_eq!(g.to_bits(), wv.to_bits(), "{:?}: {} vs {}", isa, g, wv);
            }
        }
    }
}
