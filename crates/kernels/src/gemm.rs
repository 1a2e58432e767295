//! Dequantize-on-the-fly GEMM over packed weights, with the activation
//! quantizer fused into the tile loop.
//!
//! The execution pattern of weight-quantized inference on hardware without
//! native low-bit units: weights stream from memory in packed form (4-8×
//! less traffic than FP32) and are expanded to the accumulator type at the
//! register level. In the weight+activation configuration the activations
//! are quantized *inside* the tile loop through the boundary tables of
//! [`fpdq_core::BoundaryQuantizer`] — no whole-tensor fake-quant pass, no
//! `log2`/`powf` per element, no intermediate activation tensor — while
//! staying bit-exact against the simulated quantizers.
//!
//! The activations are `[.., k]`: every leading dim folds into the `m`
//! rows of a row-major `[m, k]` matrix, read in place; the output is
//! `[m, n]`.
//!
//! # Tile schedules
//!
//! Two regimes, picked per call by [`pick_gemm_regime`] from the worker
//! count and the actual `m`/`n` tile counts (see [`crate::schedule`]):
//!
//! * **Column-parallel** (activation-stationary; every one-worker call,
//!   and batched activations against narrow layers, where `⌈n/4⌉` grains
//!   would under-fill the workers). The packed weights are decoded once
//!   into a shared panel bank; workers split the *activation rows*,
//!   quantize their own rows in [`ACT_BLOCK`]-row scratch blocks (panel
//!   streaming), and sweep the weight panels — writing the `[m, n]`
//!   output in place, with no transpose. On one worker this always wins:
//!   the row-parallel transpose alone was a fifth of a 16×16×16 served
//!   linear.
//! * **Row-parallel** (weight-stationary; small activation matrices on
//!   several workers, where it keeps more of them busy). The activation
//!   rows are quantized + interleaved into shared `[k][NT_NR]` panels
//!   ([`pack_nt_panel`]) once, in parallel — the *fused epilogue*:
//!   quantization happens as the micro-panel is packed, via branch-free
//!   boundary-table bisection, and each activation row is quantized
//!   exactly once per call (not once per worker). Workers then split the
//!   weight rows on the register-block grid
//!   ([`parallel_rows_aligned_in`]), stream their packed rows
//!   `WTILE_ROWS` at a time through the LUT decoder — each weight tile
//!   decoded **once per call**, however many images the activation
//!   matrix stacks — and run the shared 4×8 NT micro-kernel
//!   ([`fpdq_tensor::matmul::gemm_nt_panel`]) tile × panel into an
//!   `[n, m]` block transposed once at the end.
//!
//! Panel banks, decode tiles and quantized blocks are per-thread scratch
//! reused across calls, so a one-worker call allocates only its output.
//!
//! Because the micro-kernel accumulates each output element in plain `k`
//! order in every path (and `a·w` multiplies commute bitwise), the result
//! is bit-identical however the tiles are scheduled — across regimes,
//! thread counts, and between the fused path and the reference
//! "fake-quantize the whole tensor first" path.
//!
//! The packed convolution ([`crate::conv`]) is *implicit GEMM* on the
//! same micro-kernel: it reads each tile's `[k][NT_NR]` operand in place
//! from the staged image, or lowers `im2col` micro-panels on the fly, so
//! every property of this module — once-per-call decode, fused
//! activation quant, SIMD dispatch, the bit-identity contract — carries
//! over to conv without a second implementation.

use crate::packed::PackedTensor;
use crate::schedule::{pick_gemm_regime, GemmRegime, ACT_BLOCK};
use fpdq_core::PanelQuantizer;
use fpdq_tensor::matmul::{gemm_nt_panel_as, pack_nt_panel, NT_MR, NT_NR};
use fpdq_tensor::parallel::{parallel_rows_aligned_in, parallel_rows_in, Exec};
use fpdq_tensor::scratch::{Scratch, ACTS, STAGED, WEIGHTS};
use fpdq_tensor::simd::Isa;
use fpdq_tensor::Tensor;

/// Packed weight rows decoded per scratch refill. Large enough to
/// amortise the decode across the register blocks, small enough to stay
/// cache-hot (8 rows × k floats).
const WTILE_ROWS: usize = 8;

/// `a [.., k] × wᵀ [n,k] → [m,n]` over packed weights — the one packed
/// GEMM entry point. The activations are read as `m = numel / k` rows of
/// a row-major `[m, k]` matrix in place (every leading dim folds into the
/// rows), so a `[b, l, d]` input needs no flattening copy. When a dim is
/// 0 the result is the all-zero `[m, n]` (an empty sum; the tile loops
/// would slice past the packed payload).
///
/// `act`, when set, quantizes the activations inside the tile loop (the
/// paper's weight+activation configuration): per tensor, or per channel
/// with `channels == k`, where column `j` quantizes through table `j`.
/// `exec` names the ISA path of the weight decode, the activation
/// quantization and the NT micro-kernel (see [`fpdq_tensor::simd`]), and
/// the worker count of both the regime decision ([`pick_gemm_regime`])
/// and the parallel split. Results are bit-identical for every `exec` —
/// the property `tests/simd_consistency.rs` and
/// `tests/batched_consistency.rs` pin.
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
    assert_eq!(w.dims().len(), 2, "weights must be [n, k]");
    let (n, k) = (w.dims()[0], w.dims()[1]);
    let (&ak, lead) = a.dims().split_last().expect("activations must be [.., k], got a scalar");
    assert_eq!(ak, k, "inner dims differ: {ak} vs {k}");
    if let Some(pq) = act {
        assert!(
            pq.channels() == 1 || pq.channels() == k,
            "per-channel activation quantizer has {} channels for k = {k}",
            pq.channels()
        );
    }
    let m = lead.iter().product();
    if m == 0 || n == 0 || k == 0 {
        return Tensor::zeros(&[m, n]);
    }
    let Exec { isa, workers } = exec;
    match pick_gemm_regime(m, n, workers) {
        GemmRegime::RowParallel => gemm_row_parallel(a.data(), m, w, act, isa, workers),
        GemmRegime::ColParallel => gemm_col_parallel(a.data(), m, w, act, isa, workers),
    }
}

/// Quantizes (when `act` is set) and interleaves activation rows
/// `[p0 .. p0 + chunk panels)` of `a` into `[k][NT_NR]` panels — the
/// row-parallel schedule's shared activation panel bank.
fn pack_act_panels(
    ad: &[f32],
    m: usize,
    k: usize,
    act: Option<&PanelQuantizer>,
    isa: Isa,
    p0: usize,
    chunk: &mut [f32],
) {
    let mut qrows = Scratch::take(&ACTS, if act.is_some() { NT_NR * k } else { 0 });
    for (pi, bp) in chunk.chunks_mut(k * NT_NR).enumerate() {
        let j0 = (p0 + pi) * NT_NR;
        let nw = NT_NR.min(m - j0);
        let src = &ad[j0 * k..(j0 + nw) * k];
        match act {
            Some(pq) => {
                // group = 1: the channel of element `i` within the
                // row-major block is `i % k`, i.e. its column.
                pq.quantize_panel_into_as(isa, src, &mut qrows[..nw * k], 1);
                pack_nt_panel(&qrows[..nw * k], k, nw, bp);
            }
            None => pack_nt_panel(src, k, nw, bp),
        }
    }
}

/// Weight-stationary schedule: shared pre-quantized activation panels,
/// workers split the packed weight rows and decode each of their tiles
/// exactly once per call, into an `[n, m]` block transposed at the end.
fn gemm_row_parallel(
    ad: &[f32],
    m: usize,
    w: &PackedTensor,
    act: Option<&PanelQuantizer>,
    isa: Isa,
    workers: usize,
) -> Tensor {
    let (n, k) = (w.dims()[0], w.dims()[1]);
    // Fused epilogue, hoisted: every activation row quantizes + packs
    // exactly once per call, in parallel, into the shared panel bank.
    let mpanels = m.div_ceil(NT_NR);
    let mut panels = Scratch::take(&WEIGHTS, mpanels * k * NT_NR);
    parallel_rows_in(workers, &mut panels, mpanels, k * NT_NR, 1, |p0, chunk| {
        pack_act_panels(ad, m, k, act, isa, p0, chunk);
    });
    let panels = &*panels;
    let mut out = vec![0.0f32; n * m];
    parallel_rows_aligned_in(workers, &mut out, n, m, 4, NT_MR, |row_start, chunk| {
        let rows = chunk.len() / m;
        // Per-worker decode scratch, reused across this worker's tiles.
        let mut wtile = Scratch::take(&ACTS, WTILE_ROWS * k);
        let mut wt = 0;
        while wt < rows {
            let wh = WTILE_ROWS.min(rows - wt);
            // Each weight tile decodes once per call — then streams
            // against every activation panel (the whole batch).
            w.decode_range_into_as(isa, (row_start + wt) * k, &mut wtile[..wh * k]);
            for p in 0..mpanels {
                let j0 = p * NT_NR;
                let nw = NT_NR.min(m - j0);
                gemm_nt_panel_as(
                    isa,
                    &wtile[..wh * k],
                    &panels[p * k * NT_NR..(p + 1) * k * NT_NR],
                    &mut chunk[wt * m..(wt + wh) * m],
                    wh,
                    k,
                    m,
                    j0,
                    nw,
                );
            }
            wt += wh;
        }
    });
    // `out` is laid out [n, m]; transpose to [m, n].
    Tensor::from_vec(out, &[n, m]).transpose()
}

/// Activation-stationary schedule: the packed weights decode once into a
/// shared panel bank, and workers split the activation rows — quantizing
/// their own rows in [`ACT_BLOCK`]-row blocks and writing the `[m, n]`
/// output in place, with no transpose.
///
/// Bit-identity with the row-parallel schedule: the micro-kernel
/// accumulates each output element in plain ascending-`k` order in both,
/// and swapping which operand rides the panel only swaps the factor
/// order of each IEEE multiply, which is bitwise commutative.
fn gemm_col_parallel(
    ad: &[f32],
    m: usize,
    w: &PackedTensor,
    act: Option<&PanelQuantizer>,
    isa: Isa,
    workers: usize,
) -> Tensor {
    let (n, k) = (w.dims()[0], w.dims()[1]);
    // Decode the packed weights exactly once per call, in parallel,
    // straight into the shared `[k][NT_NR]` panel bank: each worker
    // expands one panel's rows into a small row-major scratch and
    // interleaves from there, so the only weight-sized buffer is the
    // bank itself (~`n × k` floats).
    let wtiles = n.div_ceil(NT_NR);
    let mut wpanels = Scratch::take(&WEIGHTS, wtiles * k * NT_NR);
    parallel_rows_in(workers, &mut wpanels, wtiles, k * NT_NR, 1, |t0, chunk| {
        let mut wrows = Scratch::take(&STAGED, NT_NR * k);
        for (ti, bp) in chunk.chunks_mut(k * NT_NR).enumerate() {
            let j0 = (t0 + ti) * NT_NR;
            let nw = NT_NR.min(n - j0);
            w.decode_range_into_as(isa, j0 * k, &mut wrows[..nw * k]);
            pack_nt_panel(&wrows[..nw * k], k, nw, bp);
        }
    });
    let wpanels = &*wpanels;
    let mut out = vec![0.0f32; m * n];
    parallel_rows_aligned_in(workers, &mut out, m, n, 4, NT_MR, |m0, chunk| {
        let rows = chunk.len() / n;
        // Fused epilogue: this worker quantizes its own activation rows,
        // ACT_BLOCK at a time (bounded panel streaming), then sweeps the
        // shared weight panels.
        let mut qblock = Scratch::take(&ACTS, if act.is_some() { ACT_BLOCK * k } else { 0 });
        let mut mb = 0;
        while mb < rows {
            let mh = ACT_BLOCK.min(rows - mb);
            let src = &ad[(m0 + mb) * k..(m0 + mb + mh) * k];
            let arows = match act {
                Some(pq) => {
                    pq.quantize_panel_into_as(isa, src, &mut qblock[..mh * k], 1);
                    &qblock[..mh * k]
                }
                None => src,
            };
            let cblock = &mut chunk[mb * n..(mb + mh) * n];
            for t in 0..wtiles {
                let j0 = t * NT_NR;
                let nw = NT_NR.min(n - j0);
                gemm_nt_panel_as(
                    isa,
                    arows,
                    &wpanels[t * k * NT_NR..(t + 1) * k * NT_NR],
                    cblock,
                    mh,
                    k,
                    n,
                    j0,
                    nw,
                );
            }
            mb += mh;
        }
    });
    Tensor::from_vec(out, &[m, n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpdq_core::{FpFormat, IntFormat, TensorQuantizer};
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
