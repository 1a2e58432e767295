//! Implicit-GEMM 2-D convolution over packed weights — the conv face of
//! the packed panel engine, not a parallel implementation of it.
//!
//! The convolution is the GEMM `out[o, oh·ow] = filters[o, ckk] ·
//! colsᵀ[ckk, oh·ow]`, but the column matrix never exists: the shared NT
//! micro-kernel reads each 8-pixel tile's `[ckk][NT_NR]` operand either
//! straight from the staged image ([`fpdq_tensor::matmul::gemm_nt_direct_as`],
//! the direct path) or from an im2col micro-panel lowered on the fly
//! ([`fpdq_tensor::conv::im2col_panel_into`] +
//! [`fpdq_tensor::matmul::gemm_nt_panel_as`], the panel path). Conv
//! therefore inherits every GEMM win instead of duplicating it:
//!
//! * **AVX2/NEON dispatch** — the micro-kernels are the dispatched ones;
//!   the entry point's [`Exec`] threads the same `Isa` through decode,
//!   fused quantization and the micro-kernel.
//! * **Fused boundary-table activation quant** — each input image streams
//!   through [`fpdq_core::PanelQuantizer`]'s boundary tables (per-tensor,
//!   per-input-channel, or split trunk/skip) into per-thread scratch
//!   exactly once: no whole-tensor fake-quant pass, no `log2`/`powf`.
//! * **Shared once-per-call filter-bank decode** — the packed filter bank
//!   expands exactly once per call (in parallel, on the 8-row decode
//!   grid) into a read-only `[o, ckk]` bank swept by every worker, so at
//!   batch scale the weight-decode cost is amortised across every image
//!   of the step — the packed GEMM's batching property.
//! * **Regime scheduling** — [`pick_conv_regime`] costs both parallel
//!   decompositions in wall-clock tile units (see [`crate::schedule`]).
//!
//! # Schedule
//!
//! Each image is *staged* once, then swept by the micro-kernel:
//!
//! * **Direct path** — stride-1 convs whose 8-pixel tiles are one stretch
//!   of an output row (`ow` a multiple of 8) or two whole rows (`ow == 4`
//!   with an even `oh`): the 3×3/pad-1 and 1×1 convs of the served 8×8
//!   and 4×4 maps. Staging is one pass: the bordered operand is zeroed,
//!   and the fused quantizer writes each input row straight into its
//!   interior ([`fpdq_core::PanelQuantizer::quantize_planes_into_as`]),
//!   so the quantized image never exists unbordered (a 1×1 conv needs no
//!   border; its quantized input is read where it lies). Reduction index
//!   `k = (ci, ky, kx)` of the tile at `(oy, x0)` is then the 4-lane
//!   halves at `base + off[k]` and `base + off[k] + half`, with `half =
//!   4` on contiguous rows and the bordered row pitch when `ow == 4`. The
//!   tap offsets `off` and panel bases depend only on the shape, so they
//!   are built once per call (the first channel's taps, then a plane
//!   further on per channel) and shared by every image and worker.
//!   Nothing is lowered, and border lanes read `+0.0` exactly as masked
//!   panel lanes do.
//! * **Panel path** — every other conv (stride 2, other widths): the
//!   image is quantized once, then its im2col panels are lowered into
//!   scratch, in parallel over panel tiles, and swept by the panel
//!   kernel.
//!
//! The two regimes split that work across workers:
//!
//! * **Batch-parallel** (one worker, and large batches): each worker
//!   stages and sweeps its images one at a time in its own scratch.
//! * **Channel-parallel** (the batch-1 case on several workers, and
//!   mid-size batches whose grains would under-fill the batch split):
//!   images run in sequence; each is staged once, then the output-channel
//!   range splits across workers on the [`NT_MR`]-row register-block grid
//!   against the shared filter bank.
//!
//! Scratch (filter bank, bordered or quantized image, panels, tap
//! offsets) is per-thread and reused across calls, so a one-worker call
//! allocates only its output.
//!
//! Both micro-kernels accumulate every output element as `0.0 + Σ
//! w[k]·a[k]` in plain ascending-`k` order in every code path (no FMA,
//! same operand order — see [`fpdq_tensor::simd`]), and the bias is
//! added in a separate epilogue after the sweep. Path, row blocking,
//! panel order, worker count and ISA therefore cannot change a single
//! output bit: batch-N output for image `i` is bit-identical to the
//! batch-1 run on image `i` (pinned by `tests/batched_consistency.rs`),
//! and the fused activation quant is bit-exact with quantize-first
//! execution.

use crate::packed::PackedTensor;
use crate::schedule::{pick_conv_regime, ConvRegime};
use fpdq_core::{PanelQuantizer, Planes};
use fpdq_tensor::conv::{im2col_panel_into, Conv2dSpec};
use fpdq_tensor::matmul::{gemm_nt_direct_as, gemm_nt_panel_as, NT_MR, NT_NR};
use fpdq_tensor::parallel::{parallel_rows_aligned_in, parallel_rows_in, Exec};
use fpdq_tensor::scratch::{Scratch, ACTS, INDEX, STAGED, WEIGHTS};
use fpdq_tensor::simd::Isa;
use fpdq_tensor::Tensor;

/// 2-D convolution over packed weights — the one packed conv entry
/// point: input `[n, c, h, w]`, packed weight `[o, c, kh, kw]`, optional
/// bias `[o]`.
///
/// `act`, when set, quantizes the input inside the kernel (as the model
/// taps do): per tensor, or per input channel with `channels == c`, where
/// channel `ci` quantizes through table `ci`. `exec` names the ISA path of
/// the filter decode, the fused input quantization and the NT
/// micro-kernel (see [`fpdq_tensor::simd`]), and the worker count of both
/// the regime decision ([`pick_conv_regime`]) and the parallel splits.
/// Results are bit-identical for every `exec`.
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
    let Exec { isa, workers } = exec;
    assert_eq!(x.ndim(), 4, "input must be [n, c, h, w]");
    let wd = weight.dims();
    assert_eq!(wd.len(), 4, "packed weight must be [o, c, kh, kw]");
    let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let (o, wc, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    assert_eq!(c, wc, "channel mismatch: input {c}, weight {wc}");
    if let Some(b) = bias {
        assert_eq!(b.numel(), o, "bias must have {o} elements");
    }
    if let Some(pq) = act {
        assert!(
            pq.channels() == 1 || pq.channels() == c,
            "per-channel activation quantizer has {} channels for c = {c}",
            pq.channels()
        );
    }
    let geom =
        Geom { c, h, w, kh, kw, spec, oh: spec.out_extent(h, kh), ow: spec.out_extent(w, kw) };
    let (ckk, ohow) = (geom.ckk(), geom.ohow());
    let mut out = vec![0.0f32; n * o * ohow];
    let out_dims = [n, o, geom.oh, geom.ow];
    if n == 0 || o == 0 || ohow == 0 {
        return Tensor::from_vec(out, &out_dims);
    }
    if ckk == 0 {
        // Empty reduction (zero input channels or a zero-extent kernel):
        // every output pixel is the bare bias — same as the dense path.
        for obatch in out.chunks_mut(o * ohow) {
            add_bias(obatch, bias, ohow, 0);
        }
        return Tensor::from_vec(out, &out_dims);
    }
    // The packed filter bank expands exactly once per call — shared
    // read-only by every worker in both regimes, so the decode cost is
    // paid per step, not per image or per worker.
    let mut filters = Scratch::take(&WEIGHTS, o * ckk);
    parallel_rows_in(workers, &mut filters, o, ckk, 8, |r0, chunk| {
        weight.decode_range_into_as(isa, r0 * ckk, chunk);
    });
    let filters = &*filters;
    // The direct path's tap offsets and panel bases depend only on the
    // shape: built once per call, shared by every image and worker.
    let mut index =
        Scratch::take(&INDEX, if geom.direct() { ckk + ohow.div_ceil(NT_NR) } else { 0 });
    geom.index_into(&mut index);
    let index = &*index;
    let chw = c * h * w;
    let image = |b: usize| &x.data()[b * chw..(b + 1) * chw];
    match pick_conv_regime(n, o, workers) {
        ConvRegime::BatchParallel => {
            // Each worker stages its images one at a time into its own
            // scratch and sweeps the whole filter bank against them.
            parallel_rows_in(workers, &mut out, n, o * ohow, 1, |b0, chunk| {
                for (bi, obatch) in chunk.chunks_mut(o * ohow).enumerate() {
                    geom.stage(image(b0 + bi), act, isa, 1, index, |img| {
                        img.sweep(isa, filters, obatch, o);
                    });
                    add_bias(obatch, bias, ohow, 0);
                }
            });
        }
        ConvRegime::ChannelParallel => {
            // Images in sequence; each image is staged once, then the
            // output channels split across workers on the register-block
            // grid against the shared filter bank.
            for (b, obatch) in out.chunks_mut(o * ohow).enumerate() {
                geom.stage(image(b), act, isa, workers, index, |img| {
                    parallel_rows_aligned_in(workers, obatch, o, ohow, 1, NT_MR, |oc0, chunk| {
                        let rows = chunk.len() / ohow;
                        img.sweep(isa, &filters[oc0 * ckk..(oc0 + rows) * ckk], chunk, rows);
                        add_bias(chunk, bias, ohow, oc0);
                    });
                });
            }
        }
    }
    Tensor::from_vec(out, &out_dims)
}

/// The shape of one conv call.
struct Geom {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
}

impl Geom {
    fn ckk(&self) -> usize {
        self.c * self.kh * self.kw
    }

    fn ohow(&self) -> usize {
        self.oh * self.ow
    }

    /// Whether the direct path applies: stride 1, with every 8-pixel
    /// panel either one stretch of an output row (`ow` a multiple of 8)
    /// or two whole 4-pixel rows (`ow == 4`, even `oh`).
    fn direct(&self) -> bool {
        let fits =
            self.ow.is_multiple_of(NT_NR) || (self.ow == NT_NR / 2 && self.oh.is_multiple_of(2));
        self.spec.stride == 1 && fits
    }

    /// The layout of the direct path's operand: each `[h, w]` input plane
    /// inside a border of `padding` zeros.
    fn bordered(&self) -> Planes {
        Planes::bordered(self.h, self.w, self.spec.padding)
    }

    /// Fills the direct path's index (empty for the panel path): the
    /// offset of tap `(ci, ky, kx)` from its output pixel's top-left input
    /// corner in the bordered image, for every reduction index, then each
    /// 8-pixel panel's base.
    fn index_into(&self, index: &mut [usize]) {
        if index.is_empty() {
            return;
        }
        let Planes { pitch, plane, .. } = self.bordered();
        let (off, bases) = index.split_at_mut(self.ckk());
        let taps = self.kh * self.kw;
        let (first, rest) = off.split_at_mut(taps);
        for (ky, row) in first.chunks_exact_mut(self.kw).enumerate() {
            for (kx, slot) in row.iter_mut().enumerate() {
                *slot = ky * pitch + kx;
            }
        }
        // Every later channel repeats the first one's taps a plane on.
        for (ci, chan) in rest.chunks_exact_mut(taps).enumerate() {
            for (slot, &tap) in chan.iter_mut().zip(first.iter()) {
                *slot = tap + (ci + 1) * plane;
            }
        }
        for (t, slot) in bases.iter_mut().enumerate() {
            let j0 = t * NT_NR;
            *slot = (j0 / self.ow) * pitch + j0 % self.ow;
        }
    }

    /// Stages one `[c, h, w]` image for the micro-kernel and runs `f` on
    /// it. The direct path writes the input, through the fused quantizer
    /// when `act` is set, straight into the interior of its zero-bordered
    /// operand (a 1×1 conv needs no border and reads the input where it
    /// lies when unquantized), and reads `index` ([`Self::index_into`]).
    /// The panel path quantizes the input once, then lowers it into every
    /// im2col panel (in parallel over `workers`). All buffers are this
    /// thread's scratch.
    #[allow(clippy::too_many_arguments)]
    fn stage<R>(
        &self,
        src: &[f32],
        act: Option<&PanelQuantizer>,
        isa: Isa,
        workers: usize,
        index: &[usize],
        f: impl FnOnce(Staged<'_>) -> R,
    ) -> R {
        let Geom { c, h, w, kh, kw, spec, .. } = *self;
        let (ckk, ohow) = (self.ckk(), self.ohow());
        let p = spec.padding;
        if self.direct() && p > 0 {
            let layout = self.bordered();
            let mut bordered = Scratch::take(&STAGED, c * layout.plane);
            bordered.fill(0.0);
            let interior = &mut bordered[p * layout.pitch + p..];
            match act {
                Some(pq) => pq.quantize_planes_into_as(isa, src, interior, layout),
                None => copy_planes(src, interior, layout),
            }
            return f(self.direct_operand(&bordered, index));
        }
        let mut qimg = Scratch::take(&ACTS, if act.is_some() { src.len() } else { 0 });
        let img = match act {
            Some(pq) => {
                pq.quantize_panel_into_as(isa, src, &mut qimg, h * w);
                &qimg[..]
            }
            None => src,
        };
        if self.direct() {
            return f(self.direct_operand(img, index));
        }
        let npanels = ohow.div_ceil(NT_NR);
        let mut bank = Scratch::take(&STAGED, npanels * ckk * NT_NR);
        parallel_rows_in(workers, &mut bank, npanels, ckk * NT_NR, 1, |t0, pchunk| {
            for (ti, panel) in pchunk.chunks_mut(ckk * NT_NR).enumerate() {
                let j0 = (t0 + ti) * NT_NR;
                let nw = NT_NR.min(ohow - j0);
                im2col_panel_into(img, c, h, w, kh, kw, spec, j0, nw, panel);
            }
        });
        f(Staged::Panels { bank: &bank, ckk, ohow })
    }

    /// The direct path's view of a staged (bordered) image.
    fn direct_operand<'a>(&self, img: &'a [f32], index: &'a [usize]) -> Staged<'a> {
        let (off, bases) = index.split_at(self.ckk());
        // A 4-pixel row takes half a panel; the next output row is one
        // bordered row further on.
        let half = if self.ow.is_multiple_of(NT_NR) { NT_NR / 2 } else { self.bordered().pitch };
        Staged::Direct { img, off, bases, half }
    }
}

/// Copies the planes of `src` into the rows of `dst` that `layout` names
/// (the unquantized counterpart of
/// [`PanelQuantizer::quantize_planes_into_as`]).
fn copy_planes(src: &[f32], dst: &mut [f32], layout: Planes) {
    let Planes { rows, width, pitch, plane } = layout;
    if src.is_empty() {
        return;
    }
    for (sp, dp) in src.chunks_exact(rows * width).zip(dst.chunks_mut(plane)) {
        for (s, d) in sp.chunks_exact(width).zip(dp.chunks_mut(pitch)) {
            d[..width].copy_from_slice(s);
        }
    }
}

/// One image staged for the NT micro-kernel.
enum Staged<'a> {
    /// Read in place by [`gemm_nt_direct_as`]: the (bordered) image, each
    /// reduction index's offset, each panel's base, and the distance
    /// between a panel's two 4-lane halves.
    Direct { img: &'a [f32], off: &'a [usize], bases: &'a [usize], half: usize },
    /// Lowered into `[npanels][ckk][NT_NR]` im2col panels.
    Panels { bank: &'a [f32], ckk: usize, ohow: usize },
}

impl Staged<'_> {
    /// Writes `rows` output channels of the image (`filters` is their
    /// `[rows, ckk]` slice of the bank) into `out` (`[rows, oh·ow]`).
    fn sweep(&self, isa: Isa, filters: &[f32], out: &mut [f32], rows: usize) {
        match *self {
            Staged::Direct { img, off, bases, half } => {
                let ohow = bases.len() * NT_NR;
                gemm_nt_direct_as(isa, filters, img, off, bases, half, out, rows, ohow);
            }
            Staged::Panels { bank, ckk, ohow } => {
                for (t, panel) in bank.chunks(ckk * NT_NR).enumerate() {
                    let j0 = t * NT_NR;
                    let nw = NT_NR.min(ohow - j0);
                    gemm_nt_panel_as(isa, filters, panel, out, rows, ckk, ohow, j0, nw);
                }
            }
        }
    }
}

/// Adds the bias to an output-channel block *after* the panel sweep (the
/// NT micro-kernel overwrites its output columns, so the bias cannot be
/// prefilled). One add per output element, identical in both regimes.
fn add_bias(chunk: &mut [f32], bias: Option<&Tensor>, ohow: usize, oc0: usize) {
    if let Some(b) = bias {
        for (oc, plane) in chunk.chunks_mut(ohow).enumerate() {
            let bv = b.data()[oc0 + oc];
            for v in plane.iter_mut() {
                *v += bv;
            }
        }
    }
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
