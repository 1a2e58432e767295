//! 2-D convolution, pooling and upsampling kernels (NCHW layout).
//!
//! # The conv engine
//!
//! [`conv2d`] is the one convolution, over dense and packed weights
//! alike: [`Tensor::conv2d`] runs it on `f32` filters read in place, and
//! `fpdq_kernels::conv2d_packed` on a packed filter bank decoded once per
//! call (its [`Weights`] operand), with an optional fused activation
//! quantizer (its [`ActStage`] operand). It is *implicit GEMM*: the
//! product `out[o, oh·ow] = filters[o, ckk] · colsᵀ[ckk, oh·ow]` runs on
//! the NT micro-kernel of [`crate::matmul`], and the column matrix never
//! exists. Each image is *staged* once, then swept:
//!
//! * **Direct path** — stride-1 convs whose 8-pixel tiles are one stretch
//!   of an output row (`ow` a multiple of 8) or two whole rows (`ow == 4`
//!   with an even `oh`): the 3×3/pad-1 and 1×1 convs of the served 8×8
//!   and 4×4 maps. Staging is one pass: the bordered operand is zeroed,
//!   and each input row is copied, or quantized by the stage, straight
//!   into its interior (a 1×1 conv needs no border; its input is read
//!   where it lies). Reduction index `k = (ci, ky, kx)` of the tile at
//!   `(oy, x0)` is then the 4-lane halves at `base + off[k]` and `base +
//!   off[k] + half`, read in place by [`gemm_nt_direct_as`], with `half =
//!   4` on contiguous rows and the bordered row pitch when `ow == 4`. The
//!   tap offsets `off` and panel bases depend only on the shape, so they
//!   are built once per call and shared by every image and worker.
//!   Border lanes read `+0.0` exactly as masked panel lanes do.
//! * **Panel path** — every other conv (stride 2, other widths): the
//!   image is quantized once (when staged), then its 8-pixel tiles are
//!   lowered into `[ckk][NT_NR]` micro-panels ([`im2col_panel_into`]), in
//!   parallel over tiles, and swept by [`gemm_nt_panel_as`].
//!
//! Two regimes split that work across workers ([`pick_conv_regime`]):
//!
//! * **Batch-parallel** (one worker, and large batches): each worker
//!   stages and sweeps its images one at a time in its own scratch.
//! * **Channel-parallel** (the batch-1 case on several workers, and
//!   mid-size batches whose grains would under-fill the batch split):
//!   images run in sequence; each is staged once, then the output-channel
//!   range splits across workers on the [`NT_MR`]-row register-block grid
//!   against the shared filter bank.
//!
//! Scratch (decoded filter bank, bordered or quantized image, panels, tap
//! offsets) is per-thread and reused across calls ([`crate::scratch`]),
//! so a one-worker call allocates only its output.
//!
//! Both micro-kernels accumulate every output element as `0.0 + Σ
//! w[k]·a[k]` in plain ascending-`k` order in every code path (no FMA,
//! same operand order — see [`crate::simd`]), and the bias is added in a
//! separate epilogue after the sweep. Path, regime, row blocking, panel
//! order, worker count, ISA and weight source therefore cannot change a
//! single output bit: batch-N output for image `i` is bit-identical to
//! the batch-1 run on image `i`, the dense and packed entry points agree
//! on the same decoded weights, and the fused activation stage is
//! bit-exact with quantize-first execution.
//!
//! # Lowering
//!
//! The panel lowering is pure data movement, table-driven so that each
//! element costs a load and a store: for each kernel tap it computes the
//! panel's [`NT_NR`] lane offsets within a channel plane once (offsets
//! and padding do not depend on the input channel), classifies the tap,
//! and then walks the channels. A tap whose lanes are all consecutive in
//! the plane copies [`NT_NR`] contiguous floats; a tap that reads only
//! padding zero-fills; any other tap gathers and clears its padding lanes
//! with a bit mask, so live lanes keep their exact bits. The
//! whole-matrix [`im2col_into`] lowering survives for the gradient
//! kernels (`conv2d_grad_input` / `conv2d_grad_weight`), which
//! `fpdq-autograd` uses both for training the substrate models and for
//! the paper's gradient-based rounding learning on convolution layers,
//! and as the bitwise oracle of the panel lowering's tests.

use crate::matmul::{gemm_nt_direct_as, gemm_nt_panel_as, NT_MR, NT_NR};
use crate::operand::{ActStage, Planes, Weights};
use crate::parallel::{num_threads, parallel_rows_aligned_in, parallel_rows_in, Exec};
use crate::schedule::{pick_conv_regime, ConvRegime};
use crate::scratch::{Scratch, ACTS, INDEX, STAGED, WEIGHTS};
use crate::simd::Isa;
use crate::Tensor;

/// Hyper-parameters of a 2-D convolution (square stride/padding).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Conv2dSpec {
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero-padding in both spatial dimensions.
    pub padding: usize,
}

impl Conv2dSpec {
    /// A unit-stride convolution with the given padding.
    pub fn new(stride: usize, padding: usize) -> Self {
        assert!(stride >= 1, "stride must be >= 1");
        Conv2dSpec { stride, padding }
    }

    /// Output spatial extent for an input extent and kernel extent.
    ///
    /// Zero when the kernel does not fit the padded input even once
    /// (`input + 2·padding < kernel`): there is no valid output position,
    /// so the convolution result is empty along that axis. (An earlier
    /// version saturated to one output of a mostly-out-of-bounds patch,
    /// which disagreed with the direct-convolution definition.)
    pub fn out_extent(&self, input: usize, kernel: usize) -> usize {
        let span = input + 2 * self.padding;
        if span < kernel {
            return 0;
        }
        (span - kernel) / self.stride + 1
    }
}

/// Unfolds one image `[c, h, w]` (given as a raw `c*h*w` slice) into
/// columns `[c*kh*kw, oh*ow]` written into caller-owned scratch — the
/// lowering of the gradient kernels, which reuse one `cols` buffer
/// across batches.
///
/// # Panics
///
/// Panics (debug) if `cols` does not match `c*kh*kw*oh*ow`.
#[allow(clippy::too_many_arguments)] // raw-slice kernel signature
pub fn im2col_into(
    img: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    cols: &mut [f32],
) {
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    debug_assert_eq!(cols.len(), c * kh * kw * oh * ow);
    let (s, p) = (spec.stride as isize, spec.padding as isize);
    let mut row = 0usize;
    for ci in 0..c {
        for ky in 0..kh {
            for kx in 0..kw {
                let base = row * oh * ow;
                for oy in 0..oh {
                    let iy = oy as isize * s + ky as isize - p;
                    let orow = base + oy * ow;
                    if iy < 0 || iy >= h as isize {
                        cols[orow..orow + ow].fill(0.0);
                        continue;
                    }
                    let irow = (ci * h + iy as usize) * w;
                    for ox in 0..ow {
                        let ix = ox as isize * s + kx as isize - p;
                        cols[orow + ox] =
                            if ix < 0 || ix >= w as isize { 0.0 } else { img[irow + ix as usize] };
                    }
                }
                row += 1;
            }
        }
    }
}

/// Lowers `nw` (1 ≤ `nw` ≤ [`NT_NR`]) consecutive output pixels
/// `[j0, j0 + nw)` of one image `[c, h, w]` directly into a `[ckk][NT_NR]`
/// activation micro-panel for the NT panel kernel
/// ([`crate::matmul::gemm_nt_panel_as`]): `bp[kk * NT_NR + r]` is element `kk`
/// of output pixel `j0 + r`'s im2col patch (zero where the patch reads
/// padding; missing lanes beyond `nw` are zeroed like
/// [`crate::matmul::pack_nt_panel`]).
///
/// This is the tiled `im2col` slice API of the implicit-GEMM convolution:
/// instead of materialising the whole `[ckk, oh·ow]` column matrix and
/// re-reading it through a scalar GEMM, callers lower one panel-width tile
/// at a time into a `ckk × NT_NR` arena and feed the packed panel kernel —
/// the panel is produced in exactly the interleaved layout the kernel
/// consumes, so the classic im2col buffer never exists.
///
/// The lowering is driven by a per-tap offset table. For each kernel tap
/// `(ky, kx)` the lanes' source offsets within a channel plane, and an
/// all-ones or all-zeros mask per lane (zero for padding and for lanes
/// past `nw`), are computed once; they hold for every input channel. Then
/// each channel's stripe of that tap is filled by one of three cases:
///
/// * **contiguous** — all [`NT_NR`] lanes read consecutive floats of the
///   plane: one slice copy;
/// * **zero** — every lane reads padding: a zero fill;
/// * **masked gather** — otherwise: each lane loads its offset (padding
///   lanes load offset 0) and is ANDed with its mask, so padding lanes
///   become `+0.0` while live lanes keep every bit, `-0.0` and NaN
///   payloads included.
///
/// The panel is bit-identical to the matching columns of [`im2col_into`].
///
/// # Panics
///
/// Panics (debug) on size mismatches or when `[j0, j0 + nw)` leaves the
/// output plane.
#[allow(clippy::too_many_arguments)] // raw-slice kernel signature
pub fn im2col_panel_into(
    img: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    j0: usize,
    nw: usize,
    bp: &mut [f32],
) {
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    debug_assert_eq!(img.len(), c * h * w);
    debug_assert_eq!(bp.len(), c * kh * kw * NT_NR);
    debug_assert!((1..=NT_NR).contains(&nw), "panel width {nw}");
    debug_assert!(j0 + nw <= oh * ow, "pixels {j0}+{nw} past output plane {oh}x{ow}");
    let (s, p) = (spec.stride, spec.padding);
    let (plane, taps) = (h * w, kh * kw);
    // Top-left corner of each lane's patch in padded coordinates (input
    // coordinate + padding), so no lane ever needs a signed index.
    let mut py = [0usize; NT_NR];
    let mut px = [0usize; NT_NR];
    for (r, (y0, x0)) in py.iter_mut().zip(px.iter_mut()).enumerate().take(nw) {
        let pix = j0 + r;
        *y0 = (pix / ow) * s;
        *x0 = (pix % ow) * s;
    }
    for ky in 0..kh {
        for kx in 0..kw {
            // The tap's offset table; padding lanes and lanes past `nw`
            // keep offset 0 and a zero mask.
            let mut off = [0usize; NT_NR];
            let mut keep = [0u32; NT_NR];
            for r in 0..nw {
                let (y, x) = (py[r] + ky, px[r] + kx);
                if (p..h + p).contains(&y) && (p..w + p).contains(&x) {
                    off[r] = (y - p) * w + (x - p);
                    keep[r] = !0;
                }
            }
            let live = keep.iter().filter(|&&m| m != 0).count();
            let contiguous = live == NT_NR && (1..NT_NR).all(|r| off[r] == off[0] + r);
            // Channel `ci`'s row of this tap is `bp`'s block `ci` (one
            // `taps × NT_NR` block per input channel) at stripe `tap`.
            let tap = ky * kw + kx;
            let stripes = bp.chunks_exact_mut(taps * NT_NR).map(|b| &mut b[tap * NT_NR..][..NT_NR]);
            if live == 0 {
                stripes.for_each(|stripe| stripe.fill(0.0));
            } else if contiguous {
                for (stripe, src) in stripes.zip(img.chunks_exact(plane)) {
                    stripe.copy_from_slice(&src[off[0]..][..NT_NR]);
                }
            } else {
                for (stripe, src) in stripes.zip(img.chunks_exact(plane)) {
                    for ((dst, &o), &m) in stripe.iter_mut().zip(&off).zip(&keep) {
                        *dst = f32::from_bits(src[o].to_bits() & m);
                    }
                }
            }
        }
    }
}

/// Folds columns `[c*kh*kw, oh*ow]` back into an image `[c, h, w]`,
/// accumulating overlapping contributions (transpose of [`im2col_into`]).
#[allow(clippy::too_many_arguments)] // raw-slice kernel signature
fn col2im(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    img: &mut [f32],
) {
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    debug_assert_eq!(cols.len(), c * kh * kw * oh * ow);
    debug_assert_eq!(img.len(), c * h * w);
    let (s, p) = (spec.stride as isize, spec.padding as isize);
    let mut row = 0usize;
    for ci in 0..c {
        for ky in 0..kh {
            for kx in 0..kw {
                let base = row * oh * ow;
                for oy in 0..oh {
                    let iy = oy as isize * s + ky as isize - p;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let irow = (ci * h + iy as usize) * w;
                    for ox in 0..ow {
                        let ix = ox as isize * s + kx as isize - p;
                        if ix >= 0 && ix < w as isize {
                            img[irow + ix as usize] += cols[base + oy * ow + ox];
                        }
                    }
                }
                row += 1;
            }
        }
    }
}

impl Tensor {
    /// 2-D convolution: input `[n, c, h, w]`, weight `[o, c, kh, kw]`,
    /// optional bias `[o]`, producing `[n, o, oh, ow]` — [`conv2d`] on
    /// dense weights, with the dispatched ISA and the process-wide
    /// workers.
    ///
    /// # Panics
    ///
    /// Panics on rank, channel or bias-length mismatches.
    pub fn conv2d(&self, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
        conv2d(self, Weights::Dense(weight), bias, spec, None, Exec::default())
    }

    /// Average pooling with a square `k`×`k` window and stride `k`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-D or the spatial extents are not
    /// divisible by `k`.
    pub fn avg_pool2d(&self, k: usize) -> Tensor {
        assert_eq!(self.ndim(), 4, "avg_pool2d input must be 4-D");
        let (n, c, h, w) = (self.dim(0), self.dim(1), self.dim(2), self.dim(3));
        assert!(h % k == 0 && w % k == 0, "avg_pool2d extents {h}x{w} not divisible by {k}");
        let (oh, ow) = (h / k, w / k);
        let inv = 1.0 / (k * k) as f32;
        let mut out = vec![0.0f32; n * c * oh * ow];
        for nc in 0..n * c {
            let plane = &self.data()[nc * h * w..(nc + 1) * h * w];
            let oplane = &mut out[nc * oh * ow..(nc + 1) * oh * ow];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut s = 0.0;
                    for dy in 0..k {
                        for dx in 0..k {
                            s += plane[(oy * k + dy) * w + ox * k + dx];
                        }
                    }
                    oplane[oy * ow + ox] = s * inv;
                }
            }
        }
        Tensor::from_vec(out, &[n, c, oh, ow])
    }

    /// Nearest-neighbour upsampling by an integer factor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-D.
    pub fn upsample_nearest(&self, factor: usize) -> Tensor {
        assert_eq!(self.ndim(), 4, "upsample_nearest input must be 4-D");
        let (n, c, h, w) = (self.dim(0), self.dim(1), self.dim(2), self.dim(3));
        let (oh, ow) = (h * factor, w * factor);
        let mut out = vec![0.0f32; n * c * oh * ow];
        for nc in 0..n * c {
            let plane = &self.data()[nc * h * w..(nc + 1) * h * w];
            let oplane = &mut out[nc * oh * ow..(nc + 1) * oh * ow];
            for oy in 0..oh {
                let iy = oy / factor;
                for ox in 0..ow {
                    oplane[oy * ow + ox] = plane[iy * w + ox / factor];
                }
            }
        }
        Tensor::from_vec(out, &[n, c, oh, ow])
    }
}

/// 2-D convolution — the one conv, over dense and packed weights alike
/// ([`Tensor::conv2d`] and `fpdq_kernels::conv2d_packed` are its entry
/// points): input `[n, c, h, w]`, weight `[o, c, kh, kw]`, optional bias
/// `[o]`, producing `[n, o, oh, ow]`.
///
/// `act`, when set, quantizes the input as it is staged (as the model
/// taps do): per tensor, or per input channel with `channels == c`,
/// where channel `ci` quantizes through table `ci`. `exec` names the ISA
/// path of the weight decode, the activation stage and the micro-kernel,
/// and the worker count of both the regime decision
/// ([`pick_conv_regime`]) and the parallel splits. See the module docs
/// for the schedule. Results are bit-identical for every `exec` and
/// weight source.
///
/// # Panics
///
/// Panics on rank, channel or bias-length mismatches, or if a
/// per-channel stage's channel count differs from `c`.
pub fn conv2d(
    x: &Tensor,
    weight: Weights<'_>,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    act: Option<&dyn ActStage>,
    exec: Exec,
) -> Tensor {
    let Exec { isa, workers } = exec;
    assert_eq!(x.ndim(), 4, "conv2d input must be [n, c, h, w], got {}", x.shape());
    let wd = weight.dims();
    assert_eq!(wd.len(), 4, "conv2d weight must be [o, c, kh, kw], got {wd:?}");
    let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let (o, wc, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    assert_eq!(c, wc, "conv2d channel mismatch: input {c}, weight {wc}");
    if let Some(b) = bias {
        assert_eq!(b.numel(), o, "conv2d bias must have {o} elements");
    }
    if let Some(st) = act {
        assert!(
            st.channels() == 1 || st.channels() == c,
            "per-channel activation quantizer has {} channels for c = {c}",
            st.channels()
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
        // every output pixel is the bare bias.
        for obatch in out.chunks_mut(o * ohow) {
            add_bias(obatch, bias, ohow, 0);
        }
        return Tensor::from_vec(out, &out_dims);
    }
    // The filter bank is read in place, or a packed one expands exactly
    // once per call: shared read-only by every worker in both regimes, so
    // the decode cost is paid per call, not per image or per worker.
    let mut bank = Scratch::take(&WEIGHTS, weight.scratch_len(o * ckk));
    let filters = weight.all(isa, workers, o, ckk, &mut bank);
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
    /// it. The direct path writes the input, through the fused stage when
    /// `act` is set, straight into the interior of its zero-bordered
    /// operand (a 1×1 conv needs no border and reads the input where it
    /// lies when unquantized), and reads `index` ([`Self::index_into`]).
    /// The panel path quantizes the input once, then lowers it into every
    /// im2col panel (in parallel over `workers`). All buffers are this
    /// thread's scratch.
    #[allow(clippy::too_many_arguments)]
    fn stage<R>(
        &self,
        src: &[f32],
        act: Option<&dyn ActStage>,
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
                Some(st) => st.quantize_planes_into_as(isa, src, interior, layout),
                None => layout.copy(src, interior),
            }
            return f(self.direct_operand(&bordered, index));
        }
        let mut qimg = Scratch::take(&ACTS, if act.is_some() { src.len() } else { 0 });
        let img = match act {
            Some(st) => {
                st.quantize_planes_into_as(isa, src, &mut qimg, Planes::dense(h * w));
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

/// Adds the bias to an output-channel block *after* the sweep (the NT
/// micro-kernels overwrite their output columns, so the bias cannot be
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

/// Gradient of [`Tensor::conv2d`] w.r.t. its input.
///
/// `grad_out` is `[n, o, oh, ow]`; returns `[n, c, h, w]`.
///
/// # Panics
///
/// Panics on rank or shape mismatches.
pub fn conv2d_grad_input(
    grad_out: &Tensor,
    weight: &Tensor,
    input_dims: &[usize],
    spec: Conv2dSpec,
) -> Tensor {
    assert_eq!(grad_out.ndim(), 4, "grad_out must be 4-D");
    assert_eq!(input_dims.len(), 4, "input_dims must be 4-D");
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    let (o, _wc, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    assert_eq!(grad_out.dims(), &[n, o, oh, ow], "grad_out shape mismatch");
    let ckk = c * kh * kw;
    // w2 = weight reshaped [o, ckk]; cols_grad = w2^T (.) gout
    let w2 = weight.reshape(&[o, ckk]);
    let gout = grad_out.data();
    let mut gin = vec![0.0f32; n * c * h * w];
    parallel_rows_in(num_threads(), &mut gin, n, c * h * w, 1, |batch_start, chunk| {
        let mut cols = vec![0.0f32; ckk * oh * ow];
        for (bi, ibatch) in chunk.chunks_mut(c * h * w).enumerate() {
            let batch = batch_start + bi;
            cols.fill(0.0);
            // cols[ckk, ohow] = w2^T [ckk, o] × gout_b [o, ohow]
            let gb = &gout[batch * o * oh * ow..(batch + 1) * o * oh * ow];
            for oc in 0..o {
                let grow = &gb[oc * oh * ow..(oc + 1) * oh * ow];
                for r in 0..ckk {
                    let wv = w2.data()[oc * ckk + r];
                    if wv == 0.0 {
                        continue;
                    }
                    let crow = &mut cols[r * oh * ow..(r + 1) * oh * ow];
                    for (cv, &gv) in crow.iter_mut().zip(grow.iter()) {
                        *cv += wv * gv;
                    }
                }
            }
            col2im(&cols, c, h, w, kh, kw, spec, ibatch);
        }
    });
    Tensor::from_vec(gin, &[n, c, h, w])
}

/// Gradient of [`Tensor::conv2d`] w.r.t. its weight.
///
/// Returns `[o, c, kh, kw]`, summed over the batch.
///
/// # Panics
///
/// Panics on rank or shape mismatches.
pub fn conv2d_grad_weight(
    grad_out: &Tensor,
    input: &Tensor,
    kernel: (usize, usize),
    spec: Conv2dSpec,
) -> Tensor {
    assert_eq!(grad_out.ndim(), 4, "grad_out must be 4-D");
    assert_eq!(input.ndim(), 4, "input must be 4-D");
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (kh, kw) = kernel;
    let o = grad_out.dim(1);
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    assert_eq!(grad_out.dims(), &[n, o, oh, ow], "grad_out shape mismatch");
    let ckk = c * kh * kw;
    let mut gw = vec![0.0f32; o * ckk];
    let mut cols = vec![0.0f32; ckk * oh * ow];
    for batch in 0..n {
        im2col_into(
            &input.data()[batch * c * h * w..(batch + 1) * c * h * w],
            c,
            h,
            w,
            kh,
            kw,
            spec,
            &mut cols,
        );
        // gw[o, ckk] += gout_b [o, ohow] × cols^T [ohow, ckk]
        let gb = &grad_out.data()[batch * o * oh * ow..(batch + 1) * o * oh * ow];
        for oc in 0..o {
            let grow = &gb[oc * oh * ow..(oc + 1) * oh * ow];
            let gwrow = &mut gw[oc * ckk..(oc + 1) * ckk];
            for (r, gwv) in gwrow.iter_mut().enumerate() {
                *gwv += crate::matmul::dot(grow, &cols[r * oh * ow..(r + 1) * oh * ow]);
            }
        }
    }
    Tensor::from_vec(gw, &[o, c, kh, kw])
}

/// Gradient of [`Tensor::avg_pool2d`]: spreads each output gradient evenly
/// over its `k`×`k` window.
pub fn avg_pool2d_grad(grad_out: &Tensor, k: usize) -> Tensor {
    let (n, c, oh, ow) = (grad_out.dim(0), grad_out.dim(1), grad_out.dim(2), grad_out.dim(3));
    let (h, w) = (oh * k, ow * k);
    let inv = 1.0 / (k * k) as f32;
    let mut gin = vec![0.0f32; n * c * h * w];
    for nc in 0..n * c {
        let gplane = &grad_out.data()[nc * oh * ow..(nc + 1) * oh * ow];
        let iplane = &mut gin[nc * h * w..(nc + 1) * h * w];
        for oy in 0..oh {
            for ox in 0..ow {
                let g = gplane[oy * ow + ox] * inv;
                for dy in 0..k {
                    for dx in 0..k {
                        iplane[(oy * k + dy) * w + ox * k + dx] = g;
                    }
                }
            }
        }
    }
    Tensor::from_vec(gin, &[n, c, h, w])
}

/// Gradient of [`Tensor::upsample_nearest`]: sums gradients over each
/// replicated block.
pub fn upsample_nearest_grad(grad_out: &Tensor, factor: usize) -> Tensor {
    let (n, c, oh, ow) = (grad_out.dim(0), grad_out.dim(1), grad_out.dim(2), grad_out.dim(3));
    assert!(oh % factor == 0 && ow % factor == 0, "grad extents not divisible by factor");
    let (h, w) = (oh / factor, ow / factor);
    let mut gin = vec![0.0f32; n * c * h * w];
    for nc in 0..n * c {
        let gplane = &grad_out.data()[nc * oh * ow..(nc + 1) * oh * ow];
        let iplane = &mut gin[nc * h * w..(nc + 1) * h * w];
        for oy in 0..oh {
            for ox in 0..ow {
                iplane[(oy / factor) * w + ox / factor] += gplane[oy * ow + ox];
            }
        }
    }
    Tensor::from_vec(gin, &[n, c, h, w])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
        let n: usize = dims.iter().product();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let data = (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            })
            .collect();
        Tensor::from_vec(data, dims)
    }

    /// Direct (non-im2col) convolution for cross-checking.
    fn conv2d_naive(x: &Tensor, wgt: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
        let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let (o, _, kh, kw) = (wgt.dim(0), wgt.dim(1), wgt.dim(2), wgt.dim(3));
        let oh = spec.out_extent(h, kh);
        let ow = spec.out_extent(w, kw);
        let mut out = Tensor::zeros(&[n, o, oh, ow]);
        for b in 0..n {
            for oc in 0..o {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut s = bias.map(|bb| bb.data()[oc]).unwrap_or(0.0);
                        for ic in 0..c {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy =
                                        (oy * spec.stride + ky) as isize - spec.padding as isize;
                                    let ix =
                                        (ox * spec.stride + kx) as isize - spec.padding as isize;
                                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                        s += x.at(&[b, ic, iy as usize, ix as usize])
                                            * wgt.at(&[oc, ic, ky, kx]);
                                    }
                                }
                            }
                        }
                        out.set(&[b, oc, oy, ox], s);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn conv2d_matches_naive() {
        for (stride, padding) in [(1, 0), (1, 1), (2, 1)] {
            let x = rand_tensor(&[2, 3, 6, 6], 1);
            let w = rand_tensor(&[4, 3, 3, 3], 2);
            let b = rand_tensor(&[4], 3);
            let spec = Conv2dSpec::new(stride, padding);
            let fast = x.conv2d(&w, Some(&b), spec);
            let slow = conv2d_naive(&x, &w, Some(&b), spec);
            assert_eq!(fast.dims(), slow.dims());
            for (a, e) in fast.data().iter().zip(slow.data().iter()) {
                assert!((a - e).abs() < 1e-4, "stride={stride} pad={padding}: {a} vs {e}");
            }
        }
    }

    #[test]
    fn conv2d_batch_slices_match_single_image_calls_bitwise() {
        // Whatever regime pick_conv_regime selects for this machine's
        // thread count, image i of a batched conv must equal the
        // batch-1 conv on image i bit-for-bit (both schedules use the
        // same 4-row filter blocks); n = 9 sits on the regime boundary
        // for common worker counts.
        let x = rand_tensor(&[9, 3, 6, 6], 10);
        let w = rand_tensor(&[6, 3, 3, 3], 11);
        let b = rand_tensor(&[6], 12);
        let spec = Conv2dSpec::new(1, 1);
        let full = x.conv2d(&w, Some(&b), spec);
        let plane = full.numel() / 9;
        for i in 0..9 {
            let xi =
                Tensor::from_vec(x.data()[i * 3 * 36..(i + 1) * 3 * 36].to_vec(), &[1, 3, 6, 6]);
            let single = xi.conv2d(&w, Some(&b), spec);
            for (j, (a, e)) in
                full.data()[i * plane..(i + 1) * plane].iter().zip(single.data()).enumerate()
            {
                assert_eq!(a.to_bits(), e.to_bits(), "img {i} elem {j}");
            }
        }
    }

    #[test]
    fn conv2d_1x1_is_channel_mix() {
        let x = rand_tensor(&[1, 2, 3, 3], 4);
        let w = rand_tensor(&[5, 2, 1, 1], 5);
        let y = x.conv2d(&w, None, Conv2dSpec::new(1, 0));
        assert_eq!(y.dims(), &[1, 5, 3, 3]);
        // Spot-check one output pixel.
        let expect =
            x.at(&[0, 0, 1, 1]) * w.at(&[3, 0, 0, 0]) + x.at(&[0, 1, 1, 1]) * w.at(&[3, 1, 0, 0]);
        assert!((y.at(&[0, 3, 1, 1]) - expect).abs() < 1e-5);
    }

    #[test]
    fn grad_input_matches_finite_difference() {
        let spec = Conv2dSpec::new(1, 1);
        let x = rand_tensor(&[1, 2, 4, 4], 6);
        let w = rand_tensor(&[3, 2, 3, 3], 7);
        let y = x.conv2d(&w, None, spec);
        // Loss = sum(y); dL/dy = ones.
        let gout = Tensor::ones(y.dims());
        let gin = conv2d_grad_input(&gout, &w, x.dims(), spec);
        let eps = 1e-3;
        for probe in [0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let fd =
                (xp.conv2d(&w, None, spec).sum() - xm.conv2d(&w, None, spec).sum()) / (2.0 * eps);
            assert!(
                (gin.data()[probe] - fd).abs() < 1e-2,
                "probe {probe}: analytic {} vs fd {fd}",
                gin.data()[probe]
            );
        }
    }

    #[test]
    fn grad_weight_matches_finite_difference() {
        let spec = Conv2dSpec::new(2, 1);
        let x = rand_tensor(&[2, 2, 4, 4], 8);
        let w = rand_tensor(&[3, 2, 3, 3], 9);
        let y = x.conv2d(&w, None, spec);
        let gout = Tensor::ones(y.dims());
        let gw = conv2d_grad_weight(&gout, &x, (3, 3), spec);
        assert_eq!(gw.dims(), w.dims());
        let eps = 1e-3;
        for probe in [0usize, 7, 23, 53] {
            let mut wp = w.clone();
            wp.data_mut()[probe] += eps;
            let mut wm = w.clone();
            wm.data_mut()[probe] -= eps;
            let fd =
                (x.conv2d(&wp, None, spec).sum() - x.conv2d(&wm, None, spec).sum()) / (2.0 * eps);
            assert!(
                (gw.data()[probe] - fd).abs() < 1e-2,
                "probe {probe}: analytic {} vs fd {fd}",
                gw.data()[probe]
            );
        }
    }

    #[test]
    fn avg_pool_and_grad() {
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
        let y = x.avg_pool2d(2);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[2.5, 4.5, 10.5, 12.5]);
        let g = avg_pool2d_grad(&Tensor::ones(&[1, 1, 2, 2]), 2);
        assert_eq!(g.dims(), &[1, 1, 4, 4]);
        assert!(g.data().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn upsample_and_grad() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = x.upsample_nearest(2);
        assert_eq!(y.dims(), &[1, 1, 4, 4]);
        assert_eq!(y.at(&[0, 0, 0, 1]), 1.0);
        assert_eq!(y.at(&[0, 0, 3, 3]), 4.0);
        let g = upsample_nearest_grad(&Tensor::ones(&[1, 1, 4, 4]), 2);
        assert_eq!(g.data(), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn out_extent_math() {
        let s = Conv2dSpec::new(1, 1);
        assert_eq!(s.out_extent(8, 3), 8); // same padding
        let s2 = Conv2dSpec::new(2, 1);
        assert_eq!(s2.out_extent(8, 3), 4); // halving conv

        // Kernel exceeding the padded input: no valid position, empty
        // output (an earlier version saturated to 1 here).
        let s3 = Conv2dSpec::new(1, 0);
        assert_eq!(s3.out_extent(2, 5), 0);
        assert_eq!(s3.out_extent(0, 3), 0);
        // ... but enough padding restores valid positions.
        let s4 = Conv2dSpec::new(1, 2);
        assert_eq!(s4.out_extent(2, 5), 2);
    }

    #[test]
    fn panel_lowering_matches_whole_matrix_im2col() {
        // Every lane of every panel im2col_panel_into lowers must carry the
        // exact bits of the corresponding column of the materialised
        // im2col matrix, and every lane past `nw` must be +0.0. The sweep
        // covers non-square images, output widths 3/4/8/12/16 (so panels
        // start mid-row and straddle rows), stride 2 with padding, 1×1 at
        // strides 1 and 2, kernels larger than the image, padding wider
        // than the kernel's reach, every panel start and width, and images
        // seeded with -0.0, NaN payloads, ±∞ and subnormals — a lowering
        // that zeroes padding by multiplying with a 0/1 mask, or that
        // canonicalises -0.0, fails here.
        let specials = [
            -0.0f32,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xff80_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
        ];
        for (c, h, w, kh, kw, stride, padding) in [
            (3usize, 6usize, 6usize, 3usize, 3usize, 1usize, 1usize),
            (2, 5, 3, 3, 3, 1, 1),  // ow 3
            (2, 3, 4, 3, 3, 1, 1),  // ow 4
            (2, 6, 8, 3, 3, 1, 1),  // ow 8: one output row per panel
            (2, 5, 12, 3, 3, 1, 1), // ow 12
            (2, 3, 16, 3, 3, 1, 1), // ow 16
            (3, 6, 6, 3, 3, 2, 1),
            (2, 7, 9, 3, 3, 2, 1),
            (2, 8, 5, 3, 3, 2, 1),
            (3, 5, 5, 2, 3, 3, 0), // stride above the kernel extent
            (3, 4, 5, 1, 1, 1, 0), // 1×1, stride 1
            (3, 5, 7, 1, 1, 2, 0), // 1×1, stride 2
            (3, 2, 2, 3, 3, 1, 1), // kernel larger than the image
            (2, 2, 3, 5, 5, 1, 2),
            (2, 3, 5, 3, 3, 1, 2), // padding past the kernel's reach
        ] {
            let spec = Conv2dSpec::new(stride, padding);
            let mut img = rand_tensor(&[c, h, w], (h * w * kh * stride + padding) as u64);
            for (i, v) in img.data_mut().iter_mut().enumerate().filter(|(i, _)| i % 3 == 1) {
                *v = specials[(i / 3) % specials.len()];
            }
            let (oh, ow) = (spec.out_extent(h, kh), spec.out_extent(w, kw));
            let (ckk, ohow) = (c * kh * kw, oh * ow);
            let mut cols = vec![0.0f32; ckk * ohow];
            im2col_into(img.data(), c, h, w, kh, kw, spec, &mut cols);
            let mut panel = vec![0.0f32; ckk * NT_NR];
            for j0 in 0..ohow {
                for nw in 1..=NT_NR.min(ohow - j0) {
                    panel.fill(f32::from_bits(0x7fc0_dead));
                    im2col_panel_into(img.data(), c, h, w, kh, kw, spec, j0, nw, &mut panel);
                    for kk in 0..ckk {
                        for r in 0..NT_NR {
                            let want = if r < nw { cols[kk * ohow + j0 + r] } else { 0.0 };
                            assert_eq!(
                                panel[kk * NT_NR + r].to_bits(),
                                want.to_bits(),
                                "img {c}x{h}x{w} k={kh}x{kw} s={stride} p={padding} \
                                 j0={j0} nw={nw} kk={kk} lane={r}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn conv2d_edge_shapes_match_naive() {
        // Kernel ≥ image with padding, and stride > kernel: the implicit-
        // GEMM path must agree with the direct-definition reference.
        for (h, w_, kh, kw, stride, padding) in
            [(2, 2, 3, 3, 1, 1), (3, 5, 3, 3, 1, 2), (6, 6, 2, 2, 3, 0), (2, 6, 2, 3, 3, 1)]
        {
            let x = rand_tensor(&[2, 3, h, w_], 20 + h as u64);
            let w = rand_tensor(&[5, 3, kh, kw], 21 + kw as u64);
            let b = rand_tensor(&[5], 22);
            let spec = Conv2dSpec::new(stride, padding);
            let fast = x.conv2d(&w, Some(&b), spec);
            let slow = conv2d_naive(&x, &w, Some(&b), spec);
            assert_eq!(fast.dims(), slow.dims());
            for (a, e) in fast.data().iter().zip(slow.data().iter()) {
                assert!(
                    (a - e).abs() < 1e-4,
                    "k={kh}x{kw} s={stride} p={padding} h={h}: {a} vs {e}"
                );
            }
        }
    }

    #[test]
    fn conv2d_empty_output_when_kernel_exceeds_padded_input() {
        // 5×5 kernel on a 2-pixel extent with no padding: zero valid
        // positions, so the output plane is empty — not a phantom pixel
        // computed from an almost-entirely-out-of-bounds patch.
        let x = rand_tensor(&[2, 3, 2, 6], 30);
        let w = rand_tensor(&[4, 3, 5, 5], 31);
        let y = x.conv2d(&w, None, Conv2dSpec::new(1, 0));
        assert_eq!(y.dims(), &[2, 4, 0, 2]);
        assert!(y.data().is_empty());
    }

    #[test]
    fn conv2d_zero_channel_input_is_bias_broadcast() {
        // c == 0 is an empty reduction: every output pixel is exactly the
        // bias (and zero without one), never uninitialised or OOB.
        let x = Tensor::zeros(&[2, 0, 5, 5]);
        let w = Tensor::zeros(&[3, 0, 3, 3]);
        let b = Tensor::from_vec(vec![1.5, -2.0, 0.25], &[3]);
        let y = x.conv2d(&w, Some(&b), Conv2dSpec::new(1, 1));
        assert_eq!(y.dims(), &[2, 3, 5, 5]);
        for batch in 0..2 {
            for (oc, &bv) in b.data().iter().enumerate() {
                for px in 0..25 {
                    assert_eq!(y.at(&[batch, oc, px / 5, px % 5]), bv);
                }
            }
        }
        let y0 = x.conv2d(&w, None, Conv2dSpec::new(1, 1));
        assert!(y0.data().iter().all(|&v| v == 0.0));
    }
}
