//! Threaded matrix multiplication kernels.
//!
//! Two serial micro-kernels back every matmul in the workspace:
//!
//! * The packed-panel NT kernel ([`pack_nt_panel`] + [`gemm_nt_panel_as`]) —
//!   `c = a · bᵀ` with the `b` tile pre-interleaved into a `[k][NT_NR]`
//!   panel so the inner loop reads one contiguous [`NT_NR`]-lane stripe
//!   per `k` step. Each 4×8 register block keeps 32 accumulators live
//!   across the whole `k` loop. Crucially every output element
//!   accumulates its products in plain `k` order in *every* path (full
//!   blocks and edges alike), so results are bit-identical regardless of
//!   tiling, panel boundaries, or how many threads the work is split
//!   across. Its direct twin ([`gemm_nt_direct_as`]) reads the same
//!   `[k][NT_NR]` operand in place from an image, as two 4-lane halves
//!   per `k` step at caller-given offsets: a stride-1 convolution runs it
//!   without lowering its input into panels.
//! * [`gemm_serial`] — the NN kernel (`c = a · b`) in `i-k-j` order with a
//!   4-row block over `i`, amortising each streamed `b` row across four
//!   output rows while keeping the innermost traversal contiguous.
//!
//! [`gemm_nt`] is the one NT GEMM, over dense and packed weights alike
//! (its [`Weights`] operand) with an optional fused activation quantizer
//! (its [`ActStage`] operand): [`Tensor::matmul_nt`] and
//! `fpdq_kernels::gemm_packed` are its entry points, and it picks one of
//! two tile schedules per call from the row counts and the workers
//! ([`pick_gemm_regime`]). The convolution engine ([`crate::conv`]) runs
//! on the same two micro-kernels. [`gemm_nt_serial_as`] is the
//! single-threaded whole-matrix reference the differential tests hold
//! the engine to.
//!
//! [`Tensor::attention`], the inference attention core, is built on
//! [`gemm_serial_as`], the dispatched form of [`gemm_serial`]: per
//! (batch, head) it gathers the head's columns into per-thread scratch
//! and runs the calls of [`Tensor::bmm`] on them.
//!
//! Work is split across cores by output row chunks via [`crate::parallel`],
//! with chunk starts pinned to the register-block grid
//! ([`crate::parallel::parallel_rows_aligned_in`]) so the multi-threaded
//! block decomposition matches the serial one.
//!
//! The NT micro-kernel is additionally *runtime-dispatched* over explicit
//! SIMD implementations ([`crate::simd`]): AVX2 on x86-64 keeps each 4×8
//! accumulator block in four 256-bit registers, NEON on aarch64 in eight
//! 128-bit halves. Every path accumulates each output element with the
//! same mul-then-add per ascending `k` step (no fused multiply-adds), so
//! all ISAs are bit-identical to the scalar reference
//! ([`gemm_nt_panel_scalar`]) — the contract `tests/simd_consistency.rs`
//! pins down.

use crate::operand::{ActStage, Planes, Weights};
use crate::parallel::{num_threads, parallel_rows_aligned_in, parallel_rows_in, Exec};
use crate::schedule::{pick_gemm_regime, GemmRegime, ACT_BLOCK};
use crate::scratch::{Scratch, ACTS, HEADS, STAGED, WEIGHTS};
use crate::simd::{self, Isa};
use crate::tensor::{mul_scalar_inplace_as, softmax_rows_inplace};
use crate::Tensor;

impl Tensor {
    /// Matrix product of two 2-D tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D, got {}", self.shape());
        assert_eq!(other.ndim(), 2, "matmul rhs must be 2-D, got {}", other.shape());
        let (m, k) = (self.dim(0), self.dim(1));
        let (k2, n) = (other.dim(0), other.dim(1));
        assert_eq!(k, k2, "matmul inner dims differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        gemm(self.data(), other.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// `self [.., k] × otherᵀ [n, k] → [m, n]`: the NT GEMM ([`gemm_nt`])
    /// on dense weights, with the dispatched ISA and the process-wide
    /// workers, of which it starts only as many as its multiply-adds pay
    /// for ([`Exec::for_macs`]): the small linears of a text encoder run
    /// inline. Every leading dim of `self` folds into the `m` rows, read
    /// in place, so a `[b, l, d]` input needs no flattening copy.
    ///
    /// # Panics
    ///
    /// Panics if `other` is not 2-D, `self` is 0-D, or the `k` dimensions
    /// differ.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let n = other.dims().first().map_or(0, |&n| n);
        gemm_nt(self, Weights::Dense(other), None, Exec::for_macs(self.numel().saturating_mul(n)))
    }

    /// `selfᵀ × other` for 2-D tensors: `[k, m]ᵀ × [k, n] → [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the `k` dimensions differ.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_tn lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul_tn rhs must be 2-D");
        let (k, m) = (self.dim(0), self.dim(1));
        let (k2, n) = (other.dim(0), other.dim(1));
        assert_eq!(k, k2, "matmul_tn inner dims differ: {k} vs {k2}");
        let a = self.data();
        let b = other.data();
        let mut out = vec![0.0f32; m * n];
        // out[i, j] = sum_k a[k, i] * b[k, j]; accumulate row-wise over k.
        parallel_rows_in(num_threads(), &mut out, m, n, 8, |row_start, chunk| {
            for (r, orow) in chunk.chunks_mut(n).enumerate() {
                let i = row_start + r;
                for kk in 0..k {
                    let av = a[kk * m + i];
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &b[kk * n..kk * n + n];
                    for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                        *o += av * bv;
                    }
                }
            }
        });
        Tensor::from_vec(out, &[m, n])
    }

    /// Batched matrix product: `[b, m, k] × [b, k, n] → [b, m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not 3-D with matching batch and inner
    /// dimensions.
    pub fn bmm(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 3, "bmm lhs must be 3-D, got {}", self.shape());
        assert_eq!(other.ndim(), 3, "bmm rhs must be 3-D, got {}", other.shape());
        let (b, m, k) = (self.dim(0), self.dim(1), self.dim(2));
        let (b2, k2, n) = (other.dim(0), other.dim(1), other.dim(2));
        assert_eq!(b, b2, "bmm batch dims differ: {b} vs {b2}");
        assert_eq!(k, k2, "bmm inner dims differ: {k} vs {k2}");
        let mut out = vec![0.0f32; b * m * n];
        let a = self.data();
        let bd = other.data();
        parallel_rows_in(num_threads(), &mut out, b, m * n, 1, |batch_start, chunk| {
            for (bi, obatch) in chunk.chunks_mut(m * n).enumerate() {
                let batch = batch_start + bi;
                gemm_serial(
                    &a[batch * m * k..(batch + 1) * m * k],
                    &bd[batch * k * n..(batch + 1) * k * n],
                    obatch,
                    m,
                    k,
                    n,
                );
            }
        });
        Tensor::from_vec(out, &[b, m, n])
    }

    /// Multi-head scaled-dot-product attention, the inference core, on
    /// the dispatched ISA ([`Tensor::attention_as`]): `self` is q
    /// `[b, n, d]`, `k` and `v` are `[b, m, d]`, and the result is
    /// `[b, n, d]`. Head `h` owns feature columns `[h·dh, (h+1)·dh)` of all
    /// three, with `dh = d / heads`.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not 3-D, `k` and `v` differ in shape,
    /// their batch or feature dims differ from q's, or `heads` does not
    /// divide `d`.
    pub fn attention(&self, k: &Tensor, v: &Tensor, heads: usize, scale: f32) -> Tensor {
        self.attention_as(simd::active(), k, v, heads, scale)
    }

    /// [`Tensor::attention`] on an explicit ISA path.
    ///
    /// For each (batch, head) the head's q, kᵀ and v are gathered into
    /// per-thread scratch, reused across calls; [`gemm_serial_as`] forms
    /// the scores, which are multiplied by `scale` and softmaxed in place
    /// with [`Tensor::softmax_lastdim_as`]'s expressions (through the
    /// vector exp); a second [`gemm_serial_as`] forms the head's output,
    /// which is written straight into its columns of the result. These are
    /// the calls and expressions of the split-heads → [`Tensor::bmm`] →
    /// [`Tensor::mul_scalar`] → softmax → [`Tensor::bmm`] → merge-heads
    /// chain on the same values, and every ISA path of each is
    /// bit-identical to its scalar reference, so the result is
    /// bit-identical to that chain (up to the NaN payload that
    /// [`crate::simd`] leaves open), without a head-major copy of any
    /// operand. Batches split across workers as in [`Tensor::bmm`].
    ///
    /// # Panics
    ///
    /// As [`Tensor::attention`].
    pub fn attention_as(
        &self,
        isa: Isa,
        k: &Tensor,
        v: &Tensor,
        heads: usize,
        scale: f32,
    ) -> Tensor {
        assert_eq!(self.ndim(), 3, "attention q must be [b, n, d], got {}", self.shape());
        assert_eq!(k.ndim(), 3, "attention k must be [b, m, d], got {}", k.shape());
        assert_eq!(k.dims(), v.dims(), "attention k {} and v {} differ", k.shape(), v.shape());
        let (b, n, d) = (self.dim(0), self.dim(1), self.dim(2));
        let m = k.dim(1);
        assert_eq!((k.dim(0), k.dim(2)), (b, d), "attention q {} vs k {}", self.shape(), k.shape());
        assert!(heads > 0 && d % heads == 0, "{heads} heads do not divide d = {d}");
        let dh = d / heads;
        let mut out = vec![0.0f32; b * n * d];
        if out.is_empty() {
            return Tensor::from_vec(out, &[b, n, d]);
        }
        let (qd, kd, vd) = (self.data(), k.data(), v.data());
        parallel_rows_in(num_threads(), &mut out, b, n * d, 1, |batch_start, chunk| {
            let mut scratch = Scratch::take(&HEADS, 2 * n * dh + 2 * dh * m + n * m);
            let (qh, rest) = scratch.split_at_mut(n * dh);
            let (kt, rest) = rest.split_at_mut(dh * m);
            let (vh, rest) = rest.split_at_mut(m * dh);
            let (scores, oh) = rest.split_at_mut(n * m);
            for (bi, obatch) in chunk.chunks_mut(n * d).enumerate() {
                let batch = batch_start + bi;
                let q = &qd[batch * n * d..(batch + 1) * n * d];
                let kb = &kd[batch * m * d..(batch + 1) * m * d];
                let vb = &vd[batch * m * d..(batch + 1) * m * d];
                for h in 0..heads {
                    let c0 = h * dh;
                    for (dst, src) in qh.chunks_exact_mut(dh).zip(q.chunks_exact(d)) {
                        dst.copy_from_slice(&src[c0..c0 + dh]);
                    }
                    for (t, (krow, vrow)) in kb.chunks_exact(d).zip(vb.chunks_exact(d)).enumerate()
                    {
                        for (j, &kv) in krow[c0..c0 + dh].iter().enumerate() {
                            kt[j * m + t] = kv;
                        }
                        vh[t * dh..(t + 1) * dh].copy_from_slice(&vrow[c0..c0 + dh]);
                    }
                    scores.fill(0.0);
                    gemm_serial_as(isa, qh, kt, scores, n, dh, m);
                    mul_scalar_inplace_as(isa, scores, scale);
                    softmax_rows_inplace(isa, scores, m);
                    oh.fill(0.0);
                    gemm_serial_as(isa, scores, vh, oh, n, m, dh);
                    for (orow, src) in obatch.chunks_exact_mut(d).zip(oh.chunks_exact(dh)) {
                        orow[c0..c0 + dh].copy_from_slice(src);
                    }
                }
            }
        });
        Tensor::from_vec(out, &[b, n, d])
    }
}

/// Dot product with 4-way unrolled accumulation.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        acc[0] += a[i] * b[i];
        acc[1] += a[i + 1] * b[i + 1];
        acc[2] += a[i + 2] * b[i + 2];
        acc[3] += a[i + 3] * b[i + 3];
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        s += a[i] * b[i];
    }
    s
}

/// Threaded GEMM: `c[m×n] = a[m×k] × b[k×n]` (c must be zeroed).
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm lhs size");
    assert_eq!(b.len(), k * n, "gemm rhs size");
    assert_eq!(c.len(), m * n, "gemm out size");
    parallel_rows_in(num_threads(), c, m, n, 8, |row_start, chunk| {
        let rows = chunk.len() / n.max(1);
        gemm_serial(&a[row_start * k..(row_start + rows) * k], b, chunk, rows, k, n);
    });
}

/// Panel width of the NT micro-kernel: columns of `c` (rows of `b`)
/// interleaved per packed panel.
pub const NT_NR: usize = 8;

/// Row-block height of the NT micro-kernel.
pub const NT_MR: usize = 4;

/// Interleaves `rows` (≤ [`NT_NR`]) contiguous `k`-length rows of `b`
/// into a `[k][NT_NR]` panel (`bp[kk * NT_NR + r] = b[r][kk]`), zeroing
/// any missing lanes so the kernel always runs the full panel width.
///
/// # Panics
///
/// Panics (debug) on size mismatches.
pub fn pack_nt_panel(brows: &[f32], k: usize, rows: usize, bp: &mut [f32]) {
    debug_assert!(rows <= NT_NR, "panel overflow: {rows} rows");
    debug_assert_eq!(brows.len(), rows * k);
    debug_assert_eq!(bp.len(), k * NT_NR);
    if rows < NT_NR {
        bp.fill(0.0);
    }
    for (r, row) in brows.chunks_exact(k.max(1)).enumerate() {
        for (kk, &v) in row.iter().enumerate() {
            bp[kk * NT_NR + r] = v;
        }
    }
}

/// The NT micro-kernel over one packed panel, on an explicit ISA path:
/// writes columns `[j0, j0 + nw)` of `c` (rows of length `cstride`) with
/// `a[m,k] · panelᵀ`, overwriting.
///
/// `bp` is a `[k][NT_NR]` panel from [`pack_nt_panel`]. Full 4-row blocks
/// keep a 4×8 accumulator grid live across `k`; remainder rows run the
/// same panel one row at a time. Every output element accumulates its
/// products in ascending-`k` order in both paths, so results do not
/// depend on block or panel boundaries — the bit-determinism property
/// the threaded and fused-quantized callers rely on.
///
/// This is the dispatch point the differential tests drive from both
/// sides. An `isa` this machine cannot execute falls back to the scalar
/// reference (never faults), so callers may pass any variant; results
/// are bit-identical either way.
///
/// # Panics
///
/// Panics on size mismatches. (Real asserts, not debug: the SIMD kernels
/// read through raw pointers, so for a safe public entry point the size
/// invariants must hold in release builds too — where the scalar path
/// would panic on a bad slice index, an unchecked wide path would be
/// out-of-bounds UB. The checks are O(1) against the O(m·k·nw) kernel.)
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn gemm_nt_panel_as(
    isa: Isa,
    a: &[f32],
    bp: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    cstride: usize,
    j0: usize,
    nw: usize,
) {
    assert_eq!(a.len(), m * k, "lhs rows size");
    assert_eq!(bp.len(), k * NT_NR, "panel size");
    assert!((1..=NT_NR).contains(&nw), "panel width {nw}");
    assert!(m == 0 || j0 + nw <= cstride, "columns past row end");
    assert!(c.len() >= m.saturating_sub(1) * cstride + j0 + nw || m == 0, "output too short");
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if isa.is_supported() => {
            // Safety: the AVX2 feature set was verified at runtime, and
            // the size invariants were asserted above (the kernel touches
            // exactly the same slice ranges as the scalar path).
            unsafe { avx2::gemm_nt_panel(a, bp, c, m, k, cstride, j0, nw) }
        }
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => {
            // Safety: NEON is baseline on aarch64; size invariants as
            // above.
            unsafe { neon::gemm_nt_panel(a, bp, c, m, k, cstride, j0, nw) }
        }
        _ => gemm_nt_panel_scalar(a, bp, c, m, k, cstride, j0, nw),
    }
}

/// The scalar reference implementation of [`gemm_nt_panel_as`] — the
/// bit-identity oracle every SIMD path is pinned to.
///
/// # Panics
///
/// Panics (debug) on size mismatches.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_panel_scalar(
    a: &[f32],
    bp: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    cstride: usize,
    j0: usize,
    nw: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(bp.len(), k * NT_NR);
    debug_assert!((1..=NT_NR).contains(&nw), "panel width {nw}");
    let mut i0 = 0;
    while i0 + NT_MR <= m {
        let arows: [&[f32]; NT_MR] =
            core::array::from_fn(|ii| &a[(i0 + ii) * k..(i0 + ii + 1) * k]);
        let mut acc = [[0.0f32; NT_NR]; NT_MR];
        for kk in 0..k {
            let bv = &bp[kk * NT_NR..(kk + 1) * NT_NR];
            for ii in 0..NT_MR {
                let av = arows[ii][kk];
                for jj in 0..NT_NR {
                    acc[ii][jj] += av * bv[jj];
                }
            }
        }
        for (ii, accrow) in acc.iter().enumerate() {
            let base = (i0 + ii) * cstride + j0;
            c[base..base + nw].copy_from_slice(&accrow[..nw]);
        }
        i0 += NT_MR;
    }
    while i0 < m {
        let arow = &a[i0 * k..(i0 + 1) * k];
        let mut acc = [0.0f32; NT_NR];
        for kk in 0..k {
            let av = arow[kk];
            let bv = &bp[kk * NT_NR..(kk + 1) * NT_NR];
            for jj in 0..NT_NR {
                acc[jj] += av * bv[jj];
            }
        }
        let base = i0 * cstride + j0;
        c[base..base + nw].copy_from_slice(&acc[..nw]);
        i0 += 1;
    }
}

/// The direct-convolution NT micro-kernel: [`gemm_nt_panel_as`] with the
/// `[k][NT_NR]` operand read in place from an image instead of a packed
/// panel. Writes the `bases.len()` full panels of columns
/// `[t·NT_NR, (t+1)·NT_NR)` of `c` (rows of length `cstride`) with
/// `a[m,k] · panel_tᵀ`, overwriting, where lanes `0..4` of panel `t`'s
/// row `kk` are `img[bases[t] + off[kk]..][..4]` and lanes `4..8` are
/// `img[bases[t] + off[kk] + half..][..4]`; `k = off.len()`.
///
/// A stride-1 convolution over a zero-bordered image is exactly this
/// shape: `off` holds each tap's offset and `bases` each 8-pixel tile's
/// top-left corner, so the im2col lowering disappears. Every output
/// element accumulates the same products in the same ascending-`k` order
/// as [`gemm_nt_panel_as`] on the lowered panel, so the two are
/// bit-identical, and every ISA path is bit-identical to the scalar
/// reference ([`gemm_nt_direct_scalar`]).
///
/// # Panics
///
/// Panics on size mismatches, or when a lane would read past `img`.
/// (Real asserts, as in [`gemm_nt_panel_as`]: the SIMD paths read
/// through raw pointers.)
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_direct_as(
    isa: Isa,
    a: &[f32],
    img: &[f32],
    off: &[usize],
    bases: &[usize],
    half: usize,
    c: &mut [f32],
    m: usize,
    cstride: usize,
) {
    let k = off.len();
    assert_eq!(a.len(), m * k, "lhs rows size");
    if m == 0 || bases.is_empty() {
        return;
    }
    let cols = bases.len() * NT_NR;
    assert!(cols <= cstride, "columns past row end");
    assert!(c.len() >= (m - 1) * cstride + cols, "output too short");
    if let (Some(&top_off), Some(&top_base)) = (off.iter().max(), bases.iter().max()) {
        // The farthest lane read is the last of the upper half.
        let reach = top_base.saturating_add(top_off).saturating_add(half).saturating_add(4);
        assert!(reach <= img.len(), "lanes read past image");
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if isa.is_supported() => {
            // Safety: AVX2 verified at runtime; every lane read and
            // output write is in bounds per the asserts above.
            unsafe { avx2::gemm_nt_direct(a, img, off, bases, half, c, m, cstride) }
        }
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => {
            // Safety: NEON is baseline on aarch64; bounds as above.
            unsafe { neon::gemm_nt_direct(a, img, off, bases, half, c, m, cstride) }
        }
        _ => gemm_nt_direct_scalar(a, img, off, bases, half, c, m, cstride),
    }
}

/// The scalar reference of [`gemm_nt_direct_as`] — the bit-identity
/// oracle of its SIMD paths.
///
/// # Panics
///
/// Panics on a lane or output index out of bounds.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_direct_scalar(
    a: &[f32],
    img: &[f32],
    off: &[usize],
    bases: &[usize],
    half: usize,
    c: &mut [f32],
    m: usize,
    cstride: usize,
) {
    let k = off.len();
    for (t, &base) in bases.iter().enumerate() {
        for i in 0..m {
            let mut acc = [0.0f32; NT_NR];
            for (&av, &o) in a[i * k..(i + 1) * k].iter().zip(off) {
                let (lo, hi) = (&img[base + o..][..4], &img[base + o + half..][..4]);
                for r in 0..4 {
                    acc[r] += av * lo[r];
                    acc[r + 4] += av * hi[r];
                }
            }
            c[i * cstride + t * NT_NR..][..NT_NR].copy_from_slice(&acc);
        }
    }
}

/// AVX2 NT micro-kernel: accumulator rows live whole in 256-bit
/// registers; one broadcast + multiply + add per row per `k` step. The
/// main block is *eight* rows tall (not the scalar kernel's
/// [`NT_MR`] = 4): without fused multiply-adds the adds form one
/// latency-bound dependency chain per accumulator, and eight independent
/// chains are needed to fill both FP add ports — row blocking never
/// changes the per-element accumulation order, so bit-identity is
/// unaffected. Deliberately `_mm256_mul_ps` + `_mm256_add_ps`, **not**
/// `_mm256_fmadd_ps`: FMA's single rounding would break bit-identity
/// with the scalar reference (see [`crate::simd`]).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{NT_MR, NT_NR};
    use core::arch::x86_64::*;

    /// Rows per main block: 8 accumulators + the panel stripe + one
    /// broadcast still fit the 16 `ymm` registers.
    const MR_WIDE: usize = 2 * NT_MR;

    /// # Safety
    ///
    /// Requires AVX2 at runtime; slice sizes per [`super::gemm_nt_panel_as`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_nt_panel(
        a: &[f32],
        bp: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        cstride: usize,
        j0: usize,
        nw: usize,
    ) {
        let ap = a.as_ptr();
        let bpp = bp.as_ptr();
        let mut i0 = 0;
        while i0 + MR_WIDE <= m {
            let rows: [*const f32; MR_WIDE] = core::array::from_fn(|ii| ap.add((i0 + ii) * k));
            let mut acc = [_mm256_setzero_ps(); MR_WIDE];
            for kk in 0..k {
                let bv = _mm256_loadu_ps(bpp.add(kk * NT_NR));
                for (accr, row) in acc.iter_mut().zip(rows) {
                    // Same per-element order as the scalar kernel:
                    // (a * b) then (acc + product), ascending k.
                    *accr = _mm256_add_ps(*accr, _mm256_mul_ps(_mm256_set1_ps(*row.add(kk)), bv));
                }
            }
            for (ii, accr) in acc.iter().enumerate() {
                store_lanes(*accr, &mut c[(i0 + ii) * cstride + j0..], nw);
            }
            i0 += MR_WIDE;
        }
        if i0 + NT_MR <= m {
            let rows: [*const f32; NT_MR] = core::array::from_fn(|ii| ap.add((i0 + ii) * k));
            let mut acc = [_mm256_setzero_ps(); NT_MR];
            for kk in 0..k {
                let bv = _mm256_loadu_ps(bpp.add(kk * NT_NR));
                for (accr, row) in acc.iter_mut().zip(rows) {
                    *accr = _mm256_add_ps(*accr, _mm256_mul_ps(_mm256_set1_ps(*row.add(kk)), bv));
                }
            }
            for (ii, accr) in acc.iter().enumerate() {
                store_lanes(*accr, &mut c[(i0 + ii) * cstride + j0..], nw);
            }
            i0 += NT_MR;
        }
        while i0 < m {
            let arow = ap.add(i0 * k);
            let mut acc = _mm256_setzero_ps();
            for kk in 0..k {
                let bv = _mm256_loadu_ps(bpp.add(kk * NT_NR));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(*arow.add(kk)), bv));
            }
            store_lanes(acc, &mut c[i0 * cstride + j0..], nw);
            i0 += 1;
        }
    }

    /// Writes the first `nw` lanes of `v` to `dst` (full-width store when
    /// the panel is full, spill-and-copy on edge tiles).
    ///
    /// # Safety
    ///
    /// Requires AVX; `dst` must hold at least `nw` elements.
    #[target_feature(enable = "avx2")]
    unsafe fn store_lanes(v: __m256, dst: &mut [f32], nw: usize) {
        if nw == NT_NR {
            _mm256_storeu_ps(dst.as_mut_ptr(), v);
        } else {
            let mut tmp = [0.0f32; NT_NR];
            _mm256_storeu_ps(tmp.as_mut_ptr(), v);
            dst[..nw].copy_from_slice(&tmp[..nw]);
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 at runtime; bounds per [`super::gemm_nt_direct_as`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_nt_direct(
        a: &[f32],
        img: &[f32],
        off: &[usize],
        bases: &[usize],
        half: usize,
        c: &mut [f32],
        m: usize,
        cstride: usize,
    ) {
        if half == NT_NR / 2 {
            direct::<false>(a, img, off, bases, half, c, m, cstride)
        } else {
            direct::<true>(a, img, off, bases, half, c, m, cstride)
        }
    }

    /// [`gemm_nt_direct`] with the two lane halves adjacent (one 256-bit
    /// load per `k` step) or `half` apart (`SPLIT`: two 128-bit loads).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn direct<const SPLIT: bool>(
        a: &[f32],
        img: &[f32],
        off: &[usize],
        bases: &[usize],
        half: usize,
        c: &mut [f32],
        m: usize,
        cstride: usize,
    ) {
        let k = off.len();
        for (t, &base) in bases.iter().enumerate() {
            let src = img.as_ptr().add(base);
            let dst = c.as_mut_ptr().add(t * NT_NR);
            let rows = |i0: usize| (a.as_ptr().add(i0 * k), dst.add(i0 * cstride));
            let mut i0 = 0;
            while i0 + MR_WIDE <= m {
                let (ap, cp) = rows(i0);
                direct_rows::<MR_WIDE, SPLIT>(ap, k, src, off, half, cp, cstride);
                i0 += MR_WIDE;
            }
            if i0 + NT_MR <= m {
                let (ap, cp) = rows(i0);
                direct_rows::<NT_MR, SPLIT>(ap, k, src, off, half, cp, cstride);
                i0 += NT_MR;
            }
            while i0 < m {
                let (ap, cp) = rows(i0);
                direct_rows::<1, SPLIT>(ap, k, src, off, half, cp, cstride);
                i0 += 1;
            }
        }
    }

    /// `MR` filter rows (`ap`, row length `k`) against one in-place
    /// panel: the same mul-then-add per ascending `k` step as
    /// [`super::gemm_nt_panel_as`], with the stripe loaded from `src + off[kk]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn direct_rows<const MR: usize, const SPLIT: bool>(
        ap: *const f32,
        k: usize,
        src: *const f32,
        off: &[usize],
        half: usize,
        dst: *mut f32,
        cstride: usize,
    ) {
        let mut acc = [_mm256_setzero_ps(); MR];
        for (kk, &o) in off.iter().enumerate() {
            let p = src.add(o);
            let bv = if SPLIT {
                let lo = _mm256_castps128_ps256(_mm_loadu_ps(p));
                _mm256_insertf128_ps::<1>(lo, _mm_loadu_ps(p.add(half)))
            } else {
                _mm256_loadu_ps(p)
            };
            for (ii, accr) in acc.iter_mut().enumerate() {
                *accr =
                    _mm256_add_ps(*accr, _mm256_mul_ps(_mm256_set1_ps(*ap.add(ii * k + kk)), bv));
            }
        }
        for (ii, accr) in acc.iter().enumerate() {
            _mm256_storeu_ps(dst.add(ii * cstride), *accr);
        }
    }
}

/// NEON NT micro-kernel: the 8-lane panel stripe is two 128-bit halves;
/// each accumulator row is a `float32x4_t` pair. Deliberately `vmulq` +
/// `vaddq`, **not** `vfmaq`/`vmlaq` (which lower to fused `FMLA`): FMA's
/// single rounding would break bit-identity with the scalar reference
/// (see [`crate::simd`]).
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{NT_MR, NT_NR};
    use core::arch::aarch64::*;

    /// # Safety
    ///
    /// NEON is baseline on aarch64; slice sizes per
    /// [`super::gemm_nt_panel_as`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn gemm_nt_panel(
        a: &[f32],
        bp: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        cstride: usize,
        j0: usize,
        nw: usize,
    ) {
        let ap = a.as_ptr();
        let bpp = bp.as_ptr();
        let zero = vdupq_n_f32(0.0);
        let mut i0 = 0;
        while i0 + NT_MR <= m {
            let rows: [*const f32; NT_MR] = core::array::from_fn(|ii| ap.add((i0 + ii) * k));
            let mut acc = [[zero; 2]; NT_MR];
            for kk in 0..k {
                let blo = vld1q_f32(bpp.add(kk * NT_NR));
                let bhi = vld1q_f32(bpp.add(kk * NT_NR + 4));
                for (accr, row) in acc.iter_mut().zip(rows) {
                    // Same per-element order as the scalar kernel:
                    // (a * b) then (acc + product), ascending k.
                    let av = vdupq_n_f32(*row.add(kk));
                    accr[0] = vaddq_f32(accr[0], vmulq_f32(av, blo));
                    accr[1] = vaddq_f32(accr[1], vmulq_f32(av, bhi));
                }
            }
            for (ii, accr) in acc.iter().enumerate() {
                store_lanes(accr, &mut c[(i0 + ii) * cstride + j0..], nw);
            }
            i0 += NT_MR;
        }
        while i0 < m {
            let arow = ap.add(i0 * k);
            let mut acc = [zero; 2];
            for kk in 0..k {
                let blo = vld1q_f32(bpp.add(kk * NT_NR));
                let bhi = vld1q_f32(bpp.add(kk * NT_NR + 4));
                let av = vdupq_n_f32(*arow.add(kk));
                acc[0] = vaddq_f32(acc[0], vmulq_f32(av, blo));
                acc[1] = vaddq_f32(acc[1], vmulq_f32(av, bhi));
            }
            store_lanes(&acc, &mut c[i0 * cstride + j0..], nw);
            i0 += 1;
        }
    }

    /// Writes the first `nw` of the 8 accumulated lanes to `dst`.
    ///
    /// # Safety
    ///
    /// `dst` must hold at least `nw` elements.
    #[target_feature(enable = "neon")]
    unsafe fn store_lanes(v: &[float32x4_t; 2], dst: &mut [f32], nw: usize) {
        if nw == NT_NR {
            vst1q_f32(dst.as_mut_ptr(), v[0]);
            vst1q_f32(dst.as_mut_ptr().add(4), v[1]);
        } else {
            let mut tmp = [0.0f32; NT_NR];
            vst1q_f32(tmp.as_mut_ptr(), v[0]);
            vst1q_f32(tmp.as_mut_ptr().add(4), v[1]);
            dst[..nw].copy_from_slice(&tmp[..nw]);
        }
    }

    /// # Safety
    ///
    /// NEON is baseline on aarch64; bounds per
    /// [`super::gemm_nt_direct_as`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn gemm_nt_direct(
        a: &[f32],
        img: &[f32],
        off: &[usize],
        bases: &[usize],
        half: usize,
        c: &mut [f32],
        m: usize,
        cstride: usize,
    ) {
        let k = off.len();
        for (t, &base) in bases.iter().enumerate() {
            let src = img.as_ptr().add(base);
            let dst = c.as_mut_ptr().add(t * NT_NR);
            let mut i0 = 0;
            while i0 + NT_MR <= m {
                let (ap, cp) = (a.as_ptr().add(i0 * k), dst.add(i0 * cstride));
                direct_rows::<NT_MR>(ap, k, src, off, half, cp, cstride);
                i0 += NT_MR;
            }
            while i0 < m {
                let (ap, cp) = (a.as_ptr().add(i0 * k), dst.add(i0 * cstride));
                direct_rows::<1>(ap, k, src, off, half, cp, cstride);
                i0 += 1;
            }
        }
    }

    /// `MR` filter rows against one in-place panel: the lane halves are
    /// the two 128-bit loads at `src + off[kk]` and `+ half`, with the
    /// same mul-then-add per ascending `k` step as [`gemm_nt_panel_as`].
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn direct_rows<const MR: usize>(
        ap: *const f32,
        k: usize,
        src: *const f32,
        off: &[usize],
        half: usize,
        dst: *mut f32,
        cstride: usize,
    ) {
        let zero = vdupq_n_f32(0.0);
        let mut acc = [[zero; 2]; MR];
        for (kk, &o) in off.iter().enumerate() {
            let blo = vld1q_f32(src.add(o));
            let bhi = vld1q_f32(src.add(o + half));
            for (ii, accr) in acc.iter_mut().enumerate() {
                let av = vdupq_n_f32(*ap.add(ii * k + kk));
                accr[0] = vaddq_f32(accr[0], vmulq_f32(av, blo));
                accr[1] = vaddq_f32(accr[1], vmulq_f32(av, bhi));
            }
        }
        for (ii, accr) in acc.iter().enumerate() {
            vst1q_f32(dst.add(ii * cstride), accr[0]);
            vst1q_f32(dst.add(ii * cstride + 4), accr[1]);
        }
    }
}

/// Serial NT kernel on an explicit ISA path (see [`gemm_nt_panel_as`]):
/// `c[m,n] = a[m,k] · b[n,k]ᵀ`, overwriting `c`, one freshly packed `b`
/// panel at a time. The single-threaded whole-matrix reference the
/// differential SIMD tests compare the threaded dispatched paths
/// against.
///
/// # Panics
///
/// Panics (debug) on size mismatches.
pub fn gemm_nt_serial_as(
    isa: Isa,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    let mut bp = vec![0.0f32; k * NT_NR];
    for j0 in (0..n).step_by(NT_NR) {
        let nw = NT_NR.min(n - j0);
        pack_nt_panel(&b[j0 * k..(j0 + nw) * k], k, nw, &mut bp);
        gemm_nt_panel_as(isa, a, &bp, c, m, k, n, j0, nw);
    }
}

/// `a [.., k] × wᵀ [n, k] → [m, n]` — the one NT GEMM, over dense and
/// packed weights alike ([`Tensor::matmul_nt`] and
/// `fpdq_kernels::gemm_packed` are its entry points). The activations
/// are read in place as the `m = numel / k` rows of a row-major `[m, k]`
/// matrix. When a dim is 0 the result is the all-zero `[m, n]` (an empty
/// sum).
///
/// `act`, when set, quantizes the activations as they are staged: per
/// tensor, or per channel with `channels == k`, where column `j`
/// quantizes through table `j`. `exec` names the ISA path of the weight
/// decode, the activation stage and the micro-kernel, and the worker
/// count of both the regime decision ([`pick_gemm_regime`]) and the
/// parallel split:
///
/// * **Column-parallel** (activation-stationary; every one-worker call,
///   and batched activations against narrow layers). The weights are
///   interleaved once, in parallel, into a shared `[k][NT_NR]` panel bank
///   (decoded rows first, for packed weights); workers split the
///   *activation rows*, stage their own rows [`ACT_BLOCK`] at a time, and
///   sweep the weight panels, writing the `[m, n]` output in place.
/// * **Row-parallel** (weight-stationary; small activation matrices on
///   several workers). The activation rows are staged and interleaved
///   into shared `[k][NT_NR]` panels ([`pack_nt_panel`]) once, in
///   parallel, so each row is quantized exactly once per call. Workers
///   then split the weight rows on the register-block grid and read them
///   8 at a time (each packed tile decoded once per call, however many
///   images the activation matrix stacks), into an `[n, m]` block
///   transposed once at the end.
///
/// Every output element accumulates `0.0 + Σ w·a` in ascending `k`,
/// multiply then add, in both schedules (swapping which operand rides the
/// panel only swaps the factor order of each IEEE multiply, which is
/// bitwise commutative). The result is therefore bit-identical for every
/// `exec`, regime and weight source, and the fused stage is bit-exact
/// with quantizing the whole tensor first.
///
/// # Panics
///
/// Panics on shape mismatches (including a 0-D `a` or a weight that is
/// not 2-D), or if a per-channel stage's channel count differs from `k`.
pub fn gemm_nt(a: &Tensor, w: Weights<'_>, act: Option<&dyn ActStage>, exec: Exec) -> Tensor {
    let wd = w.dims();
    assert_eq!(wd.len(), 2, "weights must be [n, k], got {wd:?}");
    let (n, k) = (wd[0], wd[1]);
    let (&ak, lead) = a.dims().split_last().expect("activations must be [.., k], got a scalar");
    assert_eq!(ak, k, "inner dims differ: {ak} vs {k}");
    if let Some(st) = act {
        assert!(
            st.channels() == 1 || st.channels() == k,
            "per-channel activation quantizer has {} channels for k = {k}",
            st.channels()
        );
    }
    let m = lead.iter().product();
    if m == 0 || n == 0 || k == 0 {
        return Tensor::zeros(&[m, n]);
    }
    let gemm = Gemm { a: a.data(), m, n, k, w, act, isa: exec.isa };
    match pick_gemm_regime(m, n, exec.workers) {
        GemmRegime::RowParallel => gemm.row_parallel(exec.workers),
        GemmRegime::ColParallel => gemm.col_parallel(exec.workers),
    }
}

/// Weight rows read per scratch refill of the row-parallel schedule.
/// Large enough to amortise a packed decode across the register blocks,
/// small enough to stay cache-hot (8 rows × k floats).
const WTILE_ROWS: usize = 8;

/// One [`gemm_nt`] call.
struct Gemm<'a> {
    a: &'a [f32],
    m: usize,
    n: usize,
    k: usize,
    w: Weights<'a>,
    act: Option<&'a dyn ActStage>,
    isa: Isa,
}

impl Gemm<'_> {
    /// Activation rows `[r0, r0 + len / k)`: staged into `scratch`
    /// through the fused stage, or read in place without one.
    fn act_rows<'s>(&'s self, r0: usize, len: usize, scratch: &'s mut [f32]) -> &'s [f32] {
        let src = &self.a[r0 * self.k..][..len];
        match self.act {
            Some(st) => {
                // One-element planes: element `i` of the block quantizes
                // through channel `i % channels`, its column.
                st.quantize_planes_into_as(self.isa, src, &mut scratch[..len], Planes::dense(1));
                &scratch[..len]
            }
            None => src,
        }
    }

    /// Weight-stationary schedule: shared staged activation panels,
    /// workers split the weight rows, into an `[n, m]` block transposed
    /// at the end.
    fn row_parallel(&self, workers: usize) -> Tensor {
        let Gemm { m, n, k, isa, .. } = *self;
        let mpanels = m.div_ceil(NT_NR);
        let mut panels = Scratch::take(&WEIGHTS, mpanels * k * NT_NR);
        parallel_rows_in(workers, &mut panels, mpanels, k * NT_NR, 1, |p0, chunk| {
            let mut qrows = Scratch::take(&ACTS, if self.act.is_some() { NT_NR * k } else { 0 });
            for (pi, bp) in chunk.chunks_mut(k * NT_NR).enumerate() {
                let j0 = (p0 + pi) * NT_NR;
                let nw = NT_NR.min(m - j0);
                pack_nt_panel(self.act_rows(j0, nw * k, &mut qrows), k, nw, bp);
            }
        });
        let panels = &*panels;
        let mut out = vec![0.0f32; n * m];
        parallel_rows_aligned_in(workers, &mut out, n, m, 4, NT_MR, |row_start, chunk| {
            let rows = chunk.len() / m;
            let mut wtile = Scratch::take(&ACTS, self.w.scratch_len(WTILE_ROWS * k));
            for wt in (0..rows).step_by(WTILE_ROWS) {
                let wh = WTILE_ROWS.min(rows - wt);
                let wrows = self.w.rows(isa, (row_start + wt) * k, wh * k, &mut wtile);
                let cblock = &mut chunk[wt * m..(wt + wh) * m];
                for (p, bp) in panels.chunks_exact(k * NT_NR).enumerate() {
                    let j0 = p * NT_NR;
                    gemm_nt_panel_as(isa, wrows, bp, cblock, wh, k, m, j0, NT_NR.min(m - j0));
                }
            }
        });
        Tensor::from_vec(out, &[n, m]).transpose()
    }

    /// Activation-stationary schedule: the weights interleave once into a
    /// shared panel bank, and workers split the activation rows, writing
    /// the `[m, n]` output in place.
    fn col_parallel(&self, workers: usize) -> Tensor {
        let Gemm { m, n, k, isa, .. } = *self;
        let wtiles = n.div_ceil(NT_NR);
        let mut wpanels = Scratch::take(&WEIGHTS, wtiles * k * NT_NR);
        parallel_rows_in(workers, &mut wpanels, wtiles, k * NT_NR, 1, |t0, chunk| {
            let mut wrows = Scratch::take(&STAGED, self.w.scratch_len(NT_NR * k));
            for (ti, bp) in chunk.chunks_mut(k * NT_NR).enumerate() {
                let j0 = (t0 + ti) * NT_NR;
                let nw = NT_NR.min(n - j0);
                pack_nt_panel(self.w.rows(isa, j0 * k, nw * k, &mut wrows), k, nw, bp);
            }
        });
        let wpanels = &*wpanels;
        let mut out = vec![0.0f32; m * n];
        parallel_rows_aligned_in(workers, &mut out, m, n, 4, NT_MR, |m0, chunk| {
            let rows = chunk.len() / n;
            let mut qblock =
                Scratch::take(&ACTS, if self.act.is_some() { ACT_BLOCK * k } else { 0 });
            for mb in (0..rows).step_by(ACT_BLOCK) {
                let mh = ACT_BLOCK.min(rows - mb);
                let arows = self.act_rows(m0 + mb, mh * k, &mut qblock);
                let cblock = &mut chunk[mb * n..(mb + mh) * n];
                for (t, bp) in wpanels.chunks_exact(k * NT_NR).enumerate() {
                    let j0 = t * NT_NR;
                    gemm_nt_panel_as(isa, arows, bp, cblock, mh, k, n, j0, NT_NR.min(n - j0));
                }
            }
        });
        Tensor::from_vec(out, &[m, n])
    }
}

/// Single-threaded NN GEMM micro-kernel (`i-k-j` order, contiguous inner
/// loop), blocked four output rows at a time so each streamed `b` row is
/// reused fourfold. `c` must be zeroed (accumulates).
///
/// A 4-row block skips step `kk` when all four of its `a` values are zero
/// (quantization-induced sparsity), and each remainder row skips on its
/// own zero. This is the scalar reference of [`gemm_serial_as`].
pub fn gemm_serial(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let mut rows = c.chunks_exact_mut(4 * n);
    let mut i = 0;
    for block in &mut rows {
        let (c0, rest) = block.split_at_mut(n);
        let (c1, rest) = rest.split_at_mut(n);
        let (c2, c3) = rest.split_at_mut(n);
        let (a0, a1, a2, a3) = (
            &a[i * k..(i + 1) * k],
            &a[(i + 1) * k..(i + 2) * k],
            &a[(i + 2) * k..(i + 3) * k],
            &a[(i + 3) * k..(i + 4) * k],
        );
        for kk in 0..k {
            let (v0, v1, v2, v3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
            if v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0 {
                continue; // quantization-induced sparsity skip
            }
            let brow = &b[kk * n..kk * n + n];
            for (j, &bv) in brow.iter().enumerate() {
                c0[j] += v0 * bv;
                c1[j] += v1 * bv;
                c2[j] += v2 * bv;
                c3[j] += v3 * bv;
            }
        }
        i += 4;
    }
    for crow in rows.into_remainder().chunks_mut(n.max(1)) {
        let arow = &a[i * k..(i + 1) * k];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[kk * n..kk * n + n];
            for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                *cv += av * bv;
            }
        }
        i += 1;
    }
}

/// [`gemm_serial`] on an explicit ISA path: `c[m×n] += a[m×k] · b[k×n]`.
///
/// The AVX2 path keeps, for every element, the scalar path's ascending-`k`
/// accumulation with a separate multiply then add (no FMA) and the same
/// zero skips (a 4-row block skips `kk` only when all four of its `a`
/// values are zero; a remainder row skips on its own zero), so it is
/// bit-identical to [`gemm_serial`] (up to the NaN payload that
/// [`crate::simd`] leaves open when an accumulator and a product are both
/// NaN). It holds 4 rows × 16 columns of `c`
/// in registers across the whole `k` loop, and the last `n % 8` columns
/// in one masked tile. Other ISAs run the scalar reference.
///
/// # Panics
///
/// Panics on size mismatches (real asserts: the AVX2 path reads through
/// raw pointers).
pub fn gemm_serial_as(isa: Isa, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm lhs size");
    assert_eq!(b.len(), k * n, "gemm rhs size");
    assert_eq!(c.len(), m * n, "gemm out size");
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if isa.is_supported() => {
            // Safety: AVX2 verified at runtime; sizes asserted above.
            unsafe { avx2_nn::gemm_serial(a, b, c, m, k, n) }
        }
        _ => gemm_serial(a, b, c, m, k, n),
    }
}

/// The AVX2 body of [`gemm_serial_as`]: a 4-row (or 1-row) block of `c`
/// is held in registers, 8 columns per register, while `k` streams.
/// Deliberately `_mm256_mul_ps` + `_mm256_add_ps`, never a fused
/// multiply-add (see [`crate::simd`]).
#[cfg(target_arch = "x86_64")]
mod avx2_nn {
    use core::arch::x86_64::*;

    /// # Safety
    ///
    /// Requires AVX2 at runtime; slice sizes per [`super::gemm_serial_as`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_serial(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let mut i = 0;
        while i + 4 <= m {
            rows::<4>(&a[i * k..(i + 4) * k], b, &mut c[i * n..(i + 4) * n], k, n);
            i += 4;
        }
        while i < m {
            rows::<1>(&a[i * k..(i + 1) * k], b, &mut c[i * n..(i + 1) * n], k, n);
            i += 1;
        }
    }

    /// `R` rows of `c` (`R` rows of `a` of length `k`): 16-column and
    /// 8-column register tiles, then one masked tile over the last
    /// `n % 8` columns.
    ///
    /// # Safety
    ///
    /// Requires AVX2 at runtime; `a` holds `R·k`, `b` `k·n` and `c` `R·n`
    /// floats.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn rows<const R: usize>(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
        let mut j = 0;
        while j + 16 <= n {
            tile::<R, 2>(a, b, c, k, n, j, None);
            j += 16;
        }
        if j + 8 <= n {
            tile::<R, 1>(a, b, c, k, n, j, None);
            j += 8;
        }
        if j < n {
            let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32((n - j) as i32), lanes);
            tile::<R, 1>(a, b, c, k, n, j, Some(mask));
        }
    }

    /// Columns `[j, j + 8·T)` of `R` rows, accumulated in registers; with
    /// `mask`, only its lanes of one tile are read and written. Step `kk`
    /// is skipped when all `R` of its `a` values are zero.
    ///
    /// # Safety
    ///
    /// As [`rows`], with `j + 8·T ≤ n`, or `mask` covering only columns
    /// below `n`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tile<const R: usize, const T: usize>(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        k: usize,
        n: usize,
        j: usize,
        mask: Option<__m256i>,
    ) {
        let (ap, bp, cp) = (a.as_ptr(), b.as_ptr().add(j), c.as_mut_ptr().add(j));
        let load = |p: *const f32| match mask {
            Some(mk) => _mm256_maskload_ps(p, mk),
            None => _mm256_loadu_ps(p),
        };
        let mut acc: [[__m256; T]; R] =
            core::array::from_fn(|r| core::array::from_fn(|t| load(cp.add(r * n + 8 * t))));
        for kk in 0..k {
            let av: [f32; R] = core::array::from_fn(|r| *ap.add(r * k + kk));
            if av.iter().all(|&v| v == 0.0) {
                continue; // the scalar kernel's sparsity skip
            }
            let bv: [__m256; T] = core::array::from_fn(|t| load(bp.add(kk * n + 8 * t)));
            for (accr, &v) in acc.iter_mut().zip(&av) {
                let av = _mm256_set1_ps(v);
                for (acct, &bt) in accr.iter_mut().zip(&bv) {
                    *acct = _mm256_add_ps(*acct, _mm256_mul_ps(av, bt));
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            for (t, &acct) in accr.iter().enumerate() {
                match mask {
                    Some(mk) => _mm256_maskstore_ps(cp.add(r * n + 8 * t), mk, acct),
                    None => _mm256_storeu_ps(cp.add(r * n + 8 * t), acct),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.dim(0), a.dim(1), b.dim(1));
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a.at(&[i, kk]) * b.at(&[kk, j]);
                }
                out.set(&[i, j], s);
            }
        }
        out
    }

    fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
        // Simple LCG so this test does not depend on the rng module.
        let n: usize = dims.iter().product();
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let data = (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            })
            .collect();
        Tensor::from_vec(data, dims)
    }

    #[test]
    fn matmul_matches_naive() {
        for (m, k, n) in [(1, 1, 1), (3, 4, 5), (17, 9, 23), (64, 32, 48)] {
            let a = rand_tensor(&[m, k], 1);
            let b = rand_tensor(&[k, n], 2);
            let fast = a.matmul(&b);
            let slow = naive(&a, &b);
            for (x, y) in fast.data().iter().zip(slow.data().iter()) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y} at ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn matmul_identity() {
        let a = rand_tensor(&[5, 5], 3);
        let i = Tensor::eye(5);
        assert_eq!(a.matmul(&i).data(), a.data());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = rand_tensor(&[7, 11], 4);
        let b = rand_tensor(&[13, 11], 5);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn tiled_nt_kernel_handles_edge_shapes() {
        // m/n/k off the 4×4 register-tile grid, single rows, and k below
        // the unroll width must all match the naive product.
        for (m, n, k) in [
            (1usize, 1usize, 1usize),
            (1, 9, 16),
            (2, 2, 2),
            (3, 5, 3),
            (4, 4, 4),
            (5, 4, 1),
            (6, 7, 2),
            (9, 13, 31),
            (17, 19, 23),
        ] {
            let a = rand_tensor(&[m, k], (m * 31 + n) as u64);
            let b = rand_tensor(&[n, k], (k * 17 + m) as u64);
            let fast = a.matmul_nt(&b);
            let slow = naive(&a, &b.transpose());
            for (i, (x, y)) in fast.data().iter().zip(slow.data().iter()).enumerate() {
                assert!((x - y).abs() < 1e-4, "({m},{n},{k}) elem {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn matmul_nt_rows_are_invariant_to_row_count() {
        // The m < NT_MR dot shortcut and the m >= NT_MR panel kernel
        // must produce bit-identical rows: a row's result cannot depend
        // on how many other rows (e.g. batch images) ride along.
        let k = 37; // off the unroll grid
        let b = rand_tensor(&[9, k], 40);
        let a = rand_tensor(&[6, k], 41);
        let full = a.matmul_nt(&b); // panel path
        for r in 0..6 {
            let row = Tensor::from_vec(a.data()[r * k..(r + 1) * k].to_vec(), &[1, k]);
            let single = row.matmul_nt(&b); // dot path (m = 1)
            for (i, (x, y)) in
                single.data().iter().zip(&full.data()[r * 9..(r + 1) * 9]).enumerate()
            {
                assert_eq!(x.to_bits(), y.to_bits(), "row {r} col {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = rand_tensor(&[11, 7], 6);
        let b = rand_tensor(&[11, 13], 7);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = rand_tensor(&[3, 4, 5], 8);
        let b = rand_tensor(&[3, 5, 6], 9);
        let fast = a.bmm(&b);
        for batch in 0..3 {
            let ab = a.narrow(0, batch, 1).reshape(&[4, 5]);
            let bb = b.narrow(0, batch, 1).reshape(&[5, 6]);
            let expect = ab.matmul(&bb);
            let got = fast.narrow(0, batch, 1).reshape(&[4, 6]);
            for (x, y) in got.data().iter().zip(expect.data().iter()) {
                assert!((x - y).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn nt_panel_isa_paths_are_bit_identical() {
        // Every ISA this machine supports must reproduce the scalar
        // reference bit-for-bit, across full and edge panel widths and
        // off-grid row counts.
        for (m, n, k) in [(1usize, 1usize, 1usize), (4, 8, 16), (5, 3, 7), (9, 13, 31), (2, 8, 1)] {
            let a = rand_tensor(&[m, k], (m * 7 + k) as u64);
            let b = rand_tensor(&[n, k], (n * 11 + k) as u64);
            let mut want = vec![0.0f32; m * n];
            gemm_nt_serial_as(crate::simd::Isa::Scalar, a.data(), b.data(), &mut want, m, k, n);
            for &isa in crate::simd::available() {
                let mut got = vec![f32::NAN; m * n];
                gemm_nt_serial_as(isa, a.data(), b.data(), &mut got, m, k, n);
                for (i, (x, y)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{:?} ({m},{n},{k}) elem {i}: {x} vs {y}",
                        isa
                    );
                }
            }
        }
    }

    #[test]
    fn direct_kernel_matches_the_packed_panel_on_every_isa() {
        // Reading the operand in place at tap offsets must give the bits
        // of the same panel packed explicitly, for adjacent (half = 4)
        // and split lane halves, off-grid row counts and non-finite
        // inputs, on every ISA.
        let mut img = rand_tensor(&[1, 160], 30).data().to_vec();
        img[20] = f32::NAN;
        img[33] = f32::INFINITY;
        img[61] = f32::NEG_INFINITY;
        img[70] = -0.0;
        let off = [0usize, 5, 9, 23, 40, 2, 77];
        let bases = [0usize, 13, 50];
        let k = off.len();
        let cstride = bases.len() * NT_NR + 3;
        for (m, half) in [(1usize, 4usize), (3, 4), (4, 11), (9, 4), (13, 17)] {
            let a = rand_tensor(&[m, k], m as u64 + 31);
            let mut want = vec![7.0f32; m * cstride];
            let mut bp = vec![0.0f32; k * NT_NR];
            for (t, &base) in bases.iter().enumerate() {
                for (kk, &o) in off.iter().enumerate() {
                    for r in 0..NT_NR {
                        bp[kk * NT_NR + r] = img[base + o + (r / 4) * half + r % 4];
                    }
                }
                gemm_nt_panel_scalar(a.data(), &bp, &mut want, m, k, cstride, t * NT_NR, NT_NR);
            }
            for &isa in crate::simd::available() {
                let mut got = vec![7.0f32; m * cstride];
                gemm_nt_direct_as(isa, a.data(), &img, &off, &bases, half, &mut got, m, cstride);
                for (i, (x, y)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{isa:?} m {m} half {half} elem {i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lanes read past image")]
    fn direct_kernel_rejects_reads_past_the_image() {
        let a = [1.0f32; 2];
        let mut c = [0.0f32; NT_NR];
        gemm_nt_direct_as(crate::simd::active(), &a, &[0.0; 11], &[0, 4], &[0], 4, &mut c, 1, 8);
    }

    #[test]
    fn nt_panel_unsupported_isa_falls_back_to_scalar() {
        // Passing an ISA this machine cannot execute must not fault; the
        // dispatcher silently runs the scalar reference.
        let foreign = if cfg!(target_arch = "x86_64") {
            crate::simd::Isa::Neon
        } else {
            crate::simd::Isa::Avx2
        };
        let a = rand_tensor(&[3, 5], 21);
        let b = rand_tensor(&[4, 5], 22);
        let (mut got, mut want) = (vec![0.0f32; 12], vec![0.0f32; 12]);
        gemm_nt_serial_as(foreign, a.data(), b.data(), &mut got, 3, 5, 4);
        gemm_nt_serial_as(crate::simd::Isa::Scalar, a.data(), b.data(), &mut want, 3, 5, 4);
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        a.matmul(&b);
    }
}
