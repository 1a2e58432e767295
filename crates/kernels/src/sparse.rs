//! Panel-packed sparse weight formats and kernels (paper §VI-G).
//!
//! The paper's quantizer multiplies weight sparsity by 20-620×; this
//! module turns that into *skipped work at dense-engine standards* instead
//! of a scalar side path. Two formats share one execution architecture:
//!
//! * [`CsrWeights`] — unstructured compressed rows over the zeros the
//!   quantizer creates: per weight row, sorted column indices plus the
//!   surviving values stored as packed quantized codes (FP4/FP8/INT4/INT8
//!   through the same LUT decode as [`crate::packed`]).
//! * [`TwoFourWeights`] — NVIDIA-style structured 2:4 pruning: within
//!   every group of 4 consecutive weights only the 2 largest-magnitude
//!   survive; the survivors are stored as packed quantized codes and
//!   their in-group positions as 2-bit metadata (1 byte per group).
//!
//! # Execution architecture
//!
//! Both formats run the dense packed GEMM's row-parallel schedule
//! ([`crate::gemm`]): the activation rows are quantized (optionally, via
//! the fused boundary-table [`PanelQuantizer`]) and interleaved into the
//! shared `[k][NT_NR]` panel bank exactly once per call, then workers
//! split the weight rows. The difference is the inner kernel: instead of
//! streaming every `k` step, `sparse_row_accum_as` walks only the
//! stored non-zeros — one broadcast-multiply-add against the panel's
//! 8-lane column stripe per stored value — with the same
//! ascending-stored-order accumulation in every ISA path (AVX2/NEON are
//! bit-identical to the scalar walk; no FMA, same operand order; see
//! [`fpdq_tensor::simd`]). The 2:4 kernel expands its 2-bit metadata to
//! column indices in-register; the CSR kernel reads its sorted index
//! array directly. Weight values decode through the packed LUT in
//! 8-row tiles, exactly like the dense GEMM.
//!
//! # Crossover dispatch
//!
//! Every GEMM entry point first consults
//! [`crate::schedule::pick_sparse_regime`]: above the measured density
//! crossover the call is handed to the *dense* packed GEMM — both types
//! implement [`PackedWeights`], so the dense engine streams their
//! scatter-decode like any packed tensor — which means installing a
//! sparse format can never make a layer slower than the packed dense
//! path it replaces. The regime depends only on density and structure
//! (never on worker count or ISA), so outputs stay bit-identical across
//! `FPDQ_THREADS` and forced-scalar runs.
//!
//! The byte-level layout contract (metadata encoding, index ordering,
//! accumulation-order guarantee) is documented in `docs/sparse.md`.

use crate::gemm::{gemm_packed, pack_act_panels, packed_gemm_rows};
use crate::packed::{PackedTensor, PackedWeights};
use crate::schedule::{pick_sparse_regime, SparseRegime};
use fpdq_core::{PanelQuantizer, TensorQuantizer};
use fpdq_tensor::matmul::NT_NR;
use fpdq_tensor::parallel::{parallel_rows_in, Exec};
use fpdq_tensor::simd::{self, Isa};
use fpdq_tensor::{FpdqError, Tensor};

/// Weight rows decoded per scratch refill in the sparse row sweep — the
/// same decode-amortisation grain as the dense GEMM's weight tiles.
const WTILE_ROWS: usize = 8;

/// Compressed sparse rows over a `[n, k]` weight matrix with quantized
/// packed values.
#[derive(Clone, Debug)]
pub struct CsrWeights {
    n: usize,
    k: usize,
    dims: [usize; 2],
    row_ptr: Vec<usize>,
    /// Column indices per stored value, ascending within each row.
    col_idx: Vec<u32>,
    /// Packed codes of the stored values, `[nnz]`, row-major.
    values: PackedTensor,
}

impl CsrWeights {
    /// Builds CSR from a dense `[n, k]` matrix: the weights are quantized
    /// with `format` and the exact zeros of the *quantized* matrix are
    /// dropped; survivors are stored as packed codes (bit-exact with the
    /// quantized dense matrix, since encode∘quantize is idempotent).
    ///
    /// Returns [`FpdqError::InvalidArgument`] when `w` is not 2-D.
    pub fn try_from_dense(w: &Tensor, format: &TensorQuantizer) -> Result<Self, FpdqError> {
        if w.ndim() != 2 {
            return Err(FpdqError::invalid(format!(
                "CSR weights must be a matrix, got {}",
                w.shape()
            )));
        }
        let (n, k) = (w.dim(0), w.dim(1));
        let q = format.quantize(w);
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut kept = Vec::new();
        row_ptr.push(0);
        for i in 0..n {
            for j in 0..k {
                let v = q.data()[i * k + j];
                if v != 0.0 {
                    col_idx.push(j as u32);
                    kept.push(v);
                }
            }
            row_ptr.push(kept.len());
        }
        let nnz = kept.len();
        let values = PackedTensor::encode(&Tensor::from_vec(kept, &[nnz]), *format);
        Ok(CsrWeights { n, k, dims: [n, k], row_ptr, col_idx, values })
    }

    /// Panicking convenience wrapper over [`Self::try_from_dense`].
    ///
    /// # Panics
    ///
    /// Panics if `w` is not 2-D.
    pub fn from_dense(w: &Tensor, format: &TensorQuantizer) -> Self {
        match Self::try_from_dense(w, format) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Fraction of zeros skipped (0.0 for an empty matrix).
    pub fn sparsity(&self) -> f32 {
        if self.n * self.k == 0 {
            return 0.0;
        }
        1.0 - self.nnz() as f32 / (self.n * self.k) as f32
    }

    /// Quantized format of the stored values.
    pub fn format(&self) -> TensorQuantizer {
        self.values.format()
    }

    /// Storage bytes (packed values + column indices + row pointers).
    pub fn payload_bytes(&self) -> usize {
        self.values.payload_bytes() + self.col_idx.len() * 4 + self.row_ptr.len() * 8
    }

    /// Reconstructs the dense quantized matrix (bit-exact with
    /// `format.quantize(w)` of the construction input).
    pub fn to_dense(&self) -> Tensor {
        let mut data = vec![0.0f32; self.n * self.k];
        if !data.is_empty() {
            self.decode_range_into_as(simd::active(), 0, &mut data);
        }
        Tensor::from_vec(data, &[self.n, self.k])
    }

    /// Relative Frobenius error of the stored matrix against `original`
    /// (0.0 when construction only dropped exact zeros — the CSR case
    /// against the already-quantized weights).
    pub fn pruning_error(&self, original: &Tensor) -> f32 {
        relative_frobenius_error(&self.to_dense(), original)
    }

    /// `a [.., k] × selfᵀ → [m,n]`, touching only stored non-zeros (or the
    /// dense packed GEMM above the density crossover) — the one CSR GEMM
    /// entry point. The activations, `act` and `exec` work exactly as in
    /// [`crate::gemm::gemm_packed`]; results are bit-identical for every
    /// `exec`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches, or if a per-channel quantizer's
    /// channel count differs from `k`.
    pub fn gemm(&self, a: &Tensor, act: Option<&PanelQuantizer>, exec: Exec) -> Tensor {
        let m = match packed_gemm_rows(a, self.n, self.k, act) {
            Ok(m) => m,
            Err(empty) => return empty,
        };
        if pick_sparse_regime(self.nnz(), m, self.n, self.k, false) == SparseRegime::Dense {
            return gemm_packed(a, self, act, exec);
        }
        let (k, isa) = (self.k, exec.isa);
        sparse_row_parallel(a.data(), m, k, act, exec, self.n, |r0, chunk, panels| {
            let mut vals: Vec<f32> = Vec::new();
            for (r, orow) in chunk.chunks_mut(m).enumerate() {
                let (s, e) = (self.row_ptr[r0 + r], self.row_ptr[r0 + r + 1]);
                if vals.len() < e - s {
                    vals.resize(e - s, 0.0);
                }
                self.values.decode_range_into_as(isa, s, &mut vals[..e - s]);
                sparse_row_accum_as(isa, &vals[..e - s], &self.col_idx[s..e], panels, k, m, orow);
            }
        })
    }
}

impl PackedWeights for CsrWeights {
    fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Scatter-decode: zero-fill, then place each stored value at its
    /// column — the dense engine streams a CSR matrix through this when
    /// the crossover picks the dense regime.
    fn decode_range_into_as(&self, isa: Isa, start: usize, out: &mut [f32]) {
        out.fill(0.0);
        if out.is_empty() || self.k == 0 {
            return;
        }
        let end = start + out.len();
        let (r0, r1) = (start / self.k, (end - 1) / self.k);
        let mut vals: Vec<f32> = Vec::new();
        for r in r0..=r1 {
            let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
            if e == s {
                continue;
            }
            if vals.len() < e - s {
                vals.resize(e - s, 0.0);
            }
            self.values.decode_range_into_as(isa, s, &mut vals[..e - s]);
            for (t, &c) in self.col_idx[s..e].iter().enumerate() {
                let idx = r * self.k + c as usize;
                if idx >= start && idx < end {
                    out[idx - start] = vals[t];
                }
            }
        }
    }
}

/// Structured 2:4 sparsity: within every group of 4 consecutive weights,
/// only the 2 largest-magnitude survive; survivors are stored as packed
/// quantized codes (prune-then-quantize) and positions as 2-bit metadata
/// (the hardware pattern of NVIDIA sparse tensor cores).
#[derive(Clone, Debug)]
pub struct TwoFourWeights {
    n: usize,
    k: usize,
    dims: [usize; 2],
    /// Packed codes of the two survivors per group, `[n, k/2]` row-major.
    values: PackedTensor,
    /// Two 2-bit in-group positions per group (`p0 | p1 << 2`, `p0 < p1`),
    /// one byte per group, `n·k/4` bytes row-major.
    positions: Vec<u8>,
    /// Stored values that decode non-zero (for [`Self::sparsity`]).
    nonzero: usize,
}

impl TwoFourWeights {
    /// Prunes a dense `[n, k]` matrix to 2:4 structure on the *raw*
    /// magnitudes, then quantizes the survivors with `format`
    /// (prune-then-quantize, the order of the paper's fig. 11 ablation).
    ///
    /// Returns [`FpdqError::InvalidArgument`] when `w` is not 2-D or `k`
    /// is not a multiple of 4.
    pub fn try_prune(w: &Tensor, format: &TensorQuantizer) -> Result<Self, FpdqError> {
        if w.ndim() != 2 {
            return Err(FpdqError::invalid(format!(
                "2:4 weights must be a matrix, got {}",
                w.shape()
            )));
        }
        let (n, k) = (w.dim(0), w.dim(1));
        if k % 4 != 0 {
            return Err(FpdqError::invalid(format!("2:4 pruning needs k divisible by 4, got {k}")));
        }
        let groups = n * k / 4;
        let mut kept = Vec::with_capacity(groups * 2);
        let mut positions = Vec::with_capacity(groups);
        for g in 0..groups {
            let quad = &w.data()[g * 4..g * 4 + 4];
            // Pick the two largest magnitudes (stable order).
            let mut idx = [0usize, 1, 2, 3];
            idx.sort_by(|&a, &b| quad[b].abs().total_cmp(&quad[a].abs()));
            let mut keep = [idx[0], idx[1]];
            keep.sort_unstable();
            kept.push(quad[keep[0]]);
            kept.push(quad[keep[1]]);
            positions.push((keep[0] as u8) | ((keep[1] as u8) << 2));
        }
        let values = PackedTensor::encode(&Tensor::from_vec(kept, &[n, k / 2]), *format);
        let mut decoded = vec![0.0f32; groups * 2];
        if !decoded.is_empty() {
            values.decode_range_into_as(simd::active(), 0, &mut decoded);
        }
        let nonzero = decoded.iter().filter(|&&v| v != 0.0).count();
        Ok(TwoFourWeights { n, k, dims: [n, k], values, positions, nonzero })
    }

    /// Panicking convenience wrapper over [`Self::try_prune`].
    ///
    /// # Panics
    ///
    /// Panics unless `w` is 2-D with `k` a multiple of 4.
    pub fn prune(w: &Tensor, format: &TensorQuantizer) -> Self {
        match Self::try_prune(w, format) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Stored values per row (`k/2`).
    fn row_values(&self) -> usize {
        self.k / 2
    }

    /// Number of *stored* values (`n·k/2` — the work the kernel runs),
    /// whether or not they quantized to zero.
    pub fn stored(&self) -> usize {
        self.values.numel()
    }

    /// Number of stored values that decode non-zero.
    pub fn nnz(&self) -> usize {
        self.nonzero
    }

    /// Fraction of zeros in the decoded matrix — at least 0.5 by
    /// structure, more when survivors quantize to zero (0.0 for an empty
    /// matrix).
    pub fn sparsity(&self) -> f32 {
        if self.n * self.k == 0 {
            return 0.0;
        }
        1.0 - self.nnz() as f32 / (self.n * self.k) as f32
    }

    /// Quantized format of the stored values.
    pub fn format(&self) -> TensorQuantizer {
        self.values.format()
    }

    /// Storage bytes: packed codes for half the elements + 1 metadata
    /// byte per group of 4.
    pub fn payload_bytes(&self) -> usize {
        self.values.payload_bytes() + self.positions.len()
    }

    /// Reconstructs the dense pruned-and-quantized matrix.
    pub fn to_dense(&self) -> Tensor {
        let mut data = vec![0.0f32; self.n * self.k];
        if !data.is_empty() {
            self.decode_range_into_as(simd::active(), 0, &mut data);
        }
        Tensor::from_vec(data, &[self.n, self.k])
    }

    /// Relative Frobenius error introduced by pruning + value
    /// quantization against `original` (0.0 for an empty matrix).
    pub fn pruning_error(&self, original: &Tensor) -> f32 {
        relative_frobenius_error(&self.to_dense(), original)
    }

    /// `a [.., k] × selfᵀ → [m,n]` over the pruned structure (2 stored
    /// values per group of 4 — or the dense packed GEMM above the
    /// structured crossover) — the one 2:4 GEMM entry point. The
    /// activations, `act` and `exec` work exactly as in
    /// [`crate::gemm::gemm_packed`]; results are bit-identical for every
    /// `exec`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches, or if a per-channel quantizer's
    /// channel count differs from `k`.
    pub fn gemm(&self, a: &Tensor, act: Option<&PanelQuantizer>, exec: Exec) -> Tensor {
        let m = match packed_gemm_rows(a, self.n, self.k, act) {
            Ok(m) => m,
            Err(empty) => return empty,
        };
        if pick_sparse_regime(self.stored(), m, self.n, self.k, true) == SparseRegime::Dense {
            return gemm_packed(a, self, act, exec);
        }
        let (k, isa) = (self.k, exec.isa);
        let half = self.row_values();
        let groups = self.k / 4;
        sparse_row_parallel(a.data(), m, k, act, exec, self.n, |r0, chunk, panels| {
            let rows = chunk.len() / m;
            // Per-worker scratch: decoded value tiles (amortised like the
            // dense GEMM's weight tiles) + the metadata-expanded column
            // indices of one row.
            let mut vals = vec![0.0f32; WTILE_ROWS * half];
            let mut cols = vec![0u32; half];
            let mut wt = 0;
            while wt < rows {
                let wh = WTILE_ROWS.min(rows - wt);
                self.values.decode_range_into_as(isa, (r0 + wt) * half, &mut vals[..wh * half]);
                for r in 0..wh {
                    let meta = &self.positions[(r0 + wt + r) * groups..(r0 + wt + r + 1) * groups];
                    for (g, &mb) in meta.iter().enumerate() {
                        cols[2 * g] = (4 * g) as u32 + u32::from(mb & 0b11);
                        cols[2 * g + 1] = (4 * g) as u32 + u32::from((mb >> 2) & 0b11);
                    }
                    sparse_row_accum_as(
                        isa,
                        &vals[r * half..(r + 1) * half],
                        &cols,
                        panels,
                        k,
                        m,
                        &mut chunk[(wt + r) * m..(wt + r + 1) * m],
                    );
                }
                wt += wh;
            }
        })
    }
}

impl PackedWeights for TwoFourWeights {
    fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Scatter-decode through the 2-bit metadata — the dense engine
    /// streams a 2:4 matrix through this when the crossover picks the
    /// dense regime.
    fn decode_range_into_as(&self, isa: Isa, start: usize, out: &mut [f32]) {
        out.fill(0.0);
        if out.is_empty() || self.k == 0 {
            return;
        }
        let end = start + out.len();
        let (r0, r1) = (start / self.k, (end - 1) / self.k);
        let half = self.row_values();
        let groups = self.k / 4;
        let mut vals = vec![0.0f32; half];
        for r in r0..=r1 {
            self.values.decode_range_into_as(isa, r * half, &mut vals);
            for g in 0..groups {
                let meta = self.positions[r * groups + g];
                let pair = [
                    ((meta & 0b11) as usize, vals[2 * g]),
                    (((meta >> 2) & 0b11) as usize, vals[2 * g + 1]),
                ];
                for (p, v) in pair {
                    let idx = r * self.k + 4 * g + p;
                    if idx >= start && idx < end {
                        out[idx - start] = v;
                    }
                }
            }
        }
    }
}

/// Relative Frobenius error `‖got − want‖ / ‖want‖` (0.0 for empty).
fn relative_frobenius_error(got: &Tensor, want: &Tensor) -> f32 {
    if want.numel() == 0 {
        return 0.0;
    }
    (got.mse(want) * want.numel() as f32).sqrt()
        / (want.data().iter().map(|v| v * v).sum::<f32>().sqrt() + 1e-12)
}

/// The row-parallel sparse schedule, shared by both formats: quantize +
/// interleave the activation rows into the `[k][NT_NR]` panel bank once
/// (in parallel, via the dense GEMM's [`pack_act_panels`]), then split
/// the weight rows across workers; `body(r0, chunk, panels)` fills output
/// rows `[r0, r0 + chunk.len()/m)` (each of length `m`). The `[n, m]`
/// buffer transposes once at the end, like the dense row-parallel path.
fn sparse_row_parallel<F>(
    ad: &[f32],
    m: usize,
    k: usize,
    act: Option<&PanelQuantizer>,
    exec: Exec,
    n: usize,
    body: F,
) -> Tensor
where
    F: Fn(usize, &mut [f32], &[f32]) + Sync,
{
    let Exec { isa, workers } = exec;
    let mpanels = m.div_ceil(NT_NR);
    let mut panels = vec![0.0f32; mpanels * k * NT_NR];
    parallel_rows_in(workers, &mut panels, mpanels, k * NT_NR, 1, |p0, chunk| {
        pack_act_panels(ad, m, k, act, isa, p0, chunk);
    });
    let mut out = vec![0.0f32; n * m];
    parallel_rows_in(workers, &mut out, n, m, 4, |r0, chunk| body(r0, chunk, &panels));
    Tensor::from_vec(out, &[n, m]).transpose()
}

/// One weight row × the activation panel bank: accumulates
/// `out_row[j] += Σ_t vals[t] · a[j][cols[t]]` with the products taken in
/// ascending stored order `t` for every output element — the fixed
/// accumulation order that makes the SIMD paths bit-identical to this
/// scalar reference and the output independent of panel count, worker
/// split, and ISA.
///
/// `cols` holds *logical* column indices (`< k`, a constructor
/// invariant); the panel stride turns each into one contiguous 8-lane
/// stripe load.
///
/// # Panics
///
/// Panics on size mismatches. (Real asserts, not debug: the SIMD kernels
/// read through raw pointers, so the range invariants must hold in
/// release builds too; the checks are O(1) against the O(nnz·m) kernel.
/// Column bounds are the constructors' structural invariant and checked
/// in debug only.)
fn sparse_row_accum_as(
    isa: Isa,
    vals: &[f32],
    cols: &[u32],
    panels: &[f32],
    k: usize,
    m: usize,
    out_row: &mut [f32],
) {
    assert_eq!(vals.len(), cols.len(), "values/indices length mismatch");
    assert_eq!(out_row.len(), m, "output row length");
    assert_eq!(panels.len(), m.div_ceil(NT_NR) * k * NT_NR, "panel bank size");
    debug_assert!(cols.iter().all(|&c| (c as usize) < k), "column index past k");
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if isa.is_supported() => {
            // Safety: AVX2 verified at runtime; slice sizes asserted
            // above, column indices < k by the constructors' invariant
            // (so every stripe load stays inside its panel).
            unsafe { avx2::sparse_row_accum(vals, cols, panels, k, m, out_row) }
        }
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => {
            // Safety: NEON is baseline on aarch64; invariants as above.
            unsafe { neon::sparse_row_accum(vals, cols, panels, k, m, out_row) }
        }
        _ => sparse_row_accum_scalar(vals, cols, panels, k, m, out_row),
    }
}

/// The scalar reference of [`sparse_row_accum_as`] — the bit-identity
/// oracle the SIMD paths are pinned to.
fn sparse_row_accum_scalar(
    vals: &[f32],
    cols: &[u32],
    panels: &[f32],
    k: usize,
    m: usize,
    out_row: &mut [f32],
) {
    let stride = k * NT_NR;
    let mut p = 0;
    let mut j0 = 0;
    while j0 < m {
        let nw = NT_NR.min(m - j0);
        let panel = &panels[p * stride..(p + 1) * stride];
        let mut acc = [0.0f32; NT_NR];
        for (&v, &c) in vals.iter().zip(cols) {
            // Same per-element order as the SIMD kernels: (v * a) then
            // (acc + product), ascending stored index.
            let stripe = &panel[c as usize * NT_NR..(c as usize + 1) * NT_NR];
            for (slot, &av) in acc.iter_mut().zip(stripe) {
                *slot += v * av;
            }
        }
        out_row[j0..j0 + nw].copy_from_slice(&acc[..nw]);
        p += 1;
        j0 += NT_NR;
    }
}

/// AVX2 sparse row kernel: the 8-lane panel stripe of each stored column
/// loads whole into one 256-bit register; the main block runs *four*
/// panels at once — without fused multiply-adds the adds form one
/// latency-bound dependency chain per accumulator, and four independent
/// chains (sharing every broadcast value and index load) fill the FP add
/// ports. Panel blocking never changes the per-element accumulation
/// order, so bit-identity is unaffected. Deliberately `_mm256_mul_ps` +
/// `_mm256_add_ps`, **not** `_mm256_fmadd_ps`: FMA's single rounding
/// would break bit-identity with the scalar reference (see
/// [`fpdq_tensor::simd`]).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::NT_NR;
    use core::arch::x86_64::*;

    /// Panels per main block: 4 accumulators + one broadcast + one stripe
    /// load stay comfortably inside the 16 `ymm` registers.
    const P_BLOCK: usize = 4;

    /// # Safety
    ///
    /// Requires AVX2 at runtime; slice sizes per
    /// [`super::sparse_row_accum_as`], and every `cols` entry `< k`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sparse_row_accum(
        vals: &[f32],
        cols: &[u32],
        panels: &[f32],
        k: usize,
        m: usize,
        out_row: &mut [f32],
    ) {
        let pp = panels.as_ptr();
        let stride = k * NT_NR;
        let mut p = 0;
        let mut j0 = 0;
        while j0 + P_BLOCK * NT_NR <= m {
            let base: [*const f32; P_BLOCK] = core::array::from_fn(|i| pp.add((p + i) * stride));
            let mut acc = [_mm256_setzero_ps(); P_BLOCK];
            for (&v, &c) in vals.iter().zip(cols) {
                let av = _mm256_set1_ps(v);
                let off = c as usize * NT_NR;
                for (slot, b) in acc.iter_mut().zip(base) {
                    // Same per-element order as the scalar kernel:
                    // (v * a) then (acc + product), ascending stored t.
                    *slot = _mm256_add_ps(*slot, _mm256_mul_ps(av, _mm256_loadu_ps(b.add(off))));
                }
            }
            for (i, slot) in acc.iter().enumerate() {
                _mm256_storeu_ps(out_row.as_mut_ptr().add(j0 + i * NT_NR), *slot);
            }
            p += P_BLOCK;
            j0 += P_BLOCK * NT_NR;
        }
        while j0 < m {
            let nw = NT_NR.min(m - j0);
            let b = pp.add(p * stride);
            let mut acc = _mm256_setzero_ps();
            for (&v, &c) in vals.iter().zip(cols) {
                let av = _mm256_set1_ps(v);
                acc = _mm256_add_ps(
                    acc,
                    _mm256_mul_ps(av, _mm256_loadu_ps(b.add(c as usize * NT_NR))),
                );
            }
            if nw == NT_NR {
                _mm256_storeu_ps(out_row.as_mut_ptr().add(j0), acc);
            } else {
                let mut tmp = [0.0f32; NT_NR];
                _mm256_storeu_ps(tmp.as_mut_ptr(), acc);
                out_row[j0..j0 + nw].copy_from_slice(&tmp[..nw]);
            }
            p += 1;
            j0 += NT_NR;
        }
    }
}

/// NEON sparse row kernel: each 8-lane panel stripe is two 128-bit
/// halves; the main block runs four panels (eight live accumulators) to
/// hide the add latency. Deliberately `vmulq` + `vaddq`, **not**
/// `vfmaq`/`vmlaq`: FMA's single rounding would break bit-identity with
/// the scalar reference (see [`fpdq_tensor::simd`]).
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::NT_NR;
    use core::arch::aarch64::*;

    const P_BLOCK: usize = 4;

    /// # Safety
    ///
    /// NEON is baseline on aarch64; slice sizes per
    /// [`super::sparse_row_accum_as`], and every `cols` entry `< k`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn sparse_row_accum(
        vals: &[f32],
        cols: &[u32],
        panels: &[f32],
        k: usize,
        m: usize,
        out_row: &mut [f32],
    ) {
        let pp = panels.as_ptr();
        let stride = k * NT_NR;
        let zero = vdupq_n_f32(0.0);
        let mut p = 0;
        let mut j0 = 0;
        while j0 + P_BLOCK * NT_NR <= m {
            let base: [*const f32; P_BLOCK] = core::array::from_fn(|i| pp.add((p + i) * stride));
            let mut acc = [[zero; 2]; P_BLOCK];
            for (&v, &c) in vals.iter().zip(cols) {
                let av = vdupq_n_f32(v);
                let off = c as usize * NT_NR;
                for (slot, b) in acc.iter_mut().zip(base) {
                    // Same per-element order as the scalar kernel:
                    // (v * a) then (acc + product), ascending stored t.
                    slot[0] = vaddq_f32(slot[0], vmulq_f32(av, vld1q_f32(b.add(off))));
                    slot[1] = vaddq_f32(slot[1], vmulq_f32(av, vld1q_f32(b.add(off + 4))));
                }
            }
            for (i, slot) in acc.iter().enumerate() {
                vst1q_f32(out_row.as_mut_ptr().add(j0 + i * NT_NR), slot[0]);
                vst1q_f32(out_row.as_mut_ptr().add(j0 + i * NT_NR + 4), slot[1]);
            }
            p += P_BLOCK;
            j0 += P_BLOCK * NT_NR;
        }
        while j0 < m {
            let nw = NT_NR.min(m - j0);
            let b = pp.add(p * stride);
            let mut acc = [zero; 2];
            for (&v, &c) in vals.iter().zip(cols) {
                let av = vdupq_n_f32(v);
                let off = c as usize * NT_NR;
                acc[0] = vaddq_f32(acc[0], vmulq_f32(av, vld1q_f32(b.add(off))));
                acc[1] = vaddq_f32(acc[1], vmulq_f32(av, vld1q_f32(b.add(off + 4))));
            }
            if nw == NT_NR {
                vst1q_f32(out_row.as_mut_ptr().add(j0), acc[0]);
                vst1q_f32(out_row.as_mut_ptr().add(j0 + 4), acc[1]);
            } else {
                let mut tmp = [0.0f32; NT_NR];
                vst1q_f32(tmp.as_mut_ptr(), acc[0]);
                vst1q_f32(tmp.as_mut_ptr().add(4), acc[1]);
                out_row[j0..j0 + nw].copy_from_slice(&tmp[..nw]);
            }
            p += 1;
            j0 += NT_NR;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpdq_core::{FpFormat, IntFormat};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fp8() -> TensorQuantizer {
        TensorQuantizer::Fp(FpFormat::new(4, 3))
    }

    fn sparse_matrix(n: usize, k: usize, keep: f32, rng: &mut StdRng) -> Tensor {
        Tensor::randn(&[n, k], rng).zip_map(
            &Tensor::rand_uniform(&[n, k], 0.0, 1.0, rng),
            |v, u| if u < keep { v } else { 0.0 },
        )
    }

    fn assert_close(got: &Tensor, want: &Tensor, tol: f32, ctx: &str) {
        assert_eq!(got.dims(), want.dims(), "{ctx}: dims");
        for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
            assert!((x - y).abs() < tol, "{ctx} elem {i}: {x} vs {y}");
        }
    }

    #[test]
    fn csr_gemm_matches_dense_of_quantized() {
        let mut rng = StdRng::seed_from_u64(0);
        let fmt = fp8();
        let w = sparse_matrix(9, 16, 0.3, &mut rng);
        let a = Tensor::randn(&[5, 16], &mut rng);
        let csr = CsrWeights::from_dense(&w, &fmt);
        assert_close(
            &csr.gemm(&a, None, Exec::default()),
            &a.matmul_nt(&fmt.quantize(&w)),
            1e-4,
            "csr",
        );
        assert!(csr.sparsity() > 0.5, "sparsity {}", csr.sparsity());
        assert_eq!(csr.pruning_error(&fmt.quantize(&w)), 0.0);
    }

    #[test]
    fn csr_dense_regime_matches_sparse_kernel() {
        // Density 0.5 crosses into the dense regime; a down-sampled copy
        // of the same rows runs sparse — both must equal the reference.
        let mut rng = StdRng::seed_from_u64(10);
        let fmt = fp8();
        let dense_side = sparse_matrix(24, 32, 0.6, &mut rng);
        let a = Tensor::randn(&[7, 32], &mut rng);
        let csr = CsrWeights::from_dense(&dense_side, &fmt);
        assert!(
            pick_sparse_regime(csr.nnz(), 7, 24, 32, false) == SparseRegime::Dense,
            "expected dense regime at density {}",
            1.0 - csr.sparsity()
        );
        assert_close(
            &csr.gemm(&a, None, Exec::default()),
            &a.matmul_nt(&fmt.quantize(&dense_side)),
            1e-4,
            "dense regime",
        );
    }

    #[test]
    fn csr_payload_shrinks_with_sparsity() {
        let mut rng = StdRng::seed_from_u64(1);
        let dense_bytes = 64 * 64 * 4;
        let very_sparse = CsrWeights::from_dense(&sparse_matrix(64, 64, 0.05, &mut rng), &fp8());
        assert!(
            very_sparse.payload_bytes() < dense_bytes / 2,
            "{} vs dense {dense_bytes}",
            very_sparse.payload_bytes()
        );
    }

    #[test]
    fn csr_int_values_roundtrip() {
        let mut rng = StdRng::seed_from_u64(11);
        let fmt = TensorQuantizer::Int(IntFormat::from_range(8, -3.0, 3.0));
        let w = sparse_matrix(12, 24, 0.2, &mut rng);
        let a = Tensor::randn(&[4, 24], &mut rng);
        let csr = CsrWeights::from_dense(&w, &fmt);
        assert_close(
            &csr.gemm(&a, None, Exec::default()),
            &a.matmul_nt(&csr.to_dense()),
            1e-4,
            "int csr",
        );
    }

    #[test]
    fn two_four_keeps_at_least_half_zeros() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = Tensor::randn(&[8, 16], &mut rng);
        let pruned = TwoFourWeights::prune(&w, &fp8()).to_dense();
        let zeros = pruned.data().iter().filter(|&&v| v == 0.0).count();
        // Exactly half by structure; value quantization may zero more.
        assert!(zeros >= 8 * 16 / 2, "zeros {zeros}");
        for quad in pruned.data().chunks(4) {
            assert!(quad.iter().filter(|&&v| v != 0.0).count() <= 2);
        }
    }

    #[test]
    fn two_four_keeps_largest_magnitudes() {
        // FP8 (e4m3) represents ±5.0 and 3.0 exactly, so the pinned
        // survivors come through bit-exact.
        let w = Tensor::from_vec(vec![0.1, -5.0, 0.2, 3.0], &[1, 4]);
        let pruned = TwoFourWeights::prune(&w, &fp8()).to_dense();
        assert_eq!(pruned.data(), &[0.0, -5.0, 0.0, 3.0]);
    }

    #[test]
    fn two_four_gemm_matches_dense_of_pruned() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = Tensor::randn(&[6, 20], &mut rng);
        let a = Tensor::randn(&[4, 20], &mut rng);
        let tf = TwoFourWeights::prune(&w, &fp8());
        assert_close(
            &tf.gemm(&a, None, Exec::default()),
            &a.matmul_nt(&tf.to_dense()),
            1e-4,
            "2:4",
        );
    }

    #[test]
    fn two_four_payload_is_half_codes_plus_metadata() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = Tensor::randn(&[32, 32], &mut rng);
        let tf = TwoFourWeights::prune(&w, &fp8());
        // FP8 codes: 1 byte per survivor (half the elements); metadata:
        // 1 byte per group of 4 — 5.3× below dense FP32.
        assert_eq!(tf.payload_bytes(), 32 * 32 / 2 + 32 * 32 / 4);
    }

    #[test]
    fn fused_act_quant_is_bit_exact_with_prequantized_path() {
        let mut rng = StdRng::seed_from_u64(12);
        let act = TensorQuantizer::Fp(FpFormat::new(4, 3));
        let pq = PanelQuantizer::per_tensor(&act);
        let w = sparse_matrix(16, 32, 0.15, &mut rng);
        let a = Tensor::randn(&[9, 32], &mut rng).mul_scalar(2.5);
        let csr = CsrWeights::from_dense(&w, &fp8());
        let tf = TwoFourWeights::prune(&w, &fp8());
        for (name, fused, plain) in [
            (
                "csr",
                csr.gemm(&a, Some(&pq), Exec::default()),
                csr.gemm(&act.quantize(&a), None, Exec::default()),
            ),
            (
                "2:4",
                tf.gemm(&a, Some(&pq), Exec::default()),
                tf.gemm(&act.quantize(&a), None, Exec::default()),
            ),
        ] {
            for (i, (x, y)) in fused.data().iter().zip(plain.data()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{name} elem {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn degenerate_sparse_shapes_are_panic_free() {
        let mut rng = StdRng::seed_from_u64(6);
        let fmt = fp8();

        // Zero-row weights: [m, 0] product, no panic from zero-width rows.
        let csr = CsrWeights::from_dense(&Tensor::from_vec(Vec::new(), &[0, 8]), &fmt);
        let out = csr.gemm(&Tensor::randn(&[3, 8], &mut rng), None, Exec::default());
        assert_eq!(out.dims(), &[3, 0]);
        assert!(out.data().is_empty());
        assert_eq!(csr.sparsity(), 0.0);
        assert_eq!(csr.nnz(), 0);

        // Empty activation batch against real weights.
        let w = sparse_matrix(5, 8, 0.5, &mut rng);
        let csr = CsrWeights::from_dense(&w, &fmt);
        let out = csr.gemm(&Tensor::from_vec(Vec::new(), &[0, 8]), None, Exec::default());
        assert_eq!(out.dims(), &[0, 5]);

        // k == 0: every dot product is an empty reduction (all zeros).
        let csr = CsrWeights::from_dense(&Tensor::from_vec(Vec::new(), &[4, 0]), &fmt);
        let out = csr.gemm(&Tensor::from_vec(Vec::new(), &[2, 0]), None, Exec::default());
        assert_eq!(out.dims(), &[2, 4]);
        assert!(out.data().iter().all(|&v| v == 0.0));

        // The same sweep through the 2:4 structured path.
        let tf = TwoFourWeights::prune(&Tensor::from_vec(Vec::new(), &[0, 8]), &fmt);
        let out = tf.gemm(&Tensor::randn(&[3, 8], &mut rng), None, Exec::default());
        assert_eq!(out.dims(), &[3, 0]);
        assert_eq!(tf.to_dense().dims(), &[0, 8]);
        assert_eq!(tf.pruning_error(&Tensor::from_vec(Vec::new(), &[0, 8])), 0.0);

        let tf = TwoFourWeights::prune(&Tensor::randn(&[5, 8], &mut rng), &fmt);
        let out = tf.gemm(&Tensor::from_vec(Vec::new(), &[0, 8]), None, Exec::default());
        assert_eq!(out.dims(), &[0, 5]);

        let empty = Tensor::from_vec(Vec::new(), &[3, 0]);
        let tf = TwoFourWeights::prune(&empty, &fmt);
        let out = tf.gemm(&Tensor::from_vec(Vec::new(), &[2, 0]), None, Exec::default());
        assert_eq!(out.dims(), &[2, 3]);
        assert!(out.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn typed_constructors_reject_bad_shapes() {
        let fmt = fp8();
        let cube = Tensor::zeros(&[2, 2, 2]);
        assert!(CsrWeights::try_from_dense(&cube, &fmt).is_err());
        assert!(TwoFourWeights::try_prune(&cube, &fmt).is_err());
        let off = Tensor::zeros(&[4, 6]); // k % 4 != 0
        let err = TwoFourWeights::try_prune(&off, &fmt).unwrap_err();
        assert!(err.to_string().contains("divisible by 4"), "{err}");
        // CSR has no k alignment requirement.
        assert!(CsrWeights::try_from_dense(&off, &fmt).is_ok());
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn panicking_prune_delegates_to_typed_constructor() {
        TwoFourWeights::prune(&Tensor::zeros(&[2, 6]), &fp8());
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn sparse_shape_mismatch_panics() {
        let csr = CsrWeights::from_dense(&Tensor::zeros(&[4, 8]), &fp8());
        csr.gemm(&Tensor::zeros(&[2, 12]), None, Exec::default());
    }

    #[test]
    fn scatter_decode_matches_to_dense_on_partial_ranges() {
        // The PackedWeights decode must agree with to_dense on every
        // (start, len) sub-range — the dense-regime engine reads whole
        // rows, but the contract covers arbitrary windows.
        let mut rng = StdRng::seed_from_u64(13);
        let fmt = fp8();
        let w = sparse_matrix(6, 8, 0.4, &mut rng);
        let csr = CsrWeights::from_dense(&w, &fmt);
        let tf = TwoFourWeights::prune(&w, &fmt);
        let (csr_dense, tf_dense) = (csr.to_dense(), tf.to_dense());
        for (start, len) in [(0usize, 48usize), (3, 10), (8, 8), (15, 1), (40, 8), (47, 1)] {
            let mut got = vec![f32::NAN; len];
            csr.decode_range_into_as(simd::active(), start, &mut got);
            assert_eq!(&csr_dense.data()[start..start + len], &got[..], "csr {start}+{len}");
            tf.decode_range_into_as(simd::active(), start, &mut got);
            assert_eq!(&tf_dense.data()[start..start + len], &got[..], "2:4 {start}+{len}");
        }
    }

    #[test]
    fn pruning_error_small_when_half_already_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        // With ≥ half of each quad zero, 2:4 pruning is (near) lossless —
        // the residual error is the FP8 value quantization.
        let w = Tensor::randn(&[4, 16], &mut rng).map(|v| if v.abs() < 0.6 { 0.0 } else { v });
        let tf = TwoFourWeights::prune(&w, &fp8());
        // Quads with >2 nonzeros exist occasionally; allow small error.
        assert!(tf.pruning_error(&w) < 0.35, "error {}", tf.pruning_error(&w));
    }
}
