//! Boundary-table quantizers: branch-free fake quantization without
//! transcendentals.
//!
//! [`FpFormat::quantize_scalar`] pays a `log2` + `powf` per element, which
//! the kernels bench shows dominating the weight+activation GEMM path.
//! A [`BoundaryQuantizer`] precomputes, once per format, the *decision
//! boundary* between every adjacent pair of representable values — the
//! exact smallest `f32` that quantizes past the lower value, searched on
//! order keys against the reference quantizer — so quantizing an element
//! is a table bisection over presorted `f32`s: no `log2`, no `powf`, no
//! data-dependent branches beyond the search.
//!
//! # Construction: bracket, then bisect
//!
//! Under round-to-nearest a boundary sits within a few ULPs of the
//! arithmetic midpoint of its value pair. The search therefore starts at
//! that midpoint and gallops outward (1, 2, 4, … order-key steps) until
//! the reference quantizer brackets the transition, then bisects inside
//! the bracket — typically a handful of reference calls per boundary
//! instead of a 32-step bisection over the whole float line. The
//! reference oracle is monotone, so its transition point is unique and
//! any bracket containing it bisects to the same float: the tables are
//! bitwise identical to the full-range bisection (kept as a test
//! reference).
//!
//! # Slice path: rank cells
//!
//! The table covers the full *signed* value line (INT formats are
//! asymmetric). The slice path finds an element's place on it with one
//! lookup and one compare. The top 9 bits of the element's order key
//! (sign + f32 exponent) pick one of 512 buckets. A bucket that holds a
//! finite boundary is split into `2^c` cells by the next `c` key bits;
//! every other bucket is a single cell. Each cell stores only the rank
//! `r` of the first boundary at or after its start, so every boundary
//! below `r` is `<= v` for any `v` in the cell. If the cell holds at most
//! one boundary, the count of boundaries `<= v` is `r + (boundaries[r]
//! <= v)`: the one float compare decides the cell's own boundary, and
//! everything from `boundaries[r + 1]` on lies in a later cell. A `+∞`
//! sentinel after the last boundary keeps `boundaries[r]` in bounds for
//! the top cell and never counts.
//!
//! `c` is the smallest resolution that leaves at most one finite
//! boundary in any cell, read off in one pass from the highest differing
//! key bit of each adjacent pair sharing a bucket. It stays small. The
//! binades of an ExMy format are the f32 binades shifted by the
//! fractional part of its bias, so in an f32 binade `[2^e, 2^(e+1))` its
//! grid step is more than `2^(e-1-M)`, and its boundaries, at the
//! midpoints of neighbouring values, are at least that far apart. A cell
//! at resolution `M + 2` is `2^(e-M-2)` wide, so `c <= M + 2`. The ±∞
//! boundaries of unreachable values sit in the ∓NaN/∓∞ buckets, which no
//! clamped input addresses. Ranks are `u16`, so a table costs a 2 KB
//! bucket index plus two bytes per cell: about 5.5 KB for E2M5 at a
//! searched bias. INT formats take an arithmetic shortcut that evaluates
//! the *identical* float expression as [`IntFormat::quantize_scalar`].
//!
//! [`PanelQuantizer`] lifts this to the granularity the fused GEMM/conv
//! kernels need: one shared table (per-tensor, the paper's configuration),
//! one table per channel (the per-channel ablation), or a trunk table and
//! a skip table on either side of a skip-connection concatenation's split
//! channel (the paper's split quantization), applied to activation
//! micro-panels as they stream through the tile loop.

use crate::format::FpFormat;
use crate::int::IntFormat;
use crate::quantizer::TensorQuantizer;
use fpdq_tensor::simd::{self, Isa};
use fpdq_tensor::Tensor;
use std::sync::{Arc, Mutex};

/// Order-preserving map from a (non-NaN) `f32` to a `u32`: negative
/// floats invert, positives set the sign bit, so integer order equals
/// float total order across the whole signed line.
#[inline]
fn order_key(x: f32) -> u32 {
    let b = x.to_bits();
    if b & 0x8000_0000 != 0 {
        !b
    } else {
        b | 0x8000_0000
    }
}

/// Inverse of [`order_key`].
#[inline]
fn key_to_float(k: u32) -> f32 {
    if k & 0x8000_0000 != 0 {
        f32::from_bits(k & 0x7FFF_FFFF)
    } else {
        f32::from_bits(!k)
    }
}

/// The reference quantizer an FP table is built against:
/// [`FpFormat::quantize_scalar`] with `-0.0` canonicalised to `+0.0` (see
/// the type docs of [`BoundaryQuantizer`]).
fn fp_oracle(fmt: FpFormat) -> impl Fn(f32) -> f32 {
    move |x| {
        let q = fmt.quantize_scalar(x);
        if q == 0.0 {
            0.0
        } else {
            q
        }
    }
}

/// Finds the smallest order key in `(order_key(-f32::MAX),
/// order_key(f32::MAX)]` at which the monotone predicate `above` turns
/// true. The caller guarantees `above` is false at the lower end and true
/// at the upper end, which is what makes the answer unique.
type KeySearch = fn(&dyn Fn(u32) -> bool, u32) -> u32;

/// The boundary after every value of the ascending `values`:
/// `boundaries[i]` is the smallest float whose reference quantization
/// lands past `values[i]` (`-∞` when `values[i]` is unreachable from
/// below, `+∞` when `values[i + 1]` is unreachable from above). `search`
/// locates each transition, starting from the order key of the pair's
/// arithmetic midpoint.
fn search_boundaries(values: &[f32], quantize: impl Fn(f32) -> f32, search: KeySearch) -> Vec<f32> {
    assert!(!values.is_empty(), "value table must be non-empty");
    // Nearest-index oracle (as the packed-weight encoder uses): for
    // inputs within one ULP of a binade edge, `floor(log2|x| + b)` can
    // land one binade off and the reference then emits a ULP-sized
    // variant of the adjacent grid value. Snapping such phantom outputs
    // to the nearest table entry keeps the oracle monotone; everywhere
    // the reference outputs a table value — all inputs but those edge
    // slivers — the boundaries stay exact.
    let index_of = |x: f32| {
        let q = quantize(x);
        match values.binary_search_by(|v| v.total_cmp(&q)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) if i >= values.len() => values.len() - 1,
            Err(i) => {
                if (q - values[i - 1]).abs() <= (values[i] - q).abs() {
                    i - 1
                } else {
                    i
                }
            }
        }
    };
    let bottom = index_of(-f32::MAX);
    let top = index_of(f32::MAX);
    (0..values.len() - 1)
        .map(|i| {
            if i < bottom {
                // values[i] is unreachable from below: every input already
                // maps past it.
                f32::NEG_INFINITY
            } else if top <= i {
                // values[i + 1] is unreachable from above.
                f32::INFINITY
            } else {
                // bottom <= i < top: the predicate is false at -MAX and
                // true at +MAX, as the search requires.
                let mid = ((f64::from(values[i]) + f64::from(values[i + 1])) * 0.5) as f32;
                key_to_float(search(&|k| index_of(key_to_float(k)) > i, order_key(mid)))
            }
        })
        .collect()
}

/// [`KeySearch`] by galloping from `start` to a bracket — steps of 1, 2,
/// 4, … order keys toward the transition, clamped to the finite line —
/// then bisecting inside it. Near-midpoint boundaries cost a few
/// predicate calls instead of 32.
fn gallop_search(above: &dyn Fn(u32) -> bool, start: u32) -> u32 {
    let (kmin, kmax) = (order_key(-f32::MAX), order_key(f32::MAX));
    let start = start.clamp(kmin, kmax);
    // Invariant: `above(lb)` is false and `above(ub)` is true (the ends
    // of the line hold them by the caller's guarantee).
    let (mut lb, mut ub);
    let mut step = 1u32;
    if above(start) {
        ub = start;
        loop {
            lb = ub.saturating_sub(step).max(kmin);
            if lb == kmin || !above(lb) {
                break;
            }
            ub = lb;
            step = step.saturating_mul(2);
        }
    } else {
        lb = start;
        loop {
            ub = lb.saturating_add(step).min(kmax);
            if ub == kmax || above(ub) {
                break;
            }
            lb = ub;
            step = step.saturating_mul(2);
        }
    }
    while ub - lb > 1 {
        let mid = lb + (ub - lb) / 2;
        if above(mid) {
            ub = mid;
        } else {
            lb = mid;
        }
    }
    ub
}

/// Number of sign+exponent buckets in the slice-path index (9 top bits of
/// the order key: 1 sign × 8 exponent).
const BUCKETS: usize = 512;

/// Order-key bits below the bucket byte (the f32 mantissa width).
const SUB_BITS: u32 = 23;

/// The order-key bits below the bucket byte.
const SUB_MASK: u32 = (1 << SUB_BITS) - 1;

/// Low bits of a bucket entry that hold its cell shift; the bits above
/// hold its first cell.
const SHIFT_BITS: u32 = 5;

/// The shift field of a bucket entry.
const SHIFT_MASK: u32 = (1 << SHIFT_BITS) - 1;

/// The INT arithmetic shortcut parameters (evaluating the same float
/// expression as [`IntFormat::quantize_scalar`]), or the FP rank cells.
#[derive(Clone, Debug)]
enum FastPath {
    /// Rank-cell lookup (FP formats).
    Cells(RankCells),
    /// Direct affine rounding (INT formats).
    Affine { scale: f32, zero_point: f32, qmax: f32 },
}

/// The rank-cell index of a boundary table (see the module docs).
///
/// `index[t]` describes bucket `t` as `first << SHIFT_BITS | shift`: the
/// cell of order key `k` is `first + ((k & SUB_MASK) >> shift)`, with
/// `shift = SUB_BITS - c` for a bucket holding a finite boundary and
/// `SUB_BITS` (one cell) otherwise. `ranks[cell]` counts the boundaries
/// whose order key lies below the cell's start. One pad entry ends
/// `ranks`, so a 32-bit gather of the last rank stays in bounds.
#[derive(Clone, Debug)]
struct RankCells {
    index: Box<[u32; BUCKETS]>,
    ranks: Vec<u16>,
}

impl RankCells {
    /// Builds the index over the ascending `boundaries` (sentinel
    /// excluded) in one pass over buckets, cells and boundaries.
    ///
    /// # Panics
    ///
    /// Panics if two finite boundaries are equal (no resolution separates
    /// them) or the table has more than `u16::MAX` boundaries.
    fn build(boundaries: &[f32]) -> Self {
        assert!(
            boundaries.len() <= usize::from(u16::MAX),
            "boundary table too large for u16 ranks"
        );
        // Adjacent finite keys in one bucket land in different cells once
        // the cell bits reach their highest differing bit.
        let mut c = 0;
        let mut populated = [false; BUCKETS];
        let mut prev: Option<u32> = None;
        for &b in boundaries.iter().filter(|b| b.is_finite()) {
            let k = order_key(b);
            populated[(k >> SUB_BITS) as usize] = true;
            if let Some(p) = prev.filter(|p| p >> SUB_BITS == k >> SUB_BITS) {
                c = c.max((p ^ k).leading_zeros() - (31 - SUB_BITS));
            }
            prev = Some(k);
        }
        assert!(c <= SUB_BITS, "equal finite boundaries");
        let cells: usize = populated.iter().map(|&p| if p { 1 << c } else { 1 }).sum();
        assert!(cells < 1 << (32 - SHIFT_BITS), "rank-cell index overflow");
        let mut index = Box::new([0u32; BUCKETS]);
        let mut ranks = Vec::with_capacity(cells + 1);
        // Boundaries ascend in key order, so bucket `t` owns the run of
        // them from `r` to `end`. Each one is the first boundary at or
        // after the start of its own cell and of every unfilled cell
        // before it.
        let mut r = 0usize;
        for (t, entry) in index.iter_mut().enumerate() {
            let end = r + boundaries[r..]
                .iter()
                .take_while(|&&b| (order_key(b) >> SUB_BITS) as usize == t)
                .count();
            let first = ranks.len();
            if populated[t] {
                let shift = SUB_BITS - c;
                *entry = (first as u32) << SHIFT_BITS | shift;
                for (i, &b) in boundaries.iter().enumerate().take(end).skip(r) {
                    let cell = ((order_key(b) & SUB_MASK) >> shift) as usize;
                    ranks.resize(first + cell + 1, i as u16);
                }
                ranks.resize(first + (1 << c), end as u16);
            } else {
                *entry = (first as u32) << SHIFT_BITS | SUB_BITS;
                ranks.push(r as u16);
            }
            r = end;
        }
        ranks.push(0);
        RankCells { index, ranks }
    }

    /// The rank of the first boundary at or after the start of the cell
    /// holding order key `key`.
    #[inline]
    fn rank(&self, key: u32) -> usize {
        let e = self.index[(key >> SUB_BITS) as usize];
        let cell = (e >> SHIFT_BITS) + ((key & SUB_MASK) >> (e & SHIFT_MASK));
        usize::from(self.ranks[cell as usize])
    }
}

/// A precomputed signed boundary table for one quantizer, bit-exact
/// against the quantizer's `quantize_scalar` for every input (NaN and ±∞
/// included; `-0.0` canonicalises to `+0.0`, invisible to any downstream
/// sum or product).
#[derive(Clone, Debug)]
pub struct BoundaryQuantizer {
    /// Every representable value, ascending. `values[i]` is the output
    /// for inputs in `[boundaries[i-1], boundaries[i])`.
    values: Vec<f32>,
    /// `boundaries[i]` is the smallest float quantizing to `values[i+1]`
    /// (`±∞` when a value is unreachable from either end), followed by
    /// one `+∞` sentinel for the rank-cell compare.
    boundaries: Vec<f32>,
    /// Output for NaN inputs.
    nan_value: f32,
    fast: FastPath,
}

impl BoundaryQuantizer {
    /// Builds the table for a floating-point format.
    ///
    /// # Panics
    ///
    /// Panics for a format wider than 16 bits: the rank cells index
    /// boundaries with `u16`.
    pub fn from_fp(fmt: FpFormat) -> Self {
        let quantize = fp_oracle(fmt);
        // Project the enumeration through the quantizer itself: for
        // searched fractional biases the clip maximum `c` (eq. 7) and the
        // enumerated top magnitude are computed by different float
        // expressions and can differ by ULPs — the quantizer's *actual*
        // output near the top is whichever survives its final clamp.
        // Quantization is idempotent, so the projected set is exactly the
        // fixed-point (output) set, mirrored onto the signed line.
        let non_neg = fmt.enumerate_non_negative();
        let mut values: Vec<f32> = non_neg
            .iter()
            .flat_map(|&v| [v, -v])
            .chain([f32::MAX, -f32::MAX])
            .map(&quantize)
            .collect();
        values.sort_by(f32::total_cmp);
        values.dedup();
        Self::from_reference(values, quantize, 0.0, None)
    }

    /// Builds the table for an integer format.
    pub fn from_int(fmt: IntFormat) -> Self {
        let qmax = (1u32 << fmt.bits()) as f32 - 1.0;
        let zp = fmt.zero_point();
        let values: Vec<f32> =
            (0..1u32 << fmt.bits()).map(|q| fmt.scale() * (q as f32 - zp)).collect();
        let nan_value = fmt.quantize_scalar(f32::NAN);
        let fast = FastPath::Affine { scale: fmt.scale(), zero_point: zp, qmax };
        Self::from_reference(values, move |x| fmt.quantize_scalar(x), nan_value, Some(fast))
    }

    /// Builds the table for either backend of a [`TensorQuantizer`].
    pub fn from_quantizer(q: &TensorQuantizer) -> Self {
        match q {
            TensorQuantizer::Fp(f) => Self::from_fp(*f),
            TensorQuantizer::Int(f) => Self::from_int(*f),
        }
    }

    /// Returns a cached table for `q`, building it on first use. Formats
    /// repeat across layers and sampling steps, so the construction cost
    /// is paid once per distinct format per process.
    pub fn cached(q: &TensorQuantizer) -> Arc<BoundaryQuantizer> {
        static CACHE: Mutex<Vec<(TensorQuantizer, Arc<BoundaryQuantizer>)>> =
            Mutex::new(Vec::new());
        const CAP: usize = 256;
        // A panic elsewhere must not poison every later quantization
        // (the cache holds only immutable finished tables).
        let mut cache = CACHE.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, bq)) = cache.iter().find(|(k, _)| k == q) {
            return bq.clone();
        }
        let bq = Arc::new(Self::from_quantizer(q));
        if cache.len() == CAP {
            cache.remove(0);
        }
        cache.push((*q, bq.clone()));
        bq
    }

    /// Core construction: the exact boundary between every adjacent pair
    /// of `values` against the (monotone) reference quantizer, bracketed
    /// from the pair's midpoint and bisected ([`gallop_search`]).
    fn from_reference(
        values: Vec<f32>,
        quantize: impl Fn(f32) -> f32,
        nan_value: f32,
        fast: Option<FastPath>,
    ) -> Self {
        let mut boundaries = search_boundaries(&values, quantize, gallop_search);
        let fast = fast.unwrap_or_else(|| FastPath::Cells(RankCells::build(&boundaries)));
        boundaries.push(f32::INFINITY);
        BoundaryQuantizer { values, boundaries, nan_value, fast }
    }

    /// The representable values, ascending.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The decision boundaries (reference surface for tests).
    pub fn boundaries(&self) -> &[f32] {
        &self.boundaries[..self.boundaries.len() - 1]
    }

    /// Quantizes one value through the plain table bisection — the
    /// reference the accelerated slice path is property-tested against.
    #[inline]
    pub fn quantize_scalar(&self, v: f32) -> f32 {
        if v.is_nan() {
            return self.nan_value;
        }
        // ±∞ clip like the reference quantizers; keeps the ±∞ sentinel
        // boundaries of unreachable values inert.
        let v = v.clamp(-f32::MAX, f32::MAX);
        self.values[self.boundaries.partition_point(|&b| b <= v)]
    }

    /// The scalar rank-cell path over a slice: one lookup and one compare
    /// per element (also the tail of the AVX2 path).
    fn quantize_cells(&self, cells: &RankCells, src: &[f32], dst: &mut [f32]) {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = if v.is_nan() {
                self.nan_value
            } else {
                let v = v.clamp(-f32::MAX, f32::MAX);
                let r = cells.rank(order_key(v));
                self.values[r + usize::from(self.boundaries[r] <= v)]
            };
        }
    }

    /// Quantizes a slice into caller scratch through the accelerated path
    /// (rank cells for FP, direct affine for INT) — bit-exact with
    /// [`Self::quantize_scalar`].
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` lengths differ.
    pub fn quantize_slice_into(&self, src: &[f32], dst: &mut [f32]) {
        self.quantize_slice_into_as(simd::active(), src, dst);
    }

    /// [`Self::quantize_slice_into`] on an explicit ISA path — the
    /// dispatch point the differential SIMD tests drive from both sides.
    /// An FP element is clamped to the finite line, its order key picks a
    /// rank cell, and one float compare against the cell's first boundary
    /// finishes the count (see the module docs); NaN maps to the table's
    /// NaN output. The AVX2 variant runs 8 elements per iteration: a
    /// vector order key, then gathers of the bucket entry, the cell rank,
    /// the boundary and the value, with NaN lanes blended afterwards and a
    /// scalar tail. It is bit-exact by construction, since the rank and
    /// compare are the same integers and floats in every lane. An
    /// unsupported `isa` (and NEON) takes the scalar cell path. The INT
    /// affine shortcut is a single float expression either way and does
    /// not dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` lengths differ.
    pub fn quantize_slice_into_as(&self, isa: Isa, src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "quantize slice length mismatch");
        #[cfg(not(target_arch = "x86_64"))]
        let _ = isa;
        match &self.fast {
            FastPath::Affine { scale, zero_point, qmax } => {
                let (s, zp, qmax) = (*scale, *zero_point, *qmax);
                let nan = self.nan_value;
                for (d, &v) in dst.iter_mut().zip(src) {
                    // The exact expression of `IntFormat::quantize_scalar`.
                    *d = if v.is_nan() {
                        nan
                    } else {
                        s * (((v / s).round() + zp).clamp(0.0, qmax) - zp)
                    };
                }
            }
            FastPath::Cells(cells) => {
                #[cfg(target_arch = "x86_64")]
                if isa == Isa::Avx2 && isa.is_supported() {
                    // SAFETY: AVX2 verified at runtime; lengths asserted
                    // above; `cells` was built from this table's
                    // boundaries, which end in the `+∞` sentinel.
                    unsafe { avx2::quantize_cells(self, cells, src, dst) };
                    return;
                }
                self.quantize_cells(cells, src, dst);
            }
        }
    }

    /// Quantizes a whole tensor (convenience wrapper over the slice path;
    /// a drop-in, transcendental-free replacement for
    /// [`TensorQuantizer::quantize`]).
    pub fn quantize(&self, x: &Tensor) -> Tensor {
        let mut out = vec![0.0f32; x.numel()];
        self.quantize_slice_into(x.data(), &mut out);
        Tensor::from_vec(out, x.dims())
    }
}

/// AVX2 variant of the rank-cell path: 8 elements per iteration, every
/// table access a gather.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{BoundaryQuantizer, RankCells, SHIFT_BITS, SHIFT_MASK, SUB_BITS, SUB_MASK};
    use core::arch::x86_64::*;

    /// # Safety
    ///
    /// Requires AVX2 at runtime and equal `src`/`dst` lengths. `cells`
    /// must be [`RankCells::build`] over `bq`'s boundaries without their
    /// sentinel, and `bq.boundaries` must end in the `+∞` sentinel: then
    /// every bucket entry addresses cells inside `ranks` (with the pad
    /// entry behind the last one for the 4-byte read), every rank indexes
    /// `bq.boundaries`, and `rank + 1` is taken only below the sentinel,
    /// inside `bq.values`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_cells(
        bq: &BoundaryQuantizer,
        cells: &RankCells,
        src: &[f32],
        dst: &mut [f32],
    ) {
        let lo = _mm256_set1_ps(-f32::MAX);
        let hi = _mm256_set1_ps(f32::MAX);
        let sign = _mm256_set1_epi32(i32::MIN);
        let sub_mask = _mm256_set1_epi32(SUB_MASK as i32);
        let shift_mask = _mm256_set1_epi32(SHIFT_MASK as i32);
        let rank_mask = _mm256_set1_epi32(0xFFFF);
        let nan = _mm256_set1_ps(bq.nan_value);
        let index = cells.index.as_ptr().cast::<i32>();
        let ranks = cells.ranks.as_ptr().cast::<i32>();
        let main = src.len() / 8 * 8;
        for i in (0..main).step_by(8) {
            // SAFETY: `i + 8 <= src.len() == dst.len()`; the gathers stay
            // in bounds by the function's contract.
            unsafe {
                let raw = _mm256_loadu_ps(src.as_ptr().add(i));
                // `max_ps` returns its second operand for a NaN lane, so
                // NaNs look up -MAX (in bounds) and are blended below.
                let v = _mm256_min_ps(_mm256_max_ps(raw, lo), hi);
                let bits = _mm256_castps_si256(v);
                // order_key: negatives invert, positives set the sign bit.
                let key =
                    _mm256_xor_si256(bits, _mm256_or_si256(_mm256_srai_epi32::<31>(bits), sign));
                let bucket = _mm256_srli_epi32::<{ SUB_BITS as i32 }>(key);
                let e = _mm256_i32gather_epi32::<4>(index, bucket);
                let sub = _mm256_srlv_epi32(
                    _mm256_and_si256(key, sub_mask),
                    _mm256_and_si256(e, shift_mask),
                );
                let cell = _mm256_add_epi32(_mm256_srli_epi32::<{ SHIFT_BITS as i32 }>(e), sub);
                let r = _mm256_and_si256(_mm256_i32gather_epi32::<2>(ranks, cell), rank_mask);
                let b = _mm256_i32gather_ps::<4>(bq.boundaries.as_ptr(), r);
                // An all-ones lane is -1: subtracting the mask adds the
                // compare's 0/1.
                let le = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LE_OQ>(b, v));
                let q = _mm256_i32gather_ps::<4>(bq.values.as_ptr(), _mm256_sub_epi32(r, le));
                let is_nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(raw, raw);
                _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_blendv_ps(q, nan, is_nan));
            }
        }
        bq.quantize_cells(cells, &src[main..], &mut dst[main..]);
    }
}

/// Activation quantization at the granularity of a streaming micro-panel:
/// one boundary table shared by every element (per-tensor, the paper's
/// choice), one per channel (the per-channel ablation), or one per half
/// of a skip-connection concatenation (the paper's split quantization).
#[derive(Clone, Debug)]
pub struct PanelQuantizer {
    /// Consecutive channels sharing a table, as `(channel count, table)`
    /// runs in channel order; one run quantizes a whole run-length of
    /// channel groups in a single slice call.
    runs: Vec<(usize, Arc<BoundaryQuantizer>)>,
}

impl PanelQuantizer {
    /// Per-tensor granularity: one table for every element.
    pub fn per_tensor(q: &TensorQuantizer) -> Self {
        PanelQuantizer { runs: vec![(1, BoundaryQuantizer::cached(q))] }
    }

    /// Per-channel granularity: `formats[c]` quantizes channel `c`.
    ///
    /// # Panics
    ///
    /// Panics if `formats` is empty.
    pub fn per_channel(formats: &[TensorQuantizer]) -> Self {
        assert!(!formats.is_empty(), "per-channel quantizer needs at least one channel");
        let mut runs: Vec<(usize, TensorQuantizer)> = Vec::new();
        for &f in formats {
            match runs.last_mut() {
                Some((n, last)) if *last == f => *n += 1,
                _ => runs.push((1, f)),
            }
        }
        PanelQuantizer {
            runs: runs.iter().map(|(n, f)| (*n, BoundaryQuantizer::cached(f))).collect(),
        }
    }

    /// Split quantization of a `channels`-wide `concat(trunk, skip)`
    /// input: channels `[0, at)` through `trunk`, `[at, channels)` through
    /// `skip`. When `at >= channels` there is no skip half and the whole
    /// input takes `trunk` per tensor — exactly the layer tap's rule.
    pub fn split(
        trunk: &TensorQuantizer,
        skip: &TensorQuantizer,
        at: usize,
        channels: usize,
    ) -> Self {
        if at >= channels {
            return Self::per_tensor(trunk);
        }
        let formats: Vec<TensorQuantizer> =
            (0..channels).map(|ch| if ch < at { *trunk } else { *skip }).collect();
        Self::per_channel(&formats)
    }

    /// Number of channels the tables cover (1 = per-tensor).
    pub fn channels(&self) -> usize {
        self.runs.iter().map(|(n, _)| n).sum()
    }

    /// Quantizes a flat panel where the element at index `i` belongs to
    /// channel `(i / group) % channels`. A GEMM activation row uses
    /// `group = 1` (feature per column); a conv `[c, h, w]` input slice
    /// uses `group = h * w` (one plane per channel).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or `group` is zero for a per-channel
    /// quantizer.
    pub fn quantize_panel_into(&self, src: &[f32], dst: &mut [f32], group: usize) {
        self.quantize_panel_into_as(simd::active(), src, dst, group);
    }

    /// [`Self::quantize_panel_into`] on an explicit ISA path (see
    /// [`BoundaryQuantizer::quantize_slice_into_as`]).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or `group` is zero for a per-channel
    /// quantizer.
    pub fn quantize_panel_into_as(&self, isa: Isa, src: &[f32], dst: &mut [f32], group: usize) {
        if let [(_, only)] = self.runs.as_slice() {
            only.quantize_slice_into_as(isa, src, dst);
            return;
        }
        assert!(group > 0, "channel group must be positive");
        assert_eq!(src.len(), dst.len(), "quantize panel length mismatch");
        let mut offset = 0usize;
        // One pass over the runs per channel cycle (a GEMM panel holds
        // several rows, each a full cycle of `group = 1` channels).
        while offset < src.len() {
            for (count, q) in &self.runs {
                let n = (count * group).min(src.len() - offset);
                q.quantize_slice_into_as(
                    isa,
                    &src[offset..offset + n],
                    &mut dst[offset..offset + n],
                );
                offset += n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fp_formats() -> Vec<FpFormat> {
        vec![
            FpFormat::new(4, 3),
            FpFormat::new(5, 2),
            FpFormat::new(2, 1),
            FpFormat::new(1, 2),
            FpFormat::new(3, 4),
            FpFormat::with_bias(3, 4, 6.5),
            FpFormat::with_bias(4, 3, 8.37),
            FpFormat::with_bias(2, 1, 1.25),
            // Regression: searched bias whose clip maximum differs from
            // the enumerated top magnitude by ULPs (the clamp wins).
            FpFormat::with_bias(2, 5, 7.874_823),
        ]
    }

    fn assert_zero_or_eq(a: f32, b: f32, ctx: &str) {
        // -0.0 canonicalisation is the one permitted bit difference.
        if a == 0.0 && b == 0.0 {
            return;
        }
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: {a} vs {b}");
    }

    /// The full-range reference search: a plain bisection over the whole
    /// finite order-key line, ignoring the start key.
    fn bisect_search(above: &dyn Fn(u32) -> bool, _start: u32) -> u32 {
        let mut lb = order_key(-f32::MAX);
        let mut ub = order_key(f32::MAX);
        while ub - lb > 1 {
            let mid = lb + (ub - lb) / 2;
            if above(mid) {
                ub = mid;
            } else {
                lb = mid;
            }
        }
        ub
    }

    fn int_formats() -> Vec<IntFormat> {
        let mut out = Vec::new();
        for bits in [3u32, 4, 8] {
            for (lo, hi) in [(-1.0f32, 1.0f32), (-0.3, 2.7), (0.0, 5.0), (-4.0, 0.0), (-1e-3, 7e-4)]
            {
                out.push(IntFormat::from_range(bits, lo, hi));
            }
        }
        out
    }

    /// Every ExMy split from 4 to 8 bits at its standard bias and at
    /// fractional biases around it, plus the hand-picked edge formats.
    fn sweep_fp_formats() -> Vec<FpFormat> {
        let mut out = fp_formats();
        for bits in 4u32..=8 {
            for e in 1..bits - 1 {
                let m = bits - 1 - e;
                let std = FpFormat::new(e, m).bias();
                for delta in [0.0f32, -1.75, 0.37, 2.5] {
                    out.push(FpFormat::with_bias(e, m, std + delta));
                }
            }
        }
        out
    }

    fn assert_bits(got: &[f32], want: &[f32], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{ctx} entry {i}: {g} vs {w}");
        }
    }

    #[test]
    fn galloping_tables_match_full_range_bisection() {
        for fmt in sweep_fp_formats() {
            let bq = BoundaryQuantizer::from_fp(fmt);
            let want = search_boundaries(bq.values(), fp_oracle(fmt), bisect_search);
            assert_bits(bq.boundaries(), &want, &format!("{fmt}"));
        }
        for fmt in int_formats() {
            let bq = BoundaryQuantizer::from_int(fmt);
            let want = search_boundaries(bq.values(), |x| fmt.quantize_scalar(x), bisect_search);
            assert_bits(bq.boundaries(), &want, &format!("{fmt}"));
        }
    }

    #[test]
    fn galloping_tables_keep_the_value_tables() {
        // The value line is the projected enumeration, independent of the
        // boundary search; pin it against a direct rebuild.
        for fmt in fp_formats() {
            let q = fp_oracle(fmt);
            let mut want: Vec<f32> = fmt
                .enumerate_non_negative()
                .iter()
                .flat_map(|&v| [v, -v])
                .chain([f32::MAX, -f32::MAX])
                .map(&q)
                .collect();
            want.sort_by(f32::total_cmp);
            want.dedup();
            assert_bits(BoundaryQuantizer::from_fp(fmt).values(), &want, &format!("{fmt}"));
        }
    }

    #[test]
    fn rank_cells_hold_one_boundary_and_direct_ranks() {
        // The sweep plus two searched E2M5 biases shipped in containers.
        let mut formats = sweep_fp_formats();
        formats.extend([
            FpFormat::with_bias(2, 5, 1.787_683),
            FpFormat::with_bias(2, 5, -2.384_106_6),
        ]);
        for fmt in formats {
            let bq = BoundaryQuantizer::from_fp(fmt);
            let FastPath::Cells(cells) = &bq.fast else {
                panic!("{fmt}: FP tables use rank cells");
            };
            let b = bq.boundaries();
            let finite: Vec<u32> =
                b.iter().filter(|b| b.is_finite()).map(|&b| order_key(b)).collect();
            let mut next_cell = 0usize;
            let mut resolution = None;
            for (t, &e) in cells.index.iter().enumerate() {
                let (first, shift) = ((e >> SHIFT_BITS) as usize, e & SHIFT_MASK);
                assert_eq!(first, next_cell, "{fmt}: bucket {t} cells are not contiguous");
                let bucket: Vec<u32> =
                    finite.iter().copied().filter(|&k| k >> SUB_BITS == t as u32).collect();
                if bucket.is_empty() {
                    assert_eq!(shift, SUB_BITS, "{fmt}: empty bucket {t} is one cell");
                } else {
                    let c = SUB_BITS - shift;
                    assert_eq!(*resolution.get_or_insert(c), c, "{fmt}: one resolution per table");
                }
                for j in 0..1u32 << (SUB_BITS - shift) {
                    let start = (t as u32) << SUB_BITS | j << shift;
                    let end = u64::from(start) + (1u64 << shift);
                    let held = bucket.iter().filter(|&&k| k >= start && u64::from(k) < end).count();
                    assert!(held <= 1, "{fmt}: cell {j} of bucket {t} holds {held} boundaries");
                    let want = b.partition_point(|&x| x < key_to_float(start));
                    let got = usize::from(cells.ranks[first + j as usize]);
                    assert_eq!(got, want, "{fmt}: rank of cell {j} in bucket {t}");
                }
                next_cell = first + (1 << (SUB_BITS - shift));
            }
            assert_eq!(cells.ranks.len(), next_cell + 1, "{fmt}: one pad entry after the cells");
            let c = resolution.expect("an FP table has finite boundaries");
            assert!(c <= fmt.man_bits() + 2, "{fmt}: resolution {c} above M + 2");
            // The sentinel that keeps the top cell's compare in bounds.
            assert_eq!(bq.boundaries.last(), Some(&f32::INFINITY), "{fmt}: +inf sentinel");
        }
    }

    #[test]
    fn slice_path_matches_scalar_across_the_bit_patterns_on_every_isa() {
        // A stride through all 2^32 patterns (NaNs, ±∞, subnormals, both
        // zeros among them) plus each boundary and its neighbours.
        for fmt in sweep_fp_formats() {
            let bq = BoundaryQuantizer::from_fp(fmt);
            let mut probes: Vec<f32> = (0..=u32::MAX).step_by(65_521).map(f32::from_bits).collect();
            for &b in bq.boundaries().iter().filter(|b| b.is_finite()) {
                for d in [-1i32, 0, 1] {
                    probes.push(f32::from_bits(b.to_bits().wrapping_add_signed(d)));
                }
            }
            let want: Vec<f32> = probes.iter().map(|&v| bq.quantize_scalar(v)).collect();
            for &isa in simd::available() {
                let mut got = vec![0.0f32; probes.len()];
                bq.quantize_slice_into_as(isa, &probes, &mut got);
                assert_bits(&got, &want, &format!("{fmt} {isa:?}"));
            }
        }
    }

    #[test]
    fn slice_path_compares_floats_not_order_keys() {
        // A table whose boundary is +0.0 exactly: -0.0 has the smaller
        // order key but is `<=` the boundary as a float, like the plain
        // bisection counts it. Searched FP tables never put a boundary at
        // a zero, so this pins the compare on a hand-built table.
        let sign = |x: f32| if x.is_sign_negative() { -1.0 } else { 1.0 };
        let bq = BoundaryQuantizer::from_reference(vec![-1.0, 1.0], sign, 0.0, None);
        assert_eq!(bq.boundaries()[0].to_bits(), 0.0f32.to_bits());
        let tiny = f32::from_bits(1);
        let probes: Vec<f32> = [-0.0f32, 0.0, -tiny, tiny].repeat(5);
        let want: Vec<f32> = probes.iter().map(|&v| bq.quantize_scalar(v)).collect();
        assert_eq!(want[..4], [1.0, 1.0, -1.0, 1.0]);
        for &isa in simd::available() {
            let mut got = vec![0.0f32; probes.len()];
            bq.quantize_slice_into_as(isa, &probes, &mut got);
            assert_bits(&got, &want, &format!("{isa:?}"));
        }
    }

    #[test]
    fn split_panel_routes_trunk_and_skip_channels() {
        let trunk = TensorQuantizer::Fp(FpFormat::new(4, 3));
        let skip = TensorQuantizer::Int(IntFormat::from_range(4, -1.0, 1.0));
        let pq = PanelQuantizer::split(&trunk, &skip, 2, 3);
        assert_eq!(pq.channels(), 3);
        assert_eq!(pq.runs.len(), 2, "consecutive equal formats share one run");
        let src = [0.731f32, -0.219, 0.731, -0.219, 0.731, -0.219];
        let mut dst = [0.0f32; 6];
        pq.quantize_panel_into(&src, &mut dst, 2);
        let q =
            |f: &TensorQuantizer, v: f32| f.quantize(&Tensor::from_vec(vec![v], &[1])).data()[0];
        for (i, (&s, &d)) in src.iter().zip(&dst).enumerate() {
            let f = if i < 4 { &trunk } else { &skip };
            assert_eq!(d.to_bits(), q(f, s).to_bits(), "element {i}");
        }
        // No skip half: the trunk format per tensor, like the layer tap.
        for at in [3, 5] {
            let whole = PanelQuantizer::split(&trunk, &skip, at, 3);
            assert_eq!(whole.channels(), 1, "at {at}");
        }
    }

    #[test]
    fn order_key_is_monotone() {
        let probes =
            [-f32::MAX, -1e20, -3.5, -1.0, -f32::MIN_POSITIVE, 0.0, 1e-30, 0.5, 2.0, f32::MAX];
        for w in probes.windows(2) {
            assert!(order_key(w[0]) < order_key(w[1]), "{} vs {}", w[0], w[1]);
            assert_eq!(key_to_float(order_key(w[0])), w[0]);
        }
    }

    #[test]
    fn fp_boundary_matches_reference_on_adversarial_probes() {
        for fmt in fp_formats() {
            let bq = BoundaryQuantizer::from_fp(fmt);
            let mut probes = vec![0.0f32, f32::INFINITY, f32::NEG_INFINITY];
            for pair in bq.values().windows(2) {
                let mid = ((f64::from(pair[0]) + f64::from(pair[1])) * 0.5) as f32;
                for v in [pair[0], pair[1], mid] {
                    probes.push(v);
                    probes.push(f32::from_bits(v.to_bits().wrapping_add(1)));
                    if v != 0.0 {
                        probes.push(f32::from_bits(v.to_bits().wrapping_sub(1)));
                    }
                }
            }
            for &p in &probes {
                let want = fmt.quantize_scalar(p);
                assert_zero_or_eq(bq.quantize_scalar(p), want, &format!("{fmt} scalar {p}"));
                let mut got = [0.0f32];
                bq.quantize_slice_into(&[p], &mut got);
                assert_zero_or_eq(got[0], want, &format!("{fmt} slice {p}"));
            }
        }
    }

    #[test]
    fn int_boundary_matches_reference() {
        for fmt in [
            IntFormat::from_range(4, -1.0, 1.0),
            IntFormat::from_range(8, -0.3, 2.7),
            IntFormat::from_range(3, 0.0, 5.0),
            IntFormat::from_range(8, -4.0, 0.0),
        ] {
            let bq = BoundaryQuantizer::from_int(fmt);
            let mut probes = vec![0.0f32, 10.0, -10.0, f32::INFINITY, f32::NEG_INFINITY];
            for pair in bq.values().windows(2) {
                let mid = (pair[0] + pair[1]) * 0.5;
                probes.extend([pair[0], pair[1], mid, mid * 1.0001, mid * 0.9999]);
            }
            let mut out = vec![0.0f32; probes.len()];
            bq.quantize_slice_into(&probes, &mut out);
            for (i, &p) in probes.iter().enumerate() {
                let want = fmt.quantize_scalar(p);
                assert_zero_or_eq(bq.quantize_scalar(p), want, &format!("{fmt} scalar {p}"));
                assert_zero_or_eq(out[i], want, &format!("{fmt} slice {p}"));
            }
        }
    }

    #[test]
    fn nan_maps_like_reference() {
        let fp = BoundaryQuantizer::from_fp(FpFormat::new(4, 3));
        assert_eq!(fp.quantize_scalar(f32::NAN).to_bits(), 0.0f32.to_bits());
        let ifmt = IntFormat::from_range(8, -0.3, 2.7);
        let iq = BoundaryQuantizer::from_int(ifmt);
        assert_eq!(iq.quantize_scalar(f32::NAN), ifmt.quantize_scalar(f32::NAN));
        let mut out = [1.0f32; 2];
        iq.quantize_slice_into(&[f32::NAN, f32::NAN], &mut out);
        assert_eq!(out[0], ifmt.quantize_scalar(f32::NAN));
    }

    #[test]
    fn cached_returns_same_table() {
        let q = TensorQuantizer::Fp(FpFormat::new(4, 3));
        let a = BoundaryQuantizer::cached(&q);
        let b = BoundaryQuantizer::cached(&q);
        assert!(Arc::ptr_eq(&a, &b), "cache must deduplicate");
    }

    #[test]
    fn tensor_quantize_matches_format_quantize() {
        let fmt = FpFormat::new(2, 1);
        let bq = BoundaryQuantizer::from_fp(fmt);
        let x = Tensor::linspace(-4.0, 4.0, 101);
        let got = bq.quantize(&x);
        let want = fmt.quantize(&x);
        assert_eq!(got.dims(), want.dims());
        for (a, b) in got.data().iter().zip(want.data()) {
            assert_zero_or_eq(*a, *b, "tensor path");
        }
    }

    #[test]
    fn panel_per_channel_routes_by_group() {
        let q0 = TensorQuantizer::Fp(FpFormat::new(4, 3));
        let q1 = TensorQuantizer::Int(IntFormat::from_range(4, -1.0, 1.0));
        let pq = PanelQuantizer::per_channel(&[q0, q1]);
        assert_eq!(pq.channels(), 2);
        let src = [0.731f32, -0.219, 0.731, -0.219];
        let mut dst = [0.0f32; 4];
        // group = 2: first two elements via q0, last two via q1.
        pq.quantize_panel_into(&src, &mut dst, 2);
        assert_eq!(dst[0], q0.quantize(&Tensor::from_vec(vec![src[0]], &[1])).data()[0]);
        assert_eq!(dst[2], q1.quantize(&Tensor::from_vec(vec![src[2]], &[1])).data()[0]);
        assert_ne!(dst[0], dst[2], "distinct formats must disagree on this probe");
        // group = 1 alternates channels per element.
        pq.quantize_panel_into(&src, &mut dst, 1);
        assert_eq!(dst[1], q1.quantize(&Tensor::from_vec(vec![src[1]], &[1])).data()[0]);
    }

    proptest! {
        #[test]
        fn fp_slice_path_is_bit_exact(
            vals in prop::collection::vec(-400.0f32..400.0, 1..64),
            pick in 0usize..9,
        ) {
            let fmt = fp_formats()[pick];
            let bq = BoundaryQuantizer::from_fp(fmt);
            let mut out = vec![0.0f32; vals.len()];
            bq.quantize_slice_into(&vals, &mut out);
            for (&v, &got) in vals.iter().zip(&out) {
                let want = fmt.quantize_scalar(v);
                prop_assert!(
                    (got == 0.0 && want == 0.0) || got.to_bits() == want.to_bits(),
                    "{fmt}: {v} -> {got} vs {want}"
                );
            }
        }

        #[test]
        fn int_slice_path_is_bit_exact(
            vals in prop::collection::vec(-20.0f32..20.0, 1..64),
            bits in 2u32..9,
        ) {
            let fmt = IntFormat::from_range(bits, -3.0, 5.0);
            let bq = BoundaryQuantizer::from_int(fmt);
            let mut out = vec![0.0f32; vals.len()];
            bq.quantize_slice_into(&vals, &mut out);
            for (&v, &got) in vals.iter().zip(&out) {
                let want = fmt.quantize_scalar(v);
                prop_assert!(
                    (got == 0.0 && want == 0.0) || got.to_bits() == want.to_bits(),
                    "INT{bits}: {v} -> {got} vs {want}"
                );
            }
        }

        #[test]
        fn scalar_and_slice_agree_everywhere(bits_pattern in 0u32..u32::MAX) {
            // Any bit pattern, including NaNs, infinities and subnormals.
            let v = f32::from_bits(bits_pattern);
            let bq = BoundaryQuantizer::from_fp(FpFormat::new(3, 4));
            let mut out = [0.0f32];
            bq.quantize_slice_into(&[v], &mut out);
            prop_assert_eq!(out[0].to_bits(), bq.quantize_scalar(v).to_bits());
        }

        #[test]
        fn slice_isa_paths_agree_on_any_bits(bits_pattern in 0u32..u32::MAX, pick in 0usize..3) {
            // The SIMD cell path must match the scalar cell path on every
            // input class: NaNs, ±∞, subnormals, both zeros.
            let v = f32::from_bits(bits_pattern);
            let fmt = [FpFormat::new(4, 3), FpFormat::new(2, 1), FpFormat::with_bias(3, 4, 6.5)][pick];
            let bq = BoundaryQuantizer::cached(&TensorQuantizer::Fp(fmt));
            let mut want = [0.0f32];
            bq.quantize_slice_into_as(Isa::Scalar, &[v], &mut want);
            for &isa in simd::available() {
                let mut got = [0.0f32];
                bq.quantize_slice_into_as(isa, &[v], &mut got);
                prop_assert_eq!(got[0].to_bits(), want[0].to_bits(), "{:?} on {}", isa, v);
            }
        }
    }
}
