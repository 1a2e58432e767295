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
//! # Slice path: folded magnitude ranks
//!
//! The table covers the full *signed* value line, which the scalar
//! bisection searches. The slice path of an FP table searches only half
//! of it. An FP oracle is odd-symmetric apart from the sign of zero:
//! `q(-x) = -q(x)`, since the clip, `|x|`, the divide, round-half-away
//! and the multiply all commute with negation. So the slice path folds
//! the sign off, quantizes `|x|` on the non-negative half of the table,
//! and puts the sign back (`-0.0` then canonicalises to `+0.0` with one
//! `+ 0.0`). Construction checks the premise: the value line must be
//! symmetric about `+0.0`, and each negative boundary must sit one ULP
//! toward zero from its mirrored positive boundary, as round-half-away
//! puts it. A table that fails the check keeps the plain bisection; only
//! formats whose range leaves the finite, nonzero f32 line build one.
//!
//! The positive boundaries span a window of f32 binades, from the binade
//! of the smallest to that of the largest. Each binade splits into `2^c`
//! equal cells, so a magnitude's cell is `(exponent − e_lo) << c |
//! mantissa >> (23 − c)`, one subtract and one shift of its bits once it
//! is clamped into the window. Each cell stores the rank `r` of the first
//! boundary at or after its start, so every boundary below `r` is `<= a`
//! for any magnitude `a` in the cell. If the cell holds at most one
//! boundary, the count of boundaries `<= a` is `r + (boundaries[r] <=
//! a)`: the one float compare decides the cell's own boundary, and
//! everything from `boundaries[r + 1]` on lies in a later cell.
//! Magnitudes below the window clamp into its first cell (rank 0, and
//! the compare against the smallest boundary stays false); magnitudes
//! above it, `+∞` included, clamp into the last cell, whose compare
//! counts the top boundary. A `+∞` sentinel after the last boundary keeps
//! `boundaries[r]` in bounds and never counts.
//!
//! `c` is the smallest resolution that leaves at most one boundary in
//! any cell, read off in one pass from the highest differing bit of each
//! adjacent pair. It stays small. The binades of an ExMy format are the
//! f32 binades shifted by the fractional part of its bias, so in an f32
//! binade `[2^e, 2^(e+1))` its grid step is more than `2^(e-1-M)`, and
//! its boundaries, at the midpoints of neighbouring values, are at least
//! that far apart. A cell at resolution `M + 2` is `2^(e-M-2)` wide, so
//! `c <= M + 2`. Ranks are `u16`, built in one pass over cells and
//! boundaries: about 2.3 KB for E2M5 at a searched bias. Three gathers
//! per 8 elements (rank, boundary, value) finish the AVX2 path, with the
//! tail of a row in one masked vector and 4-wide rows two to a vector.
//! INT formats take an arithmetic shortcut that evaluates the
//! *identical* float expression as [`IntFormat::quantize_scalar`].
//!
//! Both paths quantize rows into a strided destination ([`Planes`]), so
//! a caller can write a quantized image straight into a zero-bordered
//! operand without a second copy.
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
use fpdq_tensor::operand::{ActStage, Planes};
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

/// The INT arithmetic shortcut parameters (evaluating the same float
/// expression as [`IntFormat::quantize_scalar`]), or the FP magnitude
/// ranks.
#[derive(Clone, Debug)]
enum FastPath {
    /// Folded magnitude-rank lookup (FP formats).
    Folded(MagnitudeRanks),
    /// The plain bisection, for the FP tables the fold cannot take (see
    /// [`MagnitudeRanks::build`]).
    Bisect,
    /// Direct affine rounding (INT formats).
    Affine { scale: f32, zero_point: f32, qmax: f32 },
}

/// Bits of `f32::MAX`: the magnitude every larger one (`+∞`, and NaN
/// before its blend) clamps to.
const MAX_BITS: u32 = 0x7F7F_FFFF;

/// The sign bit of an `f32`.
const SIGN_BIT: u32 = 0x8000_0000;

/// The mantissa width of an `f32`: the bits below a binade's exponent.
const MANTISSA_BITS: u32 = 23;

/// The dense cell index over the non-negative half of an odd-symmetric
/// FP table (see the module docs).
///
/// The magnitude with bits `a`, clamped to `[lo, hi]`, lies in cell
/// `(a - lo) >> shift`. `ranks[cell]` counts the positive boundaries
/// below the cell's start. One pad entry ends `ranks`, so a 32-bit gather
/// of the last rank stays in bounds.
#[derive(Clone, Debug)]
struct MagnitudeRanks {
    /// Index of `+0.0` in the signed value line: the non-negative values
    /// are `values[zero..]`, and the positive boundaries (with the
    /// sentinel) `boundaries[zero..]`.
    zero: usize,
    /// Bits of the first magnitude of the window: the start of the binade
    /// of the smallest positive boundary.
    lo: u32,
    /// Bits of the last magnitude of the window: the end of the binade of
    /// the largest boundary.
    hi: u32,
    /// `23 - c`: the cell width is `2^shift` ULPs.
    shift: u32,
    ranks: Vec<u16>,
}

impl MagnitudeRanks {
    /// Builds the index over the ascending signed `values` and their
    /// `boundaries` (sentinel excluded): one pass over adjacent positive
    /// boundaries for the resolution, one over cells and boundaries for
    /// the ranks.
    ///
    /// Returns `None` for a table the fold cannot take: one that is not
    /// odd-symmetric about `+0.0` (values and mirrored boundaries), whose
    /// positive boundaries are not finite and strictly ascending, or
    /// whose non-negative half has more than `u16::MAX` boundaries. Only
    /// formats whose range leaves the finite, nonzero f32 line (biases
    /// beyond about ±130) build such tables.
    fn build(values: &[f32], boundaries: &[f32]) -> Option<Self> {
        let zero = values.partition_point(|&v| v < 0.0);
        let symmetric = values.get(zero).is_some_and(|v| v.to_bits() == 0)
            && values.len() == 2 * zero + 1
            && (1..=zero).all(|i| values[zero - i].to_bits() == (-values[zero + i]).to_bits());
        let pos = &boundaries[zero.min(boundaries.len())..];
        // Round-half-away: the mirror of a positive boundary `b`
        // quantizes toward the larger magnitude, so the negative boundary
        // sits one ULP closer to zero.
        let mirrored = |(i, &b): (usize, &f32)| {
            b > 0.0 && b.is_finite() && boundaries[zero - 1 - i].to_bits() == (-b).to_bits() - 1
        };
        if !symmetric
            || pos.is_empty()
            || pos.len() > usize::from(u16::MAX)
            || !pos.iter().enumerate().all(mirrored)
            || pos.windows(2).any(|p| p[0] >= p[1])
        {
            return None;
        }
        // Adjacent keys land in different cells once the cell width drops
        // to their highest differing bit.
        let shift = pos
            .windows(2)
            .map(|p| 31 - (p[0].to_bits() ^ p[1].to_bits()).leading_zeros())
            .fold(MANTISSA_BITS, u32::min);
        let binade = |b: f32| b.to_bits() >> MANTISSA_BITS << MANTISSA_BITS;
        let lo = binade(pos[0]);
        let hi = binade(pos[pos.len() - 1]) + ((1 << MANTISSA_BITS) - 1);
        // At most 255 binades of at most 2^12 cells (`c <= M + 2` with
        // `M <= 10`): the index fits the gathers' `i32` offsets.
        let cells = ((hi - lo) >> shift) as usize + 1;
        let mut ranks = Vec::with_capacity(cells + 1);
        let mut r = 0usize;
        for cell in 0..cells as u32 {
            let start = lo + (cell << shift);
            while r < pos.len() && pos[r].to_bits() < start {
                r += 1;
            }
            ranks.push(r as u16);
        }
        ranks.push(0);
        Some(MagnitudeRanks { zero, lo, hi, shift, ranks })
    }

    /// The cell of the (clamped) magnitude bits `a`.
    #[inline]
    fn cell(&self, a: u32) -> usize {
        ((a.clamp(self.lo, self.hi) - self.lo) >> self.shift) as usize
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
    /// one `+∞` sentinel for the slice path's compare.
    boundaries: Vec<f32>,
    /// Output for NaN inputs.
    nan_value: f32,
    fast: FastPath,
}

impl BoundaryQuantizer {
    /// Builds the table for a floating-point format.
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
        Self::from_reference(values, quantize, 0.0, |v, b| {
            MagnitudeRanks::build(v, b).map_or(FastPath::Bisect, FastPath::Folded)
        })
    }

    /// Builds the table for an integer format.
    pub fn from_int(fmt: IntFormat) -> Self {
        let qmax = (1u32 << fmt.bits()) as f32 - 1.0;
        let zp = fmt.zero_point();
        let values: Vec<f32> =
            (0..1u32 << fmt.bits()).map(|q| fmt.scale() * (q as f32 - zp)).collect();
        let nan_value = fmt.quantize_scalar(f32::NAN);
        let fast = FastPath::Affine { scale: fmt.scale(), zero_point: zp, qmax };
        Self::from_reference(values, move |x| fmt.quantize_scalar(x), nan_value, |_, _| fast)
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
    /// from the pair's midpoint and bisected ([`gallop_search`]), then
    /// the slice path `fast` builds over values and boundaries.
    fn from_reference(
        values: Vec<f32>,
        quantize: impl Fn(f32) -> f32,
        nan_value: f32,
        fast: impl FnOnce(&[f32], &[f32]) -> FastPath,
    ) -> Self {
        let mut boundaries = search_boundaries(&values, quantize, gallop_search);
        let fast = fast(&values, &boundaries);
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

    /// The scalar folded path for one element (also the NEON path).
    #[inline]
    fn quantize_folded(&self, m: &MagnitudeRanks, v: f32) -> f32 {
        if v.is_nan() {
            return self.nan_value;
        }
        let bits = v.to_bits();
        let a = (bits & !SIGN_BIT).min(MAX_BITS);
        let r = usize::from(m.ranks[m.cell(a)]);
        let j = r + usize::from(self.boundaries[m.zero + r] <= f32::from_bits(a));
        // `+ 0.0` turns the `-0.0` of a negative input rounding to zero
        // into `+0.0`, as the signed table has it.
        f32::from_bits(self.values[m.zero + j].to_bits() | bits & SIGN_BIT) + 0.0
    }

    /// Quantizes a slice into caller scratch through the accelerated path
    /// (folded magnitude ranks for FP, direct affine for INT) — bit-exact
    /// with [`Self::quantize_scalar`].
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` lengths differ.
    pub fn quantize_slice_into(&self, src: &[f32], dst: &mut [f32]) {
        self.quantize_slice_into_as(simd::active(), src, dst);
    }

    /// [`Self::quantize_slice_into`] on an explicit ISA path — the
    /// dispatch point the differential SIMD tests drive from both sides.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` lengths differ.
    pub fn quantize_slice_into_as(&self, isa: Isa, src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "quantize slice length mismatch");
        self.quantize_planes_into_as(isa, src, dst, Planes::dense(src.len()));
    }

    /// Quantizes the planes of `src` into the strided rows of `dst` that
    /// `layout` names, leaving every other element of `dst` as it is.
    ///
    /// An FP element has its sign folded off, its magnitude clamped into
    /// the table's binade window, and its cell's rank plus one float
    /// compare pick its value, which gets the sign back (see the module
    /// docs); NaN maps to the table's NaN output. The AVX2 variant runs 8
    /// elements per iteration with three gathers (rank, boundary, value),
    /// the tail of each row in one masked vector and 4-wide rows two to a
    /// vector. It is bit-exact by construction, since the rank and
    /// compare are the same integers and floats in every lane. An
    /// unsupported `isa` (and NEON) takes the scalar path. The INT affine
    /// shortcut is a single float expression either way and does not
    /// dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not whole planes of `layout`, or `dst` is too
    /// short for them.
    pub fn quantize_planes_into_as(&self, isa: Isa, src: &[f32], dst: &mut [f32], layout: Planes) {
        // Contiguous planes are one long row.
        let layout = if layout.pitch == layout.width && layout.plane == layout.len() {
            layout.check(src, dst);
            Planes::dense(src.len())
        } else {
            layout
        };
        #[cfg(not(target_arch = "x86_64"))]
        let _ = isa;
        match &self.fast {
            FastPath::Affine { scale, zero_point, qmax } => {
                let (s, zp, qmax) = (*scale, *zero_point, *qmax);
                let nan = self.nan_value;
                // The exact expression of `IntFormat::quantize_scalar`.
                layout.map(src, dst, |v| {
                    if v.is_nan() {
                        nan
                    } else {
                        s * (((v / s).round() + zp).clamp(0.0, qmax) - zp)
                    }
                });
            }
            FastPath::Bisect => layout.map(src, dst, |v| self.quantize_scalar(v)),
            FastPath::Folded(m) => {
                #[cfg(target_arch = "x86_64")]
                if isa == Isa::Avx2 && isa.is_supported() {
                    // SAFETY: AVX2 verified at runtime; `m` was built from
                    // this table's values and boundaries, which end in the
                    // `+∞` sentinel.
                    unsafe { avx2::quantize_folded(self, m, src, dst, layout) };
                    return;
                }
                layout.map(src, dst, |v| self.quantize_folded(m, v));
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

/// AVX2 variant of the folded path: 8 elements per iteration, every table
/// access a gather, each row's tail in one masked vector, and 4-wide rows
/// two to a vector.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{BoundaryQuantizer, MagnitudeRanks, Planes, MAX_BITS, SIGN_BIT};
    use core::arch::x86_64::*;

    /// The broadcast constants and table pointers of one table.
    struct Table {
        magnitude: __m256i,
        inf: __m256i,
        max: __m256i,
        lo: __m256i,
        hi: __m256i,
        shift: __m128i,
        rank_mask: __m256i,
        nan: __m256,
        ranks: *const i32,
        bounds: *const f32,
        values: *const i32,
    }

    /// # Safety
    ///
    /// Requires AVX2 at runtime. `m` must be [`MagnitudeRanks::build`]
    /// over `bq`'s values and boundaries without their sentinel, and
    /// `bq.boundaries` must end in the `+∞` sentinel: then every clamped
    /// magnitude addresses a cell inside `ranks` (with the pad entry
    /// behind the last one for the 4-byte read), every rank indexes the
    /// positive boundaries, and `rank + 1` is taken only below the
    /// sentinel, inside the non-negative values.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_folded(
        bq: &BoundaryQuantizer,
        m: &MagnitudeRanks,
        src: &[f32],
        dst: &mut [f32],
        layout: Planes,
    ) {
        let planes = layout.check(src, dst);
        let Planes { rows, width, pitch, plane } = layout;
        let t = Table {
            magnitude: _mm256_set1_epi32(!SIGN_BIT as i32),
            inf: _mm256_set1_epi32(f32::INFINITY.to_bits() as i32),
            max: _mm256_set1_epi32(MAX_BITS as i32),
            lo: _mm256_set1_epi32(m.lo as i32),
            hi: _mm256_set1_epi32(m.hi as i32),
            shift: _mm_cvtsi32_si128(m.shift as i32),
            rank_mask: _mm256_set1_epi32(0xFFFF),
            nan: _mm256_set1_ps(bq.nan_value),
            ranks: m.ranks.as_ptr().cast(),
            bounds: bq.boundaries[m.zero..].as_ptr(),
            values: bq.values[m.zero..].as_ptr().cast(),
        };
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        for p in 0..planes {
            let (s0, d0) = (p * rows * width, p * plane);
            let mut y = 0;
            if width == 4 {
                // Two 4-wide rows per vector: adjacent in the source, a
                // pitch apart in the destination.
                while y + 2 <= rows {
                    // SAFETY: both rows lie inside their planes, which
                    // `check` bounds inside `src` and `dst`.
                    unsafe {
                        let q = quantize8(&t, _mm256_loadu_ps(sp.add(s0 + y * 4)));
                        _mm_storeu_ps(dp.add(d0 + y * pitch), _mm256_castps256_ps128(q));
                        _mm_storeu_ps(dp.add(d0 + (y + 1) * pitch), _mm256_extractf128_ps::<1>(q));
                    }
                    y += 2;
                }
            }
            for y in y..rows {
                // SAFETY: as above, for one row of `width`.
                unsafe { quantize_row(&t, sp.add(s0 + y * width), dp.add(d0 + y * pitch), width) };
            }
        }
    }

    /// Quantizes `len` elements from `src` into `dst` through `t`: 8 at
    /// a time, then the tail in one masked vector.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `src` and `dst` must be valid for `len` floats, and
    /// `t` must come from a table meeting [`quantize_folded`]'s contract.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quantize_row(t: &Table, src: *const f32, dst: *mut f32, len: usize) {
        let main = len / 8 * 8;
        for i in (0..main).step_by(8) {
            // SAFETY: `i + 8 <= len`.
            unsafe { _mm256_storeu_ps(dst.add(i), quantize8(t, _mm256_loadu_ps(src.add(i)))) };
        }
        let rest = len - main;
        if rest > 0 {
            let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(rest as i32), lanes);
            // SAFETY: the mask covers lanes `main..len` only; masked-off
            // lanes load `+0.0`, a valid magnitude.
            unsafe {
                let q = quantize8(t, _mm256_maskload_ps(src.add(main), mask));
                _mm256_maskstore_ps(dst.add(main), mask, q);
            }
        }
    }

    /// Quantizes 8 lanes through `t`.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `t` must come from a table meeting
    /// [`quantize_folded`]'s contract.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quantize8(t: &Table, raw: __m256) -> __m256 {
        let bits = _mm256_castps_si256(raw);
        let mag = _mm256_and_si256(bits, t.magnitude);
        let is_nan = _mm256_castsi256_ps(_mm256_cmpgt_epi32(mag, t.inf));
        let a = _mm256_min_epi32(mag, t.max);
        let cell = _mm256_srl_epi32(
            _mm256_sub_epi32(_mm256_min_epi32(_mm256_max_epi32(a, t.lo), t.hi), t.lo),
            t.shift,
        );
        // SAFETY (all three gathers): in bounds by the caller's contract.
        let r =
            unsafe { _mm256_and_si256(_mm256_i32gather_epi32::<2>(t.ranks, cell), t.rank_mask) };
        let b = unsafe { _mm256_i32gather_ps::<4>(t.bounds, r) };
        // An all-ones lane is -1: subtracting the mask adds the compare's
        // 0/1.
        let le = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LE_OQ>(b, _mm256_castsi256_ps(a)));
        let v = unsafe { _mm256_i32gather_epi32::<4>(t.values, _mm256_sub_epi32(r, le)) };
        let sign = _mm256_andnot_si256(t.magnitude, bits);
        // `+ 0.0` canonicalises a signed zero to `+0.0`.
        let q = _mm256_add_ps(_mm256_castsi256_ps(_mm256_or_si256(v, sign)), _mm256_setzero_ps());
        _mm256_blendv_ps(q, t.nan, is_nan)
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
    /// Panics if lengths differ, or for a per-channel quantizer if `group`
    /// is zero or `src` is not whole groups.
    pub fn quantize_panel_into(&self, src: &[f32], dst: &mut [f32], group: usize) {
        self.quantize_panel_into_as(simd::active(), src, dst, group);
    }

    /// [`Self::quantize_panel_into`] on an explicit ISA path (see
    /// [`BoundaryQuantizer::quantize_planes_into_as`]).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ, or for a per-channel quantizer if `group`
    /// is zero or `src` is not whole groups.
    pub fn quantize_panel_into_as(&self, isa: Isa, src: &[f32], dst: &mut [f32], group: usize) {
        assert_eq!(src.len(), dst.len(), "quantize panel length mismatch");
        if let [(_, only)] = self.runs.as_slice() {
            only.quantize_slice_into_as(isa, src, dst);
            return;
        }
        assert!(group > 0, "channel group must be positive");
        self.quantize_planes_into_as(isa, src, dst, Planes::dense(group));
    }

    /// Quantizes the planes of `src` into the strided rows of `dst` that
    /// `layout` names (see [`Planes`]), plane `i` through channel `i %
    /// channels`'s table. A conv writes its quantized `[c, h, w]` input
    /// straight into the interior of its zero-bordered operand this way.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not whole planes of `layout`, or `dst` is too
    /// short for them.
    pub fn quantize_planes_into_as(&self, isa: Isa, src: &[f32], dst: &mut [f32], layout: Planes) {
        if let [(_, only)] = self.runs.as_slice() {
            only.quantize_planes_into_as(isa, src, dst, layout);
            return;
        }
        if src.is_empty() {
            return;
        }
        let per_plane = layout.len();
        assert!(per_plane > 0 && src.len().is_multiple_of(per_plane), "source is not whole planes");
        let planes = src.len() / per_plane;
        let mut p = 0usize;
        // One pass over the runs per channel cycle (a GEMM panel holds
        // several rows, each a full cycle of one-element channels).
        while p < planes {
            for (count, q) in &self.runs {
                let n = (*count).min(planes - p);
                let src = &src[p * per_plane..(p + n) * per_plane];
                q.quantize_planes_into_as(isa, src, &mut dst[p * layout.plane..], layout);
                p += n;
            }
        }
    }
}

/// The fused activation stage of the GEMM and conv engines.
impl ActStage for PanelQuantizer {
    fn channels(&self) -> usize {
        PanelQuantizer::channels(self)
    }

    fn quantize_planes_into_as(&self, isa: Isa, src: &[f32], dst: &mut [f32], layout: Planes) {
        PanelQuantizer::quantize_planes_into_as(self, isa, src, dst, layout);
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
    fn magnitude_ranks_hold_one_boundary_per_cell() {
        // The sweep plus two searched E2M5 biases shipped in containers.
        let mut formats = sweep_fp_formats();
        formats.extend([
            FpFormat::with_bias(2, 5, 1.787_683),
            FpFormat::with_bias(2, 5, -2.384_106_6),
        ]);
        for fmt in formats {
            let bq = BoundaryQuantizer::from_fp(fmt);
            let FastPath::Folded(m) = &bq.fast else {
                panic!("{fmt}: FP tables fold onto magnitude ranks");
            };
            assert_eq!(bq.values()[m.zero].to_bits(), 0, "{fmt}: +0.0 heads the magnitudes");
            let pos: Vec<u32> = bq.boundaries()[m.zero..].iter().map(|b| b.to_bits()).collect();
            assert_eq!(m.lo & ((1 << MANTISSA_BITS) - 1), 0, "{fmt}: window starts a binade");
            assert_eq!(m.lo, pos[0] >> MANTISSA_BITS << MANTISSA_BITS, "{fmt}: window start");
            assert_eq!(m.hi >> MANTISSA_BITS, pos[pos.len() - 1] >> MANTISSA_BITS, "{fmt}: end");
            assert_eq!(m.hi & ((1 << MANTISSA_BITS) - 1), (1 << MANTISSA_BITS) - 1, "{fmt}");
            let cells = ((m.hi - m.lo) >> m.shift) as usize + 1;
            assert_eq!(m.ranks.len(), cells + 1, "{fmt}: one pad entry after the cells");
            for cell in 0..cells {
                let start = m.lo + ((cell as u32) << m.shift);
                let end = u64::from(start) + (1u64 << m.shift);
                let held = pos.iter().filter(|&&k| k >= start && u64::from(k) < end).count();
                assert!(held <= 1, "{fmt}: cell {cell} holds {held} boundaries");
                let want = pos.partition_point(|&k| k < start);
                assert_eq!(usize::from(m.ranks[cell]), want, "{fmt}: rank of cell {cell}");
            }
            let c = MANTISSA_BITS - m.shift;
            assert!(c <= fmt.man_bits() + 2, "{fmt}: resolution {c} above M + 2");
            // A coarser resolution would put two boundaries in one cell.
            if m.shift < MANTISSA_BITS {
                let coarse = m.shift + 1;
                assert!(
                    pos.windows(2).any(|p| p[0] >> coarse == p[1] >> coarse),
                    "{fmt}: resolution {c} is not the smallest"
                );
            }
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
    fn ranges_off_the_f32_line_keep_the_plain_bisection() {
        // Biases that push the grid past f32::MAX or below its smallest
        // subnormal build tables the fold cannot take; they still build,
        // and the slice path returns the scalar bits.
        let probes: Vec<f32> = (0..=u32::MAX).step_by(1_048_573).map(f32::from_bits).collect();
        for fmt in [FpFormat::with_bias(4, 3, -200.0), FpFormat::with_bias(2, 5, 300.0)] {
            let bq = BoundaryQuantizer::from_fp(fmt);
            assert!(matches!(bq.fast, FastPath::Bisect), "{fmt}: expected the bisection");
            let want: Vec<f32> = probes.iter().map(|&v| bq.quantize_scalar(v)).collect();
            for &isa in simd::available() {
                let mut got = vec![0.0f32; probes.len()];
                bq.quantize_slice_into_as(isa, &probes, &mut got);
                assert_bits(&got, &want, &format!("{fmt} {isa:?}"));
            }
        }
    }

    #[test]
    fn folded_path_returns_plus_zero_for_both_zeros_and_tiny_magnitudes() {
        // Inputs of either sign that round to zero must give `+0.0`, as the
        // signed table does; the smallest subnormals sit below every
        // window.
        let tiny = f32::from_bits(1);
        for fmt in fp_formats() {
            let bq = BoundaryQuantizer::from_fp(fmt);
            let min = bq.values()[bq.values().len() / 2 + 1];
            let probes = [-0.0f32, 0.0, -tiny, tiny, min * 0.25, -min * 0.25, f32::NAN, -f32::NAN];
            for &isa in simd::available() {
                let mut got = [1.0f32; 8];
                bq.quantize_slice_into_as(isa, &probes, &mut got);
                for (&g, &p) in got.iter().zip(&probes) {
                    assert_eq!(g.to_bits(), 0, "{fmt} {isa:?}: {p} -> {g}");
                }
            }
        }
    }

    #[test]
    fn strided_planes_write_only_their_rows() {
        // Two planes inside a one-element border, for an FP and an INT
        // table, at widths that take the masked tail, the 4-wide row pairs
        // (with an odd row out) and a full vector plus a tail: every
        // written element matches the slice path, and every other element
        // keeps its sentinel. Empty sources and empty layouts write
        // nothing.
        assert_eq!(Planes::bordered(3, 5, 1), Planes { rows: 3, width: 5, pitch: 7, plane: 35 });
        for (rows, width) in [(3usize, 5usize), (3, 4), (4, 4), (2, 9), (0, 4), (3, 0)] {
            let layout = Planes::bordered(rows, width, 1);
            let (pitch, plane) = (layout.pitch, layout.plane);
            let src: Vec<f32> = (0..2 * rows * width).map(|i| (i as f32 - 14.5) * 0.37).collect();
            for q in [
                TensorQuantizer::Fp(FpFormat::with_bias(2, 5, 1.787_683)),
                TensorQuantizer::Int(IntFormat::from_range(4, -2.0, 2.0)),
            ] {
                let bq = BoundaryQuantizer::from_quantizer(&q);
                let mut want = vec![0.0f32; src.len()];
                bq.quantize_slice_into_as(Isa::Scalar, &src, &mut want);
                for &isa in simd::available() {
                    let mut dst = vec![f32::NAN; 2 * plane];
                    bq.quantize_planes_into_as(isa, &src, &mut dst[pitch + 1..], layout);
                    for (i, d) in dst.iter().enumerate() {
                        let (p, y, x) = (i / plane, i % plane / pitch, i % pitch);
                        let ctx = format!("{q} {isa:?} {rows}x{width} element {i}");
                        if (1..=rows).contains(&y) && (1..=width).contains(&x) {
                            let w = want[(p * rows + y - 1) * width + x - 1];
                            assert_eq!(d.to_bits(), w.to_bits(), "{ctx}");
                        } else {
                            assert!(d.is_nan(), "{ctx}: outside the rows written");
                        }
                    }
                }
            }
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
