//! Bit-packed tensors for low-bitwidth formats.
//!
//! One type, [`PackedTensor`], stores either numeric family: values are
//! codes of the format's bit width, densely packed into bytes. FP codes
//! index the format's enumerable value table (sign × magnitude grid); INT
//! codes are the affine levels of eq. (4). Decode is bit-exact against
//! the simulated quantizers in `fpdq-core` — the property that makes the
//! fake-quantized evaluation trustworthy.
//!
//! # Fast paths
//!
//! The hot kernels never touch bits one at a time:
//!
//! * **Encode** goes through a precomputed *boundary table* (one decision
//!   threshold per adjacent pair of representable magnitudes, found by
//!   exact bit-level bisection against [`FpFormat::quantize_scalar`] +
//!   nearest-index), replacing the per-element `log2`/`powf` quantization
//!   plus binary search of the original implementation while staying
//!   bit-identical to it.
//! * **Decode** for formats whose width divides a byte (FP4/INT4 → 2
//!   codes/byte, FP8/INT8 → 1) goes through a 256-entry *per-byte LUT*
//!   holding the already-signed `f32` values, so expanding a packed row is
//!   one table load per element.
//! * **`pack_bits` / `unpack_bits_range`** use whole-byte copies for 8/16
//!   bit codes, nibble splits for 4-bit codes, and a word-level
//!   shift-accumulator otherwise. The original per-bit loops survive as
//!   [`pack_bits_bitloop`] / [`unpack_bits_range_bitloop`] — the reference
//!   implementations the property tests and benchmarks compare against.
//!
//! Row kernels stream packed weights into caller-owned scratch through
//! the allocation-free [`PackedTensor::decode_range_into_as`].

use bytes::Bytes;
use fpdq_core::{FpFormat, TensorQuantizer};
use fpdq_tensor::operand::DecodeRows;
use fpdq_tensor::simd::{self, Isa};
use fpdq_tensor::{FpdqError, Tensor};

// ---------------------------------------------------------------------------
// Bit packing
// ---------------------------------------------------------------------------

/// Packs `codes` (each below `2^bits`) densely into bytes, little-endian
/// bit order.
pub fn pack_bits(codes: &[u16], bits: u32) -> Vec<u8> {
    assert!((1..=16).contains(&bits), "bits out of range");
    let total_bits = codes.len() * bits as usize;
    let mut out = vec![0u8; total_bits.div_ceil(8)];
    match bits {
        8 => {
            for (slot, &code) in out.iter_mut().zip(codes) {
                debug_assert!(code < 1 << 8, "code {code} exceeds 8 bits");
                *slot = code as u8;
            }
        }
        16 => {
            for (slot, &code) in out.chunks_exact_mut(2).zip(codes) {
                slot.copy_from_slice(&code.to_le_bytes());
            }
        }
        4 => {
            for (slot, pair) in out.iter_mut().zip(codes.chunks(2)) {
                debug_assert!(pair.iter().all(|&c| c < 16), "code exceeds 4 bits");
                *slot = pair[0] as u8 | (pair.get(1).copied().unwrap_or(0) as u8) << 4;
            }
        }
        _ => {
            // Word-level accumulator: shift each code into a 64-bit window
            // and drain whole bytes (≤ 23 live bits at any point).
            let mut acc = 0u64;
            let mut acc_bits = 0u32;
            let mut byte = 0usize;
            for &code in codes {
                debug_assert!(u32::from(code) < (1u32 << bits), "code {code} exceeds {bits} bits");
                acc |= u64::from(code) << acc_bits;
                acc_bits += bits;
                while acc_bits >= 8 {
                    out[byte] = acc as u8;
                    byte += 1;
                    acc >>= 8;
                    acc_bits -= 8;
                }
            }
            if acc_bits > 0 {
                out[byte] = acc as u8;
            }
        }
    }
    out
}

/// Reference bit-at-a-time implementation of [`pack_bits`], kept for
/// property tests and the `pack` benchmark's before/after comparison.
pub fn pack_bits_bitloop(codes: &[u16], bits: u32) -> Vec<u8> {
    assert!((1..=16).contains(&bits), "bits out of range");
    let total_bits = codes.len() * bits as usize;
    let mut out = vec![0u8; total_bits.div_ceil(8)];
    for (i, &code) in codes.iter().enumerate() {
        let bit0 = i * bits as usize;
        for b in 0..bits as usize {
            if code >> b & 1 == 1 {
                out[(bit0 + b) / 8] |= 1 << ((bit0 + b) % 8);
            }
        }
    }
    out
}

/// Inverse of [`pack_bits`].
pub fn unpack_bits(bytes: &[u8], bits: u32, count: usize) -> Vec<u16> {
    unpack_bits_range(bytes, bits, 0, count)
}

/// Unpacks `count` codes starting at element index `start` — lets row
/// kernels stream one packed row without touching the rest of the
/// payload.
pub fn unpack_bits_range(bytes: &[u8], bits: u32, start: usize, count: usize) -> Vec<u16> {
    let mut out = vec![0u16; count];
    unpack_bits_range_into(bytes, bits, start, &mut out);
    out
}

/// Allocation-free core of [`unpack_bits_range`]: unpacks `out.len()`
/// codes starting at element index `start` into caller scratch.
pub fn unpack_bits_range_into(bytes: &[u8], bits: u32, start: usize, out: &mut [u16]) {
    assert!((1..=16).contains(&bits), "bits out of range");
    match bits {
        8 => {
            let end = start + out.len();
            for (slot, &b) in out.iter_mut().zip(&bytes[start..end]) {
                *slot = u16::from(b);
            }
        }
        16 => {
            for (slot, b) in out.iter_mut().zip(bytes[start * 2..].chunks_exact(2)) {
                *slot = u16::from_le_bytes([b[0], b[1]]);
            }
        }
        4 => nibble_walk(bytes, start, out, |b, parity| {
            u16::from(if parity == 0 { b & 0xF } else { b >> 4 })
        }),
        _ => {
            let mask = (1u32 << bits) - 1;
            let mut bitpos = start * bits as usize;
            for slot in out.iter_mut() {
                let byte0 = bitpos / 8;
                let shift = (bitpos % 8) as u32;
                // ≤ 7 + 16 = 23 bits needed: at most 3 bytes.
                let mut w = 0u32;
                for (k, &b) in
                    bytes[byte0..].iter().take(((shift + bits) as usize).div_ceil(8)).enumerate()
                {
                    w |= u32::from(b) << (8 * k as u32);
                }
                *slot = ((w >> shift) & mask) as u16;
                bitpos += bits as usize;
            }
        }
    }
}

/// Walks the 2-codes-per-byte nibble stream over elements
/// `[start, start + out.len())`, writing `emit(byte, parity)` per element
/// (parity 0 = low nibble, 1 = high). Handles mid-byte entry/exit and
/// empty ranges; shared by the 4-bit unpack and the nibble-LUT decode so
/// the alignment logic exists exactly once.
fn nibble_walk<T>(bytes: &[u8], start: usize, out: &mut [T], emit: impl Fn(u8, usize) -> T) {
    if out.is_empty() {
        return;
    }
    let last = start + out.len() - 1;
    let mut idx = start;
    let mut rem = &mut out[..];
    if idx % 2 == 1 {
        rem[0] = emit(bytes[idx / 2], 1);
        rem = &mut rem[1..];
        idx += 1;
    }
    let mut pairs = rem.chunks_exact_mut(2);
    for (pair, &b) in (&mut pairs).zip(&bytes[idx / 2..]) {
        pair[0] = emit(b, 0);
        pair[1] = emit(b, 1);
    }
    if let [slot] = pairs.into_remainder() {
        // A trailing low nibble (the range ends mid-byte).
        *slot = emit(bytes[last / 2], last % 2);
    }
}

/// Reference bit-at-a-time implementation of [`unpack_bits_range`], kept
/// for property tests and the `pack` benchmark's before/after comparison.
pub fn unpack_bits_range_bitloop(bytes: &[u8], bits: u32, start: usize, count: usize) -> Vec<u16> {
    let mut out = Vec::with_capacity(count);
    for i in start..start + count {
        let bit0 = i * bits as usize;
        let mut code = 0u16;
        for b in 0..bits as usize {
            if bytes[(bit0 + b) / 8] >> ((bit0 + b) % 8) & 1 == 1 {
                code |= 1 << b;
            }
        }
        out.push(code);
    }
    out
}

/// The signed value of every code of `format` (`2^bits` entries): an FP
/// code is a sign bit over an index into the format's magnitude grid, an
/// INT code is an affine level of eq. (4).
fn code_values(format: &TensorQuantizer) -> Vec<f32> {
    let codes = 0..1u32 << format.bits();
    match *format {
        TensorQuantizer::Fp(f) => {
            let table = f.enumerate_non_negative();
            let mag_bits = f.exp_bits() + f.man_bits();
            codes
                .map(|c| {
                    let v = table[(c & ((1 << mag_bits) - 1)) as usize];
                    if c >> mag_bits & 1 == 1 {
                        -v
                    } else {
                        v
                    }
                })
                .collect()
        }
        TensorQuantizer::Int(f) => {
            let zp = f.zero_point();
            codes.map(|c| f.scale() * (c as f32 - zp)).collect()
        }
    }
}

/// Decodes elements `[start, start + out.len())` of a packed payload via
/// the per-byte LUT (`codes_per_byte` ∈ {1, 2}), on an explicit ISA path.
///
/// The AVX2 variants load the *same* table entries as the scalar walk —
/// byte codes through a 32-byte `vgatherdps` over the 256-entry LUT,
/// nibble codes through an in-register 16-entry `vpermps` lookup — so
/// every path is bit-identical by construction. Other ISAs (including
/// NEON, where the table lookups have no profitable gather equivalent at
/// these widths) run the scalar walk.
fn lut_decode_range(
    isa: Isa,
    lut: &[f32],
    codes_per_byte: usize,
    bytes: &[u8],
    start: usize,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 && isa.is_supported() {
        // Real asserts, not debug: the AVX2 kernels read through raw
        // pointers, so the range invariants must hold in release builds
        // too — where the scalar walk would panic on a bad slice index,
        // an unchecked gather would be out-of-bounds UB.
        let end_byte =
            if codes_per_byte == 2 { (start + out.len()).div_ceil(2) } else { start + out.len() };
        assert!(end_byte <= bytes.len(), "decode range past payload end");
        assert!(lut.len() >= 256 * codes_per_byte, "byte LUT too short");
        // Safety: AVX2 verified at runtime; the byte ranges the kernels
        // touch are exactly those of the scalar walk below, asserted in
        // bounds above.
        unsafe {
            match codes_per_byte {
                1 => avx2::lut_decode_bytes(lut, bytes, start, out),
                2 => avx2::lut_decode_nibbles(lut, bytes, start, out),
                _ => unreachable!("codes_per_byte must be 1 or 2"),
            }
        }
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    match codes_per_byte {
        1 => {
            let end = start + out.len();
            for (slot, &b) in out.iter_mut().zip(&bytes[start..end]) {
                *slot = lut[b as usize];
            }
        }
        2 => nibble_walk(bytes, start, out, |b, parity| lut[b as usize * 2 + parity]),
        _ => unreachable!("codes_per_byte must be 1 or 2"),
    }
}

/// AVX2 LUT decode: 8 elements per step for byte codes (zero-extend +
/// gather), 16 per step for nibble codes (split nibbles, two in-register
/// 16-entry table lookups, interleave). See [`lut_decode_range`] for the
/// bit-identity argument.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    /// Byte-code decode: `out[i] = lut[bytes[start + i]]`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 at runtime; `lut` must cover every byte value (256
    /// entries) and `bytes[start..start + out.len()]` must be in bounds.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lut_decode_bytes(
        lut: &[f32],
        bytes: &[u8],
        start: usize,
        out: &mut [f32],
    ) {
        debug_assert!(lut.len() >= 256);
        debug_assert!(start + out.len() <= bytes.len());
        let src = bytes.as_ptr().add(start);
        let n = out.len();
        let mut i = 0;
        while i + 8 <= n {
            let raw = _mm_loadl_epi64(src.add(i) as *const __m128i);
            let idx = _mm256_cvtepu8_epi32(raw);
            let v = _mm256_i32gather_ps::<4>(lut.as_ptr(), idx);
            _mm256_storeu_ps(out.as_mut_ptr().add(i), v);
            i += 8;
        }
        for slot in i..n {
            out[slot] = lut[*src.add(slot) as usize];
        }
    }

    /// Nibble-code decode over the per-byte LUT layout
    /// (`lut[byte * 2 + parity]`): element index `start + i` is nibble
    /// `(start + i) % 2` of byte `(start + i) / 2`. Mirrors
    /// [`super::nibble_walk`]'s mid-byte entry/exit handling; the aligned
    /// body decodes 8 bytes → 16 values per step.
    ///
    /// # Safety
    ///
    /// Requires AVX2 at runtime; `lut` must hold 512 entries and the
    /// nibble range must be in bounds of `bytes`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lut_decode_nibbles(
        lut: &[f32],
        bytes: &[u8],
        start: usize,
        out: &mut [f32],
    ) {
        debug_assert!(lut.len() >= 512);
        if out.is_empty() {
            return;
        }
        debug_assert!((start + out.len()).div_ceil(2) <= bytes.len());
        let mut idx = start;
        let mut o = 0usize;
        if idx % 2 == 1 {
            // Mid-byte entry: the first element is a high nibble.
            out[0] = lut[bytes[idx / 2] as usize * 2 + 1];
            o = 1;
            idx += 1;
        }
        let pairs = (out.len() - o) / 2;
        // The 16-entry nibble value table, in two 8-lane registers: byte
        // `t < 16` has low nibble `t`, so `lut[2 t]` enumerates it.
        let mut nib = [0.0f32; 16];
        for (t, slot) in nib.iter_mut().enumerate() {
            *slot = lut[t * 2];
        }
        let lo_tbl = _mm256_loadu_ps(nib.as_ptr());
        let hi_tbl = _mm256_loadu_ps(nib.as_ptr().add(8));
        let byte0 = idx / 2;
        let mut p = 0usize;
        while p + 8 <= pairs {
            let raw = _mm_loadl_epi64(bytes.as_ptr().add(byte0 + p) as *const __m128i);
            let lo_n = _mm_and_si128(raw, _mm_set1_epi8(0x0F));
            let hi_n = _mm_and_si128(_mm_srli_epi16::<4>(raw), _mm_set1_epi8(0x0F));
            let lov = nib_lookup(lo_tbl, hi_tbl, _mm256_cvtepu8_epi32(lo_n));
            let hiv = nib_lookup(lo_tbl, hi_tbl, _mm256_cvtepu8_epi32(hi_n));
            // Interleave low/high nibble values back into element order.
            let t0 = _mm256_unpacklo_ps(lov, hiv);
            let t1 = _mm256_unpackhi_ps(lov, hiv);
            let dst = out.as_mut_ptr().add(o + 2 * p);
            _mm256_storeu_ps(dst, _mm256_permute2f128_ps::<0x20>(t0, t1));
            _mm256_storeu_ps(dst.add(8), _mm256_permute2f128_ps::<0x31>(t0, t1));
            p += 8;
        }
        for q in p..pairs {
            let b = bytes[byte0 + q] as usize;
            out[o + 2 * q] = lut[b * 2];
            out[o + 2 * q + 1] = lut[b * 2 + 1];
        }
        if (out.len() - o) % 2 == 1 {
            // Mid-byte exit: the last element is a low nibble.
            let last = out.len() - 1;
            out[last] = lut[bytes[(start + last) / 2] as usize * 2];
        }
    }

    /// 16-entry `f32` table lookup of 8 indices: `vpermps` through both
    /// table halves, selected on index bit 3.
    ///
    /// # Safety
    ///
    /// Requires AVX2; every lane of `idx` must be in `0..16`.
    #[target_feature(enable = "avx2")]
    unsafe fn nib_lookup(lo_tbl: __m256, hi_tbl: __m256, idx: __m256i) -> __m256 {
        let pl = _mm256_permutevar8x32_ps(lo_tbl, idx);
        let ph = _mm256_permutevar8x32_ps(hi_tbl, idx);
        let take_hi = _mm256_castsi256_ps(_mm256_cmpgt_epi32(idx, _mm256_set1_epi32(7)));
        _mm256_blendv_ps(pl, ph, take_hi)
    }
}

/// Generic (any-bitwidth) decode of elements `[start, start + out.len())`
/// through a per-code decoder, using a fixed stack scratch so row decodes
/// stay allocation-free.
fn generic_decode_range(
    bytes: &[u8],
    bits: u32,
    start: usize,
    out: &mut [f32],
    decode: impl Fn(u16) -> f32,
) {
    let mut scratch = [0u16; 128];
    let mut offset = 0usize;
    while offset < out.len() {
        let n = scratch.len().min(out.len() - offset);
        unpack_bits_range_into(bytes, bits, start + offset, &mut scratch[..n]);
        for (slot, &code) in out[offset..offset + n].iter_mut().zip(&scratch[..n]) {
            *slot = decode(code);
        }
        offset += n;
    }
}

// ---------------------------------------------------------------------------
// Floating point
// ---------------------------------------------------------------------------

/// Precomputed encoder for one FP format: the decision threshold between
/// every adjacent pair of representable magnitudes, refined to the exact
/// float against [`FpFormat::quantize_scalar`] so `encode_scalar` is
/// bit-identical to "quantize, then find the index" — without the
/// per-element `log2`/`powf`.
#[derive(Clone, Debug)]
pub struct FpEncoder {
    /// `boundaries[i]` is the smallest positive `f32` whose quantized
    /// magnitude is `table[i + 1]`.
    boundaries: Vec<f32>,
    sign_shift: u32,
}

impl FpEncoder {
    /// Builds the boundary table for `format` (`table` must be the
    /// format's non-negative value enumeration).
    ///
    /// Each boundary is found by bisection over `f32` bit patterns against
    /// the reference pipeline "quantize, then nearest table index", which
    /// is monotone in `|x|`. The thresholds are therefore *exact*: the
    /// fast encoder reproduces the reference for every input, including
    /// searched fractional biases whose clip maximum `c` is not itself a
    /// table entry (there the top code may be unreachable and the boundary
    /// becomes `+∞`).
    pub fn new(format: FpFormat, table: &[f32]) -> Self {
        let sign_shift = format.exp_bits() + format.man_bits();
        let index_of = |x: f32| nearest_index(table, format.quantize_scalar(x).abs());
        let top = index_of(f32::MAX);
        let mut boundaries = Vec::with_capacity(table.len().saturating_sub(1));
        for i in 0..table.len().saturating_sub(1) {
            if top <= i {
                // Even the largest input never reaches magnitude i+1.
                boundaries.push(f32::INFINITY);
                continue;
            }
            // Smallest positive float whose index exceeds i: bisect on bit
            // patterns (non-negative floats order like their bits).
            let mut lb = 0u32; // index_of(0) == 0 <= i
            let mut ub = f32::MAX.to_bits();
            while ub - lb > 1 {
                let mid = lb + (ub - lb) / 2;
                if index_of(f32::from_bits(mid)) > i {
                    ub = mid;
                } else {
                    lb = mid;
                }
            }
            boundaries.push(f32::from_bits(ub));
        }
        FpEncoder { boundaries, sign_shift }
    }

    /// Encodes one value to its packed code. Bit-identical to quantizing
    /// with the format and locating the result in the value table; NaN
    /// deterministically maps to code 0 (positive zero) and ±∞ clip to
    /// the largest magnitude, matching [`FpFormat::quantize_scalar`].
    #[inline]
    pub fn encode_scalar(&self, v: f32) -> u16 {
        if v.is_nan() {
            return 0;
        }
        // ∞ behaves like the largest finite value (clipping), keeping the
        // `+∞` sentinel boundaries of unreachable top codes inert.
        let a = v.abs().min(f32::MAX);
        // partition_point: number of boundaries ≤ a == magnitude index.
        let mag = self.boundaries.partition_point(|&b| b <= a) as u16;
        if v.is_sign_negative() && mag != 0 {
            (1 << self.sign_shift) | mag
        } else {
            mag
        }
    }
}

/// Index of the table value nearest to `v` (ties toward the lower index)
/// — the reference encode's second stage, and the oracle the boundary
/// bisection in [`FpEncoder::new`] matches exactly.
fn nearest_index(sorted: &[f32], v: f32) -> usize {
    match sorted.binary_search_by(|x| x.total_cmp(&v)) {
        Ok(i) => i,
        Err(i) => {
            if i == 0 {
                0
            } else if i >= sorted.len() {
                sorted.len() - 1
            } else if (v - sorted[i - 1]).abs() <= (sorted[i] - v).abs() {
                i - 1
            } else {
                i
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Packed tensor
// ---------------------------------------------------------------------------

/// A tensor stored as packed low-bit codes of one quantizer format: ExMy
/// floating point or affine integer. Both formats share the storage, the
/// LUT decode and the kernels; only the code → value table differs.
#[derive(Clone, Debug)]
pub struct PackedTensor {
    format: TensorQuantizer,
    dims: Vec<usize>,
    /// Packed codes as a refcounted [`Bytes`] view — [`Self::encode`]
    /// owns a fresh buffer, [`Self::from_parts`] borrows a window of a
    /// shared container mapping (zero copy, zero decode).
    bytes: Bytes,
    /// Decode table. 4-bit codes: the 512-entry per-byte LUT
    /// (`lut[byte * 2 + nibble]`); every other width: the signed value of
    /// each code (`lut[code]`, which for 8-bit codes is the per-byte LUT).
    lut: Vec<f32>,
}

impl PackedTensor {
    /// Quantizes and packs a tensor — bit-exact with the simulated
    /// quantizer of `format`.
    ///
    /// NaN deterministically maps to positive zero (FP) or to the
    /// zero-point level (INT, the level [`fpdq_core::IntFormat::quantize_scalar`]
    /// assigns NaN); ±∞ clip to the extreme codes.
    pub fn encode(x: &Tensor, format: impl Into<TensorQuantizer>) -> Self {
        let format = format.into();
        let codes: Vec<u16> = match format {
            TensorQuantizer::Fp(f) => {
                let encoder = FpEncoder::new(f, &f.enumerate_non_negative());
                x.data().iter().map(|&v| encoder.encode_scalar(v)).collect()
            }
            TensorQuantizer::Int(f) => {
                let qmax = (1u32 << f.bits()) as f32 - 1.0;
                let zp = f.zero_point();
                let nan_level = zp.clamp(0.0, qmax) as u16;
                x.data()
                    .iter()
                    .map(|&v| {
                        if v.is_nan() {
                            nan_level
                        } else {
                            ((v / f.scale()).round() + zp).clamp(0.0, qmax) as u16
                        }
                    })
                    .collect()
            }
        };
        let payload: Bytes = pack_bits(&codes, format.bits()).into();
        // Route through `from_parts` so encode-then-store and
        // load-from-container build their tables through the exact same
        // code path (bit-identity by construction).
        Self::from_parts(format, x.dims().to_vec(), payload)
            .expect("encode produces an exact-length payload")
    }

    /// Rebuilds a packed tensor around an existing payload (a zero-copy
    /// window of a container mapping) — the decode table is regenerated
    /// deterministically from `format`, so decodes are bit-identical to
    /// the [`Self::encode`] that produced the payload.
    ///
    /// Returns a typed error if the code width is outside 1..=16 bits or
    /// the payload length does not match `dims`/`format` exactly; payload
    /// *content* needs no validation (every code decodes to some value).
    pub fn from_parts(
        format: impl Into<TensorQuantizer>,
        dims: Vec<usize>,
        payload: Bytes,
    ) -> Result<Self, FpdqError> {
        let format = format.into();
        let bits = format.bits();
        if !(1..=16).contains(&bits) {
            return Err(FpdqError::invalid(format!(
                "packed codes must be 1..=16 bits wide, {} has {bits}",
                format.describe()
            )));
        }
        let numel: usize = dims.iter().product();
        let want = (numel * bits as usize).div_ceil(8);
        if payload.len() != want {
            return Err(FpdqError::corrupt(format!(
                "packed payload length {} != expected {want} for dims {dims:?} at {}",
                payload.len(),
                format.describe()
            )));
        }
        let values = code_values(&format);
        let lut = if bits == 4 {
            (0..256).flat_map(|b| [values[b & 0xF], values[b >> 4]]).collect()
        } else {
            values
        };
        Ok(PackedTensor { format, dims, bytes: payload, lut })
    }

    /// The packed payload (zero-copy clone of the backing view).
    pub fn payload(&self) -> Bytes {
        self.bytes.clone()
    }

    /// The storage format.
    pub fn format(&self) -> TensorQuantizer {
        self.format
    }

    /// Logical shape.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Element count.
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Packed payload size in bytes (the §III footprint claim: FP8 = 1/4,
    /// FP4 = 1/8 of FP32).
    pub fn payload_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Decodes the whole tensor through the active SIMD dispatch.
    pub fn decode(&self) -> Tensor {
        let mut data = vec![0.0f32; self.numel()];
        self.decode_range_into_as(simd::active(), 0, &mut data);
        Tensor::from_vec(data, &self.dims)
    }

    /// Reference decode through the bit-loop unpack path (no LUT), kept
    /// for the property tests and the decode benchmark's before/after
    /// comparison.
    pub fn decode_via_bitloop(&self) -> Tensor {
        let codes = unpack_bits_range_bitloop(&self.bytes, self.format.bits(), 0, self.numel());
        let values = code_values(&self.format);
        let data = codes.iter().map(|&c| values[c as usize]).collect();
        Tensor::from_vec(data, &self.dims)
    }

    /// Decodes elements `[start, start + out.len())` into caller scratch
    /// on an explicit ISA path — the one decode entry point, driven from
    /// both sides by the differential SIMD tests. Every ISA reads the
    /// same LUT values, so outputs are bit-identical; an unsupported `isa`
    /// falls back to the scalar walk.
    pub fn decode_range_into_as(&self, isa: Isa, start: usize, out: &mut [f32]) {
        debug_assert!(start + out.len() <= self.numel(), "decode range out of bounds");
        #[cfg(test)]
        decode_log::record(self.bytes.as_ptr(), start, out.len());
        match self.format.bits() {
            4 => lut_decode_range(isa, &self.lut, 2, &self.bytes, start, out),
            8 => lut_decode_range(isa, &self.lut, 1, &self.bytes, start, out),
            bits => generic_decode_range(&self.bytes, bits, start, out, |c| self.lut[c as usize]),
        }
    }
}

/// Packed rows as the weight operand of the `fpdq-tensor` GEMM and conv
/// ([`fpdq_tensor::operand::Weights::Decoded`]).
impl DecodeRows for PackedTensor {
    fn dims(&self) -> &[usize] {
        PackedTensor::dims(self)
    }

    fn decode_range_into_as(&self, isa: Isa, start: usize, dst: &mut [f32]) {
        PackedTensor::decode_range_into_as(self, isa, start, dst);
    }
}

/// A test-build count of decodes per element of watched packed tensors,
/// so kernel tests can prove how often a kernel expands its weights.
#[cfg(test)]
pub(crate) mod decode_log {
    use std::sync::Mutex;

    /// Per watched payload address, how often each element was decoded.
    static WATCHED: Mutex<Vec<(usize, Vec<usize>)>> = Mutex::new(Vec::new());

    fn watched() -> std::sync::MutexGuard<'static, Vec<(usize, Vec<usize>)>> {
        WATCHED.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Starts counting the decodes of the `numel`-element tensor whose
    /// payload starts at `payload`. Keep the tensor alive until
    /// [`take`], so that no other tensor reuses the address.
    pub(crate) fn watch(payload: *const u8, numel: usize) {
        watched().push((payload as usize, vec![0; numel]));
    }

    pub(crate) fn record(payload: *const u8, start: usize, len: usize) {
        for (_, counts) in watched().iter_mut().filter(|(p, _)| *p == payload as usize) {
            counts[start..start + len].iter_mut().for_each(|n| *n += 1);
        }
    }

    /// Stops watching `payload` and returns its per-element counts.
    pub(crate) fn take(payload: *const u8) -> Vec<usize> {
        let mut watched = watched();
        let i = watched
            .iter()
            .position(|(p, _)| *p == payload as usize)
            .expect("watched payload");
        watched.swap_remove(i).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpdq_core::IntFormat;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn next_up_positive(x: f32) -> f32 {
        f32::from_bits(x.to_bits() + 1)
    }

    fn next_down_positive(x: f32) -> f32 {
        f32::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let codes: Vec<u16> = vec![0, 1, 7, 3, 5, 2, 6, 4, 7, 0, 1];
        for bits in [3u32, 4, 8] {
            let packed = pack_bits(&codes, bits);
            assert_eq!(unpack_bits(&packed, bits, codes.len()), codes, "bits={bits}");
        }
    }

    #[test]
    fn fp8_payload_is_quarter_of_fp32() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(&[64, 64], &mut rng);
        let packed = PackedTensor::encode(&x, FpFormat::new(4, 3));
        assert_eq!(packed.payload_bytes(), 64 * 64); // 1 byte/elem vs 4
    }

    #[test]
    fn fp4_payload_is_eighth_of_fp32() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(&[64, 64], &mut rng);
        let packed = PackedTensor::encode(&x, FpFormat::new(2, 1));
        assert_eq!(packed.payload_bytes(), 64 * 64 / 2); // 2 elems/byte
    }

    #[test]
    fn packed_fp_decode_is_bit_exact_with_simulated_quantizer() {
        // The packed representation must reproduce fpdq-core's simulated
        // quantization exactly — this is what licenses evaluating quality
        // with fake quantization.
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::randn(&[33, 17], &mut rng).mul_scalar(3.0);
        for fmt in [
            FpFormat::new(4, 3),
            FpFormat::new(5, 2),
            FpFormat::new(2, 1),
            FpFormat::with_bias(3, 4, 6.5),
        ] {
            let packed = PackedTensor::encode(&x, fmt);
            let decoded = packed.decode();
            let simulated = fmt.quantize(&x);
            for (i, (a, b)) in decoded.data().iter().zip(simulated.data()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.abs().to_bits() | (a.to_bits() & 0x8000_0000),
                    "mismatch at {i} for {fmt}: packed {a} vs simulated {b}"
                );
                assert!((a - b).abs() == 0.0, "{fmt}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn boundary_encode_is_bit_exact_on_adversarial_values() {
        // Stress the boundary table exactly where it can go wrong: on and
        // one ULP around every representable value and every midpoint,
        // for standard and fractional biases.
        for fmt in [
            FpFormat::new(4, 3),
            FpFormat::new(5, 2),
            FpFormat::new(2, 1),
            FpFormat::new(1, 2),
            FpFormat::new(3, 4),
            FpFormat::with_bias(3, 4, 6.5),
            FpFormat::with_bias(4, 3, 8.37),
            FpFormat::with_bias(2, 1, 1.25),
        ] {
            let table = fmt.enumerate_non_negative();
            let mut probes = Vec::new();
            for pair in table.windows(2) {
                let mid = ((f64::from(pair[0]) + f64::from(pair[1])) * 0.5) as f32;
                for v in [pair[0], pair[1], mid] {
                    probes.extend([v, next_up_positive(v)]);
                    if v > 0.0 {
                        probes.push(next_down_positive(v));
                    }
                }
            }
            probes.extend([0.0, f32::INFINITY, f32::NEG_INFINITY, table[table.len() - 1] * 2.0]);
            let signed: Vec<f32> = probes.iter().flat_map(|&v| [v, -v]).collect();
            let x = Tensor::from_vec(signed.clone(), &[signed.len()]);
            let decoded = PackedTensor::encode(&x, fmt).decode();
            let simulated = fmt.quantize(&x);
            for (i, (a, b)) in decoded.data().iter().zip(simulated.data()).enumerate() {
                assert!(
                    (a - b).abs() == 0.0,
                    "{fmt}: probe {} -> packed {a} vs simulated {b}",
                    signed[i]
                );
            }
        }
    }

    #[test]
    fn non_finite_inputs_encode_deterministically() {
        // Regression: NaN must map to code 0 (positive zero) and ±∞ to the
        // clipping maxima, for both FP and INT packing.
        let x = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.5], &[5]);
        for fmt in [FpFormat::new(4, 3), FpFormat::new(2, 1), FpFormat::with_bias(3, 4, 6.5)] {
            let packed = PackedTensor::encode(&x, fmt);
            let d = packed.decode();
            assert_eq!(d.data()[0].to_bits(), 0.0f32.to_bits(), "{fmt}: NaN -> +0");
            assert_eq!(d.data()[1], fmt.max_value(), "{fmt}: +inf clips");
            assert_eq!(d.data()[2], -fmt.max_value(), "{fmt}: -inf clips");
        }
        for bits in [4u32, 8] {
            let fmt = IntFormat::from_range(bits, -1.0, 1.0);
            let packed = PackedTensor::encode(&x, fmt);
            let d = packed.decode();
            let sim = fmt.quantize(&x);
            for (i, (a, b)) in d.data().iter().zip(sim.data()).enumerate() {
                assert!((a - b).abs() < 1e-6, "INT{bits} elem {i}: {a} vs {b}");
            }
            let (lo, hi) = fmt.range();
            assert_eq!(d.data()[1], hi, "INT{bits}: +inf clips to range max");
            assert_eq!(d.data()[2], lo, "INT{bits}: -inf clips to range min");
        }
    }

    #[test]
    fn packed_int_decode_matches_simulated_quantizer() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(&[40, 10], &mut rng);
        for bits in [4u32, 8] {
            let fmt = IntFormat::fit(&x, bits);
            let packed = PackedTensor::encode(&x, fmt);
            let decoded = packed.decode();
            let simulated = fmt.quantize(&x);
            for (a, b) in decoded.data().iter().zip(simulated.data()) {
                assert!((a - b).abs() < 1e-6, "INT{bits}: {a} vs {b}");
            }
            assert_eq!(packed.payload_bytes(), (400 * bits as usize).div_ceil(8));
        }
    }

    #[test]
    fn range_decode_matches_full_decode_for_every_width() {
        // Row-sized windows of FP (LUT and generic widths) and INT (3, 4
        // and 8 bits) tensors must reproduce the whole-tensor decode.
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::randn(&[7, 9], &mut rng);
        let formats: [TensorQuantizer; 5] = [
            FpFormat::new(3, 4).into(),
            FpFormat::new(2, 2).into(),
            IntFormat::fit(&x, 3).into(),
            IntFormat::fit(&x, 4).into(),
            IntFormat::fit(&x, 8).into(),
        ];
        for fmt in formats {
            let packed = PackedTensor::encode(&x, fmt);
            let full = packed.decode();
            let mut row = vec![0.0f32; 9];
            for r in 0..7 {
                packed.decode_range_into_as(simd::active(), r * 9, &mut row);
                assert_eq!(&full.data()[r * 9..(r + 1) * 9], &row[..], "{fmt} row {r}");
            }
        }
    }

    #[test]
    fn empty_ranges_are_noops() {
        // Regression: zero-length unpacks/decodes (including at odd
        // nibble offsets) must return empty, as the bit-loop reference
        // does, not panic.
        let bytes = [0xABu8, 0xCD];
        for bits in [3u32, 4, 8] {
            assert!(unpack_bits_range(&bytes, bits, 1, 0).is_empty(), "bits={bits}");
        }
        let x = Tensor::randn(&[6], &mut StdRng::seed_from_u64(9));
        let fp4 = PackedTensor::encode(&x, FpFormat::new(2, 1));
        fp4.decode_range_into_as(simd::active(), 1, &mut []);
        fp4.decode_range_into_as(simd::active(), 0, &mut []);
        let int4 = PackedTensor::encode(&x, IntFormat::from_range(4, -1.0, 1.0));
        int4.decode_range_into_as(simd::active(), 3, &mut []);
        let empty = PackedTensor::encode(&Tensor::zeros(&[0]), FpFormat::new(4, 3));
        assert_eq!(empty.decode().numel(), 0);
    }

    #[test]
    fn decode_isa_paths_are_bit_identical() {
        // Every supported ISA must decode byte for byte like the scalar
        // walk — FP8 (gather path), FP4/INT4 (nibble-shuffle path,
        // including mid-byte entry/exit) and INT8, at odd starts and
        // lengths straddling the 8/16-element vector bodies.
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::randn(&[61], &mut rng).mul_scalar(2.0);
        let packed_all = [
            PackedTensor::encode(&x, FpFormat::new(4, 3)),
            PackedTensor::encode(&x, FpFormat::new(2, 1)),
            PackedTensor::encode(&x, IntFormat::fit(&x, 8)),
            PackedTensor::encode(&x, IntFormat::fit(&x, 4)),
        ];
        for (start, len) in
            [(0usize, 61usize), (1, 60), (1, 17), (3, 16), (2, 7), (5, 1), (60, 1), (7, 0)]
        {
            for packed in &packed_all {
                let mut want = vec![0.0f32; len];
                packed.decode_range_into_as(Isa::Scalar, start, &mut want);
                for &isa in simd::available() {
                    let mut got = vec![f32::NAN; len];
                    packed.decode_range_into_as(isa, start, &mut got);
                    assert_eq!(got, want, "{:?} {} start={start} len={len}", isa, packed.format());
                }
            }
        }
    }

    #[test]
    fn unaligned_fp4_range_decode_is_consistent() {
        // Odd start indices exercise the mid-byte entry of the nibble LUT
        // path.
        let mut rng = StdRng::seed_from_u64(6);
        let x = Tensor::randn(&[45], &mut rng);
        let packed = PackedTensor::encode(&x, FpFormat::new(2, 1));
        let full = packed.decode();
        for start in [0usize, 1, 2, 7, 13] {
            for len in [1usize, 2, 5, 45 - start] {
                let mut buf = vec![0.0f32; len];
                packed.decode_range_into_as(simd::active(), start, &mut buf);
                assert_eq!(&full.data()[start..start + len], &buf[..], "start={start} len={len}");
            }
        }
    }

    #[test]
    fn from_parts_rebuilds_encode_and_rejects_bad_payloads() {
        // The container path: a payload re-wrapped with its format decodes
        // exactly like the tensor that produced it, for both families; a
        // wrong length or an unpackable width is a typed error.
        let x = Tensor::randn(&[3, 5], &mut StdRng::seed_from_u64(12));
        for fmt in [TensorQuantizer::from(FpFormat::new(2, 1)), IntFormat::fit(&x, 8).into()] {
            let packed = PackedTensor::encode(&x, fmt);
            let rebuilt = PackedTensor::from_parts(fmt, vec![3, 5], packed.payload()).unwrap();
            assert_eq!(rebuilt.decode().data(), packed.decode().data(), "{fmt}");
            assert!(PackedTensor::from_parts(fmt, vec![4, 5], packed.payload()).is_err(), "{fmt}");
        }
        assert!(PackedTensor::from_parts(FpFormat::new(8, 10), vec![0], Bytes::from(Vec::new()))
            .is_err());
    }

    #[test]
    fn from_parts_rejects_payloads_one_byte_off() {
        // The container meta parser does not check payload lengths against
        // dims, so `from_parts` is the only guard: one byte short or long
        // is `Corrupt` for every shipping width, including an odd element
        // count at 4 bits (15 nibbles round up to 8 bytes).
        let x = Tensor::randn(&[3, 5], &mut StdRng::seed_from_u64(13));
        let formats: [TensorQuantizer; 4] = [
            FpFormat::new(4, 3).into(),
            FpFormat::new(2, 1).into(),
            IntFormat::fit(&x, 8).into(),
            IntFormat::fit(&x, 4).into(),
        ];
        for fmt in formats {
            let exact = PackedTensor::encode(&x, fmt).payload().to_vec();
            assert_eq!(exact.len(), (15 * fmt.bits() as usize).div_ceil(8), "{fmt}");
            let short = Bytes::from(exact[..exact.len() - 1].to_vec());
            let mut long = exact.clone();
            long.push(0);
            for (what, payload) in [("short", short), ("long", Bytes::from(long))] {
                let r = PackedTensor::from_parts(fmt, vec![3, 5], payload);
                assert!(matches!(r, Err(FpdqError::Corrupt(_))), "{fmt}: {what} payload accepted");
            }
        }
    }

    proptest! {
        #[test]
        fn pack_roundtrip_property(codes in prop::collection::vec(0u16..16, 1..64)) {
            let packed = pack_bits(&codes, 4);
            prop_assert_eq!(unpack_bits(&packed, 4, codes.len()), codes);
        }

        #[test]
        fn fast_pack_matches_bitloop_for_every_width(
            raw in prop::collection::vec(0u16..u16::MAX, 1..48),
            bits in 1u32..17,
        ) {
            let mask = ((1u32 << bits) - 1) as u16;
            let codes: Vec<u16> = raw.iter().map(|&c| c & mask).collect();
            prop_assert_eq!(pack_bits(&codes, bits), pack_bits_bitloop(&codes, bits));
        }

        #[test]
        fn fast_unpack_matches_bitloop_at_any_offset(
            raw in prop::collection::vec(0u16..u16::MAX, 2..48),
            bits in 1u32..17,
            start_frac in 0.0f64..1.0,
        ) {
            let mask = ((1u32 << bits) - 1) as u16;
            let codes: Vec<u16> = raw.iter().map(|&c| c & mask).collect();
            let packed = pack_bits(&codes, bits);
            let start = (start_frac * (codes.len() - 1) as f64) as usize;
            let count = codes.len() - start;
            prop_assert_eq!(
                unpack_bits_range(&packed, bits, start, count),
                unpack_bits_range_bitloop(&packed, bits, start, count)
            );
        }

        #[test]
        fn lut_decode_matches_bitloop_decode(
            vals in prop::collection::vec(-300.0f32..300.0, 1..64),
            pick in 0usize..6,
        ) {
            let fmt = [
                FpFormat::new(4, 3),
                FpFormat::new(5, 2),
                FpFormat::new(2, 1),
                FpFormat::new(1, 2),
                FpFormat::new(3, 4),
                FpFormat::with_bias(3, 4, 6.5),
            ][pick];
            let x = Tensor::from_vec(vals.clone(), &[vals.len()]);
            let packed = PackedTensor::encode(&x, fmt);
            let fast = packed.decode();
            let reference = packed.decode_via_bitloop();
            prop_assert_eq!(fast.data(), reference.data());
        }

        #[test]
        fn packed_fp_idempotent(vals in prop::collection::vec(-50.0f32..50.0, 1..32)) {
            let x = Tensor::from_vec(vals.clone(), &[vals.len()]);
            let fmt = FpFormat::new(4, 3);
            let once = PackedTensor::encode(&x, fmt).decode();
            let twice = PackedTensor::encode(&once, fmt).decode();
            prop_assert_eq!(once.data(), twice.data());
        }
    }
}
