//! Runtime SIMD dispatch for the hot kernels.
//!
//! The workspace compiles for the baseline target (SSE2 on x86-64), so
//! LLVM auto-vectorisation stops at 128-bit lanes. The explicit wide
//! kernels (the 4×8 NT micro-kernel and the attention core's NN kernel in
//! [`crate::matmul`], the vector exp ([`exp_inplace_as`]) with SiLU,
//! sigmoid and softmax on it, the per-byte LUT decode in `fpdq-kernels`,
//! the folded boundary quantizer in `fpdq-core`, GroupNorm's normalize
//! pass in `fpdq-nn`) are selected *at runtime* through this module: CPU
//! features are probed once per process, every dispatched entry point
//! keys off the cached [`Isa`], and the `FPDQ_FORCE_SCALAR=1` environment
//! variable pins the whole engine to the scalar reference kernels so both
//! sides of every dispatch are exercisable on one machine.
//!
//! # The bit-identity contract
//!
//! Every ISA path of a dispatched kernel must produce **bit-identical**
//! output to the scalar reference — the same guarantee the tile scheduler
//! and thread splitter already uphold. Concretely, a wide kernel must:
//!
//! * perform, per output element, the *same* IEEE-754 single-precision
//!   operations in the *same* order as the scalar kernel (for the NT
//!   micro-kernel: one multiply then one add per `k` step, ascending
//!   `k`);
//! * use fused multiply-add instructions (`vfmadd*`, `fmla`) only where
//!   the scalar reference performs that very fused operation. FMA rounds
//!   once where mul+add rounds twice, which changes low bits, so every
//!   accumulation the scalar path writes as mul then add stays mul then
//!   add. The one such place is the AVX2 exp: its reference is
//!   `f32::exp`, which on every [`Isa::Avx2`] host (AVX2 and FMA, glibc)
//!   is glibc's `__expf_fma`, whose compiled steps are fused. The
//!   exhaustive test `exp_matches_libm_on_every_bit_pattern` (all 2³²
//!   inputs, run in CI) is the proof; two inputs (`0x4202422f`,
//!   `0xc27c65d9`) round differently without the fusion;
//! * keep the scalar path's operand order on every non-commutative-NaN
//!   operation (`a * b` and `acc + p`, not `b * a` or `p + acc`), so NaN
//!   payload propagation matches instruction-for-instruction;
//! * reproduce the scalar path's handling of NaN/±∞/−0.0 special cases
//!   (e.g. the boundary quantizer's NaN→`nan_value` and ±∞ clamp).
//!
//! One thing sits outside the contract: when both operands of one add or
//! multiply are NaN, which payload survives is the compiler's choice
//! (Rust leaves it unspecified, and LLVM commutes such operands freely),
//! so even the scalar reference's choice can move with its codegen.
//! Tests of kernels whose accumulations can meet two NaNs compare those
//! outputs as NaN; NaN-ness itself, and every other bit, must match.
//!
//! The differential suite in `tests/simd_consistency.rs` pins every
//! dispatched kernel to its scalar reference across formats, shapes and
//! non-finite inputs; CI additionally runs the whole workspace test suite
//! under `FPDQ_FORCE_SCALAR=1`.
//!
//! # Adding a new ISA path
//!
//! 1. Add the variant to [`Isa`] and teach [`detected`] to probe for it
//!    (runtime feature detection — never `cfg!(target_feature)`, which
//!    reflects compile flags, not the machine).
//! 2. Implement the kernel under `#[cfg(target_arch = ...)]` +
//!    `#[target_feature(enable = ...)]`, following the contract above.
//! 3. Route it in the kernel's `*_as(isa, ...)` dispatcher; unsupported
//!    ISAs must fall back to scalar, never fault.
//! 4. Extend the differential tests' ISA sweep — they iterate
//!    [`available`], so new paths are picked up automatically on machines
//!    that support them.

use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set architecture of a dispatched kernel path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Isa {
    /// Portable reference kernels (LLVM auto-vectorised at the baseline
    /// target; SSE2 on x86-64).
    Scalar,
    /// 256-bit paths using AVX2 integer/float ops (x86-64). Detection
    /// also requires FMA — every AVX2 part ships it. Only the exp port
    /// emits fused multiply-adds, where its reference does (see the
    /// bit-identity contract).
    Avx2,
    /// 128-bit NEON paths (aarch64, where NEON is baseline).
    Neon,
}

impl Isa {
    /// Stable lowercase name, as recorded in bench reports
    /// (`scalar`/`avx2`/`neon`).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Neon => "neon",
        }
    }

    /// Whether this machine can execute the ISA's kernels (ignores the
    /// `FPDQ_FORCE_SCALAR` override).
    pub fn is_supported(self) -> bool {
        self == Isa::Scalar || self == detected()
    }
}

/// Encoding of [`Isa`] in the detection cache (0 = not yet probed).
const UNPROBED: u8 = 0;

fn cache_isa(isa: Isa) -> u8 {
    match isa {
        Isa::Scalar => 1,
        Isa::Avx2 => 2,
        Isa::Neon => 3,
    }
}

fn uncache_isa(v: u8) -> Isa {
    match v {
        2 => Isa::Avx2,
        3 => Isa::Neon,
        _ => Isa::Scalar,
    }
}

/// The widest ISA this machine supports, probed once per process.
pub fn detected() -> Isa {
    static CACHE: AtomicU8 = AtomicU8::new(UNPROBED);
    let cached = CACHE.load(Ordering::Relaxed);
    if cached != UNPROBED {
        return uncache_isa(cached);
    }
    let isa = probe();
    CACHE.store(cache_isa(isa), Ordering::Relaxed);
    isa
}

fn probe() -> Isa {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        return Isa::Avx2;
    }
    #[cfg(target_arch = "aarch64")]
    return Isa::Neon;
    #[cfg(not(target_arch = "aarch64"))]
    Isa::Scalar
}

/// Whether `FPDQ_FORCE_SCALAR=1` pins the engine to the scalar kernels.
/// Read once per process (like `FPDQ_THREADS`).
pub fn force_scalar() -> bool {
    static CACHE: AtomicU8 = AtomicU8::new(UNPROBED);
    let cached = CACHE.load(Ordering::Relaxed);
    if cached != UNPROBED {
        return cached == 2;
    }
    let forced = std::env::var("FPDQ_FORCE_SCALAR").is_ok_and(|v| v == "1" || v == "true");
    CACHE.store(if forced { 2 } else { 1 }, Ordering::Relaxed);
    forced
}

/// The ISA every dispatched kernel uses right now: the detected maximum,
/// unless `FPDQ_FORCE_SCALAR` pins it to [`Isa::Scalar`].
pub fn active() -> Isa {
    if force_scalar() {
        Isa::Scalar
    } else {
        detected()
    }
}

/// Every ISA this machine can execute, scalar first — the sweep the
/// differential tests iterate so SIMD-vs-scalar comparisons run wherever
/// the SIMD side exists.
pub fn available() -> &'static [Isa] {
    match detected() {
        Isa::Avx2 => &[Isa::Scalar, Isa::Avx2],
        Isa::Neon => &[Isa::Scalar, Isa::Neon],
        Isa::Scalar => &[Isa::Scalar],
    }
}

/// `xs[i] = xs[i].exp()` for every element, on an explicit ISA path —
/// the one vector `exp` of the engine, bit-identical to [`f32::exp`] on
/// every path (NaN payloads included).
///
/// The scalar path is `f32::exp` per element, the reference. On
/// x86-64 glibc targets the [`Isa::Avx2`] path ports the algorithm of
/// glibc's `expf` as its ifunc selects it on every host with AVX2 and FMA
/// (glibc ≥ 2.28's `__expf_fma`): a 32-entry table of `2^(i/32)` and a
/// cubic in `f64`, with the fused multiply-adds that build compiled
/// in. Lanes with `|x| ≥ 88`, ±∞ or NaN take `f32::exp` itself. Other
/// targets and [`Isa::Neon`] run the scalar path: no NEON port is
/// proven. `exp_matches_libm_on_every_bit_pattern` in the workspace's
/// `tests/simd_consistency.rs` proves the port over every one of the 2³²
/// inputs.
pub fn exp_inplace_as(isa: Isa, xs: &mut [f32]) {
    match isa {
        #[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
        Isa::Avx2 if isa.is_supported() => {
            // Safety: AVX2 and FMA were verified at runtime (`probe`
            // requires both).
            unsafe { expf_fma::exp_inplace(xs) }
        }
        _ => xs.iter_mut().for_each(|v| *v = v.exp()),
    }
}

/// The AVX2+FMA port of glibc's `expf` (`sysdeps/ieee754/flt-32/e_expf.c`
/// as compiled into `__expf_fma`). Per lane, in `f64`:
///
/// ```text
/// kd = fma(InvLn2N, x, SHIFT); ki = bits(kd); kd -= SHIFT
/// r  = fma(InvLn2N, x, -kd)                       // x·32/ln2 = k + r
/// s  = bits⁻¹(T[ki % 32] + (ki << 47))            // 2^(k/32)
/// y  = fma(fma(C0, r, C1), r·r, fma(C2, r, 1))    // 2^(r/32)
/// exp(x) = (y · s) as f32
/// ```
///
/// Every fused multiply-add here is one that the reference performs too,
/// so this is the one place in the engine where FMA keeps the bits (see
/// the contract above).
#[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
pub(crate) mod expf_fma {
    use core::arch::x86_64::*;

    /// Table size `N` of the reference (`EXP2F_TABLE_BITS = 5`).
    const N: f64 = 32.0;
    const INV_LN2_N: f64 = f64::from_bits(0x3ff71547652b82fe) * N;
    const SHIFT: f64 = f64::from_bits(0x4338000000000000);
    /// The cubic's coefficients, scaled by powers of `1/N` as in glibc's
    /// `__exp2f_data.poly_scaled`.
    const C0: f64 = f64::from_bits(0x3fac6af84b912394) / (N * N * N);
    const C1: f64 = f64::from_bits(0x3fcebfce50fac4f3) / (N * N);
    const C2: f64 = f64::from_bits(0x3fe62e42ff0c52d6) / N;
    /// `bits(2^(i/32))` rounded to nearest, minus `i << 47`, so that
    /// adding `ki << 47` both indexes and applies the exponent.
    #[rustfmt::skip]
    static T: [u64; 32] = [
        0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
        0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
        0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
        0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
        0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
        0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
        0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
        0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
    ];
    /// Top 12 bits of `88.0f32`: lanes at or above it in magnitude (and
    /// ±∞, NaN) take the reference's special-case code.
    const TOP12_88: i32 = 0x42b;

    /// # Safety
    ///
    /// Requires AVX2 and FMA at runtime.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn exp_inplace(xs: &mut [f32]) {
        let p = xs.as_mut_ptr();
        map8(p, p, xs.len(), |x| exp8(x));
    }

    /// Writes `f` of each 8-lane block of `len` floats at `src` to `dst`
    /// (which may be `src`); a short tail runs as one zero-padded block.
    ///
    /// # Safety
    ///
    /// Must be inlined into a caller with AVX enabled (it is
    /// `inline(always)`); `src` and `dst` must be valid for `len` floats.
    #[inline(always)]
    pub(crate) unsafe fn map8(
        src: *const f32,
        dst: *mut f32,
        len: usize,
        f: impl Fn(__m256) -> __m256,
    ) {
        let mut i = 0;
        while i + 8 <= len {
            _mm256_storeu_ps(dst.add(i), f(_mm256_loadu_ps(src.add(i))));
            i += 8;
        }
        if i < len {
            let mut buf = [0.0f32; 8];
            core::ptr::copy_nonoverlapping(src.add(i), buf.as_mut_ptr(), len - i);
            _mm256_storeu_ps(buf.as_mut_ptr(), f(_mm256_loadu_ps(buf.as_ptr())));
            core::ptr::copy_nonoverlapping(buf.as_ptr(), dst.add(i), len - i);
        }
    }

    /// `f32::exp` of eight lanes, as two 4-lane `f64` halves.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA at runtime.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn exp8(x: __m256) -> __m256 {
        let top = _mm256_srli_epi32::<20>(_mm256_castps_si256(x));
        let top = _mm256_and_si256(top, _mm256_set1_epi32(0x7ff));
        let special = _mm256_cmpgt_epi32(top, _mm256_set1_epi32(TOP12_88 - 1));
        let lo = exp4(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
        let hi = exp4(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)));
        let y = _mm256_set_m128(hi, lo);
        let special = _mm256_movemask_ps(_mm256_castsi256_ps(special));
        if special == 0 {
            return y;
        }
        let (mut xs, mut ys) = ([0.0f32; 8], [0.0f32; 8]);
        _mm256_storeu_ps(xs.as_mut_ptr(), x);
        _mm256_storeu_ps(ys.as_mut_ptr(), y);
        for (l, (y, x)) in ys.iter_mut().zip(xs).enumerate() {
            if special >> l & 1 != 0 {
                *y = x.exp();
            }
        }
        _mm256_loadu_ps(ys.as_ptr())
    }

    /// The reference's main path on four lanes, rounded to `f32`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA at runtime.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp4(x: __m256d) -> __m128 {
        let inv_ln2_n = _mm256_set1_pd(INV_LN2_N);
        let shift = _mm256_set1_pd(SHIFT);
        let kd = _mm256_fmadd_pd(inv_ln2_n, x, shift);
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, shift);
        let r = _mm256_fmsub_pd(inv_ln2_n, x, kd);
        let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        let t = _mm256_i64gather_epi64::<8>(T.as_ptr().cast(), idx);
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let z = _mm256_fmadd_pd(_mm256_set1_pd(C0), r, _mm256_set1_pd(C1));
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(_mm256_set1_pd(C2), r, _mm256_set1_pd(1.0));
        let y = _mm256_fmadd_pd(z, r2, y);
        _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_is_supported_and_stable() {
        let first = active();
        assert!(first.is_supported());
        assert_eq!(first, active(), "detection must be cached");
        assert!(available().contains(&first));
    }

    #[test]
    fn available_starts_with_scalar() {
        assert_eq!(available()[0], Isa::Scalar);
        assert!(Isa::Scalar.is_supported());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Isa::Scalar.name(), "scalar");
        assert_eq!(Isa::Avx2.name(), "avx2");
        assert_eq!(Isa::Neon.name(), "neon");
    }

    #[test]
    fn force_scalar_pins_active() {
        // Cannot toggle the env var mid-process (it is cached), but the
        // invariant between the cached reads must hold.
        if force_scalar() {
            assert_eq!(active(), Isa::Scalar);
        } else {
            assert_eq!(active(), detected());
        }
    }
}
