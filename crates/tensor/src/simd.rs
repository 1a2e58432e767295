//! Runtime SIMD dispatch for the hot kernels.
//!
//! The workspace compiles for the baseline target (SSE2 on x86-64), so
//! LLVM auto-vectorisation stops at 128-bit lanes. The explicit wide
//! kernels (the 4×8 NT micro-kernel in [`crate::matmul`], the per-byte
//! LUT decode in `fpdq-kernels`, the rank-cell boundary quantizer in
//! `fpdq-core`) are selected *at runtime* through this module: CPU
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
//! * never use fused multiply-add instructions (`vfmadd*`, `fmla`) in an
//!   accumulation the scalar path performs as separate mul + add — FMA
//!   rounds once where mul+add rounds twice, which changes low bits;
//! * keep the scalar path's operand order on every non-commutative-NaN
//!   operation (`a * b` and `acc + p`, not `b * a` or `p + acc`), so NaN
//!   payload propagation matches instruction-for-instruction;
//! * reproduce the scalar path's handling of NaN/±∞/−0.0 special cases
//!   (e.g. the boundary quantizer's NaN→`nan_value` and ±∞ clamp).
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
    /// also requires FMA — every AVX2 part ships it. The kernels still
    /// never emit fused multiply-adds (see the bit-identity contract).
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
