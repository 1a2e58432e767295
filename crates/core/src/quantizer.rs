//! A unified handle over FP and INT tensor quantizers.

use crate::boundary::BoundaryQuantizer;
use crate::format::FpFormat;
use crate::int::IntFormat;
use fpdq_nn::ActQuantFn;
use fpdq_tensor::Tensor;
use std::rc::Rc;

/// Either a searched floating-point format or a calibrated integer format.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TensorQuantizer {
    /// Simulated ExMy floating point (the paper's method).
    Fp(FpFormat),
    /// Uniform asymmetric integer (the baseline).
    Int(IntFormat),
}

impl TensorQuantizer {
    /// Applies the quantizer to a tensor.
    pub fn quantize(&self, x: &Tensor) -> Tensor {
        match self {
            TensorQuantizer::Fp(f) => f.quantize(x),
            TensorQuantizer::Int(f) => f.quantize(x),
        }
    }

    /// Total bitwidth of the representation.
    pub fn bits(&self) -> u32 {
        match self {
            TensorQuantizer::Fp(f) => f.total_bits(),
            TensorQuantizer::Int(f) => f.bits(),
        }
    }

    /// Wraps the quantizer as an activation-tap closure for
    /// [`fpdq_nn::Tap::act_quant`], quantizing through the boundary table
    /// ([`BoundaryQuantizer::cached`], built once here) that the packed
    /// engine's fused stage uses, so a tap and a fused stage return the
    /// same bits. These are [`Self::quantize`]'s with two exceptions: a
    /// negative input rounding to zero gives `+0.0` (which every conv and
    /// linear the tap feeds sums to the same output), and an FP input
    /// that rounds up into the next binade gets that binade's grid value,
    /// where [`FpFormat::quantize_scalar`] computes it through the lower
    /// binade's scale and, at a fractional bias, can land a few ULPs off.
    pub fn into_act_fn(self) -> ActQuantFn {
        let table = BoundaryQuantizer::cached(&self);
        Rc::new(move |x: &Tensor| table.quantize(x))
    }

    /// A short human-readable description (e.g. `"E4M3(b=8)"`).
    pub fn describe(&self) -> String {
        match self {
            TensorQuantizer::Fp(f) => f.to_string(),
            TensorQuantizer::Int(f) => f.to_string(),
        }
    }
}

impl From<FpFormat> for TensorQuantizer {
    fn from(f: FpFormat) -> Self {
        TensorQuantizer::Fp(f)
    }
}

impl From<IntFormat> for TensorQuantizer {
    fn from(f: IntFormat) -> Self {
        TensorQuantizer::Int(f)
    }
}

impl std::fmt::Display for TensorQuantizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatches_to_both_backends() {
        let x = Tensor::linspace(-2.0, 2.0, 9);
        let fp = TensorQuantizer::Fp(FpFormat::new(2, 1));
        let int = TensorQuantizer::Int(IntFormat::from_range(4, -2.0, 2.0));
        assert_eq!(fp.bits(), 4);
        assert_eq!(int.bits(), 4);
        assert_ne!(fp.quantize(&x).data(), int.quantize(&x).data());
    }

    #[test]
    fn act_fn_applies_quantization() {
        let q = TensorQuantizer::Fp(FpFormat::new(2, 1));
        let f = q.into_act_fn();
        let x = Tensor::from_vec(vec![0.26, 5.0], &[2]);
        let y = f(&x);
        assert_eq!(y.data(), q.quantize(&x).data());
    }
}
