//! Weight-sparsity census (paper §VI-G, Fig. 11).
//!
//! Quantization forces near-zero weights to exactly zero; the paper
//! reports that its FP method increases weight sparsity by 20-32× (FP8)
//! and 430-620× (FP4), opening structured-sparsity optimisation
//! opportunities. The packed engine (`fpdq-kernels`) stays dense: FP4's
//! own zeros (~11% of `tiny-sd`'s weights) leave a density far above
//! where an index-driven sparse kernel beats the dense micro-kernel.

use fpdq_nn::UNet;

/// Sparsity of one layer's weights.
#[derive(Clone, Debug)]
pub struct LayerSparsity {
    /// Layer name.
    pub name: String,
    /// Fraction of exactly zero weights.
    pub sparsity: f32,
    /// Weight element count.
    pub numel: usize,
}

/// Model-wide sparsity census.
#[derive(Clone, Debug, Default)]
pub struct SparsityReport {
    /// Per-layer figures in model order.
    pub per_layer: Vec<LayerSparsity>,
}

impl SparsityReport {
    /// Element-weighted overall sparsity (the paper's Fig. 11 number).
    pub fn overall(&self) -> f32 {
        let total: usize = self.per_layer.iter().map(|l| l.numel).sum();
        if total == 0 {
            return 0.0;
        }
        self.per_layer.iter().map(|l| l.sparsity * l.numel as f32).sum::<f32>() / total as f32
    }

    /// Total zero weights.
    pub fn zero_count(&self) -> usize {
        self.per_layer
            .iter()
            .map(|l| (l.sparsity as f64 * l.numel as f64).round() as usize)
            .sum()
    }
}

/// Measures the weight sparsity of every quantizable layer.
pub fn weight_sparsity(unet: &UNet) -> SparsityReport {
    let mut report = SparsityReport::default();
    unet.visit_quant_layers(&mut |layer| {
        let w = layer.weight().value();
        report.per_layer.push(LayerSparsity {
            name: layer.qname().to_string(),
            sparsity: w.sparsity(),
            numel: w.numel(),
        });
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FpFormat;
    use fpdq_nn::UNetConfig;
    use fpdq_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_random_model_has_near_zero_sparsity() {
        let mut rng = StdRng::seed_from_u64(0);
        let unet = UNet::new(UNetConfig::tiny(2), &mut rng);
        let report = weight_sparsity(&unet);
        assert!(report.overall() < 1e-4, "random weights should be dense");
        assert!(!report.per_layer.is_empty());
    }

    #[test]
    fn zeroing_weights_is_reflected() {
        let mut rng = StdRng::seed_from_u64(1);
        let unet = UNet::new(UNetConfig::tiny(2), &mut rng);
        // Zero out every weight below its tensor's std/2.
        unet.visit_quant_layers(&mut |layer| {
            let w = layer.weight().value();
            let thr = w.std() * 0.5;
            layer.weight().replace(w.map(|v| if v.abs() < thr { 0.0 } else { v }));
        });
        let report = weight_sparsity(&unet);
        // P(|N(0,1)| < 0.5) ≈ 0.38
        assert!(
            report.overall() > 0.25 && report.overall() < 0.55,
            "unexpected sparsity {}",
            report.overall()
        );
        assert!(report.zero_count() > 0);
    }

    #[test]
    fn fp4_quantization_creates_zeros() {
        // Standard-bias FP4 rounds small weights to exactly zero (§VI-G).
        let mut rng = StdRng::seed_from_u64(2);
        let w = Tensor::randn(&[16, 32], &mut rng).mul_scalar(0.02);
        assert!(w.sparsity() < 1e-4, "random weights should be dense");
        let quantized = FpFormat::new(2, 1).quantize(&w);
        assert!(quantized.sparsity() > 0.2, "expected quantization-induced zeros");
    }

    #[test]
    fn overall_is_element_weighted() {
        let report = SparsityReport {
            per_layer: vec![
                LayerSparsity { name: "big".into(), sparsity: 0.0, numel: 900 },
                LayerSparsity { name: "small".into(), sparsity: 1.0, numel: 100 },
            ],
        };
        assert!((report.overall() - 0.1).abs() < 1e-6);
    }
}
