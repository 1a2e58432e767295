//! Cross-crate consistency: the bit-packed kernels (fpdq-kernels) compute
//! exactly what the fake-quantized model layers (fpdq-nn + fpdq-core)
//! compute — the property that licenses evaluating image quality with
//! simulated quantization while claiming real-footprint deployment.

use fpdq::kernels::{gemm_packed, install_packed_weight, CsrWeights, Exec, PackedTensor};
use fpdq::nn::{Linear, QuantLayer};
use fpdq::quant::{search_fp_format, FpFormat, TensorQuantizer};
use fpdq::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn packed_gemm_reproduces_quantized_linear_layer() {
    let mut rng = StdRng::seed_from_u64(0);
    let lin = Linear::new("l", 24, 16, &mut rng);
    let x = Tensor::randn(&[5, 24], &mut rng);

    // Quantize the weight with a searched FP8 format and bake it, as the
    // PTQ driver does.
    let w = lin.weight.value();
    let found = search_fp_format(&[&w], 8, 41);
    let TensorQuantizer::Fp(fmt) = found.quantizer else { panic!("fp expected") };
    let baked = fmt.quantize(&w);
    lin.weight.replace(baked.clone());

    // Model path: fake-quantized layer forward (bias included).
    let model_out = lin.forward(&x);

    // Kernel path: packed weights + explicit bias addition.
    let packed = PackedTensor::encode(&w, fmt);
    let bias = lin.bias.as_ref().unwrap().value();
    let kernel_out = gemm_packed(&x, &packed, None, Exec::default()).add(&bias);

    for (a, b) in model_out.data().iter().zip(kernel_out.data()) {
        assert!((a - b).abs() < 1e-4, "model {a} vs kernel {b}");
    }
}

#[test]
fn fused_packed_layer_reproduces_tap_quantized_layer() {
    // The fused weight+activation forward (tap quantizer suspended,
    // quantization inside the packed kernel) must reproduce the tap-based
    // fake-quantized execution.
    let mut rng = StdRng::seed_from_u64(7);
    let lin = Linear::new("l", 20, 12, &mut rng);
    let x = Tensor::randn(&[4, 20], &mut rng);
    let wfmt = TensorQuantizer::Fp(FpFormat::new(4, 3));
    let afmt = TensorQuantizer::Fp(FpFormat::new(4, 3));
    let TensorQuantizer::Fp(wf) = wfmt else { unreachable!() };
    lin.weight.replace(wf.quantize(&lin.weight.value()));
    lin.tap().borrow_mut().act_quant = Some(afmt.into_act_fn());

    // Tap-quantized dense reference.
    let reference = lin.forward(&x);

    // Fused packed execution: the installer suspends the tap quantizer.
    let info = install_packed_weight(&lin, &wfmt, Some(&afmt), None);
    assert!(info.fused_act.is_some(), "whole-input layer must fuse");
    assert!(lin.tap().borrow().act_quant.is_none(), "tap must be suspended");
    let fused = lin.forward(&x);
    for (a, b) in reference.data().iter().zip(fused.data()) {
        assert!((a - b).abs() < 1e-4, "tap {a} vs fused {b}");
    }

    // Clearing hands back the suspended tap closure for restoration.
    if let Some(suspended) = lin.packed().clear() {
        suspended.restore(&mut lin.tap().borrow_mut());
    }
    assert!(lin.tap().borrow().act_quant.is_some(), "tap must be restored");
    let restored = lin.forward(&x);
    assert_eq!(restored.data(), reference.data(), "dense path must restore");

    // Re-packing an already-packed layer is idempotent: the second
    // install sees the original tap state and still fuses.
    let first = install_packed_weight(&lin, &wfmt, Some(&afmt), None);
    let second = install_packed_weight(&lin, &wfmt, Some(&afmt), None);
    assert_eq!(first.fused_act, second.fused_act, "re-pack must still fuse");
    let refused = lin.forward(&x);
    for (a, b) in reference.data().iter().zip(refused.data()) {
        assert!((a - b).abs() < 1e-4, "re-packed layer diverged: {a} vs {b}");
    }
    if let Some(suspended) = lin.packed().clear() {
        suspended.restore(&mut lin.tap().borrow_mut());
    }
}

#[test]
fn fp4_packing_cuts_footprint_8x_and_stays_exact() {
    let mut rng = StdRng::seed_from_u64(1);
    let w = Tensor::randn(&[32, 64], &mut rng).mul_scalar(0.1);
    let found = search_fp_format(&[&w], 4, 41);
    let TensorQuantizer::Fp(fmt) = found.quantizer else { panic!("fp expected") };
    let packed = PackedTensor::encode(&w, fmt);
    assert_eq!(packed.payload_bytes(), w.numel() / 2, "FP4 = 1/8 of FP32 bytes");
    let decoded = packed.decode();
    let simulated = fmt.quantize(&w);
    assert_eq!(decoded.data(), simulated.data(), "bit-exact roundtrip");
}

#[test]
fn sparse_kernel_exploits_quantization_zeros() {
    // FP4 quantization zeroes small weights (paper §VI-G); the CSR kernel
    // must then reproduce the dense result while storing fewer values.
    let mut rng = StdRng::seed_from_u64(2);
    let w = Tensor::randn(&[16, 32], &mut rng).mul_scalar(0.02);
    let fmt = FpFormat::new(2, 1); // standard-bias FP4 clips tiny values to 0
    let quantized = fmt.quantize(&w);
    assert!(quantized.sparsity() > 0.2, "expected quantization-induced zeros");

    let csr = CsrWeights::from_dense(&w, &TensorQuantizer::Fp(fmt));
    let x = Tensor::randn(&[3, 32], &mut rng);
    let sparse_out = csr.gemm(&x, None, Exec::default());
    let dense_out = x.matmul_nt(&quantized);
    for (a, b) in sparse_out.data().iter().zip(dense_out.data()) {
        assert!((a - b).abs() < 1e-4);
    }
    assert_eq!(csr.sparsity(), quantized.sparsity());
}

#[test]
fn quant_layer_trait_exposes_what_the_driver_needs() {
    // The QuantLayer surface is the contract between model and method.
    let mut rng = StdRng::seed_from_u64(3);
    let lin = Linear::new("attn.to_q", 8, 8, &mut rng);
    let layer: &dyn QuantLayer = &lin;
    assert_eq!(layer.qname(), "attn.to_q");
    assert!(layer.conv_spec().is_none());
    assert!(layer.bias().is_some());
    let x = Tensor::randn(&[2, 8], &mut rng);
    let y = layer.forward_with_weight(&x, &Tensor::eye(8));
    // Identity weight + bias: y = x + b.
    let expect = x.add(&layer.bias().unwrap().value());
    for (a, b) in y.data().iter().zip(expect.data()) {
        assert!((a - b).abs() < 1e-6);
    }
}
