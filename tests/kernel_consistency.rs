//! Cross-crate consistency: the bit-packed kernels (fpdq-kernels) compute
//! exactly what the fake-quantized model layers (fpdq-nn + fpdq-core)
//! compute — the property that licenses evaluating image quality with
//! simulated quantization while claiming real-footprint deployment.

use fpdq::kernels::{gemm_packed, install_packed, Exec, PackedTensor};
use fpdq::nn::{Conv2d, Linear, QuantLayer};
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
    // The fused weight+activation forward (quantization inside the packed
    // engine, the tap only capturing) must reproduce the tap-based
    // fake-quantized execution bit for bit.
    let mut rng = StdRng::seed_from_u64(7);
    let lin = Linear::new("l", 20, 12, &mut rng);
    let x = Tensor::randn(&[4, 20], &mut rng);
    let wfmt = TensorQuantizer::Fp(FpFormat::new(4, 3));
    let afmt = TensorQuantizer::Fp(FpFormat::new(4, 3));
    let TensorQuantizer::Fp(wf) = wfmt else { unreachable!() };
    lin.weight.replace(wf.quantize(&lin.weight.value()));
    lin.tap().borrow_mut().act_quant = Some(afmt.into_act_fn());
    let pack = |lin: &Linear| {
        let packed = PackedTensor::encode(&lin.weight.value(), wfmt);
        install_packed(lin, packed, Some(&afmt), None).expect("dims match")
    };

    // Tap-quantized dense reference.
    let reference = lin.forward(&x);

    // Fused packed execution: the tap keeps its quantizer.
    let info = pack(&lin);
    assert!(info.fused_act.is_some(), "whole-input layer must fuse");
    assert!(lin.tap().borrow().act_quant.is_some(), "tap must keep its quantizer");
    assert_same_bits(&lin.forward(&x), &reference, "fused linear");

    // Clearing returns the layer to the tap-quantized dense path.
    lin.packed().clear();
    assert_same_bits(&lin.forward(&x), &reference, "dense path after clear");

    // Re-packing an already-packed layer is idempotent: the second
    // install sees the same tap state and still fuses.
    let first = pack(&lin);
    let second = pack(&lin);
    assert_eq!(first.fused_act, second.fused_act, "re-pack must still fuse");
    assert_same_bits(&lin.forward(&x), &reference, "re-packed linear");
    lin.packed().clear();

    // A conv consuming `concat(trunk, skip)` fuses the split tap: trunk
    // format below the split channel, skip format from it on.
    let mut conv = Conv2d::new("c", 6, 5, 3, 1, 1, &mut rng);
    conv.set_concat_split(4);
    let x = Tensor::randn(&[2, 6, 5, 5], &mut rng);
    let trunk = TensorQuantizer::Fp(FpFormat::new(4, 3));
    let skip = TensorQuantizer::Fp(FpFormat::new(2, 5));
    conv.weight.replace(wf.quantize(&conv.weight.value()));
    {
        let mut tap = conv.tap().borrow_mut();
        tap.act_quant = Some(trunk.into_act_fn());
        tap.act_quant_skip = Some(skip.into_act_fn());
    }
    let reference = conv.forward(&x);
    let packed = PackedTensor::encode(&conv.weight.value(), wfmt);
    let info = install_packed(&conv, packed, Some(&trunk), Some(&skip)).expect("dims match");
    let want = format!("{}[..4] {}[4..]", trunk.describe(), skip.describe());
    assert_eq!(info.fused_act.as_deref(), Some(want.as_str()), "split conv must fuse both halves");
    assert_same_bits(&conv.forward(&x), &reference, "fused split conv");
    conv.packed().clear();
    assert_same_bits(&conv.forward(&x), &reference, "dense conv after clear");
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

/// Asserts equal dims and bit-identical elements (NaN payloads included).
fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}");
    for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
    }
}

/// The head-split chain the fused attention core replaces, rebuilt from
/// public ops: split heads → `bmm` with kᵀ → scale → softmax → `bmm` with
/// v → merge heads.
fn attention_chain(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize, scale: f32) -> Tensor {
    let (b, n, d) = (q.dim(0), q.dim(1), q.dim(2));
    let (m, dh) = (k.dim(1), d / heads);
    let split = |x: &Tensor, len: usize| {
        x.reshape(&[b, len, heads, dh])
            .permute(&[0, 2, 1, 3])
            .reshape(&[b * heads, len, dh])
    };
    let scores = split(q, n).bmm(&split(k, m).permute(&[0, 2, 1]));
    let attn = scores.mul_scalar(scale).softmax_lastdim();
    attn.bmm(&split(v, m))
        .reshape(&[b, heads, n, dh])
        .permute(&[0, 2, 1, 3])
        .reshape(&[b, n, d])
}

/// Random q `[b, n, d]` and k, v `[b, m, d]` with exact zeros in q: the
/// whole last row (the one-row tail of `gemm_serial`, skipping per
/// element) and the first head's columns of rows 0..4 (its 4-row block,
/// skipping all four rows at once).
fn attention_operands(b: usize, n: usize, m: usize, d: usize, seed: u64) -> [Tensor; 3] {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut q = Tensor::randn(&[b, n, d], &mut rng);
    for bi in 0..b {
        for c in 0..d {
            q.set(&[bi, n - 1, c], 0.0);
        }
        for i in 0..n.min(4) {
            q.set(&[bi, i, 0], 0.0);
            q.set(&[bi, i, 1], 0.0);
        }
    }
    [q, Tensor::randn(&[b, m, d], &mut rng), Tensor::randn(&[b, m, d], &mut rng)]
}

#[test]
fn attention_core_matches_the_head_split_chain_bitwise() {
    let d = 12;
    for heads in [1, 2, 4] {
        let scale = 1.0 / ((d / heads) as f32).sqrt();
        for b in [1, 3] {
            // Self-attention shapes (m = n) and cross-attention (m ≠ n).
            for (n, m) in [(6, 6), (6, 3), (2, 7)] {
                let what = format!("heads {heads}, b {b}, n {n}, m {m}");
                let [q, k, v] = attention_operands(b, n, m, d, (heads * 100 + b * 10 + m) as u64);
                let got = q.attention(&k, &v, heads, scale);
                assert_same_bits(&got, &attention_chain(&q, &k, &v, heads, scale), &what);
                if n == m {
                    // Literal self-attention: q, k and v are one tensor.
                    let got = q.attention(&q, &q, heads, scale);
                    assert_same_bits(&got, &attention_chain(&q, &q, &q, heads, scale), &what);
                }
            }
        }
    }
}

#[test]
fn attention_core_matches_the_chain_on_non_finite_keys_and_values() {
    let d = 8;
    for heads in [1, 2, 4] {
        let scale = 1.0 / ((d / heads) as f32).sqrt();
        for b in [1, 3] {
            let [q, mut k, mut v] = attention_operands(b, 5, 4, d, 40 + heads as u64);
            // Every batch: +inf and -inf keys in different heads' columns,
            // a NaN key, and ±inf / NaN values.
            for bi in 0..b {
                k.set(&[bi, 0, 0], f32::INFINITY);
                k.set(&[bi, 1, d - 1], f32::NEG_INFINITY);
                k.set(&[bi, 2, d / 2], f32::NAN);
                v.set(&[bi, 3, 1], f32::NAN);
                v.set(&[bi, 0, d - 2], f32::INFINITY);
                v.set(&[bi, 1, 2], f32::NEG_INFINITY);
            }
            let got = q.attention(&k, &v, heads, scale);
            let what = format!("non-finite k/v, heads {heads}, b {b}");
            assert_same_bits(&got, &attention_chain(&q, &k, &v, heads, scale), &what);
        }
    }
}

#[test]
fn attention_core_batches_match_single_batch_runs() {
    let (b, heads, scale) = (4, 2, 0.5);
    let [q, k, v] = attention_operands(b, 6, 3, 8, 77);
    let full = q.attention(&k, &v, heads, scale);
    for i in 0..b {
        let one = q
            .narrow(0, i, 1)
            .attention(&k.narrow(0, i, 1), &v.narrow(0, i, 1), heads, scale);
        assert_same_bits(&full.narrow(0, i, 1), &one, &format!("batch {i} of {b}"));
    }
}

#[test]
fn packed_linears_read_3d_activations_as_rows_bitwise() {
    // A packed linear on [b, l, d] must equal the flattened [b·l, d] run.
    let (b, l, d, out) = (2, 5, 16, 12);
    let mut rng = StdRng::seed_from_u64(11);
    let x = Tensor::randn(&[b, l, d], &mut rng);
    let w = Tensor::randn(&[out, d], &mut rng).zip_map(
        &Tensor::rand_uniform(&[out, d], 0.0, 1.0, &mut rng),
        |v, u| if u < 0.1 { v } else { 0.0 },
    );
    let wfmt = TensorQuantizer::Fp(FpFormat::new(4, 3));
    let afmt = TensorQuantizer::Fp(FpFormat::new(4, 3));
    let lin = Linear::new("l", d, out, &mut StdRng::seed_from_u64(12));
    lin.weight.replace(w);
    lin.tap().borrow_mut().act_quant = Some(afmt.into_act_fn());
    let packed = PackedTensor::encode(&lin.weight.value(), wfmt);
    let info = install_packed(&lin, packed, Some(&afmt), None).expect("dims match");
    assert!(info.fused_act.is_some(), "activation quantizer must fuse");
    let rows = lin.forward(&x);
    assert_eq!(rows.dims(), &[b, l, out]);
    let flat = lin.forward(&x.reshape(&[b * l, d]));
    assert_same_bits(&rows.reshape(&[b * l, out]), &flat, "dense packed");
}
