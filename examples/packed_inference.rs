//! Packed inference: quantize a U-Net, then flip it from fake-quantized
//! dense execution to the real bit-packed engine and sample end to end.
//!
//! ```sh
//! FPDQ_FAST=1 cargo run --release --example packed_inference
//! ```

use fpdq::kernels::{pack_unet, unpack_unet};
use fpdq::prelude::*;
use fpdq::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    // A trained DDIM pipeline (cached by the zoo after first training).
    let pipeline = Zoo::open_default().ddim_sim();
    let mut rng = StdRng::seed_from_u64(0);
    let calib = record_trajectories(
        &pipeline.unet,
        &pipeline.schedule,
        &[3, 8, 8],
        &[None],
        10,
        4,
        32,
        0,
        &mut rng,
    );

    // Quantize weights + activations to FP8, then bake the packed engine.
    let report =
        quantize_unet(&pipeline.unet, &calib, &PtqConfig::fp(8, 8), &mut StdRng::seed_from_u64(1));

    // Dense (fake-quantized) reference sample.
    let t0 = Instant::now();
    let dense = pipeline.generate(4, 10, &mut StdRng::seed_from_u64(7));
    let dense_time = t0.elapsed();

    // Switch to packed execution: every quantized layer now streams its
    // weights from the bit-packed payload through the
    // dequantize-on-the-fly kernels.
    let pack = pack_unet(&pipeline.unet, &report);
    println!(
        "packed {} layers ({} with fused act quant) | payload {:.1} KiB vs dense {:.1} KiB | compression {:.2}x",
        pack.layers.len(),
        pack.fused_act_layers(),
        pack.payload_bytes() as f32 / 1024.0,
        pack.dense_bytes() as f32 / 1024.0,
        pack.compression(),
    );

    let t1 = Instant::now();
    let _packed = pipeline.generate(4, 10, &mut StdRng::seed_from_u64(7));
    let packed_time = t1.elapsed();

    println!(
        "sampled {:?} images | dense {:.2?} vs packed {:.2?}",
        dense.dims(),
        dense_time,
        packed_time,
    );

    // Numerical contract: each layer runs one forward body on the same
    // engine whether its weight is dense or packed, so one U-Net forward
    // through the packed engine matches the fake-quantized forward
    // wherever the baked weights lie on the packed grid. (A weight off
    // the grid moves its layer's output slightly, and the iterative
    // sampler amplifies that over a full trajectory.)
    let x = Tensor::randn(&[1, 3, 8, 8], &mut StdRng::seed_from_u64(3));
    let t = Tensor::from_vec(vec![5.0], &[1]);
    let packed_once = pipeline.unet.forward(&x, &t, None);
    unpack_unet(&pipeline.unet);
    let dense_once = pipeline.unet.forward(&x, &t, None);
    let max_abs = packed_once
        .data()
        .iter()
        .zip(dense_once.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("single-forward packed vs fake-quant: max |Δ| = {max_abs:.2e}");
    assert!(max_abs < 1e-4, "packed forward diverged from fake-quantized forward");

    // Back on the dense path, sampling is bit-identical to the reference.
    let reverted = pipeline.generate(4, 10, &mut StdRng::seed_from_u64(7));
    assert_eq!(reverted.data(), dense.data(), "unpack must restore the dense path");
    println!("unpacked: dense path restored bit-exactly");
}
