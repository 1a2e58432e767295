//! Figure 11 — percentage of zero weights in SD-sim and LDM-sim before
//! and after quantization, plus the sparsity-increase factors.
//!
//! Paper reference: FP8 increases weight sparsity 31.6× (SD) / 20.1×
//! (LDM); FP4 617× / 428.5× — an order of magnitude or more. The factors
//! are large because FP32 weights have almost no zeros; the quantized
//! density stays near 0.9, so the packed engine runs dense.

use fpdq_bench::*;
use fpdq_core::sparsity::weight_sparsity;
use fpdq_core::PtqConfig;
use fpdq_nn::UNet;

fn measure(
    model: &str,
    make: &dyn Fn() -> (UNet, fpdq_core::CalibrationSet),
) -> Vec<(String, f32)> {
    let mut out = Vec::new();
    for (name, cfg) in [
        ("FP32".to_string(), None),
        ("FP8 weights".to_string(), Some(PtqConfig::fp(8, 8))),
        ("FP4 weights".to_string(), Some(PtqConfig::fp(4, 8))),
    ] {
        let (unet, calib) = make();
        if let Some(cfg) = &cfg {
            // Weight sparsity only needs the weight pass.
            let mut cfg = cfg.clone();
            cfg.quantize_acts = false;
            apply_ptq(&unet, &calib, &cfg);
        }
        let s = weight_sparsity(&unet).overall();
        eprintln!("[fig11] {model} {name}: sparsity {s:.6}");
        out.push((name, s));
    }
    out
}

fn main() {
    let sd = measure("SD-sim", &|| {
        let p = fresh_sd();
        let calib = calibrate_t2i(&p);
        (p.unet, calib)
    });
    let ldm = measure("LDM-sim", &|| {
        let p = fresh_ldm();
        let calib = calibrate_uncond(&p.unet, &p.schedule, [4, 8, 8]);
        (p.unet, calib)
    });

    println!("\n=== Figure 11: percentage of zero weights ===");
    println!("{:<16}{:>12}{:>12}", "Config", "SD-sim", "LDM-sim");
    for i in 0..sd.len() {
        println!("{:<16}{:>11.4}%{:>11.4}%", sd[i].0, 100.0 * sd[i].1, 100.0 * ldm[i].1);
    }
    // Increase factors vs the FP32 baseline (floored to one weight).
    let factor = |set: &[(String, f32)], i: usize| set[i].1 / set[0].1.max(1e-6);
    println!("\nsparsity increase vs FP32 (paper: SD 31.6x/617x, LDM 20.1x/428.5x):");
    println!("  SD-sim : FP8 {:.1}x, FP4 {:.1}x", factor(&sd, 1), factor(&sd, 2));
    println!("  LDM-sim: FP8 {:.1}x, FP4 {:.1}x", factor(&ldm, 1), factor(&ldm, 2));

    let pass = sd[1].1 > sd[0].1
        && sd[2].1 > 8.0 * sd[1].1.max(1e-6) / 8.0
        && sd[2].1 > sd[1].1 * 3.0
        && ldm[2].1 > ldm[1].1 * 3.0;
    println!(
        "shape checks: {}",
        if pass { "PASS (FP4 sparsity >> FP8 sparsity >> FP32)" } else { "WARN" }
    );
}
