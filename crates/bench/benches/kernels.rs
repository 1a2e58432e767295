//! Criterion microbenchmarks over the quantized kernels: packed
//! encode/decode, dequantize-on-the-fly GEMM vs dense FP32 GEMM, the
//! implicit-GEMM conv, activation quantization, attention and the
//! unquantized SiLU and softmax.
//!
//! The `pack` group carries explicit before/after pairs: the `*_bitloop`
//! entries re-run the pre-optimisation per-bit unpacking, so the
//! LUT-decode speedup can be read off one run. (The retired seed GEMM,
//! im2col conv and sparse kernels' figures are recorded in CHANGES.md.)

use criterion::{criterion_group, Criterion};
use fpdq_core::{BoundaryQuantizer, FpFormat, IntFormat, PanelQuantizer, Planes, TensorQuantizer};
use fpdq_kernels::packed::unpack_bits_range_bitloop;
use fpdq_kernels::{conv2d_packed, gemm_packed, Exec, PackedTensor};
use fpdq_tensor::matmul::{gemm_nt_panel_as, gemm_nt_serial_as, NT_NR};
use fpdq_tensor::simd::{self, Isa};
use fpdq_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const M: usize = 32;
const K: usize = 256;
const N: usize = 256;

fn rand_mat(r: usize, c: usize, seed: u64) -> Tensor {
    Tensor::randn(&[r, c], &mut StdRng::seed_from_u64(seed))
}

/// The default (threaded) worker count on an explicit ISA path.
fn on(isa: Isa) -> Exec {
    Exec { isa, ..Exec::default() }
}

fn bench_quantize(c: &mut Criterion) {
    let x = rand_mat(N, K, 1);
    let fp8 = FpFormat::new(4, 3);
    let fp4 = FpFormat::new(2, 1);
    let int8 = IntFormat::fit(&x, 8);
    let mut g = c.benchmark_group("quantize");
    g.bench_function("fp8_e4m3", |b| b.iter(|| black_box(fp8.quantize(&x))));
    g.bench_function("fp4_e2m1", |b| b.iter(|| black_box(fp4.quantize(&x))));
    g.bench_function("int8", |b| b.iter(|| black_box(int8.quantize(&x))));
    g.finish();
}

fn bench_pack(c: &mut Criterion) {
    let w = rand_mat(N, K, 2);
    let fp8 = FpFormat::new(4, 3);
    let fp4 = FpFormat::new(2, 1);
    let mut g = c.benchmark_group("pack");
    g.bench_function("encode_fp8", |b| b.iter(|| black_box(PackedTensor::encode(&w, fp8))));
    g.bench_function("encode_fp4", |b| b.iter(|| black_box(PackedTensor::encode(&w, fp4))));
    let packed8 = PackedTensor::encode(&w, fp8);
    let packed4 = PackedTensor::encode(&w, fp4);
    g.bench_function("decode_fp8", |b| b.iter(|| black_box(packed8.decode())));
    g.bench_function("decode_fp4", |b| b.iter(|| black_box(packed4.decode())));
    // Before/after: the seed per-bit decode path vs the byte-LUT path.
    g.bench_function("decode_fp8_bitloop", |b| b.iter(|| black_box(packed8.decode_via_bitloop())));
    g.bench_function("decode_fp4_bitloop", |b| b.iter(|| black_box(packed4.decode_via_bitloop())));
    let payload4 = packed4.payload();
    g.bench_function("unpack_bits_fp4", |b| {
        b.iter(|| black_box(fpdq_kernels::packed::unpack_bits(&payload4, 4, N * K)))
    });
    g.bench_function("unpack_bits_fp4_bitloop", |b| {
        b.iter(|| black_box(unpack_bits_range_bitloop(&payload4, 4, 0, N * K)))
    });
    g.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let a = rand_mat(M, K, 3);
    let w = rand_mat(N, K, 4);
    let fp8 = PackedTensor::encode(&w, FpFormat::new(4, 3));
    let fp4 = PackedTensor::encode(&w, FpFormat::new(2, 1));
    let int8 = PackedTensor::encode(&w, IntFormat::fit(&w, 8));
    let pq8 = PanelQuantizer::per_tensor(&TensorQuantizer::Fp(FpFormat::new(4, 3)));
    let mut g = c.benchmark_group("gemm_32x256x256");
    g.bench_function("dense_fp32", |b| b.iter(|| black_box(a.matmul_nt(&w))));
    g.bench_function("packed_fp8_w", |b| {
        b.iter(|| black_box(gemm_packed(&a, &fp8, None, Exec::default())))
    });
    g.bench_function("packed_fp4_w", |b| {
        b.iter(|| black_box(gemm_packed(&a, &fp4, None, Exec::default())))
    });
    g.bench_function("packed_fp8_wa", |b| {
        b.iter(|| black_box(gemm_packed(&a, &fp8, Some(&pq8), Exec::default())))
    });
    g.bench_function("packed_int8_w", |b| {
        b.iter(|| black_box(gemm_packed(&a, &int8, None, Exec::default())))
    });
    // Per-ISA pairs (scalar + every SIMD path this machine supports) so
    // the runtime-dispatch speedup can be read off a single run: the raw
    // serial NT micro-kernel, and the full fused W+A packed GEMM.
    for &isa in simd::available() {
        let mut c_out = vec![0.0f32; M * N];
        g.bench_function(format!("matmul_nt_serial_{}", isa.name()), |b| {
            b.iter(|| {
                gemm_nt_serial_as(isa, a.data(), w.data(), &mut c_out, M, K, N);
                black_box(c_out[0])
            })
        });
        g.bench_function(format!("packed_fp8_wa_{}", isa.name()), |b| {
            b.iter(|| black_box(gemm_packed(&a, &fp8, Some(&pq8), on(isa))))
        });
    }
    g.finish();
}

fn bench_gemm_batched(c: &mut Criterion) {
    // Batched multi-image activation matrices (m = batch × 4 rows, the
    // projection/time-embedding shape where a batch-1 step is *decode-
    // bound*: expanding the 256×256 packed weight costs more than the
    // 4-row product consumes) against one weight: per-image cost falls
    // with the batch as the once-per-call weight decode amortises — the
    // packed engine's serving-scale regime. Per-image throughput =
    // entry time / batch.
    const ROWS_PER_IMAGE: usize = 4;
    let w = rand_mat(N, K, 9);
    let fp8 = PackedTensor::encode(&w, FpFormat::new(4, 3));
    let pq8 = PanelQuantizer::per_tensor(&TensorQuantizer::Fp(FpFormat::new(4, 3)));
    let mut g = c.benchmark_group("gemm_batched_4rows_x256x256");
    for batch in [1usize, 4, 8] {
        let a = rand_mat(batch * ROWS_PER_IMAGE, K, 10 + batch as u64);
        g.bench_function(format!("packed_fp8_wa_batch{batch}"), |b| {
            b.iter(|| black_box(gemm_packed(&a, &fp8, Some(&pq8), Exec::default())))
        });
    }
    // A narrow layer (n = 32) at batch scale exercises the
    // column-parallel regime.
    let wn = rand_mat(32, K, 11);
    let fp8n = PackedTensor::encode(&wn, FpFormat::new(4, 3));
    let an = rand_mat(8 * M, K, 12);
    g.bench_function("packed_fp8_wa_narrow_n32_batch8", |b| {
        b.iter(|| black_box(gemm_packed(&an, &fp8n, Some(&pq8), Exec::default())))
    });
    g.finish();
}

fn bench_conv_batched(c: &mut Criterion) {
    use fpdq_tensor::conv::Conv2dSpec;
    let mut rng = StdRng::seed_from_u64(13);
    let w = Tensor::randn(&[32, 16, 3, 3], &mut rng);
    let spec = Conv2dSpec::new(1, 1);
    let fp8 = PackedTensor::encode(&w, FpFormat::new(4, 3));
    let pq8 = PanelQuantizer::per_tensor(&TensorQuantizer::Fp(FpFormat::new(4, 3)));
    let mut g = c.benchmark_group("conv_batched_16x16x16_to_32ch");
    for batch in [1usize, 4, 8] {
        let x = Tensor::randn(&[batch, 16, 16, 16], &mut rng);
        g.bench_function(format!("packed_fp8_wa_batch{batch}"), |b| {
            b.iter(|| black_box(conv2d_packed(&x, &fp8, None, spec, Some(&pq8), Exec::default())))
        });
    }
    g.finish();

    // The deep-bottleneck shape (256→256 channels, 3×3 stride-2 on a 4×4
    // feature map, FP4 weights): the conv analog of the gemm_batched
    // projection shape, where a batch-1 call is *decode-bound* —
    // expanding the 256·256·9 packed filter bank through the nibble LUT
    // costs more than the 4 output pixels consume — so the once-per-call
    // decode amortising across the batch is the dominant effect. This is
    // the `conv_batched` amortization contract the CI bench-smoke asserts
    // (batch-8 per-image ≤ 0.6× batch-1).
    let wb = Tensor::randn(&[256, 256, 3, 3], &mut rng);
    let specb = Conv2dSpec::new(2, 1);
    let fp4b = PackedTensor::encode(&wb, FpFormat::new(2, 1));
    // CI asserts a ratio between the two entries below, so a single
    // 10ms smoke sample is too noise-prone: pin this group to min-of-5
    // samples even in smoke mode (~0.7s extra) and restore afterwards.
    let saved = c.clone();
    if std::env::var("FPDQ_BENCH_FAST").is_ok_and(|v| v == "1") {
        *c = Criterion::default()
            .sample_size(5)
            .warm_up_time(std::time::Duration::from_millis(50))
            .measurement_time(std::time::Duration::from_millis(250));
    }
    let mut g = c.benchmark_group("conv_batched_bottleneck_256ch_4x4_s2");
    for batch in [1usize, 8] {
        let x = Tensor::randn(&[batch, 256, 4, 4], &mut rng);
        g.bench_function(format!("packed_fp4_wa_batch{batch}"), |b| {
            b.iter(|| black_box(conv2d_packed(&x, &fp4b, None, specb, Some(&pq8), Exec::default())))
        });
    }
    g.finish();
    *c = saved;
}

fn bench_conv(c: &mut Criterion) {
    use fpdq_tensor::conv::Conv2dSpec;
    let mut rng = StdRng::seed_from_u64(8);
    let x = Tensor::randn(&[4, 16, 16, 16], &mut rng);
    let w = Tensor::randn(&[32, 16, 3, 3], &mut rng);
    let spec = Conv2dSpec::new(1, 1);
    let fp8 = PackedTensor::encode(&w, FpFormat::new(4, 3));
    let fp4 = PackedTensor::encode(&w, FpFormat::new(2, 1));
    let mut g = c.benchmark_group("conv2d_4x16x16x16_to_32ch");
    g.bench_function("dense_fp32", |b| b.iter(|| black_box(x.conv2d(&w, None, spec))));
    g.bench_function("packed_fp8_w", |b| {
        b.iter(|| black_box(conv2d_packed(&x, &fp8, None, spec, None, Exec::default())))
    });
    g.bench_function("packed_fp4_w", |b| {
        b.iter(|| black_box(conv2d_packed(&x, &fp4, None, spec, None, Exec::default())))
    });
    g.finish();
}

/// The serving shape: the largest conv of the `tiny@fp8` U-Net (the
/// up-path `conv1` over a 16-channel trunk concatenated with an 8-channel
/// skip, `[1, 24, 8, 8]` × `[8, 24, 3, 3]`, padding 1) at batch 1 and one
/// worker, as `fpdq serve` runs it: FP8 weights and split FP8 activation
/// quantization (trunk and skip on different grids). `packed_fp8_wa_split`
/// is the entry point, which runs this stride-1 conv on the direct path
/// (the kernel reads the bordered image in place). `panel_fp8_wa_split`
/// is the panel path of the same conv on the same ISA, built from its
/// public pieces with its buffers held across iterations: filter decode,
/// fused quantization, then each 8-pixel tile lowered by
/// `im2col_panel_into` and swept by the panel kernel.
/// `stage_fp8_wa_split` is the direct path's staging of that input alone,
/// as the entry point does it per image: zero the bordered operand, then
/// quantize the input straight into its interior.
fn bench_conv_serve_batch1(c: &mut Criterion) {
    use fpdq_tensor::conv::{im2col_panel_into, Conv2dSpec};
    let mut rng = StdRng::seed_from_u64(17);
    let (ch, hw, o) = (24usize, 8usize, 8usize);
    let x = Tensor::randn(&[1, ch, hw, hw], &mut rng);
    let w = Tensor::randn(&[o, ch, 3, 3], &mut rng);
    let spec = Conv2dSpec::new(1, 1);
    let fp8 = PackedTensor::encode(&w, FpFormat::new(4, 3));
    let trunk = TensorQuantizer::Fp(FpFormat::new(4, 3));
    let skip = TensorQuantizer::Fp(FpFormat::with_bias(4, 3, 9.0));
    let split = PanelQuantizer::split(&trunk, &skip, 16, ch);
    let serve = Exec::new(simd::active(), 1);
    let mut g = c.benchmark_group("conv_serve_batch1");
    g.bench_function("packed_fp8_wa_split", |b| {
        b.iter(|| black_box(conv2d_packed(&x, &fp8, None, spec, Some(&split), serve)))
    });
    let (ckk, ohow) = (ch * 9, hw * hw);
    let mut filters = vec![0.0f32; o * ckk];
    let mut xq = vec![0.0f32; x.numel()];
    let mut panel = vec![0.0f32; ckk * NT_NR];
    let mut out = vec![0.0f32; o * ohow];
    g.bench_function("panel_fp8_wa_split", |b| {
        b.iter(|| {
            fp8.decode_range_into_as(serve.isa, 0, &mut filters);
            split.quantize_panel_into_as(serve.isa, x.data(), &mut xq, hw * hw);
            for j0 in (0..ohow).step_by(NT_NR) {
                im2col_panel_into(&xq, ch, hw, hw, 3, 3, spec, j0, NT_NR, &mut panel);
                gemm_nt_panel_as(serve.isa, &filters, &panel, &mut out, o, ckk, ohow, j0, NT_NR);
            }
            black_box(out[0])
        })
    });
    let layout = Planes::bordered(hw, hw, 1);
    let mut bordered = vec![0.0f32; ch * layout.plane];
    g.bench_function("stage_fp8_wa_split", |b| {
        b.iter(|| {
            bordered.fill(0.0);
            let interior = &mut bordered[layout.pitch + 1..];
            split.quantize_planes_into_as(serve.isa, black_box(x.data()), interior, layout);
            black_box(bordered[0])
        })
    });
    g.finish();
}

/// Fused activation quantization at serving shape: one `[1, 24, 8, 8]`
/// slice (1,536 elements, the input of `conv_serve_batch1`) through the
/// boundary table of a searched E2M5 activation format, as the `tiny@fp8`
/// container carries, and of standard E4M3. `boundary_e2m5_rotating`
/// quantizes the same slice through 67 distinct searched-bias E2M5
/// tables in turn, one per call, as a served forward's layers do, so the
/// tables compete for cache.
fn bench_act_quant(c: &mut Criterion) {
    let x = Tensor::randn(&[1, 24, 8, 8], &mut StdRng::seed_from_u64(19));
    let mut out = vec![0.0f32; x.numel()];
    let mut g = c.benchmark_group("act_quant");
    for (name, fmt) in [
        ("boundary_e2m5_serve", FpFormat::with_bias(2, 5, 1.787_683)),
        ("boundary_e4m3_serve", FpFormat::new(4, 3)),
    ] {
        let bq = BoundaryQuantizer::cached(&TensorQuantizer::Fp(fmt));
        g.bench_function(name, |b| {
            b.iter(|| {
                bq.quantize_slice_into(black_box(x.data()), &mut out);
                black_box(out[0])
            })
        });
    }
    let tables: Vec<BoundaryQuantizer> = (0..67)
        .map(|i| BoundaryQuantizer::from_fp(FpFormat::with_bias(2, 5, 0.5 + i as f32 * 0.061_3)))
        .collect();
    let mut next = 0usize;
    g.bench_function("boundary_e2m5_rotating", |b| {
        b.iter(|| {
            tables[next].quantize_slice_into(black_box(x.data()), &mut out);
            next = (next + 1) % tables.len();
            black_box(out[0])
        })
    });
    g.finish();
}

/// The fused attention core at `tiny-sd`'s level-1 transformer shapes
/// under folded CFG: 2 rows of 16 positions × 16 features, 2 heads;
/// self-attention, and cross-attention to an 8-token context. The two
/// rows split across the default workers, so on a multi-core host each
/// call includes starting its scoped threads.
fn bench_attention(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(23);
    let q = Tensor::randn(&[2, 16, 16], &mut rng);
    let ctx_k = Tensor::randn(&[2, 8, 16], &mut rng);
    let ctx_v = Tensor::randn(&[2, 8, 16], &mut rng);
    let scale = 1.0 / 8f32.sqrt();
    let mut g = c.benchmark_group("attention");
    g.bench_function("self_2x16x16_h2", |b| {
        b.iter(|| black_box(q.attention(black_box(&q), &q, 2, scale)))
    });
    g.bench_function("cross_2x16x16_m8_h2", |b| {
        b.iter(|| black_box(q.attention(black_box(&ctx_k), &ctx_v, 2, scale)))
    });
    g.finish();
}

/// The full-precision ops the paper keeps unquantized, on the vector exp:
/// SiLU over a `tiny`-sized `[2, 24, 8, 8]` map and softmax over 64 rows
/// of 16 scores (one attention head's worth at `tiny-sd`'s level 1), on
/// the dispatched ISA and, as the before side, on the scalar path
/// (`f32::exp` per element).
fn bench_unquantized(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(29);
    let x = Tensor::randn(&[2, 24, 8, 8], &mut rng).mul_scalar(2.0);
    let scores = Tensor::randn(&[64, 16], &mut rng).mul_scalar(3.0);
    let mut g = c.benchmark_group("unquantized");
    for (suffix, isa) in [("", simd::active()), ("_scalar", Isa::Scalar)] {
        g.bench_function(format!("silu_2x24x8x8{suffix}"), |b| {
            b.iter(|| black_box(black_box(&x).silu_as(isa)))
        });
        g.bench_function(format!("softmax_64x16{suffix}"), |b| {
            b.iter(|| black_box(black_box(&scores).softmax_lastdim_as(isa)))
        });
    }
    g.finish();
}

/// Cold-start cost: what a fresh process pays before it can sample. The
/// container is the whole point of the `cold_start` group — loading a
/// packed `.fpdq` (`container_load`) must be dramatically cheaper than
/// re-deriving the model (`quantize_and_pack`), and `pack_write` prices
/// the crash-safe (temp + fsync + rename) container write itself.
fn bench_cold_start(c: &mut Criterion) {
    use fpdq_container::{container_bytes, load_bytes, save, SimPipeline};
    use fpdq_core::calib::{CalibPoint, CalibrationSet};
    use fpdq_core::{quantize_unet, PtqConfig, RoundingConfig};
    use fpdq_diffusion::{DdimSim, NoiseSchedule};
    use fpdq_nn::{UNet, UNetConfig};

    let mut rng = StdRng::seed_from_u64(21);
    let unet = UNet::new(UNetConfig::tiny(3), &mut rng);
    let points: Vec<CalibPoint> = (0..3)
        .map(|i| CalibPoint {
            x: Tensor::randn(&[1, 3, 8, 8], &mut rng),
            t: (i * 4) as f32,
            ctx: None,
        })
        .collect();
    let calib = CalibrationSet { init: points.clone(), rl: points };
    let mut cfg = PtqConfig::fp(8, 8);
    cfg.bias_candidates = 9;
    cfg.rounding = RoundingConfig { iters: 4, batch: 2, ..RoundingConfig::default() };
    let report = quantize_unet(&unet, &calib, &cfg, &mut StdRng::seed_from_u64(1));
    let pipeline = SimPipeline::Ddim(DdimSim {
        unet,
        schedule: NoiseSchedule::linear_scaled(12),
        channels: 3,
        image_size: 8,
    });
    let image = bytes::Bytes::from(container_bytes(&pipeline, &report).expect("container"));
    let dir = std::env::temp_dir().join("fpdq-bench-cold-start");
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let out = dir.join("tiny.fpdq");

    let mut g = c.benchmark_group("cold_start");
    // The no-container baseline: re-derive the quantized packed model.
    g.bench_function("quantize_and_pack", |b| {
        b.iter(|| {
            let unet = UNet::new(UNetConfig::tiny(3), &mut StdRng::seed_from_u64(21));
            let report = quantize_unet(&unet, &calib, &cfg, &mut StdRng::seed_from_u64(1));
            black_box(fpdq_kernels::pack_unet(&unet, &report))
        })
    });
    // The crash-safe container write (temp file + fsync + atomic rename).
    g.bench_function("pack_write", |b| b.iter(|| save(&out, &pipeline, &report).expect("save")));
    // The container fast path: validate + rebuild + install, zero-copy
    // payloads shared with the source buffer.
    g.bench_function("container_load", |b| {
        b.iter(|| black_box(load_bytes(image.clone()).expect("load")))
    });
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// One classifier-free-guidance step on a packed conditional U-Net:
/// the folded single-call batch (`conditioning::eps_folded`, 2n rows,
/// one weight-decode pass) against the seed double forward (two
/// sequential n-row calls + mix — the pre-fold `SdSim` sampling loop).
/// The packed engine decodes each weight tile once per *call*, so the
/// fold halves the per-step decode cost; CI's bench smoke asserts the
/// folded entry wins per-image at batch 4.
fn bench_sd_cfg_step(c: &mut Criterion) {
    use fpdq_core::calib::{CalibPoint, CalibrationSet};
    use fpdq_core::{quantize_unet, PtqConfig, RoundingConfig};
    use fpdq_diffusion::{eps_folded, Conditioning};
    use fpdq_nn::{UNet, UNetConfig};

    let mut rng = StdRng::seed_from_u64(33);
    let unet = UNet::new(UNetConfig { context_dim: Some(8), ..UNetConfig::tiny(4) }, &mut rng);
    // A 4×4 latent keeps each call decode-bound (few output positions
    // per weight tile), which is exactly the regime the fold targets:
    // the packed engine re-decodes every weight once per *call*.
    let points: Vec<CalibPoint> = (0..3)
        .map(|i| CalibPoint {
            x: Tensor::randn(&[1, 4, 4, 4], &mut rng),
            t: (i * 4) as f32,
            ctx: Some(Tensor::randn(&[1, 8, 8], &mut rng)),
        })
        .collect();
    let calib = CalibrationSet { init: points.clone(), rl: points };
    let mut cfg = PtqConfig::fp(8, 8);
    cfg.bias_candidates = 9;
    cfg.rounding = RoundingConfig { iters: 4, batch: 2, ..RoundingConfig::default() };
    let report = quantize_unet(&unet, &calib, &cfg, &mut StdRng::seed_from_u64(1));
    fpdq_kernels::pack_unet(&unet, &report);

    // CI asserts a ratio between paired entries below; pin min-of-5
    // samples in smoke mode like the conv amortization group.
    let saved = c.clone();
    if std::env::var("FPDQ_BENCH_FAST").is_ok_and(|v| v == "1") {
        *c = Criterion::default()
            .sample_size(5)
            .warm_up_time(std::time::Duration::from_millis(50))
            .measurement_time(std::time::Duration::from_millis(250));
    }
    let mut g = c.benchmark_group("sd_cfg_step");
    let guidance = 3.0f32;
    for n in [1usize, 4] {
        let x = Tensor::randn(&[n, 4, 4, 4], &mut rng);
        let t = Tensor::from_vec(vec![5.0; n], &[n]);
        let cond = Tensor::randn(&[n, 8, 8], &mut rng);
        let null = Tensor::randn(&[1, 8, 8], &mut rng);
        let conds: Vec<Conditioning> = (0..n)
            .map(|i| Conditioning::guided(cond.narrow(0, i, 1), null.clone(), guidance))
            .collect();
        let refs: Vec<&Conditioning> = conds.iter().collect();
        g.bench_function(format!("folded_batch{n}"), |b| {
            b.iter(|| black_box(eps_folded(|x, t, ctx| unet.forward(x, t, ctx), &x, &t, &refs)))
        });
        // Before/after: the seed CFG loop — two sequential engine calls
        // per step (cond batch, then null batch), mixed outside.
        let null_n = Tensor::concat(&vec![&null; n], 0);
        g.bench_function(format!("double_forward_batch{n}_seed"), |b| {
            b.iter(|| {
                let e_cond = unet.forward(&x, &t, Some(&cond));
                let e_null = unet.forward(&x, &t, Some(&null_n));
                black_box(e_null.add(&e_cond.sub(&e_null).mul_scalar(guidance)))
            })
        });
    }
    g.finish();
    *c = saved;
}

fn configured() -> Criterion {
    // FPDQ_BENCH_FAST=1 is the CI smoke mode: one sample per benchmark,
    // minimal budgets — enough to prove every kernel still runs and the
    // JSON writer still works, without meaningful timing.
    if std::env::var("FPDQ_BENCH_FAST").is_ok_and(|v| v == "1") {
        Criterion::default()
            .sample_size(1)
            .warm_up_time(std::time::Duration::from_millis(5))
            .measurement_time(std::time::Duration::from_millis(10))
    } else {
        Criterion::default()
            .sample_size(10)
            .warm_up_time(std::time::Duration::from_millis(300))
            .measurement_time(std::time::Duration::from_millis(800))
    }
}

criterion_group! {
    name = kernels;
    config = configured();
    targets = bench_quantize, bench_pack, bench_gemm, bench_gemm_batched, bench_conv,
        bench_conv_batched, bench_conv_serve_batch1, bench_act_quant, bench_attention,
        bench_unquantized, bench_cold_start, bench_sd_cfg_step
}

fn main() {
    kernels();
    // Machine-readable results (group/name -> ns/op) so the perf
    // trajectory is tracked across PRs. FPDQ_BENCH_JSON overrides the
    // file name; relative paths resolve against the workspace root
    // (cargo runs benches from the package directory). The `_meta`
    // object records which ISA the dispatched kernels actually ran
    // (scalar/avx2/neon), whether FPDQ_FORCE_SCALAR pinned it, the
    // machine's core count and the default worker count, so numbers from
    // different commits and machines are comparable.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join(
        std::env::var("FPDQ_BENCH_JSON").unwrap_or_else(|_| "BENCH_kernels.json".to_string()),
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()).to_string();
    let workers = fpdq_tensor::parallel::num_threads().to_string();
    let meta = [
        ("isa", simd::active().name()),
        ("detected_isa", simd::detected().name()),
        ("force_scalar", if simd::force_scalar() { "1" } else { "0" }),
        ("cores", cores.as_str()),
        ("workers", workers.as_str()),
    ];
    match criterion::write_json_report_with_meta(&path, &meta) {
        Ok(()) => eprintln!("wrote {} (isa: {})", path.display(), simd::active().name()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}
