//! The `fpdq` command-line tool: train, quantize, generate, evaluate and
//! characterize from a shell.
//!
//! ```text
//! fpdq pretrain                               train + cache all zoo models
//! fpdq quantize   --model ldm --config fp8    quantize and report per layer
//! fpdq generate   --model sd --prompt "..."   sample images to PPM
//! fpdq evaluate   --model ldm --config int8   FID/sFID/P/R vs the dataset
//! fpdq sparsity   --model sd                  weight-sparsity census
//! fpdq characterize                           roofline latency + memory
//! fpdq serve      --model tiny --port 8321    fault-tolerant HTTP serving
//! ```

use fpdq::container::{PipelineKind, SimPipeline};
use fpdq::data::ppm::{image_grid, save_ppm};
use fpdq::diffusion::pipelines::{per_image_seeds, sample};
use fpdq::prelude::*;
use fpdq::quant::sparsity::weight_sparsity;
use fpdq::tensor::FpdqError;
use fpdq::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;

/// A subcommand: its name, the flags it reads, and its body.
type Command = (&'static str, &'static [&'static str], fn(&HashMap<String, String>) -> ExitCode);

/// Every subcommand. A flag a command does not read is a usage error,
/// so a typo or a removed flag cannot silently fall back to a default.
const COMMANDS: &[Command] = &[
    ("pretrain", &[], pretrain),
    ("quantize", &["model", "config", "packed"], quantize),
    (
        "generate",
        &["model", "config", "prompt", "count", "batch", "out", "packed", "seeds", "raw-out"],
        generate,
    ),
    ("evaluate", &["model", "config", "count", "batch", "packed"], evaluate_cmd),
    ("sparsity", &["model", "config"], sparsity),
    ("characterize", &[], characterize),
    ("pack", &["model", "config", "out", "verify"], pack_cmd),
    ("serve", &["model", "addr", "port", "max-batch", "queue-depth", "deadline-ms"], serve_cmd),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(&(_, known, run)) = COMMANDS.iter().find(|(name, ..)| name == cmd) else {
        eprintln!("unknown command '{cmd}'\n{}", usage());
        return ExitCode::FAILURE;
    };
    match parse_flags(cmd, &args[1..], known) {
        Ok(opts) => run(&opts),
        Err(e) => {
            eprintln!("{e}\n\n{}", usage());
            ExitCode::from(2)
        }
    }
}

/// The help text. Model names come from the registry, the one name →
/// pipeline map every subcommand uses.
fn usage() -> String {
    let models = fpdq::serve::MODEL_NAMES.join("|");
    format!(
        "\
fpdq — low-bitwidth floating-point quantization for diffusion models

USAGE: fpdq <COMMAND> [--flag value]...

COMMANDS:
  pretrain                       train and cache every zoo model
  quantize      --model <NAME> --config <fp8|fp4|fp4-norl|int8|int4>
                [--packed]
  generate      --model <NAME|FILE.fpdq> --config <...> [--prompt \"...\"] [--count N] [--batch N]
                [--out DIR] [--packed] [--seeds N,N,...] [--raw-out FILE]
  evaluate      --model <NAME> --config <...> [--count N] [--batch N] [--packed]
  sparsity      --model <NAME> [--config <...>]
  characterize                   roofline latency + memory of an SD-scale U-Net
  pack          --model <NAME> --config <...> --out FILE.fpdq [--verify]
                quantize once and write a checksummed .fpdq container
  serve         [--model <NAME|FILE.fpdq>] [--addr HOST] [--port N]
                [--max-batch N] [--queue-depth N] [--deadline-ms N]
  help                           this message

MODELS:
  NAME          a registry name: {models}
                (tiny / tiny-sd are fixed-seed and untrained, quantized
                with a synthetic calibration set; the zoo pipelines train
                and cache on first use)
  FILE.fpdq     a container from `fpdq pack`: formats and packed payloads
                are baked in, so --config/--packed are ignored

FLAGS:
  --packed      run the real bit-packed engine (fused W+A kernels) instead
                of fake-quantized dense execution
  --batch N     sample N images per U-Net call (1..=16, default 16):
                per-image seeding makes the images identical at every
                batch size; larger batches amortise the packed engine's
                per-step weight decode across the batch
  --seeds L     explicit comma-separated per-image seeds for generate
                (overrides --count; the same seed list reproduces the
                same bytes, including through `fpdq serve`)
  --raw-out F   also dump the generated images as raw little-endian f32
                bytes to F (exact; for byte-comparison against served
                pixels_hex payloads)

PACK FLAGS:
  --out FILE    target path; the write is atomic (temp + fsync + rename)
  --verify      re-open the written file, fully validate it (checksums,
                metadata) and bit-compare a one-step generation against
                the in-process model before exiting 0

SERVE FLAGS:
  --model M        a model NAME (default tiny) or FILE.fpdq (sd
                   containers serve prompts); a missing/corrupt container
                   keeps the server alive in a degraded state (failed
                   /readyz, typed 500s). On conditional models, requests
                   may carry \"prompt\" and \"guidance\" fields
  --addr HOST      bind host (default 127.0.0.1)
  --port N         bind port (default 8321; 0 picks an ephemeral port)
  --max-batch N    batch-size cap per engine step (default 4)
  --queue-depth N  admission queue depth; full queue answers 429 (default 8)
  --deadline-ms N  default per-request deadline (none unless given)

A flag the command does not take, or a stray argument, is a usage error
(exit code 2).

ENVIRONMENT:
  FPDQ_ZOO_DIR   model cache directory (default target/fpdq-zoo)
  FPDQ_FAST=1    reduced training budgets
  FPDQ_FAULT     arm serve-time fault injection, e.g. panic:boom@2,slow:50"
    )
}

/// Parses `--flag value` pairs and boolean `--flag`s for `cmd`. A flag
/// outside `known`, or an argument that is neither a flag nor a flag's
/// value, is an error.
fn parse_flags(
    cmd: &str,
    args: &[String],
    known: &[&str],
) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            return Err(format!("unexpected argument '{}' for '{cmd}'", args[i]));
        };
        if !known.contains(&key) {
            return Err(format!("unknown flag --{key} for '{cmd}'"));
        }
        // A flag followed by another flag (or nothing) is boolean.
        match args.get(i + 1).filter(|v| !v.starts_with("--")) {
            Some(value) => {
                out.insert(key.to_string(), value.clone());
                i += 2;
            }
            None => {
                out.insert(key.to_string(), "1".to_string());
                i += 1;
            }
        }
    }
    Ok(out)
}

fn flag_set(opts: &HashMap<String, String>, key: &str) -> bool {
    opts.get(key).is_some_and(|v| v != "0" && v != "false")
}

/// A flag that is present but unparseable is an error — not a silent
/// fall-through to the default (`--batch four` used to quietly mean 16).
fn parsed_flag<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
    expected: &str,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value '{v}' for --{key}: expected {expected}")),
    }
}

/// [`parsed_flag`] for a count documented as positive: `0` is rejected
/// here rather than panicking deep inside the command.
fn positive_flag(
    opts: &HashMap<String, String>,
    key: &str,
    default: usize,
) -> Result<usize, String> {
    match parsed_flag(opts, key, default, "a positive integer")? {
        0 => Err(format!("invalid value '0' for --{key}: expected a positive integer")),
        n => Ok(n),
    }
}

/// [`parsed_flag`] for flags with no default (absent stays `None`).
fn parsed_opt_flag<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    expected: &str,
) -> Result<Option<T>, String> {
    match opts.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid value '{v}' for --{key}: expected {expected}")),
    }
}

/// Unwraps a flag-parse result, or prints the error + usage and exits
/// non-zero. Shared by every command that takes numeric flags.
macro_rules! flag_or_fail {
    ($result:expr) => {
        match $result {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{e}\n\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    };
}

fn config_from(name: &str) -> Option<Option<PtqConfig>> {
    match name {
        "fp32" | "none" => Some(None),
        "fp8" => Some(Some(PtqConfig::fp(8, 8))),
        "fp4" => Some(Some(PtqConfig::fp(4, 8))),
        "fp4-norl" => Some(Some(PtqConfig::fp(4, 8).without_rounding_learning())),
        "int8" => Some(Some(PtqConfig::int(8, 8))),
        "int4" => Some(Some(PtqConfig::int(4, 8))),
        _ => None,
    }
}

/// Builds a named pipeline through the registry, or prints its error
/// (which lists every registry name).
fn named_pipeline(model: &str) -> Option<SimPipeline> {
    fpdq::serve::registry::pipeline(model).map_err(|e| eprintln!("{e}")).ok()
}

/// The calibration set for quantizing the `model` pipeline: trajectories
/// of its full-precision sampler. The tiny test models get a synthetic
/// set instead: they exist to exercise the pack/serve round trip (CI
/// smoke, local experiments), and recording full trajectories would
/// dominate their runtime. The conditional tiny model calibrates with
/// random context rows of the text encoder's output shape (its
/// cross-attention layers need a context to trace).
fn calibrate(model: &str, sim: &SimPipeline) -> CalibrationSet {
    let mut rng = StdRng::seed_from_u64(0xCA11B);
    let [c, h, w] = sim.model().chw();
    if matches!(model, "tiny" | "tiny-sd") {
        let ctx_dims: Option<Vec<usize>> = match sim {
            SimPipeline::Sd(p) => Some(p.null_context(1).dims().to_vec()),
            _ => None,
        };
        let points: Vec<fpdq::quant::CalibPoint> = (0..3)
            .map(|i| fpdq::quant::CalibPoint {
                x: Tensor::randn(&[1, c, h, w], &mut rng),
                t: (i * 4) as f32,
                ctx: ctx_dims.as_ref().map(|d| Tensor::randn(d, &mut rng)),
            })
            .collect();
        return CalibrationSet { init: points.clone(), rl: points };
    }
    let (ctx, per_ctx, samples) = match sim {
        SimPipeline::Sd(p) => {
            let mut ctx: Vec<Option<Tensor>> = CaptionedScenes::all_captions()
                .iter()
                .step_by(7)
                .map(|c| Some(p.encode_prompts(std::slice::from_ref(c))))
                .collect();
            ctx.push(Some(p.null_context(1)));
            (ctx, 8, 16)
        }
        _ => (vec![None], 6, 64),
    };
    fpdq::quant::record_trajectories(
        sim.unet(),
        sim.model().schedule(),
        &[c, h, w],
        &ctx,
        20,
        per_ctx,
        samples,
        40,
        &mut rng,
    )
}

/// DDIM steps for `generate`/`evaluate`: 25 (20 for text-to-image),
/// clamped to the schedule — container-loaded models may carry shorter
/// schedules than the zoo defaults.
fn default_steps(sim: &SimPipeline) -> usize {
    let steps = if sim.kind() == PipelineKind::Sd { 20 } else { 25 };
    steps.min(sim.model().schedule().steps())
}

/// One image per seed through the shared generation loop — the same
/// seed list reproduces the same bytes, offline or served. An explicit
/// `prompt` goes to every image on every pipeline, so an unconditional
/// one rejects it at admission exactly as the server does; without one,
/// conditional pipelines cycle the caption grammar.
fn sample_images(
    sim: &SimPipeline,
    seeds: &[u64],
    prompt: Option<&str>,
    steps: usize,
    batch: usize,
) -> Result<Tensor, FpdqError> {
    let prompts: Option<Vec<String>> = match prompt {
        Some(text) => Some(vec![text.to_string(); seeds.len()]),
        None => (sim.kind() == PipelineKind::Sd).then(|| {
            let all = CaptionedScenes::all_captions();
            (0..seeds.len()).map(|i| all[i % all.len()].clone()).collect()
        }),
    };
    sample(sim.model(), seeds, prompts.as_deref(), steps, batch)
}

/// The dataset a pipeline family is evaluated against.
fn reference(sim: &SimPipeline, count: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(7);
    match sim.kind() {
        PipelineKind::Ddim => TinyCifar::new().batch(count, &mut rng),
        PipelineKind::Ldm => TinyBedrooms::new().batch(count, &mut rng),
        PipelineKind::Sd => CaptionedScenes::new().batch(count, &mut rng),
    }
}

fn require<'a>(opts: &'a HashMap<String, String>, key: &str) -> Option<&'a str> {
    match opts.get(key) {
        Some(v) if !v.is_empty() => Some(v),
        _ => {
            eprintln!("missing required flag --{key}");
            None
        }
    }
}

fn pretrain(_: &HashMap<String, String>) -> ExitCode {
    let zoo = Zoo::open_default();
    println!("zoo: {:?} (fast = {})", zoo.dir(), zoo.is_fast());
    zoo.ddim_sim();
    zoo.ldm_sim();
    zoo.sd_sim();
    zoo.sdxl_sim();
    println!("all models cached");
    ExitCode::SUCCESS
}

fn quantize(opts: &HashMap<String, String>) -> ExitCode {
    let (Some(model), Some(config)) = (require(opts, "model"), require(opts, "config")) else {
        return ExitCode::FAILURE;
    };
    let Some(sim) = named_pipeline(model) else { return ExitCode::FAILURE };
    let Some(Some(cfg)) = config_from(config) else {
        eprintln!("unknown or trivial config '{config}'");
        return ExitCode::FAILURE;
    };
    let calib = calibrate(model, &sim);
    let mut rng = StdRng::seed_from_u64(1);
    let report = quantize_unet(sim.unet(), &calib, &cfg, &mut rng);
    println!(
        "{:<26} {:<15} {:<15} {:>10} {:>9}",
        "layer", "weight fmt", "act fmt", "wMSE", "sparsity"
    );
    for l in &report.layers {
        println!(
            "{:<26} {:<15} {:<15} {:>10.2e} {:>8.2}%",
            l.name,
            l.weight_quantizer.as_deref().unwrap_or("-"),
            l.act_quantizer.as_deref().unwrap_or("-"),
            l.weight_mse,
            100.0 * l.sparsity_after
        );
    }
    let hist = |m: std::collections::BTreeMap<String, usize>| {
        m.into_iter().map(|(k, v)| format!("{k}:{v}")).collect::<Vec<_>>().join(" ")
    };
    println!("\nweight encodings: {}", hist(report.weight_encoding_histogram()));
    println!("act encodings   : {}", hist(report.act_encoding_histogram()));
    println!(
        "\n{} layers | mean weight MSE {:.3e} | sparsity {:.3}% -> {:.3}% | RL improved {}",
        report.layers.len(),
        report.mean_weight_mse(),
        100.0 * report.sparsity_before(),
        100.0 * report.sparsity_after(),
        report.rl_improved_layers(),
    );
    if flag_set(opts, "packed") {
        pack_and_report(&sim, &report);
    }
    ExitCode::SUCCESS
}

/// Flips the quantized U-Net into the bit-packed engine, reports the real
/// storage footprint, and times a packed vs fake-quantized-dense forward —
/// the paper's latency/memory experiment running on the real engine
/// instead of simulated quantization. A conditional U-Net is timed on the
/// null context (the encoded empty prompt).
fn pack_and_report(sim: &SimPipeline, report: &fpdq::quant::QuantReport) {
    use std::time::Instant;
    let [c, h, w] = sim.model().chw();
    let x = Tensor::randn(&[1, c, h, w], &mut StdRng::seed_from_u64(11));
    let t = Tensor::from_vec(vec![5.0], &[1]);
    let ctx = match sim {
        SimPipeline::Sd(p) => Some(p.null_context(1)),
        _ => None,
    };
    // Each side is the median of a time-boxed run: at least 200 forwards
    // and at least half a second of them, so that a shared host's slow
    // phases widen the printed IQR instead of moving the figure.
    let (min_runs, min_secs) = (200, 0.5);
    let time_forward = |label: &str| {
        let mut times = Vec::with_capacity(min_runs);
        let start = Instant::now();
        while times.len() < min_runs || start.elapsed().as_secs_f64() < min_secs {
            let t0 = Instant::now();
            std::hint::black_box(sim.unet().forward(&x, &t, ctx.as_ref()));
            times.push(t0.elapsed().as_secs_f64());
        }
        times.sort_by(f64::total_cmp);
        let at = |q: f64| times[((times.len() - 1) as f64 * q).round() as usize];
        let median = at(0.5);
        println!(
            "  {label:<28} {:.3} ms / forward (median of {}, IQR {:.3} ms)",
            median * 1e3,
            times.len(),
            (at(0.75) - at(0.25)) * 1e3
        );
        median
    };
    println!("\npacked execution:");
    let dense = time_forward("fake-quantized dense");
    let pack = fpdq::kernels::pack_unet(sim.unet(), report);
    for l in &pack.layers {
        println!(
            "  {:<26} {:<15} act {:<15} {:>8} B (dense {:>8} B)",
            l.name,
            l.format,
            l.fused_act.as_deref().unwrap_or("-"),
            l.payload_bytes,
            l.dense_bytes
        );
    }
    println!(
        "  {} layers packed ({} fused act) | payload {:.1} KiB vs dense {:.1} KiB | {:.2}x compression | {} kernels",
        pack.layers.len(),
        pack.fused_act_layers(),
        pack.payload_bytes() as f32 / 1024.0,
        pack.dense_bytes() as f32 / 1024.0,
        pack.compression(),
        pack.isa(),
    );
    let packed = time_forward("packed (fused W+A)");
    println!("  forward speedup: {:.2}x", dense / packed);
}

fn generate(opts: &HashMap<String, String>) -> ExitCode {
    let count = flag_or_fail!(positive_flag(opts, "count", 8));
    let batch: usize = flag_or_fail!(parsed_flag(opts, "batch", 16, "a batch size in 1..=16"));
    let Some(model) = require(opts, "model") else { return ExitCode::FAILURE };
    let (sim, label, config) = if fpdq::serve::registry::is_container_path(model) {
        // Sampling from a container: the quantized formats and packed
        // payloads are baked in — no calibration, no re-quantization. A
        // corrupt or truncated file is a typed error and a non-zero
        // exit, before any output file is touched.
        let loaded = match fpdq::container::load(std::path::Path::new(model)) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("cannot load container '{model}': {e}");
                return ExitCode::FAILURE;
            }
        };
        if opts.contains_key("config") || flag_set(opts, "packed") {
            println!("note: --config/--packed are baked into the container and ignored");
        }
        println!(
            "loaded container: {} layers packed ({} fused act), no re-quantization",
            loaded.pack.layers.len(),
            loaded.pack.fused_act_layers()
        );
        let stem = std::path::Path::new(model)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("container")
            .to_string();
        (loaded.pipeline, stem, "packed".to_string())
    } else {
        let Some(sim) = named_pipeline(model) else { return ExitCode::FAILURE };
        let config = opts.get("config").map(String::as_str).unwrap_or("fp32");
        let Some(cfg) = config_from(config) else {
            eprintln!("unknown config '{config}'");
            return ExitCode::FAILURE;
        };
        if let Some(cfg) = &cfg {
            let calib = calibrate(model, &sim);
            let mut rng = StdRng::seed_from_u64(1);
            let report = quantize_unet(sim.unet(), &calib, cfg, &mut rng);
            if flag_set(opts, "packed") {
                let pack = fpdq::kernels::pack_unet(sim.unet(), &report);
                println!(
                    "sampling on the packed engine: {} layers, {:.2}x weight compression",
                    pack.layers.len(),
                    pack.compression()
                );
            }
        } else if flag_set(opts, "packed") {
            eprintln!("--packed requires a quantized --config (fp8/fp4/int8/int4)");
            return ExitCode::FAILURE;
        }
        (sim, model.to_string(), config.to_string())
    };
    // Explicit --seeds pins per-image seeds (and the image count); the
    // default path derives seeds from the fixed master seed 42.
    let seeds: Vec<u64> = match opts.get("seeds") {
        None => per_image_seeds(count, &mut StdRng::seed_from_u64(42)),
        Some(spec) => match spec.split(',').map(|s| s.trim().parse()).collect() {
            Ok(seeds) => seeds,
            Err(_) => {
                eprintln!("invalid value '{spec}' for --seeds: expected N,N,...");
                return ExitCode::FAILURE;
            }
        },
    };
    let prompt = opts.get("prompt").map(String::as_str);
    let imgs = match sample_images(&sim, &seeds, prompt, default_steps(&sim), batch) {
        Ok(imgs) => imgs,
        Err(e) => {
            eprintln!("generate failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out_dir = std::path::PathBuf::from(
        opts.get("out").cloned().unwrap_or_else(|| "target/fpdq-cli".into()),
    );
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    if let Some(raw) = opts.get("raw-out") {
        // Raw little-endian f32 dump — the exact bytes `pixels_hex`
        // encodes on the serving wire, for byte-comparison.
        let bytes: Vec<u8> = imgs.data().iter().flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(raw, &bytes).expect("write raw dump");
        println!("wrote {raw} ({} bytes raw f32)", bytes.len());
    }
    let count = imgs.dim(0);
    let tiles: Vec<Tensor> =
        (0..count).map(|i| imgs.narrow(0, i, 1).reshape(&imgs.dims()[1..])).collect();
    let sheet = image_grid(&tiles, 4);
    let path = out_dir.join(format!("{label}_{config}.ppm"));
    save_ppm(&sheet, &path, 8).expect("write ppm");
    println!("wrote {} ({count} samples, config {config})", path.display());
    ExitCode::SUCCESS
}

fn evaluate_cmd(opts: &HashMap<String, String>) -> ExitCode {
    let count = flag_or_fail!(positive_flag(opts, "count", 64));
    let batch: usize = flag_or_fail!(parsed_flag(opts, "batch", 16, "a batch size in 1..=16"));
    let (Some(model), Some(config)) = (require(opts, "model"), require(opts, "config")) else {
        return ExitCode::FAILURE;
    };
    let Some(sim) = named_pipeline(model) else { return ExitCode::FAILURE };
    let Some(cfg) = config_from(config) else {
        eprintln!("unknown config '{config}'");
        return ExitCode::FAILURE;
    };
    if let Some(cfg) = &cfg {
        let calib = calibrate(model, &sim);
        let mut rng = StdRng::seed_from_u64(1);
        let report = quantize_unet(sim.unet(), &calib, cfg, &mut rng);
        if flag_set(opts, "packed") {
            fpdq::kernels::pack_unet(sim.unet(), &report);
        }
    }
    let seeds = per_image_seeds(count, &mut StdRng::seed_from_u64(42));
    let imgs = match sample_images(&sim, &seeds, None, default_steps(&sim), batch) {
        Ok(imgs) => imgs,
        Err(e) => {
            eprintln!("evaluate failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let net = FeatureNet::for_size(imgs.dim(2));
    let reference = reference(&sim, count);
    let m = fpdq::metrics::evaluate(&reference, &imgs, &net);
    println!("{model} @ {config} over {count} samples: {m}");
    ExitCode::SUCCESS
}

fn sparsity(opts: &HashMap<String, String>) -> ExitCode {
    let Some(model) = require(opts, "model") else { return ExitCode::FAILURE };
    let Some(sim) = named_pipeline(model) else { return ExitCode::FAILURE };
    if let Some(config) = opts.get("config") {
        if let Some(Some(cfg)) = config_from(config) {
            let calib = calibrate(model, &sim);
            let mut rng = StdRng::seed_from_u64(1);
            let mut cfg = cfg;
            cfg.quantize_acts = false;
            quantize_unet(sim.unet(), &calib, &cfg, &mut rng);
        }
    }
    let report = weight_sparsity(sim.unet());
    for l in &report.per_layer {
        println!("{:<26} {:>8.3}%  ({} weights)", l.name, 100.0 * l.sparsity, l.numel);
    }
    println!("\noverall: {:.4}% of weights are zero", 100.0 * report.overall());
    ExitCode::SUCCESS
}

/// `fpdq pack`: quantize a pipeline once and write it as a `.fpdq`
/// container. With `--verify`, the just-written file is re-opened,
/// fully validated (header, checksums, metadata domain checks) and a
/// one-step generation from the loaded model is bit-compared against
/// the in-process packed model before the command exits 0.
fn pack_cmd(opts: &HashMap<String, String>) -> ExitCode {
    let (Some(model), Some(config), Some(out)) =
        (require(opts, "model"), require(opts, "config"), require(opts, "out"))
    else {
        return ExitCode::FAILURE;
    };
    let Some(sim) = named_pipeline(model) else { return ExitCode::FAILURE };
    let Some(Some(cfg)) = config_from(config) else {
        eprintln!("unknown or trivial config '{config}': a container stores quantized formats");
        return ExitCode::FAILURE;
    };
    let calib = calibrate(model, &sim);
    let mut rng = StdRng::seed_from_u64(1);
    let report = quantize_unet(sim.unet(), &calib, &cfg, &mut rng);
    let out = std::path::PathBuf::from(out);
    if let Err(e) = fpdq::container::save(&out, &sim, &report) {
        eprintln!("cannot write container '{}': {e}", out.display());
        return ExitCode::FAILURE;
    }
    let size = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!("wrote {} ({size} bytes, {model} @ {config})", out.display());
    if !flag_set(opts, "verify") {
        return ExitCode::SUCCESS;
    }
    // Full re-validation from disk: every checksum and domain check runs.
    let loaded = match fpdq::container::load(&out) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("verify FAILED: written container does not validate: {e}");
            return ExitCode::FAILURE;
        }
    };
    if loaded.pipeline.kind() != sim.kind() {
        eprintln!("verify FAILED: loaded pipeline kind differs from the packed one");
        return ExitCode::FAILURE;
    }
    // One-step generation bit-compare against the in-process packed model.
    fpdq::kernels::pack_unet(sim.unet(), &report);
    let one_step = |p: &SimPipeline| {
        sample_images(p, &[1], None, 1, 1)
            .map(|t| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
    };
    match (one_step(&sim), one_step(&loaded.pipeline)) {
        (Ok(want), Ok(got)) if want == got => {}
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("verify FAILED: one-step generation failed: {e}");
            return ExitCode::FAILURE;
        }
        _ => {
            eprintln!("verify FAILED: loaded model is not bit-identical to the in-process model");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "verify OK: checksums valid, {} packed layers, one-step generation bit-identical",
        loaded.pack.layers.len()
    );
    ExitCode::SUCCESS
}

fn serve_cmd(opts: &HashMap<String, String>) -> ExitCode {
    use fpdq::serve::{serve, FaultPlan, ServeConfig};
    let model = opts.get("model").map(String::as_str).unwrap_or("tiny");
    let build = match fpdq::serve::resolve(model) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let host = opts.get("addr").map(String::as_str).unwrap_or("127.0.0.1");
    let port: u16 = flag_or_fail!(parsed_flag(opts, "port", 8321, "a port number"));
    let addr = match format!("{host}:{port}").parse() {
        Ok(addr) => addr,
        Err(_) => {
            eprintln!("invalid value '{host}' for --addr: expected a host address\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let fault = match std::env::var("FPDQ_FAULT") {
        Ok(spec) => match FaultPlan::parse(&spec) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("invalid FPDQ_FAULT: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(_) => FaultPlan::default(),
    };
    let cfg = ServeConfig {
        addr,
        max_batch: flag_or_fail!(positive_flag(opts, "max-batch", 4)),
        queue_depth: flag_or_fail!(positive_flag(opts, "queue-depth", 8)),
        default_deadline_ms: flag_or_fail!(parsed_opt_flag(
            opts,
            "deadline-ms",
            "a duration in milliseconds"
        )),
        fault,
    };
    if fault_armed(&cfg.fault) {
        println!("fault injection armed: {:?}", cfg.fault);
    }
    let handle = match serve(cfg, build) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("fpdq-serve ({model}) listening on http://{}", handle.addr());
    println!("  POST /v1/generate  {{\"seed\": N, \"steps\": N[, \"prompt\": \"...\", \"guidance\": G]}}");
    println!("  GET  /healthz | /readyz | /metrics      POST /admin/shutdown");
    let shared = handle.shared().clone();
    handle.wait();
    // A server that only ever ran degraded (model never loaded) exits
    // non-zero so scripts notice, even though it stayed up to be probed.
    if let Some(reason) = shared.boot_error() {
        eprintln!("stopped; model never became ready: {reason}");
        return ExitCode::FAILURE;
    }
    println!("stopped");
    ExitCode::SUCCESS
}

fn fault_armed(plan: &fpdq::serve::FaultPlan) -> bool {
    *plan != fpdq::serve::FaultPlan::default()
}

fn characterize(_: &HashMap<String, String>) -> ExitCode {
    use fpdq::perf::census::{sd_scale_config, sd_scale_input, SD_CONTEXT_LEN};
    use fpdq::perf::{census, latency, peak_memory, Device, LayerClass, NumberFormat};
    let cfg = sd_scale_config();
    let c = census(&cfg, sd_scale_input(), 1, SD_CONTEXT_LEN);
    println!(
        "SD-scale U-Net: {:.0}M params, {:.0} GFLOP/forward",
        c.total_params() as f64 / 1e6,
        c.total_flops() / 1e9
    );
    for device in [Device::xeon_like(), Device::v100_like(), Device::h100_like()] {
        let r = latency(&c, &device, NumberFormat::Fp32, NumberFormat::Fp32);
        print!("{:<22} {:>8.1} ms |", device.name, r.total * 1e3);
        for class in LayerClass::ALL {
            print!(" {} {:>4.1}%", class.name(), 100.0 * r.share_of(class));
        }
        println!();
    }
    for batch in [1usize, 8, 16] {
        let m = peak_memory(&cfg, sd_scale_input(), batch, SD_CONTEXT_LEN, 4.0, 4.0);
        println!(
            "peak memory @ batch {batch:>2}: {:>6.2} GiB (attention {:>4.1}%)",
            m.total_gib(),
            100.0 * m.attention / m.total()
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_prompt_on_an_unconditional_model_is_rejected_like_the_server() {
        let sim = named_pipeline("tiny").expect("tiny is a registry name");
        let err = sample_images(&sim, &[1], Some("a red ball"), 1, 1).unwrap_err();
        assert!(err.to_string().contains("this model is unconditional"), "{err}");
        assert!(sample_images(&sim, &[1], None, 1, 1).is_ok());
    }

    fn flags_of(cmd: &str, line: &str) -> Result<HashMap<String, String>, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let (_, known, _) = COMMANDS.iter().find(|(name, ..)| *name == cmd).expect("a command");
        parse_flags(cmd, &args, known)
    }

    #[test]
    fn commands_reject_flags_they_do_not_read_and_stray_arguments() {
        let err = flags_of("generate", "--model tiny --config fp8 --seeds 1 --bogus-flag 3");
        assert_eq!(err.unwrap_err(), "unknown flag --bogus-flag for 'generate'");
        let err = flags_of("quantize", "--model tiny --config fp8 --packed --sparse 2:4");
        assert_eq!(err.unwrap_err(), "unknown flag --sparse for 'quantize'");
        let err = flags_of("pack", "--model tiny extra --config fp8");
        assert_eq!(err.unwrap_err(), "unexpected argument 'extra' for 'pack'");
        assert!(flags_of("characterize", "--model tiny").is_err());
        // The invocations of CI, the serve smoke script and fpdqbench.
        let serve = flags_of("serve", "--model tiny.fpdq --port 0 --max-batch 4").unwrap();
        assert_eq!(serve["port"], "0");
        let pack = flags_of("pack", "--model tiny --config fp8 --out t.fpdq --verify").unwrap();
        assert_eq!(pack["verify"], "1");
        assert!(flags_of("quantize", "--model ddim --config fp8 --packed").is_ok());
        assert!(
            flags_of("generate", "--model t.fpdq --seeds 1 --batch 1 --raw-out r --out o").is_ok()
        );
    }

    #[test]
    fn positive_flags_reject_zero() {
        let opts = |v: &str| HashMap::from([("count".to_string(), v.to_string())]);
        let err = positive_flag(&opts("0"), "count", 8).unwrap_err();
        assert_eq!(err, "invalid value '0' for --count: expected a positive integer");
        assert_eq!(positive_flag(&opts("3"), "count", 8), Ok(3));
        assert_eq!(positive_flag(&HashMap::new(), "count", 8), Ok(8));
        assert!(positive_flag(&opts("-1"), "count", 8).is_err());
    }
}
