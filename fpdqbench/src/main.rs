//! `fpdqbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --quiet --manifest-path fpdqbench/Cargo.toml -- \
//!     --workload <serve-uncond-fp8|serve-guided-fp4|offline-batch-fp8> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. It builds the shipping `fpdq` binary,
//! packs the workload's container with `fpdq pack` (untimed, cached per
//! binary), then either measures the end-to-end metrics (`--trace 0`) or
//! the per-layer profile (`--trace 1`). The last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it (`meta {...}`) records the machine, the run and the output
//! digest. Any image that differs from the offline pipeline makes the
//! exit code non-zero. See `fpdqbench/README.md`.

mod http;
mod layers;
mod stats;
mod trace;
mod workload;

use fpdq::container::{load, LoadedModel, SimPipeline};
use fpdq::tensor::{parallel::num_threads, simd};
use http::{json_str, Counters, Server};
use stats::{median, occupancy, percentile, tail_percentile, Outcome, Tally};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{
    digest, reference, split_images, to_hex, Input, Inputs, Workload, OFFLINE_BATCH, STEPS,
};

const USAGE: &str =
    "usage: fpdqbench --workload <serve-uncond-fp8|serve-guided-fp4|offline-batch-fp8> \
--seed <n> --seconds <s> --trace <0|1>";

/// Requests each client sends (or offline calls made) before the
/// measured phase.
const WARMUP_REQUESTS: u64 = 5;
/// Successful samples a measured phase collects at least (p90 needs 100
/// to keep ten beyond it), even past `--seconds`.
const MIN_SAMPLES: usize = 100;
/// A measured phase stops collecting toward [`MIN_SAMPLES`] after this
/// long, so a run on a stalled machine still ends well within its limit.
const MAX_MEASURE: Duration = Duration::from_secs(100);
/// Server spawns timed for the serve workloads' `setup_s`.
const SERVER_STARTS: usize = 15;
/// Container loads timed for the offline `setup_s` and `container.load_ms`.
const CONTAINER_LOADS: usize = 31;
/// Inputs whose output bytes make up the workload digest.
const DIGEST_INPUTS: u64 = 8;
/// `FPDQ_THREADS` of the end-to-end runs, for the server and the
/// in-process pipeline alike. At the default worker count every parallel
/// region spawns threads, so on a shared host the end-to-end figures
/// follow the host's scheduler rather than the program (one competing
/// process halves served images/s). The traced run keeps the default and
/// reports the single-worker companions beside it.
const E2E_WORKERS: &str = "1";
/// Closed-loop clients of the end-to-end serve runs. With two, how many
/// of a request's steps it shares with the other client's request turns
/// on the HTTP round trip, so the rows per step, and with them latency
/// and throughput, vary between runs of the same program.
const E2E_CLIENTS: usize = 1;
/// Longest client-side phase of a traced run: it only needs the client
/// p50 and the counter deltas.
const TRACED_CLIENT_SECONDS: f64 = 10.0;
/// Input streams: clients use `0..clients`; these sit far above.
const WARMUP_STREAM: u64 = 1 << 20;
const DIGEST_STREAM: u64 = 2 << 20;
const PROFILE_STREAM: u64 = 3 << 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run only the in-process profile (the single-worker child).
    profile_container: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut profile_container = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("invalid value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(bad)?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--profile-child" => profile_container = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        profile_container,
    })
}

/// Where the run builds, caches and writes.
struct Setup {
    root: PathBuf,
    bin: PathBuf,
    work: PathBuf,
    container: PathBuf,
    clients: usize,
}

/// One run's result.
struct Report {
    correct: bool,
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra `meta` fields, values already JSON-encoded.
    meta: Vec<(&'static str, String)>,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fpdqbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(container) = &args.profile_container {
        return profile_child(&args, container);
    }
    let setup = match prepare(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fpdqbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        // Before the first `num_threads()`, which caches it; the server
        // inherits it.
        std::env::set_var("FPDQ_THREADS", E2E_WORKERS);
    }
    let result = match (args.trace, args.workload.served()) {
        (false, true) => serve_e2e(&args, &setup),
        (false, false) => offline_e2e(&args, &setup),
        (true, _) => traced(&args, &setup),
    };
    let report = match result.and_then(|r| validate(r, &args)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fpdqbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_report(&args, &setup, &report);
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("fpdqbench: output check FAILED ({} mismatched images)", report.tally.mismatches);
        ExitCode::FAILURE
    }
}

/// Builds `fpdq`, and packs (or reuses) the workload's container.
fn prepare(args: &Args) -> Result<Setup, String> {
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    if !root.join("Cargo.toml").is_file() || !root.join("src/bin/fpdq.rs").is_file() {
        return Err("run from the root of the fpdq repository".to_string());
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "fpdq"])
        .current_dir(&root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building fpdq failed".to_string());
    }
    let bin = target.join("release").join("fpdq");
    let work = target.join("fpdqbench");
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let (model, config) = args.workload.pack_args();
    let container = work.join(format!("{model}@{config}.fpdq"));
    // Packing is set-up, not measurement: reuse the container while the
    // binary that wrote it is unchanged.
    let stamp = std::fs::metadata(&bin)
        .and_then(|m| Ok(format!("{} {:?}", m.len(), m.modified()?)))
        .map_err(|e| format!("cannot stat {}: {e}", bin.display()))?;
    let stamp_path = container.with_extension("fpdq.stamp");
    if !container.is_file() || std::fs::read_to_string(&stamp_path).ok().as_deref() != Some(&stamp)
    {
        let status = Command::new(&bin)
            .args(["pack", "--model", model, "--config", config, "--out"])
            .arg(&container)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run fpdq pack: {e}"))?;
        if !status.success() {
            return Err(format!("fpdq pack --model {model} --config {config} failed"));
        }
        std::fs::write(&stamp_path, &stamp).map_err(|e| format!("cannot write stamp: {e}"))?;
    }
    let clients = if args.trace { nproc() } else { E2E_CLIENTS };
    Ok(Setup { root, bin, work, container, clients })
}

/// Available cores: the client count of the traced serve runs.
fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn load_container(path: &Path) -> Result<LoadedModel, String> {
    load(path).map_err(|e| format!("cannot load {}: {e}", path.display()))
}

/// One request as the client saw it.
struct Record {
    input: Input,
    latency_ms: f64,
    result: Result<http::Response, Outcome>,
}

/// A measured closed-loop phase, bracketed by quiet `/metrics` reads.
struct Phase {
    records: Vec<Record>,
    wall_s: f64,
    before: Counters,
    after: Counters,
}

fn send(addr: std::net::SocketAddr, input: Input) -> Record {
    let body = input.body();
    let t0 = Instant::now();
    let result =
        http::request(addr, "POST", "/v1/generate", &body).map_err(|e| http::error_outcome(&e));
    Record { input, latency_ms: t0.elapsed().as_secs_f64() * 1e3, result }
}

/// Closed loop: each client sends its next request when the previous
/// answer has fully arrived. Clients warm up, the counters are read with
/// no request in flight, then every client runs for `seconds` (longer
/// until [`MIN_SAMPLES`] succeeded) and finishes its last request before
/// the closing read.
fn drive(srv: &Server, inputs: &Inputs, clients: usize, seconds: f64) -> Result<Phase, String> {
    let addr = srv.addr();
    let warmed = Barrier::new(clients + 1);
    let go = Barrier::new(clients + 1);
    let succeeded = AtomicUsize::new(0);
    let window = Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients as u64)
            .map(|c| {
                let (warmed, go, succeeded) = (&warmed, &go, &succeeded);
                s.spawn(move || {
                    for i in 0..WARMUP_REQUESTS {
                        send(addr, inputs.get(WARMUP_STREAM + c, i));
                    }
                    warmed.wait();
                    go.wait();
                    let t0 = Instant::now();
                    let mut records = Vec::new();
                    for i in 0.. {
                        let elapsed = t0.elapsed();
                        if elapsed >= window
                            && (succeeded.load(Ordering::SeqCst) >= MIN_SAMPLES
                                || elapsed >= MAX_MEASURE)
                        {
                            break;
                        }
                        let rec = send(addr, inputs.get(c, i));
                        if matches!(&rec.result, Ok(r) if r.status == 200) {
                            succeeded.fetch_add(1, Ordering::SeqCst);
                        }
                        records.push(rec);
                    }
                    records
                })
            })
            .collect();
        warmed.wait();
        let before = srv.counters();
        go.wait();
        let t0 = Instant::now();
        let records: Vec<Record> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect();
        let wall_s = t0.elapsed().as_secs_f64();
        Ok(Phase { records, wall_s, before: before?, after: srv.counters()? })
    })
}

/// Classifies every record against the offline pipeline of `container`:
/// returns the tally and the latencies of the successful requests.
fn check_served(container: &Path, records: &[Record]) -> Result<(Tally, Vec<f64>), String> {
    let answered: Vec<Input> = records
        .iter()
        .filter(|r| matches!(&r.result, Ok(resp) if resp.status == 200))
        .map(|r| r.input.clone())
        .collect();
    let mut want = reference_parallel(container, &answered, nproc())?.into_iter();
    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    for r in records {
        let outcome = match &r.result {
            Err(o) => *o,
            Ok(resp) if resp.status != 200 => Outcome::Status(resp.status),
            Ok(resp) => {
                let img = want.next().expect("one reference per answered request");
                if json_str(&resp.body, "pixels_hex") == Some(to_hex(&img).as_str()) {
                    Outcome::Ok
                } else {
                    Outcome::Mismatch
                }
            }
        };
        tally.record(outcome);
        if outcome == Outcome::Ok {
            latencies.push(r.latency_ms);
        }
    }
    Ok((tally, latencies))
}

/// [`reference`] split over `threads` threads, each with its own copy of
/// the container; the images come back in input order.
fn reference_parallel(
    container: &Path,
    inputs: &[Input],
    threads: usize,
) -> Result<Vec<Vec<f32>>, String> {
    let chunk = inputs.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || -> Result<_, String> {
                    Ok(reference(&load_container(container)?.pipeline, part))
                })
            })
            .collect();
        let mut images = Vec::with_capacity(inputs.len());
        for h in handles {
            images.extend(h.join().expect("reference thread panicked")?);
        }
        Ok(images)
    })
}

/// Digest of the output bytes for the workload's fixed digest inputs.
fn output_digest(pipeline: &SimPipeline, inputs: &Inputs) -> String {
    let fixed: Vec<Input> = (0..DIGEST_INPUTS).map(|i| inputs.get(DIGEST_STREAM, i)).collect();
    format!("\"{:016x}\"", digest(&reference(pipeline, &fixed)))
}

/// The end-to-end metrics of one measured phase.
fn e2e_report(
    tally: Tally,
    mut latencies: Vec<f64>,
    images: f64,
    wall_s: f64,
    setup_s: &[f64],
    peak_rss_mb: f64,
    digest: String,
) -> Result<Report, String> {
    latencies.sort_by(f64::total_cmp);
    let p50 = percentile(&latencies, 0.5).ok_or("no successful request")?;
    let p90 = match tail_percentile(&latencies, 0.9) {
        Some(p90) => p90,
        None => {
            // Only a machine stalled for MAX_MEASURE gets here: report the
            // thin tail rather than fail the run; `meta.samples` says so.
            eprintln!("fpdqbench: warning: {} samples leave under ten beyond p90", latencies.len());
            percentile(&latencies, 0.9).expect("p50 exists, so p90 does")
        }
    };
    Ok(Report {
        correct: tally.mismatches == 0,
        tally,
        metrics: vec![
            ("images_per_s", images / wall_s, "1/s"),
            ("latency_p90_ms", p90, "ms"),
            ("success_rate", 1.0 - tally.error_rate(), "ratio"),
            ("setup_s", median(setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ],
        meta: vec![
            // Not gated: the host switches between a fast and a slow speed
            // every few seconds, and the median falls between the two modes.
            ("latency_p50_ms", p50.to_string()),
            ("samples", latencies.len().to_string()),
            ("wall_s", wall_s.to_string()),
            ("digest", digest),
        ],
    })
}

/// Loads the container [`CONTAINER_LOADS`] times: the load times in
/// seconds, and the last model.
fn timed_loads(path: &Path) -> Result<(Vec<f64>, LoadedModel), String> {
    let mut secs = Vec::new();
    let mut loaded = None;
    for _ in 0..CONTAINER_LOADS {
        let t0 = Instant::now();
        let model = load_container(path)?;
        secs.push(t0.elapsed().as_secs_f64());
        loaded = Some(model);
    }
    Ok((secs, loaded.expect("at least one load")))
}

fn serve_e2e(args: &Args, setup: &Setup) -> Result<Report, String> {
    let inputs = Inputs::new(args.workload, args.seed);
    let mut setup_s = Vec::new();
    let mut kept = None;
    for k in 0..SERVER_STARTS {
        let (srv, ready) = Server::start(&setup.bin, &setup.container)?;
        setup_s.push(ready.as_secs_f64());
        if k + 1 == SERVER_STARTS {
            kept = Some(srv);
        } else {
            srv.stop();
        }
    }
    let srv = kept.expect("at least one spawn");
    let phase = drive(&srv, &inputs, setup.clients, args.seconds)?;
    let rss = srv.peak_rss_mb().ok_or("cannot read the server's VmHWM")?;
    srv.stop();

    let (tally, latencies) = check_served(&setup.container, &phase.records)?;
    let digest = output_digest(&load_container(&setup.container)?.pipeline, &inputs);
    e2e_report(tally, latencies, tally.ok as f64, phase.wall_s, &setup_s, rss, digest)
}

/// Offline calls: `(latencies_ms, (seeds, images) per call, wall_s)`.
type OfflineRun = (Vec<f64>, Vec<(Vec<u64>, Vec<Vec<f32>>)>, f64);

/// Closed loop of `generate_seeded(16 seeds, 20, 16)` calls for `seconds`
/// (longer until `min_calls`).
fn offline_loop(
    pipeline: &SimPipeline,
    inputs: &Inputs,
    seconds: f64,
    min_calls: usize,
) -> Result<OfflineRun, String> {
    let SimPipeline::Ddim(p) = pipeline else {
        return Err("the offline workload expects a pixel DDIM container".to_string());
    };
    let seeds_of = |stream: u64, call: u64| -> Vec<u64> {
        (0..OFFLINE_BATCH as u64)
            .map(|j| inputs.get(stream, call * OFFLINE_BATCH as u64 + j).seed)
            .collect()
    };
    for call in 0..WARMUP_REQUESTS {
        std::hint::black_box(p.generate_seeded(
            &seeds_of(WARMUP_STREAM, call),
            STEPS,
            OFFLINE_BATCH,
        ));
    }
    let window = Duration::from_secs_f64(seconds);
    let (mut latencies, mut outputs) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    for call in 0.. {
        let elapsed = t0.elapsed();
        if elapsed >= window && (latencies.len() >= min_calls || elapsed >= MAX_MEASURE) {
            break;
        }
        let seeds = seeds_of(0, call);
        let t = Instant::now();
        let imgs = p.generate_seeded(&seeds, STEPS, OFFLINE_BATCH);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        outputs.push((seeds, split_images(&imgs)));
    }
    Ok((latencies, outputs, t0.elapsed().as_secs_f64()))
}

/// The offline output check: image `i` of a batch-16 call must equal the
/// batch-1 run of its seed (the pipeline's batch-invariance contract,
/// which the served == offline check also rides on). Checks the first
/// and the last call; returns the tally over calls.
fn check_offline(pipeline: &SimPipeline, outputs: &[(Vec<u64>, Vec<Vec<f32>>)]) -> Tally {
    let SimPipeline::Ddim(p) = pipeline else { unreachable!("checked by offline_loop") };
    let last = outputs.len().saturating_sub(1);
    let mut tally = Tally::default();
    for (i, (seeds, imgs)) in outputs.iter().enumerate() {
        let ok = if i == 0 || i == last {
            let solo = split_images(&p.generate_seeded(seeds, STEPS, 1));
            solo.iter()
                .zip(imgs)
                .all(|(a, b)| a.iter().map(|v| v.to_bits()).eq(b.iter().map(|v| v.to_bits())))
        } else {
            true
        };
        tally.record(if ok { Outcome::Ok } else { Outcome::Mismatch });
    }
    tally
}

fn offline_e2e(args: &Args, setup: &Setup) -> Result<Report, String> {
    let inputs = Inputs::new(args.workload, args.seed);
    let (setup_s, loaded) = timed_loads(&setup.container)?;
    let (latencies, outputs, wall_s) =
        offline_loop(&loaded.pipeline, &inputs, args.seconds, MIN_SAMPLES)?;
    let rss = http::peak_rss_mb("/proc/self/status").ok_or("cannot read VmHWM")?;
    let tally = check_offline(&loaded.pipeline, &outputs);
    let images = (tally.ok as usize * OFFLINE_BATCH) as f64;
    let digest = output_digest(&loaded.pipeline, &inputs);
    e2e_report(tally, latencies, images, wall_s, &setup_s, rss, digest)
}

/// The in-process profile, for the parent and the single-worker child.
fn run_profile(
    args: &Args,
    loaded: &LoadedModel,
    clients: usize,
    budget: Duration,
    tracer: &Tracer,
) -> layers::Profile {
    let inputs = Inputs::new(args.workload, args.seed);
    // Requests per round: what one engine step really carries.
    let n = if args.workload.served() { clients } else { OFFLINE_BATCH } as u64;
    let group =
        |k: u64| -> Vec<Input> { (0..n).map(|j| inputs.get(PROFILE_STREAM + k, j)).collect() };
    layers::profile(&loaded.pipeline, &loaded.meta, &group, budget, tracer)
}

/// Budget of the in-process profile rounds.
fn profile_budget(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * 0.6).clamp(1.0, 12.0))
}

/// Child mode: the profile at `FPDQ_THREADS=1`, printed as `w1 <name> <value>` lines.
fn profile_child(args: &Args, container: &Path) -> ExitCode {
    let loaded = match load_container(container) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("fpdqbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let prof =
        run_profile(args, &loaded, nproc(), profile_budget(args.seconds), &Tracer::default());
    println!("w1 step_ms {}", prof.step_ms);
    println!("w1 unet_forward_ms {}", prof.forward_ms);
    println!("w1 packed_ms {}", prof.packed_ms);
    println!("w1 mismatches {}", prof.mismatches);
    ExitCode::SUCCESS
}

fn single_worker_profile(args: &Args, setup: &Setup) -> Result<Vec<(String, f64)>, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", "1", "--profile-child"])
        .arg(&setup.container)
        .env("FPDQ_THREADS", "1")
        .current_dir(&setup.root)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the single-worker profile: {e}"))?;
    if !out.status.success() {
        return Err("the single-worker profile failed".to_string());
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| {
            let mut f = l.strip_prefix("w1 ")?.split_whitespace();
            Some((f.next()?.to_string(), f.next()?.parse().ok()?))
        })
        .collect())
}

fn traced(args: &Args, setup: &Setup) -> Result<Report, String> {
    let inputs = Inputs::new(args.workload, args.seed);
    let served = args.workload.served();

    // The client's view, untraced: served latency plus the server
    // counters, or offline call latency.
    let (tally, client_p50, per_step, rejected, failed) = if served {
        let (srv, _) = Server::start(&setup.bin, &setup.container)?;
        let phase = drive(&srv, &inputs, setup.clients, args.seconds.min(TRACED_CLIENT_SECONDS))?;
        srv.stop();
        let (tally, mut latencies) = check_served(&setup.container, &phase.records)?;
        latencies.sort_by(f64::total_cmp);
        let completed = phase.after.completed - phase.before.completed;
        let occ = occupancy(completed, STEPS as u64, phase.before.steps, phase.after.steps)
            .ok_or("the server ran no engine step")?;
        (
            tally,
            percentile(&latencies, 0.5).ok_or("no successful request")?,
            occ,
            (phase.after.rejected - phase.before.rejected) as f64,
            (phase.after.failed - phase.before.failed) as f64,
        )
    } else {
        let loaded = load_container(&setup.container)?;
        let (mut latencies, outputs, _) =
            offline_loop(&loaded.pipeline, &inputs, args.seconds * 0.3, 5)?;
        latencies.sort_by(f64::total_cmp);
        let tally = check_offline(&loaded.pipeline, &outputs);
        (
            tally,
            percentile(&latencies, 0.5).ok_or("no offline call")?,
            OFFLINE_BATCH as f64,
            0.0,
            0.0,
        )
    };

    let (load_s, loaded) = timed_loads(&setup.container)?;
    let tracer = Tracer::default();
    let prof = run_profile(args, &loaded, setup.clients, profile_budget(args.seconds), &tracer);
    let trace_path =
        setup
            .work
            .join(format!("trace-{}-seed{}.jsonl", args.workload.name(), args.seed));
    tracer
        .write_jsonl(&trace_path)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    print_breakdown(args, &tracer);
    let w1 = single_worker_profile(args, setup)?;
    let w1_value = |k: &str| {
        w1.iter()
            .find(|(n, _)| n == k)
            .map(|(_, v)| *v)
            .ok_or(format!("single-worker profile lacks {k}"))
    };

    // On the serve workloads the client waits for one request's admit, its
    // 20 steps and its finish; everything else is the serving layer's.
    let in_process = prof.admit_ms + STEPS as f64 * prof.step_ms + prof.finish_ms;
    let metrics = vec![
        ("container.load_ms", 1e3 * median(&load_s), "ms"),
        ("serve.overhead_ms", client_p50 - in_process, "ms"),
        ("serve.batch_occupancy", per_step, "req/step"),
        ("serve.rejected", rejected, "count"),
        ("serve.failed", failed, "count"),
        ("diffusion.step_ms", prof.step_ms, "ms"),
        ("diffusion.update_ms", prof.update_ms, "ms"),
        ("diffusion.admit_ms", prof.admit_ms, "ms"),
        ("diffusion.finish_ms", prof.finish_ms, "ms"),
        ("nn.unet_forward_ms", prof.forward_ms, "ms"),
        ("nn.unquantized_ms", prof.forward_ms - prof.packed_ms, "ms"),
        ("kernels.packed_ms", prof.packed_ms, "ms"),
        ("kernels.conv_ms", prof.conv_ms, "ms"),
        ("kernels.linear_ms", prof.linear_ms, "ms"),
        ("kernels.calls", prof.calls as f64, "count"),
        ("core.act_quant_ns_per_elem", prof.act_quant_ns_per_elem, "ns"),
        ("tensor.parallel_region_us", prof.parallel_region_us, "us"),
        ("trace.overhead_pct", 100.0 * (prof.untraced_ips / prof.traced_ips - 1.0), "%"),
        ("diffusion.step_ms.w1", w1_value("step_ms")?, "ms"),
        ("nn.unet_forward_ms.w1", w1_value("unet_forward_ms")?, "ms"),
        ("kernels.packed_ms.w1", w1_value("packed_ms")?, "ms"),
    ];
    let in_process_mismatches = prof.mismatches as u64 + w1_value("mismatches")? as u64;
    Ok(Report {
        correct: tally.mismatches == 0 && in_process_mismatches == 0,
        tally: Tally { mismatches: tally.mismatches + in_process_mismatches, ..tally },
        metrics,
        meta: vec![
            ("client_p50_ms", client_p50.to_string()),
            ("profile_requests_per_step", prof.requests_per_step.to_string()),
            ("trace_file", format!("\"{}\"", trace_path.display())),
        ],
    })
}

/// Where the traced in-process time goes, by span self time.
fn print_breakdown(args: &Args, tracer: &Tracer) {
    let rows = tracer.breakdown();
    let total: f64 = rows.iter().map(|r| r.3).sum();
    eprintln!("fpdqbench: {} self time by span (traced rounds)", args.workload.name());
    for (name, count, total_ms, self_ms) in rows {
        eprintln!(
            "  {name:<18} {count:>6} calls  {total_ms:>10.2} ms total  {self_ms:>10.2} ms self  {:>5.1}%",
            100.0 * self_ms / total
        );
    }
}

/// Rejects results the output contract cannot carry.
fn validate(report: Report, args: &Args) -> Result<Report, String> {
    if let Some((name, v, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{} measured a non-finite {name}: {v}", args.workload.name()));
    }
    if report.tally.attempted == 0 {
        return Err("no request was attempted".to_string());
    }
    Ok(report)
}

/// The commit of a git checkout, read from `.git` without leaving it.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else { return "unknown".to_string() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_report(args: &Args, setup: &Setup, report: &Report) {
    let t = &report.tally;
    let mut meta = vec![
        ("workload", format!("\"{}\"", args.workload.name())),
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        ("seconds", args.seconds.to_string()),
        ("nproc", nproc().to_string()),
        ("isa_detected", format!("\"{}\"", simd::detected().name())),
        ("force_scalar", simd::force_scalar().to_string()),
        ("isa_active", format!("\"{}\"", simd::active().name())),
        ("num_threads", num_threads().to_string()),
        ("clients", if args.workload.served() { setup.clients } else { 1 }.to_string()),
        ("commit", format!("\"{}\"", commit(&setup.root))),
        ("ok", t.ok.to_string()),
        ("non_200", t.non_200.to_string()),
        ("timeouts", t.timeouts.to_string()),
        ("conn_errors", t.conn_errors.to_string()),
        ("mismatches", t.mismatches.to_string()),
        ("error_rate", t.error_rate().to_string()),
    ];
    meta.extend(report.meta.iter().cloned());
    let fields: Vec<String> = meta.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!("meta {{{}}}", fields.join(","));
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        t.attempted,
        t.failed(),
        metrics.join(",")
    );
}
