//! # fpdq-serve
//!
//! A fault-tolerant serving layer over the diffusion pipelines:
//! continuous batching with per-request deadlines, bounded-queue
//! backpressure, per-step panic isolation, graceful drain, and a
//! deterministic fault-injection harness. Built on `std` threads and
//! channels: the [`http`] server gives each connection its own thread,
//! which blocks on the scheduler's reply. JSON goes through the offline
//! `serde`/`serde_json` stubs under `crates/compat/` — no third-party
//! code.
//!
//! # Request lifecycle
//!
//! ```text
//!              POST /v1/generate
//!                     │
//!              parse + validate ──▶ 400 bad_request
//!                     │
//!        bounded admission queue ──▶ 429 queue_full (backpressure)
//!                     │                503 draining (shutdown begun)
//!            ┌────────▼─────────────────────────────┐
//!            │ scheduler thread (owns the model)    │
//!            │                                      │
//!            │   admit ≤ max_batch at the boundary  │
//!            │        │                             │
//!            │   ┌────▼──────────────────────────┐  │
//!            │   │ step boundary:                │  │
//!            │   │  evict expired deadlines ─────┼──┼─▶ 504 deadline_exceeded
//!            │   │  batched ε + DDIM update      │  │
//!            │   │   └─ catch_unwind; on panic,  │  │
//!            │   │      solo-retry to attribute ─┼──┼─▶ 500 engine_panic
//!            │   │  retire finished requests     │  │
//!            │   └────┬──────────────────────────┘  │
//!            │        │ loop                        │
//!            └────────▼─────────────────────────────┘
//!                     │
//!            finish (clamp/decode) ──▶ 200 {pixels_hex}
//! ```
//!
//! The scheduler owns only the interleaving. What a pipeline is lives in
//! `fpdq-diffusion`: [`ServeModel`] (re-exported here) is implemented
//! once per pipeline next to the pipeline itself, and the scheduler's
//! admission (`pipelines::admit`), step kernel
//! (`advance_batch_conditioned`) and finish are the ones the offline
//! loop (`pipelines::sample`, behind every `generate`) runs. Requests
//! join and leave the batch **only at step boundaries**, each at its own
//! timestep — continuous batching. Because a request's image is a pure
//! function of its seed and conditioning (the
//! [`fpdq_diffusion::stepper`] bit-identity contract, riding the U-Net's
//! batch independence), admissions, evictions and neighbours' panics
//! never change what anyone else gets, and a served `(seed, prompt,
//! steps)` image equals the offline `generate_seeded` image for the same
//! inputs at any batch size. Conditional models encode the prompt
//! **once at admission** and fold the classifier-free-guidance double
//! forward into the shared engine batch; see `docs/serving.md` for the
//! conditioning contract.
//!
//! # Failure modes
//!
//! | failure                        | blast radius                    | response            |
//! |--------------------------------|---------------------------------|---------------------|
//! | malformed / non-JSON body      | that request                    | 400 `bad_request`   |
//! | repeated `content-length`, or any `transfer-encoding` | that request | 400 / 501 (from [`http`]) |
//! | invalid seed/steps             | that request                    | 400 `invalid_argument` |
//! | prompt/guidance on an unconditional model, guidance without prompt, or non-finite guidance | that request | 400 `invalid_argument` |
//! | admission queue full           | that request                    | 429 `queue_full`    |
//! | deadline expires               | that request, at a boundary     | 504 `deadline_exceeded` |
//! | engine panic mid-step          | panicking request(s) only; survivors re-step solo, bit-identical | 500 `engine_panic` |
//! | decode/finish panic            | that request                    | 500 `engine_panic`  |
//! | shutdown begun                 | new + queued requests           | 503 `draining`      |
//! | handler panic in the HTTP layer| that connection                 | 500 (from [`http`]) |
//! | model fails to load (missing / corrupt container, builder panic) | every request, but the process stays alive | 500 `model_unavailable`; `/readyz` 503 with the boot error |
//!
//! The scheduler thread itself never dies: every engine interaction runs
//! under `catch_unwind`, and `/healthz` exposes monotone `ticks`/`steps`
//! counters so a wedged loop is observable (`/metrics` adds the boot
//! error to the same counters). Lifecycle:
//! `starting → ready | failed → draining → stopped`, probed via
//! `/readyz` (200 only when `ready`) and flipped via
//! `POST /admin/shutdown`. Models come from the [`registry`]: a name
//! ([`MODEL_NAMES`]: `tiny`, `tiny-sd`, zoo pipelines) or a path to a
//! `.fpdq` container written by `fpdq pack` — hot-swapping a model is
//! restarting the server with a different `--model`, and a bad artifact
//! degrades to `failed` instead of killing the process.
//!
//! # Fault injection
//!
//! Deterministic failures for tests and CI, armed via `FPDQ_FAULT` or
//! [`FaultPlan`] builders: `panic:TAG@N` (engine panic when a request
//! tagged `TAG` reaches step `N`), `slow:MS` (slow steps, makes deadlines
//! fire), `stall:MS` (slow admission, backs the queue up). See
//! [`fault`].

pub mod api;
pub mod client;
pub mod fault;
pub mod http;
pub mod registry;
pub mod scheduler;
pub mod server;
pub mod shared;

pub use fault::FaultPlan;
pub use fpdq_diffusion::ServeModel;
pub use registry::{resolve, ModelBuilder, MODEL_NAMES};
pub use scheduler::{Job, ReqError};
pub use server::{serve, ServeConfig, ServerHandle};
pub use shared::{ServeShared, ServerState};

use fpdq_data::Tokenizer;
use fpdq_diffusion::{DdimSim, NoiseSchedule, SdSim};
use fpdq_nn::{Autoencoder, AutoencoderConfig, TextEncoder, TextEncoderConfig, UNet, UNetConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A tiny, deterministic, zoo-free pixel pipeline for tests and CI smoke
/// runs: fixed-seed random weights, no training, no cache files. Every
/// call constructs the *same* model, so a test can compare a served image
/// against its own offline reference bit-for-bit.
pub fn tiny_ddim() -> DdimSim {
    let mut rng = StdRng::seed_from_u64(42);
    DdimSim {
        unet: UNet::new(UNetConfig::tiny(3), &mut rng),
        schedule: NoiseSchedule::linear_scaled(20),
        channels: 3,
        image_size: 8,
    }
}

/// The conditional analogue of [`tiny_ddim`]: a tiny, deterministic,
/// zoo-free text-to-image pipeline (tokenizer + text encoder +
/// autoencoder + conditional U-Net) for tests and CI smoke runs. Every
/// call constructs the *same* model, so a served `(seed, prompt)` image
/// can be compared byte-for-byte against an offline
/// [`SdSim::generate_seeded`] run of the same construction.
pub fn tiny_sd() -> SdSim {
    let mut rng = StdRng::seed_from_u64(43);
    let tokenizer = Tokenizer::caption_grammar();
    let text = TextEncoder::new(
        TextEncoderConfig { layers: 1, ..TextEncoderConfig::small(tokenizer.vocab_size(), 8, 8) },
        &mut rng,
    );
    SdSim {
        tokenizer,
        text,
        ae: Autoencoder::new(AutoencoderConfig::small(3, 4), &mut rng),
        unet: UNet::new(UNetConfig { context_dim: Some(8), ..UNetConfig::tiny(4) }, &mut rng),
        schedule: NoiseSchedule::linear_scaled(20),
        latent_channels: 4,
        latent_size: 8,
        latent_scale: 1.0,
        guidance: 3.0,
    }
}
