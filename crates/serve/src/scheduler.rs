//! The continuous-batching step-loop scheduler.
//!
//! One thread owns the model (the U-Net's packed slots hold `Rc`s, so
//! the model is `!Send` and must be *constructed* on this thread) and
//! drives a single loop: admit waiting requests up to the batch cap,
//! evict expired deadlines, run one batched engine step for everyone,
//! retire finished requests.
//!
//! The scheduler owns only that interleaving. Admission
//! (`pipelines::admit`), the step kernel (`advance_batch_conditioned`)
//! and the finish are the ones the offline loop (`pipelines::sample`)
//! runs, through the same [`ServeModel`] — so a served image equals the
//! offline one by construction. Requests join and leave **only at step
//! boundaries**, which keeps every admission/eviction decision from
//! perturbing the survivors: a request's image is a pure function of its
//! seed and conditioning (the [`fpdq_diffusion::stepper`] bit-identity
//! contract), no matter who shares its batches — guided, direct-context
//! and unconditional requests interleave freely in one folded engine
//! batch.
//!
//! # Panic isolation
//!
//! Each batched step runs under `catch_unwind`. When it panics, the
//! scheduler *attributes* the failure by re-stepping each request solo on
//! a **clone** of its state: requests whose solo step succeeds adopt the
//! clone (ε is a pure function, so the retried step is bit-identical to
//! the step the batch would have given them); requests whose solo step
//! panics are evicted with a typed `engine_panic` error. The loop itself
//! never dies — the acceptance bar for the whole serving layer.

use crate::fault::FaultPlan;
use crate::shared::{ServeShared, ServerState};
use fpdq_diffusion::pipelines;
use fpdq_diffusion::stepper::{advance_batch_conditioned, DdimStepState};
use fpdq_diffusion::ServeModel;
use fpdq_tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long an idle scheduler blocks for new work before re-checking the
/// lifecycle state.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// Typed failure handed back through a request's response channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReqError {
    /// HTTP status the front end maps this to.
    pub status: u16,
    /// Stable machine-readable code.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// Steps completed before the failure, when admitted.
    pub steps_done: Option<usize>,
}

impl ReqError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> ReqError {
        ReqError { status, code, message: message.into(), steps_done: None }
    }
}

/// A request travelling from the HTTP layer to the scheduler.
pub struct Job {
    /// Per-image seed.
    pub seed: u64,
    /// Requested DDIM steps.
    pub steps: usize,
    /// Conditioning prompt (conditional models only).
    pub prompt: Option<String>,
    /// Guidance-scale override (requires `prompt`).
    pub guidance: Option<f32>,
    /// Absolute deadline, enforced at step boundaries.
    pub deadline: Option<Instant>,
    /// Fault-injection opt-in tag.
    pub fault_tag: Option<String>,
    /// One-slot completion channel: the finished image `[1, c, h, w]` or
    /// a typed error.
    pub respond: SyncSender<Result<Tensor, ReqError>>,
}

/// An admitted request inside the step loop.
struct ActiveReq {
    state: DdimStepState,
    seed: u64,
    deadline: Option<Instant>,
    fault_tag: Option<String>,
    respond: SyncSender<Result<Tensor, ReqError>>,
}

/// Scheduler knobs (a subset of `ServeConfig`, already validated).
pub struct SchedulerConfig {
    /// Batch-size cap for each engine step.
    pub max_batch: usize,
    /// The armed fault plan.
    pub fault: FaultPlan,
}

/// Runs the scheduler loop to completion (returns once the server has
/// drained after [`ServerState::Draining`], with every queued and active
/// request answered). `model` is built by the caller *on this thread*.
pub fn run(
    model: Box<dyn ServeModel>,
    queue: Receiver<Job>,
    shared: Arc<ServeShared>,
    cfg: SchedulerConfig,
) {
    let mut active: Vec<ActiveReq> = Vec::new();
    loop {
        shared.ticks.fetch_add(1, Ordering::SeqCst);
        let draining = shared.state() >= ServerState::Draining;
        if draining && active.is_empty() {
            break;
        }

        // Admission: fill the batch from the queue at this boundary.
        if !draining {
            if let Some(delay) = cfg.fault.stall_admission {
                std::thread::sleep(delay);
            }
            while active.len() < cfg.max_batch {
                let job = if active.is_empty() {
                    // Idle: block briefly so an empty server doesn't spin,
                    // waking to re-check the lifecycle state.
                    queue.recv_timeout(IDLE_POLL).ok()
                } else {
                    queue.try_recv().ok()
                };
                match job {
                    Some(job) => {
                        shared.queued.fetch_sub(1, Ordering::SeqCst);
                        admit(&*model, job, &mut active);
                    }
                    None => break,
                }
            }
            if active.is_empty() {
                continue;
            }
        }

        // Deadline eviction, strictly at the step boundary: the evicted
        // request vanishes from subsequent batches, which by the batch
        // independence contract changes nothing for the survivors.
        let now = Instant::now();
        let mut i = 0;
        while i < active.len() {
            if active[i].deadline.is_some_and(|d| now >= d) {
                let req = active.swap_remove(i);
                shared.evicted.fetch_add(1, Ordering::SeqCst);
                let (done, total) = req.state.progress();
                let _ = req.respond.send(Err(ReqError {
                    steps_done: Some(done),
                    ..ReqError::new(
                        504,
                        "deadline_exceeded",
                        format!("deadline expired after {done}/{total} steps"),
                    )
                }));
            } else {
                i += 1;
            }
        }
        shared.active.store(active.len() as u64, Ordering::SeqCst);
        if active.is_empty() {
            continue;
        }

        // One batched engine step for everyone, isolated from panics.
        if let Some(delay) = cfg.fault.slow_step {
            std::thread::sleep(delay);
        }
        step_with_isolation(&*model, &cfg.fault, &mut active, &shared);
        shared.steps.fetch_add(1, Ordering::SeqCst);

        // Retire finished requests.
        let mut i = 0;
        while i < active.len() {
            if active[i].state.is_done() {
                let req = active.swap_remove(i);
                finish(&*model, req, &shared);
            } else {
                i += 1;
            }
        }
        shared.active.store(active.len() as u64, Ordering::SeqCst);
    }

    reject_queued(queue, &shared);
    shared.active.store(0, Ordering::SeqCst);
    shared.advance_state(ServerState::Stopped);
}

/// The degraded loop a server runs when the model never came up: stays
/// alive answering every request with a typed `model_unavailable` error
/// (so probes and operators can see *why*) until a drain is requested,
/// then stops exactly like the healthy loop. The heartbeat `ticks`
/// counter keeps advancing — a failed server is degraded, not wedged.
pub fn run_degraded(queue: Receiver<Job>, shared: Arc<ServeShared>, reason: String) {
    loop {
        shared.ticks.fetch_add(1, Ordering::SeqCst);
        if shared.state() >= ServerState::Draining {
            break;
        }
        while let Ok(job) = queue.recv_timeout(IDLE_POLL) {
            shared.queued.fetch_sub(1, Ordering::SeqCst);
            shared.rejected.fetch_add(1, Ordering::SeqCst);
            let _ = job.respond.send(Err(ReqError::new(
                500,
                "model_unavailable",
                format!("model failed to load: {reason}"),
            )));
        }
    }
    reject_queued(queue, &shared);
    shared.advance_state(ServerState::Stopped);
}

/// Drained: answers everything still in the queue with 503 `draining`,
/// then drops the queue, so later sends fail and the HTTP layer answers
/// them. A job sent after the last `try_recv` is dropped with the queue;
/// the handler answers its dropped reply with the same 503.
fn reject_queued(queue: Receiver<Job>, shared: &ServeShared) {
    while let Ok(job) = queue.try_recv() {
        shared.queued.fetch_sub(1, Ordering::SeqCst);
        let _ = job.respond.send(Err(ReqError::new(503, "draining", "server is draining")));
    }
}

/// Validates and admits one job (or answers it with a typed error).
fn admit(model: &dyn ServeModel, job: Job, active: &mut Vec<ActiveReq>) {
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        let _ = job.respond.send(Err(ReqError::new(
            504,
            "deadline_exceeded",
            "deadline expired before admission",
        )));
        return;
    }
    // The offline loop's admission: the prompt is encoded once, here at
    // the admission boundary, and the step state carries the resulting
    // context for the request's whole life, so mid-flight neighbours
    // never trigger re-encodes.
    match pipelines::admit(model, job.seed, job.steps, job.prompt.as_deref(), job.guidance) {
        Ok(state) => active.push(ActiveReq {
            state,
            seed: job.seed,
            deadline: job.deadline,
            fault_tag: job.fault_tag,
            respond: job.respond,
        }),
        Err(e) => {
            let _ = job.respond.send(Err(ReqError::new(400, "invalid_argument", e.to_string())));
        }
    }
}

/// Advances `group` one step; panics (injected or real) escape to the
/// caller's `catch_unwind`.
fn step_group(model: &dyn ServeModel, fault: &FaultPlan, group: &mut [&mut ActiveReq]) {
    for req in group.iter() {
        if fault.panic_fires(req.fault_tag.as_deref(), req.state.progress().0) {
            let (tag, step) = fault.panic_at.clone().expect("armed plan");
            panic!("injected fault: panic '{tag}' at step {step} (seed {})", req.seed);
        }
    }
    let mut states: Vec<&mut DdimStepState> = group.iter_mut().map(|r| &mut r.state).collect();
    advance_batch_conditioned(&mut states, |x, t, ctx| model.eps(x, t, ctx));
}

/// One isolated engine step: the batched fast path, then — only on panic
/// — per-request solo retries on cloned states to attribute the failure.
fn step_with_isolation(
    model: &dyn ServeModel,
    fault: &FaultPlan,
    active: &mut Vec<ActiveReq>,
    shared: &ServeShared,
) {
    let mut refs: Vec<&mut ActiveReq> = active.iter_mut().collect();
    let batched = catch_unwind(AssertUnwindSafe(|| step_group(model, fault, &mut refs)));
    if batched.is_ok() {
        return;
    }
    // The batched step panicked before any state advanced (ε comes first;
    // the pure per-request updates follow) — but don't rely on that:
    // retry each request on a clone and only adopt a clone that stepped
    // cleanly. ε is pure, so a clean solo retry is bit-identical to the
    // step the request would have taken in any batch.
    let mut i = 0;
    while i < active.len() {
        let mut probe = ActiveReq {
            state: active[i].state.clone(),
            seed: active[i].seed,
            deadline: active[i].deadline,
            fault_tag: active[i].fault_tag.clone(),
            respond: sync_channel(1).0, // placeholder; never used
        };
        let solo = catch_unwind(AssertUnwindSafe(|| step_group(model, fault, &mut [&mut probe])));
        match solo {
            Ok(()) => {
                active[i].state = probe.state;
                i += 1;
            }
            Err(payload) => {
                let req = active.swap_remove(i);
                shared.failed.fetch_add(1, Ordering::SeqCst);
                let (done, total) = req.state.progress();
                let detail = panic_message(payload.as_ref());
                let _ = req.respond.send(Err(ReqError {
                    steps_done: Some(done),
                    ..ReqError::new(
                        500,
                        "engine_panic",
                        format!("engine step panicked after {done}/{total} steps: {detail}"),
                    )
                }));
            }
        }
    }
}

/// Finalises one finished request (decode may also panic — isolate it).
fn finish(model: &dyn ServeModel, req: ActiveReq, shared: &ServeShared) {
    let (done, _) = req.state.progress();
    let x = req.state.into_result();
    match catch_unwind(AssertUnwindSafe(|| model.finish(&x))) {
        Ok(img) => {
            shared.completed.fetch_add(1, Ordering::SeqCst);
            let _ = req.respond.send(Ok(img));
        }
        Err(payload) => {
            shared.failed.fetch_add(1, Ordering::SeqCst);
            let detail = panic_message(payload.as_ref());
            let _ = req.respond.send(Err(ReqError {
                steps_done: Some(done),
                ..ReqError::new(500, "engine_panic", format!("finishing panicked: {detail}"))
            }));
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}
