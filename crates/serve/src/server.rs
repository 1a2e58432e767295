//! The HTTP front end: routing, admission control and lifecycle wiring.

use crate::api::{pixels_to_hex, ErrorBody, GenerateRequest, GenerateResponse};
use crate::fault::FaultPlan;
use crate::http::{self, Request, Response, Server};
use crate::scheduler::{self, Job, ReqError, SchedulerConfig};
use crate::shared::{ServeShared, ServerState};
use fpdq_diffusion::ServeModel;
use fpdq_tensor::FpdqError;
use serde::Serialize;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serving knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (port 0 picks an ephemeral port).
    pub addr: SocketAddr,
    /// Batch-size cap for each engine step.
    pub max_batch: usize,
    /// Admission queue depth; a full queue rejects with 429.
    pub queue_depth: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline_ms: Option<u64>,
    /// The armed fault plan (empty by default; see [`FaultPlan`]).
    pub fault: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".parse().expect("loopback addr"),
            max_batch: 4,
            queue_depth: 8,
            default_deadline_ms: None,
            fault: FaultPlan::default(),
        }
    }
}

/// A running server: HTTP front end + scheduler thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ServeShared>,
    scheduler: Option<std::thread::JoinHandle<()>>,
    http: Option<http::ServeHandle>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (probes read it; tests sequence on it).
    pub fn shared(&self) -> &Arc<ServeShared> {
        &self.shared
    }

    /// Graceful drain-then-stop: flips to `Draining` (new requests get
    /// 503), waits for the scheduler to finish every in-flight request,
    /// then tears down the HTTP listener.
    pub fn shutdown(mut self) {
        self.shared.advance_state(ServerState::Draining);
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        if let Some(h) = self.http.take() {
            h.shutdown();
        }
    }

    /// Blocks until the scheduler exits (used by `fpdq serve`, whose
    /// shutdown arrives over HTTP rather than from this thread).
    pub fn wait(mut self) {
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        if let Some(h) = self.http.take() {
            h.shutdown();
        }
    }
}

/// Binds the HTTP server and starts the scheduler thread.
///
/// `build` constructs the model *inside* the scheduler thread — the
/// U-Net's packed slots hold `Rc`s, so the model itself is `!Send` and
/// only a builder closure can cross the thread boundary. Until `build`
/// returns, probes report `starting` and `/readyz` fails.
///
/// A builder that returns `Err` (or panics) does **not** kill the
/// server: the lifecycle advances to [`ServerState::Failed`], `/readyz`
/// keeps failing with the boot error, and every request gets a typed
/// `500 model_unavailable` until the server is drained — a corrupt or
/// missing model artifact degrades the process instead of crashing it.
///
/// # Errors
///
/// [`std::io::ErrorKind::InvalidInput`] for a zero `queue_depth`, before
/// anything is bound; otherwise whatever binding the address returns.
pub fn serve<F>(cfg: ServeConfig, build: F) -> std::io::Result<ServerHandle>
where
    F: FnOnce() -> Result<Box<dyn ServeModel>, FpdqError> + Send + 'static,
{
    if cfg.queue_depth == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "queue depth must be a positive integer",
        ));
    }
    let server = Server::bind(&cfg.addr)?;
    let addr = server.local_addr();
    let shared = Arc::new(ServeShared::default());
    let (tx, rx) = sync_channel::<Job>(cfg.queue_depth);

    let sched_shared = shared.clone();
    let sched_cfg = SchedulerConfig { max_batch: cfg.max_batch.max(1), fault: cfg.fault.clone() };
    let scheduler = std::thread::Builder::new()
        .name("fpdq-scheduler".into())
        .spawn(move || {
            // A panicking builder is a boot failure too, not a dead
            // thread — route it through the same degraded path as a
            // typed load error.
            let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build))
                .unwrap_or_else(|payload| {
                    let detail = payload
                        .downcast_ref::<&str>()
                        .copied()
                        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                        .unwrap_or("non-string panic payload");
                    Err(FpdqError::corrupt(format!("model builder panicked: {detail}")))
                });
            match built {
                Ok(model) => {
                    sched_shared.advance_state(ServerState::Ready);
                    scheduler::run(model, rx, sched_shared, sched_cfg);
                }
                Err(e) => {
                    let reason = e.to_string();
                    sched_shared.fail_boot(&reason);
                    scheduler::run_degraded(rx, sched_shared, reason);
                }
            }
        })
        .expect("cannot spawn scheduler thread");

    let route_shared = shared.clone();
    let default_deadline = cfg.default_deadline_ms;
    let http = server.serve(move |req: &Request| route(req, &route_shared, &tx, default_deadline));

    Ok(ServerHandle { addr, shared, scheduler: Some(scheduler), http: Some(http) })
}

fn json_response(status: u16, body: &impl Serialize) -> Response {
    let text = serde_json::to_string(body).expect("serializing a wire type cannot fail");
    Response::new(status)
        .with_header("content-type", "application/json")
        .with_body(text)
}

fn error_response(status: u16, code: &str, message: impl Into<String>) -> Response {
    json_response(
        status,
        &ErrorBody { code: code.to_string(), error: message.into(), steps_done: None },
    )
}

fn route(
    req: &Request,
    shared: &ServeShared,
    tx: &SyncSender<Job>,
    default_deadline_ms: Option<u64>,
) -> Response {
    match (req.method(), req.path()) {
        ("GET", "/healthz") => json_response(200, &shared.healthz()),
        ("GET", "/metrics") => json_response(200, &shared.metrics()),
        ("GET", "/readyz") => {
            let state = shared.state();
            match state {
                ServerState::Ready => json_response(200, &shared.healthz()),
                // Readiness of a failed server reports *why* the model
                // never came up, not just that it didn't.
                ServerState::Failed => {
                    let reason =
                        shared.boot_error().unwrap_or_else(|| "model failed to load".to_string());
                    error_response(503, "model_unavailable", reason)
                }
                _ => error_response(503, "not_ready", format!("server is {}", state.name())),
            }
        }
        ("POST", "/v1/generate") => generate(req, shared, tx, default_deadline_ms),
        ("POST", "/admin/shutdown") => {
            // Never moves the state backwards: a shutdown of a stopped
            // server stays stopped.
            shared.advance_state(ServerState::Draining);
            json_response(202, &shared.healthz())
        }
        (_, "/healthz" | "/metrics" | "/readyz" | "/v1/generate" | "/admin/shutdown") => {
            error_response(405, "method_not_allowed", format!("{} not allowed here", req.method()))
        }
        _ => error_response(404, "not_found", format!("no route for {}", req.path())),
    }
}

fn generate(
    req: &Request,
    shared: &ServeShared,
    tx: &SyncSender<Job>,
    default_deadline_ms: Option<u64>,
) -> Response {
    let body = match std::str::from_utf8(req.body()) {
        Ok(b) => b,
        Err(_) => return error_response(400, "bad_request", "body is not UTF-8"),
    };
    let parsed: GenerateRequest = match serde_json::from_str(body) {
        Ok(p) => p,
        Err(e) => return error_response(400, "bad_request", e.to_string()),
    };
    match shared.state() {
        ServerState::Starting => {
            return error_response(503, "not_ready", "server is starting");
        }
        ServerState::Ready => {}
        ServerState::Failed => {
            // Answer directly: the degraded scheduler would give the same
            // typed error, but the fast path spares the queue round-trip.
            let reason = shared.boot_error().unwrap_or_else(|| "model failed to load".to_string());
            shared.rejected.fetch_add(1, Ordering::SeqCst);
            return error_response(
                500,
                "model_unavailable",
                format!("model failed to load: {reason}"),
            );
        }
        state => {
            return error_response(503, "draining", format!("server is {}", state.name()));
        }
    }
    let deadline = parsed
        .deadline_ms
        .or(default_deadline_ms)
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let (respond, done) = sync_channel(1);
    let job = Job {
        seed: parsed.seed,
        steps: parsed.steps,
        prompt: parsed.prompt.clone(),
        guidance: parsed.guidance,
        deadline,
        fault_tag: parsed.fault_tag.clone(),
        respond,
    };
    // Backpressure: the bounded queue is the only buffering; a full queue
    // answers immediately with 429 instead of stacking latency.
    shared.queued.fetch_add(1, Ordering::SeqCst);
    if let Err(e) = tx.try_send(job) {
        shared.queued.fetch_sub(1, Ordering::SeqCst);
        return match e {
            TrySendError::Full(_) => {
                shared.rejected.fetch_add(1, Ordering::SeqCst);
                error_response(429, "queue_full", "admission queue is full; retry later")
            }
            TrySendError::Disconnected(_) => {
                error_response(503, "draining", "server is shutting down")
            }
        };
    }
    match done.recv() {
        Ok(Ok(img)) => json_response(
            200,
            &GenerateResponse {
                seed: parsed.seed,
                steps: parsed.steps,
                dims: img.dims().to_vec(),
                pixels_hex: pixels_to_hex(img.data()),
            },
        ),
        Ok(Err(ReqError { status, code, message, steps_done })) => {
            json_response(status, &ErrorBody { code: code.to_string(), error: message, steps_done })
        }
        // The scheduler stops by dropping its queue, and a job sent just
        // before that is dropped unanswered with it: the same drain
        // rejection it would have got from the queue. No scheduler took
        // it off the queue, so it is still counted as queued.
        Err(_) if shared.state() >= ServerState::Draining => {
            shared.queued.fetch_sub(1, Ordering::SeqCst);
            error_response(503, "draining", "server is shutting down")
        }
        // Otherwise only possible if the scheduler thread died, which the
        // panic isolation exists to prevent; surface it rather than hang.
        Err(_) => error_response(500, "scheduler_gone", "scheduler dropped the request"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_queue_depth_is_an_error_before_binding() {
        let cfg = ServeConfig { queue_depth: 0, ..ServeConfig::default() };
        let err = serve(cfg, || -> Result<Box<dyn ServeModel>, FpdqError> {
            unreachable!("a rejected config never builds its model")
        })
        .err()
        .expect("queue depth 0 is rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }

    /// Sends one generate request to a stand-in scheduler that takes the
    /// job, moves the lifecycle to `state`, and drops the job unanswered,
    /// as a job left in the queue is dropped with it. Returns the reply
    /// and the `queued` gauge after it.
    fn reply_to_a_dropped_job(state: ServerState) -> (u16, ErrorBody, u64) {
        let shared = Arc::new(ServeShared::default());
        shared.advance_state(ServerState::Ready);
        let (tx, rx) = sync_channel::<Job>(1);
        let sched_shared = shared.clone();
        let scheduler = std::thread::spawn(move || {
            let job = rx.recv().expect("the handler sends the job");
            sched_shared.advance_state(state);
            drop(job);
        });
        let req = Request::new("POST", "/v1/generate", r#"{"seed": 1, "steps": 2}"#);
        let resp = generate(&req, &shared, &tx, None);
        scheduler.join().unwrap();
        let body = std::str::from_utf8(resp.body()).unwrap();
        (resp.status(), serde_json::from_str(body).unwrap(), shared.queued.load(Ordering::SeqCst))
    }

    #[test]
    fn a_job_dropped_by_the_drain_is_answered_503_draining() {
        let (status, body, queued) = reply_to_a_dropped_job(ServerState::Draining);
        assert_eq!((status, body.code.as_str()), (503, "draining"), "{body:?}");
        assert_eq!(queued, 0, "the dropped job must leave the queued gauge");
    }

    #[test]
    fn a_job_dropped_while_ready_is_answered_500_scheduler_gone() {
        let (status, body, _) = reply_to_a_dropped_job(ServerState::Ready);
        assert_eq!((status, body.code.as_str()), (500, "scheduler_gone"), "{body:?}");
    }
}
