//! End-to-end robustness suite for the serving layer (`crates/serve`).
//!
//! Every test starts a real server (ephemeral port, the zoo-free
//! [`fpdq::serve::tiny_ddim`] model) and drives it over actual sockets.
//! The common bar, from the serving layer's acceptance criteria: under
//! injected faults (step panics, deadline expiry, queue overflow,
//! shutdown mid-batch) the server process never dies, every affected
//! request gets a *typed* error response, and every surviving request's
//! image stays **bit-identical** to its offline batch-1 solo run —
//! neighbours joining, leaving, stalling or crashing must not perturb
//! anyone else's pixels.

use fpdq::serve::api::{pixels_from_hex, ErrorBody, GenerateResponse, Healthz};
use fpdq::serve::{client, serve, FaultPlan, ServeConfig, ServeModel, ServerHandle, ServerState};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn start(cfg: ServeConfig) -> ServerHandle {
    serve(cfg, || Ok(Box::new(fpdq::serve::tiny_ddim()) as Box<dyn ServeModel>))
        .expect("bind server")
}

fn wait_ready(addr: SocketAddr) {
    let t0 = Instant::now();
    loop {
        if let Ok((200, _)) = client::get(addr, "/readyz") {
            return;
        }
        assert!(t0.elapsed() < Duration::from_secs(10), "server never became ready");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn healthz(addr: SocketAddr) -> Healthz {
    let (status, body) = client::get(addr, "/healthz").expect("healthz reachable");
    assert_eq!(status, 200, "{body}");
    serde_json::from_str(&body).expect("healthz body")
}

fn gen_body(seed: u64, steps: usize) -> String {
    format!(r#"{{"seed": {seed}, "steps": {steps}}}"#)
}

/// The offline reference: the image the pipeline generates for this seed
/// alone, as raw `f32` bit patterns (`tiny_ddim` rebuilds the same model
/// every call).
fn solo_pixels(seed: u64, steps: usize) -> Vec<u32> {
    let img = fpdq::serve::tiny_ddim().generate_seeded(&[seed], steps, 1);
    img.data().iter().map(|v| v.to_bits()).collect()
}

fn served_pixels_sized(body: &str, dims: &[usize]) -> Vec<u32> {
    let resp: GenerateResponse = serde_json::from_str(body).expect("generate body");
    assert_eq!(resp.dims, dims);
    pixels_from_hex(&resp.pixels_hex)
        .expect("pixels")
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

fn served_pixels(body: &str) -> Vec<u32> {
    served_pixels_sized(body, &[1, 3, 8, 8])
}

fn error_body(body: &str) -> ErrorBody {
    serde_json::from_str(body).expect("error body")
}

#[test]
fn probes_flip_ready_to_draining_to_stopped() {
    let handle = start(ServeConfig::default());
    let addr = handle.addr();
    wait_ready(addr);
    let h = healthz(addr);
    assert_eq!(h.state, "ready");
    assert!(h.ticks > 0, "the idle scheduler heartbeat must advance");

    let (status, body) = client::get(addr, "/nope").unwrap();
    assert_eq!(status, 404);
    assert_eq!(error_body(&body).code, "not_found");
    let (status, body) = client::request(addr, "GET", "/v1/generate", None).unwrap();
    assert_eq!(status, 405);
    assert_eq!(error_body(&body).code, "method_not_allowed");

    // Shutdown over HTTP flips the lifecycle to draining...
    let (status, body) = client::post_json(addr, "/admin/shutdown", "").unwrap();
    assert_eq!(status, 202, "{body}");
    assert_eq!(serde_json::from_str::<Healthz>(&body).unwrap().state, "draining");
    let (status, _) = client::get(addr, "/readyz").unwrap();
    assert_eq!(status, 503, "a draining server must fail readiness");

    // ...and the scheduler parks in `stopped`.
    let shared = handle.shared().clone();
    handle.wait();
    assert_eq!(shared.state(), ServerState::Stopped);
}

#[test]
fn served_images_are_bit_identical_to_solo_runs() {
    let handle = start(ServeConfig { max_batch: 3, ..ServeConfig::default() });
    let addr = handle.addr();
    wait_ready(addr);
    // Concurrent requests with different seeds and step counts join and
    // leave shared batches at the scheduler's discretion; each image must
    // still be byte-for-byte the offline batch-1 run for its seed.
    let specs = [(1u64, 4usize), (2, 7), (3, 7), (4, 12), (5, 3), (6, 9)];
    let threads: Vec<_> = specs
        .iter()
        .map(|&(seed, steps)| {
            std::thread::spawn(move || {
                client::post_json(addr, "/v1/generate", &gen_body(seed, steps)).unwrap()
            })
        })
        .collect();
    for (t, &(seed, steps)) in threads.into_iter().zip(&specs) {
        let (status, body) = t.join().unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(served_pixels(&body), solo_pixels(seed, steps), "seed {seed}");
    }
    let h = healthz(addr);
    assert_eq!(h.completed, specs.len() as u64);
    assert_eq!(h.failed + h.evicted + h.rejected, 0);
    handle.shutdown();
}

#[test]
fn malformed_payloads_get_typed_400s_and_leave_the_server_alive() {
    let handle = start(ServeConfig::default());
    let addr = handle.addr();
    wait_ready(addr);
    for bad in [
        "{not json",
        r#"{"steps": 4}"#,              // missing seed
        r#"{"seed": "x", "steps": 4}"#, // wrong type
        r#"{"seed": -1, "steps": 4}"#,  // negative seed
        r#"{"seed": 1, "steps": 4, "#,  // truncated
    ] {
        let (status, body) = client::post_json(addr, "/v1/generate", bad).unwrap();
        assert_eq!(status, 400, "{bad} -> {body}");
        assert_eq!(error_body(&body).code, "bad_request", "{bad}");
    }
    // Well-formed JSON with invalid arguments: the scheduler's admission
    // validation answers with the typed `FpdqError` detail.
    for steps in [0usize, 999] {
        let (status, body) = client::post_json(addr, "/v1/generate", &gen_body(1, steps)).unwrap();
        assert_eq!(status, 400, "steps {steps} -> {body}");
        assert_eq!(error_body(&body).code, "invalid_argument", "steps {steps}");
    }
    // The server shrugged all of it off.
    let (status, body) = client::post_json(addr, "/v1/generate", &gen_body(9, 4)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(served_pixels(&body), solo_pixels(9, 4));
    handle.shutdown();
}

#[test]
fn injected_panic_fails_only_the_tagged_request() {
    let cfg = ServeConfig {
        max_batch: 4,
        fault: FaultPlan::default().with_panic_at("boom", 2),
        ..ServeConfig::default()
    };
    let handle = start(cfg);
    let addr = handle.addr();
    wait_ready(addr);
    // Two healthy requests share batches with one that detonates the
    // engine when it reaches its third step.
    let healthy_specs = [(11u64, 8usize), (12, 6)];
    let healthy: Vec<_> = healthy_specs
        .iter()
        .map(|&(seed, steps)| {
            std::thread::spawn(move || {
                client::post_json(addr, "/v1/generate", &gen_body(seed, steps)).unwrap()
            })
        })
        .collect();
    let tagged = std::thread::spawn(move || {
        let body = r#"{"seed": 13, "steps": 8, "fault_tag": "boom"}"#;
        client::post_json(addr, "/v1/generate", body).unwrap()
    });

    // The tagged request dies with a typed, attributed error...
    let (status, body) = tagged.join().unwrap();
    assert_eq!(status, 500, "{body}");
    let e = error_body(&body);
    assert_eq!(e.code, "engine_panic");
    assert_eq!(e.steps_done, Some(2), "the panic was armed for step 2");
    assert!(e.error.contains("injected fault"), "{}", e.error);

    // ...the survivors' images are untouched by their neighbour's crash...
    for (t, &(seed, steps)) in healthy.into_iter().zip(&healthy_specs) {
        let (status, body) = t.join().unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(served_pixels(&body), solo_pixels(seed, steps), "survivor seed {seed}");
    }

    // ...and the scheduler thread survived its own engine panicking.
    let h = healthz(addr);
    assert_eq!(h.failed, 1);
    assert_eq!(h.completed, 2);
    assert_eq!(h.state, "ready");
    let (status, body) = client::post_json(addr, "/v1/generate", &gen_body(14, 3)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(served_pixels(&body), solo_pixels(14, 3));
    handle.shutdown();
}

#[test]
fn deadlines_evict_at_step_boundaries_without_perturbing_survivors() {
    let cfg = ServeConfig {
        max_batch: 4,
        fault: FaultPlan::default().with_slow_step(Duration::from_millis(30)),
        ..ServeConfig::default()
    };
    let handle = start(cfg);
    let addr = handle.addr();
    wait_ready(addr);
    let survivor = std::thread::spawn(move || {
        client::post_json(addr, "/v1/generate", &gen_body(21, 6)).unwrap()
    });
    // 18 slowed steps cannot finish inside 150 ms: the deadline evicts
    // this request at a step boundary partway through.
    let doomed = std::thread::spawn(move || {
        let body = r#"{"seed": 22, "steps": 18, "deadline_ms": 150}"#;
        client::post_json(addr, "/v1/generate", body).unwrap()
    });

    let (status, body) = doomed.join().unwrap();
    assert_eq!(status, 504, "{body}");
    let e = error_body(&body);
    assert_eq!(e.code, "deadline_exceeded");
    if let Some(done) = e.steps_done {
        assert!(done < 18, "eviction must precede completion, did {done} steps");
    }

    let (status, body) = survivor.join().unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(served_pixels(&body), solo_pixels(21, 6));
    assert_eq!(healthz(addr).evicted, 1);
    handle.shutdown();
}

#[test]
fn full_queue_rejects_with_429_backpressure() {
    let cfg = ServeConfig {
        max_batch: 1,
        queue_depth: 1,
        fault: FaultPlan::default().with_stall_admission(Duration::from_millis(250)),
        ..ServeConfig::default()
    };
    let handle = start(cfg);
    let addr = handle.addr();
    wait_ready(addr);
    // Admission is stalled and the queue holds a single request: a burst
    // of four must bounce at least one off the bounded queue, instantly,
    // with a typed 429 — backpressure, not unbounded buffering.
    let burst: Vec<_> = (0..4u64)
        .map(|i| {
            std::thread::spawn(move || {
                client::post_json(addr, "/v1/generate", &gen_body(30 + i, 2)).unwrap()
            })
        })
        .collect();
    let (mut ok, mut bounced) = (0u64, 0u64);
    for t in burst {
        let (status, body) = t.join().unwrap();
        match status {
            200 => ok += 1,
            429 => {
                assert_eq!(error_body(&body).code, "queue_full");
                bounced += 1;
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(bounced >= 1, "a burst of 4 into a depth-1 queue must bounce");
    assert!(ok >= 1, "the queue must still drain the admitted requests");
    assert_eq!(healthz(addr).rejected, bounced);
    handle.shutdown();
}

#[test]
fn shutdown_drains_in_flight_work_and_rejects_the_rest() {
    let cfg = ServeConfig {
        max_batch: 1,
        queue_depth: 4,
        fault: FaultPlan::default().with_slow_step(Duration::from_millis(20)),
        ..ServeConfig::default()
    };
    let handle = start(cfg);
    let addr = handle.addr();
    wait_ready(addr);
    // A long request occupies the engine (max_batch 1)...
    let in_flight = std::thread::spawn(move || {
        client::post_json(addr, "/v1/generate", &gen_body(41, 15)).unwrap()
    });
    std::thread::sleep(Duration::from_millis(80));
    // ...a second one sits in the queue behind it...
    let queued = std::thread::spawn(move || {
        client::post_json(addr, "/v1/generate", &gen_body(42, 3)).unwrap()
    });
    std::thread::sleep(Duration::from_millis(30));
    // ...and the drain begins mid-batch.
    let (status, body) = client::post_json(addr, "/admin/shutdown", "").unwrap();
    assert_eq!(status, 202, "{body}");

    // New work is turned away at the door...
    let (status, body) = client::post_json(addr, "/v1/generate", &gen_body(43, 3)).unwrap();
    assert_eq!(status, 503, "{body}");
    assert_eq!(error_body(&body).code, "draining");
    // ...the queued-but-never-admitted request gets the same typed answer...
    let (status, body) = queued.join().unwrap();
    assert_eq!(status, 503, "{body}");
    assert_eq!(error_body(&body).code, "draining");
    // ...and the in-flight request finishes its remaining steps,
    // bit-identical, before the scheduler stops.
    let (status, body) = in_flight.join().unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(served_pixels(&body), solo_pixels(41, 15));

    let shared = handle.shared().clone();
    handle.shutdown();
    assert_eq!(shared.state(), ServerState::Stopped);
    assert_eq!(shared.healthz().completed, 1);
}

/// Waits for the lifecycle to reach `failed` (boot runs on the scheduler
/// thread, so the transition races the first probe).
fn wait_failed(handle: &ServerHandle) {
    let t0 = Instant::now();
    while handle.shared().state() != ServerState::Failed {
        assert!(t0.elapsed() < Duration::from_secs(10), "server never reached failed");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Drives the shared degraded-server checks: probes stay up, requests get
/// typed `model_unavailable` errors, `/metrics` carries the boot error,
/// and the server still drains cleanly.
fn assert_degraded_but_alive(handle: ServerHandle, reason_needle: &str) {
    let addr = handle.addr();
    wait_failed(&handle);

    // Readiness fails *with the reason*, not just a generic 503.
    let (status, body) = client::get(addr, "/readyz").unwrap();
    assert_eq!(status, 503, "{body}");
    let e = error_body(&body);
    assert_eq!(e.code, "model_unavailable");
    assert!(e.error.contains(reason_needle), "{}", e.error);

    // Requests are answered, typed, with the process intact.
    let (status, body) = client::post_json(addr, "/v1/generate", &gen_body(1, 4)).unwrap();
    assert_eq!(status, 500, "{body}");
    let e = error_body(&body);
    assert_eq!(e.code, "model_unavailable");
    assert!(e.error.contains(reason_needle), "{}", e.error);

    // /metrics exports every counter plus the boot error.
    let (status, body) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200, "{body}");
    let m: fpdq::serve::api::Metrics = serde_json::from_str(&body).unwrap();
    assert_eq!(m.health.state, "failed");
    assert!(m.boot_error.as_deref().unwrap_or("").contains(reason_needle), "{m:?}");
    assert!(m.health.rejected >= 1, "the failed generate must be counted");

    // The degraded loop's heartbeat keeps ticking — degraded, not wedged.
    let t1 = healthz(addr).ticks;
    let t0 = Instant::now();
    while healthz(addr).ticks == t1 {
        assert!(t0.elapsed() < Duration::from_secs(10), "degraded heartbeat froze");
        std::thread::sleep(Duration::from_millis(10));
    }

    // And it still shuts down like a healthy server.
    let shared = handle.shared().clone();
    handle.shutdown();
    assert_eq!(shared.state(), ServerState::Stopped);
}

#[test]
fn failed_model_load_degrades_the_server_instead_of_killing_it() {
    use fpdq::tensor::FpdqError;
    let handle = serve(ServeConfig::default(), || {
        Err::<Box<dyn ServeModel>, _>(FpdqError::corrupt("checksum mismatch in section 5"))
    })
    .expect("bind server");
    assert_degraded_but_alive(handle, "checksum mismatch");
}

#[test]
fn panicking_model_builder_is_a_boot_failure_not_a_dead_thread() {
    let build = || -> Result<Box<dyn ServeModel>, fpdq::tensor::FpdqError> {
        panic!("zoo cache is poisoned")
    };
    let handle = serve(ServeConfig::default(), build).expect("bind server");
    assert_degraded_but_alive(handle, "zoo cache is poisoned");
}

#[test]
fn serving_a_corrupt_container_path_stays_alive_with_failed_readyz() {
    // The operator path: `fpdq serve --model <path>` where the file is
    // garbage. The registry resolves the path eagerly; the *load* failure
    // happens on the scheduler thread and degrades the server.
    let dir = std::env::temp_dir().join("fpdq-serve-corrupt-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.fpdq");
    std::fs::write(&path, b"FPDQCNTR but then garbage").unwrap();
    let build = fpdq::serve::resolve(path.to_str().unwrap()).expect("paths resolve eagerly");
    let handle = serve(ServeConfig::default(), build).expect("bind server");
    assert_degraded_but_alive(handle, "container");
    std::fs::remove_dir_all(&dir).ok();
}

// ---- Conditional (text-to-image) serving ------------------------------

fn start_sd(cfg: ServeConfig) -> ServerHandle {
    serve(cfg, || Ok(Box::new(fpdq::serve::tiny_sd()) as Box<dyn ServeModel>)).expect("bind server")
}

/// The offline reference for a served `(seed, prompt, guidance)` triple:
/// [`fpdq::serve::tiny_sd`] rebuilds the same model every call, so a solo
/// batch-1 `generate_seeded` run gives the bytes the server must match.
fn sd_solo_pixels(seed: u64, prompt: &str, guidance: Option<f32>, steps: usize) -> Vec<u32> {
    let mut sim = fpdq::serve::tiny_sd();
    if let Some(g) = guidance {
        sim.guidance = g;
    }
    let img = sim.generate_seeded(&[prompt.to_string()], &[seed], steps, 1);
    img.data().iter().map(|v| v.to_bits()).collect()
}

fn sd_served_pixels(body: &str) -> Vec<u32> {
    served_pixels_sized(body, &[1, 3, 16, 16])
}

#[test]
fn served_sd_prompts_are_bit_identical_to_offline_runs() {
    let handle = start_sd(ServeConfig { max_batch: 3, ..ServeConfig::default() });
    let addr = handle.addr();
    wait_ready(addr);
    // Different prompts, seeds, step counts and guidance scales share
    // folded CFG batches at the scheduler's discretion; every image must
    // still be byte-for-byte the offline batch-1 run for its request.
    let specs: [(u64, usize, &str, Option<f32>); 4] = [
        (61, 6, "a red ball in a dark room", None),
        (62, 9, "a blue cube on a white floor", None),
        (63, 6, "a red ball in a dark room", Some(1.5)),
        (64, 4, "a green pyramid", Some(7.0)),
    ];
    let threads: Vec<_> = specs
        .iter()
        .map(|&(seed, steps, prompt, guidance)| {
            std::thread::spawn(move || {
                let g = guidance.map(|g| format!(r#", "guidance": {g}"#)).unwrap_or_default();
                let body =
                    format!(r#"{{"seed": {seed}, "steps": {steps}, "prompt": "{prompt}"{g}}}"#);
                client::post_json(addr, "/v1/generate", &body).unwrap()
            })
        })
        .collect();
    for (t, &(seed, steps, prompt, guidance)) in threads.into_iter().zip(&specs) {
        let (status, body) = t.join().unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            sd_served_pixels(&body),
            sd_solo_pixels(seed, prompt, guidance, steps),
            "seed {seed} prompt '{prompt}'"
        );
    }
    let h = healthz(addr);
    assert_eq!(h.completed, specs.len() as u64);
    assert_eq!(h.failed + h.evicted + h.rejected, 0);
    handle.shutdown();
}

#[test]
fn mixed_conditional_and_unconditional_requests_stay_isolated() {
    let handle = start_sd(ServeConfig { max_batch: 4, ..ServeConfig::default() });
    let addr = handle.addr();
    wait_ready(addr);
    // A prompt-less request on a conditional model samples the null
    // context (no CFG rows); it shares engine batches with guided
    // requests whose folds add extra rows. Neither may perturb the other.
    let guided = std::thread::spawn(move || {
        let body = r#"{"seed": 71, "steps": 7, "prompt": "a red ball in a dark room"}"#;
        client::post_json(addr, "/v1/generate", body).unwrap()
    });
    let uncond = std::thread::spawn(move || {
        client::post_json(addr, "/v1/generate", &gen_body(72, 7)).unwrap()
    });

    let (status, body) = guided.join().unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(sd_served_pixels(&body), sd_solo_pixels(71, "a red ball in a dark room", None, 7));

    // The offline reference for the prompt-less request: the empty
    // prompt encodes to the null context, and guidance 1 collapses the
    // fold to a single direct-context row.
    let (status, body) = uncond.join().unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(sd_served_pixels(&body), sd_solo_pixels(72, "", Some(1.0), 7));
    handle.shutdown();
}

#[test]
fn prompt_payload_errors_get_typed_400s_on_both_model_kinds() {
    // On a conditional model: structurally bad conditioning fields are
    // `bad_request`; well-typed but meaningless ones are
    // `invalid_argument` from admission.
    let handle = start_sd(ServeConfig::default());
    let addr = handle.addr();
    wait_ready(addr);
    for (bad, code) in [
        (r#"{"seed": 1, "steps": 4, "prompt": 7}"#, "bad_request"),
        (r#"{"seed": 1, "steps": 4, "prompt": ["a"]}"#, "bad_request"),
        (r#"{"seed": 1, "steps": 4, "guidance": "high"}"#, "bad_request"),
        (r#"{"seed": 1, "steps": 4, "guidance": 2.0}"#, "invalid_argument"),
        // Overflows f32 to ±inf: non-finite guidance would serve
        // non-finite pixels.
        (
            r#"{"seed": 1, "steps": 4, "prompt": "a red ball", "guidance": 1e39}"#,
            "invalid_argument",
        ),
        (
            r#"{"seed": 1, "steps": 4, "prompt": "a red ball", "guidance": -1e39}"#,
            "invalid_argument",
        ),
    ] {
        let (status, body) = client::post_json(addr, "/v1/generate", bad).unwrap();
        assert_eq!(status, 400, "{bad} -> {body}");
        assert_eq!(error_body(&body).code, code, "{bad}");
    }
    // The server shrugged it off and still serves prompts.
    let (status, body) = client::post_json(
        addr,
        "/v1/generate",
        r#"{"seed": 2, "steps": 3, "prompt": "a red ball in a dark room"}"#,
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(sd_served_pixels(&body), sd_solo_pixels(2, "a red ball in a dark room", None, 3));
    handle.shutdown();

    // On an unconditional model: conditioning fields of any kind are
    // rejected at admission with a typed `invalid_argument`.
    let handle = start(ServeConfig::default());
    let addr = handle.addr();
    wait_ready(addr);
    for bad in [
        r#"{"seed": 1, "steps": 4, "prompt": "a red ball"}"#,
        r#"{"seed": 1, "steps": 4, "guidance": 3.0}"#,
    ] {
        let (status, body) = client::post_json(addr, "/v1/generate", bad).unwrap();
        assert_eq!(status, 400, "{bad} -> {body}");
        assert_eq!(error_body(&body).code, "invalid_argument", "{bad}");
    }
    let (status, body) = client::post_json(addr, "/v1/generate", &gen_body(3, 4)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(served_pixels(&body), solo_pixels(3, 4));
    handle.shutdown();
}

#[test]
fn metrics_on_a_healthy_server_tracks_the_counters() {
    let handle = start(ServeConfig::default());
    let addr = handle.addr();
    wait_ready(addr);
    let (status, body) = client::post_json(addr, "/v1/generate", &gen_body(55, 3)).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200, "{body}");
    let m: fpdq::serve::api::Metrics = serde_json::from_str(&body).unwrap();
    assert_eq!(m.health.state, "ready");
    assert_eq!(m.health.completed, 1);
    assert_eq!(m.boot_error, None);
    handle.shutdown();
}
