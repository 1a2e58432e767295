#!/usr/bin/env python3
"""Serve-layer smoke for CI.

Five phases, each asserting a robustness contract from the outside:

1. **Fault injection**: boots ``fpdq serve`` on the zoo-free tiny model
   with an armed fault plan and drives concurrent requests — one of
   which opts into the injected engine panic. The server never dies, the
   faulted request gets a typed ``engine_panic`` error, the rest
   complete with pixel payloads, and ``/healthz`` flips
   ready -> draining -> stopped across a graceful shutdown (exit 0).

2. **Container round trip**: ``fpdq pack --model tiny --verify`` writes
   and re-validates a ``.fpdq`` container, ``fpdq generate`` samples
   from it without re-quantizing, and ``fpdq serve --model <path>``
   serves it (ready ``/readyz``, 200 generations, ``/metrics``).

3. **Corruption guards**: truncated and bit-flipped copies of that
   container make ``fpdq generate`` exit 1 with a typed error and no
   output file, and leave ``fpdq serve`` alive-but-degraded: failing
   ``/readyz``, typed 500s on generate, nonzero exit after shutdown.

4. **Conditional (sd) round trip**: ``fpdq pack --model tiny-sd``
   writes a text-to-image container, ``fpdq generate --prompt --seeds
   --raw-out`` samples it offline to raw bytes, and a server booted on
   the same container answers a ``(seed, prompt)`` request with
   **byte-identical** pixels — the served folded-CFG path against the
   offline pipeline. Guidance without a prompt gets a typed 400.

5. **CLI guard rails**: ``generate --count 0``, ``serve --queue-depth
   0`` and ``generate --prompt`` on the unconditional container each exit
   1 within 10 s with a message, no panic and no output file.

The container-serving phase also probes the HTTP head cap: 1 MiB of
request line with no newline gets a 400 within 5 s (the server stops
reading at the cap instead of buffering until a newline), and the server
stays ready afterwards.

Usage: ``python3 scripts/serve_smoke.py [path/to/fpdq]``
"""

import json
import os
import re
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

BINARY = sys.argv[1] if len(sys.argv) > 1 else "target/release/fpdq"
REQUESTS = 5  # concurrent healthy requests
STEPS = 4


def http(method, url, body=None):
    """Returns (status, parsed-json-body)."""
    req = urllib.request.Request(url, data=body, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as e:
        return e.code, json.load(e)


def boot_server(extra_args=(), env_extra=None):
    """Starts ``fpdq serve`` and returns (proc, base_url)."""
    proc = subprocess.Popen(
        [BINARY, "serve", "--port", "0", "--max-batch", "4", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, **(env_extra or {})},
    )
    # The CLI resolves --port 0 and prints the bound address (after any
    # banner lines).
    m = line = None
    for _ in range(10):
        line = proc.stdout.readline()
        m = re.search(r"listening on (http://\S+)", line)
        if m:
            break
    assert m, f"no listen line, last got: {line!r}"
    return proc, m.group(1)


def wait_ready(proc, base):
    deadline = time.time() + 60
    while True:
        assert proc.poll() is None, "server died during startup"
        assert time.time() < deadline, "server never became ready"
        try:
            status, health = http("GET", f"{base}/readyz")
            if status == 200:
                return health
        except OSError:
            pass
        time.sleep(0.1)


def fault_injection_smoke():
    proc, base = boot_server(env_extra={"FPDQ_FAULT": "panic:boom@1"})
    try:
        print(f"serving at {base}")
        health = wait_ready(proc, base)
        assert health["state"] == "ready", health

        # Concurrent traffic: REQUESTS healthy seeds plus one request that
        # detonates the engine at its second step.
        results = {}

        def generate(name, payload):
            body = json.dumps(payload).encode()
            results[name] = http("POST", f"{base}/v1/generate", body)

        threads = [
            threading.Thread(
                target=generate, args=(f"ok{i}", {"seed": i, "steps": STEPS})
            )
            for i in range(REQUESTS)
        ]
        threads.append(
            threading.Thread(
                target=generate,
                args=("boom", {"seed": 99, "steps": STEPS, "fault_tag": "boom"}),
            )
        )
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        status, body = results["boom"]
        assert status == 500, (status, body)
        assert body["code"] == "engine_panic", body
        for i in range(REQUESTS):
            status, body = results[f"ok{i}"]
            assert status == 200, (status, body)
            assert len(body["pixels_hex"]) == 1 * 3 * 8 * 8 * 8, body["seed"]
        assert proc.poll() is None, "server died under the injected panic"

        status, health = http("GET", f"{base}/healthz")
        assert status == 200 and health["state"] == "ready", health
        assert health["completed"] == REQUESTS, health
        assert health["failed"] == 1, health

        # The counters are also exported on /metrics, with the boot error
        # slot empty on a healthy boot.
        status, metrics = http("GET", f"{base}/metrics")
        assert status == 200, (status, metrics)
        assert metrics["completed"] == REQUESTS, metrics
        assert metrics.get("boot_error") is None, metrics

        # Graceful shutdown: draining on the wire, stopped in the exit.
        status, health = http("POST", f"{base}/admin/shutdown", b"")
        assert status == 202, (status, health)
        assert health["state"] == "draining", health
        proc.wait(timeout=30)
        tail = proc.stdout.read()
        assert proc.returncode == 0, (proc.returncode, tail)
        assert "stopped" in tail, tail
        print(
            f"serve smoke OK: {REQUESTS} served, 1 isolated panic, "
            "clean ready->draining->stopped shutdown"
        )
    finally:
        if proc.poll() is None:
            proc.kill()


def oversized_head_probe(base):
    """1 MiB of request line with no newline, socket left open: the server
    answers 400 once its head cap is spent, within 5 s, and stays ready."""
    host, port = re.match(r"http://([^:/]+):(\d+)", base).groups()
    start = time.time()
    with socket.create_connection((host, int(port)), timeout=5) as sock:

        def send():
            try:
                sock.sendall(b"a" * (1 << 20))
            except OSError:
                pass  # the server may stop reading once it has answered

        sender = threading.Thread(target=send)
        sender.start()
        reply = b""
        while len(reply) < 12:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
        elapsed = time.time() - start
        sender.join()
    assert reply.startswith(b"HTTP/1.1 400"), reply[:64]
    assert elapsed < 5, f"400 took {elapsed:.1f}s"
    status, health = http("GET", f"{base}/readyz")
    assert status == 200, (status, health)
    print(f"head cap OK: 1 MiB request line -> 400 in {elapsed:.2f}s, still ready")


def pack_container(tmp):
    """Packs the tiny model with full verification; returns the path."""
    container = os.path.join(tmp, "tiny_fp8.fpdq")
    out = subprocess.run(
        [BINARY, "pack", "--model", "tiny", "--config", "fp8",
         "--out", container, "--verify"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, (out.returncode, out.stdout, out.stderr)
    assert "verify OK" in out.stdout, out.stdout
    assert os.path.getsize(container) > 0
    print(f"pack smoke OK: {container} ({os.path.getsize(container)} bytes)")
    return container


def assert_all_fused(stdout, layers):
    """Every packed layer of a loaded container quantizes in its kernel,
    the split skip-connection convs included."""
    m = re.search(r"loaded container: (\d+) layers packed \((\d+) fused act\)", stdout)
    assert m, stdout
    assert (int(m.group(1)), int(m.group(2))) == (layers, layers), m.group(0)


def container_roundtrip_smoke(tmp, container):
    # Offline sampling from the container: no calibration, no
    # re-quantization, just load + generate.
    out_dir = os.path.join(tmp, "gen")
    out = subprocess.run(
        [BINARY, "generate", "--model", container, "--count", "1",
         "--batch", "1", "--out", out_dir],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, (out.returncode, out.stdout, out.stderr)
    assert_all_fused(out.stdout, 67)
    ppm = os.path.join(out_dir, "tiny_fp8_packed.ppm")
    assert os.path.getsize(ppm) > 0, os.listdir(out_dir)

    # Serving from the container.
    proc, base = boot_server(extra_args=["--model", container])
    try:
        health = wait_ready(proc, base)
        assert health["state"] == "ready", health
        status, body = http(
            "POST", f"{base}/v1/generate",
            json.dumps({"seed": 7, "steps": STEPS}).encode(),
        )
        assert status == 200, (status, body)
        assert len(body["pixels_hex"]) == 1 * 3 * 8 * 8 * 8, body
        status, metrics = http("GET", f"{base}/metrics")
        assert status == 200 and metrics["state"] == "ready", metrics
        oversized_head_probe(base)
        status, health = http("POST", f"{base}/admin/shutdown", b"")
        assert status == 202, (status, health)
        proc.wait(timeout=30)
        assert proc.returncode == 0, (proc.returncode, proc.stdout.read())
        print("container round-trip OK: pack -> generate -> serve, all green")
    finally:
        if proc.poll() is None:
            proc.kill()


def corrupt_copies(tmp, container):
    """Returns (truncated, bit_flipped) copies of the container."""
    data = open(container, "rb").read()
    truncated = os.path.join(tmp, "truncated.fpdq")
    with open(truncated, "wb") as f:
        f.write(data[: len(data) // 2])
    flipped = os.path.join(tmp, "flipped.fpdq")
    body = bytearray(data)
    body[len(body) // 2] ^= 0x40  # one bit, deep in a payload section
    with open(flipped, "wb") as f:
        f.write(bytes(body))
    return truncated, flipped


def corruption_guard_smoke(tmp, container):
    truncated, flipped = corrupt_copies(tmp, container)

    # CLI guard: generate on a corrupt container is a typed error, exit
    # 1, and no output file is ever written.
    for name, bad in (("truncated", truncated), ("bit-flipped", flipped)):
        out_dir = os.path.join(tmp, f"gen-{name}")
        out = subprocess.run(
            [BINARY, "generate", "--model", bad, "--count", "1", "--out", out_dir],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert out.returncode == 1, (name, out.returncode, out.stdout, out.stderr)
        assert "cannot load container" in out.stderr, (name, out.stderr)
        assert "container" in out.stderr, (name, out.stderr)
        assert not os.path.exists(out_dir), f"{name}: output written on failure"
        print(f"corruption guard OK ({name}): exit 1, typed error, no output")

    # Serve guard: a corrupt --model leaves the process alive and
    # probeable — failing /readyz with the boot reason, typed 500s on
    # generate — and the exit code after shutdown is nonzero.
    proc, base = boot_server(extra_args=["--model", truncated])
    try:
        deadline = time.time() + 60
        while True:
            assert proc.poll() is None, "server died instead of degrading"
            assert time.time() < deadline, "server never reported the boot failure"
            status, body = http("GET", f"{base}/readyz")
            if status == 503 and body.get("code") == "model_unavailable":
                break
            time.sleep(0.1)
        assert "container" in body["error"], body
        status, body = http(
            "POST", f"{base}/v1/generate",
            json.dumps({"seed": 1, "steps": STEPS}).encode(),
        )
        assert status == 500 and body["code"] == "model_unavailable", (status, body)
        status, metrics = http("GET", f"{base}/metrics")
        assert status == 200 and metrics["state"] == "failed", metrics
        assert metrics["boot_error"], metrics
        status, health = http("POST", f"{base}/admin/shutdown", b"")
        assert status == 202, (status, health)
        proc.wait(timeout=30)
        tail = proc.stdout.read()
        assert proc.returncode != 0, (proc.returncode, tail)
        print("corruption guard OK (serve): degraded-but-alive, nonzero exit")
    finally:
        if proc.poll() is None:
            proc.kill()


def cli_guard_smoke(tmp, container):
    """Invalid CLI input is a message and exit 1, never a panic (exit 101)
    or an output file."""
    out_dir = os.path.join(tmp, "gen-guard")
    cases = [
        ("generate --count 0",
         ["generate", "--model", container, "--count", "0", "--out", out_dir],
         "invalid value '0' for --count"),
        ("serve --queue-depth 0",
         ["serve", "--port", "0", "--queue-depth", "0"],
         "invalid value '0' for --queue-depth"),
        ("generate --prompt on an unconditional model",
         ["generate", "--model", container, "--seeds", "1", "--prompt", "x",
          "--out", out_dir],
         "this model is unconditional"),
    ]
    for name, args, message in cases:
        start = time.time()
        out = subprocess.run(
            [BINARY, *args], capture_output=True, text=True, timeout=10
        )
        elapsed = time.time() - start
        assert out.returncode == 1, (name, out.returncode, out.stdout, out.stderr)
        assert "panicked" not in out.stderr, (name, out.stderr)
        assert message in out.stderr, (name, out.stderr)
        assert not os.path.exists(out_dir), f"{name}: output written on failure"
        print(f"cli guard OK ({name}): exit 1 in {elapsed:.2f}s, no panic")


SD_PROMPT = "a red ball in a dark room"
SD_SEED = 7
# Offline `generate` runs min(20, schedule steps) = 20 steps for the
# tiny-sd container; the served request must match to compare bytes.
SD_STEPS = 20


def sd_roundtrip_smoke(tmp):
    # Pack the conditional tiny-sd pipeline (tokenizer + text encoder +
    # autoencoder ride along full-precision in TEXT_PARAMS/AE_PARAMS).
    container = os.path.join(tmp, "tiny_sd_fp8.fpdq")
    out = subprocess.run(
        [BINARY, "pack", "--model", "tiny-sd", "--config", "fp8",
         "--out", container, "--verify"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, (out.returncode, out.stdout, out.stderr)
    assert "verify OK" in out.stdout, out.stdout

    # Offline reference: raw little-endian f32 pixels for (seed, prompt).
    raw = os.path.join(tmp, "sd_offline.bin")
    out = subprocess.run(
        [BINARY, "generate", "--model", container, "--prompt", SD_PROMPT,
         "--seeds", str(SD_SEED), "--batch", "1", "--raw-out", raw,
         "--out", os.path.join(tmp, "sd-gen")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, (out.returncode, out.stdout, out.stderr)
    assert_all_fused(out.stdout, 83)
    offline = open(raw, "rb").read()
    assert len(offline) == 1 * 3 * 16 * 16 * 4, len(offline)

    # Served path: same container, same (seed, prompt), folded CFG in
    # the shared engine batch. pixels_hex is the same bytes hex-encoded.
    proc, base = boot_server(extra_args=["--model", container])
    try:
        health = wait_ready(proc, base)
        assert health["state"] == "ready", health
        status, body = http(
            "POST", f"{base}/v1/generate",
            json.dumps({"seed": SD_SEED, "steps": SD_STEPS,
                        "prompt": SD_PROMPT}).encode(),
        )
        assert status == 200, (status, body)
        served = bytes.fromhex(body["pixels_hex"])
        assert served == offline, (
            f"served sd pixels diverge from offline: {len(served)} vs "
            f"{len(offline)} bytes, first diff at "
            f"{next((i for i, (a, b) in enumerate(zip(served, offline)) if a != b), -1)}"
        )

        # Conditioning contract: guidance is meaningless without a
        # prompt — typed 400, and the server keeps serving afterwards.
        status, body = http(
            "POST", f"{base}/v1/generate",
            json.dumps({"seed": 8, "steps": SD_STEPS, "guidance": 2.0}).encode(),
        )
        assert status == 400 and body["code"] == "invalid_argument", (status, body)

        status, health = http("POST", f"{base}/admin/shutdown", b"")
        assert status == 202, (status, health)
        proc.wait(timeout=30)
        assert proc.returncode == 0, (proc.returncode, proc.stdout.read())
        print(
            "sd round-trip OK: served (seed, prompt) byte-identical to "
            f"offline ({len(offline)} bytes), guidance-sans-prompt typed 400"
        )
    finally:
        if proc.poll() is None:
            proc.kill()


def main():
    fault_injection_smoke()
    tmp = tempfile.mkdtemp(prefix="fpdq-smoke-")
    try:
        container = pack_container(tmp)
        container_roundtrip_smoke(tmp, container)
        corruption_guard_smoke(tmp, container)
        cli_guard_smoke(tmp, container)
        sd_roundtrip_smoke(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
