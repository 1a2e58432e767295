//! A std-only HTTP/1.1 client and the `fpdq serve` process it drives.
//!
//! The load generator deliberately does not reuse `fpdq::serve::client`:
//! what measures the server must not change when the server's crate does.

use crate::stats::Outcome;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long one request may take before it counts as a timeout.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a server may take to become ready.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// A parsed response.
pub struct Response {
    /// HTTP status.
    pub status: u16,
    /// Body text (the server always answers JSON).
    pub body: String,
}

/// Sends one request on a fresh connection (the server closes after
/// each answer) and reads the response to its last byte.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "response is not UTF-8")
    })?;
    let status =
        text.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line")
        })?;
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok(Response { status, body })
}

/// Classifies a transport error as a timeout or a connection error.
pub fn error_outcome(e: &std::io::Error) -> Outcome {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => Outcome::Timeout,
        _ => Outcome::ConnError,
    }
}

/// The unsigned integer value of `"key":N` in a flat JSON object.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = body[at..].trim_start().chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The value of `"key":"..."` in a flat JSON object whose string holds
/// no escapes (true of `pixels_hex`).
pub fn json_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let len = body[at..].find('"')?;
    Some(&body[at..at + len])
}

/// Escapes a string for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The `/metrics` counters the benchmark reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Engine steps executed.
    pub steps: u64,
    /// Requests finished successfully.
    pub completed: u64,
    /// Requests failed by an engine panic.
    pub failed: u64,
    /// Requests rejected by backpressure.
    pub rejected: u64,
}

/// A running `fpdq serve` child. Dropping it kills the process.
pub struct Server {
    child: Child,
    // Held open so the server's last log line never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    /// Spawns `bin serve --model <container> --port 0` and waits for the
    /// first 200 from `/readyz`. Returns the server and the time from
    /// spawn to ready.
    pub fn start(bin: &Path, container: &Path) -> Result<(Server, Duration), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--model")
            .arg(container)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = None;
        let mut line = String::new();
        for _ in 0..16 {
            line.clear();
            if stdout.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            if let Some(addr) = line
                .split("listening on http://")
                .nth(1)
                .and_then(|rest| rest.trim().parse::<SocketAddr>().ok())
            {
                server = Some(Server { child, _stdout: stdout, addr });
                break;
            }
        }
        let Some(server) = server else {
            return Err("fpdq serve printed no listen address".to_string());
        };
        loop {
            if let Ok(r) = request(server.addr, "GET", "/readyz", "") {
                if r.status == 200 {
                    return Ok((server, t0.elapsed()));
                }
            }
            if t0.elapsed() > READY_TIMEOUT {
                return Err("fpdq serve did not become ready".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Reads the `/metrics` counters.
    pub fn counters(&self) -> Result<Counters, String> {
        let r = request(self.addr, "GET", "/metrics", "").map_err(|e| format!("/metrics: {e}"))?;
        let field = |k: &str| json_u64(&r.body, k).ok_or_else(|| format!("/metrics lacks '{k}'"));
        Ok(Counters {
            steps: field("steps")?,
            completed: field("completed")?,
            failed: field("failed")?,
            rejected: field("rejected")?,
        })
    }

    /// Peak resident memory of the server process so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Graceful drain through `POST /admin/shutdown`, then waits for the
    /// process to exit (killing it after a grace period).
    pub fn stop(mut self) {
        let _ = request(self.addr, "POST", "/admin/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Drop kills and reaps.
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_json_fields() {
        let body =
            r#"{"active":0,"completed":12,"steps": 240,"pixels_hex":"00ff","state":"ready"}"#;
        assert_eq!(json_u64(body, "completed"), Some(12));
        assert_eq!(json_u64(body, "steps"), Some(240));
        assert_eq!(json_u64(body, "missing"), None);
        assert_eq!(json_str(body, "pixels_hex"), Some("00ff"));
        assert_eq!(json_str(body, "state"), Some("ready"));
        assert_eq!(json_escape("a \"b\"\\\n"), "a \\\"b\\\"\\\\\\u000a");
    }
}
