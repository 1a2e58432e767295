//! The HTTP/1.1 server: one request per connection, one thread per
//! connection.
//!
//! One accept thread hands each connection to its own thread, which
//! parses a single HTTP/1.1 request, calls the handler (a plain
//! `Fn(&Request) -> Response`; it may block, e.g. on the scheduler's
//! reply, since no other connection shares the thread), writes the
//! response with `Connection: close`, and exits. Robustness guards are
//! built in so a misbehaving client cannot take the server down or wedge
//! a thread:
//!
//! * request line, header block and body are size-capped (413/431-style
//!   rejects mapped to 400/413); head lines are read through the remaining
//!   head budget, so an endless line is rejected once the cap is spent
//!   rather than buffered until a newline arrives,
//! * message framing is `content-length` only: a repeated
//!   `content-length` gets a `400` and any `transfer-encoding` a `501`
//!   (RFC 9112 §6.3, §6.1), never a misread body,
//! * a rejected request's unread bytes are drained briefly (lingering
//!   close) so the reply survives,
//! * sockets carry read/write timeouts, so a stalled peer times out
//!   instead of pinning a thread forever,
//! * malformed requests get a `400` response, never a panic,
//! * a handler panic is caught and mapped to a `500` response.
//!
//! Graceful shutdown: [`ServeHandle::shutdown`] stops accepting (waking
//! the blocked accept via a loopback connect) and then joins in-flight
//! connection threads.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Longest accepted request line + header block, in bytes.
const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Largest accepted request body, in bytes.
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Per-socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(20);
/// Longest a rejected request's remaining bytes are drained after the reply.
const LINGER: Duration = Duration::from_secs(1);

/// A parsed HTTP/1.1 request.
#[derive(Clone, Debug)]
pub struct Request {
    method: String,
    path: String,
    headers: HashMap<String, String>,
    body: Vec<u8>,
}

impl Request {
    /// Request method, uppercased (`GET`, `POST`, ...).
    pub fn method(&self) -> &str {
        &self.method
    }

    /// Request path including any query string.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Header value by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(&name.to_ascii_lowercase()).map(String::as_str)
    }

    /// Raw request body.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// A header-less request, for calling handlers without a socket.
    #[cfg(test)]
    pub(crate) fn new(method: &str, path: &str, body: &str) -> Request {
        let (method, path) = (method.to_string(), path.to_string());
        Request { method, path, headers: HashMap::new(), body: body.as_bytes().to_vec() }
    }
}

/// An HTTP response under construction.
#[derive(Clone, Debug)]
pub struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    /// An empty response with `status`.
    pub fn new(status: u16) -> Response {
        Response { status, headers: Vec::new(), body: Vec::new() }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Sets the body.
    pub fn with_body(mut self, body: impl Into<Vec<u8>>) -> Response {
        self.body = body.into();
        self
    }

    /// The status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The body bytes.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, reason(self.status));
        for (k, v) in &self.headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str(&format!("content-length: {}\r\nconnection: close\r\n\r\n", self.body.len()));
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    }
}

/// A bound, not-yet-serving HTTP server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: &SocketAddr) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server { listener, addr })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts serving `handler` on a background accept thread; each
    /// request is answered by calling it on that connection's thread.
    pub fn serve<H>(self, handler: H) -> ServeHandle
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let handler = Arc::new(handler);
        let stop = Arc::new(AtomicBool::new(false));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let accept_stop = stop.clone();
        let accept_in_flight = in_flight.clone();
        let addr = self.addr;
        let accept = std::thread::Builder::new()
            .name("http-accept".into())
            .spawn(move || {
                for conn in self.listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let handler = handler.clone();
                    let conn_in_flight = accept_in_flight.clone();
                    accept_in_flight.fetch_add(1, Ordering::SeqCst);
                    let spawned =
                        std::thread::Builder::new().name("http-conn".into()).spawn(move || {
                            handle_connection(stream, &*handler);
                            conn_in_flight.fetch_sub(1, Ordering::SeqCst);
                        });
                    if spawned.is_err() {
                        accept_in_flight.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            })
            .expect("cannot spawn accept thread");
        ServeHandle { addr, stop, in_flight, accept: Some(accept) }
    }
}

/// Handle to a running server; dropping it leaks the accept thread, call
/// [`ServeHandle::shutdown`] for an orderly stop.
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    in_flight: Arc<AtomicUsize>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes the accept loop, and waits (bounded) for
    /// in-flight connections to finish.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in `incoming`; poke it awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while self.in_flight.load(Ordering::SeqCst) > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

fn handle_connection(mut stream: TcpStream, handler: &(dyn Fn(&Request) -> Response + Sync)) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match read_request(&mut stream) {
        Ok(Some(req)) => {
            // A panicking handler degrades to a 500, never a dead server.
            match std::panic::catch_unwind(AssertUnwindSafe(|| handler(&req))) {
                Ok(resp) => resp,
                Err(_) => Response::new(500).with_body("handler panicked"),
            }
        }
        Ok(None) => return, // peer closed without sending a request
        Err(status) => {
            let body =
                if status == 501 { "transfer-encoding not supported" } else { "malformed request" };
            let _ = Response::new(status).with_body(body).write_to(&mut stream);
            discard_unread(&mut stream);
            return;
        }
    };
    let _ = response.write_to(&mut stream);
}

/// Lingering close after a rejected request: the rest of it may still be
/// arriving, and closing a socket with unread bytes resets the connection,
/// which can destroy the reply before the client reads it. Half-closes,
/// then reads and drops whatever arrives until the peer closes or
/// [`LINGER`] passes, through one fixed buffer.
fn discard_unread(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(LINGER));
    let deadline = std::time::Instant::now() + LINGER;
    let mut sink = [0u8; 8192];
    while std::time::Instant::now() < deadline {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Reads and parses one request. `Ok(None)` = clean EOF before any bytes;
/// `Err(status)` = protocol violation to answer with `status`.
///
/// The request line and every header line are read through the remaining
/// head budget ([`MAX_HEAD_BYTES`] in all), so a line that never ends
/// costs at most that many bytes of memory and is rejected as soon as the
/// budget runs out, without waiting for a newline.
fn read_request(stream: &mut TcpStream) -> Result<Option<Request>, u16> {
    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEAD_BYTES;
    let line = match read_head_line(&mut reader, &mut budget) {
        Ok(Some(line)) => line,
        Ok(None) | Err(None) => return Ok(None),
        Err(Some(status)) => return Err(status),
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(400);
    };
    if !version.starts_with("HTTP/1.") {
        return Err(400);
    }
    let method = method.to_ascii_uppercase();
    let path = path.to_string();

    let mut headers = HashMap::new();
    loop {
        let hline = match read_head_line(&mut reader, &mut budget) {
            Ok(Some(hline)) => hline,
            // EOF or an I/O error inside the header block.
            Ok(None) | Err(None) => return Err(400),
            Err(Some(status)) => return Err(status),
        };
        let trimmed = hline.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(400);
        };
        let name = name.trim().to_ascii_lowercase();
        // Two lengths leave the body's end ambiguous (RFC 9112 §6.3).
        if name == "content-length" && headers.contains_key(&name) {
            return Err(400);
        }
        headers.insert(name, value.trim().to_string());
    }
    // No transfer coding is implemented, and reading a coded body by
    // `content-length` would misframe it (RFC 9112 §6.1).
    if headers.contains_key("transfer-encoding") {
        return Err(501);
    }

    let content_length = match headers.get("content-length") {
        Some(v) => v.parse::<usize>().map_err(|_| 400u16)?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(413);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(|_| 400u16)?;
    }
    Ok(Some(Request { method, path, headers, body }))
}

/// Reads one `\n`-terminated head line, charging its bytes to `budget`.
/// `Ok(None)` = EOF before any byte; `Err(None)` = I/O error;
/// `Err(Some(400))` = the line did not end within the budget (or before
/// EOF), or is not UTF-8.
fn read_head_line(
    reader: &mut impl BufRead,
    budget: &mut usize,
) -> Result<Option<String>, Option<u16>> {
    let mut line = Vec::new();
    let n = reader.take(*budget as u64).read_until(b'\n', &mut line).map_err(|_| None)?;
    if n == 0 {
        return Ok(None);
    }
    if line.last() != Some(&b'\n') {
        return Err(Some(400));
    }
    *budget -= n;
    String::from_utf8(line).map(Some).map_err(|_| Some(400))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo(req: &Request) -> Response {
        let body = format!("{} {} {}", req.method(), req.path(), req.body().len());
        Response::new(200).with_header("x-test", "1").with_body(body)
    }

    fn raw_roundtrip(addr: SocketAddr, payload: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(payload.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_and_shuts_down() {
        let server = Server::bind(&"127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(echo);
        let resp = raw_roundtrip(addr, "POST /x HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("POST /x 3"), "{resp}");
        handle.shutdown();
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may accept the connection into the backlog briefly;
                // a write+read must fail or return nothing either way.
                let mut s = TcpStream::connect(addr).unwrap();
                let _ = s.write_all(b"GET / HTTP/1.1\r\n\r\n");
                let mut buf = String::new();
                s.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
                s.read_to_string(&mut buf).unwrap_or(0) == 0
            }
        );
    }

    #[test]
    fn malformed_request_line_gets_400() {
        let server = Server::bind(&"127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(echo);
        let resp = raw_roundtrip(addr, "NONSENSE\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        handle.shutdown();
    }

    #[test]
    fn bad_content_length_gets_400() {
        let server = Server::bind(&"127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(echo);
        for lengths in [
            "content-length: nope",
            "content-length: 0\r\ncontent-length: 3",
            "content-length: 3\r\ncontent-length: 0",
        ] {
            let resp = raw_roundtrip(addr, &format!("POST / HTTP/1.1\r\n{lengths}\r\n\r\nabc"));
            assert!(resp.starts_with("HTTP/1.1 400"), "{lengths}: {resp}");
        }
        handle.shutdown();
    }

    #[test]
    fn chunked_body_gets_501() {
        let server = Server::bind(&"127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(echo);
        let payload = "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
        let resp = raw_roundtrip(addr, payload);
        assert!(resp.starts_with("HTTP/1.1 501 Not Implemented"), "{resp}");
        handle.shutdown();
    }

    #[test]
    fn endless_request_line_gets_400_without_waiting_for_a_newline() {
        // Twice the head cap with no newline, socket kept open: the server
        // must answer 400 once the cap is spent, not buffer the line until
        // a newline or the I/O timeout.
        let server = Server::bind(&"127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(echo);
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let start = std::time::Instant::now();
        s.write_all(&vec![b'a'; 2 * MAX_HEAD_BYTES]).unwrap();
        let mut buf = [0u8; 12];
        s.read_exact(&mut buf).expect("a response within 2 s");
        assert_eq!(&buf, b"HTTP/1.1 400", "{}", String::from_utf8_lossy(&buf));
        assert!(start.elapsed() < Duration::from_secs(2), "{:?}", start.elapsed());
        drop(s);
        handle.shutdown();
    }

    #[test]
    fn oversized_header_block_gets_400() {
        let server = Server::bind(&"127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(echo);
        let header = format!("x-pad: {}\r\n", "b".repeat(1024));
        let payload = format!("GET / HTTP/1.1\r\n{}\r\n", header.repeat(MAX_HEAD_BYTES / 1024));
        let resp = raw_roundtrip(addr, &payload);
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        // A head just inside the cap still parses.
        let payload = format!("GET / HTTP/1.1\r\n{}\r\n", header.repeat(MAX_HEAD_BYTES / 1024 - 1));
        let resp = raw_roundtrip(addr, &payload);
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        handle.shutdown();
    }

    #[test]
    fn handler_panic_degrades_to_500() {
        let server = Server::bind(&"127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = server.local_addr();
        let handle = server.serve(|_req: &Request| -> Response { panic!("poisoned handler") });
        let resp = raw_roundtrip(addr, "GET / HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 500"), "{resp}");
        // The server survives and answers the next request.
        let resp = raw_roundtrip(addr, "GET / HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 500"), "{resp}");
        handle.shutdown();
    }
}
