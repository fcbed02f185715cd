//! Zero-dependency live introspection transport: a minimal blocking
//! HTTP/1.1 listener (std [`TcpListener`] only) that the threaded
//! [`crate::Server`] uses to answer `GET /metrics`, `/health`,
//! `/slo`, and `/spans` while traffic and fault campaigns are in
//! flight.
//!
//! The listener is deliberately tiny: one accept loop on a
//! non-blocking socket polled against the server's stop flag, one
//! short-lived connection per request (`Connection: close`), and
//! request parsing that reads only the request line. That is all four
//! read-only introspection endpoints need, and it keeps the serving
//! crate free of HTTP dependencies.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// One introspection response: status code, content type, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// HTTP status code (200, 404, 405, 503).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body, sent with an exact `Content-Length`.
    pub body: String,
}

impl HttpResponse {
    /// Builds a response.
    pub fn new(status: u16, content_type: &'static str, body: impl Into<String>) -> Self {
        HttpResponse {
            status,
            content_type,
            body: body.into(),
        }
    }

    /// The 404 fallback for unknown paths.
    pub fn not_found() -> Self {
        HttpResponse::new(404, "text/plain; charset=utf-8", "not found\n")
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Largest request head accepted before the connection is dropped.
const MAX_HEAD_BYTES: usize = 8192;

/// How long one read or write on a connection may block before the
/// connection is dropped.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// Reads one request head and returns `(method, path)` — the path
/// with any query string stripped. `None` on malformed or timed-out
/// input (the connection is simply dropped).
///
/// The request line can arrive split across arbitrarily many TCP
/// segments — one byte per segment in the worst case — so this loops
/// until the line's `\r\n` terminator shows up or the head exceeds
/// [`MAX_HEAD_BYTES`]. A connection that hits EOF, times out, or
/// errors before the terminator never delivered a complete request
/// line; the truncated prefix is *not* parsed.
fn read_request(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut data = Vec::new();
    let mut buf = [0u8; 512];
    let line_end = loop {
        if let Some(pos) = data.windows(2).position(|w| w == b"\r\n") {
            break pos;
        }
        if data.len() >= MAX_HEAD_BYTES {
            return None;
        }
        match stream.read(&mut buf) {
            Ok(0) => return None,
            Ok(n) => data.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    };
    let line = String::from_utf8_lossy(&data[..line_end]);
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?;
    let path = target.split('?').next().unwrap_or(target).to_string();
    Some((method, path))
}

fn write_response(stream: &mut TcpStream, resp: &HttpResponse) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

/// Accept loop: serves one request per connection through `route`
/// until `stop` reports true. The listener is switched to
/// non-blocking so the stop flag is polled every few milliseconds —
/// shutdown never waits on an idle socket — and each connection's
/// reads and writes time out after 500 ms, so it never waits long on a
/// stalled client either. Individual connection errors are swallowed
/// (the client sees a dropped connection; the server keeps serving).
pub fn serve_until(
    listener: TcpListener,
    stop: impl Fn() -> bool,
    route: impl Fn(&str, &str) -> HttpResponse,
) {
    let _ = listener.set_nonblocking(true);
    while !stop() {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_nonblocking(false);
                // Both directions time out: a client that stops
                // reading must not block the only connection thread,
                // which shutdown joins.
                let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
                let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                if let Some((method, path)) = read_request(&mut stream) {
                    let resp = route(&method, &path);
                    let _ = write_response(&mut stream, &resp);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn get(addr: std::net::SocketAddr, target: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_routed_responses_and_stops_on_flag() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                serve_until(
                    listener,
                    move || stop.load(Ordering::Acquire),
                    |method, path| match (method, path) {
                        ("GET", "/ping") => {
                            HttpResponse::new(200, "text/plain; charset=utf-8", "pong\n")
                        }
                        ("GET", _) => HttpResponse::not_found(),
                        _ => HttpResponse::new(405, "text/plain; charset=utf-8", "no\n"),
                    },
                )
            })
        };
        let ok = get(addr, "/ping?verbose=1");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.contains("Content-Length: 5\r\n"), "{ok}");
        assert!(ok.ends_with("pong\n"), "{ok}");
        let missing = get(addr, "/nope");
        assert!(
            missing.starts_with("HTTP/1.1 404 Not Found\r\n"),
            "{missing}"
        );
        stop.store(true, Ordering::Release);
        handle.join().unwrap();
    }

    /// Accepts one connection and runs `read_request` on it while the
    /// test body drives the client side of the socket pair.
    fn parse_one(client: impl FnOnce(TcpStream) + Send + 'static) -> Option<(String, String)> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || client(TcpStream::connect(addr).expect("connect")));
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let parsed = read_request(&mut stream);
        drop(stream); // EOF for a client blocked in read_to_end
        writer.join().unwrap();
        parsed
    }

    #[test]
    fn head_split_across_segments_is_reassembled() {
        // Worst-case segmentation: every byte of the head in its own
        // write, with the kernel given time to deliver them as
        // separate reads.
        let parsed = parse_one(|mut stream| {
            for byte in b"GET /split?x=1 HTTP/1.1\r\n" {
                stream.write_all(&[*byte]).unwrap();
                stream.flush().unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut out = Vec::new();
            let _ = stream.read_to_end(&mut out);
        });
        assert_eq!(parsed, Some(("GET".to_string(), "/split".to_string())));
    }

    #[test]
    fn truncated_request_line_is_dropped_not_parsed() {
        // The peer dies mid-request-line: no terminator ever arrives,
        // so the head must be rejected — not parsed as `GET /par`.
        let parsed = parse_one(|stream| {
            (&stream).write_all(b"GET /partial").unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
        });
        assert_eq!(parsed, None);
    }

    #[test]
    fn oversized_request_line_is_rejected() {
        let parsed = parse_one(|mut stream| {
            let long = vec![b'a'; MAX_HEAD_BYTES + 64];
            let _ = stream.write_all(b"GET /");
            let _ = stream.write_all(&long);
            let mut out = Vec::new();
            let _ = stream.read_to_end(&mut out);
        });
        assert_eq!(parsed, None);
    }
}
