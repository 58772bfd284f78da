//! Minimal blocking HTTP/1.1 client for `repro post`, `benchmark/` and
//! the tests. Nothing on a serving path uses it: the cluster router
//! forwards through the reactor's non-blocking exchanges
//! ([`crate::reactor::Io::exchange`]).
//!
//! Matches the server's dialect: requests ask for `Connection:
//! keep-alive`, bodies are delimited by `Content-Length` (with
//! read-to-EOF as the close-framed fallback), and responses are parsed
//! by the reactor's [`parse_response`]. Only `http://host:port/` URLs.
//!
//! Connection reuse is per thread: each thread keeps at most one open
//! connection per authority (`host:port`) in a thread-local pool, so the
//! tests' client threads reuse transparently with zero locking. A pooled
//! connection can go stale — the server may have closed it since (a
//! replica was killed, a keep-alive limit hit).
//! When a *reused* connection fails before yielding a single response
//! byte with a connection-shaped error (EOF, reset, broken pipe), the
//! request is retried once on a fresh connection; a fresh connection's
//! failure, or a timeout, surfaces immediately — a timed-out request may
//! have executed, and masking that would double-execute it.
//!
//! [`RetryPolicy`] is the router's retry budget for its upstream
//! exchanges (and the tests' for their retried GETs).

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::reactor::parse_response;
pub use crate::reactor::Response;

/// Default per-request socket timeout.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(60);

/// `(host:port, path?query)` from an `http://` URL.
fn split_url(url: &str) -> std::io::Result<(String, String)> {
    let rest = url.strip_prefix("http://").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("not an http:// url: {url}"))
    })?;
    let (authority, path) = match rest.split_once('/') {
        Some((a, p)) => (a.to_string(), format!("/{p}")),
        None => (rest.to_string(), "/".to_string()),
    };
    if authority.is_empty() {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, "empty host"));
    }
    Ok((authority, path))
}

fn connect(authority: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let addr = authority.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("unresolvable {authority}"))
    })?;
    TcpStream::connect_timeout(&addr, timeout)
}

thread_local! {
    /// One kept-alive connection per authority, per thread. Dropped with
    /// the thread, which closes the sockets — a test's client threads
    /// release their connections just by exiting.
    static KEEPALIVE: RefCell<HashMap<String, TcpStream>> = RefCell::new(HashMap::new());
}

fn take_pooled(authority: &str) -> Option<TcpStream> {
    KEEPALIVE.with(|p| p.borrow_mut().remove(authority))
}

fn park_pooled(authority: &str, stream: TcpStream) {
    KEEPALIVE.with(|p| {
        p.borrow_mut().insert(authority.to_string(), stream);
    });
}

/// A failure mode where the request provably never reached a handler:
/// the peer hung up before sending one response byte. Only these make a
/// pooled-connection retry safe for non-idempotent requests too.
fn stale_connection_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
            | ErrorKind::NotConnected
    )
}

/// Writes one request and reads one response on an established stream.
/// Returns the response and whether the connection is reusable (the
/// server answered `Connection: keep-alive` with length-framed body).
fn exchange(
    stream: &mut TcpStream,
    method: &str,
    authority: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(Response, bool)> {
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {authority}\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(req.as_bytes())?;
    stream.flush()?;

    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 && buf.is_empty() {
            return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "connection closed"));
        }
        buf.extend_from_slice(&chunk[..n]);
        let parsed = parse_response(&buf, n == 0)
            .map_err(|msg| std::io::Error::new(ErrorKind::InvalidData, msg))?;
        if let Some((response, _, reusable)) = parsed {
            return Ok((response, reusable));
        }
    }
}

/// Issues one request with a per-request socket `timeout` and reads the
/// full response: [`http_get`] and [`http_post`] with the default timeout.
pub fn request(
    method: &str,
    url: &str,
    body: Option<&str>,
    timeout: Duration,
) -> std::io::Result<Response> {
    let (authority, path) = split_url(url)?;
    // Reuse a kept-alive connection when one is parked; if the server
    // half-closed it since, fall through to a fresh connect exactly once.
    if let Some(mut stream) = take_pooled(&authority) {
        let ready = stream.set_read_timeout(Some(timeout)).is_ok()
            && stream.set_write_timeout(Some(timeout)).is_ok();
        if ready {
            match exchange(&mut stream, method, &authority, &path, body) {
                Ok((response, reusable)) => {
                    if reusable {
                        park_pooled(&authority, stream);
                    }
                    return Ok(response);
                }
                Err(e) if stale_connection_error(&e) => {} // reconnect below
                Err(e) => return Err(e),
            }
        }
    }
    let mut stream = connect(&authority, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let (response, reusable) = exchange(&mut stream, method, &authority, &path, body)?;
    if reusable {
        park_pooled(&authority, stream);
    }
    Ok(response)
}

/// Issues a GET and reads the full response.
pub fn http_get(url: &str) -> std::io::Result<Response> {
    request("GET", url, None, DEFAULT_TIMEOUT)
}

/// Issues a POST with a body and reads the full response.
pub fn http_post(url: &str, body: &str) -> std::io::Result<Response> {
    request("POST", url, Some(body), DEFAULT_TIMEOUT)
}

// ---------------------------------------------------------------------
// Retry
// ---------------------------------------------------------------------

/// Retry budget: backoff pacing, attempts and the per-attempt timeout.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// First backoff delay, milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling, milliseconds. The tests' retried GET also caps
    /// an honored `Retry-After` at it (advertised in whole seconds, which
    /// would otherwise dominate a short load run).
    pub cap_ms: u64,
    /// Retries after the initial attempt.
    pub max_retries: u32,
    /// Per-attempt socket timeout.
    pub timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { base_ms: 20, cap_ms: 250, max_retries: 4, timeout: DEFAULT_TIMEOUT }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_splitting() {
        assert_eq!(
            split_url("http://127.0.0.1:8080/eval?x=1").unwrap(),
            ("127.0.0.1:8080".to_string(), "/eval?x=1".to_string())
        );
        assert_eq!(
            split_url("http://localhost:9").unwrap(),
            ("localhost:9".to_string(), "/".to_string())
        );
        assert!(split_url("https://secure").is_err());
        assert!(split_url("ftp://x").is_err());
        assert!(split_url("http:///path").is_err());
    }

    #[test]
    fn retry_after_header_parses() {
        let r = Response {
            status: 503,
            headers: vec![("Retry-After".into(), "1".into())],
            body: String::new(),
        };
        assert_eq!(r.retry_after_secs(), Some(1));
        let none = Response { status: 200, headers: vec![], body: String::new() };
        assert_eq!(none.retry_after_secs(), None);
    }

    #[test]
    fn one_thread_rides_one_keepalive_connection() {
        // Plain GETs and timed requests from a single thread must all
        // reuse the same pooled connection; the server's accepted-count
        // gauge is the witness.
        let s = crate::server::start(crate::server::ServeConfig {
            port: 0,
            workers: 2,
            queue: 8,
            cache_capacity: 64,
        })
        .unwrap();
        let base = format!("http://{}", s.addr());
        for _ in 0..3 {
            assert_eq!(http_get(&format!("{base}/healthz")).unwrap().status, 200);
        }
        // A request with its own timeout (a retried GET's attempt) too.
        let timeout = RetryPolicy::default().timeout;
        assert_eq!(request("GET", &format!("{base}/healthz"), None, timeout).unwrap().status, 200);
        let m = http_get(&format!("{base}/metrics")).unwrap();
        let doc = hec_core::json::Json::parse(&m.body).unwrap();
        let accepted = doc
            .get("connections")
            .and_then(|c| c.get("accepted"))
            .and_then(|v| v.as_f64())
            .unwrap();
        assert_eq!(accepted, 1.0, "five requests on one thread must ride one connection");
        let keepalive = doc
            .get("connections")
            .and_then(|c| c.get("keepalive_requests"))
            .and_then(|v| v.as_f64())
            .unwrap();
        // The gauge is bumped at completion delivery, *after* the handler
        // snapshots /metrics — so the metrics request itself is not yet
        // counted. Requests 2..=4 are.
        assert!(keepalive >= 3.0, "requests beyond the first are keep-alive wins: {keepalive}");
        s.shutdown();
        s.join();
    }

    #[test]
    fn stale_pooled_connection_falls_back_to_reconnect() {
        // Mock server: each accepted connection answers exactly one
        // keep-alive response and then closes — a server half-closing a
        // kept-alive connection mid-burst. The client must absorb the
        // stale-connection failure by reconnecting once, invisibly.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut accepted = 0usize;
            for stream in listener.incoming().take(2) {
                let mut s = stream.unwrap();
                accepted += 1;
                let mut buf = [0u8; 2048];
                let _ = std::io::Read::read(&mut s, &mut buf);
                let _ = s.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok",
                );
            }
            accepted
        });
        let url = format!("http://{addr}/x");
        let r1 = http_get(&url).unwrap();
        assert_eq!((r1.status, r1.body.as_str()), (200, "ok"));
        // The pooled connection is now half-closed server-side; the
        // second request must still succeed, on a fresh connection.
        let r2 = http_get(&url).unwrap();
        assert_eq!((r2.status, r2.body.as_str()), (200, "ok"));
        assert_eq!(server.join().unwrap(), 2, "fallback must have dialed a second connection");
    }

    #[test]
    fn close_framed_responses_are_not_pooled() {
        // A server answering `Connection: close` (or without length
        // framing) must not leave its stream in the pool.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut accepted = 0usize;
            for stream in listener.incoming().take(2) {
                let mut s = stream.unwrap();
                accepted += 1;
                let mut buf = [0u8; 2048];
                let _ = std::io::Read::read(&mut s, &mut buf);
                let _ = s.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
                );
            }
            accepted
        });
        let url = format!("http://{addr}/x");
        assert_eq!(http_get(&url).unwrap().status, 200);
        assert_eq!(http_get(&url).unwrap().status, 200);
        assert_eq!(server.join().unwrap(), 2, "close-framed connections must not be reused");
    }
}
