//! HTTP/1.1 keep-alive protocol conformance for the reactor core
//! (ISSUE 8), table-driven against a live listener with raw sockets:
//! `Connection` negotiation across HTTP versions, pipelined-request
//! ordering, slow byte-at-a-time writers, oversized-header rejection,
//! and a mid-request abort that must not hurt the listener.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use hec_core::json::Json;
use hec_serve::request::Point;
use hec_serve::server::{self, point_response_body, ServeConfig, Server};

fn start() -> Server {
    server::start(ServeConfig { port: 0, workers: 2, queue: 32, cache_capacity: 64 })
        .expect("bind ephemeral port")
}

fn connect(s: &Server) -> (TcpStream, BufReader<TcpStream>) {
    let w = TcpStream::connect(s.addr()).unwrap();
    w.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    w.set_nodelay(true).unwrap();
    let r = BufReader::new(w.try_clone().unwrap());
    (w, r)
}

struct Response {
    status: u16,
    connection: String,
    body: String,
}

/// Reads one framed response; returns `None` on clean EOF before the
/// status line (the server closed the connection).
fn read_response(r: &mut BufReader<TcpStream>) -> Option<Response> {
    let mut status_line = String::new();
    if r.read_line(&mut status_line).unwrap() == 0 {
        return None;
    }
    let status = status_line.split_whitespace().nth(1).unwrap().parse().unwrap();
    let (mut len, mut connection) = (0usize, String::new());
    loop {
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let lower = line.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:") {
            len = v.trim().parse().unwrap();
        }
        if let Some(v) = lower.strip_prefix("connection:") {
            connection = v.trim().to_string();
        }
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).unwrap();
    Some(Response { status, connection, body: String::from_utf8(body).unwrap() })
}

#[test]
fn connection_negotiation_follows_the_http_version_defaults() {
    // (request version, Connection request header, server must keep).
    let table: &[(&str, Option<&str>, bool)] = &[
        ("HTTP/1.1", None, true),               // 1.1 defaults to keep-alive
        ("HTTP/1.1", Some("keep-alive"), true), // explicit keep
        ("HTTP/1.1", Some("close"), false),     // 1.1 opts out
        ("HTTP/1.0", None, false),              // 1.0 defaults to close
        ("HTTP/1.0", Some("keep-alive"), true), // 1.0 opts in
        ("HTTP/1.0", Some("close"), false),
    ];
    let s = start();
    for &(version, header, keep) in table {
        let label = format!("{version} / {header:?}");
        let (mut w, mut r) = connect(&s);
        let hdr = header.map(|h| format!("Connection: {h}\r\n")).unwrap_or_default();
        let req = format!("GET /healthz {version}\r\n{hdr}\r\n");
        w.write_all(req.as_bytes()).unwrap();
        let resp = read_response(&mut r).unwrap_or_else(|| panic!("{label}: no response"));
        assert_eq!(resp.status, 200, "{label}");
        assert_eq!(
            resp.connection,
            if keep { "keep-alive" } else { "close" },
            "{label}: response header must state the negotiated outcome"
        );
        if keep {
            // The connection must survive a second request.
            w.write_all(format!("GET /healthz {version}\r\n{hdr}\r\n").as_bytes()).unwrap();
            let again = read_response(&mut r).unwrap_or_else(|| panic!("{label}: conn was closed"));
            assert_eq!(again.status, 200, "{label}: second request on kept connection");
        } else {
            // The server must actively close: next read sees EOF.
            assert!(read_response(&mut r).is_none(), "{label}: connection should be closed");
        }
    }
    s.shutdown();
    s.join();
}

#[test]
fn pipelined_requests_answer_in_order_with_exact_bytes() {
    let eval = |query: &str| {
        let p = Point::from_query(query).unwrap();
        (format!("/eval?{query}"), point_response_body(&p, p.eval()))
    };
    let x1 = eval("app=gtc&platform=x1msp&procs=256");
    let power3 = eval("app=gtc&platform=power3&procs=256");
    let fvcam = eval("app=fvcam&platform=power3&procs=256&pz=4");
    assert_ne!(x1.1, power3.1, "the pipelined responses must be distinguishable");
    let healthz = ("/healthz".to_string(), Json::obj([("ok", Json::Bool(true))]).emit_pretty());
    // A pooled request between inline ones: its answer must still come
    // back in its place, and nothing after it may overtake it.
    let sleep = (
        "/debug/sleep?ms=30".to_string(),
        Json::obj([("slept_ms", Json::Num(30.0))]).emit_pretty(),
    );
    // (label, pipelined (target, expected body) pairs; the last request
    // of a case carries `Connection: close` when the flag says so).
    let table = [
        ("two evals", vec![x1.clone(), power3.clone()], false),
        ("mixed inline and pooled", vec![x1, sleep, power3, healthz, fvcam], true),
    ];
    let s = start();
    for (label, steps, close_last) in table {
        let (mut w, mut r) = connect(&s);
        let mut wire = String::new();
        for (i, (target, _)) in steps.iter().enumerate() {
            let close = close_last && i + 1 == steps.len();
            let hdr = if close { "Connection: close\r\n" } else { "" };
            wire.push_str(&format!("GET {target} HTTP/1.1\r\n{hdr}\r\n"));
        }
        w.write_all(wire.as_bytes()).unwrap();
        for (i, (target, body)) in steps.iter().enumerate() {
            let resp = read_response(&mut r).unwrap_or_else(|| panic!("{label}: no answer {i}"));
            assert_eq!(resp.status, 200, "{label}: {target}");
            assert_eq!(&resp.body, body, "{label}: answer {i} out of order or drifted");
            let close = close_last && i + 1 == steps.len();
            assert_eq!(resp.connection, if close { "close" } else { "keep-alive" }, "{label}");
        }
        if close_last {
            assert!(read_response(&mut r).is_none(), "{label}: connection must close");
        }
    }
    s.shutdown();
    s.join();
}

/// A client that pipelines `/sweep` heads until its send blocks and then
/// reads nothing cannot stall another connection. (That its connection
/// holds at most `MAX_REQUEST_BYTES` plus one response of output is
/// `hec_serve::reactor`'s own `pending_output_stops_at_the_cap_plus_one_answer`.)
#[test]
fn a_client_that_pipelines_and_never_reads_stalls_nobody() {
    let s = start();
    let (mut w, r) = connect(&s);
    w.set_nonblocking(true).unwrap();
    let burst = b"GET /sweep?app=gtc HTTP/1.1\r\n\r\n".repeat(1024);
    let mut off = 0;
    loop {
        match w.write(&burst[off..]) {
            Ok(n) => off = (off + n) % burst.len(),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) => panic!("hostile client's send failed: {e}"),
        }
    }

    // While the server still has thousands of sweeps queued on the first
    // connection, and again once the client has read nothing for 200 ms.
    let (mut w2, mut r2) = connect(&s);
    for pause in [Duration::ZERO, Duration::from_millis(200)] {
        std::thread::sleep(pause);
        let t = std::time::Instant::now();
        w2.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let healthz = read_response(&mut r2).expect("a second connection is still answered");
        assert_eq!(healthz.status, 200);
        let waited = t.elapsed();
        assert!(waited < Duration::from_secs(1), "second connection waited {waited:?}");
    }
    // Closing both halves lets the server drop the connection, which a
    // graceful stop would otherwise wait on.
    drop((w, r));
    s.shutdown();
    s.join();
}

#[test]
fn byte_at_a_time_writer_is_served() {
    // A slow client trickling one byte per write exercises every
    // partial-parse resumption path in the reactor's read state.
    let s = start();
    let (mut w, mut r) = connect(&s);
    for b in b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n" {
        w.write_all(&[*b]).unwrap();
        w.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let resp = read_response(&mut r).expect("slow request still answered");
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("ok"));
    s.shutdown();
    s.join();
}

#[test]
fn oversized_header_is_rejected_with_400_and_close() {
    let s = start();
    let (mut w, mut r) = connect(&s);
    let prefix = b"GET /healthz HTTP/1.1\r\nX-Flood: ";
    w.write_all(prefix).unwrap();
    // Fill the head to exactly MAX_REQUEST_BYTES without ever
    // terminating it: the cap trips the moment the last byte lands,
    // and the server has consumed every byte we sent — so its close
    // is a clean FIN, not an RST that would discard our queued 400.
    let flood = vec![b'a'; server::MAX_REQUEST_BYTES - prefix.len()];
    w.write_all(&flood).unwrap();
    let resp = read_response(&mut r).expect("oversized head earns a response, not a hang");
    assert_eq!(resp.status, 400);
    assert_eq!(resp.connection, "close");
    assert!(read_response(&mut r).is_none(), "connection must close after the 400");

    // The listener survives the abuse.
    let (mut w2, mut r2) = connect(&s);
    w2.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(read_response(&mut r2).unwrap().status, 200);
    s.shutdown();
    s.join();
}

#[test]
fn aborted_partial_request_leaves_the_listener_healthy() {
    let s = start();
    {
        let (mut w, _r) = connect(&s);
        // Half a request line, then a hard close.
        w.write_all(b"GET /eval?app=gt").unwrap();
    }
    // And a half-read body abort too.
    {
        let (mut w, _r) = connect(&s);
        w.write_all(b"POST /eval HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"app\"").unwrap();
    }
    std::thread::sleep(Duration::from_millis(50));
    let (mut w, mut r) = connect(&s);
    w.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    match read_response(&mut r) {
        Some(resp) => assert_eq!(resp.status, 200),
        None => panic!("listener died after aborted partial requests"),
    }
    s.shutdown();
    s.join();
}

#[test]
fn read_timeout_errors_are_not_mistaken_for_eof() {
    // Guard on the test helper itself: a stuck server must surface as
    // a timeout error, not be misread as "server closed". Exercised
    // against a socket that never answers.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    let err = r.read_line(&mut line).unwrap_err();
    assert!(matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut));
}
