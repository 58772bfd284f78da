//! Concurrency soak for the reactor serving core (ISSUE 8): one
//! `hec-serve` instance, ≥1000 *simultaneous* keep-alive connections
//! issuing pipelined requests, and three contracts —
//!
//! 1. zero errors: every request on every connection answers 200, and
//!    `/eval` bodies stay bytewise identical to in-process evaluation;
//! 2. connections are not threads: the process thread count during the
//!    soak grows by the client threads alone — the server multiplexes
//!    all 1000 sockets on its fixed reactor + worker-pool threads;
//! 3. the core's own gauges agree: `connections.max_open` ≥ 1000, and
//!    `connections.open` drains back to zero after the clients leave.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use hec_serve::engine::{self, AppId, PlatformSel, PointSpec};
use hec_serve::request::Point;
use hec_serve::server::{self, point_response_body, ServeConfig};

mod common;
use common::metric;

const CLIENT_THREADS: usize = 8;
const CONNS_PER_THREAD: usize = 125; // 8 * 125 = 1000 concurrent connections
const PIPELINE_DEPTH: usize = 3;

/// One keep-alive connection: writes go to `w`, framed responses come
/// back through the buffered reader half.
struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

fn open_conn(addr: &std::net::SocketAddr) -> Conn {
    let w = TcpStream::connect(addr).expect("connect");
    w.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    w.set_nodelay(true).unwrap();
    let r = BufReader::new(w.try_clone().unwrap());
    Conn { w, r }
}

/// Reads one `Content-Length`-framed response; returns (status, body).
fn read_response(r: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut status_line = String::new();
    assert!(r.read_line(&mut status_line).unwrap() > 0, "unexpected EOF before status line");
    let status: u16 = status_line.split_whitespace().nth(1).expect("status code").parse().unwrap();
    let mut len = 0usize;
    loop {
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            len = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

fn os_threads() -> usize {
    match std::fs::read_dir("/proc/self/task") {
        Ok(dir) => dir.count(),
        // No procfs (non-Linux): the thread-bound assertion degrades
        // to vacuous, the functional assertions still run.
        Err(_) => 0,
    }
}

#[test]
fn thousand_keepalive_connections_zero_errors_bounded_threads() {
    let s = server::start(ServeConfig { port: 0, workers: 4, queue: 2048, cache_capacity: 1024 })
        .expect("bind ephemeral port");
    let addr = s.addr();
    let base = format!("http://{addr}");

    // The byte-identity witness: one canonical /eval point, evaluated
    // in-process, pipelined on every connection.
    let point = Point {
        app: AppId::Gtc,
        sel: PlatformSel::Direct(hec_arch::PlatformId::X1Msp),
        spec: PointSpec::procs(256),
    };
    let expect_eval =
        point_response_body(&point, engine::eval_cell(point.app, point.sel, &point.spec));
    let eval_path = "/eval?app=gtc&platform=x1msp&procs=256";

    let threads_before = os_threads();
    // Two barriers bracket the window in which all 1000 connections
    // are simultaneously open: [all connected] .. [all batches done].
    let connected = Arc::new(Barrier::new(CLIENT_THREADS + 1));
    let done = Arc::new(Barrier::new(CLIENT_THREADS + 1));

    let workers: Vec<_> = (0..CLIENT_THREADS)
        .map(|_| {
            let (connected, done) = (Arc::clone(&connected), Arc::clone(&done));
            let expect_eval = expect_eval.clone();
            std::thread::spawn(move || {
                let mut conns: Vec<Conn> = (0..CONNS_PER_THREAD).map(|_| open_conn(&addr)).collect();
                connected.wait();
                // Pipeline a batch on every connection first, then
                // collect: the server sees 1000 connections with
                // buffered pipelined requests at once.
                let batch = format!(
                    "GET /healthz HTTP/1.1\r\n\r\nGET {eval_path} HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n"
                );
                for c in &mut conns {
                    c.w.write_all(batch.as_bytes()).unwrap();
                }
                for c in &mut conns {
                    for k in 0..PIPELINE_DEPTH {
                        let (status, body) = read_response(&mut c.r);
                        assert_eq!(status, 200, "pipelined response {k} failed");
                        if k == 1 {
                            assert_eq!(body, expect_eval, "served /eval bytes drifted");
                        }
                    }
                }
                done.wait();
                drop(conns);
            })
        })
        .collect();

    connected.wait();
    // All 1000 connections are open from here until `done`. Sample the
    // process thread count while the soak is in flight.
    let mut peak_threads = 0usize;
    for _ in 0..5 {
        peak_threads = peak_threads.max(os_threads());
        std::thread::sleep(Duration::from_millis(20));
    }
    done.wait();
    for w in workers {
        w.join().unwrap();
    }

    // (2) Connections are not threads: the only growth over the
    // pre-soak count is the client threads themselves (plus a small
    // allowance for transient runtime threads).
    if threads_before > 0 {
        assert!(
            peak_threads <= threads_before + CLIENT_THREADS + 4,
            "thread count grew with connections: {threads_before} -> {peak_threads}"
        );
    }

    // (3) The reactor saw all 1000 at once, and they drain to zero.
    assert!(
        metric(&base, &["connections", "max_open"]) >= (CLIENT_THREADS * CONNS_PER_THREAD) as f64,
        "max_open never reached 1000"
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let open = metric(&base, &["connections", "open"]);
        if open == 0.0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "{open} connections still open after soak");
        std::thread::sleep(Duration::from_millis(25));
    }
    // Keep-alive did its job: 3 requests per connection, one accept.
    let accepted = metric(&base, &["connections", "accepted"]);
    assert!(
        (1000.0..1010.0).contains(&accepted),
        "expected ~1000 accepts (+ the metrics observer), got {accepted}"
    );
    assert!(
        metric(&base, &["connections", "keepalive_requests"])
            >= (CLIENT_THREADS * CONNS_PER_THREAD * (PIPELINE_DEPTH - 1)) as f64,
        "pipelined requests beyond the first per connection are keep-alive wins"
    );

    s.shutdown();
    s.join();
}
