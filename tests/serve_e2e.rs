//! End-to-end tests for the serve subsystem (ISSUE 4): a real listener
//! on an ephemeral port, concurrent clients, and the three contracts —
//! (i) served responses are bytewise identical to direct
//! `bench::experiments` evaluation, (ii) repeated requests hit the
//! cache (observed through `/metrics`), (iii) a full queue sheds pooled
//! requests with 503 without dropping in-flight work, while the reactor
//! keeps answering everything else.

use hec_core::json::Json;
use hec_serve::client;
use hec_serve::engine::{AppId, PlatformSel, PointSpec};
use hec_serve::request::Point;
use hec_serve::server::{self, ServeConfig, Server};

mod common;
use common::metric;

fn start(workers: usize, queue: usize) -> Server {
    server::start(ServeConfig { port: 0, workers, queue, cache_capacity: 1024 })
        .expect("bind ephemeral port")
}

/// (i) Single-point responses, GET and POST, under concurrent clients,
/// are bytewise identical to the in-process evaluation.
#[test]
fn served_points_match_in_process_evaluation_bytewise() {
    let s = start(4, 32);
    let base = format!("http://{}", s.addr());
    let cases: Vec<(String, Point)> = vec![
        (
            format!("{base}/eval?app=gtc&platform=x1msp&procs=256"),
            Point {
                app: AppId::Gtc,
                sel: PlatformSel::Direct(hec_arch::PlatformId::X1Msp),
                spec: PointSpec::procs(256),
            },
        ),
        (
            format!("{base}/eval?app=gtc&platform=4ssp&procs=512"),
            Point { app: AppId::Gtc, sel: PlatformSel::Agg4Ssp, spec: PointSpec::procs(512) },
        ),
        (
            format!("{base}/eval?app=lbmhd&platform=es&procs=1024&n=1024"),
            Point {
                app: AppId::Lbmhd,
                sel: PlatformSel::Direct(hec_arch::PlatformId::Es),
                spec: PointSpec { procs: 1024, pz: None, n: Some(1024) },
            },
        ),
        (
            format!("{base}/eval?app=paratec&platform=sx8&procs=128"),
            Point {
                app: AppId::Paratec,
                sel: PlatformSel::Direct(hec_arch::PlatformId::Sx8),
                spec: PointSpec::procs(128),
            },
        ),
        (
            format!("{base}/eval?app=fvcam&platform=power3&procs=256&pz=4"),
            Point {
                app: AppId::Fvcam,
                sel: PlatformSel::Direct(hec_arch::PlatformId::Power3),
                spec: PointSpec { procs: 256, pz: Some(4), n: None },
            },
        ),
    ];
    // Concurrent clients: every case requested from its own thread, both
    // GET and (second round, now cached) again — bytes must never move.
    let handles: Vec<_> = cases
        .into_iter()
        .map(|(url, point)| {
            std::thread::spawn(move || {
                let want = server::point_response_body(&point, point.eval());
                let first = client::http_get(&url).unwrap();
                assert_eq!(first.status, 200, "{url}");
                assert_eq!(first.body, want, "uncached response bytes for {url}");
                let second = client::http_get(&url).unwrap();
                assert_eq!(second.body, want, "cached response bytes for {url}");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    s.shutdown();
    s.join();
}

/// (i) continued: a served sweep carries exactly the numbers of the
/// direct `bench::experiments` row set, cell for cell, bit for bit.
#[test]
fn served_sweep_matches_bench_experiments_rows_exactly() {
    let s = start(2, 32);
    let base = format!("http://{}", s.addr());
    let resp = client::http_get(&format!("{base}/sweep?app=gtc")).unwrap();
    assert_eq!(resp.status, 200);
    // Bytewise: the sweep body must equal the in-process rendering over
    // direct evaluation.
    let want = server::sweep_response_body(AppId::Gtc, |p| p.eval());
    assert_eq!(resp.body, want, "sweep bytes differ from in-process rendering");
    // And numerically: the JSON numbers round-trip to the exact f64s of
    // bench::experiments::gtc_rows() (shortest-form emission re-parses
    // to the identical bits).
    let rows = bench::experiments::gtc_rows();
    let doc = Json::parse(&resp.body).unwrap();
    let jrows = doc.get("rows").and_then(|r| r.as_arr()).unwrap();
    assert_eq!(jrows.len(), rows.len());
    for (jr, row) in jrows.iter().zip(&rows) {
        assert_eq!(jr.num_field("procs").unwrap() as usize, row.procs);
        let cells = jr.get("cells").and_then(|c| c.as_arr()).unwrap();
        assert_eq!(cells.len(), 7);
        for (jc, cell) in cells.iter().zip(&row.cells) {
            match cell {
                None => assert!(matches!(jc, Json::Null) || !jc.bool_field("feasible").unwrap()),
                Some(c) => {
                    assert_eq!(
                        jc.num_field("gflops_per_proc").unwrap().to_bits(),
                        c.gflops.to_bits(),
                        "gflops bits differ"
                    );
                    assert_eq!(
                        jc.num_field("percent_of_peak").unwrap().to_bits(),
                        c.pct_peak.to_bits()
                    );
                    assert_eq!(jc.num_field("step_secs").unwrap().to_bits(), c.step_secs.to_bits());
                }
            }
        }
    }
    s.shutdown();
    s.join();
}

/// (ii) Repeated requests hit the cache, observable via `/metrics`; a
/// sweep pre-warms the points its cells decompose into.
#[test]
fn repeated_requests_hit_the_cache_via_metrics() {
    let s = start(2, 32);
    let base = format!("http://{}", s.addr());
    let url = format!("{base}/eval?app=paratec&platform=es&procs=512");
    assert_eq!(client::http_get(&url).unwrap().status, 200);
    let hits0 = metric(&base, &["cache", "hits"]);
    assert_eq!(client::http_get(&url).unwrap().status, 200);
    let hits1 = metric(&base, &["cache", "hits"]);
    assert!(hits1 > hits0, "repeat request must raise cache hits ({hits0} -> {hits1})");

    // Sweep decomposition: a sweep touches paratec|es|procs=512 too, so
    // it must *hit* that warmed entry rather than re-evaluate it…
    let misses_before_sweep = metric(&base, &["cache", "misses"]);
    assert_eq!(client::http_get(&format!("{base}/sweep?app=paratec")).unwrap().status, 200);
    let hits2 = metric(&base, &["cache", "hits"]);
    assert!(hits2 > hits1, "sweep must reuse the warmed point entry");
    // …and the point request afterwards must hit the sweep-warmed cache.
    let other = format!("{base}/eval?app=paratec&platform=x1msp&procs=2048");
    let misses_after_sweep = metric(&base, &["cache", "misses"]);
    assert!(misses_after_sweep > misses_before_sweep, "cold sweep points must miss");
    assert_eq!(client::http_get(&other).unwrap().status, 200);
    let misses_final = metric(&base, &["cache", "misses"]);
    assert_eq!(misses_final, misses_after_sweep, "sweep-warmed point must not miss");
    s.shutdown();
    s.join();
}

/// Occupies the only worker, then the only queue slot, of a 1-worker /
/// 1-slot server with `/debug/sleep?ms=1500` requests — staggered, so
/// the first is already *running* (not queued) when the second is
/// admitted. Returns the two client threads.
fn occupy_worker_and_queue(base: &str) -> Vec<std::thread::JoinHandle<client::Response>> {
    let mut slow = Vec::new();
    for _ in 0..2 {
        let url = format!("{base}/debug/sleep?ms=1500");
        slow.push(std::thread::spawn(move || client::http_get(&url).unwrap()));
        std::thread::sleep(std::time::Duration::from_millis(300));
    }
    slow
}

/// (iii) With a single worker and a single-slot queue, slow in-flight
/// requests force queue-full 503s (with Retry-After) for newcomers to
/// the pool — while every admitted request still completes with 200.
/// Only a pooled endpoint can be shed, so the probe is a zero-length
/// `/debug/sleep`.
#[test]
fn queue_full_returns_503_without_dropping_in_flight_work() {
    let s = start(1, 1);
    let base = format!("http://{}", s.addr());
    let slow = occupy_worker_and_queue(&base);
    // Now the admission queue is full: pooled requests must be rejected
    // with 503 + Retry-After (eventually — there is a small window while
    // the second slow request moves from queue to worker).
    let mut saw_503 = None;
    for _ in 0..20 {
        let r = client::http_get(&format!("{base}/debug/sleep?ms=0")).unwrap();
        if r.status == 503 {
            saw_503 = Some(r);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let rejected = saw_503.expect("a full admission queue must reject with 503");
    assert_eq!(rejected.header("Retry-After"), Some("1"));
    assert!(rejected.body.contains("admission queue full"));
    // The in-flight slow requests still complete successfully.
    for h in slow {
        let r = h.join().unwrap();
        assert_eq!(r.status, 200, "admitted request was dropped");
        assert!(r.body.contains("1500"));
    }
    // After the burst drains, the pool admits again.
    let mut recovered = false;
    for _ in 0..50 {
        if client::http_get(&format!("{base}/debug/sleep?ms=0")).unwrap().status == 200 {
            recovered = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(recovered, "server must recover after the queue drains");
    s.shutdown();
    s.join();
}

/// With the only worker asleep and the only queue slot taken, the
/// reactor still answers `/healthz` and `/eval` — exact bytes included —
/// while both sleeps are outstanding: neither ever waits for a worker.
#[test]
fn eval_and_healthz_answer_while_every_worker_sleeps() {
    let s = start(1, 1);
    let base = format!("http://{}", s.addr());
    // Take LBMHD's one-off calibration capture out of the timed window;
    // the point asserted below is still a cache miss.
    let warm =
        client::http_get(&format!("{base}/eval?app=lbmhd&platform=es&procs=1024&n=1024")).unwrap();
    assert_eq!(warm.status, 200);
    let slow = occupy_worker_and_queue(&base);
    // The second sleep is queued only once the first holds the worker.
    let queued = || metric(&base, &["queue", "depth"]) == 1.0;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
    while !queued() {
        assert!(std::time::Instant::now() < deadline, "the second sleep never queued");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let healthz = client::http_get(&format!("{base}/healthz")).unwrap();
    assert_eq!(healthz.status, 200);
    let point = Point::from_query("app=lbmhd&platform=es&procs=64").unwrap();
    let eval = client::http_get(&format!("{base}/eval?app=lbmhd&platform=es&procs=64")).unwrap();
    assert_eq!(eval.status, 200);
    assert_eq!(eval.body, server::point_response_body(&point, point.eval()));
    // Both answers came back while the second sleep was still queued,
    // i.e. well over a second before the sleeps end.
    assert!(queued(), "the sleeps ended before the inline answers came back");
    assert_eq!(metric(&base, &["rejected"]), 0.0, "nothing inline may be shed");

    for h in slow {
        assert_eq!(h.join().unwrap().status, 200, "admitted request was dropped");
    }
    s.shutdown();
    s.join();
}

/// Graceful shutdown: requests admitted before the stop complete with
/// 200; the acceptor drains and joins.
#[test]
fn graceful_shutdown_drains_admitted_requests() {
    let s = start(2, 16);
    let base = format!("http://{}", s.addr());
    let slow = {
        let url = format!("{base}/debug/sleep?ms=800");
        std::thread::spawn(move || client::http_get(&url).unwrap())
    };
    std::thread::sleep(std::time::Duration::from_millis(200));
    s.shutdown();
    s.join(); // join returns only after the pool drained
    let r = slow.join().unwrap();
    assert_eq!(r.status, 200, "in-flight request must complete through shutdown");
}
