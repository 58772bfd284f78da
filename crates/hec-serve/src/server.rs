//! The HTTP/1.1 listener: reactor-driven connections, answers on the
//! reactor thread, a bounded worker pool for what can block, metrics,
//! graceful shutdown (DESIGN §8, §11).
//!
//! One reactor thread ([`crate::reactor`]) owns the listening socket and
//! every accepted connection, multiplexed over `poll(2)`, and answers
//! every endpoint itself — a hit is a cache read and a miss about a
//! microsecond of model, less than a hand-off to another thread. Only
//! `/debug/sleep`, the one handler that blocks, goes to a
//! [`hec_core::pool::WorkerPool`] through its bounded admission queue;
//! when that queue is full the reactor answers `503` with `Retry-After`
//! — load never turns into unbounded memory or unbounded threads.
//! Connections are keep-alive by default (HTTP/1.1 semantics, pipelining
//! included), so one connection serves many requests. Shutdown (the
//! `/shutdown` endpoint or [`Server::shutdown`]) stops admissions,
//! completes every dispatched request, flushes its response, then joins
//! the workers: in-flight requests always complete.
//!
//! Protocol surface (JSON bodies; `Connection: keep-alive` unless the
//! client opts out or the server is stopping):
//!
//! | endpoint | method | runs on | purpose |
//! |---|---|---|---|
//! | `/healthz` | GET | reactor | liveness |
//! | `/eval` | GET query / POST JSON | reactor | one prediction point |
//! | `/sweep?app=<app>` | GET | reactor | a full Table 3–6 row set |
//! | `/metrics` | GET | reactor | counters, cache, queue, connections, latency |
//! | `/shutdown` | POST/GET | reactor | graceful stop |
//! | `/debug/sleep?ms=N` | GET | worker pool | a deliberately slow request (tests) |
//!
//! The cache fills only with points this server evaluated itself; no
//! endpoint reads or writes it from outside, so a replica that joins a
//! cluster starts cold and recomputes each point on its first request
//! (about a microsecond each).

use std::sync::Arc;
use std::time::Instant;

use hec_core::json::{Json, ToJson};

use crate::cache::ShardedLru;
use crate::engine::{self, AppId, Cell};
use crate::metrics::Histogram;
use crate::reactor::{self, Answer, CoreConfig, Frontend, Io};
use crate::request::{parse_query, Point};

pub use crate::reactor::{error_body, status_text, Request, MAX_REQUEST_BYTES, RETRY_AFTER_SECS};

/// Upper bound on `/debug/sleep` (keeps tests honest and ops safe).
pub const MAX_DEBUG_SLEEP_MS: u64 = 10_000;

/// The one endpoint whose handler blocks: [`route`] sleeps in it, and
/// [`start`] sends it to the worker pool.
const DEBUG_SLEEP: &str = "/debug/sleep";

/// Server tuning.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Worker threads for `/debug/sleep`, the only pooled endpoint; every
    /// other endpoint runs on the reactor and is unaffected by this value.
    pub workers: usize,
    /// Admission-queue bound for `/debug/sleep` (requests waiting for a
    /// worker); only that endpoint can be shed with `503`.
    pub queue: usize,
    /// Point-cache capacity (entries).
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { port: 0, workers: 1, queue: 64, cache_capacity: 4096 }
    }
}

/// The serve tier's own state: the point cache and per-endpoint
/// histograms. Admission counters and connection gauges live in the
/// core's [`Frontend`].
struct ServeState {
    cache: ShardedLru,
    lat_eval: Histogram,
    lat_sweep: Histogram,
    lat_other: Histogram,
}

impl ServeState {
    /// Evaluates one canonical point through the cache, running the model
    /// on a miss. Evaluation happens on the reactor thread alone, so two
    /// identical points are never evaluated at once. The cached and
    /// uncached paths return the same value, and responses are always
    /// emitted from the value — bitwise-equal bodies.
    fn eval_point(&self, point: &Point) -> Option<Cell> {
        let key = point.canonical_key();
        if let Some(cached) = self.cache.get(&key) {
            return cached;
        }
        let cell = point.eval();
        self.cache.put(key, cell);
        cell
    }

    /// The `/metrics` document: the core's common sections, then this
    /// server's cache state and per-endpoint latency histograms.
    fn metrics_doc(&self, front: &Frontend) -> Json {
        front.metrics_doc([
            (
                "cache",
                Json::obj([
                    ("hits", Json::Num(self.cache.hits() as f64)),
                    ("misses", Json::Num(self.cache.misses() as f64)),
                    ("evictions", Json::Num(self.cache.evictions() as f64)),
                    ("entries", Json::Num(self.cache.len() as f64)),
                ]),
            ),
            (
                "latency",
                Json::obj([
                    ("eval", self.lat_eval.to_json()),
                    ("sweep", self.lat_sweep.to_json()),
                    ("other", self.lat_other.to_json()),
                ]),
            ),
        ])
    }
}

/// Renders one evaluated point as the `/eval` response document.
/// Public so tests and the CLI can build the expected bytes in-process.
pub fn point_doc(point: &Point, cell: Option<Cell>) -> Json {
    let mut fields = vec![
        ("app".to_string(), Json::Str(point.app.name().to_string())),
        ("platform".to_string(), Json::Str(point.sel.label().to_string())),
        ("procs".to_string(), Json::Num(point.spec.procs as f64)),
    ];
    if let Some(pz) = point.spec.pz {
        fields.push(("pz".to_string(), Json::Num(pz as f64)));
    }
    if let Some(n) = point.spec.n {
        fields.push(("n".to_string(), Json::Num(n as f64)));
    }
    fields.push(("feasible".to_string(), Json::Bool(cell.is_some())));
    if let Some(c) = cell {
        fields.push(("gflops_per_proc".to_string(), Json::Num(c.gflops)));
        fields.push(("percent_of_peak".to_string(), Json::Num(c.pct_peak)));
        fields.push(("step_secs".to_string(), Json::Num(c.step_secs)));
    }
    Json::Obj(fields)
}

/// The exact `/eval` response body for `point` — the service's
/// determinism contract is that the wire bytes equal this string.
pub fn point_response_body(point: &Point, cell: Option<Cell>) -> String {
    point_doc(point, cell).emit_pretty()
}

/// Renders a full sweep for `app` from per-point cells supplied by
/// `eval` (the server passes its cached path; tests pass direct
/// evaluation — the bodies must agree bitwise).
pub fn sweep_doc(app: AppId, mut eval: impl FnMut(&Point) -> Option<Cell>) -> Json {
    let rows: Vec<Json> = engine::row_specs(app)
        .into_iter()
        .map(|rs| {
            let cells: Vec<Json> = rs
                .columns
                .iter()
                .map(|col| match col {
                    None => Json::Null,
                    Some(sel) => {
                        let point = Point { app, sel: *sel, spec: rs.spec };
                        let cell = eval(&point);
                        let mut f = vec![
                            ("platform".to_string(), Json::Str(sel.label().to_string())),
                            ("feasible".to_string(), Json::Bool(cell.is_some())),
                        ];
                        if let Some(c) = cell {
                            f.push(("gflops_per_proc".to_string(), Json::Num(c.gflops)));
                            f.push(("percent_of_peak".to_string(), Json::Num(c.pct_peak)));
                            f.push(("step_secs".to_string(), Json::Num(c.step_secs)));
                        }
                        Json::Obj(f)
                    }
                })
                .collect();
            let mut f = vec![
                ("procs".to_string(), Json::Num(rs.procs as f64)),
                ("label".to_string(), Json::Str(rs.label)),
            ];
            if let Some(pz) = rs.spec.pz {
                f.push(("pz".to_string(), Json::Num(pz as f64)));
            }
            if let Some(n) = rs.spec.n {
                f.push(("n".to_string(), Json::Num(n as f64)));
            }
            f.push(("cells".to_string(), Json::Arr(cells)));
            Json::Obj(f)
        })
        .collect();
    Json::obj([("app", Json::Str(app.name().to_string())), ("rows", Json::Arr(rows))])
}

/// The exact `/sweep` response body for `app` under `eval`.
pub fn sweep_response_body(app: AppId, eval: impl FnMut(&Point) -> Option<Cell>) -> String {
    sweep_doc(app, eval).emit_pretty()
}

fn route(req: &Request, state: &ServeState, front: &Frontend) -> (u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (200, Json::obj([("ok", Json::Bool(true))]).emit_pretty()),
        ("GET", "/eval") => match Point::from_query(&req.query) {
            Ok(p) => (200, point_response_body(&p, state.eval_point(&p))),
            Err(e) => (400, error_body(&e.0)),
        },
        ("POST", "/eval") => match Point::from_json_text(&req.body) {
            Ok(p) => (200, point_response_body(&p, state.eval_point(&p))),
            Err(e) => (400, error_body(&e.0)),
        },
        ("GET", "/sweep") => {
            let app = parse_query(&req.query)
                .into_iter()
                .find(|(k, _)| k == "app")
                .and_then(|(_, v)| AppId::parse(&v));
            match app {
                Some(app) => (200, sweep_response_body(app, |p| state.eval_point(p))),
                None => (400, error_body("sweep needs app=fvcam|gtc|lbmhd|paratec")),
            }
        }
        ("GET", "/metrics") => (200, state.metrics_doc(front).emit_pretty()),
        ("GET" | "POST", "/shutdown") => {
            front.shutdown();
            (200, Json::obj([("stopping", Json::Bool(true))]).emit_pretty())
        }
        ("GET", DEBUG_SLEEP) => {
            let ms: u64 = parse_query(&req.query)
                .into_iter()
                .find(|(k, _)| k == "ms")
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or(0);
            let ms = ms.min(MAX_DEBUG_SLEEP_MS);
            std::thread::sleep(std::time::Duration::from_millis(ms));
            (200, Json::obj([("slept_ms", Json::Num(ms as f64))]).emit_pretty())
        }
        (_, "/eval" | "/sweep" | "/metrics" | "/healthz" | "/shutdown" | DEBUG_SLEEP) => {
            (405, error_body("method not allowed"))
        }
        _ => (404, error_body("no such endpoint")),
    }
}

/// Answers one request through [`route`] and records its latency from
/// the parse instant `t0`, so queue wait is part of it.
fn answer(req: &Request, t0: Instant, state: &ServeState, front: &Frontend) -> Answer {
    let (code, body) = route(req, state, front);
    match req.path.as_str() {
        "/eval" => state.lat_eval.record(t0.elapsed()),
        "/sweep" => state.lat_sweep.record(t0.elapsed()),
        _ => state.lat_other.record(t0.elapsed()),
    }
    (code, Vec::new(), body)
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

/// A running server; dropping it does *not* stop it — call
/// [`Server::shutdown`] then [`Server::join`].
pub struct Server {
    core: reactor::Core,
}

impl Server {
    /// The bound address (`127.0.0.1` with the actual port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.core.addr()
    }

    /// Requests a graceful stop: no new admissions; dispatched requests
    /// complete and their responses flush. Safe to call more than once.
    pub fn shutdown(&self) {
        self.core.frontend().shutdown();
    }

    /// Waits for the reactor (and so the drained worker pool) to exit.
    pub fn join(self) {
        self.core.join();
    }

    /// True once a stop has been requested.
    pub fn stopping(&self) -> bool {
        self.core.frontend().stopping()
    }

    /// The core's shared front-end state. The handle stays valid after
    /// [`Server::join`], which is the point: a cluster retiring a
    /// replica joins the drained server, then reads
    /// [`Frontend::open_connections`] to record how many connections
    /// were still live (a graceful drain reads 0).
    pub fn frontend(&self) -> Arc<Frontend> {
        Arc::clone(self.core.frontend())
    }
}

/// Starts a server on `127.0.0.1:cfg.port`. Returns once the socket is
/// bound and accepting; the reactor and its workers run until a
/// shutdown is requested.
pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
    let state = Arc::new(ServeState {
        cache: ShardedLru::new(cfg.cache_capacity),
        lat_eval: Histogram::new(),
        lat_sweep: Histogram::new(),
        lat_other: Histogram::new(),
    });
    // Every arm of `route` answers without blocking except DEBUG_SLEEP,
    // which goes to the pool; a new arm that can block must go there too.
    let service = move |conn: u64, req: Request, t0: Instant, io: &mut Io| {
        if req.path != DEBUG_SLEEP {
            return Some(answer(&req, t0, &state, io.front()));
        }
        let (state, front) = (Arc::clone(&state), Arc::clone(io.front()));
        io.spawn(conn, move || Some(answer(&req, t0, &state, &front)));
        None
    };
    let core = reactor::start_core(
        CoreConfig {
            port: cfg.port,
            workers: cfg.workers,
            queue: cfg.queue,
            reject_body: error_body("admission queue full; retry"),
        },
        service,
        None,
    )?;
    Ok(Server { core })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::engine::{PlatformSel, PointSpec};
    use hec_arch::PlatformId;

    fn test_server() -> Server {
        start(ServeConfig { port: 0, workers: 2, queue: 8, cache_capacity: 256 }).unwrap()
    }

    /// One `cache.<name>` counter out of the server's `/metrics`.
    fn cache_counter(base: &str, name: &str) -> f64 {
        let m = client::http_get(&format!("{base}/metrics")).unwrap();
        let doc = Json::parse(&m.body).unwrap();
        doc.get("cache").and_then(|c| c.get(name)).and_then(|v| v.as_f64()).unwrap()
    }

    #[test]
    fn healthz_and_404_and_405() {
        let s = test_server();
        let base = format!("http://{}", s.addr());
        let ok = client::http_get(&format!("{base}/healthz")).unwrap();
        assert_eq!(ok.status, 200);
        assert_eq!(ok.body, "{\n  \"ok\": true\n}\n");
        assert_eq!(client::http_get(&format!("{base}/nope")).unwrap().status, 404);
        // No endpoint moves cache entries between servers.
        for verb in ["export", "import"] {
            let r = client::http_post(&format!("{base}/cache/{verb}"), "{}").unwrap();
            assert_eq!(r.status, 404, "/cache/{verb}");
        }
        assert_eq!(client::http_post(&format!("{base}/metrics"), "").unwrap().status, 405);
        s.shutdown();
        s.join();
    }

    #[test]
    fn eval_get_and_post_agree_with_in_process_bytes() {
        let s = test_server();
        let base = format!("http://{}", s.addr());
        let point = Point {
            app: AppId::Gtc,
            sel: PlatformSel::Direct(PlatformId::X1Msp),
            spec: PointSpec::procs(256),
        };
        let want = point_response_body(&point, point.eval());
        let got =
            client::http_get(&format!("{base}/eval?app=gtc&platform=x1msp&procs=256")).unwrap();
        assert_eq!(got.status, 200);
        assert_eq!(got.body, want, "served bytes must equal in-process bytes");
        let post = client::http_post(
            &format!("{base}/eval"),
            r#"{"app":"GTC","platform":"X1 (MSP)","procs":256}"#,
        )
        .unwrap();
        assert_eq!(post.status, 200);
        assert_eq!(post.body, want, "POST spelling must canonicalize to the same bytes");
        s.shutdown();
        s.join();
    }

    #[test]
    fn bad_requests_get_400_with_an_error_field() {
        let s = test_server();
        let base = format!("http://{}", s.addr());
        for q in ["app=gtc", "app=gtc&platform=t3e&procs=64", "app=gtc&platform=es&procs=64&x=1"] {
            let r = client::http_get(&format!("{base}/eval?{q}")).unwrap();
            assert_eq!(r.status, 400, "{q}");
            assert!(Json::parse(&r.body).unwrap().get("error").is_some(), "{q}");
        }
        let r = client::http_post(&format!("{base}/eval"), "{{{{").unwrap();
        assert_eq!(r.status, 400);
        s.shutdown();
        s.join();
    }

    #[test]
    fn repeated_requests_hit_the_cache_and_bodies_stay_bitwise_equal() {
        let s = test_server();
        let base = format!("http://{}", s.addr());
        let url = format!("{base}/eval?app=lbmhd&platform=es&procs=64");
        let first = client::http_get(&url).unwrap();
        let hits_after_first = cache_counter(&base, "hits");
        let second = client::http_get(&url).unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.body, second.body, "cached response must be bitwise equal");
        assert!(cache_counter(&base, "hits") > hits_after_first, "second request must hit");
        s.shutdown();
        s.join();
    }

    #[test]
    fn metrics_reports_cache_queue_connections_and_latency() {
        let s = test_server();
        let base = format!("http://{}", s.addr());
        for path in ["/eval?app=paratec&platform=sx8&procs=128", "/sweep?app=gtc", "/healthz"] {
            assert_eq!(client::http_get(&format!("{base}{path}")).unwrap().status, 200, "{path}");
        }
        let m = client::http_get(&format!("{base}/metrics")).unwrap();
        assert_eq!(m.status, 200);
        let doc = Json::parse(&m.body).unwrap();
        assert!(doc.get("cache").and_then(|c| c.get("misses")).is_some());
        assert!(doc.get("cache").and_then(|c| c.get("evictions")).is_some());
        assert!(doc.get("cache").and_then(|c| c.get("entries")).is_some());
        assert!(doc.get("queue").and_then(|q| q.get("capacity")).is_some());
        assert!(doc.get("latency").and_then(|l| l.get("eval")).is_some());
        assert!(doc.get("batch").is_none(), "no micro-batching on the serving path");
        let conns = doc.get("connections").expect("connections section");
        assert!(conns.get("accepted").unwrap().as_f64().unwrap() >= 1.0);
        assert!(doc.get("reactor").and_then(|r| r.get("iterations")).is_some());
        // Everything above ran on the reactor; only /debug/sleep takes the pool.
        let dispatched = |doc: &Json| doc.get("reactor").unwrap().num_field("dispatched").unwrap();
        assert_eq!(dispatched(&doc), 0.0);
        assert_eq!(client::http_get(&format!("{base}/debug/sleep?ms=0")).unwrap().status, 200);
        let m = client::http_get(&format!("{base}/metrics")).unwrap();
        assert_eq!(dispatched(&Json::parse(&m.body).unwrap()), 1.0);
        s.shutdown();
        s.join();
    }

    #[test]
    fn shutdown_endpoint_stops_the_server() {
        let s = test_server();
        let base = format!("http://{}", s.addr());
        let r = client::http_post(&format!("{base}/shutdown"), "").unwrap();
        assert_eq!(r.status, 200);
        assert!(s.stopping());
        s.join();
    }
}
