//! The routing tier: one frontend URL over N `hec-serve` replicas.
//!
//! The router owns the member table (replicas and their health), the
//! consistent-hash ring, and the fault plan. Every routable request
//! (anything that is not a router-local endpoint) is admitted, assigned
//! the next admitted-request index (which is what fault events key on),
//! mapped to its canonical ring key, and forwarded to the key's first *live* ring
//! owner. A transport failure marks the replica down reactively, counts
//! a failover, and moves to the next owner; a `503` from an overloaded
//! replica fails over the same way (the response is kept as a fallback
//! if every owner is shedding). When a whole pass over the owners
//! yields nothing, the seeded backoff paces another pass — a replica
//! mid-restart comes back within a retry or two — and only an exhausted
//! budget turns into the router's own `503 + Retry-After`.
//!
//! Because every replica evaluates the same deterministic engine, the
//! relayed body is byte-identical no matter which owner answered, which
//! replica died mid-run, or whether a hedge won: the failover path is
//! invisible in the response bytes, and `tests/cluster_e2e.rs` holds the
//! router to exactly that.
//!
//! Router-local protocol surface (everything else is forwarded):
//!
//! | endpoint | method | purpose |
//! |---|---|---|
//! | `/healthz` | GET | router liveness |
//! | `/metrics` | GET | ring/replica/failover/fault counters |
//! | `/shutdown` | POST/GET | graceful stop of router *and* replicas |
//! | `/admin/kill?replica=i` | POST/GET | kill one replica |
//! | `/admin/restart?replica=i` | POST/GET | restart one replica |
//! | `/admin/scale-up` | POST/GET | add a replica (next epoch) |
//! | `/admin/scale-down` | POST/GET | drain the highest current member |
//! | `/admin/drain/<i>` | POST/GET | drain replica `i` out of the ring |
//!
//! Membership is versioned ([`crate::membership`]): the router reads
//! the current epoch's ring per owner pass, so a scale-up or drain
//! lands between passes, never mid-pass, and the epoch flip itself is
//! one Arc swap.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hec_core::json::{Json, ToJson};
use hec_core::pool::Threads;
use hec_core::retry::Backoff;
use hec_core::sync::Mutex;
use hec_serve::client::{self, RetryPolicy};
use hec_serve::metrics::Histogram;
use hec_serve::reactor::{self, CoreConfig, Frontend};
use hec_serve::request::{parse_query, Point};
use hec_serve::server::{error_body, Request, ServeConfig, RETRY_AFTER_SECS};

use crate::faults::{FaultKind, FaultPlan};
use crate::health::{self, HealthConfig};
use crate::membership::{AutoscaleConfig, Drain, Elasticity, ScaleUp};
use crate::replica::{Member, ReplicaSet};
use crate::ring::Ring;

/// Default replication factor R (each key has R owners on the ring).
pub const DEFAULT_REPLICATION: usize = 2;

/// Seed of the retry-jitter streams (combined with the request index,
/// so each request has its own deterministic stream).
const RETRY_JITTER_SEED: u64 = 0x5ec1a;

/// Cluster tuning. `Default` is a 3-replica, R=2 ring.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of replicas to stand up.
    pub replicas: usize,
    /// Router port on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Owners per key (replication factor R).
    pub replication: usize,
    /// Router worker threads.
    pub workers: usize,
    /// Router admission-queue bound.
    pub queue: usize,
    /// Template for each replica's own `hec-serve` config.
    pub replica: ServeConfig,
    /// Health-checker cadence and probe timeout.
    pub health: HealthConfig,
    /// Per-forward retry pacing (seeded backoff, `Retry-After` cap).
    pub retry: RetryPolicy,
    /// Hedge delay in milliseconds: a GET unanswered for this long is
    /// also sent to the key's next owner. `None` disables hedging.
    pub hedge_ms: Option<u64>,
    /// The fault plan to inject (empty for production-shaped runs).
    pub faults: FaultPlan,
    /// Autoscaler policy; `None` leaves membership purely manual.
    pub autoscale: Option<AutoscaleConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 3,
            port: 0,
            replication: DEFAULT_REPLICATION,
            workers: Threads::from_env().workers().max(2),
            queue: 64,
            replica: ServeConfig::default(),
            health: HealthConfig::default(),
            retry: RetryPolicy::default(),
            hedge_ms: None,
            faults: FaultPlan::none(),
            autoscale: None,
        }
    }
}

/// The routing tier's own state. Admission counters and connection
/// gauges live in the core's [`Frontend`].
struct RouterState {
    elasticity: Elasticity,
    replicas: Arc<ReplicaSet>,
    faults: Mutex<FaultPlan>,
    planned_faults: usize,
    retry: RetryPolicy,
    hedge: Option<Duration>,
    /// Admitted routable requests — the fault-plan clock.
    admitted: AtomicU64,
    failovers: AtomicU64,
    retries: AtomicU64,
    hedges: AtomicU64,
    faults_injected: AtomicU64,
    lat_route: Histogram,
    lat_local: Histogram,
}

impl RouterState {
    /// The ring key for a request: canonical point key for `/eval`,
    /// `sweep|app` for `/sweep`, the raw target otherwise. Malformed
    /// requests keep a deterministic (raw) key and are forwarded anyway,
    /// so even error bodies stay byte-identical to a single replica's.
    fn ring_key(&self, req: &Request) -> String {
        match req.path.as_str() {
            "/eval" => {
                let parsed = match req.method.as_str() {
                    "POST" => Point::from_json_text(&req.body),
                    _ => Point::from_query(&req.query),
                };
                match parsed {
                    Ok(p) => p.canonical_key(),
                    Err(_) => req.target(),
                }
            }
            "/sweep" => {
                let app = parse_query(&req.query)
                    .into_iter()
                    .find(|(k, _)| k == "app")
                    .map(|(_, v)| v.to_ascii_lowercase())
                    .unwrap_or_default();
                format!("sweep|{app}")
            }
            _ => req.target(),
        }
    }

    /// Candidate replicas for a key on `ring`: the owners' records, live
    /// ones first, preference order preserved within each group.
    fn candidates(&self, ring: &Ring, key: &str) -> Vec<(usize, Arc<Member>)> {
        let all = self.replicas.snapshot();
        let mut owners: Vec<(usize, Arc<Member>)> = ring
            .owners(key)
            .into_iter()
            .filter_map(|r| Some((r, Arc::clone(all.get(r)?))))
            .collect();
        owners.sort_by_key(|(_, m)| !m.is_up());
        owners
    }

    /// Fires every fault event scheduled for request `index`. Returns
    /// `(replicas to drop-connect on, reply delay)`.
    fn inject_faults(&self, index: u64) -> (Vec<usize>, Option<Duration>) {
        let fired = self.faults.lock().take_at(index);
        let mut drops = Vec::new();
        let mut slow: Option<Duration> = None;
        for ev in fired {
            self.faults_injected.fetch_add(1, Ordering::Relaxed);
            match ev.kind {
                FaultKind::Kill => {
                    self.replicas.kill(ev.replica);
                }
                FaultKind::StallMs(ms) => std::thread::sleep(Duration::from_millis(ms)),
                FaultKind::DropConn => drops.push(ev.replica),
                FaultKind::SlowReplyMs(ms) => {
                    let d = Duration::from_millis(ms);
                    slow = Some(slow.map_or(d, |s| s.max(d)));
                }
                // Membership churn pinned to the admitted clock: the
                // epoch flips before this request's first owner pass.
                FaultKind::AddAt => {
                    let _ = self.elasticity.scale_up();
                }
                FaultKind::DrainAt => {
                    let _ = self.elasticity.drain(ev.replica);
                }
            }
        }
        (drops, slow)
    }

    /// One forward attempt to a replica. `Err` means transport-level
    /// failure (connection refused/dropped/timed out).
    fn attempt(&self, member: &Member, req: &Request) -> std::io::Result<client::Response> {
        let addr = member.addr().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotConnected, "replica is down")
        })?;
        let url = format!("http://{addr}{}", req.target());
        match req.method.as_str() {
            "POST" => client::http_post_timeout(&url, &req.body, self.retry.timeout),
            _ => client::http_get_timeout(&url, self.retry.timeout),
        }
    }

    /// Routes one admitted request: fault injection, owner selection,
    /// failover, retry rounds. Returns `(status, extra headers, body)`.
    fn forward(&self, req: &Request, queue_depth: usize) -> (u16, Vec<String>, String) {
        let index = self.admitted.fetch_add(1, Ordering::SeqCst);
        let (mut drops, slow_reply) = self.inject_faults(index);
        let key = self.ring_key(req);
        self.elasticity.track(&key);
        self.elasticity.autoscale_tick(index, queue_depth, &self.lat_route);
        let mut backoff = Backoff::new(
            RETRY_JITTER_SEED ^ index,
            self.retry.base_ms,
            self.retry.cap_ms,
            self.retry.max_retries,
        );
        let mut shed: Option<client::Response> = None;
        let mut tried_any = false;

        // A failover is any request not answered by its key's primary
        // owner — whether the router actively switched after a failed
        // attempt or routed around a replica already marked down.
        let finish = |member: &Member, resp: client::Response, failed_over: bool| {
            member.mark(true);
            member.note_forward();
            if failed_over {
                self.failovers.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(d) = slow_reply {
                std::thread::sleep(d);
            }
            let extra: Vec<String> = resp
                .header("Retry-After")
                .map(|v| vec![format!("Retry-After: {v}")])
                .unwrap_or_default();
            (resp.status, extra, resp.body)
        };

        loop {
            // Re-read the epoch each pass: churn between passes (an
            // autoscale or an injected Add/Drain) re-routes the retry
            // to the key's *new* owners instead of a retired replica.
            let epoch = self.elasticity.current();
            let primary = epoch.ring.primary(&key);
            let candidates = self.candidates(&epoch.ring, &key);

            // Tail-latency hedge: only on a clean first pass (no drops
            // pending, nothing tried yet) with at least two live owners.
            if let Some(delay) = self.hedge {
                if !tried_any && drops.is_empty() && req.method != "POST" {
                    let live: Vec<(usize, &Member, SocketAddr)> = candidates
                        .iter()
                        .filter_map(|(r, m)| m.addr().map(|a| (*r, &**m, a)))
                        .take(2)
                        .collect();
                    if live.len() == 2 {
                        let urls: Vec<String> = live
                            .iter()
                            .map(|(_, _, a)| format!("http://{a}{}", req.target()))
                            .collect();
                        if let Ok(out) = client::hedged_get(&urls, delay, self.retry.timeout) {
                            if out.hedged {
                                self.hedges.fetch_add(1, Ordering::Relaxed);
                            }
                            if out.response.status != 503 {
                                let (r, member, _) = live[out.winner];
                                return finish(member, out.response, r != primary);
                            }
                            shed = Some(out.response);
                        }
                        tried_any = true;
                    }
                }
            }

            for (r, member) in &candidates {
                if let Some(pos) = drops.iter().position(|d| d == r) {
                    // Injected connection drop: consume the event and
                    // treat this exactly like a transport failure.
                    drops.remove(pos);
                    self.failovers.fetch_add(1, Ordering::Relaxed);
                    tried_any = true;
                    continue;
                }
                match self.attempt(member, req) {
                    Ok(resp) if resp.status == 503 => {
                        // Overloaded, not dead: keep it up, remember the
                        // shed response, try the next owner.
                        shed = Some(resp);
                        self.failovers.fetch_add(1, Ordering::Relaxed);
                        tried_any = true;
                    }
                    Ok(resp) => return finish(member, resp, tried_any || *r != primary),
                    Err(_) => {
                        member.mark(false);
                        self.failovers.fetch_add(1, Ordering::Relaxed);
                        tried_any = true;
                    }
                }
            }

            match backoff.next_delay() {
                Some(d) => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(d);
                }
                None => break,
            }
        }

        // Budget exhausted: relay the last shed 503 if one exists (its
        // bytes are a real replica's), else the router's own 503.
        match shed {
            Some(resp) => {
                let extra = resp
                    .header("Retry-After")
                    .map(|v| vec![format!("Retry-After: {v}")])
                    .unwrap_or_else(|| vec![format!("Retry-After: {RETRY_AFTER_SECS}")]);
                (resp.status, extra, resp.body)
            }
            None => (
                503,
                vec![format!("Retry-After: {RETRY_AFTER_SECS}")],
                error_body("no live owner for key; retry"),
            ),
        }
    }

    fn metrics_doc(&self, front: &Frontend) -> Json {
        let epoch = self.elasticity.current();
        let all = self.replicas.snapshot();
        // Only current members appear in `cluster.replicas`; drained
        // members move to `cluster.retired` with their final connection
        // count, so the live table never grows stale rows.
        // `cluster.up` counts the `up: true` rows of this very read.
        let mut up = 0usize;
        let replicas: Vec<Json> = epoch
            .members
            .iter()
            .filter_map(|&i| {
                let m = all.get(i)?;
                let is_up = m.is_up();
                up += usize::from(is_up);
                Some(Json::obj([
                    ("index", Json::Num(i as f64)),
                    ("addr", Json::Str(m.last_addr().to_string())),
                    ("up", Json::Bool(is_up)),
                    ("down_transitions", Json::Num(m.down_transitions() as f64)),
                    ("up_transitions", Json::Num(m.up_transitions() as f64)),
                    ("forwarded", Json::Num(m.forwarded() as f64)),
                ]))
            })
            .collect();
        let retired: Vec<Json> = all
            .iter()
            .enumerate()
            .filter_map(|(i, m)| {
                Some(Json::obj([
                    ("index", Json::Num(i as f64)),
                    ("connections_open_after_drain", Json::Num(m.final_open()? as f64)),
                ]))
            })
            .collect();
        let count = |c: &AtomicU64| Json::Num(c.load(Ordering::Relaxed) as f64);
        front.metrics_doc([
            ("admitted", count(&self.admitted)),
            ("failovers", count(&self.failovers)),
            ("retries", count(&self.retries)),
            ("hedges", count(&self.hedges)),
            (
                "cluster",
                Json::obj([
                    ("replication", Json::Num(epoch.ring.replication() as f64)),
                    ("epoch", Json::Num(epoch.version as f64)),
                    ("up", Json::Num(up as f64)),
                    ("replicas", Json::Arr(replicas)),
                    ("retired", Json::Arr(retired)),
                ]),
            ),
            ("membership", self.elasticity.doc()),
            (
                "faults",
                Json::obj([
                    ("planned", Json::Num(self.planned_faults as f64)),
                    ("injected", count(&self.faults_injected)),
                    ("remaining", Json::Num(self.faults.lock().remaining() as f64)),
                ]),
            ),
            (
                "latency",
                Json::obj([
                    ("route", self.lat_route.to_json()),
                    ("local", self.lat_local.to_json()),
                ]),
            ),
        ])
    }
}

fn admin_target(query: &str) -> Option<usize> {
    parse_query(query).into_iter().find(|(k, _)| k == "replica").and_then(|(_, v)| v.parse().ok())
}

fn scale_up_doc(up: &ScaleUp) -> String {
    Json::obj([
        ("added", Json::Num(up.added as f64)),
        ("addr", Json::Str(up.addr.to_string())),
        ("epoch", Json::Num(up.epoch as f64)),
        ("keys_moved", Json::Num(up.keys_moved as f64)),
    ])
    .emit_pretty()
}

fn drain_doc(i: usize, d: &Drain) -> String {
    Json::obj([
        ("drained", Json::Num(i as f64)),
        ("epoch", Json::Num(d.epoch as f64)),
        ("keys_moved", Json::Num(d.keys_moved as f64)),
        ("connections_open_after_drain", Json::Num(d.connections_open as f64)),
    ])
    .emit_pretty()
}

fn route(req: &Request, state: &RouterState, front: &Frontend) -> (u16, Vec<String>, String, bool) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            (200, vec![], Json::obj([("ok", Json::Bool(true))]).emit_pretty(), true)
        }
        ("GET", "/metrics") => (200, vec![], state.metrics_doc(front).emit_pretty(), true),
        ("GET" | "POST", "/shutdown") => {
            front.shutdown();
            (200, vec![], Json::obj([("stopping", Json::Bool(true))]).emit_pretty(), true)
        }
        ("GET" | "POST", "/admin/kill") => match admin_target(&req.query) {
            Some(i) if i < state.replicas.len() => {
                let was_up = state.replicas.kill(i);
                (
                    200,
                    vec![],
                    Json::obj([("killed", Json::Num(i as f64)), ("was_up", Json::Bool(was_up))])
                        .emit_pretty(),
                    true,
                )
            }
            _ => (400, vec![], error_body("kill needs replica=<index>"), true),
        },
        ("GET" | "POST", "/admin/scale-up") => match state.elasticity.scale_up() {
            Ok(up) => (200, vec![], scale_up_doc(&up), true),
            Err(e) => (500, vec![], error_body(&format!("scale-up failed: {e}")), true),
        },
        ("GET" | "POST", "/admin/scale-down") => match state.elasticity.scale_down() {
            Ok((i, d)) => (200, vec![], drain_doc(i, &d), true),
            Err(e) => (400, vec![], error_body(&format!("scale-down failed: {e}")), true),
        },
        (m, p) if p.starts_with("/admin/drain/") => {
            if !matches!(m, "GET" | "POST") {
                return (405, vec![], error_body("method not allowed"), true);
            }
            match p["/admin/drain/".len()..].parse::<usize>() {
                Err(_) => (400, vec![], error_body("drain needs /admin/drain/<index>"), true),
                Ok(i) => match state.elasticity.drain(i) {
                    Ok(d) => (200, vec![], drain_doc(i, &d), true),
                    Err(e) => (400, vec![], error_body(&format!("drain failed: {e}")), true),
                },
            }
        }
        ("GET" | "POST", "/admin/restart") => match admin_target(&req.query) {
            Some(i) if i < state.replicas.len() => match state.replicas.restart(i) {
                Ok(addr) => (
                    200,
                    vec![],
                    Json::obj([
                        ("restarted", Json::Num(i as f64)),
                        ("addr", Json::Str(addr.to_string())),
                    ])
                    .emit_pretty(),
                    true,
                ),
                // The one way a restart is the caller's fault: the
                // member was drained out for good.
                Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
                    (400, vec![], error_body(&e.to_string()), true)
                }
                Err(e) => (500, vec![], error_body(&format!("restart failed: {e}")), true),
            },
            _ => (400, vec![], error_body("restart needs replica=<index>"), true),
        },
        (
            _,
            "/healthz" | "/metrics" | "/admin/kill" | "/admin/restart" | "/admin/scale-up"
            | "/admin/scale-down",
        ) => (405, vec![], error_body("method not allowed"), true),
        _ => {
            let (status, extra, body) = state.forward(req, front.queue_depth());
            (status, extra, body, false)
        }
    }
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

/// A running cluster: router frontend plus its replica set. Stop it
/// with [`Cluster::shutdown`] then [`Cluster::join`].
pub struct Cluster {
    state: Arc<RouterState>,
    core: reactor::Core,
    checker: std::thread::JoinHandle<()>,
}

impl Cluster {
    /// The router's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.core.addr()
    }

    /// Number of replica slots.
    pub fn replica_count(&self) -> usize {
        self.state.replicas.len()
    }

    /// A replica's current address (`None` while it is down).
    pub fn replica_addr(&self, i: usize) -> Option<SocketAddr> {
        self.state.replicas.get(i)?.addr()
    }

    /// Kills replica `i` directly (tests; the HTTP path is
    /// `/admin/kill`). Marks it down immediately.
    pub fn kill_replica(&self, i: usize) -> bool {
        self.state.replicas.kill(i)
    }

    /// Adds one replica and installs the next epoch (the HTTP path is
    /// `/admin/scale-up`).
    pub fn scale_up(&self) -> std::io::Result<crate::membership::ScaleUp> {
        self.state.elasticity.scale_up()
    }

    /// Drains replica `i` out of the ring (the HTTP path is
    /// `/admin/drain/<i>`).
    pub fn drain_replica(&self, i: usize) -> std::io::Result<crate::membership::Drain> {
        self.state.elasticity.drain(i)
    }

    /// The current epoch's member IDs.
    pub fn members(&self) -> Vec<usize> {
        self.state.elasticity.current().members.clone()
    }

    /// Requests a graceful stop: the router drains admitted requests,
    /// then the replicas drain theirs.
    pub fn shutdown(&self) {
        self.core.frontend().shutdown();
    }

    /// True once a stop has been requested.
    pub fn stopping(&self) -> bool {
        self.core.frontend().stopping()
    }

    /// Waits for the router and every replica to finish draining.
    pub fn join(self) {
        self.core.join();
        let _ = self.checker.join();
    }
}

/// Starts the cluster: `cfg.replicas` in-process `hec-serve` replicas on
/// ephemeral ports, the health checker, and the router frontend on
/// `127.0.0.1:cfg.port`. Returns once the router socket is accepting.
pub fn start(cfg: ClusterConfig) -> std::io::Result<Cluster> {
    let replicas = Arc::new(ReplicaSet::start(cfg.replicas, cfg.replica.clone())?);
    let planned_faults = cfg.faults.remaining();
    let state = Arc::new(RouterState {
        elasticity: Elasticity::new(Arc::clone(&replicas), cfg.replication, cfg.autoscale),
        replicas: Arc::clone(&replicas),
        faults: Mutex::new(cfg.faults),
        planned_faults,
        retry: cfg.retry,
        hedge: cfg.hedge_ms.map(Duration::from_millis),
        admitted: AtomicU64::new(0),
        failovers: AtomicU64::new(0),
        retries: AtomicU64::new(0),
        hedges: AtomicU64::new(0),
        faults_injected: AtomicU64::new(0),
        lat_route: Histogram::new(),
        lat_local: Histogram::new(),
    });

    let checker_stop = Arc::new(AtomicBool::new(false));
    let checker =
        health::spawn_checker(Arc::clone(&replicas), Arc::clone(&checker_stop), cfg.health);

    let handler_state = Arc::clone(&state);
    let handler: Arc<reactor::Handler> =
        Arc::new(move |req: &Request, t0: Instant, front: &Frontend| {
            let (status, extra, body, local) = route(req, &handler_state, front);
            if local {
                handler_state.lat_local.record(t0.elapsed());
            } else {
                handler_state.lat_route.record(t0.elapsed());
            }
            (status, extra, body)
        });
    // After the reactor drains the router's in-flight requests (they may
    // still need live replicas), stop the checker and the replicas.
    let on_drained = Box::new(move || {
        checker_stop.store(true, Ordering::SeqCst);
        replicas.shutdown_all();
    });
    let core = reactor::start_core(
        CoreConfig {
            port: cfg.port,
            workers: cfg.workers,
            queue: cfg.queue,
            // Forwards block on a replica and the fault plan sleeps.
            inline: |_| false,
            reject_body: error_body("router admission queue full; retry"),
        },
        handler,
        Some(on_drained),
    )?;
    Ok(Cluster { state, core, checker })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultEvent;

    fn small(replicas: usize, faults: FaultPlan) -> Cluster {
        start(ClusterConfig {
            replicas,
            replica: ServeConfig { port: 0, workers: 2, queue: 16, cache_capacity: 256 },
            retry: RetryPolicy {
                base_ms: 5,
                cap_ms: 50,
                max_retries: 3,
                timeout: Duration::from_secs(10),
            },
            health: HealthConfig {
                interval: Duration::from_millis(50),
                probe_timeout: Duration::from_millis(300),
            },
            faults,
            ..ClusterConfig::default()
        })
        .expect("cluster starts")
    }

    #[test]
    fn router_serves_the_same_bytes_as_a_replica() {
        let c = small(3, FaultPlan::none());
        let base = format!("http://{}", c.addr());
        let point =
            hec_serve::request::Point::from_query("app=gtc&platform=x1msp&procs=256").unwrap();
        let want = hec_serve::server::point_response_body(&point, point.eval());
        let got =
            client::http_get(&format!("{base}/eval?app=gtc&platform=x1msp&procs=256")).unwrap();
        assert_eq!(got.status, 200);
        assert_eq!(got.body, want, "routed bytes must equal in-process bytes");
        c.shutdown();
        c.join();
    }

    #[test]
    fn dropconn_fault_fails_over_without_an_error() {
        // Drop the connection to every possible target of request 0:
        // whichever owner is tried first fails artificially, the next
        // one answers, and the client never sees it.
        let plan = FaultPlan::with(
            (0..3)
                .map(|r| FaultEvent { at_request: 0, replica: r, kind: FaultKind::DropConn })
                .collect(),
        );
        // Only events whose replica is actually tried are consumed; with
        // R=2 at most two owners are tried, so at least one drop fires.
        let c = small(3, plan);
        let base = format!("http://{}", c.addr());
        let r = client::http_get(&format!("{base}/eval?app=lbmhd&platform=es&procs=64")).unwrap();
        assert_eq!(r.status, 200, "failover must hide the dropped connection");
        let m = client::http_get(&format!("{base}/metrics")).unwrap();
        let doc = Json::parse(&m.body).unwrap();
        assert!(doc.get("failovers").unwrap().as_f64().unwrap() >= 1.0);
        c.shutdown();
        c.join();
    }

    #[test]
    fn admin_kill_and_restart_round_trip() {
        let c = small(2, FaultPlan::none());
        let base = format!("http://{}", c.addr());
        let killed = client::http_post(&format!("{base}/admin/kill?replica=1"), "").unwrap();
        assert_eq!(killed.status, 200);
        assert!(killed.body.contains("\"was_up\": true"));
        assert!(c.replica_addr(1).is_none());
        // Requests still answer through the surviving replica.
        let r =
            client::http_get(&format!("{base}/eval?app=paratec&platform=sx8&procs=128")).unwrap();
        assert_eq!(r.status, 200);
        let revived = client::http_post(&format!("{base}/admin/restart?replica=1"), "").unwrap();
        assert_eq!(revived.status, 200);
        assert!(c.replica_addr(1).is_some());
        assert_eq!(
            client::http_post(&format!("{base}/admin/kill?replica=9"), "").unwrap().status,
            400
        );
        c.shutdown();
        c.join();
    }

    #[test]
    fn hedged_router_still_serves_identical_bytes() {
        let c = start(ClusterConfig {
            replicas: 3,
            hedge_ms: Some(1), // hedge aggressively: exercise the path
            replica: ServeConfig { port: 0, workers: 2, queue: 16, cache_capacity: 256 },
            ..ClusterConfig::default()
        })
        .unwrap();
        let base = format!("http://{}", c.addr());
        let point =
            hec_serve::request::Point::from_query("app=fvcam&platform=power3&procs=256&pz=4")
                .unwrap();
        let want = hec_serve::server::point_response_body(&point, point.eval());
        for _ in 0..5 {
            let got =
                client::http_get(&format!("{base}/eval?app=fvcam&platform=power3&procs=256&pz=4"))
                    .unwrap();
            assert_eq!(got.status, 200);
            assert_eq!(got.body, want);
        }
        c.shutdown();
        c.join();
    }

    #[test]
    fn shutdown_stops_router_and_replicas() {
        let c = small(2, FaultPlan::none());
        let base = format!("http://{}", c.addr());
        let replica0 = c.replica_addr(0).unwrap();
        let r = client::http_post(&format!("{base}/shutdown"), "").unwrap();
        assert_eq!(r.status, 200);
        assert!(c.stopping());
        c.join();
        assert!(
            client::http_get(&format!("http://{replica0}/healthz")).is_err(),
            "replicas must stop with the router"
        );
    }
}
