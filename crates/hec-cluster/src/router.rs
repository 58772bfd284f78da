//! The routing tier: one frontend URL over N `hec-serve` replicas
//! (DESIGN §9, §11).
//!
//! Every routable request (anything that is not a router-local endpoint)
//! is admitted, assigned the next admitted-request index (the clock
//! fault events and the autoscaler key on), mapped to its canonical ring
//! key, and forwarded to the key's first *live* owner. A transport
//! failure, a timeout or a shed `503` moves to the next owner; when a
//! pass over the owners yields nothing, the seeded backoff paces another
//! pass on the then-current epoch, and only an exhausted budget becomes
//! the router's own `503 + Retry-After`. Forwards only read liveness.
//! Every replica evaluates the same deterministic engine, so the relayed
//! bytes do not depend on which owner answered.
//!
//! A forward is a state machine on the router's reactor: its sends are
//! non-blocking upstream exchanges in the reactor's poll set, and the
//! forward timeout, the backoff, the hedge delay and injected stalls and
//! slow replies are deadlines on the reactor's heap. Only work that joins
//! threads — the admin endpoints, and the kills, adds and drains that
//! fault events and the autoscaler call for — runs on the router's
//! lifecycle pool.
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

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hec_core::json::{Json, ToJson};
use hec_core::pool::Threads;
use hec_core::retry::Backoff;
use hec_serve::client::RetryPolicy;
use hec_serve::metrics::Histogram;
use hec_serve::reactor::{self, Answer, CoreConfig, Frontend, Io, Response, Service};
use hec_serve::request::{parse_query, Point};
use hec_serve::server::{error_body, Request, ServeConfig, RETRY_AFTER_SECS};

use crate::faults::{FaultKind, FaultPlan};
use crate::membership::{AutoscaleConfig, Drain, Elasticity};
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
    /// Worker threads of the lifecycle pool (admin endpoints, and the
    /// kills, adds and drains of fault events and the autoscaler).
    pub workers: usize,
    /// Admission-queue bound of the lifecycle pool.
    pub queue: usize,
    /// Template for each replica's own `hec-serve` config.
    pub replica: ServeConfig,
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
            retry: RetryPolicy::default(),
            hedge_ms: None,
            faults: FaultPlan::none(),
            autoscale: None,
        }
    }
}

/// What the router shares with its lifecycle pool and [`Cluster`].
struct Shared {
    elasticity: Elasticity,
    replicas: Arc<ReplicaSet>,
    /// Latency of router-local requests; admin ones end on the pool.
    lat_local: Histogram,
}

/// The router: the reactor's [`Service`]. Every method runs on the
/// reactor thread, so its own state takes no lock; the core's
/// [`Frontend`] keeps the admission counters.
struct Router {
    shared: Arc<Shared>,
    faults: FaultPlan,
    retry: RetryPolicy,
    hedge: Option<Duration>,
    /// Admitted routable requests — the fault-plan clock.
    admitted: u64,
    failovers: u64,
    retries: u64,
    hedges: u64,
    faults_injected: u64,
    lat_route: Histogram,
    /// Forwards in flight, by the token of the client connection each
    /// answers (a connection waits on one request at a time).
    forwards: HashMap<u64, Forward>,
}

/// The ring key for a request: canonical point key for `/eval`,
/// `sweep|app` for `/sweep`, the raw target otherwise. Malformed
/// requests keep a deterministic (raw) key and are forwarded anyway, so
/// even error bodies stay byte-identical to a single replica's.
fn ring_key(req: &Request) -> String {
    match req.path.as_str() {
        "/eval" if req.method == "POST" => {
            Point::from_json_text(&req.body).map_or_else(|_| req.target(), |p| p.canonical_key())
        }
        "/eval" => {
            Point::from_query(&req.query).map_or_else(|_| req.target(), |p| p.canonical_key())
        }
        "/sweep" => {
            let app = parse_query(&req.query).into_iter().find(|(k, _)| k == "app");
            format!("sweep|{}", app.map(|(_, v)| v.to_ascii_lowercase()).unwrap_or_default())
        }
        _ => req.target(),
    }
}

impl Router {
    /// Candidate replicas for a key on `ring`: each owner's record with
    /// its address resolved once (`None` while down), live owners first,
    /// preference order preserved within each group.
    fn candidates(&self, ring: &Ring, key: &str) -> Vec<(usize, Arc<Member>, Option<SocketAddr>)> {
        let all = self.shared.replicas.snapshot();
        let mut owners: Vec<(usize, Arc<Member>, Option<SocketAddr>)> = ring
            .owners(key)
            .into_iter()
            .filter_map(|r| {
                let member = Arc::clone(all.get(r)?);
                let addr = member.addr();
                Some((r, member, addr))
            })
            .collect();
        owners.sort_by_key(|(_, _, addr)| addr.is_none());
        owners
    }

    fn metrics_doc(&self, front: &Frontend) -> Json {
        let epoch = self.shared.elasticity.current();
        let all = self.shared.replicas.snapshot();
        // Drained members move to `cluster.retired`; `cluster.up` counts
        // the `up: true` rows of this very read.
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
        let count = |n: u64| Json::Num(n as f64);
        let (injected, remaining) = (self.faults_injected, self.faults.remaining() as u64);
        front.metrics_doc([
            ("admitted", count(self.admitted)),
            ("failovers", count(self.failovers)),
            ("retries", count(self.retries)),
            ("hedges", count(self.hedges)),
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
            ("membership", self.shared.elasticity.doc()),
            (
                "faults",
                Json::obj([
                    // An event leaves the plan only by firing.
                    ("planned", count(injected + remaining)),
                    ("injected", count(injected)),
                    ("remaining", count(remaining)),
                ]),
            ),
            (
                "latency",
                Json::obj([
                    ("route", self.lat_route.to_json()),
                    ("local", self.shared.lat_local.to_json()),
                ]),
            ),
        ])
    }
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

/// The `/admin/*` paths the router answers itself; any other path under
/// `/admin/` is forwarded like every other request.
fn is_admin(path: &str) -> bool {
    matches!(path, "/admin/kill" | "/admin/restart" | "/admin/scale-up" | "/admin/scale-down")
        || path.starts_with("/admin/drain/")
}

/// Answers one [`is_admin`] request. Each one starts, stops or drains a
/// replica, joining threads, so it runs on the lifecycle pool.
fn admin(req: &Request, state: &Shared) -> Answer {
    let ok = |body: String| (200, vec![], body);
    let bad = |code: u16, msg: String| (code, vec![], error_body(&msg));
    let replica = parse_query(&req.query).into_iter().find(|(k, _)| k == "replica");
    let target = replica.and_then(|(_, v)| v.parse().ok()).filter(|&i| i < state.replicas.len());
    if !matches!(req.method.as_str(), "GET" | "POST") {
        return bad(405, "method not allowed".into());
    }
    match req.path.as_str() {
        "/admin/kill" => match target {
            Some(i) => {
                let was_up = state.replicas.kill(i);
                ok(Json::obj([("killed", Json::Num(i as f64)), ("was_up", Json::Bool(was_up))])
                    .emit_pretty())
            }
            _ => bad(400, "kill needs replica=<index>".into()),
        },
        "/admin/scale-up" => match state.elasticity.scale_up() {
            Ok(up) => ok(Json::obj([
                ("added", Json::Num(up.added as f64)),
                ("addr", Json::Str(up.addr.to_string())),
                ("epoch", Json::Num(up.epoch as f64)),
                ("keys_moved", Json::Num(up.keys_moved as f64)),
            ])
            .emit_pretty()),
            Err(e) => bad(500, format!("scale-up failed: {e}")),
        },
        "/admin/scale-down" => match state.elasticity.scale_down() {
            Ok((i, d)) => ok(drain_doc(i, &d)),
            Err(e) => bad(400, format!("scale-down failed: {e}")),
        },
        "/admin/restart" => match target {
            Some(i) => match state.replicas.restart(i) {
                Ok(addr) => ok(Json::obj([
                    ("restarted", Json::Num(i as f64)),
                    ("addr", Json::Str(addr.to_string())),
                ])
                .emit_pretty()),
                // The one way a restart is the caller's fault: the
                // member was drained out for good.
                Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => bad(400, e.to_string()),
                Err(e) => bad(500, format!("restart failed: {e}")),
            },
            _ => bad(400, "restart needs replica=<index>".into()),
        },
        p => match p["/admin/drain/".len()..].parse::<usize>() {
            Err(_) => bad(400, "drain needs /admin/drain/<index>".into()),
            Ok(i) => match state.elasticity.drain(i) {
                Ok(d) => ok(drain_doc(i, &d)),
                Err(e) => bad(400, format!("drain failed: {e}")),
            },
        },
    }
}

// ---------------------------------------------------------------------
// Forwarding on the reactor
// ---------------------------------------------------------------------

/// What a parked forward does when its alarm is due: an owner pass
/// (after a stall or a backoff), a hedge, or a held-back answer.
enum Wake {
    Pass,
    Hedge,
    Reply(Answer),
}

/// One routed request in flight.
struct Forward {
    /// Parse instant: `lat_route` runs from here to the answer.
    at: Instant,
    req: Request,
    key: String,
    backoff: Backoff,
    /// Injected drops (by replica), stall and slow reply.
    drops: Vec<usize>,
    stall: Duration,
    slow: Option<Duration>,
    /// The last shed `503`, relayed if every pass fails.
    shed: Option<Response>,
    tried_any: bool,
    /// This pass: primary, owners (live first), the next one to try, and
    /// the sends in flight as (exchange id, owner).
    primary: usize,
    owners: Vec<(usize, Arc<Member>, Option<SocketAddr>)>,
    next: usize,
    legs: Vec<(u64, usize)>,
    wake: Option<(Instant, Wake)>,
}

/// An upstream answer as relayed: its `Retry-After`, else `retry_after`.
fn relay(resp: Response, retry_after: Option<u64>) -> Answer {
    let hint = resp.header("Retry-After").map(str::to_string);
    let extra = hint.or(retry_after.map(|s| s.to_string()));
    (resp.status, extra.map(|v| vec![format!("Retry-After: {v}")]).unwrap_or_default(), resp.body)
}

impl Service for Router {
    fn handle(&mut self, conn: u64, req: Request, at: Instant, io: &mut Io) -> Option<Answer> {
        let answer = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => {
                (200, vec![], Json::obj([("ok", Json::Bool(true))]).emit_pretty())
            }
            ("GET", "/metrics") => (200, vec![], self.metrics_doc(io.front()).emit_pretty()),
            ("GET" | "POST", "/shutdown") => {
                io.front().shutdown();
                (200, vec![], Json::obj([("stopping", Json::Bool(true))]).emit_pretty())
            }
            (_, "/healthz" | "/metrics") => (405, vec![], error_body("method not allowed")),
            (_, path) if is_admin(path) => {
                let shared = Arc::clone(&self.shared);
                io.spawn(conn, move || {
                    let answer = admin(&req, &shared);
                    shared.lat_local.record(at.elapsed());
                    Some(answer)
                });
                return None;
            }
            _ => return self.admit(conn, req, at, io),
        };
        self.shared.lat_local.record(at.elapsed());
        Some(answer)
    }

    fn resumed(&mut self, conn: u64, io: &mut Io) {
        if let Some(f) = self.forwards.remove(&conn) {
            self.pass(conn, f, io);
        }
    }

    fn alarm(&mut self, conn: u64, io: &mut Io) {
        let Some(mut f) = self.forwards.remove(&conn) else { return };
        // Alarms are never cancelled: act only on this forward's own wait.
        if f.wake.as_ref().is_none_or(|(due, _)| *due > Instant::now()) {
            self.forwards.insert(conn, f);
            return;
        }
        match f.wake.take().map(|(_, wake)| wake) {
            Some(Wake::Hedge) => {
                while f.next < f.owners.len() && !self.send_next(conn, &mut f, io) {}
                self.hedges += u64::from(f.legs.len() > 1);
                self.forwards.insert(conn, f);
            }
            Some(Wake::Reply(answer)) => self.reply(conn, f, answer, io),
            _ => self.pass(conn, f, io),
        }
    }

    fn exchanged(&mut self, conn: u64, id: u64, result: std::io::Result<Response>, io: &mut Io) {
        let Some(mut f) = self.forwards.remove(&conn) else { return };
        let Some(pos) = f.legs.iter().position(|&(leg, _)| leg == id) else {
            self.forwards.insert(conn, f);
            return;
        };
        let (_, i) = f.legs.swap_remove(pos);
        match result {
            Ok(resp) if resp.status != 503 => {
                // The first answer wins (a hedge in flight is read and
                // dropped); not answered by the primary is a failover.
                f.legs.drain(..).for_each(|(other, _)| io.abandon(other));
                let (r, member, _) = &f.owners[i];
                member.note_forward();
                self.failovers += u64::from(f.tried_any || *r != f.primary);
                match f.slow {
                    Some(delay) => self.wait(conn, f, delay, Wake::Reply(relay(resp, None)), io),
                    None => self.reply(conn, f, relay(resp, None), io),
                }
            }
            other => {
                // Shed (kept as the fallback), failed or timed out.
                f.shed = other.ok().or(f.shed);
                self.failovers += 1;
                f.tried_any = true;
                f.wake = None;
                self.advance(conn, f, io);
            }
        }
    }
}

impl Router {
    /// Admits a routable request: fires the fault events pinned to its
    /// index and ticks the autoscaler. A kill, add or drain that either
    /// calls for runs on the lifecycle pool before the forward starts.
    fn admit(&mut self, conn: u64, req: Request, at: Instant, io: &mut Io) -> Option<Answer> {
        let (index, key, r) = (self.admitted, ring_key(&req), self.retry);
        self.admitted += 1;
        self.shared.elasticity.track(&key);
        let mut f = Forward {
            at,
            req,
            key,
            backoff: Backoff::new(RETRY_JITTER_SEED ^ index, r.base_ms, r.cap_ms, r.max_retries),
            drops: Vec::new(),
            stall: Duration::ZERO,
            slow: None,
            shed: None,
            tried_any: false,
            primary: 0,
            owners: Vec::new(),
            next: 0,
            legs: Vec::new(),
            wake: None,
        };
        let mut lifecycle = Vec::new();
        for ev in self.faults.take_at(index) {
            self.faults_injected += 1;
            match ev.kind {
                FaultKind::StallMs(ms) => f.stall += Duration::from_millis(ms),
                FaultKind::DropConn => f.drops.push(ev.replica),
                FaultKind::SlowReplyMs(ms) => f.slow = f.slow.max(Some(Duration::from_millis(ms))),
                FaultKind::Kill | FaultKind::AddAt | FaultKind::DrainAt => lifecycle.push(ev),
            }
        }
        let scale =
            self.shared.elasticity.autoscale_tick(index, self.forwards.len(), &self.lat_route);
        if lifecycle.is_empty() && scale.is_none() {
            self.pass(conn, f, io);
            return None;
        }
        let st = Arc::clone(&self.shared);
        let job = move || {
            for ev in lifecycle {
                match ev.kind {
                    FaultKind::Kill => _ = st.replicas.kill(ev.replica),
                    FaultKind::AddAt => _ = st.elasticity.scale_up(),
                    _ => _ = st.elasticity.drain(ev.replica),
                }
            }
            if let Some(decision) = scale {
                st.elasticity.scale(decision);
            }
            None
        };
        // A full lifecycle queue sheds the request, as it would any job.
        if io.spawn(conn, job) {
            self.forwards.insert(conn, f);
        }
        None
    }

    /// Parks `f` until `delay` from now, then [`Service::alarm`] acts.
    fn wait(&mut self, conn: u64, mut f: Forward, delay: Duration, wake: Wake, io: &mut Io) {
        let due = Instant::now() + delay;
        f.wake = Some((due, wake));
        io.alarm(due, conn);
        self.forwards.insert(conn, f);
    }

    /// One pass over the key's owners on the current epoch (so churn
    /// re-routes a retry), the first after the injected stall.
    fn pass(&mut self, conn: u64, mut f: Forward, io: &mut Io) {
        if f.stall > Duration::ZERO {
            let stall = std::mem::take(&mut f.stall);
            return self.wait(conn, f, stall, Wake::Pass, io);
        }
        let epoch = self.shared.elasticity.current();
        f.primary = epoch.ring.primary(&f.key);
        f.owners = self.candidates(&epoch.ring, &f.key);
        f.next = 0;
        self.advance(conn, f, io);
    }

    /// Sends to the next owner unless a send is in flight; after the last
    /// owner, backs off for another pass or answers the last shed `503`
    /// (a real replica's bytes), else the router's own.
    fn advance(&mut self, conn: u64, mut f: Forward, io: &mut Io) {
        while f.legs.is_empty() && f.next < f.owners.len() {
            if !self.send_next(conn, &mut f, io) {
                self.failovers += 1;
                f.tried_any = true;
            }
        }
        // Hedge a send in flight only on a clean first pass: nothing
        // failed, no drop pending, and a GET.
        let clean = !f.tried_any && f.drops.is_empty() && f.req.method != "POST";
        let hedge = self.hedge.filter(|_| clean && f.wake.is_none() && !f.legs.is_empty());
        if let Some(delay) = hedge {
            self.wait(conn, f, delay, Wake::Hedge, io);
        } else if !f.legs.is_empty() {
            self.forwards.insert(conn, f);
        } else if let Some(delay) = f.backoff.next_delay() {
            self.retries += 1;
            self.wait(conn, f, delay, Wake::Pass, io);
        } else {
            let retry_after = vec![format!("Retry-After: {RETRY_AFTER_SECS}")];
            let answer = match f.shed.take() {
                Some(resp) => relay(resp, Some(RETRY_AFTER_SECS)),
                None => (503, retry_after, error_body("no live owner for key; retry")),
            };
            self.reply(conn, f, answer, io);
        }
    }

    /// Answers the forward's connection; `lat_route` includes any stall.
    fn reply(&mut self, conn: u64, f: Forward, answer: Answer, io: &mut Io) {
        self.lat_route.record(f.at.elapsed());
        io.answer(conn, answer);
    }

    /// Sends to the pass's next owner; false (a transport failure) when it
    /// is down, refuses the connection or an injected drop takes it.
    fn send_next(&mut self, conn: u64, f: &mut Forward, io: &mut Io) -> bool {
        let (r, _, addr) = &f.owners[f.next];
        f.next += 1;
        if let Some(pos) = f.drops.iter().position(|d| d == r) {
            f.drops.remove(pos);
            return false;
        }
        let Some(addr) = *addr else { return false };
        // Every method but `POST` is forwarded as a `GET` without a body.
        let (method, body) =
            if f.req.method == "POST" { ("POST", f.req.body.as_str()) } else { ("GET", "") };
        let request = format!(
            "{method} {} HTTP/1.1\r\nHost: {addr}\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
            f.req.target(),
            body.len(),
        );
        let exchange = io.exchange(addr, request.into_bytes(), self.retry.timeout, conn);
        exchange.map(|id| f.legs.push((id, f.next - 1))).is_ok()
    }
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

/// A running cluster; stop it with [`Cluster::shutdown`], [`Cluster::join`].
pub struct Cluster {
    shared: Arc<Shared>,
    core: reactor::Core,
}

impl Cluster {
    /// The router's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.core.addr()
    }

    /// Number of replica slots.
    pub fn replica_count(&self) -> usize {
        self.shared.replicas.len()
    }

    /// A replica's current address (`None` while it is down).
    pub fn replica_addr(&self, i: usize) -> Option<SocketAddr> {
        self.shared.replicas.get(i)?.addr()
    }

    /// Kills replica `i` (the HTTP path is `/admin/kill`).
    pub fn kill_replica(&self, i: usize) -> bool {
        self.shared.replicas.kill(i)
    }

    /// Adds one replica (the HTTP path is `/admin/scale-up`).
    pub fn scale_up(&self) -> std::io::Result<crate::membership::ScaleUp> {
        self.shared.elasticity.scale_up()
    }

    /// Drains replica `i` out of the ring (`/admin/drain/<i>`).
    pub fn drain_replica(&self, i: usize) -> std::io::Result<crate::membership::Drain> {
        self.shared.elasticity.drain(i)
    }

    /// The current epoch's member IDs.
    pub fn members(&self) -> Vec<usize> {
        self.shared.elasticity.current().members.clone()
    }

    /// Requests a graceful stop: the router drains, then the replicas.
    pub fn shutdown(&self) {
        self.core.frontend().shutdown();
    }

    /// Waits for the router and every replica to finish draining.
    pub fn join(self) {
        self.core.join();
    }
}

/// Starts `cfg.replicas` in-process replicas and the router on
/// `127.0.0.1:cfg.port`; returns once the router socket is accepting.
pub fn start(cfg: ClusterConfig) -> std::io::Result<Cluster> {
    let replicas = Arc::new(ReplicaSet::start(cfg.replicas, cfg.replica.clone())?);
    let shared = Arc::new(Shared {
        elasticity: Elasticity::new(Arc::clone(&replicas), cfg.replication, cfg.autoscale),
        replicas: Arc::clone(&replicas),
        lat_local: Histogram::new(),
    });
    let router = Router {
        shared: Arc::clone(&shared),
        faults: cfg.faults,
        retry: cfg.retry,
        hedge: cfg.hedge_ms.map(Duration::from_millis),
        admitted: 0,
        failovers: 0,
        retries: 0,
        hedges: 0,
        faults_injected: 0,
        lat_route: Histogram::new(),
        forwards: HashMap::new(),
    };
    // After the reactor drains the router's in-flight requests (they may
    // still need live replicas), stop the replicas.
    let on_drained = Box::new(move || replicas.shutdown_all());
    let core = reactor::start_core(
        CoreConfig {
            port: cfg.port,
            workers: cfg.workers,
            queue: cfg.queue,
            reject_body: error_body("router admission queue full; retry"),
        },
        router,
        Some(on_drained),
    )?;
    Ok(Cluster { shared, core })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultEvent;
    use hec_serve::client;

    fn small_cfg(replicas: usize) -> ClusterConfig {
        ClusterConfig {
            replicas,
            replica: ServeConfig { port: 0, workers: 2, queue: 16, cache_capacity: 256 },
            retry: RetryPolicy {
                base_ms: 5,
                cap_ms: 50,
                max_retries: 3,
                timeout: Duration::from_secs(10),
            },
            ..ClusterConfig::default()
        }
    }

    fn small(replicas: usize, faults: FaultPlan) -> Cluster {
        start(ClusterConfig { faults, ..small_cfg(replicas) }).expect("cluster starts")
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
    fn a_forward_that_times_out_leaves_every_replica_up() {
        // Each owner is alive but busy for 200 ms, past the router's
        // 50 ms forward timeout: every attempt fails over and the budget
        // runs out, yet a slow replica has not died, so none reads down.
        let cfg = small_cfg(3);
        let retry = RetryPolicy { timeout: Duration::from_millis(50), ..cfg.retry };
        let c = start(ClusterConfig { retry, ..cfg }).expect("cluster starts");
        let base = format!("http://{}", c.addr());
        let r = client::http_get(&format!("{base}/debug/sleep?ms=200")).unwrap();
        assert_eq!(r.status, 503, "every owner timed out: {}", r.body);
        let doc = Json::parse(&client::http_get(&format!("{base}/metrics")).unwrap().body).unwrap();
        assert!(doc.get("failovers").unwrap().as_f64().unwrap() >= 2.0);
        for (i, m) in c.shared.replicas.snapshot().iter().enumerate() {
            assert!(m.is_up(), "replica {i} was only slow");
            assert_eq!(m.down_transitions(), 0, "replica {i} was only slow");
        }
        c.shutdown();
        c.join();
    }

    /// `GET url`: status, body, and how long the answer took.
    fn timed_get(url: &str) -> (u16, String, Duration) {
        let t0 = Instant::now();
        let r = client::http_get(url).unwrap();
        (r.status, r.body, t0.elapsed())
    }

    /// The `/eval` query these tests route, and the bytes it must answer.
    fn eval_case(query: &str) -> (Point, String) {
        let point = Point::from_query(query).unwrap();
        let want = hec_serve::server::point_response_body(&point, point.eval());
        (point, want)
    }

    /// An injected stall is a deadline on the router's reactor, not a
    /// sleeping thread: with a single lifecycle worker, the router's
    /// `/metrics` and `/healthz` and another connection's forward all
    /// answer while the stalled forward waits out its 300 ms.
    #[test]
    fn a_stalled_forward_delays_no_other_connection() {
        let stall = FaultEvent { at_request: 0, replica: 0, kind: FaultKind::StallMs(300) };
        let cfg =
            ClusterConfig { workers: 1, faults: FaultPlan::with(vec![stall]), ..small_cfg(3) };
        let c = start(cfg).expect("cluster starts");
        let base = format!("http://{}", c.addr());
        let query = "app=gtc&platform=x1msp&procs=256";
        let (_, want) = eval_case(query);
        let url = format!("{base}/eval?{query}");
        let stalled = {
            let url = url.clone();
            std::thread::spawn(move || timed_get(&url))
        };
        let admitted = || {
            let (status, body, took) = timed_get(&format!("{base}/metrics"));
            assert_eq!(status, 200);
            assert!(took < Duration::from_millis(100), "/metrics took {took:?}");
            Json::parse(&body).unwrap().num_field("admitted").unwrap()
        };
        while admitted() == 0.0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (status, body, took) = timed_get(&url);
        assert_eq!((status, body.as_str()), (200, want.as_str()));
        assert!(took < Duration::from_millis(100), "a second connection's forward took {took:?}");
        let (status, _, took) = timed_get(&format!("{base}/healthz"));
        assert_eq!(status, 200);
        assert!(took < Duration::from_millis(100), "/healthz took {took:?}");
        let (status, body, took) = stalled.join().unwrap();
        assert_eq!((status, body.as_str()), (200, want.as_str()));
        assert!(took >= Duration::from_millis(300), "the stall did not hold its forward: {took:?}");
        c.shutdown();
        c.join();
    }

    /// A forward that times out closes only its own upstream connection:
    /// while it waits, a concurrent forward to the same replica is sent on
    /// another connection and answered at once.
    #[test]
    fn a_timed_out_forward_delays_no_concurrent_forward_to_its_replica() {
        let cfg = small_cfg(3);
        let retry =
            RetryPolicy { timeout: Duration::from_millis(200), max_retries: 1, ..cfg.retry };
        let c = start(ClusterConfig { retry, ..cfg }).expect("cluster starts");
        let base = format!("http://{}", c.addr());
        let query = "app=lbmhd&platform=es&procs=64";
        let (point, want) = eval_case(query);
        let ring = Ring::new(3, crate::ring::DEFAULT_VNODES, DEFAULT_REPLICATION);
        let busy = ring.primary(&point.canonical_key());
        let slow = (600..)
            .map(|ms| format!("/debug/sleep?ms={ms}"))
            .find(|target| ring.primary(target) == busy)
            .unwrap();
        let replica = format!("http://{}", c.replica_addr(busy).unwrap());
        let replica_metric = |section: &str, field: &str| {
            let doc = Json::parse(&client::http_get(&format!("{replica}/metrics")).unwrap().body);
            doc.unwrap().get(section).and_then(|s| s.num_field(field).ok()).unwrap()
        };
        let accepted = replica_metric("connections", "accepted");
        let slow = {
            let url = format!("{base}{slow}");
            std::thread::spawn(move || timed_get(&url))
        };
        let t0 = Instant::now();
        while replica_metric("reactor", "dispatched") < 1.0 {
            assert!(t0.elapsed() < Duration::from_secs(10), "the slow forward never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (status, body, took) = timed_get(&format!("{base}/eval?{query}"));
        assert_eq!((status, body.as_str()), (200, want.as_str()));
        assert!(took < Duration::from_millis(100), "the concurrent forward took {took:?}");
        assert!(
            replica_metric("connections", "accepted") >= accepted + 2.0,
            "the concurrent forward must ride a second upstream connection"
        );
        let (status, body, took) = slow.join().unwrap();
        assert_eq!(status, 503, "every owner timed out: {body}");
        assert!(took >= Duration::from_millis(400), "two owners, 200 ms each: {took:?}");
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
        c.join();
        assert!(
            client::http_get(&format!("http://{replica0}/healthz")).is_err(),
            "replicas must stop with the router"
        );
    }
}
