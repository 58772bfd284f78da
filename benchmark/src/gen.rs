//! Load generation for the three serving workloads: seeded request sets
//! with their expected response bytes, the seeded arrival schedule, the
//! pipelined response reader, and the single-threaded driver that writes
//! each request at its due time on one of a few keep-alive connections and
//! matches responses in order.
//!
//! Open loop: the schedule is fixed before the segment starts and never
//! looks at the server; latency counts from the *due* time, so a stall is
//! charged to every request that waited behind it, and how late the
//! generator itself ran is reported beside it.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

use hec_arch::PlatformId;
use hec_core::rng::Rng;
use hec_serve::engine::{AppId, PlatformSel, PointSpec};
use hec_serve::request::Point;
use hec_serve::server::{point_response_body, sweep_response_body};

use crate::spec::{self, Workload};

// ---------------------------------------------------------------------
// Arrival schedule
// ---------------------------------------------------------------------

/// Offsets (ns from segment start) of every arrival of a `secs`-second
/// open-loop segment at `rate_rps`: Poisson arrivals from seeded exponential
/// gaps. A pure function of `(seed, rate_rps, secs)`.
pub fn arrival_offsets_ns(seed: u64, rate_rps: f64, secs: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let mean_gap_ns = 1e9 / rate_rps.max(1e-9);
    let horizon_ns = secs.max(0.0) * 1e9;
    let mut t = 0.0f64;
    let mut offsets = Vec::with_capacity((rate_rps * secs * 1.1) as usize + 16);
    loop {
        // uniform() is in [0, 1), so ln(1 - u) is finite.
        t += -mean_gap_ns * (1.0 - rng.uniform()).ln();
        if t >= horizon_ns {
            return offsets;
        }
        offsets.push(t as u64);
    }
}

// ---------------------------------------------------------------------
// Request sets
// ---------------------------------------------------------------------

/// One request the generator can emit, with the exact bytes a correct
/// server must answer.
pub struct Request {
    /// The full HTTP/1.1 request.
    pub wire: Vec<u8>,
    /// The expected response body, computed in-process.
    pub body: Vec<u8>,
    /// Index of the named app in [`AppId::ALL`].
    pub app: u8,
}

/// `GET target`, expecting `body`; `app` is the app the target names.
pub fn request(target: &str, body: String, app: AppId) -> Request {
    Request {
        wire: format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes(),
        body: body.into_bytes(),
        app: AppId::ALL.iter().position(|&a| a == app).expect("app in ALL") as u8,
    }
}

/// The `/eval` target of a point, spelled the way a client would.
pub fn eval_target(p: &Point) -> String {
    let mut t =
        format!("/eval?app={}&platform={}&procs={}", p.app.name(), p.sel.token(), p.spec.procs);
    if let Some(pz) = p.spec.pz {
        t.push_str(&format!("&pz={pz}"));
    }
    if let Some(n) = p.spec.n {
        t.push_str(&format!("&n={n}"));
    }
    t
}

/// The `/eval` request for a point, with its in-process bytes.
pub fn point_request(p: &Point) -> Request {
    request(&eval_target(p), point_response_body(p, p.eval()), p.app)
}

/// The `/sweep` request for an app, with its in-process bytes.
pub fn sweep_request(app: AppId) -> Request {
    request(&format!("/sweep?app={}", app.name()), sweep_response_body(app, |p| p.eval()), app)
}

/// Platform selectors a point of `app` may name (FVCAM has no 4-SSP form).
fn selectors(app: AppId) -> Vec<PlatformSel> {
    let mut sels: Vec<PlatformSel> = PlatformId::ALL.into_iter().map(PlatformSel::Direct).collect();
    if app != AppId::Fvcam {
        sels.push(PlatformSel::Agg4Ssp);
    }
    sels
}

fn spec_for(app: AppId, procs: usize, rng: &mut Rng) -> PointSpec {
    match app {
        AppId::Fvcam => PointSpec { procs, pz: Some([1, 4, 7][rng.below(3)]), n: None },
        AppId::Lbmhd => PointSpec { procs, pz: None, n: Some([256, 512, 1024][rng.below(3)]) },
        AppId::Gtc | AppId::Paratec => PointSpec::procs(procs),
    }
}

/// The hot set: [`spec::HOT_KEYS`] distinct points, an equal share per app,
/// drawn by `seed` from table-sized concurrencies on every platform.
pub fn hot_points(seed: u64) -> Vec<Point> {
    let mut rng = Rng::new(seed ^ 0x686f74);
    let per_app = spec::HOT_KEYS / AppId::ALL.len();
    let mut points = Vec::with_capacity(spec::HOT_KEYS);
    for app in AppId::ALL {
        let sels = selectors(app);
        let mut pool: Vec<Point> = Vec::new();
        for &sel in &sels {
            for procs in [64usize, 128, 256, 512, 1024, 2048] {
                pool.push(Point { app, sel, spec: spec_for(app, procs, &mut rng) });
            }
        }
        for _ in 0..per_app {
            points.push(pool.swap_remove(rng.below(pool.len())));
        }
    }
    points
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// `count` points no two of which share a cache key: apps in rotation; each
/// app's k-th point is the k-th step of a seeded affine walk over its
/// (`procs` in 16‥32 764) × (platform selector) grid, a bijection, so a key
/// cannot recur before the grid — 260 k points per app — is exhausted. The
/// walk's stride is the grid's golden section (nudged by `seed`, then to the
/// next value coprime with the grid), so any few hundred consecutive points
/// cover the `procs` range evenly: an evaluation's cost grows with `procs`
/// (LBMHD factors it), and a stride drawn at random made some seeds' runs
/// twice as cheap as others'. `n`/`pz` are drawn by `seed` on top.
pub fn fresh_points(seed: u64, count: usize) -> Vec<Point> {
    const SPAN: usize = 32_749;
    let mut rng = Rng::new(seed ^ 0x6d697373);
    let walks: Vec<(Vec<PlatformSel>, usize, usize)> = AppId::ALL
        .iter()
        .map(|&app| {
            let sels = selectors(app);
            let grid = SPAN * sels.len();
            assert!(count.div_ceil(AppId::ALL.len()) <= grid, "fresh key space exhausted");
            let mut step = (grid as f64 * 0.618_033_988_75) as usize + rng.below(64);
            while gcd(step, grid) != 1 {
                step += 1;
            }
            (sels, step, rng.below(grid))
        })
        .collect();
    (0..count)
        .map(|i| {
            let a = i % AppId::ALL.len();
            let (sels, step, start) = &walks[a];
            let cell = (step * (i / AppId::ALL.len()) + start) % (SPAN * sels.len());
            let spec = spec_for(AppId::ALL[a], 16 + cell % SPAN, &mut rng);
            Point { app: AppId::ALL[a], sel: sels[cell / SPAN], spec }
        })
        .collect()
}

/// One feasible point per app whose key [`fresh_points`] can never draw
/// (`procs` past its range; a `pz` it does not use): `serve_miss`'s set-up
/// sends them so each app's one-time calibration capture is paid before
/// timing, without planting a hit among the misses.
pub fn calibration_points() -> [Point; 4] {
    let es = PlatformSel::Direct(PlatformId::Es);
    [
        Point { app: AppId::Fvcam, sel: es, spec: PointSpec { procs: 64, pz: Some(2), n: None } },
        Point { app: AppId::Gtc, sel: es, spec: PointSpec::procs(32_768) },
        Point {
            app: AppId::Lbmhd,
            sel: es,
            spec: PointSpec { procs: 32_768, pz: None, n: Some(1024) },
        },
        Point { app: AppId::Paratec, sel: es, spec: PointSpec::procs(32_768) },
    ]
}

/// A workload's requests and the order arrivals draw them in.
pub struct RequestSet {
    /// Every distinct request.
    pub requests: Vec<Request>,
    /// Requests to `GET` once during set-up so the timed phases start warm
    /// and every app's calibration is paid (indices into `requests`).
    pub warm: Vec<u32>,
    /// Request index of the i-th arrival of the run.
    pub plan: Vec<u32>,
}

impl RequestSet {
    /// Builds the set for `w` with `arrivals` planned arrivals.
    pub fn build(w: Workload, seed: u64, arrivals: usize) -> RequestSet {
        let mut rng = Rng::new(seed ^ 0x706c616e);
        match w {
            Workload::ServeHit => {
                let requests: Vec<Request> = hot_points(seed).iter().map(point_request).collect();
                let n = requests.len();
                RequestSet {
                    warm: (0..n as u32).collect(),
                    plan: (0..arrivals).map(|_| rng.below(n) as u32).collect(),
                    requests,
                }
            }
            Workload::ServeMiss => {
                // Evaluating the expected bodies is the expensive part;
                // split it over the host's threads.
                let mut points = fresh_points(seed, arrivals);
                points.extend(calibration_points());
                let requests = hec_core::pool::Threads::new(crate::sys::nproc())
                    .par_map(&points, point_request);
                RequestSet {
                    warm: (arrivals as u32..requests.len() as u32).collect(),
                    plan: (0..arrivals as u32).collect(),
                    requests,
                }
            }
            Workload::ClusterMix => {
                let mut requests: Vec<Request> =
                    hot_points(seed).iter().map(point_request).collect();
                let hot = requests.len();
                requests.extend(AppId::ALL.into_iter().map(sweep_request));
                let mut next_sweep = 0;
                let plan = (0..arrivals)
                    .map(|_| {
                        if (rng.below(100) as u64) < spec::SWEEP_PERCENT {
                            next_sweep += 1;
                            (hot + (next_sweep - 1) % AppId::ALL.len()) as u32
                        } else {
                            rng.below(hot) as u32
                        }
                    })
                    .collect();
                RequestSet { warm: (0..requests.len() as u32).collect(), plan, requests }
            }
            Workload::AppsSolve => unreachable!("apps_solve sends no requests"),
        }
    }
}

// ---------------------------------------------------------------------
// Pipelined response reader
// ---------------------------------------------------------------------

/// Incremental parser of back-to-back HTTP/1.1 responses delimited by
/// `Content-Length`. Bytes go in as they arrive — split anywhere, several
/// responses at once — and complete responses come out in order.
#[derive(Default)]
pub struct ResponseReader {
    buf: Vec<u8>,
    pos: usize,
}

impl ResponseReader {
    /// Appends received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > (64 << 10) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response as `(status, body range)`, `Ok(None)`
    /// when more bytes are needed, `Err` when the stream is not HTTP.
    /// Read the body with [`ResponseReader::bytes`] before the next `feed`.
    pub fn next_response(&mut self) -> Result<Option<(u16, Range<usize>)>, String> {
        let rest = &self.buf[self.pos..];
        let Some(head_len) = rest.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4) else {
            return if rest.len() > (64 << 10) {
                Err("response head too large".into())
            } else {
                Ok(None)
            };
        };
        let head = std::str::from_utf8(&rest[..head_len]).map_err(|_| "non-utf8 response head")?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|c| c.parse().ok())
            .ok_or("malformed status line")?;
        let mut content_length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| "bad Content-Length")?;
                }
            }
        }
        if rest.len() < head_len + content_length {
            return Ok(None);
        }
        let body = self.pos + head_len..self.pos + head_len + content_length;
        self.pos = body.end;
        Ok(Some((status, body)))
    }

    /// The bytes of a range returned by [`ResponseReader::next_response`].
    pub fn bytes(&self, r: Range<usize>) -> &[u8] {
        &self.buf[r]
    }
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

/// One generator connection.
pub struct Conn {
    stream: TcpStream,
    reader: ResponseReader,
    out: Vec<u8>,
    sent: usize,
    /// `(request index, due ns from segment start)` awaiting answers.
    inflight: VecDeque<(u32, u64)>,
    dead: bool,
}

impl Conn {
    /// Connects a keep-alive, no-delay, non-blocking connection.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            reader: ResponseReader::default(),
            out: Vec::new(),
            sent: 0,
            inflight: VecDeque::new(),
            dead: false,
        })
    }
}

/// How a segment paces its requests.
pub enum Pacing<'a> {
    /// Open loop: request `i` is due at `offsets_ns[i]`.
    Open(&'a [u64]),
    /// Saturation: keep this many requests outstanding per connection.
    Window(usize),
}

/// One answered request.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Due time, ns from segment start.
    pub due_ns: u64,
    /// Latency from the due time, ns.
    pub lat_ns: u64,
    /// App index of the request.
    pub app: u8,
}

/// What one segment measured.
pub struct SegmentOut {
    /// When the segment started.
    pub t0: Instant,
    /// Every correctly answered request.
    pub samples: Vec<Sample>,
    /// Write time minus due time per request, ns (open loop only).
    pub late_ns: Vec<u64>,
    /// Requests planned for the segment.
    pub attempted: u64,
    /// Non-200, wrong bytes, transport error or unanswered.
    pub failed: u64,
    /// First failure, for the report.
    pub first_failure: Option<String>,
    /// Segment start to last answer, seconds.
    pub wall_s: f64,
    /// Time the generator spent in iterations that moved bytes, ns.
    pub busy_ns: u64,
}

fn fail(out: &mut SegmentOut, n: u64, why: impl FnOnce() -> String) {
    if n > 0 {
        out.failed += n;
        out.first_failure.get_or_insert_with(why);
    }
}

/// Runs one segment: `plan[i]` names the request of arrival `i`; arrivals
/// go round-robin over `conns`. Returns when every request is answered, or
/// once [`spec::ANSWER_GRACE_SECS`] have passed — since the last due time and
/// since a byte last moved in either direction — with requests still
/// unanswered; those, and any not yet sent, count as failed.
pub fn run_segment(
    conns: &mut [Conn],
    set: &RequestSet,
    plan: &[u32],
    pacing: Pacing<'_>,
    dedicated_cpu: bool,
) -> SegmentOut {
    let n = plan.len();
    let mut out = SegmentOut {
        t0: Instant::now(),
        samples: Vec::with_capacity(n),
        late_ns: Vec::with_capacity(n),
        attempted: n as u64,
        failed: 0,
        first_failure: None,
        wall_s: 0.0,
        busy_ns: 0,
    };
    if let Pacing::Open(offsets) = &pacing {
        assert_eq!(offsets.len(), n, "one due time per planned arrival");
    }
    let horizon_ns = match &pacing {
        Pacing::Open(offsets) => offsets.last().copied().unwrap_or(0),
        Pacing::Window(_) => 0,
    };
    let grace_ns = (spec::ANSWER_GRACE_SECS * 1e9) as u64;
    let nconn = conns.len();
    let mut next = 0usize;
    let mut answered_or_failed = 0usize;
    let mut last_answer_ns = 0u64;
    let mut last_progress_ns = 0u64;
    let mut chunk = vec![0u8; 64 << 10];
    let t0 = out.t0;

    while answered_or_failed < n {
        let iter_start = Instant::now();
        let now_ns = iter_start.duration_since(t0).as_nanos() as u64;
        let mut progress = false;

        // Admit every arrival that is due.
        loop {
            if next >= n {
                break;
            }
            let c = next % nconn;
            let due = match &pacing {
                Pacing::Open(offsets) => {
                    if offsets[next] > now_ns {
                        break;
                    }
                    offsets[next]
                }
                Pacing::Window(w) => {
                    // Round-robin admission stalls on the fullest
                    // connection; both drain at the same pace, so neither
                    // starves.
                    if conns[c].inflight.len() >= *w && !conns[c].dead {
                        break;
                    }
                    now_ns
                }
            };
            let conn = &mut conns[c];
            if conn.dead {
                fail(&mut out, 1, || "connection lost before the request was sent".into());
                answered_or_failed += 1;
            } else {
                conn.out.extend_from_slice(&set.requests[plan[next] as usize].wire);
                conn.inflight.push_back((plan[next], due));
                if matches!(pacing, Pacing::Open(_)) {
                    out.late_ns.push(now_ns - due);
                }
            }
            next += 1;
            progress = true;
        }

        for conn in conns.iter_mut().filter(|c| !c.dead) {
            // Flush what the socket will take.
            while conn.sent < conn.out.len() {
                match conn.stream.write(&conn.out[conn.sent..]) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(k) => {
                        conn.sent += k;
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.sent == conn.out.len() && conn.sent > 0 {
                conn.out.clear();
                conn.sent = 0;
            }
            // Take what has arrived.
            if !conn.inflight.is_empty() && !conn.dead {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => conn.dead = true,
                    Ok(k) => {
                        progress = true;
                        conn.reader.feed(&chunk[..k]);
                        let done_ns = t0.elapsed().as_nanos() as u64;
                        loop {
                            match conn.reader.next_response() {
                                Ok(None) => break,
                                Ok(Some((status, body))) => {
                                    let Some((req, due)) = conn.inflight.pop_front() else {
                                        conn.dead = true;
                                        break;
                                    };
                                    let want = &set.requests[req as usize];
                                    answered_or_failed += 1;
                                    last_answer_ns = done_ns;
                                    if status != 200 {
                                        fail(&mut out, 1, || format!("status {status}"));
                                    } else if conn.reader.bytes(body.clone()) != &want.body[..] {
                                        fail(&mut out, 1, || {
                                            format!(
                                                "body differs from the in-process bytes for {}",
                                                String::from_utf8_lossy(&want.wire)
                                                    .lines()
                                                    .next()
                                                    .unwrap_or("")
                                            )
                                        });
                                    } else {
                                        out.samples.push(Sample {
                                            due_ns: due,
                                            lat_ns: done_ns.saturating_sub(due),
                                            app: want.app,
                                        });
                                    }
                                }
                                Err(e) => {
                                    conn.dead = true;
                                    out.first_failure.get_or_insert(e);
                                    break;
                                }
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => conn.dead = true,
                }
            }
            if conn.dead {
                let lost = conn.inflight.len();
                conn.inflight.clear();
                answered_or_failed += lost;
                fail(&mut out, lost as u64, || "transport error".into());
            }
        }

        if progress {
            out.busy_ns += iter_start.elapsed().as_nanos() as u64;
            last_progress_ns = now_ns;
        } else {
            if now_ns > horizon_ns.max(last_progress_ns) + grace_ns {
                // The server has gone silent — whether or not everything was
                // sent (a full window stops admission). The connections are
                // out of step with the plan and cannot be reused.
                let mut lost = (n - next) as u64;
                for conn in conns.iter_mut() {
                    lost += conn.inflight.len() as u64;
                    conn.inflight.clear();
                    conn.dead = true;
                }
                fail(&mut out, lost, || {
                    format!("unanswered {} s after the segment's end", spec::ANSWER_GRACE_SECS)
                });
                break;
            }
            if dedicated_cpu {
                for _ in 0..32 {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::yield_now();
            }
        }
    }
    out.wall_s = last_answer_ns as f64 / 1e9;
    out
}

/// `GET`s request `idx` once on `conn`, waiting until it is answered, and
/// checks status and bytes. Used by set-up warming.
pub fn get_once(conn: &mut Conn, set: &RequestSet, idx: u32) -> Result<(), String> {
    let out = run_segment(std::slice::from_mut(conn), set, &[idx], Pacing::Window(1), false);
    match out.first_failure {
        Some(why) => Err(why),
        None if out.failed > 0 => Err("request failed".into()),
        None => Ok(()),
    }
}

/// A blocking, allocation-free (after its first exchange) one-in-flight
/// client: the plain socket `hec_serve::client` is compared with, and the
/// client side of the allocation counts.
pub struct RawClient {
    stream: TcpStream,
    reader: ResponseReader,
    chunk: Vec<u8>,
}

impl RawClient {
    /// Connects a keep-alive, no-delay, blocking connection.
    pub fn connect(addr: SocketAddr) -> std::io::Result<RawClient> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(RawClient { stream, reader: ResponseReader::default(), chunk: vec![0; 64 << 10] })
    }

    /// Sends `req`, reads its response, checks status 200 and the bytes.
    pub fn get(&mut self, req: &Request) -> Result<(), String> {
        self.stream.write_all(&req.wire).map_err(|e| e.to_string())?;
        loop {
            if let Some((status, body)) = self.reader.next_response()? {
                return if status != 200 {
                    Err(format!("status {status}"))
                } else if self.reader.bytes(body) != &req.body[..] {
                    Err("body differs from the in-process bytes".into())
                } else {
                    Ok(())
                };
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err("connection closed".into()),
                Ok(k) => self.reader.feed(&self.chunk[..k]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_a_pure_function_of_seed_rate_and_secs() {
        let a = arrival_offsets_ns(7, 500.0, 3.0);
        assert_eq!(a, arrival_offsets_ns(7, 500.0, 3.0));
        assert_ne!(a, arrival_offsets_ns(8, 500.0, 3.0), "seed must move the schedule");
        assert_ne!(a, arrival_offsets_ns(7, 400.0, 3.0), "rate must move the schedule");
        assert_ne!(a.len(), arrival_offsets_ns(7, 500.0, 2.0).len(), "secs must move it");
        assert!((1200..=1800).contains(&a.len()), "{} arrivals at 500 rps x 3 s", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 3_000_000_000);
        // A shorter horizon is a prefix of a longer one: same gaps, cut early.
        let short = arrival_offsets_ns(7, 500.0, 2.0);
        assert_eq!(short[..], a[..short.len()]);
    }

    fn responses(reader: &mut ResponseReader) -> Vec<(u16, Vec<u8>)> {
        let mut got = Vec::new();
        while let Some((status, body)) = reader.next_response().unwrap() {
            got.push((status, reader.bytes(body).to_vec()));
        }
        got
    }

    #[test]
    fn reader_handles_split_coalesced_and_zero_length_bodies() {
        let stream = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\r\nhello\
                       HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\nRetry-After: 1\r\n\r\n\
                       HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}";
        let want = vec![(200, b"hello".to_vec()), (503, Vec::new()), (200, b"{}".to_vec())];
        // Coalesced: everything in one read.
        let mut r = ResponseReader::default();
        r.feed(stream);
        assert_eq!(responses(&mut r), want);
        assert!(r.next_response().unwrap().is_none());
        // Split at every byte boundary, including inside heads and bodies.
        for cut in 1..stream.len() {
            let mut r = ResponseReader::default();
            r.feed(&stream[..cut]);
            let mut got = responses(&mut r);
            r.feed(&stream[cut..]);
            got.extend(responses(&mut r));
            assert_eq!(got, want, "cut at {cut}");
        }
        // Byte at a time.
        let mut r = ResponseReader::default();
        let mut got = Vec::new();
        for b in stream.iter() {
            r.feed(std::slice::from_ref(b));
            got.extend(responses(&mut r));
        }
        assert_eq!(got, want);
        // Not HTTP at all.
        let mut r = ResponseReader::default();
        r.feed(b"garbage\r\n\r\n");
        assert!(r.next_response().is_err());
    }

    #[test]
    fn a_server_that_accepts_but_never_answers_fails_the_segment_after_the_grace_period() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut conns = vec![Conn::connect(addr).unwrap(), Conn::connect(addr).unwrap()];
        // Accepted and held open, never read from, never answered.
        let _held: Vec<TcpStream> = (0..2).map(|_| listener.accept().unwrap().0).collect();
        let set = RequestSet {
            requests: vec![request("/eval?app=gtc", String::new(), AppId::Gtc)],
            warm: vec![],
            plan: vec![0; 20],
        };
        // A window of 4 on 2 connections admits 8 and then waits: the 12
        // never sent must fail with the 8 in flight, not spin forever.
        let t = Instant::now();
        let seg = run_segment(&mut conns, &set, &set.plan, Pacing::Window(4), false);
        let waited = t.elapsed().as_secs_f64();
        assert_eq!((seg.attempted, seg.failed, seg.samples.len()), (20, 20, 0));
        assert!(seg.first_failure.unwrap().contains("unanswered"));
        assert!(
            (spec::ANSWER_GRACE_SECS..spec::ANSWER_GRACE_SECS + 3.0).contains(&waited),
            "gave up after {waited} s"
        );
        // The connections are out of step with any later plan.
        let again = run_segment(&mut conns, &set, &set.plan[..2], Pacing::Window(4), false);
        assert_eq!(again.failed, 2);
    }

    #[test]
    fn fresh_points_never_repeat_a_cache_key_and_follow_the_seed() {
        let a = fresh_points(36, 150_000);
        let keys: std::collections::HashSet<String> = a.iter().map(|p| p.canonical_key()).collect();
        assert_eq!(keys.len(), a.len());
        assert!(a.iter().all(|p| (16..32_768).contains(&p.spec.procs)));
        for c in calibration_points() {
            assert!(!keys.contains(&c.canonical_key()), "{} could be drawn", c.canonical_key());
            assert!(c.eval().is_some(), "{} must reach the model", c.canonical_key());
        }
        let again = fresh_points(36, 150_000);
        assert!(a.iter().zip(&again).all(|(x, y)| x == y));
        assert!(a.iter().zip(&fresh_points(37, 150_000)).any(|(x, y)| x != y));
        for (i, app) in AppId::ALL.into_iter().enumerate() {
            assert_eq!(a[i].app, app, "apps rotate so each gets an equal share");
        }
        // Cost grows with `procs`, so every stretch of a run must see the
        // whole range: any 200 consecutive points of an app average within a
        // tenth of the range's middle, whatever the seed.
        for seed in [1, 2, 36] {
            let pts = fresh_points(seed, 40_000);
            for app in 0..AppId::ALL.len() {
                let procs: Vec<f64> =
                    pts.iter().skip(app).step_by(4).map(|p| p.spec.procs as f64).collect();
                for chunk in procs.chunks_exact(200) {
                    let mean = chunk.iter().sum::<f64>() / 200.0;
                    assert!((14_700.0..18_100.0).contains(&mean), "seed {seed}: mean procs {mean}");
                }
            }
        }
    }

    #[test]
    fn every_emitted_target_parses_back_to_its_point_and_expected_bytes() {
        // Every /eval and /sweep the generator can emit: the target must
        // canonicalize to the very point whose bytes are expected, and the
        // expected bytes must be what the server's own renderers produce.
        let mut points = hot_points(36);
        points.extend(hot_points(1));
        points.extend(fresh_points(36, 400));
        for p in &points {
            let req = point_request(p);
            let head = String::from_utf8(req.wire.clone()).unwrap();
            let target = head.split_whitespace().nth(1).unwrap();
            let query = target.strip_prefix("/eval?").expect("an /eval target");
            let parsed = Point::from_query(query).unwrap_or_else(|e| panic!("{target}: {e}"));
            assert_eq!(&parsed, p, "{target}");
            assert_eq!(req.body, point_response_body(&parsed, parsed.eval()).into_bytes());
            match hec_serve::reactor::parse_request(&req.wire).unwrap() {
                hec_serve::reactor::Parse::Complete { req: r, consumed, keep_alive } => {
                    assert_eq!((r.method.as_str(), r.path.as_str()), ("GET", "/eval"));
                    assert_eq!(consumed, req.wire.len());
                    assert!(keep_alive);
                }
                hec_serve::reactor::Parse::Incomplete => panic!("{target} is a whole request"),
            }
        }
        let hot = hot_points(36);
        assert_eq!(hot.len(), spec::HOT_KEYS);
        let keys: std::collections::HashSet<String> =
            hot.iter().map(|p| p.canonical_key()).collect();
        assert_eq!(keys.len(), hot.len(), "hot keys are distinct");
        for app in AppId::ALL {
            let req = sweep_request(app);
            assert_eq!(req.body, sweep_response_body(app, |p| p.eval()).into_bytes());
            assert!(req.wire.starts_with(format!("GET /sweep?app={} ", app.name()).as_bytes()));
        }
        let mix = RequestSet::build(Workload::ClusterMix, 36, 5_000);
        let sweeps = mix.plan.iter().filter(|&&i| i as usize >= spec::HOT_KEYS).count();
        assert!((800..1200).contains(&sweeps), "{sweeps} sweeps in 5000 arrivals at 20 %");
    }
}
