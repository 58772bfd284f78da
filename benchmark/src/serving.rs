//! The three serving workloads: set-up, warm-up, rounds of open-loop
//! reference segments and saturation bursts, and — for the traced run — the
//! state samples and the in-process one-in-flight measurements.
//!
//! One run is: idle-priority spinners on the server's CPUs → set up
//! [`spec::SERVING_SETUPS`] times (the last is kept) → warm-up at the
//! reference rate (discarded) → [`spec::REF_SEGMENTS`] rounds of one
//! **reference segment** — open loop at the reference rate, cut into windows
//! of [`spec::WINDOW_SECS`]; latency is taken over the run's quietest
//! [`spec::BETTER_SHARE`] of windows — and one **saturation burst** —
//! batches with [`spec::SAT_WINDOW`] requests kept outstanding per
//! connection, whose rates are the sustained capacity (`knee_rps`) without
//! a staircase of rungs.

use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use hec_core::json::Json;
use hec_serve::client;
use hec_serve::engine::AppId;

use crate::child::{self, Child, Spinners};
use crate::gen::{self, Conn, Pacing, RawClient, Request, RequestSet, SegmentOut};
use crate::host::Drift;
use crate::layers::{self, Rows};
use crate::report::RunOutput;
use crate::spec::{self, ServingSpec, Workload};
use crate::stats::{better_quantile, median, percentile_sorted};
use crate::sys;
use crate::trace::{count_allocs, Tracer};

/// End-to-end names of the per-app latency metrics, in [`AppId::ALL`] order
/// (fvcam, gtc, lbmhd, paratec).
const APP_METRICS: [&str; 4] = ["fvcam_step_ms", "gtc_step_ms", "lbmhd_step_ms", "paratec_iter_ms"];

/// Phase lengths of one run: shares of `--seconds`.
struct Lengths {
    warm_secs: f64,
    seg_secs: f64,
    segments: usize,
    sat_secs: f64,
    sat_batch: usize,
    /// Most requests the saturation bursts may send (the plan holds them).
    sat_max: usize,
}

impl Lengths {
    fn untraced(shape: &ServingSpec, seconds: f64) -> Lengths {
        let sat_secs = seconds * spec::SAT_SHARE;
        Lengths {
            warm_secs: seconds * spec::WARMUP_SHARE,
            seg_secs: seconds * spec::REF_SHARE / spec::REF_SEGMENTS as f64,
            segments: spec::REF_SEGMENTS,
            sat_secs,
            sat_batch: shape.sat_batch,
            sat_max: ((sat_secs * shape.sat_cap_rps) as usize).max(shape.sat_batch),
        }
    }

    /// The traced run: four reference segments with a span per request, no
    /// saturation bursts.
    fn traced(seconds: f64) -> Lengths {
        Lengths {
            warm_secs: seconds * spec::WARMUP_SHARE,
            seg_secs: seconds * spec::REF_SHARE / spec::REF_SEGMENTS as f64,
            segments: 4,
            sat_secs: 0.0,
            sat_batch: 0,
            sat_max: 0,
        }
    }

    /// Upper bound on arrivals the run can consume (5 % Poisson slack: five
    /// standard deviations of the shortest segment's count and more).
    fn arrivals(&self, rate: f64) -> usize {
        let open = (self.warm_secs + self.seg_secs * self.segments as f64) * rate * 1.05;
        open as usize + 256 + self.sat_max
    }
}

/// A set-up system: the child and the generator's connections to it.
struct Ready {
    child: Child,
    conns: Vec<Conn>,
}

/// One set-up: spawn the child, connect, send every warm request once (the
/// first `/eval` of each app pays its calibration capture).
fn set_up(
    exe: &Path,
    shape: &ServingSpec,
    set: &RequestSet,
    cpus: Option<&[usize]>,
) -> Result<Ready, String> {
    let child = Child::spawn(exe, shape, cpus)?;
    let mut conns = Vec::with_capacity(spec::CONNECTIONS);
    for _ in 0..spec::CONNECTIONS {
        conns.push(Conn::connect(child.addr).map_err(|e| format!("connect: {e}"))?);
    }
    for (k, &idx) in set.warm.iter().enumerate() {
        gen::get_once(&mut conns[k % spec::CONNECTIONS], set, idx)
            .map_err(|e| format!("warm request failed: {e}"))?;
    }
    Ok(Ready { child, conns })
}

/// One window of an open-loop segment: its median latency, how late the
/// generator itself was, and the samples, kept so the run's quiet windows
/// can be pooled.
struct Window {
    p50_us: f64,
    /// How late the generator itself wrote this window's requests, p99.
    late_p99_us: f64,
    /// `(latency ns, app index)` of every answered request due in it.
    samples: Vec<(u64, u8)>,
}

/// What one open-loop segment says, whole and window by window.
struct SegStats {
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    max_us: f64,
    cpu_us_per_req: f64,
    late_p99_us: f64,
    achieved_frac: f64,
    gen_us_per_req: f64,
    windows: Vec<Window>,
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Cuts a segment's samples into windows of [`spec::WINDOW_SECS`] by due
/// time. A window with fewer than a hundred answers is left out.
fn windows(seg: &SegmentOut, offsets: &[u64], offered_secs: f64) -> Vec<Window> {
    let n = ((offered_secs / spec::WINDOW_SECS).round() as usize).max(1);
    let width_ns = (offered_secs * 1e9 / n as f64).max(1.0);
    let slot = |due_ns: u64| ((due_ns as f64 / width_ns) as usize).min(n - 1);
    let mut samples: Vec<Vec<(u64, u8)>> = vec![Vec::new(); n];
    for s in &seg.samples {
        samples[slot(s.due_ns)].push((s.lat_ns, s.app));
    }
    let mut late: Vec<Vec<u64>> = vec![Vec::new(); n];
    for (due, l) in offsets.iter().zip(&seg.late_ns) {
        late[slot(*due)].push(*l);
    }
    samples
        .into_iter()
        .zip(late)
        .filter(|(samples, _)| samples.len() >= 100)
        .map(|(samples, late)| Window {
            p50_us: percentile_sorted(&sorted(samples.iter().map(|s| s.0).collect()), 0.50) as f64
                / 1e3,
            late_p99_us: percentile_sorted(&sorted(late), 0.99) as f64 / 1e3,
            samples,
        })
        .collect()
}

fn summarize(seg: &SegmentOut, offsets: &[u64], offered_secs: f64, cpu_secs: f64) -> SegStats {
    let all = sorted(seg.samples.iter().map(|s| s.lat_ns).collect());
    let late = sorted(seg.late_ns.clone());
    let done = seg.samples.len().max(1) as f64;
    SegStats {
        p50_us: percentile_sorted(&all, 0.50) as f64 / 1e3,
        p90_us: percentile_sorted(&all, 0.90) as f64 / 1e3,
        p99_us: percentile_sorted(&all, 0.99) as f64 / 1e3,
        max_us: all.last().copied().unwrap_or(0) as f64 / 1e3,
        cpu_us_per_req: cpu_secs * 1e6 / done,
        late_p99_us: percentile_sorted(&late, 0.99) as f64 / 1e3,
        // Completions inside the segment's own horizon over arrivals due.
        achieved_frac: seg.samples.len() as f64 / seg.attempted.max(1) as f64
            * (offered_secs / seg.wall_s.max(offered_secs)),
        gen_us_per_req: seg.busy_ns as f64 / 1e3 / seg.attempted.max(1) as f64,
        windows: windows(seg, offsets, offered_secs),
    }
}

/// What a run's saturation batches measured.
#[derive(Default)]
struct Saturation {
    /// Answered requests per second, batch by batch.
    rates: Vec<f64>,
    requests: usize,
    wall_s: f64,
}

/// Totals and validity notes accumulated over a run's segments.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// Time spent turning samples into spans, and the wall time of the
    /// segments they came from: their ratio is the tracing overhead.
    span_ns: u64,
    traced_wall_s: f64,
}

impl Tally {
    fn add(&mut self, seg: &SegmentOut) {
        self.attempted += seg.attempted;
        self.failed += seg.failed;
        if let Some(why) = &seg.first_failure {
            if self.notes.len() < 8 {
                self.notes.push(format!("failure: {why}"));
            }
        }
    }
}

/// One serving run in progress: the set-up system, the cursor over the
/// request plan, and what has been counted so far. `run` and `run_traced`
/// are the same steps — open, warm up, rounds, close — with
/// different things in between.
struct Session<'a> {
    shape: ServingSpec,
    lengths: Lengths,
    seed: u64,
    set: &'a RequestSet,
    next: usize,
    ready: Ready,
    /// Keep the server's CPUs from halting while it is measured.
    spinners: Spinners,
    /// Whether generator and server sit on CPUs of their own.
    pinned: bool,
    drift_before: Drift,
    /// Seconds each set-up took.
    setups: Vec<f64>,
    tally: Tally,
}

impl<'a> Session<'a> {
    /// Probes the host, pins the generator, sets the system up `setups`
    /// times (keeping the last) and runs the discarded warm-up.
    fn open(
        exe: &Path,
        shape: ServingSpec,
        lengths: Lengths,
        seed: u64,
        set: &'a RequestSet,
        setups: usize,
    ) -> Result<Session<'a>, String> {
        let layout = sys::pin_layout();
        let drift_before = Drift::measure();
        let pinned =
            layout.as_ref().is_some_and(|(_, gen_cpu)| sys::pin_current_thread(&[*gen_cpu]));
        let cpus = layout.as_ref().filter(|_| pinned).map(|(server, _)| server.as_slice());
        // The generator's own CPU never halts: it busy-polls.
        let spinners = Spinners::spawn(exe, cpus.unwrap_or(&[]));
        let mut times = Vec::with_capacity(setups);
        let mut ready = None;
        for _ in 0..setups.max(1) {
            drop(ready.take());
            let t = Instant::now();
            ready = Some(set_up(exe, &shape, set, cpus)?);
            times.push(t.elapsed().as_secs_f64());
        }
        let mut session = Session {
            shape,
            lengths,
            seed,
            set,
            next: 0,
            ready: ready.expect("at least one set-up"),
            spinners,
            pinned,
            drift_before,
            setups: times,
            tally: Tally::default(),
        };
        // Warm-up: same traffic, discarded (failures still count).
        let warm =
            gen::arrival_offsets_ns(seed ^ 0x7761726d, shape.ref_rps, session.lengths.warm_secs);
        session.segment(warm.len(), Pacing::Open(&warm))?;
        Ok(session)
    }

    /// Runs the next `n` planned arrivals as one segment and tallies it.
    fn segment(&mut self, n: usize, pacing: Pacing<'_>) -> Result<SegmentOut, String> {
        let ids = self.set.plan.get(self.next..self.next + n).ok_or("request plan exhausted")?;
        self.next += n;
        let seg = gen::run_segment(&mut self.ready.conns, self.set, ids, pacing, self.pinned);
        self.tally.add(&seg);
        Ok(seg)
    }

    /// The measured part of a run: `lengths.segments` rounds of one open-loop
    /// segment at the reference rate (one span per answered request), then a
    /// burst of saturation batches — the two phases in turns, so that each
    /// draws its least disturbed tenth from the whole run and a bad stretch
    /// of the host cannot swallow one of them. The traced run has no bursts.
    fn rounds(&mut self, tracer: &mut Tracer) -> Result<(Vec<SegStats>, Saturation), String> {
        let pid = self.ready.child.pid();
        let rounds = self.lengths.segments;
        let mut stats = Vec::with_capacity(rounds);
        let mut sat = Saturation::default();
        for i in 0..rounds {
            let seg_seed = self.seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
            let offsets =
                gen::arrival_offsets_ns(seg_seed, self.shape.ref_rps, self.lengths.seg_secs);
            let cpu0 = sys::cpu_time(&pid);
            let seg = self.segment(offsets.len(), Pacing::Open(&offsets))?;
            let cpu = match (cpu0, sys::cpu_time(&pid)) {
                (Some(a), Some(b)) => b.total() - a.total(),
                _ => f64::NAN,
            };
            if tracer.enabled() {
                let recording = Instant::now();
                let t0 = tracer.ns_of(seg.t0);
                for smp in &seg.samples {
                    let due = t0 + smp.due_ns;
                    tracer.record("serving.request", 0, due, due + smp.lat_ns);
                }
                self.tally.span_ns += recording.elapsed().as_nanos() as u64;
                self.tally.traced_wall_s += seg.wall_s;
            }
            stats.push(summarize(&seg, &offsets, self.lengths.seg_secs, cpu));

            // Fixed-size batches until this burst's share of the seconds is
            // up, or of the plan (a host much faster than the reference one).
            let burst = Instant::now();
            let burst_secs = self.lengths.sat_secs / rounds as f64;
            let budget = self.lengths.sat_max * (i + 1) / rounds;
            while burst.elapsed().as_secs_f64() < burst_secs
                && sat.requests + self.lengths.sat_batch <= budget
            {
                let seg = self.segment(self.lengths.sat_batch, Pacing::Window(spec::SAT_WINDOW))?;
                sat.rates.push(seg.samples.len() as f64 / seg.wall_s.max(1e-9));
                sat.requests += self.lengths.sat_batch;
                sat.wall_s += seg.wall_s;
            }
        }
        Ok((stats, sat))
    }

    /// Stops the child and the spinners, frees the generator's CPU, probes
    /// the host again; returns `(before, after)` and what was tallied.
    fn close(mut self) -> (Drift, Drift, bool, Vec<f64>, Tally) {
        drop(self.ready);
        self.tally.notes.push(format!(
            "idle-priority spinners on the server's CPUs: {}",
            self.spinners.count()
        ));
        drop(self.spinners);
        if self.pinned {
            sys::pin_current_thread(&(0..sys::nproc()).collect::<Vec<_>>());
        }
        (self.drift_before, Drift::measure(), self.pinned, self.setups, self.tally)
    }
}

fn med(stats: &[SegStats], f: impl Fn(&SegStats) -> f64) -> f64 {
    median(&stats.iter().map(f).collect::<Vec<_>>())
}

/// Latency over a run's quiet windows, pooled.
struct Quiet {
    /// Windows pooled, and windows the generator was on time for.
    windows: (usize, usize),
    p50_us: f64,
    p90_us: f64,
    app_ms: [f64; 4],
}

/// The windows that speak for a run's latency. Of every window of every
/// segment, first those the generator was on time for (its own lateness p99
/// within [`spec::LATE_LIMIT_US`]: a stalled generator charges its lateness
/// to the server, so such a window is evidence about the host, not the
/// program; when most windows are late the run keeps them all and says so).
/// Of those, the [`spec::BETTER_SHARE`] with the lowest median latency — the
/// stretches in which the host left the system alone. Their samples are
/// pooled and every latency figure is taken over the pool, so the per-app
/// figures and the overall one describe the same stretches of the run.
fn quiet_windows(stats: &[SegStats], notes: &mut Vec<String>) -> Quiet {
    let all: Vec<&Window> = stats.iter().flat_map(|s| &s.windows).collect();
    let mut kept: Vec<&Window> =
        all.iter().copied().filter(|w| w.late_p99_us <= spec::LATE_LIMIT_US).collect();
    if kept.len() < all.len() {
        notes.push(format!(
            "generator lateness p99 over {} us in {} of {} windows",
            spec::LATE_LIMIT_US,
            all.len() - kept.len(),
            all.len()
        ));
    }
    if 2 * kept.len() < all.len() {
        notes.push("flagged: the generator was late in most windows; all are kept".into());
        kept = all;
    }
    kept.sort_by(|a, b| a.p50_us.total_cmp(&b.p50_us));
    let on_time = kept.len();
    kept.truncate(((spec::BETTER_SHARE * on_time as f64).ceil() as usize).max(1));
    let pool = |app: Option<u8>| {
        sorted(
            kept.iter()
                .flat_map(|w| &w.samples)
                .filter(|s| app.is_none_or(|a| a == s.1))
                .map(|s| s.0)
                .collect(),
        )
    };
    let everything = pool(None);
    Quiet {
        windows: (kept.len(), on_time),
        p50_us: percentile_sorted(&everything, 0.50) as f64 / 1e3,
        p90_us: percentile_sorted(&everything, 0.90) as f64 / 1e3,
        app_ms: [0, 1, 2, 3].map(|a| percentile_sorted(&pool(Some(a)), 0.50) as f64 / 1e6),
    }
}

/// The untraced run of a serving workload: every end-to-end metric.
pub fn run(w: Workload, seed: u64, seconds: f64, exe: &Path) -> Result<RunOutput, String> {
    let shape = spec::serving_spec(w);
    let lengths = Lengths::untraced(&shape, seconds);
    let set = RequestSet::build(w, seed, lengths.arrivals(shape.ref_rps));
    let mut session = Session::open(exe, shape, lengths, seed, &set, spec::SERVING_SETUPS)?;
    let (stats, sat) = session.rounds(&mut Tracer::new(false))?;
    let (drift_before, drift_after, pinned, setups, mut tally) = session.close();

    let quiet = quiet_windows(&stats, &mut tally.notes);
    let knee = better_quantile(&sat.rates, spec::BETTER_SHARE, false);
    // The median, for once: disturbance is not one-sided for CPU time. A
    // neighbour's cache traffic raises it, and a server kept off its CPU for
    // a moment answers the backlog in one batch, which lowers it.
    let demand = med(&stats, |s| s.cpu_us_per_req);
    let mut metrics = vec![
        ("setup_s", median(&setups)),
        ("p50_us", quiet.p50_us),
        ("cpu_us_per_req", demand),
        ("knee_rps", knee),
        // The issue's fixed problem, serving form: seconds to answer
        // `SOLVE_REQUESTS` at the sustained capacity.
        ("solve_s", spec::SOLVE_REQUESTS / knee),
    ];
    for (a, name) in APP_METRICS.iter().enumerate() {
        metrics.push((name, quiet.app_ms[a]));
    }
    tally.notes.push(drift_before.note(&drift_after, pinned));
    tally.notes.push(format!(
        "latency over the {} quietest of {} on-time windows; their p90 {:.0} us (reported, not \
         gated)",
        quiet.windows.0, quiet.windows.1, quiet.p90_us
    ));
    tally.notes.push(format!(
        "reference {} rps x {} segments; saturation {} requests in {} batches, \
         {:.2} s as run (stalls included); knee_rps / ((nproc-1) * 1e6 / cpu_us_per_req) = {:.2}; \
         whole-segment medians: p50 {:.0} us, p90 {:.0} us, p99 {:.0} us (reported, not gated); \
         generator late p99 {:.0} us; setups {:?}; batch rates {:?}",
        shape.ref_rps,
        stats.len(),
        sat.requests,
        sat.rates.len(),
        sat.wall_s,
        knee / ((sys::nproc().max(2) - 1) as f64 * 1e6 / demand),
        med(&stats, |s| s.p50_us),
        med(&stats, |s| s.p90_us),
        med(&stats, |s| s.p99_us),
        med(&stats, |s| s.late_p99_us),
        setups.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
        sat.rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
    ));
    Ok(RunOutput {
        workload: w,
        traced: false,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes: tally.notes,
    }
    .finish())
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

/// Counters of the system under test at one instant.
#[derive(Default, Clone, Copy)]
struct State {
    cpu_user: f64,
    cpu_sys: f64,
    switches: f64,
    parsed: f64,
    iterations: f64,
    hits: f64,
    misses: f64,
    evictions: f64,
    rejected: f64,
    failovers: f64,
    retries: f64,
}

fn num(doc: &Json, path: &[&str]) -> f64 {
    let mut node = doc;
    for key in path {
        match node.get(key) {
            Some(next) => node = next,
            None => return 0.0,
        }
    }
    node.as_f64().unwrap_or(0.0)
}

fn metrics_doc(addr: &str) -> Result<Json, String> {
    let r = client::http_get(&format!("http://{addr}/metrics")).map_err(|e| e.to_string())?;
    Json::parse(&r.body).map_err(|e| format!("/metrics of {addr}: {e:?}"))
}

/// Reads the child's counters: `/proc` for CPU and switches, `/metrics` for
/// the reactor and — through each replica's own `/metrics` when the target
/// is a router — the caches.
fn sample_state(child: &Child) -> Result<State, String> {
    let pid = child.pid();
    let cpu = sys::cpu_time(&pid).unwrap_or_default();
    let front = metrics_doc(&child.addr.to_string())?;
    let mut s = State {
        cpu_user: cpu.user,
        cpu_sys: cpu.sys,
        switches: sys::voluntary_switches(&pid).unwrap_or(0) as f64,
        parsed: num(&front, &["reactor", "requests_parsed"]),
        iterations: num(&front, &["reactor", "iterations"]),
        rejected: num(&front, &["rejected"]),
        failovers: num(&front, &["failovers"]),
        retries: num(&front, &["retries"]),
        ..State::default()
    };
    let replicas = front.get("cluster").and_then(|c| c.get("replicas")).and_then(|r| r.as_arr());
    let docs = match replicas {
        None => vec![front.clone()],
        Some(list) => list
            .iter()
            .filter_map(|r| r.get("addr").and_then(|a| a.as_str()))
            .map(metrics_doc)
            .collect::<Result<Vec<_>, _>>()?,
    };
    for doc in &docs {
        s.hits += num(doc, &["cache", "hits"]);
        s.misses += num(doc, &["cache", "misses"]);
        s.evictions += num(doc, &["cache", "evictions"]);
    }
    Ok(s)
}

/// Median wall time of `n` calls of `f`, µs; `Err` on the first failure.
fn median_us(n: usize, mut f: impl FnMut(usize) -> Result<(), String>) -> Result<f64, String> {
    let mut v = Vec::with_capacity(n);
    for i in 0..n {
        let t = Instant::now();
        f(i)?;
        v.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&v))
}

const ONE_IN_FLIGHT: usize = 300;

/// The in-process half of the `hec-serve` ledger: a replica of the
/// workload's shape inside this process, one request in flight over
/// loopback. Gives the RTT ladder (floor, hit, miss, sweep), what share of
/// a hit's RTT is spent inside the hit-path functions, what
/// `hec_serve::client` adds over a plain socket, and allocations per
/// request (the plain-socket client allocates nothing once warm, so the
/// count is the server's).
fn serve_in_process(
    tr: &mut Tracer,
    shape: &ServingSpec,
    seed: u64,
    hit_path_ns: f64,
) -> Result<Rows, String> {
    let server = hec_serve::server::start(child::serve_config(shape)).map_err(|e| e.to_string())?;
    let result = serve_one_in_flight(tr, server.addr(), seed, hit_path_ns);
    server.shutdown();
    server.join();
    result
}

fn serve_one_in_flight(
    tr: &mut Tracer,
    addr: SocketAddr,
    seed: u64,
    hit_path_ns: f64,
) -> Result<Rows, String> {
    let healthz =
        gen::request("/healthz", Json::obj([("ok", Json::Bool(true))]).emit_pretty(), AppId::Gtc);
    let hit = gen::point_request(&gen::hot_points(seed)[0]);
    let sweep = gen::sweep_request(AppId::Gtc);
    let fresh: Vec<Request> = gen::fresh_points(seed ^ 0x696e70, 2 * ONE_IN_FLIGHT + 8)
        .iter()
        .map(gen::point_request)
        .collect();
    let mut raw = RawClient::connect(addr).map_err(|e| e.to_string())?;
    // Warm: calibration, the hit key, the sweep's cells, the client's buffers.
    for req in fresh[2 * ONE_IN_FLIGHT..].iter().chain([&healthz, &hit, &sweep]) {
        raw.get(req)?;
    }

    let traced_get = |tr: &mut Tracer, name: &'static str, req: &Request, raw: &mut RawClient| {
        let root = tr.begin(name, 0);
        let wire = tr.begin("wire", root);
        let out = raw.get(req);
        tr.end(wire);
        tr.end(root);
        out
    };
    let floor =
        median_us(ONE_IN_FLIGHT, |_| traced_get(tr, "serve.rtt_floor", &healthz, &mut raw))?;
    let rtt_miss =
        median_us(ONE_IN_FLIGHT, |i| traced_get(tr, "serve.rtt_miss", &fresh[i], &mut raw))?;
    let rtt_sweep =
        median_us(ONE_IN_FLIGHT / 3, |_| traced_get(tr, "serve.rtt_sweep", &sweep, &mut raw))?;

    // The plain socket and `hec_serve::client` take turns on the same hit,
    // so thread placement and cache state drift hit both alike.
    let target = String::from_utf8_lossy(&hit.wire).split(' ').nth(1).unwrap_or("/").to_string();
    let url = format!("http://{addr}{target}");
    let (mut plain, mut via_client) = (Vec::new(), Vec::new());
    for _ in 0..ONE_IN_FLIGHT {
        let t = Instant::now();
        traced_get(tr, "serve.rtt_hit", &hit, &mut raw)?;
        plain.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let r = tr
            .scope("serve.client_get", 0, || client::http_get(&url))
            .map_err(|e| e.to_string())?;
        via_client.push(t.elapsed().as_secs_f64() * 1e6);
        if r.status != 200 || r.body.as_bytes() != &hit.body[..] {
            return Err(format!("client GET answered {}", r.status));
        }
    }
    let (rtt_hit, via_client) = (median(&plain), median(&via_client));

    let n = ONE_IN_FLIGHT as f64;
    let (hit_ok, allocs_hit, bytes_hit) =
        count_allocs(|| (0..ONE_IN_FLIGHT).try_for_each(|_| raw.get(&hit)));
    hit_ok?;
    let (miss_ok, allocs_miss, _) =
        count_allocs(|| (0..ONE_IN_FLIGHT).try_for_each(|i| raw.get(&fresh[ONE_IN_FLIGHT + i])));
    miss_ok?;

    Ok(vec![
        ("serve.rtt_floor_us", floor),
        ("serve.rtt_hit_us", rtt_hit),
        ("serve.rtt_miss_us", rtt_miss),
        ("serve.rtt_sweep_us", rtt_sweep),
        ("serve.infn_share", hit_path_ns / 1e3 / rtt_hit),
        ("serve.client_extra_us", via_client - rtt_hit),
        ("serve.allocs_hit", allocs_hit as f64 / n),
        ("serve.alloc_bytes_hit", bytes_hit as f64 / n),
        ("serve.allocs_miss", allocs_miss as f64 / n),
    ])
}

/// The in-process half of the `hec-cluster` ledger: the router hop as the
/// difference between a hit through the router and the same hit sent
/// straight to a replica, then one scale-up and one drain — membership as
/// the layer's "write" use — after the hot keys have been routed so the
/// router has keys to move.
fn cluster_in_process(tr: &mut Tracer, shape: &ServingSpec, seed: u64) -> Result<Rows, String> {
    let cluster = hec_cluster::start(child::cluster_config(shape)).map_err(|e| e.to_string())?;
    let result = (|| {
        let replica = cluster.replica_addr(0).ok_or("replica 0 is down")?;
        let hot: Vec<Request> = gen::hot_points(seed).iter().map(gen::point_request).collect();
        let sweep = gen::sweep_request(AppId::Gtc);
        let mut via_router = RawClient::connect(cluster.addr()).map_err(|e| e.to_string())?;
        let mut direct = RawClient::connect(replica).map_err(|e| e.to_string())?;
        for req in hot.iter().chain([&sweep]) {
            via_router.get(req)?;
            direct.get(req)?;
        }
        let mut pair = |tr: &mut Tracer, name: &'static str, req: &Request, n: usize| {
            // One root per request; the two routes are its children, so the
            // hop is the root's first child minus its second.
            let mut routed = Vec::with_capacity(n);
            let mut straight = Vec::with_capacity(n);
            for _ in 0..n {
                let root = tr.begin(name, 0);
                let t = Instant::now();
                tr.scope("via_router", root, || via_router.get(req))?;
                routed.push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                tr.scope("direct", root, || direct.get(req))?;
                straight.push(t.elapsed().as_secs_f64() * 1e6);
                tr.end(root);
            }
            Ok::<f64, String>(median(&routed) - median(&straight))
        };
        let hop = pair(tr, "cluster.hop", &hot[0], ONE_IN_FLIGHT)?;
        let hop_sweep = pair(tr, "cluster.hop_sweep", &sweep, ONE_IN_FLIGHT / 3)?;

        let t = Instant::now();
        let up =
            tr.scope("cluster.scale_up", 0, || cluster.scale_up()).map_err(|e| e.to_string())?;
        let scale_up_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let down = tr
            .scope("cluster.drain", 0, || cluster.drain_replica(up.added))
            .map_err(|e| e.to_string())?;
        let drain_ms = t.elapsed().as_secs_f64() * 1e3;
        Ok(vec![
            ("cluster.hop_us", hop),
            ("cluster.hop_sweep_us", hop_sweep),
            ("cluster.scale_up_ms", scale_up_ms),
            ("cluster.drain_ms", drain_ms),
            ("cluster.keys_moved", (up.keys_moved + down.keys_moved) as f64),
        ])
    })();
    cluster.shutdown();
    cluster.join();
    result
}

/// The traced run of a serving workload: every per-layer metric (0 for the
/// layers this workload bypasses), spans written by the caller.
pub fn run_traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    exe: &Path,
    tr: &mut Tracer,
) -> Result<RunOutput, String> {
    let shape = spec::serving_spec(w);
    let lengths = Lengths::traced(seconds);
    let calib_ms = if w == Workload::ServeMiss {
        tr.scope("model.calibration", 0, || child::cold_calibration_ms(exe))?
    } else {
        0.0
    };
    let set = RequestSet::build(w, seed, lengths.arrivals(shape.ref_rps));
    let mut session = Session::open(exe, shape, lengths, seed, &set, 1)?;
    let before = sample_state(&session.ready.child)?;
    let (segs, _) = session.rounds(tr)?;
    let after = sample_state(&session.ready.child)?;
    let (drift_before, drift_after, pinned, _, mut tally) = session.close();

    let d = |f: fn(&State) -> f64| f(&after) - f(&before);
    // The two /metrics scrapes themselves are requests the reactor parsed.
    let served = (d(|s| s.parsed) - 1.0).max(1.0);
    let lookups = (d(|s| s.hits) + d(|s| s.misses)).max(1.0);
    let cpu = d(|s| s.cpu_user) + d(|s| s.cpu_sys);
    let csw_per_req = d(|s| s.switches) / served;

    let mut rows: Rows = Vec::new();
    let (host_rows, _host, host_note) = layers::host_row(tr, &drift_before);
    rows.extend(host_rows);
    tally.notes.push(host_note);
    rows.push(("host.pinned", f64::from(pinned)));
    rows.push(("host.shifted", f64::from(drift_before.shifted(&drift_after))));
    rows.extend(layers::core(tr));
    let direct = layers::serve_direct(tr, seed);
    rows.extend(direct.rows);
    rows.extend(serve_in_process(tr, &shape, seed, direct.hit_path_ns)?);
    rows.extend([
        ("serve.csw_per_req", csw_per_req),
        ("serve.sys_share", if cpu > 0.0 { d(|s| s.cpu_sys) / cpu } else { 0.0 }),
        ("serve.iters_per_req", d(|s| s.iterations) / served),
        ("serve.hit_rate", d(|s| s.hits) / lookups),
        ("serve.evictions_per_req", d(|s| s.evictions) / served),
        ("serve.rejected", d(|s| s.rejected)),
    ]);
    if w == Workload::ServeMiss {
        rows.extend(layers::arch_model(tr, calib_ms));
    }
    if w == Workload::ClusterMix {
        rows.extend(layers::cluster_direct(tr, seed));
        rows.extend(cluster_in_process(tr, &shape, seed)?);
        rows.extend([
            ("cluster.csw_per_req", csw_per_req),
            ("cluster.failovers", d(|s| s.failovers)),
            ("cluster.retries", d(|s| s.retries)),
        ]);
    }
    rows.extend([
        ("gen.late_p99_us", med(&segs, |s| s.late_p99_us)),
        ("gen.cpu_us_per_req", med(&segs, |s| s.gen_us_per_req)),
        ("load.p90_us", med(&segs, |s| s.p90_us)),
        ("load.p99_us", med(&segs, |s| s.p99_us)),
        ("load.max_us", segs.iter().map(|s| s.max_us).fold(0.0, f64::max)),
        ("load.achieved_frac", med(&segs, |s| s.achieved_frac)),
        // Spans are built from each segment's samples after it ends, so the
        // cost of tracing is the time spent building them, not a slower
        // request: stated as a share of the time that was being measured.
        ("trace.overhead_frac", tally.span_ns as f64 / 1e9 / tally.traced_wall_s.max(1e-9)),
    ]);
    tally.notes.push(format!(
        "traced reference phase: p50 {:.1} us, p90 {:.1} us over {} segments; pinned: {pinned}",
        med(&segs, |s| s.p50_us),
        med(&segs, |s| s.p90_us),
        segs.len()
    ));
    Ok(RunOutput::layers(w, rows, tally.attempted, tally.failed, tally.notes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Sample;

    fn segment(samples: Vec<Sample>, late_ns: Vec<u64>) -> SegmentOut {
        SegmentOut {
            t0: Instant::now(),
            attempted: samples.len() as u64,
            samples,
            late_ns,
            failed: 0,
            first_failure: None,
            wall_s: 1.0,
            busy_ns: 0,
        }
    }

    #[test]
    fn a_segment_is_cut_into_windows_by_due_time() {
        // One second at 1 000 rps: four windows of 250; latency 100 us in
        // the first half, 300 us in the second; the generator 5 ms late for
        // every request of the last window.
        let offsets: Vec<u64> = (0..1000).map(|i| i * 1_000_000).collect();
        let samples: Vec<Sample> = offsets
            .iter()
            .map(|&due_ns| Sample {
                due_ns,
                lat_ns: if due_ns < 500_000_000 { 100_000 } else { 300_000 },
                app: (due_ns / 1_000_000 % 4) as u8,
            })
            .collect();
        let late: Vec<u64> =
            offsets.iter().map(|&d| if d >= 750_000_000 { 5_000_000 } else { 1_000 }).collect();
        let w = windows(&segment(samples, late), &offsets, 1.0);
        assert_eq!(w.len(), 4);
        assert_eq!(w.iter().map(|w| w.samples.len()).collect::<Vec<_>>(), [250; 4]);
        assert_eq!(w.iter().map(|w| w.p50_us).collect::<Vec<_>>(), [100.0, 100.0, 300.0, 300.0]);
        assert_eq!(w.iter().map(|w| w.late_p99_us).collect::<Vec<_>>(), [1.0, 1.0, 1.0, 5000.0]);
        // Too few answers for a median worth ranking: no window at all.
        let few: Vec<Sample> = (0..50).map(|i| Sample { due_ns: i, lat_ns: 1, app: 0 }).collect();
        assert!(windows(&segment(few, vec![0; 50]), &offsets[..50], 1.0).is_empty());
    }

    fn window(p50_us: f64, late_p99_us: f64) -> Window {
        // 100 samples at the window's median, app i % 4 slower by i % 4 us.
        let samples =
            (0..100u64).map(|i| ((p50_us * 1e3) as u64 + (i % 4) * 1_000, (i % 4) as u8)).collect();
        Window { p50_us, late_p99_us, samples }
    }

    fn stats_of(windows: Vec<Window>) -> Vec<SegStats> {
        vec![SegStats {
            p50_us: 0.0,
            p90_us: 0.0,
            p99_us: 0.0,
            max_us: 0.0,
            cpu_us_per_req: 0.0,
            late_p99_us: 0.0,
            achieved_frac: 1.0,
            gen_us_per_req: 0.0,
            windows,
        }]
    }

    #[test]
    fn latency_is_taken_over_the_quietest_tenth_of_the_on_time_windows() {
        // Forty windows: 100, 110, … 490 us; the two fastest are ones the
        // generator was late for and must not speak for the run.
        let mut ws: Vec<Window> = (0..40).map(|i| window(100.0 + 10.0 * i as f64, 10.0)).collect();
        ws[0].late_p99_us = 3_000.0;
        ws[1].late_p99_us = 3_000.0;
        ws.reverse(); // order in the run does not matter
        let mut notes = Vec::new();
        let q = quiet_windows(&stats_of(ws), &mut notes);
        assert_eq!(q.windows, (4, 38), "a tenth of 38, rounded up");
        // Pool of the 120, 130, 140, 150 us windows, each app a quarter.
        assert!((130.0..=142.0).contains(&q.p50_us), "{}", q.p50_us);
        assert!(q.app_ms[3] > q.app_ms[0], "app 3's samples are 3 us slower");
        assert!(q.p90_us >= q.p50_us);
        assert_eq!(notes.len(), 1, "{notes:?}");
        assert!(notes[0].contains("2 of 40"));

        // A disturbed majority does not move the figure …
        let calm: Vec<Window> = (0..40).map(|i| window(100.0 + i as f64, 10.0)).collect();
        let noisy: Vec<Window> = (0..40)
            .map(|i| window(if i < 8 { 100.0 + i as f64 } else { 400.0 + i as f64 }, 10.0))
            .collect();
        assert_eq!(
            quiet_windows(&stats_of(calm), &mut Vec::new()).p50_us,
            quiet_windows(&stats_of(noisy), &mut Vec::new()).p50_us
        );

        // … and when the generator was late almost everywhere the run keeps
        // every window and says so instead of standing on the few.
        let ws: Vec<Window> =
            (0..10).map(|i| window(100.0 + i as f64, if i < 3 { 10.0 } else { 9_000.0 })).collect();
        let mut notes = Vec::new();
        let q = quiet_windows(&stats_of(ws), &mut notes);
        assert_eq!(q.windows, (1, 10));
        assert!(notes.iter().any(|n| n.starts_with("flagged")));
    }
}
