//! `repro loadgen` — seeded open-loop load generator for the
//! serve/cluster subsystems.
//!
//! The workload is a repeated-request mix: single points for all four
//! apps across several platforms, plus a sweep per app. Because it
//! repeats, a correctly caching server converges to a high hit rate.
//! Request arrival times are a fixed, seeded schedule — exponential
//! inter-arrivals at the offered rate (`--rate=N`), computed *before*
//! the run and independent of response times ([`arrival_offsets_ns`]).
//! Latency is measured from each request's *scheduled* arrival to its
//! completion, so time a request spends waiting behind a stalled server
//! counts against the server, not against the schedule — a closed loop,
//! where a slow response delays the client's next arrival, would
//! under-represent exactly the stalls it should expose. Same seed +
//! rate ⇒ byte-identical schedule.
//!
//! Clients use the retrying GET ([`client::get_with_retry`]): a `503 +
//! Retry-After` or a transport blip is retried with seeded backoff, and
//! a request that needed a retry but ultimately succeeded is counted as
//! `retried_ok` — *not* as an error. Only requests that stay failed
//! after the budget count against the run.
//!
//! The target's `/metrics` document decides the output shape: a
//! document with a `cluster` section means the target is a
//! `hec-cluster` router, and the run emits `BENCH_cluster.json`
//! (throughput, exact latency quantiles, failovers, availability);
//! otherwise it emits `BENCH_serve.json` with the cache breakdown.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hec_core::json::Json;
use hec_serve::client;
use report::latency::{cluster_table, latency_table, ClusterSummary, LatencySummary};

/// Default load duration, seconds.
pub const DEFAULT_SECS: u64 = 5;
/// Default sender-thread count.
pub const DEFAULT_CLIENTS: usize = 4;
/// Default offered rate, requests per second — the rate `repro all`
/// runs at, where it is an exact field of the BENCH artifacts.
pub const DEFAULT_RATE_RPS: f64 = 400.0;
/// Default arrival-schedule seed. Any seed is
/// valid; this one's Poisson draw lands near the nominal count at the
/// pipeline's default (rate, secs), so the offered-vs-achieved stamp
/// reads cleanly (an unlucky seed can legitimately draw a 3σ-thin
/// schedule and make a healthy server look 10% slow).
pub const DEFAULT_SEED: u64 = 36;

/// The load to offer: a fixed rate and the seed of the arrival
/// schedule.
#[derive(Clone, Copy)]
pub struct OpenLoop {
    /// Offered request rate, requests per second.
    pub rate_rps: f64,
    /// Seed of the exponential inter-arrival schedule.
    pub seed: u64,
}

/// The deterministic open-loop arrival schedule: offsets (ns from run
/// start) of every request in a `secs`-second run at `rate_rps`,
/// Poisson arrivals via seeded exponential inter-arrival gaps. The
/// schedule depends only on `(seed, rate_rps, secs)` — never on the
/// target's behaviour — which is what makes the run open-loop.
pub fn arrival_offsets_ns(seed: u64, rate_rps: f64, secs: u64) -> Vec<u64> {
    let mut rng = hec_core::rng::Rng::new(seed);
    let mean_gap_ns = 1e9 / rate_rps.max(1e-9);
    let horizon_ns = secs.max(1) as f64 * 1e9;
    let mut t = 0.0f64;
    let mut offsets = Vec::new();
    loop {
        // Inverse-CDF exponential sample; uniform() is in [0, 1) so
        // ln(1-u) is finite.
        t += -mean_gap_ns * (1.0 - rng.uniform()).ln();
        if t >= horizon_ns {
            return offsets;
        }
        offsets.push(t as u64);
    }
}

/// One request class in the generated mix.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Eval,
    Sweep,
}

/// The canonical `/eval` query strings: every app across several
/// platforms at table-sized concurrencies. This list is part of the
/// reproducibility contract — it seeds the load mix, the
/// `CANON_eval.json` artifact (`repro all` snapshots each query's exact
/// response bytes), and the `config_hash` stamped into artifact
/// metadata, so changing it deliberately invalidates old baselines.
pub fn eval_queries() -> Vec<String> {
    let mut qs = Vec::new();
    for (app, extra) in [("gtc", ""), ("lbmhd", "&n=512"), ("paratec", ""), ("fvcam", "&pz=4")] {
        for platform in ["power3", "x1msp", "es", "sx8"] {
            qs.push(format!("app={app}&platform={platform}&procs=256{extra}"));
        }
    }
    qs.push("app=gtc&platform=4ssp&procs=512".to_string());
    qs.push("app=lbmhd&platform=opteron&procs=1024&n=1024".to_string());
    qs
}

/// The repeated-request mix: the canonical eval points plus one sweep
/// per app.
fn workload(base: &str) -> Vec<(Class, String)> {
    let mut urls: Vec<(Class, String)> =
        eval_queries().into_iter().map(|q| (Class::Eval, format!("{base}/eval?{q}"))).collect();
    for app in ["gtc", "lbmhd", "paratec", "fvcam"] {
        urls.push((Class::Sweep, format!("{base}/sweep?app={app}")));
    }
    urls
}

/// One completed request.
#[derive(Clone, Copy)]
struct Sample {
    class: Class,
    latency_us: u64,
    ok: bool,
    /// Succeeded only after at least one retry.
    retried_ok: bool,
}

struct ClientStats {
    samples: Vec<Sample>,
    /// Requests that exhausted the retry budget on transport errors.
    transport_errors: u64,
}

/// Runs the fixed arrival schedule against the workload: the caller
/// thread dispatches each request at its scheduled instant (or
/// immediately, if the schedule is behind — the deficit shows up in
/// the achieved rate); `clients` sender threads pick jobs up and
/// measure latency from the *scheduled* arrival, so queueing behind a
/// slow target is charged to the target.
fn drive_open(base: &str, ol: OpenLoop, secs: u64, clients: usize) -> Vec<ClientStats> {
    let urls = Arc::new(workload(base));
    let offsets = arrival_offsets_ns(ol.seed, ol.rate_rps, secs);
    let (tx, rx) = std::sync::mpsc::channel::<(Instant, usize, u64)>();
    // std mpsc is single-consumer; senders share the receiver.
    let rx = Arc::new(std::sync::Mutex::new(rx));
    let t0 = Instant::now();
    let senders: Vec<_> = (0..clients.max(1))
        .map(|_| {
            let (rx, urls) = (Arc::clone(&rx), Arc::clone(&urls));
            std::thread::spawn(move || {
                let policy = client::RetryPolicy::default();
                let mut stats = ClientStats { samples: Vec::new(), transport_errors: 0 };
                loop {
                    let job = rx.lock().unwrap().recv();
                    let Ok((scheduled, idx, seed)) = job else { break };
                    let (class, url) = &urls[idx];
                    match client::get_with_retry(url, &policy, seed) {
                        Ok(out) => {
                            let us = scheduled.elapsed().as_micros().min(u64::MAX as u128) as u64;
                            let ok = out.response.status == 200;
                            stats.samples.push(Sample {
                                class: *class,
                                latency_us: us,
                                ok,
                                retried_ok: ok && out.retried_ok,
                            });
                        }
                        Err(_) => stats.transport_errors += 1,
                    }
                }
                stats
            })
        })
        .collect();
    let n = urls.len();
    for (i, off) in offsets.iter().enumerate() {
        let scheduled = t0 + Duration::from_nanos(*off);
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        // Per-request retry-jitter seed, deterministic in (seed, i).
        let jitter = ol.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        if tx.send((scheduled, i % n, jitter)).is_err() {
            break;
        }
    }
    drop(tx);
    senders.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Polls the target's `connections.open` gauge until it reads zero or
/// a ~2 s budget runs out; returns the last reading. The gauge
/// excludes the connection carrying the `/metrics` request itself, so
/// a fully drained target reads exactly zero.
fn connections_after_drain(metrics_url: &str) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let open =
            metrics_doc(metrics_url).map(|d| counter(&d, &["connections", "open"])).unwrap_or(0);
        if open == 0 || Instant::now() >= deadline {
            return open;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn quantile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

fn metrics_doc(metrics_url: &str) -> Option<Json> {
    Json::parse(&client::http_get(metrics_url).ok()?.body).ok()
}

fn counter(doc: &Json, path: &[&str]) -> u64 {
    let mut node = doc;
    for key in path {
        match node.get(key) {
            Some(next) => node = next,
            None => return 0,
        }
    }
    node.as_f64().unwrap_or(0.0) as u64
}

fn summarize(class: Class, label: &str, samples: &[Sample]) -> LatencySummary {
    let mut lat: Vec<u64> =
        samples.iter().filter(|s| s.class == class).map(|s| s.latency_us).collect();
    lat.sort_unstable();
    let errors = samples.iter().filter(|s| s.class == class && !s.ok).count() as u64;
    LatencySummary {
        label: label.to_string(),
        requests: lat.len() as u64,
        errors,
        p50_us: quantile(&lat, 0.50),
        p95_us: quantile(&lat, 0.95),
        p99_us: quantile(&lat, 0.99),
    }
}

/// Runs the load test against `url` and writes the result into the
/// current directory with a fresh metadata stamp (the standalone
/// `repro loadgen` entry point).
pub fn run(url: &str, secs: u64, clients: usize, open: OpenLoop) -> u64 {
    let meta = crate::artifact::Meta::collect(secs, clients, 0);
    run_into(&crate::artifact::Writer::cwd(&meta), url, secs, clients, open)
}

/// Runs the load test against `url` (a `hec-serve` instance or a
/// `hec-cluster` router) and writes `BENCH_serve.json` or
/// `BENCH_cluster.json` through `w` accordingly. Returns the number of
/// error responses (HTTP or transport, after retries) so callers can
/// fail a run that did not serve cleanly.
pub fn run_into(
    w: &crate::artifact::Writer,
    url: &str,
    secs: u64,
    clients: usize,
    open: OpenLoop,
) -> u64 {
    let base = url.trim_end_matches('/').to_string();
    let metrics_url = format!("{base}/metrics");
    let before = metrics_doc(&metrics_url);
    if before.is_none() {
        eprintln!("warning: {metrics_url} unreachable before the run");
    }
    let is_cluster = before.as_ref().is_some_and(|d| d.get("cluster").is_some());
    let what = if is_cluster { "cluster" } else { "serve" };

    let t0 = Instant::now();
    eprintln!(
        "loadgen: open loop at {} rps (seed {:#x}, {clients} senders) against {base} \
         ({what}) for {secs}s...",
        open.rate_rps, open.seed
    );
    let stats = drive_open(&base, open, secs, clients);
    let elapsed = t0.elapsed().as_secs_f64();

    let samples: Vec<Sample> = stats.iter().flat_map(|s| s.samples.iter().copied()).collect();
    let transport_errors: u64 = stats.iter().map(|s| s.transport_errors).sum();
    let http_errors = samples.iter().filter(|s| !s.ok).count() as u64;
    let errors = transport_errors + http_errors;
    let retried_ok = samples.iter().filter(|s| s.retried_ok).count() as u64;
    let requests = samples.len() as u64;
    let attempted = requests + transport_errors;
    let availability =
        if attempted > 0 { (requests - http_errors) as f64 / attempted as f64 } else { 0.0 };
    let throughput = requests as f64 / elapsed;

    let mut all: Vec<u64> = samples.iter().map(|s| s.latency_us).collect();
    all.sort_unstable();
    let mean_us =
        if all.is_empty() { 0.0 } else { all.iter().sum::<u64>() as f64 / all.len() as f64 };

    let after = metrics_doc(&metrics_url);
    let delta = |path: &[&str]| match (&before, &after) {
        (Some(b), Some(a)) => counter(a, path).saturating_sub(counter(b, path)),
        _ => 0,
    };

    let eval_sum = summarize(Class::Eval, "/eval", &samples);
    let sweep_sum = summarize(Class::Sweep, "/sweep", &samples);
    let title = format!("{what} load test");
    print!(
        "{}",
        latency_table(&title, &[eval_sum.clone(), sweep_sum.clone()], throughput).render()
    );

    let class_doc = |s: &LatencySummary| {
        Json::obj([
            ("requests", Json::Num(s.requests as f64)),
            ("errors", Json::Num(s.errors as f64)),
            ("p50_us", Json::Num(s.p50_us as f64)),
            ("p95_us", Json::Num(s.p95_us as f64)),
            ("p99_us", Json::Num(s.p99_us as f64)),
        ])
    };
    let connections_open_after_drain = connections_after_drain(&metrics_url);
    let mut fields = vec![
        ("bench", Json::Str(what.to_string())),
        ("url", Json::Str(base.clone())),
        ("secs", Json::Num(secs as f64)),
        ("clients", Json::Num(clients as f64)),
        // Always true; kept so BENCH_* exact fields do not move.
        ("open_loop", Json::Bool(true)),
        ("rate_offered_rps", Json::Num(open.rate_rps)),
        ("rate_achieved_rps", Json::Num(throughput)),
        ("seed", Json::Num(open.seed as f64)),
    ];
    fields.extend([
        ("requests", Json::Num(requests as f64)),
        ("errors", Json::Num(errors as f64)),
        ("transport_errors", Json::Num(transport_errors as f64)),
        ("retried_ok", Json::Num(retried_ok as f64)),
        ("throughput_rps", Json::Num(throughput)),
        ("connections_open_after_drain", Json::Num(connections_open_after_drain as f64)),
        (
            "latency_us",
            Json::obj([
                ("mean", Json::Num(mean_us)),
                ("p50", Json::Num(quantile(&all, 0.50) as f64)),
                ("p95", Json::Num(quantile(&all, 0.95) as f64)),
                ("p99", Json::Num(quantile(&all, 0.99) as f64)),
                ("max", Json::Num(all.last().copied().unwrap_or(0) as f64)),
            ]),
        ),
        ("by_class", Json::obj([("eval", class_doc(&eval_sum)), ("sweep", class_doc(&sweep_sum))])),
    ]);

    if is_cluster {
        let failovers = delta(&["failovers"]);
        let hedges = delta(&["hedges"]);
        // Elasticity deltas: how much the membership changed *during
        // this run*. All four are deterministic under a seeded plan, so
        // `repro diff` can hold them bit-for-bit.
        let membership_events = delta(&["membership", "events"]);
        let keys_moved = delta(&["membership", "handoff", "keys_moved"]);
        let warm_hits = delta(&["membership", "handoff", "warm_hits"]);
        let autoscale_up = delta(&["membership", "autoscale", "up"]);
        let autoscale_down = delta(&["membership", "autoscale", "down"]);
        let summary = ClusterSummary {
            replicas: after
                .as_ref()
                .map(|d| {
                    d.get("cluster")
                        .and_then(|c| c.get("replicas"))
                        .and_then(|r| match r {
                            Json::Arr(v) => Some(v.len() as u64),
                            _ => None,
                        })
                        .unwrap_or(0)
                })
                .unwrap_or(0),
            up: after.as_ref().map(|d| counter(d, &["cluster", "up"])).unwrap_or(0),
            failovers,
            retried_ok,
            availability,
            membership_events,
            keys_moved,
            autoscale: (autoscale_up, autoscale_down),
        };
        print!("{}", cluster_table("cluster availability", &summary).render());
        eprintln!(
            "cluster: {failovers} failovers, {hedges} hedges, {retried_ok} retried-then-ok; \
             {membership_events} membership events ({keys_moved} keys moved); \
             {errors} errors; availability {:.3}%",
            availability * 100.0
        );
        fields.push((
            "cluster",
            Json::obj([
                ("replicas", Json::Num(summary.replicas as f64)),
                ("up", Json::Num(summary.up as f64)),
                ("failovers", Json::Num(failovers as f64)),
                ("hedges", Json::Num(hedges as f64)),
                ("router_retries", Json::Num(delta(&["retries"]) as f64)),
                ("availability", Json::Num(availability)),
            ]),
        ));
        fields.extend([
            ("membership_events", Json::Num(membership_events as f64)),
            ("keys_moved", Json::Num(keys_moved as f64)),
            ("warm_hits", Json::Num(warm_hits as f64)),
            (
                "autoscale_decisions",
                Json::obj([
                    ("up", Json::Num(autoscale_up as f64)),
                    ("down", Json::Num(autoscale_down as f64)),
                ]),
            ),
        ]);
    } else {
        let (hits, misses, evictions) = (
            delta(&["cache", "hits"]),
            delta(&["cache", "misses"]),
            delta(&["cache", "evictions"]),
        );
        let hit_rate = if hits + misses > 0 { hits as f64 / (hits + misses) as f64 } else { 0.0 };
        eprintln!(
            "cache: {hits} hits / {misses} misses ({:.0}% hit rate); \
             {retried_ok} retried-then-ok; {errors} errors",
            hit_rate * 100.0
        );
        fields.push((
            "cache",
            Json::obj([
                ("hits", Json::Num(hits as f64)),
                ("misses", Json::Num(misses as f64)),
                ("evictions", Json::Num(evictions as f64)),
                ("hit_rate", Json::Num(hit_rate)),
            ]),
        ));
    }

    let out_name = format!("BENCH_{what}.json");
    if let Err(e) = w.write(&out_name, fields) {
        eprintln!("could not write {out_name}: {e}");
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let v = [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(quantile(&v, 0.50), 50);
        assert_eq!(quantile(&v, 0.95), 100);
        assert_eq!(quantile(&v, 0.99), 100);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&v[..1], 0.5), 10);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn eval_queries_parse_to_canonical_points() {
        // The canonical workload must stay inside the request schema —
        // a typo here would turn every load-test request into a 400 and
        // break the CANON_eval.json artifact.
        for q in eval_queries() {
            hec_serve::request::Point::from_query(&q).unwrap_or_else(|e| panic!("{q}: {e:?}"));
        }
    }

    #[test]
    fn workload_mix_covers_all_apps_and_both_classes() {
        let urls = workload("http://h:1");
        assert!(urls.iter().any(|(c, _)| *c == Class::Sweep));
        for app in ["gtc", "lbmhd", "paratec", "fvcam"] {
            assert!(urls.iter().any(|(_, u)| u.contains(&format!("app={app}"))), "{app}");
        }
        // The mix must repeat points (cache-friendliness is the point).
        assert!(urls.len() < 64);
    }

    #[test]
    fn arrival_schedule_is_deterministic_in_seed_and_rate() {
        let a = arrival_offsets_ns(7, 500.0, 3);
        let b = arrival_offsets_ns(7, 500.0, 3);
        assert_eq!(a, b, "same seed + rate must give an identical schedule");
        assert_ne!(a, arrival_offsets_ns(8, 500.0, 3), "seed must move the schedule");
        assert_ne!(a, arrival_offsets_ns(7, 400.0, 3), "rate must move the schedule");
        // Poisson sanity: ~rate*secs arrivals, strictly increasing,
        // inside the horizon.
        assert!((1200..=1800).contains(&a.len()), "{} arrivals at 500 rps x 3 s", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 3_000_000_000);
        let mean_gap = *a.last().unwrap() as f64 / a.len() as f64;
        assert!(
            (1_500_000.0..2_700_000.0).contains(&mean_gap),
            "mean gap {mean_gap} ns should sit near 2 ms"
        );
    }

    #[test]
    fn open_loop_latency_is_measured_from_the_scheduled_arrival() {
        // A single-connection mock server that injects a fixed delay
        // per request. With one sender, completions follow the
        // deterministic recurrence c_i = max(a_i, c_{i-1}) + s over the
        // (known, seeded) arrival schedule, so the expected quantiles
        // are hand-computable. A closed-loop run against the same
        // server would report ~s for every percentile — coordinated
        // omission; the open-loop numbers must show the queueing ramp.
        const DELAY: Duration = Duration::from_millis(20);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            use std::io::{Read, Write};
            for conn in listener.incoming() {
                let Ok(mut s) = conn else { break };
                let mut buf = [0u8; 4096];
                loop {
                    match s.read(&mut buf) {
                        Ok(0) | Err(_) => return,
                        Ok(_) => {}
                    }
                    std::thread::sleep(DELAY);
                    let _ = s.write_all(
                        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\
                          Connection: keep-alive\r\n\r\nok",
                    );
                }
            }
        });

        let ol = OpenLoop { rate_rps: 100.0, seed: 11 };
        let stats = drive_open(&format!("http://{addr}"), ol, 1, 1);
        drop(server);

        let offsets = arrival_offsets_ns(ol.seed, ol.rate_rps, 1);
        let mut expected: Vec<u64> = Vec::new();
        let mut c = 0u64;
        for &a in &offsets {
            c = c.max(a) + DELAY.as_nanos() as u64;
            expected.push((c - a) / 1_000);
        }
        expected.sort_unstable();

        let mut got: Vec<u64> =
            stats.iter().flat_map(|s| s.samples.iter()).map(|s| s.latency_us).collect();
        got.sort_unstable();
        assert_eq!(got.len(), offsets.len(), "every scheduled request must complete");
        assert_eq!(stats.iter().map(|s| s.transport_errors).sum::<u64>(), 0);

        for q in [0.50, 0.95, 0.99] {
            let (want, have) = (quantile(&expected, q) as f64, quantile(&got, q) as f64);
            assert!(
                have >= want * 0.6 && have <= want * 1.8 + 20_000.0,
                "p{:.0}: expected ~{want} us, measured {have} us",
                q * 100.0
            );
        }
        // The omission-free signal: the tail must dwarf the 20 ms
        // service time (a closed-loop run would report ~20 ms flat).
        assert!(
            quantile(&got, 0.99) > 5 * DELAY.as_micros() as u64,
            "p99 {} us should show the queueing ramp",
            quantile(&got, 0.99)
        );
    }

    #[test]
    fn counters_walk_nested_metrics_documents() {
        let doc = Json::parse(r#"{"failovers": 3, "cluster": {"up": 2}, "cache": {"hits": 10}}"#)
            .unwrap();
        assert_eq!(counter(&doc, &["failovers"]), 3);
        assert_eq!(counter(&doc, &["cluster", "up"]), 2);
        assert_eq!(counter(&doc, &["cache", "hits"]), 10);
        assert_eq!(counter(&doc, &["cache", "nope"]), 0);
        assert_eq!(counter(&doc, &["missing"]), 0);
    }
}
