//! Helpers shared by the serving-tier integration tests (`serve_e2e`,
//! `serve_concurrency`, `cluster_e2e`, `cluster_elasticity`): the test
//! cluster configuration, the byte-identity workload, `/metrics`
//! lookups by key path, and the retried GET the cluster tests drive the
//! router with.

// Each test target compiles its own copy and uses a subset.
#![allow(dead_code)]

use std::time::Duration;

use hec_cluster::{ClusterConfig, FaultPlan};
use hec_core::json::Json;
use hec_core::retry::Backoff;
use hec_serve::client::{self, RetryPolicy};
use hec_serve::request::Point;
use hec_serve::server::{self, ServeConfig};

pub fn cluster_cfg(replicas: usize, faults: FaultPlan) -> ClusterConfig {
    ClusterConfig {
        replicas,
        replica: ServeConfig { port: 0, workers: 2, queue: 32, cache_capacity: 512 },
        retry: RetryPolicy {
            base_ms: 5,
            cap_ms: 50,
            max_retries: 4,
            timeout: Duration::from_secs(10),
        },
        faults,
        ..ClusterConfig::default()
    }
}

/// The byte-identity workload: eval queries spanning all four apps,
/// paired with the body the single-process engine produces for them.
pub fn expected_bodies() -> Vec<(String, String)> {
    [
        "app=gtc&platform=x1msp&procs=256",
        "app=gtc&platform=4ssp&procs=512",
        "app=lbmhd&platform=es&procs=1024&n=1024",
        "app=lbmhd&platform=sx8&procs=512&n=512",
        "app=paratec&platform=power3&procs=128",
        "app=paratec&platform=es&procs=512",
        "app=fvcam&platform=power3&procs=256&pz=4",
        "app=fvcam&platform=x1msp&procs=336&pz=7",
    ]
    .into_iter()
    .map(|q| {
        let p = Point::from_query(q).expect(q);
        (q.to_string(), server::point_response_body(&p, p.eval()))
    })
    .collect()
}

pub fn metrics(base: &str) -> Json {
    let body = client::http_get(&format!("{base}/metrics")).unwrap().body;
    Json::parse(&body).unwrap()
}

pub fn metric(base: &str, path: &[&str]) -> f64 {
    let doc = metrics(base);
    let mut v = &doc;
    for p in path {
        v = v.get(p).unwrap_or_else(|| panic!("missing /metrics field {path:?}"));
    }
    v.as_f64().unwrap()
}

/// Outcome of a retried GET: the final response plus how many attempts
/// it took.
#[derive(Clone, Debug)]
pub struct RetryOutcome {
    /// The last response received.
    pub response: client::Response,
    /// Total attempts issued (1 = no retry was needed).
    pub attempts: u32,
}

/// GET with bounded, seeded retries.
///
/// Transport errors and `503` responses are retried up to
/// `policy.max_retries` times. A `503` carrying `Retry-After: N` sleeps
/// `min(N seconds, policy.cap_ms)` — honoring the server's pacing hint
/// without letting a 1-second hint starve a short run — otherwise the
/// seeded exponential backoff paces the retry. Every other status
/// returns immediately: a `400` will not get better by asking again.
pub fn get_with_retry(url: &str, policy: &RetryPolicy, seed: u64) -> std::io::Result<RetryOutcome> {
    let mut backoff = Backoff::new(seed, policy.base_ms, policy.cap_ms, policy.max_retries);
    let mut attempts = 0u32;
    let mut last_err: Option<std::io::Error> = None;
    loop {
        attempts += 1;
        match client::request("GET", url, None, policy.timeout) {
            Ok(resp) if resp.status == 503 => {
                let hint = resp
                    .retry_after_secs()
                    .map(|s| Duration::from_millis((s.saturating_mul(1000)).min(policy.cap_ms)));
                match backoff.next_delay() {
                    Some(backoff_delay) => std::thread::sleep(hint.unwrap_or(backoff_delay)),
                    None => return Ok(RetryOutcome { response: resp, attempts }),
                }
            }
            Ok(resp) => return Ok(RetryOutcome { response: resp, attempts }),
            Err(e) => match backoff.next_delay() {
                Some(d) => {
                    last_err = Some(e);
                    std::thread::sleep(d);
                }
                None => return Err(last_err.unwrap_or(e)),
            },
        }
    }
}
