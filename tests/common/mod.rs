//! Helpers shared by the serving-tier integration tests (`serve_e2e`,
//! `serve_concurrency`, `cluster_e2e`, `cluster_elasticity`): the test
//! cluster configuration, the byte-identity workload, and `/metrics`
//! lookups by key path.

// Each test target compiles its own copy and uses a subset.
#![allow(dead_code)]

use std::time::Duration;

use hec_cluster::{ClusterConfig, FaultPlan};
use hec_core::json::Json;
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
