//! `repro all [dir]` — the one-command artifact pipeline.
//!
//! Regenerates every artifact the suite produces into a single output
//! directory, each stamped with the same [`crate::artifact::Meta`]
//! block, so one invocation yields a directory `repro diff` can compare
//! against any other run:
//!
//! * `TABLE_<tag>.json` — Tables 3–6 as the serve engine's sweep
//!   documents (cell values derived from measured counters; exact).
//! * `CANON_eval.json` — the canonical response bytes for every eval
//!   query in the load workload (the serving determinism contract,
//!   byte for byte; exact).
//! * `PROFILE_<tag>.json` — per-phase calibration captures and derived
//!   workloads (counters exact, span timings ignored).
//! * `BENCH_serve.json` / `BENCH_cluster.json` — load tests against an
//!   in-process server and cluster (error counts, seeded provenance and
//!   elasticity counters exact; throughput and latency printed for
//!   humans and ignored by the diff).
//!
//! Nothing here is a performance measurement: kernel, app, model and
//! serving timings are `benchmark/`'s job. The load-test sizes are
//! constants tuned for a CI smoke; the stamp records them as
//! provenance.

use hec_core::json::Json;
use hec_serve::engine::{self, AppId};
use hec_serve::request::Point;
use hec_serve::server;

use crate::artifact::{app_tag, Meta, Writer};

/// Default output directory for `repro all`.
pub const DEFAULT_DIR: &str = "artifacts";
/// Load-test duration per target, seconds.
const SECS: u64 = 2;
/// Load-test sender threads.
const CLIENTS: usize = 4;
/// Cluster replicas. Like the offered rate, an exact field of
/// `BENCH_cluster.json`: changing it means regenerating `baseline/`.
const REPLICAS: usize = 3;

/// Runs the full pipeline into `dir`.
///
/// # Errors
/// Returns a message naming the stage that failed: directory creation,
/// an infeasible evaluation point, a server that would not start, or a
/// load test that produced error responses.
pub fn run_all(dir: &str) -> Result<(), String> {
    // A fixed seeded rate, so the arrival schedule is identical run to run.
    let open = crate::loadgen::OpenLoop {
        rate_rps: crate::loadgen::DEFAULT_RATE_RPS,
        seed: crate::loadgen::DEFAULT_SEED,
    };

    let meta = Meta::collect(SECS, CLIENTS, REPLICAS);
    let w = Writer::new(dir, &meta).map_err(|e| format!("cannot create {dir}: {e}"))?;
    println!(
        "repro all -> {dir} (commit {}, {} workers, config {})",
        meta.git_commit, meta.hec_threads, meta.config_hash
    );

    println!("\n== tables (sweep documents, exact) ==");
    let eval = |p: &Point| engine::eval_cell(p.app, p.sel, &p.spec);
    for app in AppId::ALL {
        let doc = server::sweep_doc(app, eval);
        w.write(&format!("TABLE_{}.json", app_tag(app)), [("table", doc)])
            .map_err(|e| format!("cannot write TABLE_{}: {e}", app_tag(app)))?;
    }

    println!("\n== canonical eval responses (byte-exact) ==");
    let responses: Vec<Json> = crate::loadgen::eval_queries()
        .into_iter()
        .map(|q| {
            let point = Point::from_query(&q)
                .map_err(|e| format!("canonical query '{q}' is invalid: {e:?}"))?;
            let body = server::point_response_body(
                &point,
                engine::eval_cell(point.app, point.sel, &point.spec),
            );
            Ok(Json::obj([("query", Json::Str(q)), ("body", Json::Str(body))]))
        })
        .collect::<Result<_, String>>()?;
    w.write("CANON_eval.json", [("responses", Json::Arr(responses))])
        .map_err(|e| format!("cannot write CANON_eval.json: {e}"))?;

    println!("\n== profiles (counters exact, timings ignored) ==");
    crate::profile::run_into(&w);

    println!("== serve load test ({SECS}s x {CLIENTS} clients) ==");
    let cfg = server::ServeConfig::default();
    let srv = server::start(cfg).map_err(|e| format!("cannot start hec-serve: {e}"))?;
    let errors =
        crate::loadgen::run_into(&w, &format!("http://{}", srv.addr()), SECS, CLIENTS, open);
    srv.shutdown();
    srv.join();
    if errors > 0 {
        return Err(format!("serve load test saw {errors} error responses"));
    }

    println!("\n== cluster load test ({REPLICAS} replicas, {SECS}s x {CLIENTS} clients) ==");
    let mut cfg = hec_cluster::ClusterConfig { replicas: REPLICAS, ..Default::default() };
    // The cluster phase exercises elasticity deterministically: two
    // seeded stall bursts push the inter-tick p99 over the autoscaler's
    // threshold (one scale-up), the calm remainder of the run drains it
    // back (one scale-down), and min/max pin the decisions to exactly
    // +1/−1 so `repro diff` can gate them bit-for-bit. Router workers
    // are pinned to 2 because the queue and latency signals the
    // autoscaler samples must not depend on the host's core count.
    cfg.workers = 2;
    cfg.autoscale = Some(hec_cluster::AutoscaleConfig::bounded(REPLICAS, REPLICAS + 1));
    cfg.faults = hec_cluster::FaultPlan::with(
        [40u64, 41, 52, 53]
            .into_iter()
            .map(|at| hec_cluster::FaultEvent {
                at_request: at,
                replica: 0,
                kind: hec_cluster::FaultKind::StallMs(250),
            })
            .collect(),
    );
    let cluster = hec_cluster::start(cfg).map_err(|e| format!("cannot start hec-cluster: {e}"))?;
    let errors =
        crate::loadgen::run_into(&w, &format!("http://{}", cluster.addr()), SECS, CLIENTS, open);
    cluster.shutdown();
    cluster.join();
    if errors > 0 {
        return Err(format!("cluster load test saw {errors} error responses"));
    }

    println!("\nrepro all: artifacts complete in {dir}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_canonical_query_evaluates_to_a_feasible_point() {
        // run_all snapshots these bodies as the byte-exact contract;
        // every query must resolve to a real cell, not a null body.
        for q in crate::loadgen::eval_queries() {
            let p = Point::from_query(&q).unwrap();
            assert!(
                engine::eval_cell(p.app, p.sel, &p.spec).is_some(),
                "canonical query '{q}' is infeasible"
            );
        }
    }

    #[test]
    fn table_artifacts_cover_all_four_apps() {
        let tags: Vec<&str> = AppId::ALL.iter().map(|&a| app_tag(a)).collect();
        assert_eq!(tags, ["fvcam", "gtc", "lbmhd3d", "paratec"]);
    }
}
