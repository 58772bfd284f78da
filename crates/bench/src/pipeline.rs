//! `repro all [dir]` — the one-command artifact pipeline.
//!
//! Regenerates every artifact the suite produces into a single output
//! directory, each stamped with the same [`crate::artifact::Meta`]
//! block, so one invocation yields a directory `repro diff` can compare
//! against any other run:
//!
//! * `TABLE_<tag>.json` — Tables 3–6 as the serve engine's sweep
//!   documents (cell values derived from measured counters; exact).
//! * `CANON_eval.json` — the canonical response bytes for every query
//!   in `artifact::eval_queries` (the serving determinism
//!   contract, byte for byte; exact).
//! * `PROFILE_<tag>.json` — per-phase calibration captures and derived
//!   workloads (counters exact).
//!
//! Nothing here starts a server or offers load: what a served request
//! returns under kills, churn and autoscaling is asserted in-process by
//! `tests/serve_*.rs` and `tests/cluster_*.rs`, and how fast anything
//! runs is `benchmark/`'s job.

use hec_core::json::Json;
use hec_serve::engine::{self, AppId};
use hec_serve::request::Point;
use hec_serve::server;

use crate::artifact::{app_tag, eval_queries, Meta, Writer};

/// Default output directory for `repro all`.
pub const DEFAULT_DIR: &str = "artifacts";

/// Runs the full pipeline into `dir`.
///
/// # Errors
/// Returns a message naming the stage that failed: directory creation,
/// an invalid canonical query, or an artifact that could not be written.
pub fn run_all(dir: &str) -> Result<(), String> {
    let meta = Meta::collect();
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
    let responses: Vec<Json> = eval_queries()
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

    println!("\n== profiles (counters exact) ==");
    crate::profile::run_into(&w);

    println!("repro all: artifacts complete in {dir}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_canonical_query_evaluates_to_a_feasible_point() {
        // run_all snapshots these bodies as the byte-exact contract;
        // every query must resolve to a real cell, not a null body.
        for q in eval_queries() {
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
