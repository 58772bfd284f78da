//! End-to-end tests for cluster elasticity (ISSUE 10): live membership
//! under load. The contracts: (i) a seeded churn plan — scale-ups and a
//! drain pinned to admitted-request indices — loses zero requests and
//! changes zero bytes, and the number of rerouted keys is *exactly* the
//! ring-predicted set; (ii) the admin scale/drain endpoints round-trip
//! with hard input validation; (iii) the autoscaler makes deterministic
//! up and down decisions from the routed load alone, bounded by
//! min/max, and a drained replica retires with zero open connections;
//! (iv) the default policy (`AutoscaleConfig::bounded`) answers a
//! seeded stall burst with exactly one scale-up and the calm after it
//! with exactly one scale-down; (v) a membership change copies no cache
//! entry and evaluates nothing on any replica.

use std::time::Duration;

use hec_cluster::{
    owners_diff, stable_hash, AutoscaleConfig, FaultEvent, FaultKind, FaultPlan, Ring,
    DEFAULT_VNODES,
};
use hec_core::json::Json;
use hec_serve::client::{self, RetryPolicy};
use hec_serve::request::Point;

mod common;
use common::{cluster_cfg, expected_bodies, metric, metrics};

/// Member IDs listed in `cluster.replicas` (current epoch only).
fn member_ids(base: &str) -> Vec<usize> {
    match metrics(base).get("cluster").and_then(|c| c.get("replicas")) {
        Some(Json::Arr(v)) => {
            v.iter().map(|r| r.get("index").and_then(|i| i.as_f64()).unwrap() as usize).collect()
        }
        other => panic!("cluster.replicas missing: {other:?}"),
    }
}

/// `connections_open_after_drain` for retired member `i`.
fn retired_connections(base: &str, i: usize) -> Option<f64> {
    match metrics(base).get("cluster").and_then(|c| c.get("retired")) {
        Some(Json::Arr(v)) => v
            .iter()
            .find(|r| r.get("index").and_then(|x| x.as_f64()) == Some(i as f64))
            .and_then(|r| r.get("connections_open_after_drain").and_then(|c| c.as_f64())),
        other => panic!("cluster.retired missing: {other:?}"),
    }
}

/// The exact number of workload keys whose owner set changes across
/// one membership transition — the ring-theoretic oracle the router's
/// `membership.keys_moved` counter must match.
fn predicted_moves(old_members: &[usize], new_members: &[usize], r: usize) -> u64 {
    let old = Ring::over(old_members, DEFAULT_VNODES, r);
    let new = Ring::over(new_members, DEFAULT_VNODES, r);
    let diff = owners_diff(&old, &new);
    expected_bodies()
        .iter()
        .filter(|(q, _)| {
            let key = Point::from_query(q).unwrap().canonical_key();
            diff.covers(stable_hash(key.as_bytes()))
        })
        .count() as u64
}

/// Admission `i` of a sequential run over the workload: one retrying
/// GET that must answer 200 with the oracle bytes.
fn request_in_order(base: &str, cases: &[(String, String)], i: u64) {
    let policy =
        RetryPolicy { base_ms: 5, cap_ms: 50, max_retries: 6, timeout: Duration::from_secs(10) };
    let (query, want) = &cases[(i as usize) % cases.len()];
    let out = client::get_with_retry(&format!("{base}/eval?{query}"), &policy, i)
        .unwrap_or_else(|e| panic!("request {i} ({query}) failed in transport: {e}"));
    assert_eq!(out.response.status, 200, "request {i} ({query})");
    assert_eq!(out.response.body, *want, "request {i}: bytes drifted under churn");
}

/// (i) Churn pinned to the admitted clock — two scale-ups and a drain
/// mid-load — is invisible to clients: every request answers 200 with
/// the oracle bytes, and the rebalance moves exactly the keys the ring
/// diff predicts, no more.
#[test]
fn seeded_churn_plan_loses_nothing_and_moves_exactly_the_predicted_keys() {
    let plan =
        FaultPlan::add_at(24).merged(FaultPlan::add_at(32)).merged(FaultPlan::drain_at(1, 44));
    let c = hec_cluster::start(cluster_cfg(2, plan)).unwrap();
    let base = format!("http://{}", c.addr());
    let cases = expected_bodies();

    // Sequential requests advance the admitted index 0,1,2,…: the whole
    // workload is tracked by index 8, well before the first flip at 24.
    for i in 0..64u64 {
        request_in_order(&base, &cases, i);
    }

    assert_eq!(metric(&base, &["errors"]), 0.0, "churn must admit zero errors");
    assert_eq!(metric(&base, &["faults", "remaining"]), 0.0);
    assert_eq!(metric(&base, &["membership", "events"]), 3.0);
    assert_eq!(metric(&base, &["membership", "members", "current"]), 3.0);
    assert_eq!(metric(&base, &["membership", "members", "added_total"]), 2.0);
    assert_eq!(metric(&base, &["membership", "members", "removed_total"]), 1.0);
    assert_eq!(metric(&base, &["cluster", "epoch"]), 3.0);
    assert_eq!(member_ids(&base), vec![0, 2, 3], "epoch 3 members");

    // The drained replica completed its graceful drain: zero open
    // connections at reactor exit, and it left the live table.
    assert_eq!(retired_connections(&base, 1), Some(0.0));

    // keys_moved is exact: {0,1} -> {0,1,2} -> {0,1,2,3} -> {0,2,3},
    // R=2, summed over the workload keys the ring diff covers.
    let want_moved = predicted_moves(&[0, 1], &[0, 1, 2], 2)
        + predicted_moves(&[0, 1, 2], &[0, 1, 2, 3], 2)
        + predicted_moves(&[0, 1, 2, 3], &[0, 2, 3], 2);
    assert_eq!(metric(&base, &["membership", "keys_moved"]), want_moved as f64);
    c.shutdown();
    c.join();
}

/// (ii) The admin surface round-trips: scale-up adds a member and
/// reports the new epoch, drain and scale-down retire one, and malformed
/// or illegal targets are rejected without touching membership.
#[test]
fn admin_scale_up_and_drain_round_trip_with_validation() {
    let c = hec_cluster::start(cluster_cfg(2, FaultPlan::none())).unwrap();
    let base = format!("http://{}", c.addr());

    let up = client::http_post(&format!("{base}/admin/scale-up"), "").unwrap();
    assert_eq!(up.status, 200);
    let doc = Json::parse(&up.body).unwrap();
    assert_eq!(doc.get("added").and_then(|v| v.as_f64()), Some(2.0));
    assert_eq!(doc.get("epoch").and_then(|v| v.as_f64()), Some(1.0));
    assert_eq!(member_ids(&base), vec![0, 1, 2]);

    let drained = client::http_post(&format!("{base}/admin/drain/1"), "").unwrap();
    assert_eq!(drained.status, 200);
    let doc = Json::parse(&drained.body).unwrap();
    assert_eq!(doc.get("connections_open_after_drain").and_then(|v| v.as_f64()), Some(0.0));
    assert_eq!(member_ids(&base), vec![0, 2]);

    // A drained member cannot drain again, restart, or be made up.
    assert_eq!(client::http_post(&format!("{base}/admin/drain/1"), "").unwrap().status, 400);
    assert_eq!(
        client::http_post(&format!("{base}/admin/restart?replica=1"), "").unwrap().status,
        400,
        "retired replicas must not restart"
    );
    assert_eq!(client::http_post(&format!("{base}/admin/drain/99"), "").unwrap().status, 400);
    assert_eq!(client::http_post(&format!("{base}/admin/drain/xyz"), "").unwrap().status, 400);
    assert_eq!(
        client::http_get(&format!("{base}/metrics")).unwrap().status,
        200,
        "metrics still serving after rejected admin calls"
    );

    // Requests still route and answer the oracle bytes on {0, 2}.
    let (query, want) = &expected_bodies()[0];
    let r = client::http_get(&format!("{base}/eval?{query}")).unwrap();
    assert_eq!((r.status, r.body.as_str()), (200, want.as_str()));

    // Scale-down is the autoscaler's down decision on demand: it drains
    // the highest current member, and refuses the last one.
    let down = client::http_post(&format!("{base}/admin/scale-down"), "").unwrap();
    assert_eq!(down.status, 200);
    let doc = Json::parse(&down.body).unwrap();
    assert_eq!(doc.get("drained").and_then(|v| v.as_f64()), Some(2.0));
    assert_eq!(doc.get("connections_open_after_drain").and_then(|v| v.as_f64()), Some(0.0));
    assert_eq!(member_ids(&base), vec![0]);
    assert_eq!(client::http_post(&format!("{base}/admin/scale-down"), "").unwrap().status, 400);
    assert_eq!(member_ids(&base), vec![0], "a refused scale-down leaves membership alone");
    let r = client::http_get(&format!("{base}/eval?{query}")).unwrap();
    assert_eq!((r.status, r.body.as_str()), (200, want.as_str()));
    c.shutdown();
    c.join();
}

/// (iii-up) With an every-request tick and a 1µs p99 threshold, any
/// routed traffic reads as sustained load: the autoscaler scales up
/// once and is then pinned by `max`.
#[test]
fn autoscaler_scales_up_under_load_and_respects_max() {
    let mut cfg = cluster_cfg(2, FaultPlan::none());
    cfg.autoscale = Some(AutoscaleConfig {
        tick_every: 1,
        up_queue_depth: 1000, // never triggers; the p99 signal drives it
        up_p99_us: 1,
        up_ticks: 2,
        down_queue_depth: 0,
        down_ticks: 10_000, // never triggers
        cooldown_ticks: 2,
        min: 2,
        max: 3,
    });
    let c = hec_cluster::start(cfg).unwrap();
    let base = format!("http://{}", c.addr());
    let cases = expected_bodies();
    for i in 0..20usize {
        let (query, want) = &cases[i % cases.len()];
        let r = client::http_get(&format!("{base}/eval?{query}")).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(&r.body, want, "bytes must not drift across an autoscale flip");
    }
    assert_eq!(metric(&base, &["membership", "autoscale", "up"]), 1.0, "max bounds the ups");
    assert_eq!(metric(&base, &["membership", "autoscale", "down"]), 0.0);
    assert_eq!(metric(&base, &["membership", "members", "current"]), 3.0);
    assert_eq!(metric(&base, &["errors"]), 0.0);
    c.shutdown();
    c.join();
}

/// (iii-down) With an unreachable busy threshold every tick reads as
/// idle: the autoscaler drains the highest member after `down_ticks`
/// and is then pinned by `min`; the victim retires cleanly.
#[test]
fn autoscaler_drains_idle_capacity_down_to_min() {
    let mut cfg = cluster_cfg(3, FaultPlan::none());
    cfg.autoscale = Some(AutoscaleConfig {
        tick_every: 1,
        up_queue_depth: 1000,
        up_p99_us: 1 << 40, // unreachably slow: every tick is idle
        up_ticks: 2,
        down_queue_depth: 1000,
        down_ticks: 4,
        cooldown_ticks: 0,
        min: 2,
        max: 3,
    });
    let c = hec_cluster::start(cfg).unwrap();
    let base = format!("http://{}", c.addr());
    let cases = expected_bodies();
    for i in 0..16usize {
        let (query, want) = &cases[i % cases.len()];
        let r = client::http_get(&format!("{base}/eval?{query}")).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(&r.body, want, "bytes must not drift across an autoscale drain");
    }
    assert_eq!(metric(&base, &["membership", "autoscale", "down"]), 1.0, "min bounds the downs");
    assert_eq!(metric(&base, &["membership", "autoscale", "up"]), 0.0);
    assert_eq!(member_ids(&base), vec![0, 1], "down drains the highest member");
    assert_eq!(retired_connections(&base, 2), Some(0.0), "victim drains to zero connections");
    assert_eq!(metric(&base, &["errors"]), 0.0);
    c.shutdown();
    c.join();
}

/// (iv) The default policy end to end, on the admitted clock alone:
/// four seeded 250 ms stalls land two in each of two consecutive
/// 16-admission windows (indices 40/41 and 52/53), so the ticks at 47
/// and 63 both read a busy p99 and the second one scales 3 → 4; `max`
/// pins it there. After the 4-tick cooldown the calm traffic adds up
/// to 12 idle ticks and the highest member is drained, 4 → 3; `min`
/// pins that. Requests are sequential, so the queue signal stays at
/// zero and the decisions depend on nothing but the plan.
#[test]
fn default_autoscale_policy_scales_up_once_on_a_stall_burst_then_drains_back() {
    let stalls = [40u64, 41, 52, 53]
        .into_iter()
        .map(|at| FaultEvent { at_request: at, replica: 0, kind: FaultKind::StallMs(250) })
        .collect();
    let mut cfg = cluster_cfg(3, FaultPlan::with(stalls));
    // The latency signal the autoscaler samples must not depend on the
    // host's core count.
    cfg.workers = 2;
    cfg.autoscale = Some(AutoscaleConfig::bounded(3, 4));
    let c = hec_cluster::start(cfg).unwrap();
    let base = format!("http://{}", c.addr());
    let cases = expected_bodies();

    // Drive until the down decision has fired (the tick at admission
    // 255 on a quiet host), checking at every tick boundary; the bound
    // leaves room for a host busy enough to break the idle streak.
    let mut admitted = 0u64;
    while metric(&base, &["membership", "autoscale", "down"]) == 0.0 {
        assert!(admitted < 1600, "no scale-down within {admitted} admissions");
        for _ in 0..16 {
            request_in_order(&base, &cases, admitted);
            admitted += 1;
        }
    }

    assert_eq!(metric(&base, &["errors"]), 0.0, "autoscaling must admit zero errors");
    assert_eq!(metric(&base, &["faults", "remaining"]), 0.0);
    assert_eq!(metric(&base, &["membership", "autoscale", "up"]), 1.0);
    assert_eq!(metric(&base, &["membership", "autoscale", "down"]), 1.0);
    assert_eq!(metric(&base, &["membership", "events"]), 2.0);
    assert_eq!(member_ids(&base), vec![0, 1, 2], "down drains the member up added");
    assert_eq!(retired_connections(&base, 3), Some(0.0), "member 3 drains to zero connections");
    let want_moved = predicted_moves(&[0, 1, 2], &[0, 1, 2, 3], 2)
        + predicted_moves(&[0, 1, 2, 3], &[0, 1, 2], 2);
    assert_eq!(metric(&base, &["membership", "keys_moved"]), want_moved as f64);
    c.shutdown();
    c.join();
}

/// (v) A membership change copies nothing between replicas: right after
/// a scale-up the new member's cache is empty and has never been asked
/// for anything, although it is now the primary of some routed keys. It
/// evaluates those keys when they are next requested, and a drain after
/// that leaves every surviving member's cache as it was.
#[test]
fn a_membership_change_moves_no_data() {
    let c = hec_cluster::start(cluster_cfg(2, FaultPlan::none())).unwrap();
    let base = format!("http://{}", c.addr());
    let cases = expected_bodies();
    let route_all = || {
        for (query, want) in &cases {
            let r = client::http_get(&format!("{base}/eval?{query}")).unwrap();
            assert_eq!((r.status, r.body.as_str()), (200, want.as_str()), "{query}");
        }
    };
    route_all();

    let up = c.scale_up().unwrap();
    let added = format!("http://{}", up.addr);
    let ring = Ring::over(&[0, 1, up.added], DEFAULT_VNODES, 2);
    let now_primary = cases
        .iter()
        .filter(|(q, _)| ring.primary(&Point::from_query(q).unwrap().canonical_key()) == up.added)
        .count();
    assert!(now_primary > 0, "the workload must give the new member keys to own");
    assert_eq!(metric(&added, &["cache", "entries"]), 0.0, "nothing installed on scale-up");
    assert_eq!(metric(&added, &["cache", "misses"]), 0.0, "nothing evaluated on scale-up");

    // The new primary computes its keys on first request, bytes unchanged.
    route_all();
    assert_eq!(metric(&added, &["cache", "entries"]), now_primary as f64);
    assert_eq!(metric(&added, &["cache", "misses"]), now_primary as f64);

    let caches = |members: &[usize]| -> Vec<(f64, f64)> {
        members
            .iter()
            .map(|&i| {
                let url = format!("http://{}", c.replica_addr(i).unwrap());
                (metric(&url, &["cache", "entries"]), metric(&url, &["cache", "misses"]))
            })
            .collect()
    };
    let survivors = [0, up.added];
    let before = caches(&survivors);
    c.drain_replica(1).unwrap();
    assert_eq!(caches(&survivors), before, "a drain installs and evaluates nothing");
    c.shutdown();
    c.join();
}
