//! End-to-end tests for the cluster tier (ISSUE 5): a real router over
//! real replicas, and the three contracts — (i) killing a replica
//! mid-load is invisible: zero failed requests and byte-identical
//! responses, (ii) a seeded fault plan (kills, stalls, dropped
//! connections, slow replies) never surfaces an error or changes a
//! byte, (iii) the router's `/metrics` document records the down→up
//! transition of a killed-then-restarted replica, (iv) every lifecycle
//! entry point — fault plan, admin endpoints, direct calls — leaves the
//! member table, each replica's liveness and `/metrics` in agreement.
//! The retried GET those contracts are checked with (`common`) gets its
//! own two tests at the end: a bounded budget, and a capped `Retry-After`.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use hec_cluster::{FaultEvent, FaultKind, FaultPlan};
use hec_core::json::Json;
use hec_serve::client::{self, RetryPolicy};
use hec_serve::request::Point;

mod common;
use common::{cluster_cfg, expected_bodies, get_with_retry, metric, metrics};

fn replica_field(base: &str, i: usize, field: &str) -> Json {
    let doc = metrics(base);
    let arr = match doc.get("cluster").and_then(|c| c.get("replicas")) {
        Some(Json::Arr(v)) => v.clone(),
        other => panic!("cluster.replicas missing: {other:?}"),
    };
    arr[i].get(field).cloned().unwrap_or(Json::Null)
}

/// (i) Kill one replica while concurrent clients are mid-load: every
/// request still succeeds with the exact single-process bytes, and the
/// router records failovers and exactly one down transition: the kill
/// is the only thing that can take a replica down.
#[test]
fn killing_a_replica_mid_load_loses_nothing_and_changes_no_bytes() {
    let c = hec_cluster::start(cluster_cfg(3, FaultPlan::none())).unwrap();
    let base = format!("http://{}", c.addr());
    let cases = Arc::new(expected_bodies());
    // Kill the replica that primaries the first workload key, so
    // requests for that key *must* fail over after the kill.
    let ring = hec_cluster::Ring::new(3, hec_cluster::DEFAULT_VNODES, 2);
    let victim = ring.primary(&Point::from_query(&cases[0].0).unwrap().canonical_key());

    // Closed-loop clients re-request the workload until told to stop;
    // the kill lands while they are in flight, and they keep going
    // afterwards so post-kill traffic is guaranteed.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let (base, cases, stop) = (base.clone(), Arc::clone(&cases), Arc::clone(&stop));
            std::thread::spawn(move || {
                let policy = RetryPolicy {
                    base_ms: 5,
                    cap_ms: 50,
                    max_retries: 6,
                    timeout: Duration::from_secs(10),
                };
                let mut failures = 0u64;
                let mut round = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for (k, (query, want)) in cases.iter().enumerate() {
                        let url = format!("{base}/eval?{query}");
                        let seed = (t as u64) << 32 ^ (round * 100 + k as u64);
                        match get_with_retry(&url, &policy, seed) {
                            Ok(out) if out.response.status == 200 => {
                                assert_eq!(
                                    out.response.body, *want,
                                    "bytes drifted for {query} (thread {t}, round {round})"
                                );
                            }
                            _ => failures += 1,
                        }
                    }
                    round += 1;
                }
                failures
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(150));
    assert!(c.kill_replica(victim), "replica {victim} should have been up");
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);

    let failures: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(failures, 0, "a kill under replication must lose zero requests");
    assert!(
        metric(&base, &["failovers"]) >= 1.0,
        "the router must have failed over off the dead replica"
    );
    assert_eq!(replica_field(&base, victim, "up"), Json::Bool(false));
    assert_eq!(replica_field(&base, victim, "down_transitions").as_f64().unwrap(), 1.0);
    assert_eq!(metric(&base, &["cluster", "up"]), 2.0);
    c.shutdown();
    c.join();
}

/// (i′) Kill a replica while forwards are in flight on its upstream
/// connections: four slow requests it owns hold both its workers and two
/// queue slots, and closed-loop clients keep routing evals to it, when
/// the kill lands. The kill drains what the replica admitted, the router
/// fails the rest over, and no request is lost or changes a byte.
#[test]
fn a_kill_with_forwards_in_flight_on_its_connections_loses_nothing() {
    let c = hec_cluster::start(cluster_cfg(3, FaultPlan::none())).unwrap();
    let base = format!("http://{}", c.addr());
    let cases = Arc::new(expected_bodies());
    let ring = hec_cluster::Ring::new(3, hec_cluster::DEFAULT_VNODES, 2);
    let victim = ring.primary(&Point::from_query(&cases[0].0).unwrap().canonical_key());
    let (slow_ms, slow) = (300u64..)
        .map(|ms| (ms, format!("/debug/sleep?ms={ms}")))
        .find(|(_, target)| ring.primary(target) == victim)
        .unwrap();
    let slow_want = Json::obj([("slept_ms", Json::Num(slow_ms as f64))]).emit_pretty();

    let sleepers: Vec<_> = (0..4)
        .map(|_| {
            let url = format!("{base}{slow}");
            std::thread::spawn(move || client::http_get(&url))
        })
        .collect();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let evals: Vec<_> = (0..2)
        .map(|t| {
            let (base, cases, stop) = (base.clone(), Arc::clone(&cases), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut failures = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for (query, want) in cases.iter() {
                        match client::http_get(&format!("{base}/eval?{query}")) {
                            Ok(r) if r.status == 200 => {
                                assert_eq!(r.body, *want, "bytes drifted for {query} (thread {t})")
                            }
                            _ => failures += 1,
                        }
                    }
                }
                failures
            })
        })
        .collect();

    let replica = format!("http://{}", c.replica_addr(victim).unwrap());
    let t0 = std::time::Instant::now();
    while metric(&replica, &["reactor", "dispatched"]) < 4.0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "the slow forwards never all arrived");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(c.kill_replica(victim), "replica {victim} should have been up");
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);

    let failures: u64 = evals.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(failures, 0, "a kill with forwards in flight must lose zero requests");
    for s in sleepers {
        let r = s.join().unwrap().expect("a slow forward failed in transport");
        assert_eq!((r.status, r.body.as_str()), (200, slow_want.as_str()));
    }
    assert!(metric(&base, &["failovers"]) >= 1.0, "evals owned by the victim must fail over");
    assert_eq!(replica_field(&base, victim, "down_transitions").as_f64().unwrap(), 1.0);
    assert_eq!(metric(&base, &["errors"]), 0.0);
    c.shutdown();
    c.join();
}

/// (ii) A seeded fault plan — stalls, dropped connections, slow
/// replies, and at most R−1 kills — injects its whole schedule without
/// one failed request or one changed byte. Same seed, same schedule.
#[test]
fn seeded_fault_plan_preserves_bytes_and_loses_nothing() {
    let plan = FaultPlan::seeded(42, 3, 2, 12, 40);
    assert!(!plan.is_empty());
    let c = hec_cluster::start(cluster_cfg(3, plan)).unwrap();
    let base = format!("http://{}", c.addr());
    let cases = expected_bodies();
    let policy =
        RetryPolicy { base_ms: 5, cap_ms: 50, max_retries: 6, timeout: Duration::from_secs(10) };

    // Sequential requests: admitted-request indices advance 0,1,2,… so
    // the plan's horizon (40) is fully crossed and every event fires.
    for i in 0..56u64 {
        let (query, want) = &cases[(i as usize) % cases.len()];
        let out = get_with_retry(&format!("{base}/eval?{query}"), &policy, i)
            .unwrap_or_else(|e| panic!("request {i} ({query}) failed in transport: {e}"));
        assert_eq!(out.response.status, 200, "request {i} ({query}) -> {}", out.response.status);
        assert_eq!(out.response.body, *want, "request {i}: bytes drifted under faults");
    }
    assert_eq!(
        metric(&base, &["faults", "remaining"]),
        0.0,
        "the whole fault schedule must have fired"
    );
    assert!(metric(&base, &["faults", "injected"]) >= 12.0);
    c.shutdown();
    c.join();
}

/// (iii) `/metrics` records the full down→up lifecycle around an admin
/// kill and restart, and restarted replicas serve identical bytes.
#[test]
fn metrics_record_the_down_then_up_transition() {
    let c = hec_cluster::start(cluster_cfg(2, FaultPlan::none())).unwrap();
    let base = format!("http://{}", c.addr());
    assert_eq!(metric(&base, &["cluster", "up"]), 2.0);

    let killed = client::http_post(&format!("{base}/admin/kill?replica=1"), "").unwrap();
    assert_eq!(killed.status, 200);
    assert_eq!(replica_field(&base, 1, "up"), Json::Bool(false));
    assert_eq!(replica_field(&base, 1, "down_transitions").as_f64().unwrap(), 1.0);
    assert_eq!(metric(&base, &["cluster", "up"]), 1.0);

    // Still serving through the survivor, bytes intact.
    let (query, want) = &expected_bodies()[0];
    let r = client::http_get(&format!("{base}/eval?{query}")).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body, *want);

    let revived = client::http_post(&format!("{base}/admin/restart?replica=1"), "").unwrap();
    assert_eq!(revived.status, 200);
    assert_eq!(replica_field(&base, 1, "up"), Json::Bool(true));
    assert_eq!(replica_field(&base, 1, "up_transitions").as_f64().unwrap(), 1.0);
    assert_eq!(metric(&base, &["cluster", "up"]), 2.0);

    // The restarted replica answers directly with the same bytes.
    let addr = c.replica_addr(1).expect("replica 1 restarted");
    let direct = client::http_get(&format!("http://{addr}/eval?{query}")).unwrap();
    assert_eq!(direct.body, *want, "restarted replica must serve identical bytes");
    c.shutdown();
    c.join();
}

/// (iv) One member record, many ways in. Every lifecycle entry point is
/// driven in turn against a model of what each member should read, and
/// after each step `/metrics` must agree with the model and with the
/// replica set itself: a row's `up` is whether the replica has an
/// address, `cluster.up` is the number of `up: true` rows, the step
/// moved exactly one transition counter by one, and a drained member
/// shows only under `cluster.retired`.
#[test]
fn every_lifecycle_entry_point_keeps_server_health_and_metrics_in_step() {
    enum Step {
        /// The fault plan's `Kill`, fired by the first routed request.
        PlanKill(usize),
        AdminKill(usize),
        DirectKill(usize),
        AdminRestart(usize),
        AdminScaleUp,
        AdminDrain(usize),
    }
    use Step::*;

    let plan =
        FaultPlan::with(vec![FaultEvent { at_request: 0, replica: 0, kind: FaultKind::Kill }]);
    let c = hec_cluster::start(cluster_cfg(3, plan)).unwrap();
    let base = format!("http://{}", c.addr());
    let post = |path: &str| {
        let r = client::http_post(&format!("{base}{path}"), "").unwrap();
        assert_eq!(r.status, 200, "{path}: {}", r.body);
    };
    // Per member: (up, down_transitions, up_transitions), None once drained.
    let mut model: Vec<Option<(bool, f64, f64)>> = vec![Some((true, 0.0, 0.0)); 3];
    let went_down = |m: &mut Option<(bool, f64, f64)>| {
        let (up, down_t, up_t) = m.expect("live member");
        assert!(up, "the table only kills members that are up");
        *m = Some((false, down_t + 1.0, up_t));
    };

    let steps = [
        PlanKill(0),
        AdminRestart(0),
        AdminKill(1),
        AdminRestart(1),
        DirectKill(2),
        AdminRestart(2),
        AdminScaleUp,
        AdminKill(3),
        AdminDrain(3), // a member that is down drains too
        AdminDrain(1), // and one that is up
    ];
    for (n, step) in steps.into_iter().enumerate() {
        match step {
            PlanKill(i) => {
                let (query, want) = &expected_bodies()[0];
                let r = client::http_get(&format!("{base}/eval?{query}")).unwrap();
                assert_eq!((r.status, r.body.as_str()), (200, want.as_str()));
                went_down(&mut model[i]);
            }
            AdminKill(i) => {
                post(&format!("/admin/kill?replica={i}"));
                went_down(&mut model[i]);
            }
            DirectKill(i) => {
                assert!(c.kill_replica(i));
                went_down(&mut model[i]);
            }
            AdminRestart(i) => {
                post(&format!("/admin/restart?replica={i}"));
                let (up, down_t, up_t) = model[i].expect("live member");
                assert!(!up, "the table only restarts members that are down");
                model[i] = Some((true, down_t, up_t + 1.0));
            }
            AdminScaleUp => {
                post("/admin/scale-up");
                model.push(Some((true, 0.0, 0.0)));
            }
            AdminDrain(i) => {
                post(&format!("/admin/drain/{i}"));
                model[i] = None;
            }
        }

        let doc = metrics(&base);
        let section = |name: &str| match doc.get("cluster").and_then(|c| c.get(name)) {
            Some(Json::Arr(v)) => v.clone(),
            other => panic!("step {n}: cluster.{name} missing: {other:?}"),
        };
        let num = |row: &Json, f: &str| row.get(f).and_then(|v| v.as_f64()).unwrap();
        let index = |row: &Json| num(row, "index") as usize;
        let ids = |want_live: bool| -> Vec<usize> {
            (0..model.len()).filter(|&i| model[i].is_some() == want_live).collect()
        };
        assert_eq!(c.replica_count(), model.len(), "step {n}: IDs are never reused");

        let rows = section("replicas");
        assert_eq!(rows.iter().map(index).collect::<Vec<_>>(), ids(true), "step {n}: live rows");
        for row in &rows {
            let i = index(row);
            let (up, down_t, up_t) = model[i].unwrap();
            assert_eq!(row.get("up"), Some(&Json::Bool(up)), "step {n}: replica {i} up");
            assert_eq!(c.replica_addr(i).is_some(), up, "step {n}: replica {i} address");
            assert_eq!(
                (num(row, "down_transitions"), num(row, "up_transitions")),
                (down_t, up_t),
                "step {n}: replica {i} moved exactly the counter its step names"
            );
        }
        let up_rows = rows.iter().filter(|r| r.get("up") == Some(&Json::Bool(true))).count();
        assert_eq!(num(doc.get("cluster").unwrap(), "up"), up_rows as f64, "step {n}: cluster.up");

        let retired = section("retired");
        assert_eq!(
            retired.iter().map(index).collect::<Vec<_>>(),
            ids(false),
            "step {n}: a drained member is listed under cluster.retired and nowhere else"
        );
        for row in &retired {
            assert_eq!(num(row, "connections_open_after_drain"), 0.0, "step {n}");
            assert!(c.replica_addr(index(row)).is_none(), "step {n}: retired members stay down");
        }
    }
    assert_eq!(c.members(), vec![0, 2]);
    c.shutdown();
    c.join();
}

/// The ring assigns every key R distinct owners, so any single kill
/// leaves a live owner — checked against the routed workload itself.
#[test]
fn every_workload_key_survives_any_single_kill() {
    let ring = hec_cluster::Ring::new(3, hec_cluster::DEFAULT_VNODES, 2);
    for (query, _) in expected_bodies() {
        let p = Point::from_query(&query).unwrap();
        let owners = ring.owners(&p.canonical_key());
        assert_eq!(owners.len(), 2);
        assert_ne!(owners[0], owners[1], "{query} must have two distinct owners");
    }
}

#[test]
fn get_with_retry_gives_up_against_a_dead_port() {
    // Nothing listens on this port of TEST-NET; every attempt must
    // fail fast and the call must return the transport error after
    // exhausting its budget.
    let policy =
        RetryPolicy { base_ms: 1, cap_ms: 2, max_retries: 2, timeout: Duration::from_millis(200) };
    let t0 = std::time::Instant::now();
    let r = get_with_retry("http://127.0.0.1:1/healthz", &policy, 9);
    assert!(r.is_err());
    assert!(t0.elapsed() < Duration::from_secs(5));
}

#[test]
fn retry_after_hint_is_capped_at_cap_ms() {
    // A server advertising `Retry-After: 60` (seconds) must not
    // stall the client for a minute per retry: the hint is honored
    // but clamped to `cap_ms`. Mock listener: always 503.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut s) = stream else { break };
            let mut buf = [0u8; 1024];
            let _ = std::io::Read::read(&mut s, &mut buf);
            let _ = s.write_all(
                b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 60\r\n\
                  Content-Length: 0\r\nConnection: close\r\n\r\n",
            );
        }
    });
    let policy =
        RetryPolicy { base_ms: 1, cap_ms: 50, max_retries: 3, timeout: Duration::from_secs(5) };
    let t0 = std::time::Instant::now();
    let out = get_with_retry(&format!("http://{addr}/eval"), &policy, 7).unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(out.response.status, 503, "budget exhausted, last 503 returned");
    assert_eq!(out.attempts, 4, "initial attempt + max_retries");
    // 3 capped sleeps of exactly 50 ms each — far from 3 x 60 s.
    assert!(elapsed >= Duration::from_millis(120), "hint ignored? {elapsed:?}");
    assert!(elapsed < Duration::from_secs(5), "cap not applied: {elapsed:?}");
    drop(server); // listener thread exits with the test process
}
