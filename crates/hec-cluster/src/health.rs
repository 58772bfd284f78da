//! Replica health: the probe and the background checker.
//!
//! A member's probed state (up/down/retired), its transition counters
//! and the probe fence live in its [`crate::replica::Member`] record and
//! are updated from two directions: the checker thread here probes every
//! member's `/metrics` endpoint with a timeout on a fixed interval, and
//! the router marks members down *reactively* the moment a forward fails
//! (waiting a full probe interval to notice a dead primary would turn
//! every failover into a timeout). The reactive path goes through
//! [`Member::mark`], the checker through [`Member::mark_probed`]; both
//! count each up↔down transition — the cluster `/metrics` document
//! exposes those counts, and the e2e suite asserts the down-then-up
//! sequence around a kill/restart.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hec_serve::client;

use crate::replica::{Member, ReplicaSet};

/// Health-checker tuning.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Delay between probe sweeps.
    pub interval: Duration,
    /// Per-probe connect/read timeout.
    pub probe_timeout: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            interval: Duration::from_millis(100),
            probe_timeout: Duration::from_millis(500),
        }
    }
}

/// Probes one member: a `/metrics` GET within the timeout counts as up.
/// A down member (no address) is down without a network round trip.
pub fn probe(member: &Member, timeout: Duration) -> bool {
    match member.addr() {
        None => false,
        Some(addr) => client::http_get_timeout(&format!("http://{addr}/metrics"), timeout)
            .map(|r| r.status == 200)
            .unwrap_or(false),
    }
}

/// Spawns the background checker: sweeps every current member each
/// `interval` until `stop` is set, feeding observations through
/// [`Member::mark_probed`]. The sweep re-reads the table every pass, so
/// members added mid-run are picked up and retired ones are skipped.
pub fn spawn_checker(
    replicas: Arc<ReplicaSet>,
    stop: Arc<AtomicBool>,
    cfg: HealthConfig,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            for member in replicas.snapshot() {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                if member.is_retired() {
                    continue;
                }
                let stamp = member.probe_stamp();
                let up = probe(&member, cfg.probe_timeout);
                member.mark_probed(up, stamp);
            }
            std::thread::sleep(cfg.interval);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hec_serve::server::ServeConfig;

    #[test]
    fn probe_tracks_replica_liveness() {
        let set =
            ReplicaSet::start(1, ServeConfig { port: 0, workers: 1, queue: 8, cache_capacity: 64 })
                .unwrap();
        let member = set.get(0).unwrap();
        let timeout = Duration::from_millis(500);
        assert!(probe(&member, timeout));
        set.kill(0);
        assert!(!probe(&member, timeout));
        set.shutdown_all();
    }

    #[test]
    fn checker_revives_a_member_marked_down_by_mistake_and_skips_retired_ones() {
        let set = Arc::new(
            ReplicaSet::start(2, ServeConfig { port: 0, workers: 1, queue: 8, cache_capacity: 64 })
                .unwrap(),
        );
        let (m0, m1) = (set.get(0).unwrap(), set.get(1).unwrap());
        set.retire(1);
        assert!(m0.mark(false), "a reactive mark the replica did not deserve");
        let stop = Arc::new(AtomicBool::new(false));
        let cfg = HealthConfig {
            interval: Duration::from_millis(5),
            probe_timeout: Duration::from_millis(500),
        };
        let checker = spawn_checker(Arc::clone(&set), Arc::clone(&stop), cfg);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !m0.is_up() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::SeqCst);
        checker.join().unwrap();
        assert!(m0.is_up(), "the next sweep finds the replica answering");
        assert_eq!((m0.down_transitions(), m0.up_transitions()), (1, 1));
        assert!(m1.is_retired() && m1.up_transitions() == 0, "retired members are not probed");
        set.shutdown_all();
    }
}
