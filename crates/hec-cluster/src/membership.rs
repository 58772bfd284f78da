//! Live membership: ring epochs, bounded rebalancing, and the
//! metrics-driven autoscaler.
//!
//! The cluster's member set is no longer fixed at start. Membership is
//! versioned as **epochs**: an immutable `(version, members, ring)`
//! triple behind one atomic swap. The router reads the current epoch
//! per request; a scale-up or drain builds the next epoch off to the
//! side and installs it in one swap — requests in flight keep the epoch
//! they started with, so there is never a moment with no owner for a
//! key.
//!
//! Rebalancing is **bounded by construction**: vnode positions hash the
//! member ID, not the member count, so members shared between two
//! epochs keep their arcs and only keys whose owner set actually
//! changed move ([`crate::ring::owners_diff`] computes that set
//! exactly; the property test in `ring.rs` holds the moved fraction to
//! the theoretical vnode share). A change counts the router's tracked
//! keys that the diff covers (`keys_moved`) and sends nothing to any
//! replica: a key's new owner evaluates it on its first request, which
//! costs about a microsecond of model, and every owner answers the same
//! bytes.
//!
//! The **autoscaler** is deliberately boring: every `tick_every`-th
//! admitted request it samples the router's queue depth and the p99 of
//! the latency observed *since the previous tick* (bucket deltas, not
//! lifetime quantiles — a long-lived histogram never forgets a burst).
//! Sustained busy ticks scale up by one, sustained idle ticks drain
//! the highest member, bounded by `[min, max]` with a cooldown between
//! decisions. Because ticks are keyed to the admitted-request index —
//! the same clock the fault plan uses — a seeded run makes the *same
//! decisions at the same indices* every time, which is what lets
//! `tests/cluster_elasticity.rs` assert the decision counts exactly.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hec_core::json::Json;
use hec_core::sync::Mutex;
use hec_serve::metrics::Histogram;

use crate::replica::{invalid, ReplicaSet};
use crate::ring::{owners_diff, stable_hash, Ring, DEFAULT_VNODES};

/// Tracked-key bound: `keys_moved` counts over the keys actually
/// routed, and the canonical workload has a few dozen — this cap only
/// guards against an adversarial stream of unique keys.
pub const MAX_TRACKED_KEYS: usize = 4096;

/// One immutable membership version. The router holds an `Arc<Epoch>`
/// per request; installs swap the Arc, never mutate it.
#[derive(Clone, Debug)]
pub struct Epoch {
    /// Monotonic version, starting at 0 for the boot membership.
    pub version: u64,
    /// Current member IDs, sorted ascending.
    pub members: Vec<usize>,
    /// The ring over exactly those members.
    pub ring: Ring,
}

/// One membership change, for the `/metrics` log.
#[derive(Clone, Debug)]
pub struct MembershipEvent {
    /// Epoch version this change installed.
    pub epoch: u64,
    /// `"add"` or `"drain"`.
    pub action: &'static str,
    /// The member that joined or left.
    pub replica: usize,
    /// Tracked keys whose owner set changed at this flip.
    pub keys_moved: u64,
}

/// Autoscaler policy. All thresholds are deterministic functions of
/// the admitted-request clock and the sampled gauges — no wall time.
#[derive(Clone, Copy, Debug)]
pub struct AutoscaleConfig {
    /// Sample every this many admitted requests (ticks fire on indices
    /// `tick_every − 1, 2·tick_every − 1, …`).
    pub tick_every: u64,
    /// A tick with queue depth at or above this is busy.
    pub up_queue_depth: usize,
    /// A tick whose inter-tick p99 is at or above this (µs) is busy.
    pub up_p99_us: u64,
    /// Consecutive busy ticks before scaling up by one.
    pub up_ticks: u32,
    /// A tick with queue depth at or below this (and a calm p99) is
    /// idle.
    pub down_queue_depth: usize,
    /// Consecutive idle ticks before draining one member.
    pub down_ticks: u32,
    /// Ticks to ignore after any decision (lets the new membership's
    /// signal settle before judging it).
    pub cooldown_ticks: u32,
    /// Never drain below this many members.
    pub min: usize,
    /// Never grow above this many members.
    pub max: usize,
}

impl AutoscaleConfig {
    /// The default policy over a fixed size window: eager on the way up
    /// (2 busy ticks), reluctant on the way down (12 idle ticks).
    pub fn bounded(min: usize, max: usize) -> AutoscaleConfig {
        AutoscaleConfig {
            tick_every: 16,
            up_queue_depth: 8,
            up_p99_us: 200_000,
            up_ticks: 2,
            down_queue_depth: 2,
            down_ticks: 12,
            cooldown_ticks: 4,
            min: min.max(1),
            max: max.max(min.max(1)),
        }
    }
}

/// What a scale-up installed.
#[derive(Clone, Debug)]
pub struct ScaleUp {
    /// The new member's ID.
    pub added: usize,
    /// The new member's serve address.
    pub addr: std::net::SocketAddr,
    /// Epoch version that now includes it.
    pub epoch: u64,
    /// Tracked keys whose owners changed at this flip.
    pub keys_moved: u64,
}

/// What a drain removed.
#[derive(Clone, Debug)]
pub struct Drain {
    /// Epoch version that excludes the drained member.
    pub epoch: u64,
    /// Tracked keys whose owners changed at this flip.
    pub keys_moved: u64,
    /// Connections still open when the drained reactor exited (a
    /// graceful drain reads 0).
    pub connections_open: u64,
}

struct AutoState {
    up_streak: u32,
    down_streak: u32,
    cooldown: u32,
    /// Previous tick's latency bucket snapshot, for inter-tick deltas.
    prev_buckets: Vec<(u64, u64)>,
}

enum Decision {
    Up,
    Down,
}

/// The elasticity engine: owns the versioned membership (current epoch
/// plus the log of every change), performs scale-up and drain against
/// the member table, counts the keys each flip moves, and runs the
/// autoscaler policy.
pub struct Elasticity {
    epoch: Mutex<Arc<Epoch>>,
    replication: usize,
    /// Every membership change so far; the `/metrics` totals
    /// (`added_total`, `keys_moved`, …) are sums over it.
    events: Mutex<Vec<MembershipEvent>>,
    replicas: Arc<ReplicaSet>,
    /// Ring keys routed so far (at most [`MAX_TRACKED_KEYS`]).
    tracked: Mutex<BTreeSet<String>>,
    autoscale: Option<AutoscaleConfig>,
    auto_state: Mutex<AutoState>,
    auto_up: AtomicU64,
    auto_down: AtomicU64,
    /// Serializes membership changes (admin + autoscaler may race).
    change: Mutex<()>,
}

impl Elasticity {
    /// Elasticity over the boot members `0..n`, as epoch 0.
    pub fn new(
        replicas: Arc<ReplicaSet>,
        replication: usize,
        autoscale: Option<AutoscaleConfig>,
    ) -> Elasticity {
        let members: Vec<usize> = (0..replicas.len()).collect();
        let ring = Ring::over(&members, DEFAULT_VNODES, replication);
        Elasticity {
            epoch: Mutex::new(Arc::new(Epoch { version: 0, members, ring })),
            replication,
            events: Mutex::new(Vec::new()),
            replicas,
            tracked: Mutex::new(BTreeSet::new()),
            autoscale,
            auto_state: Mutex::new(AutoState {
                up_streak: 0,
                down_streak: 0,
                cooldown: 0,
                prev_buckets: Vec::new(),
            }),
            auto_up: AtomicU64::new(0),
            auto_down: AtomicU64::new(0),
            change: Mutex::new(()),
        }
    }

    /// The current epoch (cheap: one Arc clone).
    pub fn current(&self) -> Arc<Epoch> {
        Arc::clone(&self.epoch.lock())
    }

    /// Installs the next epoch over `members`, logs the change that
    /// produced it, and returns its version.
    fn install(
        &self,
        members: Vec<usize>,
        ring: Ring,
        action: &'static str,
        replica: usize,
        keys_moved: u64,
    ) -> u64 {
        let version = {
            let mut g = self.epoch.lock();
            let version = g.version + 1;
            *g = Arc::new(Epoch { version, members, ring });
            version
        };
        self.events.lock().push(MembershipEvent { epoch: version, action, replica, keys_moved });
        version
    }

    /// Remembers a routed key.
    pub fn track(&self, key: &str) {
        let mut g = self.tracked.lock();
        if g.len() < MAX_TRACKED_KEYS && !g.contains(key) {
            g.insert(key.to_string());
        }
    }

    /// Autoscaler decisions so far as `(up, down)`.
    pub fn autoscale_decisions(&self) -> (u64, u64) {
        (self.auto_up.load(Ordering::Relaxed), self.auto_down.load(Ordering::Relaxed))
    }

    /// Adds one replica and installs the next epoch. The router keeps
    /// serving throughout.
    pub fn scale_up(&self) -> std::io::Result<ScaleUp> {
        let _g = self.change.lock();
        let (added, addr) = self.replicas.add()?;
        let old = self.current();
        let mut members = old.members.clone();
        members.push(added);
        members.sort_unstable();
        let ring = Ring::over(&members, DEFAULT_VNODES, self.replication);
        let keys_moved = self.keys_moved(&old.ring, &ring);
        let epoch = self.install(members, ring, "add", added, keys_moved);
        Ok(ScaleUp { added, addr, epoch, keys_moved })
    }

    /// Drains member `id` out of the ring: flip the epoch to exclude
    /// it, then stop it gracefully, so no request is routed to it after
    /// it stops. Returns the epoch and the drained reactor's final
    /// open-connection count.
    pub fn drain(&self, id: usize) -> std::io::Result<Drain> {
        let _g = self.change.lock();
        self.drain_locked(id)
    }

    /// Drains the highest current member — the one policy both the
    /// autoscaler's down decision and `/admin/scale-down` apply.
    /// Returns the member it picked.
    pub fn scale_down(&self) -> std::io::Result<(usize, Drain)> {
        let _g = self.change.lock();
        let victim =
            self.current().members.iter().copied().max().expect("an epoch always has a member");
        self.drain_locked(victim).map(|d| (victim, d))
    }

    /// [`Elasticity::drain`] with the `change` lock already held.
    fn drain_locked(&self, id: usize) -> std::io::Result<Drain> {
        let old = self.current();
        if !old.members.contains(&id) {
            return Err(invalid(format!("replica {id} is not a current member")));
        }
        if old.members.len() <= 1 {
            return Err(invalid("cannot drain the last member".into()));
        }
        let members: Vec<usize> = old.members.iter().copied().filter(|&m| m != id).collect();
        let ring = Ring::over(&members, DEFAULT_VNODES, self.replication);
        let keys_moved = self.keys_moved(&old.ring, &ring);
        let epoch = self.install(members, ring, "drain", id, keys_moved);
        let connections_open = self.replicas.retire(id).unwrap_or(0);
        Ok(Drain { epoch, keys_moved, connections_open })
    }

    /// The tracked keys whose owner set changes between the two rings.
    fn keys_moved(&self, old: &Ring, new: &Ring) -> u64 {
        let diff = owners_diff(old, new);
        self.tracked.lock().iter().filter(|k| diff.covers(stable_hash(k.as_bytes()))).count() as u64
    }

    /// One autoscaler observation, keyed to the admitted-request index.
    /// Called on every admitted request; only tick indices do work.
    pub fn autoscale_tick(&self, index: u64, queue_depth: usize, hist: &Histogram) {
        let Some(cfg) = self.autoscale else { return };
        if (index + 1) % cfg.tick_every != 0 {
            return;
        }
        let decision = {
            let mut st = self.auto_state.lock();
            let cur = hist.nonzero_buckets();
            let p99 = delta_p99(&st.prev_buckets, &cur);
            st.prev_buckets = cur;
            let busy = queue_depth >= cfg.up_queue_depth || p99 >= cfg.up_p99_us;
            let idle = queue_depth <= cfg.down_queue_depth && p99 < cfg.up_p99_us;
            // Streaks update even during cooldown — the signal keeps
            // accumulating; only the *decision* is suppressed.
            if busy {
                st.up_streak += 1;
                st.down_streak = 0;
            } else if idle {
                st.down_streak += 1;
                st.up_streak = 0;
            } else {
                st.up_streak = 0;
                st.down_streak = 0;
            }
            if st.cooldown > 0 {
                st.cooldown -= 1;
                None
            } else {
                let members = self.current().members.len();
                if st.up_streak >= cfg.up_ticks && members < cfg.max {
                    st.up_streak = 0;
                    st.down_streak = 0;
                    st.cooldown = cfg.cooldown_ticks;
                    Some(Decision::Up)
                } else if st.down_streak >= cfg.down_ticks && members > cfg.min {
                    st.up_streak = 0;
                    st.down_streak = 0;
                    st.cooldown = cfg.cooldown_ticks;
                    Some(Decision::Down)
                } else {
                    None
                }
            }
        };
        match decision {
            Some(Decision::Up) => {
                if self.scale_up().is_ok() {
                    self.auto_up.fetch_add(1, Ordering::Relaxed);
                }
            }
            Some(Decision::Down) => {
                if self.scale_down().is_ok() {
                    self.auto_down.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {}
        }
    }

    /// The `/metrics` membership section.
    pub fn doc(&self) -> Json {
        let cur = self.current();
        let events = self.events.lock();
        let count = |action: &str| events.iter().filter(|e| e.action == action).count() as f64;
        let log: Vec<Json> = events
            .iter()
            .map(|e| {
                Json::obj([
                    ("epoch", Json::Num(e.epoch as f64)),
                    ("action", Json::Str(e.action.to_string())),
                    ("replica", Json::Num(e.replica as f64)),
                    ("keys_moved", Json::Num(e.keys_moved as f64)),
                ])
            })
            .collect();
        let (up, down) = self.autoscale_decisions();
        Json::obj([
            ("epoch", Json::Num(cur.version as f64)),
            ("events", Json::Num(events.len() as f64)),
            (
                "members",
                Json::obj([
                    ("current", Json::Num(cur.members.len() as f64)),
                    ("added_total", Json::Num(count("add"))),
                    ("removed_total", Json::Num(count("drain"))),
                ]),
            ),
            ("keys_moved", Json::Num(events.iter().map(|e| e.keys_moved).sum::<u64>() as f64)),
            (
                "autoscale",
                Json::obj([
                    ("enabled", Json::Bool(self.autoscale.is_some())),
                    ("up", Json::Num(up as f64)),
                    ("down", Json::Num(down as f64)),
                ]),
            ),
            ("log", Json::Arr(log)),
        ])
    }
}

/// The p99 of the observations recorded *between* two bucket
/// snapshots of the same histogram (per-bucket counts are monotonic,
/// so the delta is exactly the inter-snapshot window). Returns 0 for
/// an empty window.
pub fn delta_p99(prev: &[(u64, u64)], cur: &[(u64, u64)]) -> u64 {
    let prev_count = |le: u64| prev.iter().find(|&&(p, _)| p == le).map_or(0, |&(_, c)| c);
    let deltas: Vec<(u64, u64)> =
        cur.iter().map(|&(le, c)| (le, c.saturating_sub(prev_count(le)))).collect();
    let total: u64 = deltas.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64) * 0.99).ceil() as u64;
    let mut seen = 0u64;
    for &(le, c) in &deltas {
        seen += c;
        if seen >= rank {
            return le;
        }
    }
    deltas.last().map_or(0, |&(le, _)| le)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hec_serve::server::ServeConfig;

    fn elastic(n: usize, autoscale: Option<AutoscaleConfig>) -> Elasticity {
        let replicas = Arc::new(
            ReplicaSet::start(n, ServeConfig { port: 0, workers: 1, queue: 8, cache_capacity: 64 })
                .unwrap(),
        );
        Elasticity::new(replicas, 2, autoscale)
    }

    #[test]
    fn delta_p99_sees_only_the_window_between_snapshots() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record_us(10);
        }
        let snap = h.nonzero_buckets();
        assert!(delta_p99(&[], &snap) <= 15, "lifetime window is all-fast");
        // A burst after the snapshot dominates the delta window even
        // though it is a minority of the lifetime observations.
        for _ in 0..50 {
            h.record_us(500_000);
        }
        let p99 = delta_p99(&snap, &h.nonzero_buckets());
        assert!(p99 >= 500_000, "delta window must see the burst, got {p99}");
        assert_eq!(delta_p99(&snap, &snap), 0, "empty window is 0");
    }

    #[test]
    fn scale_up_and_drain_flip_epochs_and_move_only_changed_keys() {
        let e = elastic(2, None);
        for app in ["gtc", "lbmhd", "fvcam", "paratec"] {
            e.track(&format!("sweep|{app}"));
        }
        let before = e.current();
        assert_eq!(before.version, 0);
        assert_eq!(before.members, vec![0, 1]);

        let up = e.scale_up().unwrap();
        assert_eq!(up.added, 2);
        let mid = e.current();
        assert_eq!((mid.version, mid.members.clone()), (1, vec![0, 1, 2]));
        // keys_moved is exactly the tracked keys owners_diff covers.
        let diff = owners_diff(&before.ring, &mid.ring);
        let expect: u64 = ["gtc", "lbmhd", "fvcam", "paratec"]
            .iter()
            .filter(|a| diff.covers(stable_hash(format!("sweep|{a}").as_bytes())))
            .count() as u64;
        assert_eq!(up.keys_moved, expect);

        let drained = e.drain(1).unwrap();
        let after = e.current();
        assert_eq!((after.version, after.members.clone()), (2, vec![0, 2]));
        assert_eq!(drained.connections_open, 0, "graceful drain leaves no connections");
        let doc = e.doc();
        let total = |section: &str, field: &str| {
            doc.get(section).and_then(|s| s.get(field)).and_then(|v| v.as_f64()).unwrap()
        };
        assert_eq!(doc.get("events").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(total("members", "added_total"), 1.0);
        assert_eq!(total("members", "removed_total"), 1.0);
        assert_eq!(
            doc.get("keys_moved").and_then(|v| v.as_f64()),
            Some((up.keys_moved + drained.keys_moved) as f64),
            "the totals are sums over the event log"
        );
        e.replicas.shutdown_all();
    }

    #[test]
    fn drain_refuses_non_members_and_the_last_member() {
        let e = elastic(2, None);
        assert!(e.drain(7).is_err(), "unknown member");
        e.drain(0).unwrap();
        assert!(e.drain(0).is_err(), "already drained");
        assert!(e.drain(1).is_err(), "last member must not drain");
        assert_eq!(e.current().members, vec![1]);
        e.replicas.shutdown_all();
    }

    #[test]
    fn autoscaler_scales_up_on_sustained_load_and_down_on_idle() {
        let cfg = AutoscaleConfig {
            tick_every: 1,
            up_queue_depth: 1000, // queue never triggers; p99 drives it
            up_p99_us: 100_000,
            up_ticks: 2,
            down_queue_depth: 2,
            down_ticks: 3,
            cooldown_ticks: 2,
            min: 1,
            max: 2,
        };
        let e = elastic(1, Some(cfg));
        let h = Histogram::new();
        // Two busy ticks (slow p99 deltas) -> one scale-up, capped at max.
        for i in 0..4u64 {
            h.record_us(300_000);
            e.autoscale_tick(i, 0, &h);
        }
        assert_eq!(e.autoscale_decisions(), (1, 0), "max bounds the up decisions");
        assert_eq!(e.current().members.len(), 2);
        // Idle ticks: cooldown (2) absorbs the first two, then 3 idle
        // ticks drain the newest member back to min.
        for i in 4..12u64 {
            e.autoscale_tick(i, 0, &h);
        }
        assert_eq!(e.autoscale_decisions(), (1, 1));
        let cur = e.current();
        assert_eq!(cur.members, vec![0], "down drains the highest member id");
        assert!(e.replicas.get(1).unwrap().is_retired());
        e.replicas.shutdown_all();
    }

    #[test]
    fn scale_down_drains_the_highest_member_and_refuses_the_last() {
        let e = elastic(3, None);
        e.drain(2).unwrap();
        let (victim, _) = e.scale_down().unwrap();
        assert_eq!(victim, 1, "the highest *current* member, not the highest ID ever");
        assert_eq!(e.current().members, vec![0]);
        assert!(e.scale_down().is_err(), "last member must not drain");
        e.replicas.shutdown_all();
    }

    #[test]
    fn forwarded_counters_grow_with_membership() {
        let e = elastic(1, None);
        e.replicas.get(0).unwrap().note_forward();
        assert!(e.replicas.get(5).is_none(), "no record, so nothing to count into");
        assert_eq!(e.replicas.get(0).unwrap().forwarded(), 1);
        let up = e.scale_up().unwrap();
        let added = e.replicas.get(up.added).expect("scale-up adds the member's whole record");
        assert!(added.is_up() && added.forwarded() == 0);
        added.note_forward();
        assert_eq!(added.forwarded(), 1);
        e.replicas.shutdown_all();
    }
}
