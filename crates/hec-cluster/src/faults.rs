//! Deterministic fault injection for the cluster tier.
//!
//! A [`FaultPlan`] is a fixed list of events, each pinned to an
//! *admitted-request index*: when the router admits its `k`-th routable
//! request, every event with `at_request == k` fires. Plans are either
//! hand-built (tests pinning one kill at one index) or generated from a
//! seed via [`FaultPlan::seeded`] — same seed, same events, so a
//! failover test replays the identical kill/stall/drop sequence every
//! run, which is what lets the suite assert *byte-identical* responses
//! under faults instead of "usually works".

use hec_core::rng::Rng;

/// What a fault event does when it fires. The delays are deadlines on
/// the router's reactor; the membership changes run on its lifecycle
/// pool before the request is forwarded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Shut down the target replica; it stays down until a restart.
    Kill,
    /// Hold the request this many milliseconds before its first owner
    /// pass (a router-side scheduling hiccup).
    StallMs(u64),
    /// Fail the request's next forward attempt to the target replica as
    /// if the connection dropped: the router must fail over.
    DropConn,
    /// Hold the answer this many milliseconds before relaying it (a
    /// straggler replica).
    SlowReplyMs(u64),
    /// Scale up: add one replica to the ring (target field ignored; the
    /// new member takes the next ID).
    AddAt,
    /// Scale down: gracefully drain the target replica out of the ring.
    DrainAt,
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Admitted-request index at which the event fires.
    pub at_request: u64,
    /// Target replica index.
    pub replica: usize,
    /// The fault to inject.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault events, consumed as requests are
/// admitted. Each event fires exactly once.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan from explicit events (tests pin exact indices this way).
    pub fn with(mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.at_request);
        FaultPlan { events }
    }

    /// Convenience: one scale-up event at `at_request`.
    pub fn add_at(at_request: u64) -> FaultPlan {
        FaultPlan::with(vec![FaultEvent { at_request, replica: 0, kind: FaultKind::AddAt }])
    }

    /// Convenience: drain `replica` when request `at_request` is admitted.
    pub fn drain_at(replica: usize, at_request: u64) -> FaultPlan {
        FaultPlan::with(vec![FaultEvent { at_request, replica, kind: FaultKind::DrainAt }])
    }

    /// Merges two plans into one schedule (events re-sorted by index).
    pub fn merged(self, other: FaultPlan) -> FaultPlan {
        let mut events = self.events;
        events.extend(other.events);
        FaultPlan::with(events)
    }

    /// A seeded plan: `events` faults over request indices
    /// `[0, horizon)` against `replicas` replicas. The mix is drawn from
    /// the seeded generator — stalls, dropped connections, slow replies,
    /// and at most `replication − 1` kills (so every key keeps a live
    /// owner). Same arguments, same plan, on every platform.
    pub fn seeded(
        seed: u64,
        replicas: usize,
        replication: usize,
        events: usize,
        horizon: u64,
    ) -> FaultPlan {
        let mut rng = Rng::new(seed);
        let replicas = replicas.max(1);
        let horizon = horizon.max(1);
        let max_kills = replication.clamp(1, replicas) - 1;
        let mut kills = 0usize;
        let mut out = Vec::with_capacity(events);
        for _ in 0..events {
            let at_request = rng.below(horizon as usize) as u64;
            let replica = rng.below(replicas);
            let kind = match rng.below(4) {
                0 if kills < max_kills => {
                    kills += 1;
                    FaultKind::Kill
                }
                0 | 1 => FaultKind::StallMs(1 + rng.below(20) as u64),
                2 => FaultKind::DropConn,
                _ => FaultKind::SlowReplyMs(1 + rng.below(20) as u64),
            };
            out.push(FaultEvent { at_request, replica, kind });
        }
        FaultPlan::with(out)
    }

    /// Events not yet fired.
    pub fn remaining(&self) -> usize {
        self.events.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Removes and returns every event scheduled for request `index`.
    pub fn take_at(&mut self, index: u64) -> Vec<FaultEvent> {
        let mut fired = Vec::new();
        self.events.retain(|e| {
            if e.at_request == index {
                fired.push(*e);
                false
            } else {
                true
            }
        });
        fired
    }

    /// A read-only view of the scheduled events (for logging/metrics).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_replay_exactly() {
        let a = FaultPlan::seeded(11, 3, 2, 16, 100);
        let b = FaultPlan::seeded(11, 3, 2, 16, 100);
        assert_eq!(a.events(), b.events());
        let c = FaultPlan::seeded(12, 3, 2, 16, 100);
        assert_ne!(a.events(), c.events(), "different seeds must differ");
    }

    #[test]
    fn seeded_kills_stay_under_replication() {
        for seed in 0..50u64 {
            for (replicas, replication) in [(3usize, 2usize), (5, 3), (4, 1)] {
                let plan = FaultPlan::seeded(seed, replicas, replication, 64, 1000);
                let kills = plan.events().iter().filter(|e| e.kind == FaultKind::Kill).count();
                assert!(
                    kills <= replication.saturating_sub(1),
                    "seed {seed}: {kills} kills at R={replication}"
                );
            }
        }
    }

    #[test]
    fn take_at_consumes_events_once() {
        let mut plan = FaultPlan::with(vec![
            FaultEvent { at_request: 5, replica: 0, kind: FaultKind::Kill },
            FaultEvent { at_request: 5, replica: 1, kind: FaultKind::DropConn },
            FaultEvent { at_request: 9, replica: 1, kind: FaultKind::StallMs(3) },
        ]);
        assert_eq!(plan.take_at(4), vec![]);
        let fired = plan.take_at(5);
        assert_eq!(fired.len(), 2);
        assert_eq!(plan.take_at(5), vec![], "events fire exactly once");
        assert_eq!(plan.remaining(), 1);
        assert_eq!(plan.take_at(9).len(), 1);
        assert!(plan.is_empty());
    }

    #[test]
    fn churn_constructors_pin_membership_events() {
        let plan =
            FaultPlan::add_at(24).merged(FaultPlan::add_at(32)).merged(FaultPlan::drain_at(1, 44));
        assert_eq!(plan.remaining(), 3);
        let evs = plan.events();
        assert_eq!(evs[0], FaultEvent { at_request: 24, replica: 0, kind: FaultKind::AddAt });
        assert_eq!(evs[1], FaultEvent { at_request: 32, replica: 0, kind: FaultKind::AddAt });
        assert_eq!(evs[2], FaultEvent { at_request: 44, replica: 1, kind: FaultKind::DrainAt });
    }

    #[test]
    fn events_land_inside_the_horizon() {
        let plan = FaultPlan::seeded(7, 4, 2, 100, 50);
        assert!(plan.events().iter().all(|e| e.at_request < 50));
        assert!(plan.events().iter().all(|e| e.replica < 4));
    }
}
