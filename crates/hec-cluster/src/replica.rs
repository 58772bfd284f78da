//! The member table: N independent in-process `hec-serve` instances,
//! one record per member.
//!
//! Each replica is a full [`hec_serve::server::Server`] — its own
//! listener on an ephemeral 127.0.0.1 port, reactor, worker pool and
//! cache — so replicas fail independently: killing one closes its
//! socket and drains its workers without touching the others, exactly
//! the failure granularity the fault plan needs. A restarted replica
//! comes back on a *new* port (the old one cannot be reliably rebound
//! immediately); the router always looks addresses up through
//! [`Member::addr`], so the ring never stores a stale port.
//!
//! Everything the cluster knows about member `i` lives in one
//! [`Member`] (DESIGN §9 tabulates what guards what). Its **lifecycle
//! lock** guards the server, address and retired flag and is the only
//! source of liveness: a member is up exactly when the lock holds a
//! running server, and only `kill`, `restart` and `retire` change that.
//!
//! Member IDs are append-only and never reused (DESIGN §12), so a ring
//! epoch that names member `i` always means the same process; a retired
//! member keeps its drain's final open-connection count (0 when clean).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hec_core::sync::Mutex;
use hec_serve::server::{self, ServeConfig, Server};

struct Life {
    /// `None` while the member is down or retired.
    server: Option<Server>,
    /// Last bound address; retained while down for diagnostics.
    addr: SocketAddr,
    /// Terminal: a retired member never restarts and its transition
    /// counters are frozen — a drained replica didn't fail, it left.
    retired: bool,
}

/// One member's whole record (see the module doc for what guards what).
pub struct Member {
    life: Mutex<Life>,
    down_transitions: AtomicU64,
    up_transitions: AtomicU64,
    forwarded: AtomicU64,
    /// Reactor connections still open when the retirement drain
    /// finished (meaningful only once retired).
    final_open: AtomicU64,
}

impl Member {
    /// The member's current address, or `None` while it is down or
    /// retired.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.life.lock().server.as_ref().map(|s| s.addr())
    }

    /// The member's last known address regardless of state (diagnostics).
    pub fn last_addr(&self) -> SocketAddr {
        self.life.lock().addr
    }

    /// True while the member runs a server.
    pub fn is_up(&self) -> bool {
        self.life.lock().server.is_some()
    }

    /// True when the member has been retired (drained out for good).
    pub fn is_retired(&self) -> bool {
        self.life.lock().retired
    }

    /// Up→down transitions: kills that took a running server.
    pub fn down_transitions(&self) -> u64 {
        self.down_transitions.load(Ordering::Relaxed)
    }

    /// Down→up transitions: restarts that started a server.
    pub fn up_transitions(&self) -> u64 {
        self.up_transitions.load(Ordering::Relaxed)
    }

    /// Counts a forward this member answered.
    pub fn note_forward(&self) {
        self.forwarded.fetch_add(1, Ordering::Relaxed);
    }

    /// Forwards this member has answered.
    pub fn forwarded(&self) -> u64 {
        self.forwarded.load(Ordering::Relaxed)
    }

    /// The reactor's final open-connection count recorded when the
    /// member was retired. `None` until then.
    pub fn final_open(&self) -> Option<u64> {
        self.is_retired().then(|| self.final_open.load(Ordering::Relaxed))
    }
}

pub(crate) fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, msg)
}

/// In-process `hec-serve` replicas: individually killable, restartable,
/// and — for elasticity — addable and retirable. The router and the
/// elasticity engine share one handle to it.
pub struct ReplicaSet {
    members: Mutex<Vec<Arc<Member>>>,
    template: ServeConfig,
}

impl ReplicaSet {
    /// Starts `n` replicas from `template` (the port field is ignored —
    /// every replica binds an ephemeral port).
    pub fn start(n: usize, template: ServeConfig) -> std::io::Result<ReplicaSet> {
        let set = ReplicaSet { members: Mutex::new(Vec::with_capacity(n.max(1))), template };
        for _ in 0..n.max(1) {
            set.add()?;
        }
        Ok(set)
    }

    /// Number of members ever created (up, down, or retired).
    pub fn len(&self) -> usize {
        self.members.lock().len()
    }

    /// True when the set has no members (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Member `i`'s record, or `None` when the ID was never assigned.
    pub fn get(&self, i: usize) -> Option<Arc<Member>> {
        self.members.lock().get(i).cloned()
    }

    /// Every member's record, indexed by ID.
    pub fn snapshot(&self) -> Vec<Arc<Member>> {
        self.members.lock().clone()
    }

    fn start_server(&self) -> std::io::Result<Server> {
        server::start(ServeConfig { port: 0, ..self.template.clone() })
    }

    /// Starts a fresh replica as the next member, up. Returns its ID and
    /// address; the ID is stable for the life of the set.
    pub fn add(&self) -> std::io::Result<(usize, SocketAddr)> {
        let server = self.start_server()?;
        let addr = server.addr();
        let mut members = self.members.lock();
        members.push(Arc::new(Member {
            life: Mutex::new(Life { server: Some(server), addr, retired: false }),
            down_transitions: AtomicU64::new(0),
            up_transitions: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            final_open: AtomicU64::new(0),
        }));
        Ok((members.len() - 1, addr))
    }

    /// Shuts member `i` down (graceful: drains in-flight requests).
    /// Returns true when it was running. Idempotent. The server leaves
    /// the lifecycle lock before the drain, so the member reads down at
    /// once and the router fails over instead of waiting.
    pub fn kill(&self, i: usize) -> bool {
        let Some(member) = self.get(i) else { return false };
        let server = {
            let mut life = member.life.lock();
            let server = life.server.take();
            if server.is_some() {
                member.down_transitions.fetch_add(1, Ordering::Relaxed);
            }
            server
        };
        match server {
            Some(s) => {
                s.shutdown();
                s.join();
                true
            }
            None => false,
        }
    }

    /// Restarts member `i` on a fresh ephemeral port. Returns the
    /// address; an already-running replica is left alone. Retired
    /// members refuse to restart. The decision and the install happen
    /// under the lifecycle lock, so of two racing restarts exactly one
    /// starts a server and both return its address.
    pub fn restart(&self, i: usize) -> std::io::Result<SocketAddr> {
        let member = self.get(i).ok_or_else(|| invalid(format!("no replica {i}")))?;
        let mut life = member.life.lock();
        if life.retired {
            return Err(invalid(format!("replica {i} is retired")));
        }
        if life.server.is_none() {
            let server = self.start_server()?;
            life.addr = server.addr();
            life.server = Some(server);
            member.up_transitions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(life.addr)
    }

    /// Retires member `i` for good: it reads down and retired at once,
    /// then a graceful drain (in-flight requests complete, then every
    /// connection closes) records the reactor's final open-connection
    /// count. Returns that count, or `None` when already retired / out
    /// of range. A down-but-not-retired member retires with count 0.
    /// Retirement is not a down transition.
    pub fn retire(&self, i: usize) -> Option<u64> {
        let member = self.get(i)?;
        let server = {
            let mut life = member.life.lock();
            if life.retired {
                return None;
            }
            life.retired = true;
            life.server.take()
        };
        let final_open = match server {
            Some(s) => {
                let front = s.frontend();
                s.shutdown();
                s.join();
                front.open_connections()
            }
            None => 0,
        };
        member.final_open.store(final_open, Ordering::Relaxed);
        Some(final_open)
    }

    /// Shuts every running replica down.
    pub fn shutdown_all(&self) {
        for i in 0..self.len() {
            let _ = self.kill(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hec_serve::client;

    fn small_cfg() -> ServeConfig {
        ServeConfig { port: 0, workers: 2, queue: 16, cache_capacity: 128 }
    }

    fn healthz(addr: SocketAddr) -> std::io::Result<u16> {
        client::http_get(&format!("http://{addr}/healthz")).map(|r| r.status)
    }

    /// IDs of the members that are / are not retired, ascending.
    fn ids(set: &ReplicaSet, retired: bool) -> Vec<usize> {
        let all = set.snapshot();
        (0..all.len()).filter(|&i| all[i].is_retired() == retired).collect()
    }

    #[test]
    fn replicas_start_on_distinct_ports_and_serve() {
        let set = ReplicaSet::start(3, small_cfg()).unwrap();
        assert_eq!(set.len(), 3);
        let mut ports = Vec::new();
        for m in set.snapshot() {
            let addr = m.addr().expect("up");
            ports.push(addr.port());
            assert_eq!(healthz(addr).unwrap(), 200);
        }
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 3, "each replica gets its own port");
        assert!(set.get(3).is_none(), "an ID never assigned has no record");
        set.shutdown_all();
    }

    #[test]
    fn kill_is_isolated_and_restart_revives_and_each_marks_the_member() {
        let set = ReplicaSet::start(2, small_cfg()).unwrap();
        let (m0, m1) = (set.get(0).unwrap(), set.get(1).unwrap());
        let dead_addr = m0.addr().unwrap();
        assert!(set.kill(0));
        assert!(!set.kill(0), "second kill is a no-op");
        assert!(!set.kill(7), "so is killing an ID never assigned");
        assert!(m0.addr().is_none() && !m0.is_up(), "kill takes the server");
        assert_eq!(m0.last_addr(), dead_addr, "the last address is kept for diagnostics");
        assert_eq!((m0.down_transitions(), m0.up_transitions()), (1, 0));
        assert!(m1.addr().is_some() && m1.is_up(), "killing 0 must not touch 1");
        assert!(healthz(dead_addr).is_err());
        assert_eq!(healthz(m1.addr().unwrap()).unwrap(), 200);

        let revived = set.restart(0).unwrap();
        assert_eq!(m0.addr(), Some(revived));
        assert!(m0.is_up(), "restart installs a server");
        assert_eq!((m0.down_transitions(), m0.up_transitions()), (1, 1));
        assert_eq!(healthz(revived).unwrap(), 200);
        assert_eq!(set.restart(0).unwrap(), revived, "a running replica is left alone");
        assert!(set.restart(7).is_err());
        set.shutdown_all();
    }

    #[test]
    fn racing_restarts_start_exactly_one_server() {
        let set = ReplicaSet::start(1, small_cfg()).unwrap();
        assert!(set.kill(0));
        let gate = std::sync::Barrier::new(8);
        let addrs: Vec<SocketAddr> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        set.restart(0).unwrap()
                    })
                })
                .collect();
            racers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // A second server would have been handed out to one racer and
        // then dropped un-stopped by the install that overwrote it.
        assert!(addrs.iter().all(|a| *a == addrs[0]), "one restart wins: {addrs:?}");
        assert_eq!(set.get(0).unwrap().addr(), Some(addrs[0]));
        assert_eq!(healthz(addrs[0]).unwrap(), 200);
        assert_eq!(set.get(0).unwrap().up_transitions(), 1);
        set.shutdown_all();
    }

    #[test]
    fn add_assigns_the_next_id_marked_up_and_serves() {
        let set = ReplicaSet::start(2, small_cfg()).unwrap();
        let (id, addr) = set.add().unwrap();
        assert_eq!(id, 2);
        assert_eq!(set.len(), 3);
        let m = set.get(2).unwrap();
        assert!(m.is_up() && m.addr() == Some(addr));
        assert_eq!((m.down_transitions(), m.up_transitions(), m.forwarded()), (0, 0, 0));
        assert_eq!(healthz(addr).unwrap(), 200);
        assert_eq!(ids(&set, false), vec![0, 1, 2]);
        set.shutdown_all();
    }

    #[test]
    fn retire_drains_to_zero_connections_and_is_permanent() {
        let set = ReplicaSet::start(2, small_cfg()).unwrap();
        let m = set.get(1).unwrap();
        let addr = m.addr().unwrap();
        assert_eq!(m.final_open(), None, "no drain count before retirement");
        let open = set.retire(1).expect("first retire reports the drain");
        assert_eq!(open, 0, "an idle replica drains to zero connections");
        assert_eq!(m.final_open(), Some(0));
        assert!(m.is_retired() && !m.is_up());
        assert!(m.addr().is_none());
        assert!(healthz(addr).is_err());
        assert_eq!(set.retire(1), None, "second retire is a no-op");
        assert_eq!(set.retire(7), None);
        assert!(set.restart(1).is_err(), "retired members never restart");
        assert_eq!(ids(&set, false), vec![0]);
        assert_eq!(ids(&set, true), vec![1]);
        // IDs are never reused: the next add takes 2, not 1.
        let (id, _) = set.add().unwrap();
        assert_eq!(id, 2);
        assert_eq!(set.len(), 3, "retired members keep their ID");
        set.shutdown_all();
    }

    #[test]
    fn retire_counts_connections_still_open_after_drain() {
        // A keep-alive client connection is closed by the graceful
        // drain, so the recorded final count is still zero — the drain
        // contract the elasticity e2e asserts through /metrics.
        let set = ReplicaSet::start(1, small_cfg()).unwrap();
        let addr = set.get(0).unwrap().addr().unwrap();
        let r = client::http_get(&format!("http://{addr}/metrics")).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(set.retire(0), Some(0));
        set.shutdown_all();
    }

    /// Every lifecycle call, in turn, against a model of each member:
    /// after each step a member is up exactly when it has an address
    /// (and answers on it), a step moves at most its own member's one
    /// counter by one, and nothing revives or recounts a retired member.
    #[test]
    fn each_lifecycle_step_moves_liveness_and_exactly_its_counter() {
        enum Call {
            Kill,
            Restart,
            Retire,
        }
        use Call::*;
        /// What a member reads: (up, retired, down_transitions, up_transitions).
        type Want = (bool, bool, u64, u64);
        let set = ReplicaSet::start(2, small_cfg()).unwrap();
        let mut model: Vec<Want> = vec![(true, false, 0, 0); 2];
        // (call, member, what the call returns, what the member reads after)
        let table: [(&str, Call, usize, &str, Want); 10] = [
            ("kill", Kill, 0, "true", (false, false, 1, 0)),
            ("kill again", Kill, 0, "false", (false, false, 1, 0)),
            ("restart", Restart, 0, "new addr", (true, false, 1, 1)),
            ("restart while running", Restart, 0, "same addr", (true, false, 1, 1)),
            ("retire an up member", Retire, 1, "Some(0)", (false, true, 0, 0)),
            ("kill before retiring", Kill, 0, "true", (false, false, 2, 1)),
            ("retire a down member", Retire, 0, "Some(0)", (false, true, 2, 1)),
            ("kill a retired member", Kill, 0, "false", (false, true, 2, 1)),
            ("restart a retired member", Restart, 0, "refused", (false, true, 2, 1)),
            ("retire a retired member", Retire, 0, "None", (false, true, 2, 1)),
        ];
        for (name, call, i, returns, want) in table {
            let before = set.get(i).unwrap().addr();
            let got = match call {
                Kill => set.kill(i).to_string(),
                Restart => match set.restart(i) {
                    Ok(a) if Some(a) == before => "same addr".into(),
                    Ok(_) => "new addr".into(),
                    Err(e) => {
                        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{name}");
                        "refused".into()
                    }
                },
                Retire => format!("{:?}", set.retire(i)),
            };
            assert_eq!(got, returns, "{name}: return value");
            model[i] = want;
            for (j, m) in set.snapshot().iter().enumerate() {
                let read = (m.is_up(), m.is_retired(), m.down_transitions(), m.up_transitions());
                assert_eq!(read, model[j], "{name}: member {j}");
                assert_eq!(m.addr().is_some(), m.is_up(), "{name}: member {j} up iff addressed");
                match m.addr() {
                    Some(a) => assert_eq!(healthz(a).unwrap(), 200, "{name}: member {j}"),
                    None => assert!(healthz(m.last_addr()).is_err(), "{name}: member {j}"),
                }
            }
        }
        set.shutdown_all();
    }
}
