//! The SPMD runtime: rank threads, mailboxes, and the communicator handle.
//!
//! Sends are buffered (the sender never blocks), which makes every exchange
//! pattern in the applications deadlock-free regardless of ordering; `recv`
//! blocks until a matching message arrives. Message matching is exact on
//! `(source, communicator, tag)` — there is no wildcard receive, which keeps
//! the applications' communication deterministic and capturable.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use hec_core::sync::{Condvar, Mutex};

use crate::traffic::TrafficMatrix;

/// Matching key: (source world rank, communicator id, tag).
type Key = (usize, u64, u64);

#[derive(Default)]
struct Mailbox {
    queues: Mutex<HashMap<Key, VecDeque<Vec<f64>>>>,
    cv: Condvar,
}

impl Mailbox {
    fn push(&self, key: Key, payload: Vec<f64>) {
        self.queues.lock().entry(key).or_default().push_back(payload);
        self.cv.notify_all();
    }

    /// Blocks until a matching message arrives. If the world is poisoned
    /// (another rank panicked), panics instead of waiting forever — this is
    /// what turns one rank's failure into a clean whole-job [`RunError`]
    /// rather than a deadlock.
    fn pop_blocking(&self, key: Key, poisoned: &AtomicBool) -> Vec<f64> {
        let mut q = self.queues.lock();
        loop {
            if let Some(dq) = q.get_mut(&key) {
                if let Some(p) = dq.pop_front() {
                    return p;
                }
            }
            if poisoned.load(Ordering::Acquire) {
                panic!("peer rank panicked; aborting receive");
            }
            q = self.cv.wait(q);
        }
    }

    fn wake_all(&self) {
        let _guard = self.queues.lock();
        self.cv.notify_all();
    }
}

/// Shared state of one simulated job.
struct World {
    mailboxes: Vec<Mailbox>,
    traffic: Arc<TrafficMatrix>,
    comm_seq: AtomicU64,
    /// Set when any rank panics; wakes every blocked receive.
    poisoned: AtomicBool,
}

/// Error from [`run`]: one or more ranks panicked.
#[derive(Debug)]
pub struct RunError {
    /// World ranks that panicked.
    pub failed_ranks: Vec<usize>,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ranks {:?} panicked", self.failed_ranks)
    }
}

impl std::error::Error for RunError {}

/// Communicator handle owned by one rank. Not `Send` across ranks — each
/// rank gets its own in the closure passed to [`run`].
pub struct Comm {
    world: Arc<World>,
    /// Unique id of this communicator (shared by all members).
    id: u64,
    /// This rank's index within the communicator.
    rank: usize,
    /// World ranks of all members, ordered by communicator rank.
    members: Arc<Vec<usize>>,
    /// Per-rank sequence counter for collective tags (SPMD-consistent).
    coll_seq: u64,
    /// Per-rank sequence counter for splits (SPMD-consistent).
    split_seq: u64,
}

/// Reserved tag bit separating user tags from collective-internal tags.
const COLL_TAG_BIT: u64 = 1 << 63;

impl Comm {
    /// This rank's index within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The world rank behind communicator rank `r`.
    pub fn world_rank(&self, r: usize) -> usize {
        self.members[r]
    }

    /// The traffic matrix shared by the whole job.
    pub fn traffic(&self) -> &TrafficMatrix {
        &self.world.traffic
    }

    pub(crate) fn send_internal(&self, dst: usize, tag: u64, payload: Vec<f64>) {
        let src_w = self.members[self.rank];
        let dst_w = self.members[dst];
        // Zero-byte control tokens (barrier rounds) carry no data volume
        // and are excluded from the traffic matrix, as in IPM captures.
        if src_w != dst_w && !payload.is_empty() {
            self.world.traffic.record(src_w, dst_w, payload.len() * 8);
        }
        self.world.mailboxes[dst_w].push((src_w, self.id, tag), payload);
    }

    pub(crate) fn recv_internal(&self, src: usize, tag: u64) -> Vec<f64> {
        let src_w = self.members[src];
        let me_w = self.members[self.rank];
        self.world.mailboxes[me_w].pop_blocking((src_w, self.id, tag), &self.world.poisoned)
    }

    /// Buffered send of a block of doubles to communicator rank `dst`.
    pub fn send_f64(&self, dst: usize, tag: u64, data: &[f64]) {
        self.send_vec_f64(dst, tag, data.to_vec());
    }

    /// [`Comm::send_f64`] of a buffer the caller already owns: the `Vec`
    /// itself moves into the receiver's mailbox (and comes out of its
    /// `recv_f64`), so nothing is copied or allocated.
    pub fn send_vec_f64(&self, dst: usize, tag: u64, data: Vec<f64>) {
        assert!(tag & COLL_TAG_BIT == 0, "tag {tag:#x} collides with reserved space");
        self.send_internal(dst, tag, data);
    }

    /// Blocking receive of a block of doubles from communicator rank `src`.
    pub fn recv_f64(&self, src: usize, tag: u64) -> Vec<f64> {
        self.recv_internal(src, tag)
    }

    /// Combined exchange: send `data` to `dst` and receive from `src` with
    /// the same tag (the halo-exchange primitive).
    pub fn sendrecv_f64(&self, dst: usize, src: usize, tag: u64, data: &[f64]) -> Vec<f64> {
        self.send_f64(dst, tag, data);
        self.recv_f64(src, tag)
    }

    /// Next collective-internal tag (monotone per rank, SPMD-consistent).
    pub(crate) fn next_coll_tag(&mut self) -> u64 {
        let t = COLL_TAG_BIT | self.coll_seq;
        self.coll_seq += 1;
        t
    }

    pub(crate) fn send_coll(&self, dst: usize, tag: u64, payload: Vec<f64>) {
        self.send_internal(dst, tag, payload);
    }

    /// Splits the communicator: ranks supplying the same `color` form a new
    /// communicator, ordered by `(key, parent rank)`. Mirrors
    /// `MPI_Comm_split`. Every member of the parent must call this.
    pub fn split(&mut self, color: u64, key: u64) -> Comm {
        // Exchange (color, key) with everyone via the parent communicator.
        let tag = COLL_TAG_BIT | (1 << 62) | self.split_seq;
        self.split_seq += 1;
        let my = [color as f64, key as f64];
        for r in 0..self.size() {
            if r != self.rank {
                self.send_internal(r, tag, my.to_vec());
            }
        }
        let mut entries: Vec<(u64, u64, usize)> = Vec::with_capacity(self.size());
        entries.push((color, key, self.rank));
        for r in 0..self.size() {
            if r != self.rank {
                let v = self.recv_internal(r, tag);
                entries.push((v[0] as u64, v[1] as u64, r));
            }
        }
        // My group, ordered by (key, parent rank).
        let mut group: Vec<(u64, usize)> =
            entries.iter().filter(|(c, _, _)| *c == color).map(|&(_, k, r)| (k, r)).collect();
        group.sort_unstable();
        let members: Vec<usize> = group.iter().map(|&(_, r)| self.members[r]).collect();
        let new_rank = members
            .iter()
            .position(|&w| w == self.members[self.rank])
            .expect("caller must be in its own split group");
        // Deterministic id: every member computes the same mix of parent id,
        // split sequence, and color.
        let id = splitmix(self.id ^ splitmix((self.split_seq << 32) ^ color));
        Comm {
            world: Arc::clone(&self.world),
            id,
            rank: new_rank,
            members: Arc::new(members),
            coll_seq: 0,
            split_seq: 0,
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Runs `f` as an SPMD program over `nprocs` ranks, returning each rank's
/// result in rank order.
///
/// # Errors
/// Returns [`RunError`] listing the ranks whose closures panicked.
pub fn run<T, F>(nprocs: usize, f: F) -> Result<Vec<T>, RunError>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    run_with_traffic(nprocs, f).map(|(r, _)| r)
}

/// Like [`run`], but also returns the captured [`TrafficMatrix`].
pub fn run_with_traffic<T, F>(nprocs: usize, f: F) -> Result<(Vec<T>, Arc<TrafficMatrix>), RunError>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    assert!(nprocs > 0, "need at least one rank");
    let traffic = Arc::new(TrafficMatrix::new(nprocs));
    let world = Arc::new(World {
        mailboxes: (0..nprocs).map(|_| Mailbox::default()).collect(),
        traffic: Arc::clone(&traffic),
        comm_seq: AtomicU64::new(1),
        poisoned: AtomicBool::new(false),
    });
    // Id 0 is the world communicator for every run.
    let _ = world.comm_seq.fetch_add(1, Ordering::Relaxed);

    let members = Arc::new((0..nprocs).collect::<Vec<_>>());
    let mut results: Vec<Option<T>> = (0..nprocs).map(|_| None).collect();
    let mut failed = Vec::new();

    // Rank threads record into the capture (if any) that called `run`.
    let probes = hec_core::probe::scope();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nprocs)
            .map(|rank| {
                let world = Arc::clone(&world);
                let members = Arc::clone(&members);
                let (f, probes) = (&f, &probes);
                scope.spawn(move || {
                    let mut comm = Comm {
                        world: Arc::clone(&world),
                        id: 0,
                        rank,
                        members,
                        coll_seq: 0,
                        split_seq: 0,
                    };
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        probes.run(|| f(&mut comm))
                    }));
                    if result.is_err() {
                        // Poison the world and wake every blocked receive so
                        // sibling ranks unwind instead of deadlocking.
                        world.poisoned.store(true, Ordering::Release);
                        for mb in &world.mailboxes {
                            mb.wake_all();
                        }
                    }
                    result
                })
            })
            .collect();
        for (rank, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(Ok(v)) => results[rank] = Some(v),
                Ok(Err(_)) | Err(_) => failed.push(rank),
            }
        }
    });

    if failed.is_empty() {
        Ok((results.into_iter().map(|r| r.unwrap()).collect(), traffic))
    } else {
        Err(RunError { failed_ranks: failed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pt2pt_ring_passes_rank_sums() {
        let n = 8;
        let out = run(n, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            let got = c.sendrecv_f64(next, prev, 7, &[c.rank() as f64]);
            got[0]
        })
        .unwrap();
        for (rank, v) in out.iter().enumerate() {
            let prev = (rank + n - 1) % n;
            assert_eq!(*v, prev as f64);
        }
    }

    #[test]
    fn traffic_matrix_sees_every_message() {
        let (_, traffic) = run_with_traffic(4, |c| {
            if c.rank() == 0 {
                c.send_f64(3, 1, &[1.0; 100]);
            }
            if c.rank() == 3 {
                let v = c.recv_f64(0, 1);
                assert_eq!(v.len(), 100);
            }
        })
        .unwrap();
        assert_eq!(traffic.pair(0, 3), 800);
        assert_eq!(traffic.total_bytes(), 800);
    }

    #[test]
    fn owned_and_borrowed_sends_deliver_the_same_payload_and_traffic() {
        let data: Vec<f64> = (0..257).map(|i| i as f64 * 0.5 - 3.0).collect();
        let run_with = |owned: bool| {
            let data = data.clone();
            run_with_traffic(3, move |c| match c.rank() {
                0 if owned => {
                    c.send_vec_f64(2, 4, data.clone());
                    c.send_vec_f64(2, 4, Vec::new());
                    Vec::new()
                }
                0 => {
                    c.send_f64(2, 4, &data);
                    c.send_f64(2, 4, &[]);
                    Vec::new()
                }
                2 => {
                    let got = c.recv_f64(0, 4);
                    assert!(c.recv_f64(0, 4).is_empty());
                    got
                }
                _ => Vec::new(),
            })
            .unwrap()
        };
        let (borrowed, t_borrowed) = run_with(false);
        let (owned, t_owned) = run_with(true);
        assert_eq!(owned[2], data);
        assert_eq!(owned, borrowed);
        for src in 0..3 {
            for dst in 0..3 {
                assert_eq!(t_owned.pair(src, dst), t_borrowed.pair(src, dst), "{src}->{dst} bytes");
                assert_eq!(
                    t_owned.pair_msgs(src, dst),
                    t_borrowed.pair_msgs(src, dst),
                    "{src}->{dst} messages"
                );
            }
        }
        assert_eq!(t_owned.pair(0, 2), 257 * 8);
    }

    #[test]
    fn messages_with_same_tag_preserve_order() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                for i in 0..10 {
                    c.send_f64(1, 5, &[i as f64]);
                }
                0.0
            } else {
                let mut last = -1.0;
                for _ in 0..10 {
                    let v = c.recv_f64(0, 5);
                    assert!(v[0] > last, "FIFO order violated");
                    last = v[0];
                }
                last
            }
        })
        .unwrap();
        assert_eq!(out[1], 9.0);
    }

    #[test]
    fn tags_do_not_cross_match() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                c.send_f64(1, 1, &[1.0]);
                c.send_f64(1, 2, &[2.0]);
                0.0
            } else {
                // Receive in reverse tag order.
                let b = c.recv_f64(0, 2);
                let a = c.recv_f64(0, 1);
                a[0] * 10.0 + b[0]
            }
        })
        .unwrap();
        assert_eq!(out[1], 12.0);
    }

    #[test]
    fn rank_panic_is_reported() {
        let err = run(3, |c| {
            if c.rank() == 1 {
                panic!("boom");
            }
        })
        .unwrap_err();
        assert_eq!(err.failed_ranks, vec![1]);
    }

    #[test]
    fn rank_panic_unblocks_receivers_into_run_error() {
        // The poisoning path under the std Condvar mailbox: every other
        // rank is parked in a receive that will never be satisfied when
        // rank 1 dies. Poisoning must wake them all and convert the whole
        // job into a clean RunError instead of a deadlock.
        let err = run(4, |c| {
            if c.rank() == 1 {
                panic!("boom");
            }
            // No one ever sends this message.
            let _ = c.recv_f64((c.rank() + 1) % c.size(), 999);
        })
        .unwrap_err();
        assert!(err.failed_ranks.contains(&1));
        assert_eq!(err.failed_ranks.len(), 4, "blocked ranks must unwind too");
        assert!(err.to_string().contains("panicked"));
    }

    #[test]
    fn split_forms_correct_subgroups() {
        let out = run(6, |c| {
            let color = (c.rank() % 2) as u64;
            let sub = c.split(color, c.rank() as u64);
            // Even ranks form one comm of 3, odd the other.
            assert_eq!(sub.size(), 3);
            // Sub-rank ordering follows world rank via key.
            (sub.rank(), sub.world_rank(0))
        })
        .unwrap();
        assert_eq!(out[0], (0, 0));
        assert_eq!(out[2], (1, 0));
        assert_eq!(out[4], (2, 0));
        assert_eq!(out[1], (0, 1));
        assert_eq!(out[3], (1, 1));
        assert_eq!(out[5], (2, 1));
    }

    #[test]
    fn split_comms_are_isolated() {
        // Messages in a sub-communicator never match the parent's tags.
        let out = run(4, |c| {
            let mut sub = c.split((c.rank() / 2) as u64, 0);
            let peer = 1 - sub.rank();
            let tag = sub.next_coll_tag() & !(1 << 63); // user-space tag
            sub.send_f64(peer, tag, &[c.rank() as f64]);
            let got = sub.recv_f64(peer, tag);
            got[0]
        })
        .unwrap();
        assert_eq!(out, vec![1.0, 0.0, 3.0, 2.0]);
    }

    #[test]
    fn intra_rank_send_is_not_counted_as_traffic() {
        let (_, traffic) = run_with_traffic(2, |c| {
            let me = c.rank();
            c.send_f64(me, 9, &[1.0, 2.0]);
            let v = c.recv_f64(me, 9);
            assert_eq!(v, vec![1.0, 2.0]);
        })
        .unwrap();
        assert_eq!(traffic.total_bytes(), 0);
    }
}
