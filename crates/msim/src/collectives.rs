//! Collective operations, built on the buffered point-to-point layer.
//!
//! The algorithm shapes match 2005-era MPI implementations: dissemination
//! barrier, binomial-tree broadcast, recursive reduce-to-root + broadcast
//! for allreduce, and direct pairwise exchange for alltoall. Because sends
//! are buffered, no ordering discipline is needed for deadlock freedom; the
//! shapes matter only because the captured traffic volumes should look like
//! real MPI traffic.

use crate::comm::Comm;
use crate::traffic::{CollectiveKind, CollectiveRecord};

/// Element-wise reduction operators for `allreduce`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    fn apply(self, acc: &mut [f64], other: &[f64]) {
        debug_assert_eq!(acc.len(), other.len());
        match self {
            ReduceOp::Sum => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a += *b;
                }
            }
            ReduceOp::Max => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a = a.max(*b);
                }
            }
            ReduceOp::Min => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a = a.min(*b);
                }
            }
        }
    }
}

impl Comm {
    /// Dissemination barrier: ⌈log₂ p⌉ rounds of token exchange.
    pub fn barrier(&mut self) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let tag = self.next_coll_tag();
        let mut dist = 1;
        while dist < p {
            let to = (self.rank() + dist) % p;
            let from = (self.rank() + p - dist) % p;
            self.send_coll(to, tag, Vec::new());
            let _ = self.recv_internal(from, tag);
            dist *= 2;
        }
        if self.rank() == 0 {
            self.traffic().record_collective(CollectiveRecord {
                kind: CollectiveKind::Barrier,
                comm_size: p,
                bytes: 0,
            });
        }
    }

    /// Binomial-tree broadcast from `root`.
    pub fn bcast_f64(&mut self, root: usize, data: &mut Vec<f64>) {
        let p = self.size();
        let tag = self.next_coll_tag();
        if p == 1 {
            return;
        }
        // Rotate so the root is virtual rank 0.
        let vrank = (self.rank() + p - root) % p;
        // Receive from parent (highest set bit), then forward down the tree.
        if vrank != 0 {
            // Binomial tree: parent is vrank with its lowest set bit cleared.
            let parent_v = vrank & (vrank - 1);
            let parent = (parent_v + root) % p;
            *data = self.recv_internal(parent, tag);
        }
        // Children: vrank + 2^k for k above vrank's lowest set bit range.
        let mut mask = 1usize;
        while mask < p {
            if vrank & (mask - 1) == 0 && vrank & mask == 0 {
                let child_v = vrank | mask;
                if child_v < p {
                    let child = (child_v + root) % p;
                    self.send_coll(child, tag, data.clone());
                }
            }
            mask <<= 1;
        }
        if self.rank() == root {
            self.traffic().record_collective(CollectiveRecord {
                kind: CollectiveKind::Bcast,
                comm_size: p,
                bytes: data.len() * 8,
            });
        }
    }

    /// Allreduce over doubles: binary-tree reduce to rank 0, then broadcast.
    pub fn allreduce_f64(&mut self, op: ReduceOp, data: &mut Vec<f64>) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let tag = self.next_coll_tag();
        // Reduce to rank 0 over a binomial tree.
        let mut mask = 1usize;
        while mask < p {
            if self.rank() & mask != 0 {
                let dst = self.rank() & !mask;
                self.send_coll(dst, tag, data.clone());
                break;
            } else {
                let src = self.rank() | mask;
                if src < p {
                    let v = self.recv_internal(src, tag);
                    op.apply(data, &v);
                }
            }
            mask <<= 1;
        }
        if self.rank() == 0 {
            self.traffic().record_collective(CollectiveRecord {
                kind: CollectiveKind::Allreduce,
                comm_size: p,
                bytes: data.len() * 8,
            });
        }
        self.bcast_f64(0, data);
    }

    /// Scalar-sum convenience wrapper over [`Comm::allreduce_f64`].
    pub fn allreduce_sum_scalar(&mut self, x: f64) -> f64 {
        let mut v = vec![x];
        self.allreduce_f64(ReduceOp::Sum, &mut v);
        v[0]
    }

    /// Personalized all-to-all: `send[i]` goes to rank `i`; returns the
    /// blocks received from every rank, in rank order.
    ///
    /// # Panics
    /// Panics if `send.len() != self.size()`.
    pub fn alltoall_f64(&mut self, send: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let p = self.size();
        assert_eq!(send.len(), p, "alltoall needs one block per rank");
        let tag = self.next_coll_tag();
        for dst in 0..p {
            if dst != self.rank() {
                self.send_coll(dst, tag, send[dst].clone());
            }
        }
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); p];
        out[self.rank()] = send[self.rank()].clone();
        for src in 0..p {
            if src != self.rank() {
                out[src] = self.recv_internal(src, tag);
            }
        }
        if self.rank() == 0 {
            let bytes: usize = send.iter().map(|b| b.len() * 8).sum();
            self.traffic().record_collective(CollectiveRecord {
                kind: CollectiveKind::Alltoall,
                comm_size: p,
                bytes,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run;

    #[test]
    fn barrier_completes_for_odd_sizes() {
        for p in [1usize, 2, 3, 5, 8, 13] {
            run(p, |c| {
                c.barrier();
                c.barrier();
            })
            .unwrap();
        }
    }

    #[test]
    fn bcast_delivers_root_data_everywhere() {
        for p in [1usize, 2, 4, 7] {
            for root in [0, p - 1] {
                let out = run(p, move |c| {
                    let mut data =
                        if c.rank() == root { vec![3.25, -1.5, 42.0] } else { Vec::new() };
                    c.bcast_f64(root, &mut data);
                    data
                })
                .unwrap();
                for v in out {
                    assert_eq!(v, vec![3.25, -1.5, 42.0], "p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn allreduce_sum_matches_sequential_fold() {
        for p in [1usize, 2, 3, 6, 9] {
            let out = run(p, |c| {
                let mut v = vec![c.rank() as f64, 1.0];
                c.allreduce_f64(ReduceOp::Sum, &mut v);
                v
            })
            .unwrap();
            let want0: f64 = (0..p).map(|r| r as f64).sum();
            for v in out {
                assert_eq!(v, vec![want0, p as f64], "p={p}");
            }
        }
    }

    #[test]
    fn allreduce_max_and_min() {
        let out = run(5, |c| {
            let mut mx = vec![c.rank() as f64];
            c.allreduce_f64(ReduceOp::Max, &mut mx);
            let mut mn = vec![c.rank() as f64];
            c.allreduce_f64(ReduceOp::Min, &mut mn);
            (mx[0], mn[0])
        })
        .unwrap();
        for (mx, mn) in out {
            assert_eq!(mx, 4.0);
            assert_eq!(mn, 0.0);
        }
    }

    #[test]
    fn alltoall_is_a_global_transpose() {
        let p = 4;
        let out = run(p, |c| {
            // Rank r sends value 100*r + d to rank d.
            let send: Vec<Vec<f64>> =
                (0..c.size()).map(|d| vec![(100 * c.rank() + d) as f64]).collect();
            c.alltoall_f64(&send)
        })
        .unwrap();
        for (d, recv) in out.iter().enumerate() {
            for (r, block) in recv.iter().enumerate() {
                assert_eq!(block, &vec![(100 * r + d) as f64]);
            }
        }
    }

    #[test]
    fn collectives_on_split_subcomms() {
        let out = run(8, |c| {
            let mut sub = c.split((c.rank() % 2) as u64, c.rank() as u64);
            sub.allreduce_sum_scalar(c.rank() as f64)
        })
        .unwrap();
        // Evens: 0+2+4+6 = 12; odds: 1+3+5+7 = 16.
        for (rank, v) in out.iter().enumerate() {
            let want = if rank % 2 == 0 { 12.0 } else { 16.0 };
            assert_eq!(*v, want);
        }
    }

    #[test]
    fn interleaved_collectives_and_pt2pt_do_not_cross() {
        let out = run(4, |c| {
            let sum1 = c.allreduce_sum_scalar(1.0);
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            let halo = c.sendrecv_f64(next, prev, 11, &[c.rank() as f64]);
            let sum2 = c.allreduce_sum_scalar(halo[0]);
            (sum1, sum2)
        })
        .unwrap();
        for (s1, s2) in out {
            assert_eq!(s1, 4.0);
            assert_eq!(s2, 6.0); // 0+1+2+3
        }
    }

    #[test]
    fn collective_log_records_operations() {
        let (_, traffic) = crate::comm::run_with_traffic(4, |c| {
            c.barrier();
            let _ = c.allreduce_sum_scalar(1.0);
        })
        .unwrap();
        let log = traffic.collectives();
        assert!(log.iter().any(|r| r.kind == CollectiveKind::Barrier));
        assert!(log.iter().any(|r| r.kind == CollectiveKind::Allreduce));
    }
}
