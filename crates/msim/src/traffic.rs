//! Communication-volume capture.
//!
//! The paper's Figure 2 was produced with the IPM profiling tool: a matrix
//! of point-to-point bytes between every pair of MPI processes. msim
//! records the same matrix (plus a log of collective operations) as a side
//! effect of every `send`.

use hec_core::probe::{self, Counters};
use hec_core::sync::Mutex;

/// Which collective produced a [`CollectiveRecord`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectiveKind {
    /// `Comm::barrier`
    Barrier,
    /// `Comm::bcast`
    Bcast,
    /// `Comm::allreduce_*`
    Allreduce,
    /// `Comm::alltoall`(v)
    Alltoall,
}

/// One collective operation performed by some communicator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CollectiveRecord {
    /// The operation.
    pub kind: CollectiveKind,
    /// Size of the communicator that performed it.
    pub comm_size: usize,
    /// Payload bytes per rank (0 for barrier).
    pub bytes: usize,
}

/// Point-to-point volume matrix plus the collective log for one run.
#[derive(Debug)]
pub struct TrafficMatrix {
    nprocs: usize,
    /// Row-major `nprocs × nprocs` byte counts (src-major).
    bytes: Mutex<Vec<u64>>,
    /// Number of messages per (src, dst) pair.
    msgs: Mutex<Vec<u64>>,
    collectives: Mutex<Vec<CollectiveRecord>>,
}

impl TrafficMatrix {
    /// Creates an empty matrix for `nprocs` ranks.
    pub fn new(nprocs: usize) -> Self {
        TrafficMatrix {
            nprocs,
            bytes: Mutex::new(vec![0; nprocs * nprocs]),
            msgs: Mutex::new(vec![0; nprocs * nprocs]),
            collectives: Mutex::new(Vec::new()),
        }
    }

    /// Number of ranks this matrix covers.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Records one point-to-point message. Doubles as the probe hook for
    /// `comm/pt2pt` events (collective-internal messages included, as in
    /// IPM captures).
    pub fn record(&self, src: usize, dst: usize, bytes: usize) {
        debug_assert!(src < self.nprocs && dst < self.nprocs);
        self.bytes.lock()[src * self.nprocs + dst] += bytes as u64;
        self.msgs.lock()[src * self.nprocs + dst] += 1;
        probe::count(
            "comm/pt2pt",
            Counters { messages: 1, message_bytes: bytes as u64, ..Default::default() },
        );
    }

    /// Records one collective operation (logged once by communicator root).
    pub fn record_collective(&self, rec: CollectiveRecord) {
        probe::count(
            "comm/collectives",
            Counters { collectives: 1, collective_bytes: rec.bytes as u64, ..Default::default() },
        );
        self.collectives.lock().push(rec);
    }

    /// Returns a snapshot of the byte matrix, row-major by source rank.
    pub fn snapshot(&self) -> Vec<u64> {
        self.bytes.lock().clone()
    }

    /// Bytes sent from `src` to `dst` so far.
    pub fn pair(&self, src: usize, dst: usize) -> u64 {
        self.bytes.lock()[src * self.nprocs + dst]
    }

    /// Message count from `src` to `dst` so far.
    pub fn pair_msgs(&self, src: usize, dst: usize) -> u64 {
        self.msgs.lock()[src * self.nprocs + dst]
    }

    /// Total bytes across all pairs.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.lock().iter().sum()
    }

    /// Snapshot of the collective log.
    pub fn collectives(&self) -> Vec<CollectiveRecord> {
        self.collectives.lock().clone()
    }

    /// Clears all recorded traffic — used to drop setup-phase communication
    /// (communicator splits, initial distribution) so a capture covers only
    /// the timestepped region, as the paper's IPM captures do.
    pub fn reset(&self) {
        self.bytes.lock().iter_mut().for_each(|b| *b = 0);
        self.msgs.lock().iter_mut().for_each(|m| *m = 0);
        self.collectives.lock().clear();
    }

    /// Renders the matrix as an ASCII heat map (Figure 2 style): one
    /// character per (src, dst) cell, log-scaled from '.' (zero) to '9'.
    pub fn ascii_heatmap(&self) -> String {
        let m = self.snapshot();
        let max = m.iter().copied().max().unwrap_or(0).max(1) as f64;
        let mut out = String::with_capacity((self.nprocs + 1) * self.nprocs);
        for src in 0..self.nprocs {
            for dst in 0..self.nprocs {
                let v = m[src * self.nprocs + dst] as f64;
                let c = if v == 0.0 {
                    '.'
                } else {
                    // Log scale over 4 decades onto '1'..='9'.
                    let t = 1.0 + 8.0 * (1.0 + (v / max).log10() / 4.0).clamp(0.0, 1.0);
                    char::from_digit(t as u32, 10).unwrap_or('9')
                };
                out.push(c);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let t = TrafficMatrix::new(4);
        t.record(0, 1, 100);
        t.record(0, 1, 50);
        t.record(3, 2, 7);
        assert_eq!(t.pair(0, 1), 150);
        assert_eq!(t.pair_msgs(0, 1), 2);
        assert_eq!(t.pair(3, 2), 7);
        assert_eq!(t.pair(1, 0), 0);
        assert_eq!(t.total_bytes(), 157);
    }

    #[test]
    fn heatmap_shape_and_content() {
        let t = TrafficMatrix::new(3);
        t.record(0, 1, 1000);
        t.record(2, 0, 1);
        let map = t.ascii_heatmap();
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.len() == 3));
        // Zero cells are dots; the max cell is '9'.
        assert_eq!(lines[0].as_bytes()[0], b'.');
        assert_eq!(lines[0].as_bytes()[1], b'9');
        assert_ne!(lines[2].as_bytes()[0], b'.');
    }

    #[test]
    fn collective_log_preserves_order() {
        let t = TrafficMatrix::new(2);
        t.record_collective(CollectiveRecord {
            kind: CollectiveKind::Barrier,
            comm_size: 2,
            bytes: 0,
        });
        t.record_collective(CollectiveRecord {
            kind: CollectiveKind::Allreduce,
            comm_size: 2,
            bytes: 8,
        });
        let log = t.collectives();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].kind, CollectiveKind::Barrier);
        assert_eq!(log[1].kind, CollectiveKind::Allreduce);
    }
}
