//! Latency–bandwidth (Hockney) message cost model.
//!
//! Parameters come straight from the measured columns of paper Table 1:
//! internode MPI latency (µs) and per-CPU bidirectional MPI bandwidth
//! (GB/s). Intranode messages use the STREAM memory system instead of the
//! network, which matters for the 8- and 16-way SMP nodes.

use crate::topology::Topology;

/// Measured network parameters of one platform (paper Table 1).
#[derive(Clone, Copy, Debug)]
pub struct NetworkParams {
    /// Internode MPI latency in microseconds.
    pub latency_us: f64,
    /// Per-CPU bidirectional MPI bandwidth in GB/s.
    pub bw_gbps: f64,
    /// Processors per SMP node.
    pub cpus_per_node: usize,
    /// Intra-node (shared-memory) bandwidth in GB/s, per CPU.
    pub intranode_bw_gbps: f64,
    /// Interconnect topology.
    pub topology: Topology,
}

/// Evaluates message and pattern costs for one platform.
#[derive(Clone, Copy, Debug)]
pub struct NetworkModel {
    /// The raw measured parameters.
    pub params: NetworkParams,
    /// Total processors in the job (fixes hop counts and contention).
    pub job_procs: usize,
}

impl NetworkModel {
    /// Creates a model for a job of `job_procs` processors.
    pub fn new(params: NetworkParams, job_procs: usize) -> Self {
        NetworkModel { params, job_procs: job_procs.max(1) }
    }

    /// Number of SMP nodes the job spans.
    pub fn nodes(&self) -> usize {
        self.job_procs.div_ceil(self.params.cpus_per_node)
    }

    /// True when ranks `a` and `b` share an SMP node under block placement.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        a / self.params.cpus_per_node == b / self.params.cpus_per_node
    }

    /// Time in seconds for one point-to-point message of `bytes` between
    /// ranks `src` and `dst`, assuming no competing traffic.
    pub fn pt2pt_secs(&self, src: usize, dst: usize, bytes: usize) -> f64 {
        if src == dst {
            return 0.0;
        }
        if self.same_node(src, dst) {
            // Shared-memory copy: negligible latency, memory-system bandwidth.
            let lat = 0.5e-6;
            lat + bytes as f64 / (self.params.intranode_bw_gbps * 1e9)
        } else {
            let hops = self.params.topology.avg_hops(self.nodes());
            // Per-hop increment is small on all these networks (~50 ns).
            let lat = self.params.latency_us * 1e-6 + (hops - 1.0).max(0.0) * 50e-9;
            lat + bytes as f64 / (self.params.bw_gbps * 1e9)
        }
    }

    /// Time for a nearest-neighbor halo exchange where every rank sends
    /// `bytes` to `neighbors` peers (overlapped bidirectional links).
    pub fn halo_secs(&self, bytes: usize, neighbors: usize) -> f64 {
        let contention = self.params.topology.neighbor_contention();
        let lat = self.params.latency_us * 1e-6;
        neighbors as f64 * (lat + bytes as f64 * contention / (self.params.bw_gbps * 1e9))
    }

    /// Effective per-processor bandwidth (bytes/sec) under a global
    /// all-to-all pattern, after topology contention.
    pub fn alltoall_bw(&self) -> f64 {
        self.params.bw_gbps * 1e9 / self.params.topology.alltoall_contention(self.nodes())
    }

    /// The latency term in seconds.
    pub fn latency_secs(&self) -> f64 {
        self.params.latency_us * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fat_tree() -> NetworkParams {
        NetworkParams {
            latency_us: 6.0,
            bw_gbps: 0.59,
            cpus_per_node: 2,
            intranode_bw_gbps: 2.3,
            topology: Topology::FatTree,
        }
    }

    #[test]
    fn self_message_is_free() {
        let m = NetworkModel::new(fat_tree(), 64);
        assert_eq!(m.pt2pt_secs(5, 5, 1 << 20), 0.0);
    }

    #[test]
    fn intranode_beats_internode() {
        let m = NetworkModel::new(fat_tree(), 64);
        let intra = m.pt2pt_secs(0, 1, 1 << 20); // same 2-way node
        let inter = m.pt2pt_secs(0, 2, 1 << 20); // different nodes
        assert!(intra < inter, "{intra} vs {inter}");
    }

    #[test]
    fn bandwidth_dominates_large_messages() {
        let m = NetworkModel::new(fat_tree(), 64);
        let t1 = m.pt2pt_secs(0, 2, 1 << 20);
        let t2 = m.pt2pt_secs(0, 2, 1 << 21);
        // Doubling the size should nearly double the time for 1 MB messages.
        let ratio = t2 / t1;
        assert!(ratio > 1.8 && ratio < 2.1, "ratio {ratio}");
    }

    #[test]
    fn latency_dominates_small_messages() {
        let m = NetworkModel::new(fat_tree(), 64);
        let t8 = m.pt2pt_secs(0, 2, 8);
        let t64 = m.pt2pt_secs(0, 2, 64);
        // Both are essentially one latency.
        assert!((t64 - t8) / t8 < 0.05);
    }

    #[test]
    fn node_count_rounds_up() {
        let m = NetworkModel::new(fat_tree(), 65);
        assert_eq!(m.nodes(), 33);
    }

    #[test]
    fn crossbar_alltoall_keeps_full_bandwidth() {
        let es = NetworkParams {
            latency_us: 5.6,
            bw_gbps: 1.5,
            cpus_per_node: 8,
            intranode_bw_gbps: 26.3,
            topology: Topology::Crossbar,
        };
        let m = NetworkModel::new(es, 4096);
        assert!((m.alltoall_bw() - 1.5e9).abs() < 1.0);
    }

    #[test]
    fn halo_cost_scales_with_neighbor_count() {
        let m = NetworkModel::new(fat_tree(), 64);
        let t2 = m.halo_secs(4096, 2);
        let t6 = m.halo_secs(4096, 6);
        assert!((t6 / t2 - 3.0).abs() < 1e-9);
    }
}
