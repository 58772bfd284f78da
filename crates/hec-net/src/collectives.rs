//! Analytic cost models for the collective operations the applications use.
//!
//! * GTC's particle decomposition adds `Allreduce` calls over
//!   sub-communicators (paper §4.2);
//! * PARATEC's 3D FFT is a sequence of all-to-all transposes (paper §6);
//! * FVCAM's 2D decomposition performs transposes between the
//!   (latitude, level) and (longitude, latitude) decompositions (paper §3.2).
//!
//! All models are built from the pt2pt Hockney terms in [`crate::cost`] with
//! the standard algorithm shapes (recursive doubling, pairwise
//! exchange), matching 2005-era MPI implementations.

use crate::cost::NetworkModel;

/// Cost of an `MPI_Allreduce` of `bytes` over `procs` ranks
/// (recursive-doubling: ⌈log₂ p⌉ rounds, each a pairwise exchange plus a
/// local reduction that we charge to the network model's bandwidth term).
pub fn allreduce_secs(net: &NetworkModel, procs: usize, bytes: usize) -> f64 {
    if procs <= 1 {
        return 0.0;
    }
    let rounds = (procs as f64).log2().ceil();
    let per_round = net.latency_secs() + bytes as f64 / (net.params.bw_gbps * 1e9);
    rounds * per_round
}

/// Cost of an `MPI_Alltoall` where each rank sends `bytes_per_pair` to every
/// other rank (pairwise-exchange algorithm, p−1 rounds, with topology
/// contention applied to the bandwidth term).
pub fn alltoall_secs(net: &NetworkModel, procs: usize, bytes_per_pair: usize) -> f64 {
    if procs <= 1 {
        return 0.0;
    }
    let rounds = (procs - 1) as f64;
    let bw = net.alltoall_bw();
    rounds * (net.latency_secs() + bytes_per_pair as f64 / bw)
}

/// Cost of the distributed transpose moving `total_bytes_per_rank` of data
/// from each rank, redistributed over `procs` ranks — the FFT transpose and
/// the FVCAM decomposition switch both have this shape. Equivalent to an
/// all-to-all with `total_bytes_per_rank / procs` per pair.
pub fn transpose_secs(net: &NetworkModel, procs: usize, total_bytes_per_rank: usize) -> f64 {
    if procs <= 1 {
        return 0.0;
    }
    alltoall_secs(net, procs, total_bytes_per_rank / procs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::NetworkParams;
    use crate::topology::Topology;

    fn model(procs: usize) -> NetworkModel {
        NetworkModel::new(
            NetworkParams {
                latency_us: 5.0,
                bw_gbps: 2.0,
                cpus_per_node: 8,
                intranode_bw_gbps: 40.0,
                topology: Topology::Ixs,
            },
            procs,
        )
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let m = model(1);
        assert_eq!(allreduce_secs(&m, 1, 1024), 0.0);
        assert_eq!(alltoall_secs(&m, 1, 1024), 0.0);
        assert_eq!(transpose_secs(&m, 1, 1024), 0.0);
    }

    #[test]
    fn allreduce_scales_logarithmically() {
        let m = model(1024);
        let t16 = allreduce_secs(&m, 16, 8);
        let t256 = allreduce_secs(&m, 256, 8);
        // log2(256)/log2(16) = 2 exactly.
        assert!((t256 / t16 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn alltoall_scales_linearly_in_ranks() {
        let m = model(1024);
        let t64 = alltoall_secs(&m, 64, 1024);
        let t128 = alltoall_secs(&m, 128, 1024);
        assert!(t128 / t64 > 1.9);
    }

    #[test]
    fn transpose_volume_is_conserved() {
        // Same total volume per rank, spread over more ranks → per-pair
        // messages shrink; the total cost should grow only via latency.
        let m = model(1024);
        let t_small = transpose_secs(&m, 16, 1 << 24);
        let t_large = transpose_secs(&m, 256, 1 << 24);
        // More ranks means more rounds (latency) but same bandwidth volume.
        assert!(t_large > t_small * 0.5);
        assert!(t_large < t_small * 40.0);
    }
}
