//! Topology models for the evaluated interconnects.
//!
//! Each topology answers two questions the cost model needs:
//! the average hop count between two processors (latency grows mildly with
//! hops on these networks) and the *bisection contention factor* — how much
//! a global pattern (all-to-all) oversubscribes the narrowest cut relative
//! to a nearest-neighbor pattern.

/// Interconnect topology of a platform (paper Table 1, last column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Full-bisection fat-tree (SP Switch2, Quadrics Elan4, InfiniBand).
    FatTree,
    /// Cray X1/X1E: modules in a 4D hypercube (up to 512 MSPs).
    Hypercube4D,
    /// Earth Simulator: 640×640 single-stage crossbar — every node one hop.
    Crossbar,
    /// NEC IXS multi-stage crossbar (SX-8).
    Ixs,
}

impl Topology {
    /// Average switch hops between two distinct processors in a `nodes`-node
    /// system. Used for the (small) per-hop latency increment.
    pub fn avg_hops(self, nodes: usize) -> f64 {
        let n = nodes.max(2) as f64;
        match self {
            // Up-down routing in a complete tree of radix ~16.
            Topology::FatTree => 2.0 * n.log(16.0).max(1.0),
            // Random pair in a d-dim hypercube differs in d/2 dims on average.
            Topology::Hypercube4D => (n.log2() / 2.0).max(1.0),
            Topology::Crossbar => 1.0,
            Topology::Ixs => 2.0,
        }
    }

    /// Contention multiplier for a global all-to-all over `nodes` nodes:
    /// the factor by which effective per-processor bandwidth is reduced
    /// relative to a pairwise exchange.
    ///
    /// Full-bisection networks (fat-tree, crossbar) ideally sustain 1.0;
    /// practical fat-trees lose some to static routing collisions. The
    /// hypercube loses bandwidth once the pattern exceeds the bisection.
    pub fn alltoall_contention(self, nodes: usize) -> f64 {
        let n = nodes.max(2) as f64;
        match self {
            Topology::FatTree => 1.3,                        // static-routing hot spots
            Topology::Crossbar => 1.0,                       // single-stage, non-blocking
            Topology::Ixs => 1.1,                            // multi-stage, near-full bisection
            Topology::Hypercube4D => 1.0 + (n.log2() / 8.0), // dim-ordered routing
        }
    }

    /// Contention multiplier for nearest-neighbor halo exchanges — all the
    /// evaluated networks handle these at full link rate.
    pub fn neighbor_contention(self) -> f64 {
        1.0
    }

    /// Human-readable name matching the paper's Table 1.
    pub fn label(self) -> &'static str {
        match self {
            Topology::FatTree => "Fat-tree",
            Topology::Hypercube4D => "4D-Hypercube",
            Topology::Crossbar => "Crossbar",
            Topology::Ixs => "IXS Crossbar",
        }
    }

    /// Every topology variant, for exhaustive iteration in tests.
    pub const ALL: [Topology; 4] =
        [Topology::FatTree, Topology::Hypercube4D, Topology::Crossbar, Topology::Ixs];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossbar_is_always_one_hop() {
        for &n in &[2usize, 64, 640] {
            assert_eq!(Topology::Crossbar.avg_hops(n), 1.0);
        }
    }

    #[test]
    fn hop_counts_grow_with_system_size() {
        for topo in [Topology::FatTree, Topology::Hypercube4D] {
            assert!(
                topo.avg_hops(1024) >= topo.avg_hops(16),
                "{topo:?} hops should not shrink with size"
            );
        }
    }

    #[test]
    fn crossbar_alltoall_is_contention_free() {
        assert_eq!(Topology::Crossbar.alltoall_contention(640), 1.0);
    }

    #[test]
    fn neighbor_patterns_are_uncontended_everywhere() {
        for topo in Topology::ALL {
            assert_eq!(topo.neighbor_contention(), 1.0);
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels = Topology::ALL.map(Topology::label);
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn degenerate_small_systems_do_not_panic() {
        for topo in [Topology::FatTree, Topology::Hypercube4D] {
            assert!(topo.avg_hops(1) >= 0.0);
            assert!(topo.alltoall_contention(1) >= 1.0);
        }
    }
}
