//! Platform descriptors: paper Table 1 plus the §2 microarchitecture notes.
//!
//! Measured quantities (peak, STREAM triad, MPI latency/bandwidth) are taken
//! verbatim from Table 1. Microarchitectural constants (vector register
//! length, scalar-unit ratio, stripmine startup, gather/scatter bandwidth
//! fractions, cache sizes, sustained-ILP fractions) come from the paper's
//! prose and the cited references; they are fixed here once, globally, for
//! all experiments.

use hec_net::{NetworkParams, Topology};

/// Identifies one evaluated machine (X1 appears twice: MSP and SSP modes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlatformId {
    /// IBM Power3 (Seaborg, LBNL): 16-way Nighthawk II nodes, SP Switch2.
    Power3,
    /// Intel Itanium2 (Thunder, LLNL): 4-way nodes, Quadrics Elan4.
    Itanium2,
    /// AMD Opteron (Jacquard, LBNL): 2-way nodes, InfiniBand.
    Opteron,
    /// Cray X1 in multi-streaming (MSP) mode: 12.8 Gflop/s logical CPU.
    X1Msp,
    /// Cray X1 in single-streaming (SSP) mode: 3.2 Gflop/s physical SSP.
    X1Ssp,
    /// Cray X1E (MSP mode): doubled module density, 1.13 GHz.
    X1e,
    /// Earth Simulator: 8-way SX-6-derived nodes, FPLRAM, 640-way crossbar.
    Es,
    /// NEC SX-8: 8-way nodes, DDR2-SDRAM, IXS network.
    Sx8,
}

impl PlatformId {
    /// All platforms in the order the paper's tables list them.
    pub const ALL: [PlatformId; 8] = [
        PlatformId::Power3,
        PlatformId::Itanium2,
        PlatformId::Opteron,
        PlatformId::X1Msp,
        PlatformId::X1Ssp,
        PlatformId::X1e,
        PlatformId::Es,
        PlatformId::Sx8,
    ];

    /// Display label matching the paper's table headers.
    pub fn label(self) -> &'static str {
        match self {
            PlatformId::Power3 => "Power3",
            PlatformId::Itanium2 => "Itanium2",
            PlatformId::Opteron => "Opteron",
            PlatformId::X1Msp => "X1 (MSP)",
            PlatformId::X1Ssp => "X1 (SSP)",
            PlatformId::X1e => "X1E (MSP)",
            PlatformId::Es => "ES",
            PlatformId::Sx8 => "SX-8",
        }
    }

    /// Parses a platform name as service input. Accepts the exact paper
    /// label and any spelling that matches it after dropping case and
    /// non-alphanumerics — `"x1msp"`, `"X1-MSP"`, and `"X1 (MSP)"` are the
    /// same platform; `"sx8"` is the SX-8.
    pub fn parse(s: &str) -> Option<PlatformId> {
        fn fold(s: &str) -> String {
            s.chars().filter(char::is_ascii_alphanumeric).map(|c| c.to_ascii_lowercase()).collect()
        }
        let want = fold(s);
        if want.is_empty() {
            return None;
        }
        PlatformId::ALL.into_iter().find(|id| fold(id.label()) == want)
    }
}

/// Microarchitecture class with its model parameters.
#[derive(Clone, Copy, Debug)]
pub enum Arch {
    /// Cache-based out-of-order (or EPIC) commodity processor.
    Superscalar(SuperscalarParams),
    /// Pipelined vector processor.
    Vector(VectorParams),
}

/// Model constants for a superscalar processor.
#[derive(Clone, Copy, Debug)]
pub struct SuperscalarParams {
    /// Sustained fraction of peak on cache-resident dense kernels
    /// (BLAS3-class code). Power3's ESSL reaches ~0.7; Itanium2 needs
    /// software pipelining, Opteron lacks FMA and relies on SSE pairing.
    pub dense_ilp: f64,
    /// Sustained fraction of peak on loop-and-branch stencil/particle code
    /// where the compiler cannot keep the functional units busy.
    pub sparse_ilp: f64,
    /// Combined cache capacity per CPU in bytes (the level that matters for
    /// blocking: 8 MB L2 on Power3, 4 MB L3 on Itanium2, 1 MB L2 on
    /// Opteron).
    pub cache_bytes: f64,
    /// Fraction of STREAM bandwidth sustained on randomly indexed accesses
    /// (one cache line fetched per 8-byte datum ≈ 1/8, better with some
    /// locality).
    pub gather_bw_frac: f64,
    /// Number of concurrent unit-stride streams the prefetch engines track
    /// before bandwidth degrades (LBMHD touches 100+ streams).
    pub prefetch_streams: f64,
    /// Average cost (ns) of one gathered element that hits in cache —
    /// dependent loads pipeline only partially even out of L2/L3.
    pub cached_gather_ns: f64,
}

/// Model constants for a vector processor.
#[derive(Clone, Copy, Debug)]
pub struct VectorParams {
    /// Hardware vector register length in 64-bit words (64 on X1 SSPs, 256
    /// on ES/SX-8).
    pub vreg_len: f64,
    /// Effective startup (dead cycles) per stripmined vector loop chunk,
    /// expressed in element-slots; drives short-vector efficiency.
    pub startup_slots: f64,
    /// Scalar unit peak as a fraction of vector peak (1/8 on ES/SX-8; the
    /// X1's 400 MHz 2-way scalar core is ~1/16 of MSP peak, 1/4 of SSP).
    pub scalar_frac: f64,
    /// Gather/scatter bandwidth as a fraction of STREAM bandwidth
    /// (ES FPLRAM ≈ 0.5; SX-8 DDR2-SDRAM ≈ 0.25 — the paper blames exactly
    /// this for GTC's modest SX-8 speedup; X1 ≈ 0.33 helped by the E-cache).
    pub gather_bw_frac: f64,
    /// Cache capacity in bytes (X1/X1E 2 MB E-cache; 0 on ES/SX-8).
    pub cache_bytes: f64,
    /// Number of independent streams the MSP must extract: in MSP mode the
    /// compiler splits the vector loop across 4 SSPs, so very short loops
    /// lose efficiency twice. 4.0 for MSP-mode platforms, 1.0 otherwise.
    pub msp_ways: f64,
    /// Fraction of nominally vectorizable work that the multi-streaming
    /// compiler serializes (X1-specific; near zero on ES/SX-8 whose
    /// compilers only vectorize).
    pub stream_serial_frac: f64,
    /// Sustained fraction of the scalar unit's peak on the non-vectorized
    /// remainder (simple in-order scalar cores on ES/SX-8 sustain ~12 %;
    /// the X1's out-of-order 2-way core with caches does better).
    pub scalar_ilp: f64,
}

/// One evaluated machine: Table 1 measurements plus model constants.
#[derive(Clone, Copy, Debug)]
pub struct Platform {
    /// Which machine this is.
    pub id: PlatformId,
    /// Processor clock in MHz (Table 1).
    pub clock_mhz: f64,
    /// Peak double-precision rate per processor in Gflop/s (Table 1).
    pub peak_gflops: f64,
    /// Measured EP-STREAM triad bandwidth per CPU in GB/s (Table 1).
    pub stream_bw_gbps: f64,
    /// Network measurements and topology, and the processors per SMP
    /// node (Table 1).
    pub net: NetworkParams,
    /// Microarchitecture model.
    pub arch: Arch,
}

impl Platform {
    /// Looks up the descriptor for `id`.
    pub fn get(id: PlatformId) -> Platform {
        match id {
            PlatformId::Power3 => POWER3,
            PlatformId::Itanium2 => ITANIUM2,
            PlatformId::Opteron => OPTERON,
            PlatformId::X1Msp => X1_MSP,
            PlatformId::X1Ssp => X1_SSP,
            PlatformId::X1e => X1E,
            PlatformId::Es => ES,
            PlatformId::Sx8 => SX8,
        }
    }

    /// All platform descriptors in table order.
    pub fn all() -> Vec<Platform> {
        PlatformId::ALL.iter().map(|&id| Platform::get(id)).collect()
    }

    /// Bytes/flop balance (the "Peak Stream" column of Table 1).
    pub fn bytes_per_flop(&self) -> f64 {
        self.stream_bw_gbps / self.peak_gflops
    }
}

/// IBM Power3 (Seaborg). Table 1 row 1. 375 MHz × 4 flops/cycle = 1.5
/// Gflop/s peak; 0.4 GB/s STREAM per CPU when all 16 CPUs compete.
pub const POWER3: Platform = Platform {
    id: PlatformId::Power3,
    clock_mhz: 375.0,
    peak_gflops: 1.5,
    stream_bw_gbps: 0.4,
    net: NetworkParams {
        latency_us: 16.3,
        bw_gbps: 0.13,
        cpus_per_node: 16,
        intranode_bw_gbps: 0.4,
        topology: Topology::FatTree,
    },
    arch: Arch::Superscalar(SuperscalarParams {
        dense_ilp: 0.72,
        sparse_ilp: 0.11,
        cache_bytes: 8.0e6,
        gather_bw_frac: 0.35,
        prefetch_streams: 8.0,
        cached_gather_ns: 18.0,
    }),
};

/// Intel Itanium2 (Thunder). 1.4 GHz × 4 = 5.6 Gflop/s.
pub const ITANIUM2: Platform = Platform {
    id: PlatformId::Itanium2,
    clock_mhz: 1400.0,
    peak_gflops: 5.6,
    stream_bw_gbps: 1.1,
    net: NetworkParams {
        latency_us: 3.0,
        bw_gbps: 0.25,
        cpus_per_node: 4,
        intranode_bw_gbps: 1.1,
        topology: Topology::FatTree,
    },
    arch: Arch::Superscalar(SuperscalarParams {
        dense_ilp: 0.60,
        sparse_ilp: 0.075,
        cache_bytes: 4.0e6,
        // FP loads bypass L1 on Itanium2 — register spills and irregular
        // accesses hit L2/L3, degrading gathers more than on the others.
        gather_bw_frac: 0.25,
        prefetch_streams: 8.0,
        cached_gather_ns: 6.8,
    }),
};

/// AMD Opteron (Jacquard). 2.2 GHz × 2 (SSE2) = 4.4 Gflop/s.
pub const OPTERON: Platform = Platform {
    id: PlatformId::Opteron,
    clock_mhz: 2200.0,
    peak_gflops: 4.4,
    stream_bw_gbps: 2.3,
    net: NetworkParams {
        latency_us: 6.0,
        bw_gbps: 0.59,
        cpus_per_node: 2,
        intranode_bw_gbps: 2.3,
        topology: Topology::FatTree,
    },
    arch: Arch::Superscalar(SuperscalarParams {
        // No FMA and SSE pairing constraints cap dense kernels lower than
        // the FMA machines (paper §6.1).
        dense_ilp: 0.50,
        sparse_ilp: 0.145,
        cache_bytes: 1.0e6,
        // On-chip memory controller: low-latency random access.
        gather_bw_frac: 0.45,
        prefetch_streams: 16.0,
        cached_gather_ns: 4.0,
    }),
};

/// Cray X1, MSP mode: 4 SSPs ganged by the multistreaming compiler.
pub const X1_MSP: Platform = Platform {
    id: PlatformId::X1Msp,
    clock_mhz: 800.0,
    peak_gflops: 12.8,
    stream_bw_gbps: 14.9,
    net: NetworkParams {
        latency_us: 7.1,
        bw_gbps: 6.3,
        cpus_per_node: 4,
        intranode_bw_gbps: 14.9,
        topology: Topology::Hypercube4D,
    },
    arch: Arch::Vector(VectorParams {
        vreg_len: 64.0,
        startup_slots: 40.0,
        // One 400 MHz 2-way scalar core serves the whole 12.8 Gflop/s MSP.
        scalar_frac: 0.0625,
        gather_bw_frac: 0.33,
        cache_bytes: 2.0e6,
        msp_ways: 4.0,
        stream_serial_frac: 0.05,
        scalar_ilp: 0.4,
    }),
};

/// Cray X1, SSP mode: each 3.2 Gflop/s SSP is an MPI rank; all four scalar
/// cores participate.
pub const X1_SSP: Platform = Platform {
    id: PlatformId::X1Ssp,
    clock_mhz: 800.0,
    peak_gflops: 3.2,
    stream_bw_gbps: 3.725, // quarter of the node's 14.9 GB/s
    net: NetworkParams {
        latency_us: 7.1,
        bw_gbps: 1.575,
        cpus_per_node: 16,
        intranode_bw_gbps: 3.725,
        topology: Topology::Hypercube4D,
    },
    arch: Arch::Vector(VectorParams {
        vreg_len: 64.0,
        startup_slots: 40.0,
        scalar_frac: 0.25,
        gather_bw_frac: 0.33,
        cache_bytes: 0.5e6,
        msp_ways: 1.0,
        stream_serial_frac: 0.0,
        scalar_ilp: 0.4,
    }),
};

/// Cray X1E (MSP mode). 41% higher clock, halved per-MSP memory and network
/// bandwidth shares (two MSPs per MCM, nodes share ports).
pub const X1E: Platform = Platform {
    id: PlatformId::X1e,
    clock_mhz: 1130.0,
    peak_gflops: 18.0,
    stream_bw_gbps: 9.7,
    net: NetworkParams {
        latency_us: 5.0,
        bw_gbps: 2.9,
        cpus_per_node: 4,
        intranode_bw_gbps: 9.7,
        topology: Topology::Hypercube4D,
    },
    arch: Arch::Vector(VectorParams {
        vreg_len: 64.0,
        startup_slots: 40.0,
        scalar_frac: 0.0625,
        gather_bw_frac: 0.33,
        cache_bytes: 2.0e6,
        msp_ways: 4.0,
        stream_serial_frac: 0.05,
        scalar_ilp: 0.4,
    }),
};

/// Earth Simulator: 8 Gflop/s SX-6-derived CPUs, FPLRAM main memory,
/// single-stage 640×640 crossbar.
pub const ES: Platform = Platform {
    id: PlatformId::Es,
    clock_mhz: 1000.0,
    peak_gflops: 8.0,
    stream_bw_gbps: 26.3,
    net: NetworkParams {
        latency_us: 5.6,
        bw_gbps: 1.5,
        cpus_per_node: 8,
        intranode_bw_gbps: 26.3,
        topology: Topology::Crossbar,
    },
    arch: Arch::Vector(VectorParams {
        vreg_len: 256.0,
        startup_slots: 25.0,
        scalar_frac: 0.125,
        // Specialized FPLRAM keeps bank-conflict overhead low on random
        // access — the paper credits exactly this for GTC's 24 % of peak.
        gather_bw_frac: 0.20,
        cache_bytes: 0.0,
        msp_ways: 1.0,
        stream_serial_frac: 0.0,
        scalar_ilp: 0.12,
    }),
};

/// NEC SX-8: 16 Gflop/s CPUs, commodity DDR2-SDRAM, IXS network.
pub const SX8: Platform = Platform {
    id: PlatformId::Sx8,
    clock_mhz: 2000.0,
    peak_gflops: 16.0,
    stream_bw_gbps: 41.0,
    net: NetworkParams {
        latency_us: 5.0,
        bw_gbps: 2.0,
        cpus_per_node: 8,
        intranode_bw_gbps: 41.0,
        topology: Topology::Ixs,
    },
    arch: Arch::Vector(VectorParams {
        vreg_len: 256.0,
        startup_slots: 25.0,
        scalar_frac: 0.125,
        // DDR2-SDRAM: random-access speed did not scale with peak
        // (paper §4.2 — "the speed for random memory accesses has not been
        // scaled accordingly").
        gather_bw_frac: 0.17,
        cache_bytes: 0.0,
        msp_ways: 1.0,
        stream_serial_frac: 0.0,
        scalar_ilp: 0.12,
    }),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_parse_accepts_labels_and_aliases() {
        for id in PlatformId::ALL {
            assert_eq!(PlatformId::parse(id.label()), Some(id), "{}", id.label());
        }
        assert_eq!(PlatformId::parse("x1msp"), Some(PlatformId::X1Msp));
        assert_eq!(PlatformId::parse("X1-SSP"), Some(PlatformId::X1Ssp));
        assert_eq!(PlatformId::parse("x1e (msp)"), Some(PlatformId::X1e));
        assert_eq!(PlatformId::parse("sx8"), Some(PlatformId::Sx8));
        assert_eq!(PlatformId::parse("es"), Some(PlatformId::Es));
        assert_eq!(PlatformId::parse("POWER3"), Some(PlatformId::Power3));
        assert_eq!(PlatformId::parse("cray t3e"), None);
        assert_eq!(PlatformId::parse(""), None);
        assert_eq!(PlatformId::parse("()"), None);
    }

    #[test]
    fn table1_bytes_per_flop_ratios() {
        // The "Peak Stream (Bytes/Flop)" column of Table 1.
        let cases = [
            (PlatformId::Power3, 0.26),
            (PlatformId::Itanium2, 0.19),
            (PlatformId::Opteron, 0.51),
            (PlatformId::X1Msp, 1.16),
            (PlatformId::X1e, 0.54),
            (PlatformId::Es, 3.29),
            (PlatformId::Sx8, 2.56),
        ];
        for (id, want) in cases {
            let got = Platform::get(id).bytes_per_flop();
            assert!((got - want).abs() < 0.02, "{id:?}: bytes/flop {got:.3} vs paper {want}");
        }
    }

    #[test]
    fn vector_scalar_split_is_consistent() {
        for p in Platform::all() {
            match p.arch {
                Arch::Vector(v) => {
                    assert!(v.vreg_len >= 64.0);
                    assert!(v.scalar_frac > 0.0 && v.scalar_frac <= 0.25, "{:?}", p.id);
                }
                Arch::Superscalar(s) => {
                    assert!(s.dense_ilp > s.sparse_ilp, "{:?}", p.id);
                }
            }
        }
    }

    #[test]
    fn msp_mode_is_four_ssps() {
        assert!((X1_MSP.peak_gflops - 4.0 * X1_SSP.peak_gflops).abs() < 1e-12);
        assert!((X1_MSP.stream_bw_gbps - 4.0 * X1_SSP.stream_bw_gbps).abs() < 1e-12);
    }

    #[test]
    fn es_has_highest_memory_balance() {
        let es = Platform::get(PlatformId::Es).bytes_per_flop();
        for p in Platform::all() {
            if p.id != PlatformId::Es {
                assert!(p.bytes_per_flop() <= es, "{:?}", p.id);
            }
        }
    }

    #[test]
    fn sx8_random_access_is_slower_than_es_in_relative_terms() {
        let (es, sx8) = (ES, SX8);
        let (Arch::Vector(esv), Arch::Vector(sxv)) = (es.arch, sx8.arch) else {
            panic!("ES/SX-8 must be vector platforms");
        };
        // Absolute random-access bandwidth barely grew from ES FPLRAM to
        // SX-8 DDR2 (paper §4.2); relative to peak the ES is far ahead —
        // the paper's GTC story.
        let es_rel = es.stream_bw_gbps * esv.gather_bw_frac / es.peak_gflops;
        let sx_rel = sx8.stream_bw_gbps * sxv.gather_bw_frac / sx8.peak_gflops;
        assert!(es_rel > 1.4 * sx_rel);
    }

    #[test]
    fn labels_and_lookup_are_total() {
        for id in PlatformId::ALL {
            let p = Platform::get(id);
            assert_eq!(p.id, id);
            assert!(!id.label().is_empty());
            assert!(p.peak_gflops > 0.0 && p.stream_bw_gbps > 0.0);
        }
    }
}
