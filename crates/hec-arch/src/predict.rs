//! The performance evaluator: workload profile × platform → predicted time.
//!
//! The model follows the paper's own explanatory vocabulary:
//!
//! * **Vector machines** overlap pipelined vector arithmetic with memory
//!   streams (`max(t_vector, t_memory)`), pay Amdahl's law on the
//!   non-vectorizable remainder through a slow scalar unit, lose efficiency
//!   on short vector loops (stripmine startup), and pay an extra penalty for
//!   gather/scatter depending on the memory technology (FPLRAM vs
//!   DDR2-SDRAM vs the X1's E-cache path).
//! * **Superscalar machines** are roofline-limited: sustained ILP on the
//!   compute side (higher for cache-blocked dense kernels, low for branchy
//!   stencil/particle code), cache-filtered STREAM bandwidth on the memory
//!   side, with prefetch-stream limits for many-stream kernels and a
//!   cache-line penalty for gathers.
//! * **Network** time comes from `hec-net`'s Hockney models applied to the
//!   communication events the applications actually performed.

use hec_net::{collectives, NetworkModel};

use crate::platforms::{Arch, Platform, SuperscalarParams, VectorParams};
use crate::profile::{CommEvent, PhaseProfile, WorkloadProfile};

/// Predicted time decomposition for one timestep on one processor.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Arithmetic time not hidden behind memory (vector or superscalar).
    pub compute_secs: f64,
    /// Memory time not hidden behind arithmetic.
    pub memory_secs: f64,
    /// Non-vectorizable (scalar-unit) time — vector machines only.
    pub scalar_secs: f64,
    /// Communication time.
    pub network_secs: f64,
    /// Per-phase totals, for diagnostics (same order as the workload).
    pub phase_secs: Vec<f64>,
}

impl TimeBreakdown {
    /// Total predicted wall-clock per step.
    pub fn total(&self) -> f64 {
        self.compute_secs + self.memory_secs + self.scalar_secs + self.network_secs
    }
}

/// Result of evaluating a workload on a platform.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// The time decomposition.
    pub breakdown: TimeBreakdown,
    /// Sustained Gflop/s per processor ("Gflop/P" in the tables).
    pub gflops_per_proc: f64,
    /// Percentage of the platform's peak rate.
    pub percent_of_peak: f64,
}

/// Evaluates `workload` on `platform`, returning the paper's two headline
/// metrics plus the full time decomposition.
pub fn predict(platform: &Platform, workload: &WorkloadProfile) -> Prediction {
    let mut bd = TimeBreakdown::default();
    for phase in &workload.phases {
        let (comp, mem, scalar) = match platform.arch {
            Arch::Vector(v) => vector_phase(platform, &v, phase),
            Arch::Superscalar(s) => superscalar_phase(platform, &s, phase),
        };
        bd.compute_secs += comp;
        bd.memory_secs += mem;
        bd.scalar_secs += scalar;
        bd.phase_secs.push(comp + mem + scalar);
    }

    let net = NetworkModel::new(platform.net, workload.job_procs);
    for ev in &workload.comm {
        bd.network_secs += comm_event_secs(&net, ev);
    }

    let total = bd.total().max(1e-30);
    let gflops = workload.total_flops() / total / 1e9;
    Prediction {
        gflops_per_proc: gflops,
        percent_of_peak: 100.0 * gflops / platform.peak_gflops,
        breakdown: bd,
    }
}

/// Vector efficiency of a stripmined loop of trip count `l` on registers of
/// length `r` with `startup` dead slots per chunk. `ways` is the MSP
/// multistreaming width and `outer` the number of independent loop
/// instances: with enough outer parallelism the compiler streams the outer
/// loops and the vector length is untouched; otherwise it must split the
/// vector loop itself (the short-loop penalty the paper's §7 discusses).
fn stripmine_efficiency(l: f64, r: f64, startup: f64, ways: f64, outer: f64) -> f64 {
    if l <= 0.0 {
        return 0.05; // degenerate: nothing vectorizes
    }
    let split = if outer >= ways { 1.0 } else { (ways / outer.max(1.0)).min(ways) };
    let per_way = (l / split).max(1.0);
    let chunks = (per_way / r).ceil();
    // A vector operation on a partially-filled register takes time
    // proportional to the elements processed, so the only waste is the
    // per-chunk startup (pipeline fill + issue overhead).
    per_way / (per_way + chunks * startup)
}

/// Fraction of cacheable traffic a cache of `cache_bytes` actually captures
/// given the phase's working set.
fn cache_capture(cacheable: f64, working_set: f64, cache_bytes: f64) -> f64 {
    if cache_bytes <= 0.0 || cacheable <= 0.0 {
        return 0.0;
    }
    if working_set <= 0.0 {
        return cacheable;
    }
    // Smooth roll-off: full capture while the working set fits, decaying as
    // it spills (classic cache-miss knee).
    let fit = (cache_bytes / working_set).min(1.0);
    cacheable * fit.powf(0.5)
}

fn vector_phase(p: &Platform, v: &VectorParams, ph: &PhaseProfile) -> (f64, f64, f64) {
    let peak = p.peak_gflops * 1e9;
    let bw = p.stream_bw_gbps * 1e9;

    // Multistreaming serializes a slice of the nominally-vector work (X1) —
    // less of it for regular, library-grade kernels.
    let serial = v.stream_serial_frac * (1.0 - ph.dense_fraction);
    let vec_frac = (ph.vector_fraction * (1.0 - serial)).clamp(0.0, 1.0);
    let vec_flops = ph.flops * vec_frac;
    let scalar_flops = ph.flops - vec_flops;

    let eff = stripmine_efficiency(
        ph.avg_vector_length,
        v.vreg_len,
        v.startup_slots,
        v.msp_ways,
        ph.outer_parallelism,
    );
    let t_vec = vec_flops / (peak * eff);

    // E-cache (X1/X1E) absorbs temporally-local traffic.
    let captured = cache_capture(ph.cacheable_fraction, ph.working_set_bytes, v.cache_bytes);
    let unit_bytes = ph.unit_stride_bytes * (1.0 - captured);
    let t_mem = unit_bytes / bw + ph.gather_scatter_bytes / (bw * v.gather_bw_frac);

    // Vector pipelines overlap arithmetic with memory streams; the scalar
    // remainder serializes behind both (Amdahl), running on the scalar
    // unit at its own sustained fraction of its (already small) peak.
    let overlap = t_vec.max(t_mem);
    let t_scalar = scalar_flops / (peak * v.scalar_frac * v.scalar_ilp);
    if t_vec >= t_mem {
        (overlap, 0.0, t_scalar)
    } else {
        (0.0, overlap, t_scalar)
    }
}

fn superscalar_phase(p: &Platform, s: &SuperscalarParams, ph: &PhaseProfile) -> (f64, f64, f64) {
    let peak = p.peak_gflops * 1e9;
    let bw = p.stream_bw_gbps * 1e9;

    // Sustained ILP interpolates between branchy/streaming code and
    // register-blocked dense kernels (PARATEC's ZGEMMs sit near dense_ilp,
    // stencil/particle loops near sparse_ilp).
    let ilp = s.sparse_ilp + (s.dense_ilp - s.sparse_ilp) * ph.dense_fraction;
    let t_comp = ph.flops / (peak * ilp);

    let captured = cache_capture(ph.cacheable_fraction, ph.working_set_bytes, s.cache_bytes);
    // Prefetch engines track a limited number of streams; beyond that,
    // effective bandwidth decays (LBMHD's 100+ streams).
    let stream_eff = (s.prefetch_streams / ph.concurrent_streams.max(1.0)).min(1.0).powf(0.3);
    let unit_bytes = ph.unit_stride_bytes * (1.0 - captured);

    // Gathers split into cache-resident (cheap but latency-bound — the
    // dependent-load cost of GTC's deposition even when the grid fits in
    // cache) and memory-resident (a cache line per element).
    let fit = if ph.working_set_bytes > 0.0 {
        (s.cache_bytes / ph.working_set_bytes).min(1.0)
    } else {
        1.0
    };
    let gs_elems = ph.gather_scatter_bytes / 8.0;
    let t_gs = gs_elems * fit * s.cached_gather_ns * 1e-9
        + ph.gather_scatter_bytes * (1.0 - fit) / (bw * s.gather_bw_frac);
    let t_mem = unit_bytes / (bw * stream_eff) + t_gs;

    // Out-of-order windows overlap compute and memory only partially; the
    // roofline max is the right first-order model (hardware prefetch hides
    // latency, not bandwidth).
    let t = t_comp.max(t_mem);
    if t_comp >= t_mem {
        (t, 0.0, 0.0)
    } else {
        (0.0, t, 0.0)
    }
}

fn comm_event_secs(net: &NetworkModel, ev: &CommEvent) -> f64 {
    match *ev {
        CommEvent::Halo { bytes, neighbors } => net.halo_secs(bytes as usize, neighbors as usize),
        CommEvent::Allreduce { bytes, procs } => {
            collectives::allreduce_secs(net, procs as usize, bytes as usize)
        }
        CommEvent::Transpose { bytes_per_rank, procs } => {
            collectives::transpose_secs(net, procs as usize, bytes_per_rank as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms::{PlatformId, ES, OPTERON, POWER3, SX8, X1_MSP};

    fn streaming_phase(flops: f64, bytes: f64) -> PhaseProfile {
        let mut ph = PhaseProfile::new("stream");
        ph.flops = flops;
        ph.unit_stride_bytes = bytes;
        ph.avg_vector_length = 256.0;
        ph.vector_fraction = 1.0;
        ph.concurrent_streams = 3.0;
        ph
    }

    #[test]
    fn stream_triad_reaches_platform_bandwidth() {
        // A pure triad (2 flops / 24 bytes) must be memory-bound everywhere,
        // and the model must reproduce exactly BW × intensity.
        for p in [POWER3, OPTERON, ES, SX8] {
            let mut w = WorkloadProfile::new("triad", 1);
            let n = 1e7;
            w.phases.push(streaming_phase(2.0 * n, 24.0 * n));
            let pred = predict(&p, &w);
            let want = p.stream_bw_gbps * (2.0 / 24.0);
            assert!(
                (pred.gflops_per_proc - want).abs() < 0.15 * want,
                "{:?}: {} vs {}",
                p.id,
                pred.gflops_per_proc,
                want
            );
        }
    }

    #[test]
    fn dense_kernel_approaches_peak_on_superscalar() {
        // A cache-blocked GEMM should reach dense_ilp × peak on Power3
        // (the paper's PARATEC observation: >60 % of peak via ESSL).
        let mut w = WorkloadProfile::new("gemm", 1);
        let mut ph = PhaseProfile::new("dgemm");
        ph.flops = 1e9;
        ph.unit_stride_bytes = 1e7;
        ph.cacheable_fraction = 0.95;
        ph.dense_fraction = 0.95;
        ph.working_set_bytes = 1e5; // blocked: fits in cache
        ph.concurrent_streams = 3.0;
        w.phases.push(ph);
        let pred = predict(&POWER3, &w);
        assert!(
            pred.percent_of_peak > 55.0 && pred.percent_of_peak < 75.0,
            "{}",
            pred.percent_of_peak
        );
    }

    #[test]
    fn long_vectors_beat_short_vectors() {
        let mk = |vl: f64| {
            let mut w = WorkloadProfile::new("x", 1);
            let mut ph = streaming_phase(1e9, 1e8);
            ph.avg_vector_length = vl;
            w.phases.push(ph);
            w
        };
        let long = predict(&ES, &mk(256.0)).gflops_per_proc;
        let short = predict(&ES, &mk(16.0)).gflops_per_proc;
        assert!(long > 1.5 * short, "long {long} short {short}");
    }

    #[test]
    fn scalar_fraction_murders_vector_performance() {
        // Amdahl: 30 % scalar work on a 1/8-speed scalar unit.
        let mk = |vf: f64| {
            let mut w = WorkloadProfile::new("x", 1);
            let mut ph = streaming_phase(1e9, 1e6);
            ph.vector_fraction = vf;
            w.phases.push(ph);
            w
        };
        let vec = predict(&ES, &mk(1.0)).percent_of_peak;
        let half = predict(&ES, &mk(0.7)).percent_of_peak;
        assert!(vec > 2.0 * half, "{vec} vs {half}");
    }

    #[test]
    fn gather_heavy_code_prefers_es_over_sx8_relatively() {
        // GTC-like: random access dominates. ES must sustain a higher
        // fraction of peak than the SX-8 (paper Table 4: 20-24 % vs 14-15 %).
        let mut w = WorkloadProfile::new("gtc-ish", 1);
        let mut ph = streaming_phase(1e9, 2e8);
        ph.gather_scatter_bytes = 4e9;
        w.phases.push(ph);
        let es = predict(&ES, &w).percent_of_peak;
        let sx8 = predict(&SX8, &w).percent_of_peak;
        assert!(es > sx8, "ES {es} vs SX-8 {sx8}");
    }

    #[test]
    fn network_time_appears_for_multirank_jobs() {
        let mut w = WorkloadProfile::new("x", 64);
        w.phases.push(streaming_phase(1e6, 1e5));
        w.comm.push(CommEvent::Allreduce { bytes: 1024.0, procs: 64.0 });
        let pred = predict(&X1_MSP, &w);
        assert!(pred.breakdown.network_secs > 0.0);
    }

    #[test]
    fn vector_platforms_dominate_streaming_kernels() {
        // The LBMHD story: vector machines outrun every superscalar by a
        // wide margin on long-vector streaming code.
        let mut w = WorkloadProfile::new("lbmhd-ish", 16);
        let mut ph = streaming_phase(1.3e9, 1.7e9);
        ph.concurrent_streams = 100.0;
        w.phases.push(ph);
        let best_scalar =
            [POWER3, OPTERON].iter().map(|p| predict(p, &w).gflops_per_proc).fold(0.0, f64::max);
        for v in [ES, SX8, X1_MSP] {
            let g = predict(&v, &w).gflops_per_proc;
            assert!(g > 2.5 * best_scalar, "{:?}: {} vs {}", v.id, g, best_scalar);
        }
    }

    #[test]
    fn breakdown_total_matches_prediction() {
        let mut w = WorkloadProfile::new("x", 8);
        w.phases.push(streaming_phase(1e8, 1e7));
        w.comm.push(CommEvent::Halo { bytes: 8192.0, neighbors: 6.0 });
        for id in PlatformId::ALL {
            let p = Platform::get(id);
            let pred = predict(&p, &w);
            let g = w.total_flops() / pred.breakdown.total() / 1e9;
            assert!((g - pred.gflops_per_proc).abs() < 1e-9);
        }
    }

    #[test]
    fn stripmine_efficiency_bounds() {
        for &(l, r, s, w) in
            &[(256.0, 256.0, 25.0, 1.0), (64.0, 64.0, 40.0, 4.0), (3.0, 256.0, 25.0, 1.0)]
        {
            let e = stripmine_efficiency(l, r, s, w, f64::INFINITY);
            assert!(e > 0.0 && e <= 1.0, "eff({l},{r},{s},{w}) = {e}");
        }
        // Longer loops are never less efficient.
        let e_long = stripmine_efficiency(1024.0, 256.0, 25.0, 1.0, f64::INFINITY);
        let e_short = stripmine_efficiency(32.0, 256.0, 25.0, 1.0, f64::INFINITY);
        assert!(e_long > e_short);
        // Without outer parallelism, multistreaming splits the vector loop.
        let e_outer = stripmine_efficiency(64.0, 64.0, 40.0, 4.0, f64::INFINITY);
        let e_inner = stripmine_efficiency(64.0, 64.0, 40.0, 4.0, 1.0);
        assert!(e_outer > e_inner);
    }
}
