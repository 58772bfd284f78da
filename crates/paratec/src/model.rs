//! Workload model for Table 6's configurations.
//!
//! Table 6 runs 3 CG steps of a 488-atom CdSe quantum dot (35 Ry cutoff) —
//! "the largest cell size atomistic simulation ever run with this code."
//! The production dimensions below are representative of that system; the
//! phase *mix* (dominant BLAS3, significant FFT, a handwritten remainder
//! with a lower vector-operation ratio, and all-to-all transposes growing
//! with concurrency) is what drives every observation the paper makes
//! about PARATEC. [`measured_workload`] takes the library phases' flops
//! from the real mini-app's instrumentation and writes the rest in
//! closed form.

use std::sync::OnceLock;

use hec_arch::capture::{recorded, Extensive};
use hec_arch::{CommEvent, PhaseProfile, WorkloadProfile};
use hec_core::probe::{self, Capture};
use kernels::Complex64;

use crate::basis::GSphere;
use crate::fftdist::DistFft;
use crate::hamiltonian::Hamiltonian;
use crate::solver::{initial_guess, overlap_matrix};

/// Production problem dimensions for the 488-atom CdSe dot.
pub mod cdse488 {
    /// Dense FFT grid points (≈250³).
    pub const GRID_POINTS: f64 = 250.0 * 250.0 * 250.0;
    /// Plane waves per band (35 Ry sphere).
    pub const NG: f64 = 1.0e6;
    /// Electronic bands.
    pub const NBANDS: f64 = 2200.0;
    /// Effective nonlocal projectors.
    pub const NPROJ: f64 = 1000.0;
    /// Bands whose FFTs share one transpose message batch.
    pub const FFT_BATCH: f64 = 32.0;
}

/// The processor counts of paper Table 6.
pub const TABLE6_CONFIGS: [usize; 6] = [64, 128, 256, 512, 1024, 2048];

/// The two instrumented calibration runs the measured Table 6 path is
/// built from. Separate captures keep the unit bookkeeping honest: the
/// `fft` capture wraps *exactly one* forward+inverse transform pair (so
/// the pair count is known), while `gemm` wraps one Hamiltonian apply
/// plus one subspace overlap (the two ZGEMM families).
pub struct Calibration {
    /// One `to_real_space` + `to_fourier_space` round trip on a small
    /// sphere over 2 ranks.
    pub fft: Capture,
    /// One `Hamiltonian::apply` (nonlocal ZGEMMs) + one `overlap_matrix`
    /// (subspace ZGEMM) on the same sphere.
    pub gemm: Capture,
}

/// Runs both calibration captures once, cached process-wide.
pub fn calibration() -> &'static Calibration {
    static CAL: OnceLock<Calibration> = OnceLock::new();
    CAL.get_or_init(|| {
        let (_, fft) = probe::capture(|| {
            msim::run(2, |comm| {
                let sphere = GSphere::build(8, 8, 8, 4.0);
                let mut fft = DistFft::new(sphere, comm.rank(), comm.size());
                let coeffs = vec![Complex64::ONE; fft.local_ng()];
                let slab = fft.to_real_space(comm, &coeffs);
                let _ = fft.to_fourier_space(comm, &slab);
            })
            .expect("PARATEC FFT calibration run failed");
        });
        let (_, gemm) = probe::capture(|| {
            msim::run(2, |comm| {
                let sphere = GSphere::build(8, 8, 8, 4.0);
                let fft = DistFft::new(sphere, comm.rank(), comm.size());
                let mut h = Hamiltonian::model(fft, 4, 1.0);
                let (ng, nbands) = (h.ng(), 3);
                let psi = initial_guess(ng, nbands, comm.rank());
                let _ = h.apply(comm, &psi, nbands);
                let _ = overlap_matrix(comm, &psi, nbands, ng);
            })
            .expect("PARATEC ZGEMM calibration run failed");
        });
        Calibration { fft, gemm }
    })
}

/// Workload profile for one CG step of the CdSe-488 problem on `procs`
/// processors. The library phases' flops are measured rates from
/// [`calibration`], rescaled to the CdSe-488 dimensions; everything else
/// is closed form.
///
/// Only flops are measured, deliberately: the byte fields follow the
/// *blocked* algorithm's panel-traffic convention (§2.1 counters would
/// report the no-cache streaming traffic, ~3 orders of magnitude more for
/// ZGEMM). The FFT is rescaled in dense-equivalent units — `2 · 5 N log₂ N`
/// per transform pair — so the sparse z-stage deficit the counters
/// measured on the calibration sphere carries over to the production
/// estimate. The handwritten remainder is a fixed fraction of the
/// measured library flops.
pub fn measured_workload(procs: usize) -> WorkloadProfile {
    use cdse488::*;
    let p = procs as f64;
    let cal = calibration();

    // --- 3D FFTs: two per band per H-apply, 5 N log₂ N each, spread over P.
    let n_c = (8 * 8 * 8) as f64;
    let m = Extensive::rescale(
        &recorded(&cal.fft, "paratec/3D FFTs"),
        NBANDS * 2.0 * 5.0 * GRID_POINTS * GRID_POINTS.log2() / p,
        2.0 * 5.0 * n_c * n_c.log2(),
    );
    let fft = PhaseProfile {
        name: "3D FFTs".into(),
        flops: m.flops,
        // Each FFT pass streams the grid a handful of times.
        unit_stride_bytes: NBANDS * 2.0 * 3.0 * 2.0 * 16.0 * GRID_POINTS / p,
        gather_scatter_bytes: 0.0,
        vector_fraction: 0.985,
        // Pencil length ~ grid edge; vectorized across pencils.
        avg_vector_length: 250.0,
        cacheable_fraction: 0.55, // 1D lines are cache-resident
        dense_fraction: 0.7,      // library-grade (ESSL-class) transforms
        working_set_bytes: 250.0 * 16.0 * 2.0,
        concurrent_streams: 4.0,
        outer_parallelism: f64::INFINITY,
    };

    // --- BLAS3: nonlocal projectors + subspace orthogonalization. The two
    // ZGEMM families share a phase; merge their counters. The calibration
    // unit is complex mnk (`vector_iters`).
    let mut g = recorded(&cal.gemm, "paratec/nonlocal zgemm");
    g.merge(&recorded(&cal.gemm, "paratec/subspace zgemm"));
    let target_mnk = (2.0 * NPROJ * NBANDS + NBANDS * NBANDS) * NG / p;
    let m = Extensive::rescale(&g, target_mnk, g.vector_iters as f64);
    let gemm = PhaseProfile {
        name: "ZGEMM (nonlocal + subspace)".into(),
        flops: m.flops,
        // Blocked: traffic is the matrix panels, heavily reused.
        unit_stride_bytes: 16.0 * (NBANDS * NG / p) * 6.0,
        gather_scatter_bytes: 0.0,
        vector_fraction: 0.995,
        avg_vector_length: 256.0,
        cacheable_fraction: 0.95,
        dense_fraction: 0.95,
        working_set_bytes: 48.0 * 48.0 * 16.0 * 3.0,
        concurrent_streams: 3.0,
        outer_parallelism: f64::INFINITY,
    };

    // --- Handwritten F90 remainder (paper §6.1: the segment whose "lower
    // vector operation ratio" drags the X1 down): preconditioning,
    // residual updates, diagnostics.
    let other = PhaseProfile {
        name: "handwritten F90 remainder".into(),
        flops: 0.12 * (fft.flops + gemm.flops),
        unit_stride_bytes: 16.0 * 4.0 * NBANDS * NG / p,
        gather_scatter_bytes: 0.0,
        vector_fraction: 0.97,
        avg_vector_length: (NG / p).clamp(8.0, 256.0),
        cacheable_fraction: 0.15,
        dense_fraction: 0.3,
        working_set_bytes: 16.0 * NG / p,
        concurrent_streams: 6.0,
        outer_parallelism: f64::INFINITY,
    };

    // --- Communication: the FFT transposes (all-to-all), batched over
    // bands, plus the projection/overlap allreduces.
    let transposes = (NBANDS * 2.0 / FFT_BATCH).ceil() as usize;
    let bytes_per_rank_per_batch = FFT_BATCH * 16.0 * GRID_POINTS / p;
    let mut comm = vec![
        CommEvent::Transpose { bytes_per_rank: bytes_per_rank_per_batch, procs: p };
        transposes
    ];
    comm.push(CommEvent::Allreduce { bytes: 16.0 * NBANDS * NPROJ / 8.0, procs: p });
    comm.push(CommEvent::Allreduce { bytes: 16.0 * NBANDS * NBANDS / 8.0, procs: p });
    WorkloadProfile {
        app: "PARATEC".into(),
        job_procs: procs,
        phases: vec![fft, gemm, other],
        comm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fftdist::slab_len;

    /// Analytic bytes one rank sends in a single forward (or inverse)
    /// distributed transform — must match `DistFft::transpose_bytes` exactly.
    fn transpose_bytes_one_way(sphere: &GSphere, rank: usize, nprocs: usize) -> u64 {
        let assignment = sphere.balance(nprocs);
        let ncols = assignment[rank].len() as u64;
        let mut bytes = 0u64;
        for p in 0..nprocs {
            if p == rank {
                continue;
            }
            let sl = slab_len(sphere.nz, nprocs, p) as u64;
            bytes += ncols * (2 + 2 * sl) * 8;
        }
        bytes
    }

    /// The hand-counted flops of the two library phases on `procs`
    /// processors: (3D FFTs, ZGEMM).
    fn analytic_library_flops(procs: usize) -> (f64, f64) {
        use cdse488::*;
        let p = procs as f64;
        let fft = NBANDS * 2.0 * 5.0 * GRID_POINTS * GRID_POINTS.log2();
        let gemm = 8.0 * NBANDS * NPROJ * NG * 2.0 + 8.0 * NBANDS * NBANDS * NG;
        (fft / p, gemm / p)
    }

    #[test]
    fn analytic_transpose_bytes_match_instrumented_fft() {
        let sphere = GSphere::build(8, 8, 8, 5.0);
        for nprocs in [2usize, 4] {
            let s = sphere.clone();
            let measured = msim::run(nprocs, move |comm| {
                let mut fft = DistFft::new(s.clone(), comm.rank(), comm.size());
                let coeffs = vec![Complex64::ONE; fft.local_ng()];
                let _ = fft.to_real_space(comm, &coeffs);
                (comm.rank(), fft.transpose_bytes)
            })
            .unwrap();
            for (rank, bytes) in measured {
                let want = transpose_bytes_one_way(&sphere, rank, nprocs);
                assert_eq!(bytes, want, "rank {rank} of {nprocs}");
            }
        }
    }

    #[test]
    fn measured_workload_agrees_with_the_analytic_oracle() {
        let m = measured_workload(256);
        let (af, ag) = analytic_library_flops(256);
        let (mf, mg) = (m.phases[0].flops, m.phases[1].flops);
        // Both ZGEMM families measure exactly 8 flops per complex mnk, so
        // the rescaled flop count reproduces the analytic one exactly.
        assert_eq!(mg, ag);
        // The measured FFT carries the calibration sphere's sparse z-stage
        // deficit: at or below the dense-equivalent analytic count, but
        // not by much.
        assert!(mf <= af && mf > 0.7 * af, "fft flops {mf} vs analytic {af}");
        // The remainder stays the same fixed fraction of the library flops.
        let rem = m.phases[2].flops;
        assert!((rem - 0.12 * (mf + mg)).abs() <= 1e-9 * (mf + mg), "remainder {rem}");
    }

    #[test]
    fn strong_scaling_divides_compute() {
        let w64 = measured_workload(64);
        let w512 = measured_workload(512);
        let ratio = w64.total_flops() / w512.total_flops();
        assert!((ratio - 8.0).abs() < 0.01, "flops must divide by P: {ratio}");
    }

    #[test]
    fn transpose_count_is_independent_of_p() {
        let count = |p: usize| {
            measured_workload(p)
                .comm
                .iter()
                .filter(|e| matches!(e, CommEvent::Transpose { .. }))
                .count()
        };
        assert_eq!(count(64), count(2048));
    }

    #[test]
    fn gemm_dominates_but_ffts_are_significant() {
        let w = measured_workload(256);
        let f =
            |name: &str| w.phases.iter().find(|p| p.name.contains(name)).map(|p| p.flops).unwrap();
        let (fft, gemm) = (f("FFT"), f("ZGEMM"));
        assert!(gemm > fft, "BLAS3 should dominate");
        assert!(fft / w.total_flops() > 0.05, "FFTs must stay significant");
    }

    #[test]
    fn production_dimensions_are_consistent() {
        use cdse488::*;
        // Sphere must fit inside the dense grid.
        assert!(NG < GRID_POINTS);
        // A 488-atom II-VI system needs ~2k bands.
        assert!(NBANDS > 488.0 * 2.0 && NBANDS < 488.0 * 10.0);
    }
}
