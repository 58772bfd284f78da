//! All-band iterative minimization of the Kohn–Sham energy.
//!
//! PARATEC uses an all-band conjugate-gradient method; the structure that
//! matters for performance (and that this solver reproduces) is the
//! iteration body: apply H to the whole band block (FFTs + ZGEMMs),
//! precondition the residuals in Fourier space, take a step, and restore
//! orthonormality with BLAS3 (Gram overlap + correction — the "subspace"
//! ZGEMMs whose cache-friendliness gives PARATEC its high percentage of
//! peak on every platform).

use hec_core::probe::{self, Counters};
use kernels::blas::{zgemm, Trans};
use kernels::Complex64;
use msim::{Comm, ReduceOp};

use crate::hamiltonian::Hamiltonian;

/// Convergence record of one minimization.
#[derive(Clone, Debug)]
pub struct SolveStats {
    /// Rayleigh-quotient sum per iteration (decreasing).
    pub energy_history: Vec<f64>,
    /// Final band energies.
    pub band_energies: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
}

/// Distributed modified Gram–Schmidt re-orthonormalization of a band-major
/// block (each band's coefficients spread over ranks).
pub fn orthonormalize(comm: &mut Comm, psi: &mut [Complex64], nbands: usize, ng: usize) {
    for b in 0..nbands {
        // Project out earlier bands: ψ_b -= Σ_{a<b} ⟨ψ_a|ψ_b⟩ ψ_a.
        if b > 0 {
            // Overlaps via local dot products + allreduce (one ZGEMM-shaped
            // reduction in the real code; loop form keeps it readable).
            let mut ov: Vec<f64> = Vec::with_capacity(2 * b);
            for a in 0..b {
                let mut acc = Complex64::ZERO;
                for g in 0..ng {
                    acc = acc.mul_add(psi[a * ng + g].conj(), psi[b * ng + g]);
                }
                ov.push(acc.re);
                ov.push(acc.im);
            }
            comm.allreduce_f64(ReduceOp::Sum, &mut ov);
            for a in 0..b {
                let c = Complex64::new(ov[2 * a], ov[2 * a + 1]);
                for g in 0..ng {
                    let sub = psi[a * ng + g] * c;
                    psi[b * ng + g] -= sub;
                }
            }
        }
        // Normalize.
        let mut nrm = vec![(0..ng).map(|g| psi[b * ng + g].norm_sqr()).sum::<f64>()];
        comm.allreduce_f64(ReduceOp::Sum, &mut nrm);
        let inv = 1.0 / nrm[0].sqrt().max(1e-300);
        for g in 0..ng {
            psi[b * ng + g] = psi[b * ng + g].scale(inv);
        }
    }
}

/// Global overlap matrix `S[a,b] = ⟨ψ_a|ψ_b⟩` (nbands × nbands), computed
/// with a local ZGEMM and an Allreduce — the subspace BLAS3 kernel.
pub fn overlap_matrix(
    comm: &mut Comm,
    psi: &[Complex64],
    nbands: usize,
    ng: usize,
) -> Vec<Complex64> {
    // S = Ψ Ψᴴ with Ψ band-major (nbands × ng): S[a,b] = Σ_g ψ_a conj(ψ_b)…
    // we want ⟨a|b⟩ = Σ conj(ψ_a) ψ_b, i.e. conj(Ψ)·Ψᵀ.
    let psi_conj: Vec<Complex64> = psi.iter().map(|z| z.conj()).collect();
    let mut psit = vec![Complex64::ZERO; ng * nbands];
    for b in 0..nbands {
        for g in 0..ng {
            psit[g * nbands + b] = psi[b * ng + g];
        }
    }
    let mut s = vec![Complex64::ZERO; nbands * nbands];
    zgemm(
        Trans::None,
        nbands,
        nbands,
        ng,
        Complex64::ONE,
        &psi_conj,
        &psit,
        Complex64::ZERO,
        &mut s,
    );
    let (b_u, g_u) = (nbands as u64, ng as u64);
    probe::count(
        "paratec/subspace zgemm",
        Counters {
            flops: 8 * b_u * b_u * g_u,
            unit_stride_bytes: b_u * b_u * g_u * 48 + b_u * g_u * 16,
            vector_iters: b_u * b_u * g_u,
            vector_loops: 1,
            ..Default::default()
        },
    );
    let mut flat: Vec<f64> = s.iter().flat_map(|z| [z.re, z.im]).collect();
    comm.allreduce_f64(ReduceOp::Sum, &mut flat);
    for (i, z) in s.iter_mut().enumerate() {
        *z = Complex64::new(flat[2 * i], flat[2 * i + 1]);
    }
    s
}

/// Runs `iters` steps of preconditioned steepest-descent minimization on
/// `nbands` bands, re-orthonormalizing each sweep. Returns the stats; `psi`
/// holds the improved bands.
pub fn minimize(
    comm: &mut Comm,
    h: &mut Hamiltonian,
    psi: &mut [Complex64],
    nbands: usize,
    iters: usize,
    step: f64,
) -> SolveStats {
    let ng = h.ng();
    let mut history = Vec::with_capacity(iters);
    orthonormalize(comm, psi, nbands, ng);
    let mut step = step;
    let mut prev = psi.to_vec();
    let mut last_e = f64::INFINITY;
    for _ in 0..iters {
        let hpsi = h.apply(comm, psi, nbands);
        // Rayleigh quotients (orthonormal basis ⇒ diagonal of Ψᴴ H Ψ).
        let mut eps: Vec<f64> = (0..nbands)
            .map(|b| (0..ng).map(|g| (psi[b * ng + g].conj() * hpsi[b * ng + g]).re).sum())
            .collect();
        comm.allreduce_f64(ReduceOp::Sum, &mut eps);
        let e: f64 = eps.iter().sum();

        // Backtracking: if the trial step raised the energy, restore the
        // previous block and retry with a halved step (all ranks take the
        // same branch — `e` is globally reduced).
        if e > last_e + 1e-12 && step > 1e-4 {
            psi.copy_from_slice(&prev);
            step *= 0.5;
            continue;
        }
        history.push(e);
        last_e = e;
        prev.copy_from_slice(psi);

        // Preconditioned residual step: r = Hψ − εψ, scaled by the classic
        // Teter–Payne–Allan-style kinetic damping 1/(1 + T/ecut-ish).
        for b in 0..nbands {
            for g in 0..ng {
                let r = hpsi[b * ng + g] - psi[b * ng + g].scale(eps[b]);
                let damp = 1.0 / (1.0 + h.kinetic[g]);
                psi[b * ng + g] -= r.scale(step * damp);
            }
        }
        orthonormalize(comm, psi, nbands, ng);
    }
    let band_energies = h.band_energies(comm, psi, nbands);
    SolveStats { energy_history: history, band_energies, iterations: iters }
}

/// Deterministic random-ish starting guess for `nbands` bands.
pub fn initial_guess(ng: usize, nbands: usize, rank: usize) -> Vec<Complex64> {
    (0..nbands * ng)
        .map(|i| {
            let t = (i as f64 + 1.0) * 0.618 + rank as f64 * 13.7;
            Complex64::new((t * 1.3).sin(), (t * 0.7).cos())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::GSphere;
    use crate::fftdist::DistFft;

    fn run_minimize(
        nprocs: usize,
        nproj: usize,
        v_depth: f64,
        nbands: usize,
        iters: usize,
    ) -> Vec<SolveStats> {
        msim::run(nprocs, move |comm| {
            let sphere = GSphere::build(8, 8, 8, 4.0);
            let fft = DistFft::new(sphere, comm.rank(), comm.size());
            let mut h = Hamiltonian::model(fft, nproj, v_depth);
            let ng = h.ng();
            let mut psi = initial_guess(ng, nbands, comm.rank());
            minimize(comm, &mut h, &mut psi, nbands, iters, 0.5)
        })
        .unwrap()
    }

    #[test]
    fn orthonormalize_produces_identity_overlap() {
        msim::run(2, |comm| {
            let sphere = GSphere::build(8, 8, 8, 4.0);
            let fft = DistFft::new(sphere, comm.rank(), comm.size());
            let ng = fft.local_ng();
            let nbands = 4;
            let mut psi = initial_guess(ng, nbands, comm.rank());
            orthonormalize(comm, &mut psi, nbands, ng);
            let s = overlap_matrix(comm, &psi, nbands, ng);
            for a in 0..nbands {
                for b in 0..nbands {
                    let want = if a == b { Complex64::ONE } else { Complex64::ZERO };
                    assert!(
                        (s[a * nbands + b] - want).abs() < 1e-10,
                        "S[{a},{b}] = {:?}",
                        s[a * nbands + b]
                    );
                }
            }
        })
        .unwrap();
    }

    #[test]
    fn energy_decreases_monotonically() {
        let stats = run_minimize(2, 2, 1.0, 3, 12);
        for st in stats {
            for w in st.energy_history.windows(2) {
                assert!(w[1] <= w[0] + 1e-9, "energy increased: {} -> {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn free_electron_bands_converge_to_plane_wave_energies() {
        // V = 0, no projectors: the exact lowest eigenvalues are the
        // smallest ½|G|² values (0, ½, ½, …). 4 bands must approach
        // {0, 0.5, 0.5, 0.5} after enough iterations.
        let stats = run_minimize(2, 0, 0.0, 4, 60);
        let e = &stats[0].band_energies;
        let mut sorted = e.clone();
        sorted.sort_by(f64::total_cmp);
        assert!(sorted[0] < 0.05, "ground band {sorted:?}");
        for b in 1..4 {
            assert!((sorted[b] - 0.5).abs() < 0.1, "excited bands should sit near ½: {sorted:?}");
        }
    }

    #[test]
    fn parallel_energy_matches_serial() {
        // The minimization couples ranks only through allreduces and the
        // FFT transposes; total energy after the same number of sweeps must
        // agree between 1 and 2 ranks (identical global basis; different
        // rank counts partition it differently, so compare final energies
        // loosely).
        let s1 = run_minimize(1, 2, 1.5, 3, 120);
        let s2 = run_minimize(2, 2, 1.5, 3, 120);
        let e1: f64 = s1[0].band_energies.iter().sum();
        let e2: f64 = s2[0].band_energies.iter().sum();
        assert!((e1 - e2).abs() < 0.1 * e1.abs().max(0.2), "serial {e1} vs parallel {e2}");
    }

    #[test]
    fn five_iterations_reproduce_golden_band_bits() {
        // Pins the exact bits of ψ after one 5-iteration `minimize` of a
        // 16³ problem, per rank, at 1 and 2 ranks and 1 and 2 workers. A
        // rewrite of the FFT, transpose or Hamiltonian arithmetic that
        // moves any output bit fails here, with or without
        // target-cpu=native.
        let golden: [&[u64]; 2] =
            [&[0x4e64_07fa_2066_7756], &[0x1875_a292_6c55_3012, 0x540c_0b31_d62a_539f]];
        for (nprocs, want) in [1usize, 2].into_iter().zip(golden) {
            for workers in [1usize, 2] {
                let hashes = msim::run(nprocs, move |comm| {
                    let sphere = GSphere::build(16, 16, 16, 20.0);
                    let threads = hec_core::pool::Threads::new(workers);
                    let fft = DistFft::with_threads(sphere, comm.rank(), comm.size(), threads);
                    let mut h = Hamiltonian::model(fft, 4, 1.5);
                    let nbands = 8;
                    let mut psi = initial_guess(h.ng(), nbands, comm.rank());
                    minimize(comm, &mut h, &mut psi, nbands, 5, 0.5);
                    // FNV-1a over the little-endian bytes of every re/im.
                    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
                    for z in &psi {
                        for b in
                            z.re.to_bits()
                                .to_le_bytes()
                                .into_iter()
                                .chain(z.im.to_bits().to_le_bytes())
                        {
                            hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                        }
                    }
                    hash
                })
                .unwrap();
                assert_eq!(hashes, want, "ψ bits moved at {nprocs} ranks × {workers} workers");
            }
        }
    }

    #[test]
    fn attractive_potential_lowers_the_spectrum() {
        let free = run_minimize(2, 0, 0.0, 2, 40);
        let bound = run_minimize(2, 0, 2.0, 2, 40);
        let ef: f64 = free[0].band_energies.iter().sum();
        let eb: f64 = bound[0].band_energies.iter().sum();
        assert!(eb < ef + 1e-9, "well should bind: free {ef} vs bound {eb}");
    }
}
