//! PARATEC — plane-wave density-functional-theory mini-app.
//!
//! A from-scratch implementation of the computational structure of PARATEC
//! (PARAllel Total Energy Code, paper §6): electronic wavefunctions
//! expanded in plane waves inside a kinetic-energy cutoff sphere, a
//! Kohn–Sham-like Hamiltonian applied partly in Fourier space (kinetic,
//! diagonal), partly in real space (local potential, reached through 3D
//! FFTs), partly through projectors (nonlocal pseudopotential, ZGEMM), and
//! an all-band iterative minimization with explicit re-orthonormalization
//! (BLAS3).
//!
//! The two structural facts the paper's analysis leans on are both here:
//!
//! * the Fourier-space data layout is a **load-balanced sphere of
//!   G-columns** — which is why PARATEC carries its own hand-written 3D
//!   FFT rather than a library call ([`basis`], [`fftdist`]);
//! * the 3D FFT's **global transposes** are the scaling limit — each
//!   wavefunction transform is an all-to-all over the job ([`fftdist`]),
//!   exactly the term that separates the Quadrics/Itanium2 cluster from
//!   the InfiniBand/Opteron cluster at high concurrency (paper §6.1).
//!
//! Modules:
//! * [`basis`] — G-vector sphere, column decomposition, load balancing.
//! * [`fftdist`] — distributed sphere↔real-space 3D FFT with transposes.
//! * [`hamiltonian`] — kinetic + local + nonlocal pseudopotential apply.
//! * [`solver`] — all-band preconditioned minimization + orthonormalization.
//! * [`model`] — the measured workload model feeding `hec-arch` (Table 6).

/// Stable artifact-file tag: `TABLE_paratec.json` / `PROFILE_paratec.json`
/// are keyed by this name, so renaming it breaks every committed
/// baseline directory — treat it as part of the artifact schema.
pub const ARTIFACT_TAG: &str = "paratec";

pub mod basis;
pub mod fftdist;
pub mod hamiltonian;
pub mod model;
pub mod solver;
