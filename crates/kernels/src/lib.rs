//! Shared numerical kernels for the HEC application suite.
//!
//! Everything here is written from scratch — the paper's applications rely on
//! hand-written FFTs (PARATEC explicitly uses its own 3D FFT because its
//! Fourier-space data layout is a load-balanced sphere, not a dense cube) and
//! vendor BLAS; this crate provides the Rust equivalents used by all four
//! mini-apps:
//!
//! * [`complex`] — a minimal `Complex64` type (no external num crate).
//! * [`fft`] — 1D complex FFT: iterative radix-2 for powers of two, a
//!   Stockham mixed-radix 2/3/5 transform for other lengths with prime
//!   factors ≤ 5, and Bluestein's algorithm for every remaining length.
//! * [`fft3d`] — local (single address space) 3D FFT over a dense cube,
//!   pencil-at-a-time, used as the reference for the distributed transforms.
//! * [`blas`] — blocked `dgemm`/`zgemm`, `dot`/`axpy`/`norm` level-1 helpers.
//! * [`solve`] — the conjugate-gradient solver.
//! * [`stream`] — the STREAM triad microkernel, in the units of the
//!   memory-bandwidth terms of the architectural model.

pub mod blas;
pub mod complex;
pub mod fft;
pub mod fft3d;
pub mod solve;
pub mod stream;

pub use complex::Complex64;
