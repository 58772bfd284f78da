//! FVCAM — finite-volume atmospheric dynamical-core mini-app.
//!
//! A from-scratch implementation of the performance-relevant structure of
//! the Community Atmosphere Model's finite-volume dynamical core (paper
//! §3): a logically-rectangular (longitude, latitude, level) grid, a
//! flux-form (Lin–Rood) advection scheme with pervasive one-sided upwind
//! branches, FFT polar filters along complete longitude lines, a
//! Lagrangian vertical discretization periodically remapped to fixed
//! levels, and — the heart of the paper's §3.2 analysis — two domain
//! decompositions connected by data transposes:
//!
//! * the **dynamics** phase runs in a (latitude, level) decomposition
//!   (each rank holds *all* longitudes, which keeps the polar-filter FFTs
//!   local);
//! * the **remap** phase needs whole vertical columns, so it runs in a
//!   (longitude, latitude) decomposition.
//!
//! The 1D (latitude-only) decomposition needs no transposes but limits
//! concurrency to ~nlat/3 and has a worse surface-to-volume ratio — the
//! comparison plotted in Figure 2 and quantified in Table 3.
//!
//! Modules:
//! * [`grid`] — the sphere grid, metric terms, and per-rank field blocks.
//! * [`advect`] — the flux-form upwind advection kernel (van Leer limited).
//! * [`polar`] — FFT polar filters (vectorized *across* latitudes).
//! * [`vertical`] — Lagrangian surface drift and conservative remap.
//! * [`decomp`] — 1D/2D decompositions, halo exchanges, and transposes.
//! * [`sim`] — the timestep driver plus the physics-package surrogate.
//! * [`model`] — the measured workload model (Table 3, Figures 3/4).

/// Stable artifact-file tag: `TABLE_fvcam.json` / `PROFILE_fvcam.json`
/// are keyed by this name, so renaming it breaks every committed
/// baseline directory — treat it as part of the artifact schema.
pub const ARTIFACT_TAG: &str = "fvcam";

pub mod advect;
pub mod decomp;
pub mod grid;
pub mod model;
pub mod polar;
pub mod sim;
pub mod vertical;

pub use sim::{FvParams, FvSim};
