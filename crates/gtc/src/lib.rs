//! GTC — gyrokinetic toroidal particle-in-cell mini-app.
//!
//! A from-scratch reimplementation of the performance-relevant structure of
//! the Gyrokinetic Toroidal Code (paper §4): a δf particle-in-cell method
//! on a torus, where charged-particle markers deposit charge on a spatial
//! grid, a Poisson equation is solved on each poloidal plane, and the
//! resulting electric field is gathered back to push the particles.
//!
//! The paper's contribution for GTC is a **particle decomposition**: on top
//! of the physics-limited 64-way 1D toroidal domain decomposition, the
//! particles inside each toroidal domain are split over several MPI
//! processes, which (a) lifted GTC's concurrency from 64 to 2048+ on the
//! ES, and (b) added `Allreduce` calls over the sub-communicators to merge
//! each domain's grid charge. Both are implemented here, as is the
//! **work-vector deposition** (§4: private grid copies per vector-register
//! element to break the scatter memory dependency), which
//! [`deposit::deposit_threaded`] applies per chunk of markers.
//!
//! Modules:
//! * [`geometry`] — annular poloidal grid × toroidal planes, field arrays.
//! * [`particles`] — SoA marker storage and toroidal loading.
//! * [`deposit`] — gyro-ring charge scatter (serial, and the threaded
//!   work-vector method).
//! * [`poisson`] — CG solve of the gyrokinetic Poisson equation per plane.
//! * [`push`] — field gather and RK2 drift push with δf weight evolution.
//! * [`sim`] — msim driver wiring the two-level decomposition together.
//! * [`model`] — the measured workload model feeding `hec-arch` (Table 4).

/// Stable artifact-file tag: `TABLE_gtc.json` / `PROFILE_gtc.json`
/// are keyed by this name, so renaming it breaks every committed
/// baseline directory — treat it as part of the artifact schema.
pub const ARTIFACT_TAG: &str = "gtc";

pub mod deposit;
pub mod geometry;
pub mod model;
pub mod particles;
pub mod poisson;
pub mod push;
pub mod sim;

pub use sim::{GtcParams, GtcSim};
