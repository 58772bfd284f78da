//! LBMHD3D — three-dimensional lattice Boltzmann magneto-hydrodynamics.
//!
//! A complete reimplementation of the application introduced by the paper
//! (§5): a D3Q27 lattice Boltzmann solver for the equations of resistive
//! incompressible MHD, following the Dellar formulation — 27 scalar
//! particle distributions carrying mass and momentum plus 27 vector-valued
//! distributions carrying the magnetic field. The simulation evolves a
//! conducting fluid from simple initial conditions through the onset of
//! turbulence (Figure 6 of the paper shows the vorticity contours this
//! produces).
//!
//! Implementation notes mirroring the paper's §5/§5.1:
//!
//! * the *combined* collision+stream step of Wellein et al. is used — data
//!   is gathered from adjacent cells while computing the update for the
//!   current cell, so only block-boundary points are copied;
//! * the inner loop runs over grid points with the direction loops
//!   unrolled, the layout that vectorizes on the ES/X1 and is also optimal
//!   on cache machines;
//! * the 3D spatial grid is block-distributed over a 3D Cartesian processor
//!   grid with face halo exchanges (`msim`).
//!
//! Modules:
//! * [`lattice`] — the D3Q27 streaming lattice (velocities, weights).
//! * [`state`] — distribution storage and macroscopic moments.
//! * [`collide`] — the fused collide+stream kernel and its flop accounting.
//! * [`decomp`] — 3D Cartesian decomposition and halo exchange.
//! * [`sim`] — the driver: initial conditions, stepping, diagnostics.
//! * [`model`] — the measured workload model feeding `hec-arch` (Table 5).

/// Stable artifact-file tag: `TABLE_lbmhd3d.json` / `PROFILE_lbmhd3d.json`
/// are keyed by this name, so renaming it breaks every committed
/// baseline directory — treat it as part of the artifact schema.
pub const ARTIFACT_TAG: &str = "lbmhd3d";

pub mod collide;
pub mod decomp;
pub mod lattice;
pub mod model;
pub mod sim;
pub mod state;

pub use sim::{Diagnostics, SimParams, Simulation};
