//! The reproduction drivers: regenerate every table and figure of the
//! paper from the four applications' workload models and the
//! architectural performance models, and gate the exact artifacts across
//! commits. How fast anything runs is measured by `benchmark/`, not here.
//!
//! * [`experiments`] — per-table result generation (predictions for every
//!   platform × configuration the paper reports).
//! * [`render`] — turns results into the paper's table/figure layouts.
//! * [`validate`] — side-by-side shape comparison against the published
//!   numbers (`report::paper`), used both by `repro validate` and the
//!   integration tests.
//! * [`profile`] — calibration captures (`repro profile`, writes
//!   `PROFILE_<app>.json`).
//! * [`artifact`] — the metadata-stamped artifact writer/loader shared
//!   by every JSON-producing subcommand, and the canonical `/eval`
//!   query list.
//! * [`pipeline`] — `repro all`: every artifact (tables, canonical
//!   responses, profiles) into one directory.
//! * [`diff`] — `repro diff`: the cross-commit bit-for-bit gate.

pub mod artifact;
pub mod diff;
pub mod experiments;
pub mod pipeline;
pub mod profile;
pub mod render;
pub mod validate;
