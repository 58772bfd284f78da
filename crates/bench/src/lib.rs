//! The reproduction layer: regenerate every table and figure of the
//! paper from the four applications' workload models and the
//! architectural performance models, hold them against the published
//! numbers, and gate the exact artifacts across commits. How fast
//! anything runs is measured by `benchmark/`, not here.
//!
//! * [`experiments`] — the results that need the simulated runtime: the
//!   Figure 2 traffic capture and the Figure 8 assembly.
//! * [`render`] — turns results into the paper's table/figure layouts,
//!   each table's columns read from [`hec_serve::engine::columns`].
//! * [`table`] and [`plot`] — the fixed-width text tables and the ASCII
//!   charts every layout is drawn with.
//! * [`paper`] — the published values of Tables 3–6 and the shape
//!   metrics (ordering agreement, typical factor).
//! * [`validate`] — side-by-side shape comparison against [`paper`],
//!   used both by `repro validate` and the integration tests.
//! * [`profile`] — calibration captures (`PROFILE_<app>.json`).
//! * [`artifact`] — the metadata-stamped artifact writer/loader shared
//!   by every JSON-producing subcommand, and the canonical `/eval`
//!   query list.
//! * [`pipeline`] — `repro all`: every artifact (tables, canonical
//!   responses, profiles) into one directory.
//! * [`diff`] — `repro diff`: the cross-commit bit-for-bit gate and the
//!   findings table it prints.

pub mod artifact;
pub mod diff;
pub mod experiments;
pub mod paper;
pub mod pipeline;
pub mod plot;
pub mod profile;
pub mod render;
pub mod table;
pub mod validate;
