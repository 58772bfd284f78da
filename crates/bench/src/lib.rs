//! The reproduction harness: drivers that regenerate every table and
//! figure of the paper from the four applications' workload models and the
//! architectural performance models.
//!
//! * [`experiments`] — per-table result generation (predictions for every
//!   platform × configuration the paper reports).
//! * [`render`] — turns results into the paper's table/figure layouts.
//! * [`validate`] — side-by-side shape comparison against the published
//!   numbers (`report::paper`), used both by `repro validate` and the
//!   integration tests.
//! * [`harness`] — dependency-free micro/app benchmark timing
//!   (`repro harness`).
//! * [`loadgen`] — open-loop load generator for the serve subsystem
//!   (`repro loadgen`, writes `BENCH_serve.json`).
//! * [`artifact`] — the metadata-stamped artifact writer/loader shared
//!   by every JSON-producing subcommand.
//! * [`pipeline`] — `repro all`: every artifact into one directory.
//! * [`diff`] — `repro diff`: the cross-commit regression gate.

pub mod artifact;
pub mod diff;
pub mod experiments;
pub mod gate;
pub mod harness;
pub mod loadgen;
pub mod pipeline;
pub mod profile;
pub mod render;
pub mod validate;
