//! The repo's benchmark (see `README.md` beside this crate and
//! `/BENCHMARK.json`): four named workloads, nine gated end-to-end metrics,
//! and a traced per-layer ledger from the kernels to the cluster.
//!
//! Every layer is measured **from outside**: by timing calls into the
//! crates' public functions and by driving the servers over loopback. The
//! benchmark touches no file outside `benchmark/`.
//!
//! The library holds everything but the command line, so the integration
//! tests can drive real child servers through the same code the runs use.

pub mod apps;
pub mod child;
pub mod gen;
pub mod host;
pub mod layers;
pub mod report;
pub mod serving;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
