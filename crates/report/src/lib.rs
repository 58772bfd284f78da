//! Reporting: aligned text tables, ASCII plots, and the paper's published
//! numbers for comparison.
//!
//! * [`table`] — the fixed-width table renderer every experiment uses.
//! * [`plot`] — ASCII line/bar plots for the figure reproductions.
//! * [`paper`] — the published values of Tables 3–6 (Gflop/s per
//!   processor) and helpers for shape comparisons (who wins, by what
//!   factor) between our model's predictions and the paper.
//! * [`diff`] — the findings table `repro diff` prints when two artifact
//!   directories disagree (drift / missing / extra).

pub mod diff;
pub mod paper;
pub mod plot;
pub mod table;

pub use table::Table;
