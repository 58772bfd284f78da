//! Architectural performance models for the seven evaluated HEC platforms.
//!
//! The paper measures four applications on three superscalar systems (IBM
//! Power3 / Seaborg, Intel Itanium2 / Thunder, AMD Opteron / Jacquard) and
//! four parallel vector systems (Cray X1 in MSP and SSP modes, Cray X1E,
//! Earth Simulator, NEC SX-8). None of that hardware exists anymore — the
//! substitution this crate implements is an explicit analytic model:
//!
//! * [`platforms`] — one [`Platform`] descriptor per machine, carrying the
//!   *measured* columns of paper Table 1 (peak rate, EP-STREAM triad
//!   bandwidth, MPI latency/bandwidth, topology) plus the microarchitectural
//!   facts from §2 (vector register length, scalar-unit ratio, cache sizes,
//!   gather/scatter behavior of FPLRAM vs DDR2-SDRAM, MSP multi-streaming).
//! * [`profile`] — the instrumentation record an application produces for
//!   one timestep on one processor: flops, vectorizable fraction, average
//!   vector length, unit-stride and gather/scatter traffic, and the
//!   communication events captured by `msim`.
//! * [`capture`] — the measured path: overlays per-phase counters from a
//!   `hec_core::probe` calibration capture onto a profile, so the tables
//!   are driven by measured rates with the analytic builders as oracle.
//! * [`predict`](mod@predict) — the evaluator: vector machines overlap pipelined vector
//!   arithmetic with memory streams and pay Amdahl's law on the scalar
//!   remainder; superscalar machines are roofline-limited by cache-filtered
//!   memory traffic; both add the network model of `hec-net`.
//!
//! The model's constants are *global* — fixed once in [`platforms`] — so a
//! given application cannot be tuned per-table; the reproduced tables all
//! flow from one parameterization.

pub mod capture;
pub mod platforms;
pub mod predict;
pub mod profile;

pub use capture::{Overlay, PhaseBinding};
pub use platforms::{Arch, Platform, PlatformId, SuperscalarParams, VectorParams};
pub use predict::{predict, TimeBreakdown};
pub use profile::{CommEvent, PhaseProfile, WorkloadProfile};
