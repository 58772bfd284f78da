//! msim — a simulated SPMD message-passing runtime.
//!
//! The four applications in this suite are *real* MPI codes in miniature:
//! each rank runs the same program on its block of the domain and exchanges
//! halos, transposes, and reductions. msim provides that programming model
//! inside one process:
//!
//! * [`run`] launches `P` ranks, each on its own OS thread, and joins them;
//! * [`Comm`] is the communicator handle: point-to-point `send`/`recv`,
//!   `sendrecv` of `f64` blocks, and the collectives the paper's
//!   applications use (`barrier`, `bcast`, `allreduce`, `alltoall`), plus
//!   `split` for the sub-communicators GTC's particle decomposition needs;
//! * every byte that crosses ranks is recorded in a [`TrafficMatrix`] —
//!   this is how Figure 2's communication-volume plots are regenerated, in
//!   the same spirit as the IPM profiling tool the authors used.
//!
//! The runtime is *functional*, not timed: simulated wall-clock comes from
//! `hec-arch`'s analytic models, fed by the traffic volumes captured here.

mod collectives;
mod comm;
mod traffic;

pub use collectives::ReduceOp;
pub use comm::{run, run_with_traffic, Comm, RunError};
pub use traffic::{CollectiveKind, CollectiveRecord, TrafficMatrix};
