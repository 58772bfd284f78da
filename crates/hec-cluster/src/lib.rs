//! `hec-cluster` — sharded, replicated, fault-tolerant serving.
//!
//! One frontend URL over N independent [`hec_serve`] replicas. The
//! canonical request keyspace is partitioned by a consistent-hash ring
//! ([`ring`]: virtual nodes, replication factor R), the router
//! ([`router`]) forwards each request to its key's first live owner and
//! fails over to the next on transport failure or load shedding, each
//! member's server and counters live in one record of the member table
//! ([`replica`]) — a replica is up exactly when its record holds a
//! running server, and only kill, restart and retire change that — and a
//! deterministic fault plan ([`faults`]) can kill, stall, drop-connect,
//! or slow replicas at fixed admitted-request indices.
//!
//! Membership is live ([`membership`]): versioned ring epochs with
//! `/admin/scale-up`, `/admin/scale-down` and `/admin/drain/<i>`
//! endpoints, bounded
//! rebalancing (only keys whose owners changed between epochs move,
//! and nothing is copied between replicas: a new owner evaluates a key
//! on its first request), and an optional autoscaler driven by the
//! router's queue gauge and inter-tick p99 — all keyed to the same
//! admitted-request clock as the fault plan, so churn runs are
//! bit-for-bit reproducible.
//!
//! The contract under faults (DESIGN.md §9): with R owners per key and
//! at most R − 1 of them killed, every admitted request returns a
//! response *byte-identical* to the single-process engine's — the
//! replicas all run the same bitwise-deterministic model, so which
//! owner answers is invisible in the bytes.
//!
//! ```no_run
//! let cluster = hec_cluster::start(hec_cluster::ClusterConfig {
//!     replicas: 3,
//!     ..hec_cluster::ClusterConfig::default()
//! })
//! .unwrap();
//! println!("routing on http://{}", cluster.addr());
//! cluster.shutdown();
//! cluster.join();
//! ```

pub mod faults;
pub mod membership;
pub mod replica;
pub mod ring;
pub mod router;

pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use membership::{AutoscaleConfig, Elasticity, Epoch, MembershipEvent};
pub use replica::{Member, ReplicaSet};
pub use ring::{owners_diff, stable_hash, OwnersDiff, Ring, DEFAULT_VNODES};
pub use router::{start, Cluster, ClusterConfig, DEFAULT_REPLICATION};
