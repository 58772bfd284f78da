//! `hec-cluster` — sharded, replicated, fault-tolerant serving.
//!
//! One frontend URL over N independent [`hec_serve`] replicas. A
//! consistent-hash ring ([`ring`]: virtual nodes, replication factor R)
//! partitions the canonical request keyspace; the router ([`router`])
//! forwards each request on its reactor to the key's first live owner
//! and fails over on transport failure, timeout or load shedding; the
//! member table ([`replica`]) is the only source of liveness; a
//! deterministic fault plan ([`faults`]) kills, stalls, drop-connects or
//! slows replicas at fixed admitted-request indices; and membership is
//! live ([`membership`]: ring epochs, bounded rebalancing, an optional
//! autoscaler on the same admitted-request clock).
//!
//! The contract under faults (DESIGN.md §9): with at most R − 1 owners of
//! a key killed, every admitted request returns a response
//! *byte-identical* to the single-process engine's — every replica runs
//! the same bitwise-deterministic model, so which owner answers is
//! invisible in the bytes.
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
