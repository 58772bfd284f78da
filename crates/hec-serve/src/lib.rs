//! Prediction-as-a-service: the paper's cross-platform performance model
//! behind an HTTP/1.1 endpoint (DESIGN §8).
//!
//! The SC'05 study's lasting value is a *queryable* model — who wins, by
//! what factor, where scaling rolls over — not the printed tables. This
//! crate serves that model over the wire, std-only per DESIGN §6
//! (`std::net::TcpListener`, no external crates):
//!
//! * [`engine`] — the evaluation core: per-(app, platform, concurrency)
//!   point evaluation plus the Table 3–6 row builders, moved here from
//!   `bench::experiments` so the service and the CLI share one code path.
//! * [`request`] — request canonicalization: every way of spelling a
//!   point (query string, JSON body, platform aliases) collapses to one
//!   [`request::Point`] whose canonical key is the cache key.
//! * [`cache`] — one LRU list over evaluated points. Sweeps decompose
//!   into per-point entries, so overlapping sweeps and single-point
//!   requests share work.
//! * [`batch`] — leader/follower micro-batching of concurrent misses.
//!   Off the serving path (the server evaluates on one thread); kept
//!   only while `benchmark/` times it.
//! * [`reactor`] — the event-driven serving core: one thread
//!   multiplexing every connection over `poll(2)` (std-only platform
//!   shim), per-connection state machines with HTTP/1.1 keep-alive and
//!   pipelining, answering non-blocking requests itself and dispatching
//!   the rest to the bounded worker pool. The server and the
//!   `hec-cluster` router both ride it.
//! * [`server`] — the listener: every endpoint answered on the reactor
//!   thread except `/debug/sleep`, which takes the bounded worker pool
//!   (queue-full ⇒ 503 + `Retry-After`); `/metrics`; graceful shutdown
//!   that drains in-flight requests.
//! * [`client`] — the minimal HTTP/1.1 client the load generator, the
//!   cluster router, and the e2e tests use, with per-thread keep-alive
//!   connection reuse, seeded-backoff retries (`Retry-After`-aware) and
//!   tail-latency request hedging.
//! * [`metrics`] — per-endpoint latency histograms.
//!
//! Determinism contract: responses are emitted from ordered JSON objects
//! and cached *values* (never formatted strings are recomputed), so a
//! cached response is bitwise equal to the uncached response for the
//! same canonical request.

pub mod batch;
pub mod cache;
pub mod client;
pub mod engine;
pub mod metrics;
pub mod reactor;
pub mod request;
pub mod server;
