//! Workload profiles: what one processor does in one timestep.
//!
//! The four applications *measure* these records from their real Rust
//! kernels (the instrumented counters are validated against analytic counts
//! in each app's tests) and hand them to [`crate::predict()`].

use hec_core::json::{Json, ToJson};

/// One communication event per timestep, as captured by `msim` or derived
/// from the decomposition arithmetic (validated against capture).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CommEvent {
    /// Nearest-neighbor exchange: each rank sends `bytes` to each of
    /// `neighbors` peers.
    Halo {
        /// Payload per neighbor in bytes.
        bytes: f64,
        /// Number of neighbors.
        neighbors: f64,
    },
    /// Reduction over a (sub-)communicator of `procs` ranks.
    Allreduce {
        /// Payload in bytes.
        bytes: f64,
        /// Communicator size.
        procs: f64,
    },
    /// Distributed transpose redistributing `bytes_per_rank` per rank.
    Transpose {
        /// Total outgoing bytes per rank.
        bytes_per_rank: f64,
        /// Communicator size.
        procs: f64,
    },
}

impl ToJson for CommEvent {
    fn to_json(&self) -> Json {
        match *self {
            CommEvent::Halo { bytes, neighbors } => Json::obj([
                ("op", Json::Str("halo".into())),
                ("bytes", Json::Num(bytes)),
                ("neighbors", Json::Num(neighbors)),
            ]),
            CommEvent::Allreduce { bytes, procs } => Json::obj([
                ("op", Json::Str("allreduce".into())),
                ("bytes", Json::Num(bytes)),
                ("procs", Json::Num(procs)),
            ]),
            CommEvent::Transpose { bytes_per_rank, procs } => Json::obj([
                ("op", Json::Str("transpose".into())),
                ("bytes_per_rank", Json::Num(bytes_per_rank)),
                ("procs", Json::Num(procs)),
            ]),
        }
    }
}

/// Computation profile of one phase of one timestep on one processor.
#[derive(Clone, Debug)]
pub struct PhaseProfile {
    /// Phase name (e.g. `"collision"`, `"charge deposition"`).
    pub name: String,
    /// Double-precision operations per processor per step.
    pub flops: f64,
    /// Fraction of `flops` inside vectorizable inner loops (Amdahl split).
    pub vector_fraction: f64,
    /// Trip count of the vectorized inner loop (drives stripmine
    /// efficiency; e.g. FVCAM's latitude loops shrink as P grows).
    pub avg_vector_length: f64,
    /// Unit-stride memory traffic in bytes (loads + stores, assuming no
    /// cache).
    pub unit_stride_bytes: f64,
    /// Randomly indexed traffic in bytes (gather/scatter).
    pub gather_scatter_bytes: f64,
    /// Fraction of `unit_stride_bytes` that a sufficiently large cache can
    /// absorb (temporal reuse: ~0.9+ for blocked BLAS3, ~0 for streaming
    /// stencil sweeps).
    pub cacheable_fraction: f64,
    /// How BLAS3-like the arithmetic is (0 = branchy stencil/particle
    /// code, 1 = register-blocked dense kernels). Drives the sustained-ILP
    /// interpolation on superscalar processors — distinct from
    /// `cacheable_fraction`, which only filters memory traffic.
    pub dense_fraction: f64,
    /// Per-processor working set in bytes (decides whether
    /// `cacheable_fraction` is realizable on a given cache).
    pub working_set_bytes: f64,
    /// Concurrent unit-stride streams the kernel touches (LBMHD: 100+;
    /// limits superscalar prefetch efficiency).
    pub concurrent_streams: f64,
    /// Independent instances of the vector loop (outer loop trip count).
    /// When at least `msp_ways`, the X1's multistreaming compiler splits
    /// the *outer* loops and the vector length is untouched; below that it
    /// must split the vector loop itself.
    pub outer_parallelism: f64,
}

impl PhaseProfile {
    /// A zeroed profile with the given name, for tests that set only the
    /// fields they exercise. Workload builders write every field in one
    /// struct literal instead.
    #[cfg(test)]
    pub(crate) fn new(name: impl Into<String>) -> Self {
        PhaseProfile {
            name: name.into(),
            flops: 0.0,
            vector_fraction: 1.0,
            avg_vector_length: 256.0,
            unit_stride_bytes: 0.0,
            gather_scatter_bytes: 0.0,
            cacheable_fraction: 0.0,
            dense_fraction: 0.0,
            working_set_bytes: 0.0,
            concurrent_streams: 4.0,
            outer_parallelism: f64::INFINITY,
        }
    }

    /// Arithmetic intensity in flops per byte of (uncached) traffic.
    pub fn intensity(&self) -> f64 {
        let bytes = self.unit_stride_bytes + self.gather_scatter_bytes;
        if bytes == 0.0 {
            f64::INFINITY
        } else {
            self.flops / bytes
        }
    }
}

impl ToJson for PhaseProfile {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("flops", Json::Num(self.flops)),
            ("vector_fraction", Json::Num(self.vector_fraction)),
            ("avg_vector_length", Json::Num(self.avg_vector_length)),
            ("unit_stride_bytes", Json::Num(self.unit_stride_bytes)),
            ("gather_scatter_bytes", Json::Num(self.gather_scatter_bytes)),
            ("cacheable_fraction", Json::Num(self.cacheable_fraction)),
            ("dense_fraction", Json::Num(self.dense_fraction)),
            ("working_set_bytes", Json::Num(self.working_set_bytes)),
            ("concurrent_streams", Json::Num(self.concurrent_streams)),
            ("outer_parallelism", Json::Num(self.outer_parallelism)),
        ])
    }
}

/// Everything one processor does in one timestep: computation phases plus
/// communication events.
#[derive(Clone, Debug, Default)]
pub struct WorkloadProfile {
    /// Application label (e.g. `"LBMHD3D"`).
    pub app: String,
    /// Total MPI ranks in the job.
    pub job_procs: usize,
    /// Computation phases, executed in order.
    pub phases: Vec<PhaseProfile>,
    /// Communication events per timestep.
    pub comm: Vec<CommEvent>,
}

impl WorkloadProfile {
    /// Creates an empty profile for `app` on `job_procs` ranks.
    #[cfg(test)]
    pub(crate) fn new(app: impl Into<String>, job_procs: usize) -> Self {
        WorkloadProfile { app: app.into(), job_procs, phases: Vec::new(), comm: Vec::new() }
    }

    /// Total flops per processor per step.
    pub fn total_flops(&self) -> f64 {
        self.phases.iter().map(|p| p.flops).sum()
    }

    /// Total memory traffic per processor per step (no cache filtering).
    pub fn total_bytes(&self) -> f64 {
        self.phases.iter().map(|p| p.unit_stride_bytes + p.gather_scatter_bytes).sum()
    }
}

impl ToJson for WorkloadProfile {
    fn to_json(&self) -> Json {
        Json::obj([
            ("app", Json::Str(self.app.clone())),
            ("job_procs", Json::Num(self.job_procs as f64)),
            ("phases", self.phases.to_json()),
            ("comm", self.comm.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_sane() {
        let p = PhaseProfile::new("test");
        assert_eq!(p.flops, 0.0);
        assert_eq!(p.vector_fraction, 1.0);
        assert!(p.intensity().is_infinite());
    }

    #[test]
    fn intensity_is_flops_per_byte() {
        let mut p = PhaseProfile::new("x");
        p.flops = 100.0;
        p.unit_stride_bytes = 40.0;
        p.gather_scatter_bytes = 10.0;
        assert!((p.intensity() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn workload_totals_sum_phases() {
        let mut w = WorkloadProfile::new("app", 64);
        for i in 1..=3 {
            let mut p = PhaseProfile::new(format!("p{i}"));
            p.flops = i as f64 * 10.0;
            p.unit_stride_bytes = i as f64;
            w.phases.push(p);
        }
        assert_eq!(w.total_flops(), 60.0);
        assert_eq!(w.total_bytes(), 6.0);
    }

    #[test]
    fn comm_events_serialize_round_trip() {
        let events = [
            (CommEvent::Halo { bytes: 4096.0, neighbors: 6.0 }, "halo"),
            (CommEvent::Allreduce { bytes: 8.0, procs: 256.0 }, "allreduce"),
            (CommEvent::Transpose { bytes_per_rank: 1e6, procs: 64.0 }, "transpose"),
        ];
        for (e, op) in events {
            let parsed = Json::parse(&e.to_json().emit()).unwrap();
            assert_eq!(parsed, e.to_json());
            assert_eq!(parsed.str_field("op").unwrap(), op);
        }
    }

    #[test]
    fn workload_profile_round_trips_including_infinite_outer_parallelism() {
        let mut w = WorkloadProfile::new("GTC", 64);
        let mut p = PhaseProfile::new("charge deposition");
        p.flops = 1.5e9;
        p.gather_scatter_bytes = 2.0e9;
        w.phases.push(p); // keeps the default outer_parallelism = Inf
        w.comm.push(CommEvent::Allreduce { bytes: 8.0, procs: 64.0 });
        let parsed = Json::parse(&w.to_json().emit_pretty()).unwrap();
        assert_eq!(parsed.str_field("app").unwrap(), "GTC");
        assert_eq!(parsed.num_field("job_procs").unwrap(), 64.0);
        let [phase] = parsed.field("phases").unwrap().as_arr().unwrap() else { panic!() };
        assert_eq!(phase.num_field("flops").unwrap(), 1.5e9);
        // JSON has no Inf: an unbounded outer loop emits as null.
        assert_eq!(phase.field("outer_parallelism").unwrap(), &Json::Null);
        assert_eq!(parsed.field("comm").unwrap(), &w.comm.to_json());
    }
}
