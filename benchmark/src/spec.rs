//! The frozen definition of the benchmark: workload names, sizes, rates,
//! and the two metric tables. `/BENCHMARK.json` restates the names, units,
//! directions and bounds; `tests::benchmark_json_matches_the_tables` keeps
//! the two from drifting. The README is the prose glossary.
//!
//! `--seconds` is how long a run measures: the apps' rounds and the serving
//! phases end on the clock, not after a fixed count, so a slower host does
//! less work in the same time. Rates and sizes never change with it.

/// `run_seconds` in `/BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 28;
/// How far in from the better end of a run's step times, window figures or
/// batch rates the reported value sits (see `stats::better_quantile`): the
/// host's interference is one-sided and comes in stretches, so the run
/// reports what the program did in its least disturbed tenth.
pub const BETTER_SHARE: f64 = 0.10;
/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 36;
/// Set-ups per serving run; `setup_s` is their median. The last one is kept
/// and measured on. A serving set-up is 50–80 ms of process and thread
/// spawning, so fifteen are cheap and their median needs them: over ten-seed
/// sets the median of five moved by 29 % between a quiet and a noisy hour.
pub const SERVING_SETUPS: usize = 15;
/// Set-ups per `apps_solve` run (a quarter of a second each: half a
/// gigabyte of lattice to allocate and fill). Nine, because after the guest
/// has sat idle for a minute the hypervisor has taken its free pages back
/// and the first three set-ups pay for faulting them in again (0.53, 0.43,
/// 0.32 s, then 0.21): a median of five stood on one of those.
pub const APP_SETUPS: usize = 9;

/// The four workloads (names are normative).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Time-to-solution of the four mini-apps.
    AppsSolve,
    /// One replica, hot keys: 100 % cache hits.
    ServeHit,
    /// One replica, every key fresh: misses and evictions.
    ServeMiss,
    /// Three replicas behind the router, points and sweeps.
    ClusterMix,
}

impl Workload {
    /// All workloads in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::AppsSolve, Workload::ServeHit, Workload::ServeMiss, Workload::ClusterMix];

    /// The normative name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AppsSolve => "apps_solve",
            Workload::ServeHit => "serve_hit",
            Workload::ServeMiss => "serve_miss",
            Workload::ClusterMix => "cluster_mix",
        }
    }

    /// Parses a normative name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

// ---------------------------------------------------------------------
// apps_solve
// ---------------------------------------------------------------------

/// `msim` ranks of every timed solve (one thread each). Fixed at 2 on every
/// host — GTC's two toroidal domains need an even rank count — so the
/// problem is the same everywhere; a 1-CPU host time-shares them and the
/// `r2`/`t2` figures are withheld instead.
pub const APP_RANKS: usize = 2;
/// Steps of the warm-up block, per app (LBMHD, GTC, FVCAM steps; PARATEC
/// `minimize` calls), discarded: first touches, allocator growth, cold
/// caches (LBMHD's first two steps take twice the time of the rest).
pub const APP_WARMUP_STEPS: [usize; 4] = [3, 5, 10, 2];
/// Steps into the warm-up block after which each app's diagnostics are
/// compared with its reference decomposition's at the same step count.
pub const APP_CHECK_STEPS: [usize; 4] = [3, 5, 10, 1];
/// Steps of each app per round, about 0.3 s apiece on the 2-vCPU reference
/// host. The four apps take turns, round after round, until the run's
/// seconds are up, so each app's timed steps are spread over the whole run.
pub const APP_ROUND_STEPS: [usize; 4] = [3, 4, 20, 4];
/// The issue's fixed problem — LBMHD 80 steps, GTC 120, FVCAM 500, PARATEC
/// 500 iterations (100 calls) — whose time at the run's paces is `solve_s`.
pub const APP_SOLVE_STEPS: [usize; 4] = [80, 120, 500, 100];
/// LBMHD3D grid edge.
pub const LBMHD_N: usize = 64;
/// GTC grid and markers: mpsi × mtheta × mzeta_total, domains, markers per
/// domain.
pub const GTC_GRID: (usize, usize, usize) = (32, 64, 8);
/// GTC toroidal domains.
pub const GTC_DOMAINS: usize = 2;
/// GTC markers per domain.
pub const GTC_MARKERS: usize = 200_000;
/// FVCAM mesh (¼ of the D mesh): nlon × nlat × nlev.
pub const FVCAM_MESH: (usize, usize, usize) = (144, 91, 26);
/// PARATEC FFT grid edge, cutoff, bands, projectors.
pub const PARATEC: (usize, f64, usize, usize) = (32, 40.0, 16, 8);
/// PARATEC iterations per timed `minimize` call.
pub const PARATEC_ITERS_PER_CALL: usize = 5;
/// Relative tolerance on conserved diagnostics between decompositions.
pub const APP_CHECK_TOL: f64 = 1e-9;

// ---------------------------------------------------------------------
// Serving workloads
// ---------------------------------------------------------------------

/// Generator connections (one generator thread drives them all).
pub const CONNECTIONS: usize = 2;
/// Share of `--seconds` spent warming up at the reference rate (discarded).
pub const WARMUP_SHARE: f64 = 0.04;
/// Share of `--seconds` the reference segments take.
pub const REF_SHARE: f64 = 0.64;
/// Share of `--seconds` the saturation bursts take. The three shares leave
/// 3 % for the set-ups.
pub const SAT_SHARE: f64 = 0.29;
/// Rounds of a serving run: one reference segment (2 s at `run_seconds`;
/// the server's CPU time is read around it), then a burst of saturation
/// batches (0.9 s). The two kinds of load take turns so that each draws its
/// least disturbed tenth from the whole run.
pub const REF_SEGMENTS: usize = 9;
/// Length of the windows a reference segment is cut into, seconds (500
/// requests and more): short enough that a run has 72 of them and its least
/// disturbed tenth — the windows the latency figures are taken over — comes
/// from all over the run, long enough that a window's median says more
/// about the host than about which requests fell into it.
pub const WINDOW_SECS: f64 = 0.25;
/// Requests whose time at the sustained capacity is the serving `solve_s`.
pub const SOLVE_REQUESTS: f64 = 100_000.0;
/// Pipelined requests kept outstanding per connection while saturating.
/// Four keeps both connections busy without letting the reactor's batching
/// feed on itself: windows of 16 read 67 k–83 k rps between identical
/// `serve_hit` runs, windows of 4 read 68 k–73 k.
pub const SAT_WINDOW: usize = 4;
/// A window the generator itself was later than this for, at p99, is left
/// out of the latency figures.
pub const LATE_LIMIT_US: f64 = 2_000.0;
/// Seconds after a segment's last due time before unanswered requests fail.
pub const ANSWER_GRACE_SECS: f64 = 5.0;
/// Hot keys of `serve_hit` and `cluster_mix` (12 per app).
pub const HOT_KEYS: usize = 48;
/// `/sweep` share of `cluster_mix` requests, in percent.
pub const SWEEP_PERCENT: u64 = 20;

/// Server-side shape and offered load of one serving workload.
#[derive(Clone, Copy, Debug)]
pub struct ServingSpec {
    /// Worker threads of the replica (or of the router).
    pub workers: usize,
    /// Admission-queue bound.
    pub queue: usize,
    /// Point-cache capacity of each replica.
    pub cache: usize,
    /// Replicas behind a router; 0 = a bare `hec-serve` replica.
    pub replicas: usize,
    /// Reference offered rate, requests per second (open loop).
    pub ref_rps: f64,
    /// Requests per saturation batch: a twentieth of a second at the
    /// capacity measured at the seed.
    pub sat_batch: usize,
    /// Most requests per second of saturation bursts the request plan holds:
    /// the phase ends early on a host this much faster than the reference.
    pub sat_cap_rps: f64,
}

/// The frozen serving shapes. The reference rates are the issue's own for
/// `serve_hit` and `cluster_mix` (8 000 and 2 000 rps) and 2 500 for
/// `serve_miss` (the issue: 1 500; this gives a window 600 requests). Each
/// keeps the server's one CPU a fifth to a third busy at the seed (36, 86 and
/// 90 us of CPU per request at these rates, where nothing is batched), so a
/// host running at half speed still leaves the open loop well short of
/// saturation. At 29–31 % of the *saturation* throughput (20 000 / 5 000 /
/// 5 000 rps) the server was 40–60 % busy, and a slow stretch of the host
/// turned the reference segments into a queue: p50 53 us on a quiet hour,
/// 1 ms on a busy one.
pub fn serving_spec(w: Workload) -> ServingSpec {
    match w {
        Workload::ServeHit => ServingSpec {
            workers: 2,
            queue: 256,
            cache: 4096,
            replicas: 0,
            ref_rps: 8_000.0,
            sat_batch: 3_500,
            sat_cap_rps: 140_000.0,
        },
        Workload::ServeMiss => ServingSpec {
            workers: 2,
            queue: 256,
            cache: 64,
            replicas: 0,
            ref_rps: 2_500.0,
            sat_batch: 800,
            // Every planned request's expected bytes are evaluated before
            // the run, 45 us apiece: the plan is kept short.
            sat_cap_rps: 12_000.0,
        },
        Workload::ClusterMix => ServingSpec {
            workers: 2,
            queue: 256,
            cache: 4096,
            replicas: 3,
            ref_rps: 2_000.0,
            sat_batch: 900,
            sat_cap_rps: 35_000.0,
        },
        Workload::AppsSolve => unreachable!("apps_solve has no serving shape"),
    }
}

/// Replication factor of `cluster_mix`.
pub const CLUSTER_REPLICATION: usize = 2;

// ---------------------------------------------------------------------
// Metric tables
// ---------------------------------------------------------------------

/// One gated end-to-end metric.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The gated metrics. Every workload reports every one; the README's cell
/// table says what each means on each workload.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "p50_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "cpu_us_per_req", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "knee_rps", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "solve_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "lbmhd_step_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "gtc_step_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "fvcam_step_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "paratec_iter_ms", unit: "ms", better: "lower", bound: 0.25 },
];

/// One ungated per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// The per-layer ledger, grouped by layer prefix. A traced run of workload
/// W measures the groups W exercises and reports 0 for the rest (see
/// [`layer_runs_on`]); 0 therefore reads "not exercised here / withheld on
/// this host", never "free".
pub const PER_LAYER: [PerLayer; 97] = [
    // host reference: explains drift, moves nothing
    ("host.nproc", "count", "higher"),
    ("host.fma_gflops", "Gflop/s", "higher"),
    ("host.triad_gbs", "GB/s", "higher"),
    ("host.wake_us", "us", "lower"),
    ("host.spin_ms", "ms", "lower"),
    ("host.llc_mib", "MiB", "higher"),
    ("host.triad_mib", "MiB", "higher"),
    ("host.pinned", "count", "higher"),
    ("host.shifted", "count", "lower"),
    // hec-core
    ("core.json_emit_us", "us", "lower"),
    ("core.json_parse_us", "us", "lower"),
    ("core.pool_submit_us", "us", "lower"),
    ("core.forkjoin_us", "us", "lower"),
    ("core.probe_capture_ratio", "ratio", "lower"),
    // kernels
    ("kernels.triad_gbs", "GB/s", "higher"),
    ("kernels.triad_frac", "ratio", "higher"),
    ("kernels.dgemm_gflops", "Gflop/s", "higher"),
    ("kernels.dgemm_frac", "ratio", "higher"),
    ("kernels.zgemm_gflops", "Gflop/s", "higher"),
    ("kernels.fft1024_us", "us", "lower"),
    ("kernels.fft576_us", "us", "lower"),
    ("kernels.fft3d32_ms", "ms", "lower"),
    ("kernels.cg_us", "us", "lower"),
    // msim
    ("msim.spawn_us", "us", "lower"),
    ("msim.pingpong_us", "us", "lower"),
    ("msim.bw_gbs", "GB/s", "higher"),
    ("msim.allreduce_us", "us", "lower"),
    // lbmhd
    ("lbmhd.collide_mlups", "Mlup/s", "higher"),
    ("lbmhd.collide_frac", "ratio", "higher"),
    ("lbmhd.t2_speedup", "ratio", "higher"),
    ("lbmhd.r2_eff", "ratio", "higher"),
    ("lbmhd.halo_bytes_step", "count", "lower"),
    // gtc
    ("gtc.deposit_mps", "M/s", "higher"),
    ("gtc.gatherpush_mps", "M/s", "higher"),
    ("gtc.poisson_ms", "ms", "lower"),
    ("gtc.r2_eff", "ratio", "higher"),
    ("gtc.shifted_step", "count", "lower"),
    // fvcam
    ("fvcam.advect_us", "us", "lower"),
    ("fvcam.polar_us", "us", "lower"),
    ("fvcam.remap_us", "us", "lower"),
    ("fvcam.r2_eff", "ratio", "higher"),
    ("fvcam.msg_bytes_step", "count", "lower"),
    // paratec
    ("paratec.fft_pair_ms", "ms", "lower"),
    ("paratec.happly_ms", "ms", "lower"),
    ("paratec.ortho_ms", "ms", "lower"),
    ("paratec.r2_eff", "ratio", "higher"),
    ("paratec.gemm_flops_iter", "count", "lower"),
    ("paratec.transpose_bytes_iter", "count", "lower"),
    // hec-arch / hec-net / app model.rs
    ("arch.predict_us", "us", "lower"),
    ("net.cost_ns", "ns", "lower"),
    ("model.fvcam_us", "us", "lower"),
    ("model.gtc_us", "us", "lower"),
    ("model.lbmhd_us", "us", "lower"),
    ("model.paratec_us", "us", "lower"),
    ("model.calib_ms", "ms", "lower"),
    // hec-serve: direct calls
    ("serve.parse_ns", "ns", "lower"),
    ("serve.canon_ns", "ns", "lower"),
    ("serve.cache_get_ns", "ns", "lower"),
    ("serve.cache_put_ns", "ns", "lower"),
    ("serve.eval_us", "us", "lower"),
    ("serve.batch_us", "us", "lower"),
    ("serve.point_body_ns", "ns", "lower"),
    ("serve.sweep_body_us", "us", "lower"),
    ("serve.emit_ns", "ns", "lower"),
    // hec-serve: loopback, one in flight
    ("serve.rtt_floor_us", "us", "lower"),
    ("serve.rtt_hit_us", "us", "lower"),
    ("serve.rtt_miss_us", "us", "lower"),
    ("serve.rtt_sweep_us", "us", "lower"),
    ("serve.infn_share", "ratio", "higher"),
    ("serve.client_extra_us", "us", "lower"),
    // hec-serve: counts
    ("serve.allocs_hit", "count", "lower"),
    ("serve.alloc_bytes_hit", "count", "lower"),
    ("serve.allocs_miss", "count", "lower"),
    ("serve.csw_per_req", "count", "lower"),
    ("serve.sys_share", "ratio", "lower"),
    ("serve.iters_per_req", "ratio", "lower"),
    ("serve.hit_rate", "ratio", "higher"),
    ("serve.evictions_per_req", "ratio", "lower"),
    ("serve.rejected", "count", "lower"),
    // hec-cluster
    ("cluster.hash_ns", "ns", "lower"),
    ("cluster.owners_ns", "ns", "lower"),
    ("cluster.owners_diff_us", "us", "lower"),
    ("cluster.hop_us", "us", "lower"),
    ("cluster.hop_sweep_us", "us", "lower"),
    ("cluster.csw_per_req", "count", "lower"),
    ("cluster.failovers", "count", "lower"),
    ("cluster.retries", "count", "lower"),
    ("cluster.scale_up_ms", "ms", "lower"),
    ("cluster.drain_ms", "ms", "lower"),
    ("cluster.keys_moved", "count", "lower"),
    // generator / trace: validity, not performance
    ("gen.late_p99_us", "us", "lower"),
    ("gen.cpu_us_per_req", "us", "lower"),
    ("load.p90_us", "us", "lower"),
    ("load.p99_us", "us", "lower"),
    ("load.max_us", "us", "lower"),
    ("load.achieved_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
];

/// Whether a traced run of `w` measures the layer group with this prefix
/// (the text before the first `.`). This is the README's "does most of the
/// work → / does ~none ↛" table in executable form.
pub fn layer_runs_on(prefix: &str, w: Workload) -> bool {
    use Workload::*;
    match prefix {
        "host" | "trace" | "core" => true,
        "kernels" | "msim" | "lbmhd" | "gtc" | "fvcam" | "paratec" => w == AppsSolve,
        "arch" | "net" | "model" => w == ServeMiss,
        "serve" | "gen" | "load" => w != AppsSolve,
        "cluster" => w == ClusterMix,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hec_core::json::Json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .chain(Workload::ALL.iter().map(|w| (w.name(), "count")));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            let prefix = m.0.split('.').next().unwrap();
            assert!(
                Workload::ALL.iter().any(|&w| layer_runs_on(prefix, w)),
                "{} belongs to no workload",
                m.0
            );
        }
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Json::Obj(fields) = &doc else { panic!("BENCHMARK.json must be an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
            "exactly the contract's keys"
        );
        assert_eq!(doc.num_field("run_seconds").unwrap(), RUN_SECONDS as f64);
        let workloads: Vec<&str> = doc
            .field("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.str_field("name").unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name()));
        let e2e = doc.field("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j.str_field("name").unwrap(), m.name);
            assert_eq!(j.str_field("unit").unwrap(), m.unit);
            assert_eq!(j.str_field("better").unwrap(), m.better);
            assert_eq!(j.num_field("bound").unwrap(), m.bound);
        }
        let layers = doc.field("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(j.str_field("name").unwrap(), m.0);
            assert_eq!(j.str_field("unit").unwrap(), m.1);
            assert_eq!(j.str_field("better").unwrap(), m.2);
        }
    }
}
