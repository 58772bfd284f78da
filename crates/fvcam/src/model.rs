//! Workload model for Table 3 (and Figures 3/4).
//!
//! Table 3 runs the D mesh (576 × 361 × 26) under three decompositions —
//! 1D latitude, 2D with Pz = 4, 2D with Pz = 7 — at 32…1680 processors.
//! Hybrid MPI/OpenMP enters exactly as the paper describes (§3.2): the
//! MPI rank count is limited by the ≥ 3-latitude-rows rule, so on the
//! platforms where OpenMP helped (Power3, ES) four threads share one
//! rank's subdomain, which also fattens the per-rank latitude band — the
//! mechanism that keeps the vectorized-FFT batch (and thus the vector
//! length) from collapsing.
//!
//! [`measured_workload`] writes each phase's flops and bytes from the
//! per-cell, per-filtered-row and per-column rates of one instrumented
//! run, and the decomposition's shape and communication in closed form.

use std::sync::OnceLock;

use hec_arch::capture::{recorded, Extensive};
use hec_arch::{CommEvent, PhaseProfile, WorkloadProfile};
use hec_core::probe::{self, Capture};

use crate::decomp::Decomp;
use crate::grid::SphereGrid;
use crate::polar::filtered_rows_global;
use crate::sim::{FvParams, FvSim};

/// One Table 3 configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FvConfig {
    /// Total processors.
    pub procs: usize,
    /// Vertical groups (1 = the 1D decomposition).
    pub pz: usize,
    /// OpenMP threads per MPI rank (1 or 4 in the paper).
    pub threads: usize,
}

/// The (decomposition, processor-count) grid of paper Table 3, with the
/// thread counts the paper found optimal where OpenMP was used.
pub fn table3_configs(threads: usize) -> Vec<FvConfig> {
    let mut v = Vec::new();
    for &p in &[32usize, 64, 128, 256] {
        v.push(FvConfig { procs: p, pz: 1, threads });
    }
    for &p in &[128usize, 256, 376, 512] {
        v.push(FvConfig { procs: p, pz: 4, threads });
    }
    for &p in &[336usize, 644, 672, 896, 1680] {
        v.push(FvConfig { procs: p, pz: 7, threads });
    }
    v
}

/// A grid with the one constant the model reads off it besides its
/// dimensions.
struct Mesh {
    grid: SphereGrid,
    /// Filtered latitude rows in one polar cap.
    cap_rows: usize,
}

impl Mesh {
    fn new(grid: SphereGrid) -> Mesh {
        let cap_rows = filtered_rows_global(&grid) / 2;
        Mesh { grid, cap_rows }
    }

    /// The D mesh, built once per process: its 361 `cos` calls would
    /// otherwise be most of the cost of evaluating a point.
    fn d() -> &'static Mesh {
        static D: OnceLock<Mesh> = OnceLock::new();
        D.get_or_init(|| Mesh::new(SphereGrid::d_mesh()))
    }
}

/// The pacing rank's block of one decomposition: rank 0's latitude band
/// (largest, and polar — it also carries the filter load), level group
/// and longitude chunk, with the work units the calibration rates scale
/// by.
struct Pacing {
    nlat_loc: usize,
    nlev_loc: usize,
    nlon_chunk: usize,
    decomp: Decomp,
    /// Advected cells.
    cells: f64,
    /// Filtered rows over all local levels.
    rows: f64,
    /// Remapped columns.
    columns: f64,
}

/// The pacing block of `config` on `mesh`. `None` when the configuration
/// is infeasible (fewer than 3 latitude rows per MPI rank, or a vertical
/// split finer than the level count) — the "—" entries of Table 3.
fn pacing_block(mesh: &Mesh, config: FvConfig) -> Option<Pacing> {
    let grid = &mesh.grid;
    let FvConfig { procs, pz, threads } = config;
    if procs % threads != 0 {
        return None;
    }
    let ranks = procs / threads;
    if ranks % pz != 0 || pz > grid.nlev {
        return None;
    }
    let decomp = if pz == 1 { Decomp::one_d(ranks) } else { Decomp::two_d(ranks, pz) };
    let (_, nlat_loc) = decomp.lat_band(grid.nlat, 0);
    if nlat_loc < 3 {
        return None; // the model's "three latitude lines" limit (§3.2)
    }
    let (_, nlev_loc) = decomp.lev_group(grid.nlev, 0);
    let (_, nlon_chunk) = decomp.lon_chunk(grid.nlon, 0);
    Some(Pacing {
        nlat_loc,
        nlev_loc,
        nlon_chunk,
        decomp,
        cells: (grid.nlon * nlat_loc * nlev_loc) as f64,
        // The pacing (polar) rank filters min(nlat_loc, rows-in-cap) rows
        // per level.
        rows: nlat_loc.min(mesh.cap_rows) as f64 * nlev_loc as f64,
        columns: (nlon_chunk * nlat_loc) as f64,
    })
}

/// One small instrumented run, cached process-wide: a latitude-reduced D
/// mesh (full 576-longitude lines and all 26 levels, so the per-row
/// filter cost and per-column remap cost are the production rates) on 4
/// ranks with a vertical split, one step.
pub fn calibration_capture() -> &'static Capture {
    static CAP: OnceLock<Capture> = OnceLock::new();
    CAP.get_or_init(|| {
        let params =
            FvParams { nlon: 576, nlat: 19, nlev: 26, pz: 2, courant: 0.3, ..Default::default() };
        let (_, cap) = probe::capture(|| {
            msim::run(4, move |comm| {
                let mut sim = FvSim::new(params, comm.rank(), comm.size());
                sim.step(comm);
            })
            .expect("FVCAM calibration run failed");
        });
        cap
    })
}

/// The per-processor workload of one configuration on the D mesh. Every
/// extensive field is a measured rate from [`calibration_capture`]:
/// per-cell for the dynamics, per-filtered-row for the polar FFTs,
/// per-column for remap+physics. Shape fields and communication events
/// are closed form. Returns `None` when the decomposition is infeasible
/// (fewer than 3 latitude rows per MPI rank, or a vertical split finer
/// than the level count) — the "—" entries of Table 3.
pub fn measured_workload(config: FvConfig) -> Option<WorkloadProfile> {
    measured(Mesh::d(), config)
}

/// [`measured_workload`] on any mesh.
fn measured(mesh: &Mesh, config: FvConfig) -> Option<WorkloadProfile> {
    let b = pacing_block(mesh, config)?;
    let grid = &mesh.grid;
    let Pacing { nlat_loc, nlev_loc, cells, rows, columns, .. } = b;
    let t = config.threads as f64;
    let cap = calibration_capture();
    // Calibration-unit denominators: cells from the innermost trip
    // count, rows and columns from the vector-loop (outer) counts.
    let rescaled = |phase: &str, target: f64, units: fn(&probe::Counters) -> u64| {
        let c = recorded(cap, phase);
        Extensive::rescale(&c, target, units(&c) as f64)
    };

    // --- Dynamics: flux-form advection over the local block. After the
    // §3.1 loop interchange the vector loops run over latitude, so the
    // vector length is the per-rank latitude count (threads widen it back).
    let m = rescaled("fvcam/fv dynamics", cells / t, |c| c.vector_iters);
    let dynamics = PhaseProfile {
        name: "fv dynamics".into(),
        flops: m.flops,
        unit_stride_bytes: m.unit_stride_bytes,
        gather_scatter_bytes: m.gather_scatter_bytes, // indirect-index lists
        // Pervasive upwind branches: the vector version pre-computes the
        // branch conditions and partitions via indirect indexing, leaving
        // a genuinely scalar remainder (§3.1).
        vector_fraction: 0.94,
        // The restructured code vectorizes over latitude batches within
        // full longitude lines; the usable trip count shrinks with the
        // band height.
        avg_vector_length: ((nlat_loc * 8) as f64).min(grid.nlon as f64),
        outer_parallelism: nlev_loc as f64,
        cacheable_fraction: 0.30,
        dense_fraction: 0.02,
        working_set_bytes: (grid.nlon * nlat_loc) as f64 * 8.0 * 4.0,
        concurrent_streams: 10.0,
    };

    // --- Polar filters: FFTs along full longitude lines, vectorized
    // *across* the filtered latitudes of this rank.
    let m = rescaled("fvcam/polar filter FFTs", rows / t, |c| c.vector_loops);
    let filter = PhaseProfile {
        name: "polar filter FFTs".into(),
        flops: m.flops,
        unit_stride_bytes: m.unit_stride_bytes,
        gather_scatter_bytes: m.gather_scatter_bytes,
        vector_fraction: 0.95,
        // Vectorized across FFTs: the batch is the filtered-row count. "No
        // workaround for this issue is apparent" (§3.1) — it shrinks with P.
        avg_vector_length: (rows / nlev_loc as f64).max(1.0),
        outer_parallelism: nlev_loc as f64,
        cacheable_fraction: 0.6,
        dense_fraction: 0.3,
        working_set_bytes: grid.nlon as f64 * 16.0 * 2.0,
        concurrent_streams: 4.0,
    };

    // --- Vertical remap + physics surrogate (column-local, in the
    // (longitude, latitude) decomposition).
    let m = rescaled("fvcam/remap + physics", columns / t, |c| c.vector_loops);
    let remap = PhaseProfile {
        name: "remap + physics".into(),
        flops: m.flops,
        unit_stride_bytes: m.unit_stride_bytes,
        gather_scatter_bytes: m.gather_scatter_bytes,
        // The remap's interval search is branch-heavy; physics is
        // loop-heavy with short vertical loops.
        vector_fraction: 0.85,
        avg_vector_length: (columns / 8.0).clamp(4.0, 256.0),
        outer_parallelism: f64::INFINITY,
        cacheable_fraction: 0.4,
        dense_fraction: 0.05,
        working_set_bytes: grid.nlev as f64 * 8.0 * 8.0,
        concurrent_streams: 6.0,
    };

    Some(WorkloadProfile {
        app: "FVCAM".into(),
        job_procs: config.procs,
        phases: vec![dynamics, filter, remap],
        comm: comm(grid, config, &b),
    })
}

/// Communication per MPI rank of the pacing block (threads share it).
fn comm(grid: &SphereGrid, config: FvConfig, b: &Pacing) -> Vec<CommEvent> {
    let &Pacing { nlat_loc, nlev_loc, nlon_chunk, decomp, .. } = b;
    let pz = config.pz;
    let mut comm = Vec::new();
    // Four halo exchanges per step (q twice, winds), two rows each. The
    // pacing (polar) rank has one real neighbor; its other side is the
    // local pole mirror.
    let neighbors =
        decomp.py.saturating_sub(1).min(1) as f64 + if decomp.py > 2 { 1.0 } else { 0.0 };
    let halo_bytes = (2 * grid.nlon * nlev_loc) as f64 * 8.0;
    if neighbors > 0.0 {
        for _ in 0..4 {
            comm.push(CommEvent::Halo { bytes: halo_bytes, neighbors });
        }
    }
    if pz > 1 {
        // Vertical coupling within the level-group column.
        comm.push(CommEvent::Allreduce { bytes: 64.0, procs: pz as f64 });
        // The two remap transposes among the pz ranks of a latitude band.
        let transpose_bytes = (nlev_loc * nlat_loc * (grid.nlon - nlon_chunk)) as f64 * 8.0;
        for _ in 0..2 {
            comm.push(CommEvent::Transpose { bytes_per_rank: transpose_bytes, procs: pz as f64 });
        }
    }
    comm
}

/// Simulated days per wall-clock day (Figure 4's metric) given the
/// predicted seconds per timestep. The D-mesh production configuration
/// takes `steps_per_day` dynamics steps per simulated day.
pub fn simulated_days_per_day(step_secs: f64, steps_per_day: f64) -> f64 {
    86_400.0 / (step_secs * steps_per_day)
}

/// Surrogate-step equivalents per simulated day for the D mesh: 480
/// dynamics steps (dt ≈ 180 s, the stability bound of the 0.5° core)
/// times ~30 — the work ratio between the full primitive-equation dycore
/// plus physics package (≈5 prognostic fields, multi-stage integration,
/// radiation/moist physics) and this mini-app's single-tracer surrogate
/// step. The ratio is a documented calibration constant: it scales
/// Figure 4's absolute simulated-days-per-day axis without touching any
/// relative comparison.
pub const D_MESH_STEPS_PER_DAY: f64 = 480.0 * 30.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advect::FLOPS_PER_CELL;
    use crate::polar::PolarFilter;
    use crate::sim::PHYSICS_FLOPS_PER_POINT;
    use crate::vertical::remap_flops;

    /// The hand-counted (flops, unit-stride bytes, gather/scatter bytes)
    /// of each phase of `config` on the D mesh, in phase order.
    fn analytic_oracle(config: FvConfig) -> [(f64, f64, f64); 3] {
        let grid = SphereGrid::d_mesh();
        let Pacing { cells, rows, columns, .. } = pacing_block(Mesh::d(), config).unwrap();
        let t = config.threads as f64;
        let nlev = grid.nlev as f64;
        let per_column = remap_flops(grid.nlev) + PHYSICS_FLOPS_PER_POINT * nlev;
        [
            (cells * FLOPS_PER_CELL / t, cells * 8.0 * 6.0 / t, cells * 8.0 * 0.25 / t),
            (
                rows * PolarFilter::new(grid.nlon).flops_per_row() / t,
                rows * grid.nlon as f64 * 16.0 * 4.0 / t,
                0.0,
            ),
            (columns * per_column / t, columns * nlev * 8.0 * 4.0 / t, 0.0),
        ]
    }

    #[test]
    fn halo_bytes_match_instrumented_run() {
        // The closed-form halo and transpose volumes must equal what the
        // real mini-app sent.
        let params =
            FvParams { nlon: 24, nlat: 19, nlev: 8, pz: 2, courant: 0.2, ..Default::default() };
        let grid = SphereGrid::new(params.nlon, params.nlat, params.nlev);
        let measured = msim::run(4, move |comm| {
            let mut sim = FvSim::new(params, comm.rank(), comm.size());
            sim.step(comm);
            (comm.rank(), sim.counters.halo_bytes, sim.counters.transpose_bytes)
        })
        .unwrap();
        let config = FvConfig { procs: 4, pz: 2, threads: 1 };
        let events = comm(&grid, config, &pacing_block(&Mesh::new(grid.clone()), config).unwrap());
        let analytic_halo: f64 = events
            .iter()
            .filter_map(|e| match e {
                CommEvent::Halo { bytes, neighbors } => Some(bytes * neighbors),
                _ => None,
            })
            .sum();
        let analytic_transpose: f64 = events
            .iter()
            .filter_map(|e| match e {
                CommEvent::Transpose { bytes_per_rank, .. } => Some(*bytes_per_rank),
                _ => None,
            })
            .sum();
        // Rank 0 is the pacing rank the model describes.
        let (_, halo, transpose) = measured[0];
        assert_eq!(halo as f64, analytic_halo, "halo bytes");
        assert_eq!(transpose as f64, analytic_transpose, "transpose bytes");
    }

    #[test]
    fn measured_workload_agrees_with_the_analytic_oracle() {
        // The calibration run executes full 576-point longitude lines and
        // all 26 levels, so its per-cell / per-row / per-column rates are
        // the production rates; only per-rank `.round()` rounding in the
        // instrumented kernels keeps this from being bitwise.
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1.0);
        for config in [
            FvConfig { procs: 32, pz: 1, threads: 1 },
            FvConfig { procs: 128, pz: 4, threads: 1 },
            FvConfig { procs: 256, pz: 1, threads: 4 },
        ] {
            let m = measured_workload(config).unwrap();
            for (pm, (flops, us, gs)) in m.phases.iter().zip(analytic_oracle(config)) {
                let name = &pm.name;
                assert!(rel(pm.flops, flops) <= 1e-6, "{name}: flops {} vs {flops}", pm.flops);
                assert!(
                    rel(pm.unit_stride_bytes, us) <= 1e-6,
                    "{name}: us bytes {} vs {us}",
                    pm.unit_stride_bytes
                );
                assert!(rel(pm.gather_scatter_bytes, gs) <= 1e-6, "{name}: gs bytes");
            }
        }
    }

    /// Every extensive and shape field of every phase, as bits.
    fn field_bits(w: &WorkloadProfile) -> Vec<[u64; 10]> {
        w.phases
            .iter()
            .map(|p| {
                [
                    p.flops,
                    p.unit_stride_bytes,
                    p.gather_scatter_bytes,
                    p.vector_fraction,
                    p.avg_vector_length,
                    p.cacheable_fraction,
                    p.dense_fraction,
                    p.working_set_bytes,
                    p.concurrent_streams,
                    p.outer_parallelism,
                ]
                .map(f64::to_bits)
            })
            .collect()
    }

    #[test]
    fn cached_d_mesh_constants_equal_freshly_computed_ones() {
        // A fresh grid with its constants computed anew, once here.
        let fresh = Mesh::new(SphereGrid::d_mesh());
        let (mut feasible, mut infeasible) = (0, 0);
        for procs in 1..=2048 {
            for pz in [1, 2, 4, 7] {
                for threads in [1, 4] {
                    let config = FvConfig { procs, pz, threads };
                    match (measured_workload(config), measured(&fresh, config)) {
                        (Some(a), Some(b)) => {
                            assert_eq!(field_bits(&a), field_bits(&b), "{config:?}");
                            assert_eq!(a.comm, b.comm, "{config:?}");
                            feasible += 1;
                        }
                        (None, None) => infeasible += 1,
                        _ => panic!("feasibility differs at {config:?}"),
                    }
                }
            }
        }
        assert!(feasible > 0 && infeasible > 0, "{feasible} feasible, {infeasible} not");
    }

    #[test]
    fn infeasible_decompositions_are_rejected() {
        // 1D with 256 pure-MPI ranks on 361 latitudes → 1-2 rows/rank: the
        // "three latitude lines" rule must reject it...
        assert!(measured_workload(FvConfig { procs: 256, pz: 1, threads: 1 }).is_none());
        // ...while 4 OpenMP threads make the same processor count legal,
        // exactly the paper's reason for hybrid parallelism on ES/Power3.
        assert!(measured_workload(FvConfig { procs: 256, pz: 1, threads: 4 }).is_some());
    }

    #[test]
    fn table3_configs_cover_all_rows() {
        let c1 = table3_configs(1);
        assert_eq!(c1.len(), 13);
        assert!(c1.iter().any(|c| c.procs == 1680 && c.pz == 7));
    }

    #[test]
    fn vector_length_shrinks_with_concurrency() {
        let w32 = measured_workload(FvConfig { procs: 32, pz: 1, threads: 1 }).unwrap();
        let w128 = measured_workload(FvConfig { procs: 128, pz: 1, threads: 1 }).unwrap();
        assert!(
            w32.phases[0].avg_vector_length > 2.0 * w128.phases[0].avg_vector_length,
            "the fixed-size problem must lose vector length as P grows"
        );
    }

    #[test]
    fn two_d_reduces_halo_volume_per_rank() {
        // Same processor count: the 2D decomposition owns fewer levels per
        // rank, so each halo message shrinks (the Figure 2 observation
        // about total volume).
        let w1d = measured_workload(FvConfig { procs: 128, pz: 1, threads: 1 }).unwrap();
        let w2d = measured_workload(FvConfig { procs: 128, pz: 4, threads: 1 }).unwrap();
        let halo = |w: &WorkloadProfile| -> f64 {
            w.comm
                .iter()
                .filter_map(|e| match e {
                    CommEvent::Halo { bytes, neighbors } => Some(bytes * neighbors),
                    _ => None,
                })
                .sum()
        };
        assert!(halo(&w2d) < halo(&w1d));
    }

    #[test]
    fn threads_scale_flops_down_but_not_comm() {
        let w1 = measured_workload(FvConfig { procs: 128, pz: 4, threads: 1 }).unwrap();
        let w4 = measured_workload(FvConfig { procs: 128, pz: 4, threads: 4 }).unwrap();
        // 4 threads → 32 MPI ranks → 8 ranks per level group → fatter
        // bands: more flops per rank but divided over 4 threads.
        assert!(w4.total_flops() < w1.total_flops() * 1.5);
        assert!(w4.phases[0].avg_vector_length > w1.phases[0].avg_vector_length);
    }

    #[test]
    fn sim_days_per_day_inverts_step_time() {
        let s = simulated_days_per_day(0.18, 480.0);
        assert!((s - 1000.0).abs() < 1.0);
        // The calibrated constant folds in the full-model work ratio.
        assert_eq!(D_MESH_STEPS_PER_DAY, 480.0 * 30.0);
    }
}
