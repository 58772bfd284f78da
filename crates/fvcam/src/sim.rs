//! The FVCAM timestep driver and physics-package surrogate.
//!
//! One full step, matching the paper's §3.1 solution procedure:
//!
//! 1. **Dynamics** (latitude, level decomposition): halo exchange, then
//!    flux-form advection of the tracer fields on every local level, then
//!    the FFT polar filters;
//! 2. **Vertical coupling**: the geopotential-like column reduction over
//!    the `Pz` level groups of each latitude band;
//! 3. **Remap** (longitude, latitude decomposition): transpose, drift the
//!    Lagrangian surfaces, conservatively remap every column, transpose
//!    back;
//! 4. **Physics surrogate**: a column-local loop with the arithmetic mix
//!    of a physics package (exponentials, divisions), optionally load
//!    imbalanced the way day/night radiation is.

use hec_core::pool::Threads;
use hec_core::probe::{self, Counters};
use msim::Comm;

use crate::advect::{advect_meridional_with, advect_zonal_with, block_mass, FLOPS_PER_CELL};
use crate::decomp::{exchange_lat_halos, transpose_to_columns, transpose_to_levels, Decomp};
use crate::grid::{LevelBlock, SphereGrid};
use crate::polar::PolarFilter;
use crate::vertical::{drift_edges, remap_column, remap_flops};

/// Flops per column per level of the physics surrogate (audited from
/// `physics_column`: one exp, one sqrt, one divide ≈ 20 slots plus the
/// local algebra ≈ 12).
pub const PHYSICS_FLOPS_PER_POINT: f64 = 32.0;

/// Parameters of an FVCAM run.
#[derive(Clone, Copy, Debug)]
pub struct FvParams {
    /// Longitude points.
    pub nlon: usize,
    /// Latitude points.
    pub nlat: usize,
    /// Vertical levels.
    pub nlev: usize,
    /// Vertical groups (`pz = 1` gives the 1D decomposition).
    pub pz: usize,
    /// Solid-body rotation Courant number at the equator.
    pub courant: f64,
    /// Shared-memory workers per rank (`0` = resolve from `HEC_THREADS` or
    /// the machine's available parallelism).
    pub threads: usize,
}

impl Default for FvParams {
    fn default() -> Self {
        FvParams { nlon: 24, nlat: 19, nlev: 8, pz: 1, courant: 0.3, threads: 0 }
    }
}

/// Per-step instrumentation.
#[derive(Clone, Copy, Debug, Default)]
pub struct FvCounters {
    /// Cells advected.
    pub cells_advected: u64,
    /// Polar-filter rows transformed.
    pub rows_filtered: u64,
    /// Columns remapped.
    pub columns_remapped: u64,
    /// Halo bytes sent.
    pub halo_bytes: u64,
    /// Transpose bytes sent.
    pub transpose_bytes: u64,
}

/// One rank's share of an FVCAM run.
pub struct FvSim {
    /// Run parameters.
    pub params: FvParams,
    /// The global grid.
    pub grid: SphereGrid,
    /// The decomposition.
    pub decomp: Decomp,
    /// This rank.
    pub rank: usize,
    /// First global latitude row of the local band.
    pub lat0: usize,
    /// First global level of the local group.
    pub lev0: usize,
    /// Tracer field, one block per local level.
    pub q: Vec<LevelBlock>,
    /// Zonal Courant numbers (prescribed winds).
    pub cx: Vec<LevelBlock>,
    /// Meridional Courant numbers.
    pub cy: Vec<LevelBlock>,
    filter: PolarFilter,
    /// Shared-memory worker handle used by the advection passes.
    pub threads: Threads,
    /// Instrumentation counters.
    pub counters: FvCounters,
    step_index: u64,
}

impl FvSim {
    /// Sets up the decomposition and the initial condition (a mid-latitude
    /// cosine-bell tracer in solid-body rotation — the classic FV dycore
    /// test, and the flow regime behind the paper's Figure 1 storms).
    pub fn new(params: FvParams, rank: usize, nprocs: usize) -> Self {
        let grid = SphereGrid::new(params.nlon, params.nlat, params.nlev);
        let decomp =
            if params.pz == 1 { Decomp::one_d(nprocs) } else { Decomp::two_d(nprocs, params.pz) };
        assert_eq!(decomp.nprocs(), nprocs);
        let (jz, jy) = decomp.coords(rank);
        let (lat0, nlat_loc) = decomp.lat_band(grid.nlat, jy);
        let (lev0, nlev_loc) = decomp.lev_group(grid.nlev, jz);

        let mk = |f: &dyn Fn(usize, usize, usize) -> f64| -> Vec<LevelBlock> {
            (0..nlev_loc)
                .map(|k| {
                    let mut b = LevelBlock::zeros(grid.nlon, nlat_loc, 2);
                    for j in 0..nlat_loc {
                        for i in 0..grid.nlon {
                            *b.get_mut(j as isize, i) = f(lev0 + k, lat0 + j, i);
                        }
                    }
                    b
                })
                .collect()
        };

        let q = mk(&|k, j, i| {
            // Cosine bell centered at (90°E, 30°N), amplitude varying by level.
            let lon = grid.longitude(i);
            let lat = grid.latitude(j);
            let d =
                ((lon - std::f64::consts::FRAC_PI_2).powi(2) + ((lat - 0.5).powi(2)) * 4.0).sqrt();
            let bell =
                if d < 0.8 { 0.5 * (1.0 + (std::f64::consts::PI * d / 0.8).cos()) } else { 0.0 };
            bell * (1.0 + 0.1 * k as f64)
        });
        // Solid-body rotation: constant angular velocity → cx constant in
        // Courant units along each row; cy = 0.
        let cx = mk(&|_, _, _| params.courant);
        let cy = mk(&|_, _, _| 0.0);

        FvSim {
            filter: PolarFilter::new(grid.nlon),
            threads: Threads::from_config(params.threads),
            params,
            grid,
            decomp,
            rank,
            lat0,
            lev0,
            q,
            cx,
            cy,
            counters: FvCounters::default(),
            step_index: 0,
        }
    }

    /// Physics surrogate for one column: radiation-flavored arithmetic.
    fn physics_column(&self, col: &mut [f64], lat: f64) {
        let insolation = lat.cos().max(0.0);
        for v in col.iter_mut() {
            let heating = insolation * (1.0 - (-v.abs()).exp());
            let cooling = 0.01 * (1.0 + v.abs()).sqrt();
            *v += 1e-3 * (heating - cooling) / (1.0 + v.abs());
        }
    }

    /// One full timestep: dynamics + polar filter + vertical coupling +
    /// remap (with transposes) + physics.
    pub fn step(&mut self, comm: &mut Comm) {
        let tag = 1000 + self.step_index * 16;
        self.step_index += 1;

        // --- Dynamics: halos for q (winds are constant; their halos were
        // filled once at construction... fill every step for generality).
        self.counters.halo_bytes +=
            exchange_lat_halos(comm, &self.decomp, &mut self.q, self.rank, tag) as u64;
        self.counters.halo_bytes +=
            exchange_lat_halos(comm, &self.decomp, &mut self.cx, self.rank, tag + 1) as u64;
        self.counters.halo_bytes +=
            exchange_lat_halos(comm, &self.decomp, &mut self.cy, self.rank, tag + 2) as u64;
        let nlev_loc = self.q.len();
        let cells0 = self.counters.cells_advected;
        let rows0 = self.counters.rows_filtered;
        for k in 0..nlev_loc {
            advect_zonal_with(&self.threads, &mut self.q[k], &self.cx[k]);
        }
        // The meridional pass reads neighbor rows, which the zonal pass
        // just changed — refresh the halos in between.
        self.counters.halo_bytes +=
            exchange_lat_halos(comm, &self.decomp, &mut self.q, self.rank, tag + 6) as u64;
        for k in 0..nlev_loc {
            self.counters.cells_advected += advect_meridional_with(
                &self.threads,
                &self.grid,
                &mut self.q[k],
                &self.cy[k],
                self.lat0,
            ) as u64;
            self.counters.rows_filtered +=
                self.filter.apply(&self.grid, &mut self.q[k], self.lat0) as u64;
        }
        // Advection events from the audited per-cell constant × the cells
        // actually advected; the vectorizable loop is one latitude row.
        let cells = self.counters.cells_advected - cells0;
        probe::count(
            "fvcam/fv dynamics",
            Counters {
                flops: cells * FLOPS_PER_CELL as u64,
                unit_stride_bytes: cells * 48,
                gather_scatter_bytes: cells * 2,
                vector_iters: cells,
                vector_loops: cells / self.grid.nlon.max(1) as u64,
                ..Default::default()
            },
        );
        // Filter flops per row are 2 FFTs + the damping scale; non-integral
        // for non-power-of-two nlon, so round once at step granularity.
        let rows = self.counters.rows_filtered - rows0;
        probe::count(
            "fvcam/polar filter FFTs",
            Counters {
                flops: (rows as f64 * self.filter.flops_per_row()).round() as u64,
                unit_stride_bytes: rows * self.grid.nlon as u64 * 64,
                vector_iters: rows * self.grid.nlon as u64,
                vector_loops: rows,
                ..Default::default()
            },
        );

        // --- Vertical coupling: a geopotential-like reduction over the Pz
        // level groups of this latitude band (sub-communicator Allreduce in
        // real FVCAM; pairwise here to keep the Figure-2 pattern visible).
        // The model state does not use the reduced value: the exchange is
        // kept for its traffic, which Figure 2 measures.
        if self.decomp.pz > 1 {
            let (jz, jy) = self.decomp.coords(self.rank);
            let local_sum: f64 = self.q.iter().map(|b| block_mass(&self.grid, b, self.lat0)).sum();
            for kz in (0..self.decomp.pz).filter(|&kz| kz != jz) {
                let peer = self.decomp.rank_of(kz, jy);
                comm.sendrecv_f64(peer, peer, tag + 3, &[local_sum]);
            }
        }

        // --- Remap phase: transpose to columns, drift + remap, transpose
        // back (skipped entirely for 1-rank-per-band... no: the remap is
        // always performed; only the transposes vanish when pz == 1).
        let (mut cols, sent) =
            transpose_to_columns(comm, &self.grid, &self.decomp, &self.q, self.rank, tag + 4);
        self.counters.transpose_bytes += sent as u64;
        let cols0 = self.counters.columns_remapped;
        let ref_edges: Vec<f64> =
            (0..=self.grid.nlev).map(|k| k as f64 / self.grid.nlev as f64).collect();
        let drift: Vec<f64> = (0..=self.grid.nlev)
            .map(|k| 0.02 * ((k * 5) as f64 + self.step_index as f64).sin())
            .collect();
        let lag_edges = drift_edges(&ref_edges, &drift);
        for j in 0..cols.nlat {
            for i in 0..cols.nlon {
                let col = cols.column(j, i);
                // Dynamics evolved on the Lagrangian surfaces; remap back.
                let remapped = remap_column(&lag_edges, &col, &ref_edges);
                cols.set_column(j, i, &remapped);
                self.counters.columns_remapped += 1;
            }
        }

        // --- Physics surrogate on the column block (column-local).
        for j in 0..cols.nlat {
            let lat = self.grid.latitude(self.lat0 + j);
            for i in 0..cols.nlon {
                let mut col = cols.column(j, i);
                self.physics_column(&mut col, lat);
                cols.set_column(j, i, &col);
            }
        }

        // Remap + physics are column-local; one column of nlev points is
        // the vectorizable unit.
        let ncols = self.counters.columns_remapped - cols0;
        let nlev = self.grid.nlev as u64;
        probe::count(
            "fvcam/remap + physics",
            Counters {
                flops: (ncols as f64
                    * (remap_flops(self.grid.nlev) + PHYSICS_FLOPS_PER_POINT * nlev as f64))
                    .round() as u64,
                unit_stride_bytes: ncols * nlev * 32,
                vector_iters: ncols * nlev,
                vector_loops: ncols,
                ..Default::default()
            },
        );

        self.counters.transpose_bytes += transpose_to_levels(
            comm,
            &self.grid,
            &self.decomp,
            &cols,
            &mut self.q,
            self.rank,
            tag + 5,
        ) as u64;
    }

    /// Runs `steps` timesteps.
    pub fn run(&mut self, comm: &mut Comm, steps: usize) {
        for _ in 0..steps {
            self.step(comm);
        }
    }

    /// Globally reduced tracer mass.
    pub fn global_mass(&self, comm: &mut Comm) -> f64 {
        let local: f64 = self.q.iter().map(|b| block_mass(&self.grid, b, self.lat0)).sum();
        comm.allreduce_sum_scalar(local)
    }

    /// Total flops executed by this rank so far.
    pub fn flops(&self) -> f64 {
        self.counters.cells_advected as f64 * FLOPS_PER_CELL
            + self.counters.rows_filtered as f64 * self.filter.flops_per_row()
            + self.counters.columns_remapped as f64
                * (remap_flops(self.grid.nlev) + PHYSICS_FLOPS_PER_POINT * self.grid.nlev as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_mass(params: FvParams, procs: usize, steps: usize) -> Vec<f64> {
        msim::run(procs, move |comm| {
            let mut sim = FvSim::new(params, comm.rank(), comm.size());
            let m0 = sim.global_mass(comm);
            sim.run(comm, steps);
            let m1 = sim.global_mass(comm);
            (m1 - m0).abs() / m0.abs().max(1e-300)
        })
        .unwrap()
    }

    #[test]
    fn advection_and_remap_conserve_mass_1d() {
        // Physics injects tiny tendencies; disable by comparing advection+
        // remap only is impossible here, so allow the small physics drift.
        let params = FvParams { courant: 0.4, ..Default::default() };
        for procs in [1usize, 3] {
            let drift = run_mass(params, procs, 3);
            for d in drift {
                assert!(d < 5e-3, "mass drift {d} too large (procs={procs})");
            }
        }
    }

    #[test]
    fn parallel_matches_serial_evolution() {
        // Same physics: the full field after N steps must agree between 1
        // rank and a 2D decomposition, to round-off.
        let params = FvParams { nlon: 16, nlat: 13, nlev: 4, courant: 0.3, ..Default::default() };
        let serial = msim::run(1, move |comm| {
            let mut sim = FvSim::new(params, comm.rank(), comm.size());
            sim.run(comm, 2);
            sim.q.iter().map(|b| b.data.clone()).collect::<Vec<_>>()
        })
        .unwrap();

        let params2 = FvParams { pz: 2, ..params };
        let par = msim::run(4, move |comm| {
            let mut sim = FvSim::new(params2, comm.rank(), comm.size());
            sim.run(comm, 2);
            // Return (lev0, lat0, interiors).
            let interiors: Vec<Vec<f64>> = sim
                .q
                .iter()
                .map(|b| (0..b.nlat).flat_map(|j| b.row(j as isize).to_vec()).collect())
                .collect();
            (sim.lev0, sim.lat0, sim.q[0].nlat, interiors)
        })
        .unwrap();

        for (lev0, lat0, nlat_loc, interiors) in par {
            for (kl, block) in interiors.iter().enumerate() {
                let k = lev0 + kl;
                for j in 0..nlat_loc {
                    for i in 0..params.nlon {
                        let want = serial[0][k][LevelBlock::zeros(params.nlon, params.nlat, 2)
                            .idx((lat0 + j) as isize, i)];
                        let got = block[j * params.nlon + i];
                        assert!(
                            (got - want).abs() < 1e-11,
                            "mismatch at k={k} j={} i={i}: {got} vs {want}",
                            lat0 + j
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bell_moves_eastward_under_solid_body_rotation() {
        let params = FvParams { nlon: 32, nlat: 17, nlev: 2, courant: 0.5, ..Default::default() };
        let centroids = msim::run(1, move |comm| {
            let mut sim = FvSim::new(params, comm.rank(), comm.size());
            let centroid = |sim: &FvSim| -> f64 {
                // Mass-weighted mean longitude index of level 0 (circular
                // mean to handle wraparound).
                let b = &sim.q[0];
                let (mut sx, mut sy) = (0.0, 0.0);
                for j in 0..b.nlat {
                    for i in 0..b.nlon {
                        let w = b.get(j as isize, i).max(0.0);
                        let ang = std::f64::consts::TAU * i as f64 / b.nlon as f64;
                        sx += w * ang.cos();
                        sy += w * ang.sin();
                    }
                }
                sy.atan2(sx).rem_euclid(std::f64::consts::TAU)
            };
            let c0 = centroid(&sim);
            sim.run(comm, 6);
            let c1 = centroid(&sim);
            (c0, c1)
        })
        .unwrap();
        let (c0, c1) = centroids[0];
        let moved = (c1 - c0).rem_euclid(std::f64::consts::TAU);
        // 6 steps at Courant 0.5 → 3 cells → 3/32 of a revolution.
        let want = 3.0 / 32.0 * std::f64::consts::TAU;
        assert!(
            (moved - want).abs() < 0.5 * want,
            "bell moved {moved:.3} rad, expected ≈ {want:.3}"
        );
    }

    #[test]
    fn counters_accumulate() {
        let params = FvParams::default();
        msim::run(2, move |comm| {
            let mut sim = FvSim::new(params, comm.rank(), comm.size());
            sim.run(comm, 2);
            assert!(sim.counters.cells_advected > 0);
            assert!(sim.counters.columns_remapped > 0);
            assert!(sim.counters.halo_bytes > 0);
            assert!(sim.flops() > 0.0);
        })
        .unwrap();
    }

    #[test]
    fn two_d_decomposition_transposes_data() {
        let params =
            FvParams { nlon: 16, nlat: 13, nlev: 8, pz: 2, courant: 0.2, ..Default::default() };
        msim::run(4, move |comm| {
            let mut sim = FvSim::new(params, comm.rank(), comm.size());
            sim.run(comm, 1);
            assert!(sim.counters.transpose_bytes > 0, "2D runs must transpose");
        })
        .unwrap();
    }
}
