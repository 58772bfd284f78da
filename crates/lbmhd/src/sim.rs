//! Simulation driver: initial conditions, stepping, diagnostics.
//!
//! The canonical problem (paper §5, Figure 6) starts from well-defined
//! vorticity tubes — an Orszag–Tang-like configuration — and evolves
//! through the onset of turbulence. The driver runs one rank's block and
//! exchanges halos through `msim`; a 1-rank run wraps periodically and
//! needs no communicator partner, so the same code path serves the serial
//! examples and tests.

use hec_core::pool::Threads;
use msim::Comm;

use crate::collide::{step_with, FLOPS_PER_POINT};
use crate::decomp::{exchange_halos, local_extent, processor_grid, CartRank};
use crate::state::{set_equilibrium, Block, Moments};

/// Parameters of an LBMHD3D run.
#[derive(Clone, Copy, Debug)]
pub struct SimParams {
    /// Global grid extent (cubic: `n³` points).
    pub n: usize,
    /// Relaxation rate for the scalar (fluid) distributions, ω = 1/τ.
    pub omega: f64,
    /// Relaxation rate for the magnetic distributions.
    pub omega_m: f64,
    /// Perturbation amplitude of the initial vorticity tubes.
    pub amplitude: f64,
    /// Shared-memory workers per rank (`0` = resolve from `HEC_THREADS` or
    /// the machine's available parallelism).
    pub threads: usize,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams { n: 16, omega: 1.0, omega_m: 1.0, amplitude: 0.05, threads: 0 }
    }
}

/// Global diagnostics, reduced over all ranks.
#[derive(Clone, Copy, Debug, Default)]
pub struct Diagnostics {
    /// Total mass Σρ.
    pub mass: f64,
    /// Total momentum Σρu.
    pub momentum: [f64; 3],
    /// Total magnetic flux ΣB.
    pub flux: [f64; 3],
    /// Kinetic energy ½Σρu².
    pub kinetic_energy: f64,
    /// Magnetic energy ½ΣB².
    pub magnetic_energy: f64,
}

/// One rank's share of an LBMHD3D simulation.
pub struct Simulation {
    /// Run parameters.
    pub params: SimParams,
    /// This rank's Cartesian placement.
    pub cart: CartRank,
    /// Global origin of the local block.
    pub origin: [usize; 3],
    src: Block,
    dst: Block,
    /// One recycled halo face buffer per axis (see [`exchange_halos`]).
    face_bufs: [Vec<f64>; 3],
    /// Shared-memory worker handle used by the collide+stream kernel.
    pub threads: Threads,
    /// Lattice points updated so far (for flop accounting).
    pub points_updated: u64,
    /// Halo bytes sent so far.
    pub halo_bytes_sent: u64,
}

impl Simulation {
    /// Sets up the local block for `rank` of `nprocs` and applies the
    /// vorticity-tube initial condition.
    pub fn new(params: SimParams, rank: usize, nprocs: usize) -> Self {
        let dims = processor_grid(nprocs);
        let cart = CartRank::new(rank, dims);
        let ext: Vec<usize> =
            (0..3).map(|a| local_extent(params.n, dims[a], cart.coords[a])).collect();
        let mut origin = [0usize; 3];
        for a in 0..3 {
            origin[a] = (0..cart.coords[a]).map(|c| local_extent(params.n, dims[a], c)).sum();
        }
        let mut src = Block::zeros(ext[0], ext[1], ext[2]);
        let n = params.n as f64;
        let amp = params.amplitude;
        set_equilibrium(&mut src, |i, j, k| {
            let x = (origin[0] + i) as f64 / n * std::f64::consts::TAU;
            let y = (origin[1] + j) as f64 / n * std::f64::consts::TAU;
            let z = (origin[2] + k) as f64 / n * std::f64::consts::TAU;
            // Orszag–Tang-like vortex tubes threaded by a magnetic field.
            Moments {
                rho: 1.0,
                mom: [-amp * y.sin(), amp * x.sin(), amp * 0.5 * (x + y).sin()],
                b: [-amp * y.sin(), amp * (2.0 * x).sin(), amp * 0.5 * z.cos()],
            }
        });
        let dst = Block::zeros(ext[0], ext[1], ext[2]);
        Simulation {
            threads: Threads::from_config(params.threads),
            params,
            cart,
            origin,
            src,
            dst,
            face_bufs: Default::default(),
            points_updated: 0,
            halo_bytes_sent: 0,
        }
    }

    /// Read access to the current (source) block.
    pub fn block(&self) -> &Block {
        &self.src
    }

    /// Advances one timestep: halo exchange, then fused collide+stream.
    pub fn step(&mut self, comm: &Comm) {
        self.halo_bytes_sent +=
            exchange_halos(comm, &self.cart, &mut self.src, &mut self.face_bufs) as u64;
        let pts = step_with(
            &self.threads,
            &self.src,
            &mut self.dst,
            self.params.omega,
            self.params.omega_m,
        );
        self.points_updated += pts as u64;
        std::mem::swap(&mut self.src, &mut self.dst);
    }

    /// Runs `steps` timesteps.
    pub fn run(&mut self, comm: &Comm, steps: usize) {
        for _ in 0..steps {
            self.step(comm);
        }
    }

    /// Total flops this rank has executed.
    pub fn flops(&self) -> f64 {
        self.points_updated as f64 * FLOPS_PER_POINT
    }

    /// Local (unreduced) diagnostics.
    pub fn local_diagnostics(&self) -> Diagnostics {
        let mut d = Diagnostics::default();
        for k in 0..self.src.nz {
            for j in 0..self.src.ny {
                for i in 0..self.src.nx {
                    let m = self.src.moments(i, j, k);
                    d.mass += m.rho;
                    let u = m.velocity();
                    for a in 0..3 {
                        d.momentum[a] += m.mom[a];
                        d.flux[a] += m.b[a];
                    }
                    d.kinetic_energy += 0.5 * m.rho * (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]);
                    d.magnetic_energy +=
                        0.5 * (m.b[0] * m.b[0] + m.b[1] * m.b[1] + m.b[2] * m.b[2]);
                }
            }
        }
        d
    }

    /// Globally reduced diagnostics.
    pub fn diagnostics(&self, comm: &mut Comm) -> Diagnostics {
        let d = self.local_diagnostics();
        let mut v = vec![
            d.mass,
            d.momentum[0],
            d.momentum[1],
            d.momentum[2],
            d.flux[0],
            d.flux[1],
            d.flux[2],
            d.kinetic_energy,
            d.magnetic_energy,
        ];
        comm.allreduce_f64(msim::ReduceOp::Sum, &mut v);
        Diagnostics {
            mass: v[0],
            momentum: [v[1], v[2], v[3]],
            flux: [v[4], v[5], v[6]],
            kinetic_energy: v[7],
            magnetic_energy: v[8],
        }
    }

    /// The z-component of vorticity ω_z = ∂u_y/∂x − ∂u_x/∂y on the local
    /// block's `k`-th xy-plane (central differences, local points only) —
    /// the quantity contoured in the paper's Figure 6.
    pub fn vorticity_z_plane(&self, k: usize) -> Vec<f64> {
        let (nx, ny) = (self.src.nx, self.src.ny);
        let vel = |i: usize, j: usize| -> [f64; 3] { self.src.moments(i, j, k).velocity() };
        let mut out = vec![0.0; nx * ny];
        for j in 0..ny {
            for i in 0..nx {
                let ip = (i + 1) % nx;
                let im = (i + nx - 1) % nx;
                let jp = (j + 1) % ny;
                let jm = (j + ny - 1) % ny;
                let duy_dx = (vel(ip, j)[1] - vel(im, j)[1]) * 0.5;
                let dux_dy = (vel(i, jp)[0] - vel(i, jm)[0]) * 0.5;
                out[j * nx + i] = duy_dx - dux_dy;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_steps(n: usize, procs: usize, steps: usize) -> Vec<Diagnostics> {
        msim::run(procs, move |comm| {
            let params = SimParams { n, ..Default::default() };
            let mut sim = Simulation::new(params, comm.rank(), comm.size());
            sim.run(comm, steps);
            sim.diagnostics(comm)
        })
        .unwrap()
    }

    #[test]
    fn serial_run_conserves_invariants() {
        let d0 = run_steps(8, 1, 0)[0];
        let d5 = run_steps(8, 1, 5)[0];
        assert!((d0.mass - d5.mass).abs() < 1e-9 * d0.mass, "mass drift");
        for a in 0..3 {
            assert!((d0.momentum[a] - d5.momentum[a]).abs() < 1e-9, "momentum {a}");
            assert!((d0.flux[a] - d5.flux[a]).abs() < 1e-9, "flux {a}");
        }
    }

    #[test]
    fn parallel_matches_serial() {
        // The decomposition must not change the physics: diagnostics after
        // several steps must agree to round-off between 1 and 8 ranks.
        let serial = run_steps(8, 1, 4)[0];
        let par = run_steps(8, 8, 4)[0];
        assert!((serial.mass - par.mass).abs() < 1e-9);
        assert!(
            (serial.kinetic_energy - par.kinetic_energy).abs()
                < 1e-10 * serial.kinetic_energy.max(1e-30)
        );
        assert!(
            (serial.magnetic_energy - par.magnetic_energy).abs()
                < 1e-10 * serial.magnetic_energy.max(1e-30)
        );
    }

    #[test]
    fn every_decomposition_is_bitwise_the_serial_run() {
        // n = 9 makes every 2-way split uneven (5/4). Each rank returns its
        // origin, extents and interior distributions after 5 steps; every
        // one must equal the 1-rank run at the same global point bit for
        // bit — a face delivered in the wrong order or onto the wrong plane
        // would survive the reduced diagnostics above, not this.
        use crate::state::LANES;
        let n = 9;
        let run = |procs: usize| {
            msim::run(procs, move |comm| {
                let params = SimParams { n, ..Default::default() };
                let mut sim = Simulation::new(params, comm.rank(), comm.size());
                sim.run(comm, 5);
                let b = sim.block();
                let mut bits = Vec::with_capacity(LANES * b.interior_len());
                for lane in 0..LANES {
                    for k in 1..=b.nz {
                        for j in 1..=b.ny {
                            bits.extend((1..=b.nx).map(|i| b.at(lane, i, j, k).to_bits()));
                        }
                    }
                }
                (sim.origin, [b.nx, b.ny, b.nz], bits)
            })
            .unwrap()
        };
        let serial = run(1).remove(0).2;
        for procs in [2usize, 4, 8] {
            let mut points = 0;
            for (rank, (o, [nx, ny, nz], bits)) in run(procs).into_iter().enumerate() {
                let mut got = bits.into_iter();
                for lane in 0..LANES {
                    for k in 0..nz {
                        for j in 0..ny {
                            for i in 0..nx {
                                let global = ((lane * n + o[2] + k) * n + o[1] + j) * n + o[0] + i;
                                assert_eq!(
                                    got.next(),
                                    Some(serial[global]),
                                    "procs={procs} rank={rank} lane={lane} local=({i},{j},{k})"
                                );
                            }
                        }
                    }
                }
                points += nx * ny * nz;
            }
            assert_eq!(points, n * n * n, "procs={procs}: blocks must tile the grid");
        }
    }

    #[test]
    fn energy_decays_under_resistive_relaxation() {
        // With ω < 2 the scheme is dissipative: total (kinetic + magnetic)
        // energy must not grow.
        let d0 = run_steps(12, 1, 0)[0];
        let d = run_steps(12, 1, 20)[0];
        let e0 = d0.kinetic_energy + d0.magnetic_energy;
        let e1 = d.kinetic_energy + d.magnetic_energy;
        assert!(e1 <= e0 * (1.0 + 1e-12), "energy grew: {e0} -> {e1}");
        assert!(e1 > 0.0, "energy vanished entirely");
    }

    #[test]
    fn flop_accounting_matches_grid_size() {
        msim::run(2, |comm| {
            let params = SimParams { n: 8, ..Default::default() };
            let mut sim = Simulation::new(params, comm.rank(), comm.size());
            sim.run(comm, 3);
            // Each rank updates its own block 3 times.
            let pts = (sim.block().nx * sim.block().ny * sim.block().nz) as u64 * 3;
            assert_eq!(sim.points_updated, pts);
            assert!(sim.flops() > 0.0);
            assert!(sim.halo_bytes_sent > 0);
        })
        .unwrap();
    }

    #[test]
    fn vorticity_plane_has_structure() {
        let params = SimParams { n: 12, ..Default::default() };
        msim::run(1, move |comm| {
            let mut sim = Simulation::new(params, comm.rank(), comm.size());
            sim.run(comm, 2);
            let w = sim.vorticity_z_plane(0);
            let max = w.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
            assert!(max > 1e-6, "initial vortex tubes should induce vorticity");
        })
        .unwrap();
    }
}
