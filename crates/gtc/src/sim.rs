//! The GTC driver: two-level decomposition over msim.
//!
//! Level 1 (paper §4.1): a 1D **toroidal domain decomposition** into
//! `ndomains` wedges (physics caps this at ~64 — the electrostatic
//! potential is quasi-2D in field-line coordinates).
//!
//! Level 2 (the paper's new contribution, §4.1): a **particle
//! decomposition** — the markers inside each wedge are split over
//! `npe = P / ndomains` processes. Each process deposits its own markers;
//! the wedge's charge grid is then merged with an `Allreduce` over the
//! wedge sub-communicator (the added reduction cost the paper analyzes),
//! every process solves the wedge's Poisson planes redundantly (as real
//! GTC does), and markers that cross wedge boundaries are shifted to the
//! matching process of the neighbor wedge.

use hec_core::pool::Threads;
use hec_core::probe::{self, Counters};
use msim::{Comm, ReduceOp};

use crate::deposit::{deposit_threaded, FLOPS_PER_PARTICLE as DEPOSIT_FLOPS};
use crate::geometry::{Fields, PoloidalGrid};
use crate::particles::{load_uniform, Particles, ATTRS};
use crate::poisson::solve_plane;
use crate::push::{
    escapees, gather_threaded, push_threaded, GATHER_FLOPS_PER_PARTICLE, PUSH_FLOPS_PER_PARTICLE,
};

/// Parameters of a GTC run.
#[derive(Clone, Copy, Debug)]
pub struct GtcParams {
    /// Radial grid points per poloidal plane.
    pub mpsi: usize,
    /// Poloidal grid points per plane.
    pub mtheta: usize,
    /// Total toroidal planes around the torus.
    pub mzeta_total: usize,
    /// Toroidal domains (≤ mzeta_total; the paper uses 64).
    pub ndomains: usize,
    /// Markers per domain (split over the domain's processes).
    pub particles_per_domain: usize,
    /// Timestep.
    pub dt: f64,
    /// RNG seed base.
    pub seed: u64,
    /// Shared-memory workers per process (0 = auto: `HEC_THREADS` or the
    /// machine). Every threaded kernel is bitwise invariant in this.
    pub threads: usize,
}

impl Default for GtcParams {
    fn default() -> Self {
        GtcParams {
            mpsi: 12,
            mtheta: 24,
            mzeta_total: 8,
            ndomains: 4,
            particles_per_domain: 2000,
            dt: 0.02,
            seed: 1000,
            threads: 0,
        }
    }
}

/// Per-step instrumentation counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct GtcCounters {
    /// Markers deposited (sum over steps).
    pub deposited: u64,
    /// Markers gathered+pushed.
    pub pushed: u64,
    /// CG iterations across all plane solves.
    pub cg_iterations: u64,
    /// Markers shifted to toroidal neighbors.
    pub shifted: u64,
    /// Bytes sent in particle shifts.
    pub shift_bytes: u64,
}

/// One process's share of a GTC simulation.
pub struct GtcSim {
    /// Run parameters.
    pub params: GtcParams,
    /// This process's toroidal domain index.
    pub domain: usize,
    /// This process's rank within the domain (particle decomposition).
    pub sub_rank: usize,
    /// Processes per domain.
    pub npe: usize,
    /// Wedge bounds in ζ.
    pub zeta_lo: f64,
    /// Upper wedge bound in ζ.
    pub zeta_hi: f64,
    /// Local markers.
    pub particles: Particles,
    /// Wedge fields (replicated within the domain).
    pub fields: Fields,
    /// Sub-communicator of the domain (particle decomposition).
    sub: Comm,
    /// Shared-memory worker handle for the hot kernels.
    pub threads: Threads,
    /// Instrumentation.
    pub counters: GtcCounters,
}

impl GtcSim {
    /// Sets up decomposition, communicators, and the marker ensemble.
    ///
    /// # Panics
    /// Panics unless `ndomains` divides both the world size and
    /// `mzeta_total`.
    pub fn new(params: GtcParams, world: &mut Comm) -> Self {
        let p = world.size();
        assert!(p % params.ndomains == 0, "ndomains must divide the process count");
        assert!(
            params.mzeta_total % params.ndomains == 0,
            "toroidal planes must split evenly over domains"
        );
        let npe = p / params.ndomains;
        // Block mapping: domain-major, matching real GTC's layout where the
        // particle decomposition is the fast index.
        let domain = world.rank() / npe;
        let sub_rank = world.rank() % npe;
        let sub = world.split(domain as u64, sub_rank as u64);

        let grid =
            PoloidalGrid { mpsi: params.mpsi, mtheta: params.mtheta, r_inner: 0.1, r_outer: 0.9 };
        let wedge = std::f64::consts::TAU / params.ndomains as f64;
        let (zeta_lo, zeta_hi) = (domain as f64 * wedge, (domain + 1) as f64 * wedge);

        // Load the domain ensemble deterministically, then keep the strided
        // slice belonging to this sub-rank — the union over sub-ranks is
        // identical for every npe, which the tests exploit.
        let all = load_uniform(
            params.particles_per_domain,
            grid.r_inner,
            grid.r_outer,
            zeta_lo,
            zeta_hi,
            params.seed + domain as u64,
        );
        let mut particles = Particles::default();
        for i in (sub_rank..all.len()).step_by(npe) {
            particles.push(all.get(i));
        }

        let mzeta_local = params.mzeta_total / params.ndomains;
        let fields = Fields::new(grid, mzeta_local);
        GtcSim {
            params,
            domain,
            sub_rank,
            npe,
            zeta_lo,
            zeta_hi,
            particles,
            fields,
            sub,
            threads: Threads::from_config(params.threads),
            counters: GtcCounters::default(),
        }
    }

    /// World rank of the same sub-rank in the toroidal neighbor domain.
    fn neighbor_rank(&self, dir: i64) -> usize {
        let nd = self.params.ndomains as i64;
        let d = (self.domain as i64 + dir).rem_euclid(nd) as usize;
        d * self.npe + self.sub_rank
    }

    /// Local plane spacing in ζ.
    fn dzeta(&self) -> f64 {
        (self.zeta_hi - self.zeta_lo) / self.fields.mzeta as f64
    }

    /// One full PIC cycle: deposit → merge → solve → field → gather → push
    /// → shift.
    pub fn step(&mut self, world: &mut Comm) {
        let grid = self.fields.grid;
        let mzeta = self.fields.mzeta;
        let plane_len = grid.len();

        // --- Bin markers by poloidal cell so the scatter walks the charge
        // grid in memory order (the cache-machine cure for the paper's §4
        // scatter locality problem). The sort is a pure deterministic
        // reorder — worker-count invariance of the whole step is untouched.
        self.particles.bin_by_cell(&grid);

        // --- Charge deposition (scatter) into mzeta planes + ghost:
        // the work-vector method across threads (private grid copies,
        // fixed-order reduction — bitwise invariant in the worker count).
        let mut charge: Vec<Vec<f64>> = (0..=mzeta).map(|_| vec![0.0; plane_len]).collect();
        let deposited = deposit_threaded(
            &grid,
            &self.particles,
            &mut charge,
            self.zeta_lo,
            self.dzeta(),
            &self.threads,
        ) as u64;
        self.counters.deposited += deposited;
        // Deposition events from the audited per-marker constants × the
        // markers actually deposited — identical for any worker count.
        probe::count(
            "gtc/charge deposition",
            Counters {
                flops: deposited * DEPOSIT_FLOPS as u64,
                unit_stride_bytes: deposited * ATTRS as u64 * 8,
                gather_scatter_bytes: deposited * crate::deposit::SCATTER_POINTS as u64 * 16,
                gather_scatter_ops: deposited * crate::deposit::SCATTER_POINTS as u64,
                vector_iters: deposited,
                vector_loops: 1,
                ..Default::default()
            },
        );

        // --- Merge charge over the particle decomposition (the Allreduce
        // the paper's new algorithm introduces).
        if self.npe > 1 {
            let mut flat: Vec<f64> = charge.iter().flatten().copied().collect();
            self.sub.allreduce_f64(ReduceOp::Sum, &mut flat);
            for (z, plane) in charge.iter_mut().enumerate() {
                plane.copy_from_slice(&flat[z * plane_len..(z + 1) * plane_len]);
            }
        }

        // --- Toroidal ghost-plane fold: my ghost charge belongs to the next
        // domain's plane 0; theirs arrives for mine.
        if self.params.ndomains > 1 {
            let next = self.neighbor_rank(1);
            let prev = self.neighbor_rank(-1);
            let from_prev = world.sendrecv_f64(next, prev, 21, &charge[mzeta]);
            for (c, g) in charge[0].iter_mut().zip(&from_prev) {
                *c += *g;
            }
        } else {
            let ghost = charge[mzeta].clone();
            for (c, g) in charge[0].iter_mut().zip(&ghost) {
                *c += *g;
            }
        }
        self.fields.charge = charge;

        // --- Poisson solve on each local plane (redundant within the
        // domain, as in real GTC). The planes are independent, so they
        // run as one task each; each solve is the unchanged serial CG.
        let phis: Vec<Vec<f64>> = self.fields.phi[..mzeta].iter_mut().map(std::mem::take).collect();
        let charge_planes = &self.fields.charge;
        let results = self.threads.par_tasks(
            phis.into_iter()
                .enumerate()
                .map(|(z, mut phi)| {
                    move || {
                        let res = solve_plane(&grid, &charge_planes[z], &mut phi, 1e-8);
                        (phi, res.iterations)
                    }
                })
                .collect::<Vec<_>>(),
        );
        let mut step_cg = 0u64;
        for (z, (phi, iters)) in results.into_iter().enumerate() {
            step_cg += iters as u64;
            self.fields.phi[z] = phi;
        }
        self.counters.cg_iterations += step_cg;
        // Each CG iteration applies the 15-flop/point operator plus the
        // 10-flop/point vector updates and streams ~5 arrays per point.
        let per_cg = crate::poisson::operator_flops(&grid) as u64 + 10 * plane_len as u64;
        probe::count(
            "gtc/poisson solve",
            Counters {
                flops: step_cg * per_cg,
                unit_stride_bytes: step_cg * 40 * plane_len as u64,
                vector_iters: step_cg * plane_len as u64,
                vector_loops: step_cg,
                ..Default::default()
            },
        );

        // --- E = −∇φ, then fetch the ghost plane's field from the next
        // domain (its plane 0).
        self.fields.electric_field_from_phi();
        let (ghost_er, ghost_et) = if self.params.ndomains > 1 {
            let next = self.neighbor_rank(1);
            let prev = self.neighbor_rank(-1);
            let er = world.sendrecv_f64(prev, next, 22, &self.fields.e_r[0]);
            let et = world.sendrecv_f64(prev, next, 23, &self.fields.e_theta[0]);
            (er, et)
        } else {
            (self.fields.e_r[0].clone(), self.fields.e_theta[0].clone())
        };

        // --- Gather the field at the markers and push.
        let mut er_planes: Vec<Vec<f64>> = self.fields.e_r[..mzeta].to_vec();
        er_planes.push(ghost_er);
        let mut et_planes: Vec<Vec<f64>> = self.fields.e_theta[..mzeta].to_vec();
        et_planes.push(ghost_et);
        let field = gather_threaded(
            &grid,
            &self.particles,
            &er_planes,
            &et_planes,
            self.zeta_lo,
            self.dzeta(),
            &self.threads,
        );
        let pushed =
            push_threaded(&grid, &mut self.particles, &field, self.params.dt, &self.threads) as u64;
        self.counters.pushed += pushed;
        // The gather reads 64 stencil values per marker (2 components ×
        // 2 planes × 16 points); the push streams the marker arrays.
        probe::count(
            "gtc/field gather",
            Counters {
                flops: pushed * GATHER_FLOPS_PER_PARTICLE as u64,
                unit_stride_bytes: pushed * ATTRS as u64 * 8,
                gather_scatter_bytes: pushed * 64 * 8,
                gather_scatter_ops: pushed * 64,
                vector_iters: pushed,
                vector_loops: 1,
                ..Default::default()
            },
        );
        probe::count(
            "gtc/particle push",
            Counters {
                flops: pushed * PUSH_FLOPS_PER_PARTICLE as u64,
                unit_stride_bytes: pushed * ATTRS as u64 * 16,
                vector_iters: pushed,
                vector_loops: 1,
                ..Default::default()
            },
        );

        // --- Shift escaped markers to the toroidal neighbors.
        self.shift(world);
    }

    /// Sends markers that left the wedge to the neighbor domains and
    /// absorbs the arrivals. Markers always move at most one wedge per
    /// step (enforced by the CFL-ish dt), so one exchange suffices.
    fn shift(&mut self, world: &mut Comm) {
        if self.params.ndomains == 1 {
            return; // periodic wrap is implicit: ζ is already wrapped
        }
        let mut esc = escapees(&self.particles, self.zeta_lo, self.zeta_hi);
        let tau = std::f64::consts::TAU;
        // Remove in descending index order (swap_remove keeps lower indices
        // valid), classifying by direction as we go: ζ above the wedge goes
        // forward, below goes backward, accounting for the periodic seam.
        esc.sort_unstable_by(|a, b| b.cmp(a));
        let (mut fwd_buf, mut bwd_buf) = (Vec::new(), Vec::new());
        for p in esc {
            let z = self.particles.zeta[p];
            let delta = (z - self.zeta_lo).rem_euclid(tau);
            let attrs = self.particles.swap_remove(p);
            if delta < tau / 2.0 {
                fwd_buf.extend_from_slice(&attrs);
            } else {
                bwd_buf.extend_from_slice(&attrs);
            }
        }
        self.counters.shifted += ((fwd_buf.len() + bwd_buf.len()) / ATTRS) as u64;
        self.counters.shift_bytes += ((fwd_buf.len() + bwd_buf.len()) * 8) as u64;

        let next = self.neighbor_rank(1);
        let prev = self.neighbor_rank(-1);
        world.send_vec_f64(next, 31, fwd_buf);
        let from_prev = world.recv_f64(prev, 31);
        world.send_vec_f64(prev, 32, bwd_buf);
        let from_next = world.recv_f64(next, 32);
        self.particles.absorb(&from_prev);
        self.particles.absorb(&from_next);
    }

    /// Runs `steps` PIC cycles.
    pub fn run(&mut self, world: &mut Comm, steps: usize) {
        for _ in 0..steps {
            self.step(world);
        }
    }

    /// Total flops executed by this rank so far (deposit + gather + push +
    /// Poisson CG).
    pub fn flops(&self) -> f64 {
        let per_cg = crate::poisson::operator_flops(&self.fields.grid)
            + 10.0 * self.fields.grid.len() as f64;
        self.counters.deposited as f64 * DEPOSIT_FLOPS
            + self.counters.pushed as f64 * (GATHER_FLOPS_PER_PARTICLE + PUSH_FLOPS_PER_PARTICLE)
            + self.counters.cg_iterations as f64 * per_cg
    }

    /// Globally reduced (particle count, total weight).
    pub fn global_particle_stats(&self, world: &mut Comm) -> (f64, f64) {
        let mut v = vec![self.particles.len() as f64, self.particles.total_weight()];
        world.allreduce_f64(ReduceOp::Sum, &mut v);
        (v[0], v[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_config(params: GtcParams, procs: usize, steps: usize) -> Vec<(f64, f64)> {
        msim::run(procs, move |world| {
            let mut sim = GtcSim::new(params, world);
            sim.run(world, steps);
            sim.global_particle_stats(world)
        })
        .unwrap()
    }

    #[test]
    fn particle_count_is_conserved_across_shifts() {
        let params = GtcParams { particles_per_domain: 500, ..Default::default() };
        let total0 = (params.particles_per_domain * params.ndomains) as f64;
        for &(procs, steps) in &[(4usize, 5usize), (8, 5)] {
            let stats = run_config(params, procs, steps);
            for (count, _) in &stats {
                assert_eq!(*count, total0, "procs={procs}");
            }
        }
    }

    #[test]
    fn markers_stay_in_their_wedges() {
        let params = GtcParams { particles_per_domain: 300, ..Default::default() };
        msim::run(4, move |world| {
            let mut sim = GtcSim::new(params, world);
            sim.run(world, 4);
            for p in 0..sim.particles.len() {
                let z = sim.particles.zeta[p];
                assert!(
                    z >= sim.zeta_lo - 1e-12 && z < sim.zeta_hi + 1e-12,
                    "marker at ζ={z} outside wedge [{}, {})",
                    sim.zeta_lo,
                    sim.zeta_hi
                );
            }
        })
        .unwrap();
    }

    #[test]
    fn particle_decomposition_reproduces_single_pe_charge() {
        // npe = 1 vs npe = 2 with the same ensemble: the merged charge grid
        // must agree to round-off. This is the correctness core of the
        // paper's new decomposition.
        let params = GtcParams {
            ndomains: 2,
            mzeta_total: 4,
            particles_per_domain: 400,
            ..Default::default()
        };
        let charge1 = msim::run(2, move |world| {
            let mut sim = GtcSim::new(params, world);
            sim.step(world);
            sim.fields.charge.clone()
        })
        .unwrap();
        let charge2 = msim::run(4, move |world| {
            let mut sim = GtcSim::new(params, world);
            sim.step(world);
            (sim.domain, sim.fields.charge.clone())
        })
        .unwrap();
        // Compare domain 0's charge: rank 0 in the npe=1 run, ranks 0 and 1
        // in the npe=2 run (replicated within the domain).
        for (d, ch) in &charge2 {
            let reference = &charge1[*d];
            for (pa, pb) in reference.iter().zip(ch) {
                for (a, b) in pa.iter().zip(pb) {
                    assert!((a - b).abs() < 1e-9, "charge mismatch in domain {d}");
                }
            }
        }
    }

    #[test]
    fn shifts_actually_happen() {
        let params = GtcParams { particles_per_domain: 1000, dt: 0.05, ..Default::default() };
        let counters = msim::run(4, move |world| {
            let mut sim = GtcSim::new(params, world);
            sim.run(world, 5);
            sim.counters
        })
        .unwrap();
        let total_shifted: u64 = counters.iter().map(|c| c.shifted).sum();
        assert!(total_shifted > 0, "no toroidal particle traffic in 5 steps");
    }

    #[test]
    fn flop_accounting_is_positive_and_scales_with_steps() {
        let params = GtcParams { particles_per_domain: 200, ..Default::default() };
        let f = msim::run(4, move |world| {
            let mut sim = GtcSim::new(params, world);
            sim.run(world, 1);
            let f1 = sim.flops();
            sim.run(world, 1);
            (f1, sim.flops())
        })
        .unwrap();
        for (f1, f2) in f {
            assert!(f1 > 0.0);
            assert!(f2 > 1.5 * f1, "second step should add comparable flops");
        }
    }

    #[test]
    fn simulation_is_bitwise_identical_across_hec_threads() {
        // Determinism regression guard: the whole PIC loop — threaded
        // deposit, Poisson planes, gather, push — must produce
        // byte-for-byte identical state at HEC_THREADS=1 and =4.
        // particles_per_domain is chosen to force multiple private-grid
        // chunks in the threaded deposit.
        let params = GtcParams {
            ndomains: 2,
            mzeta_total: 4,
            particles_per_domain: 2500,
            threads: 0, // auto: resolves from HEC_THREADS below
            ..Default::default()
        };
        let run_at = |threads: &str| {
            std::env::set_var("HEC_THREADS", threads);
            msim::run(2, move |world| {
                let mut sim = GtcSim::new(params, world);
                sim.run(world, 3);
                let mut bits: Vec<u64> = Vec::new();
                for v in [
                    &sim.particles.r,
                    &sim.particles.theta,
                    &sim.particles.zeta,
                    &sim.particles.weight,
                ] {
                    bits.extend(v.iter().map(|x| x.to_bits()));
                }
                for plane in sim.fields.charge.iter().chain(sim.fields.phi.iter()) {
                    bits.extend(plane.iter().map(|x| x.to_bits()));
                }
                bits
            })
            .unwrap()
        };
        let serial = run_at("1");
        let threaded = run_at("4");
        std::env::remove_var("HEC_THREADS");
        assert_eq!(serial.len(), threaded.len());
        for (rank, (a, b)) in serial.iter().zip(&threaded).enumerate() {
            assert_eq!(a, b, "rank {rank} state diverged between 1 and 4 threads");
        }
    }

    #[test]
    fn five_steps_reproduce_golden_state_bits() {
        // Pins the exact bits of the marker state and of every charge and
        // potential plane after 5 steps at 2 ranks, with enough markers
        // for several private-grid deposit chunks. A rewrite of the
        // stencil arithmetic (deposit, gather, push, Poisson) that moves
        // any output bit fails here, with or without target-cpu=native.
        let params = GtcParams {
            ndomains: 2,
            mzeta_total: 4,
            particles_per_domain: 3 * crate::deposit::DEPOSIT_CHUNK + 300,
            threads: 1,
            ..Default::default()
        };
        let hashes = msim::run(2, move |world| {
            let mut sim = GtcSim::new(params, world);
            sim.run(world, 5);
            // FNV-1a over the little-endian bytes of every value.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let p = &sim.particles;
            for v in [&p.r, &p.theta, &p.zeta, &p.weight]
                .into_iter()
                .chain(sim.fields.charge.iter())
                .chain(sim.fields.phi.iter())
            {
                for x in v {
                    for b in x.to_bits().to_le_bytes() {
                        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
            h
        })
        .unwrap();
        assert_eq!(hashes, [0x9b0c_4f34_981c_0d6d, 0x0f15_da75_0341_09a8], "GTC state bits moved");
    }

    #[test]
    fn charge_is_conserved_globally() {
        // Total deposited charge across all domains equals total weight
        // (before the push changes weights).
        let params = GtcParams { particles_per_domain: 600, ..Default::default() };
        msim::run(4, move |world| {
            let mut sim = GtcSim::new(params, world);
            let w0 = sim.global_particle_stats(world).1;
            sim.step(world);
            // Sum plane 0..mzeta (ghost already folded into neighbor).
            let local: f64 = sim.fields.charge[..sim.fields.mzeta].iter().flatten().sum();
            // Each domain's charge is replicated npe times.
            let total = world.allreduce_sum_scalar(local) / sim.npe as f64;
            assert!((total - w0).abs() < 1e-6 * w0.abs(), "{total} vs {w0}");
        })
        .unwrap();
    }
}
