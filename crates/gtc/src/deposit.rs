//! Gyro-averaged charge deposition (scatter).
//!
//! Each marker deposits its weight at four points on its gyro-ring, each
//! bilinearly interpolated onto the poloidal grid and linearly split
//! between the two adjacent toroidal planes — 32 randomly-located grid
//! updates per particle. This is the kernel the paper singles out (§4) as
//! the performance problem of PIC on both architecture families:
//!
//! * on cache machines, the scatter has no locality;
//! * on vector machines, two markers in the same vector register may hit
//!   the same grid point — a memory dependency that forbids vectorization.
//!
//! The **work-vector method** (Oliker et al. 2004, adopted by the paper)
//! gives every vector-register slot a private copy of the grid, scatters
//! without conflict, and reduces the copies afterwards. We implement both
//! paths; the replicated one is also what a threaded deposition uses.

use crate::geometry::PoloidalGrid;
use crate::particles::Particles;
use hec_core::pool::Threads;

/// Grid updates per marker: 4 gyro-ring points × 4 bilinear corners ×
/// 2 toroidal planes.
pub const SCATTER_POINTS: usize = 32;

/// Particles per private-grid chunk in [`deposit_threaded`]. The chunking
/// depends only on the particle count — never on the worker count — so
/// the fixed-order reduction gives bitwise-identical charge for any
/// `HEC_THREADS`.
pub const DEPOSIT_CHUNK: usize = 1024;

/// Cap on private grid copies: with enormous particle counts the chunks
/// grow instead of multiplying, bounding the replica memory the paper
/// flags as the work-vector method's cost.
const MAX_CHUNKS: usize = 64;

/// Flops per marker for deposition, audited from the kernel below: 4 ring
/// positions (4 adds + 4 trig ≈ 12) + per ring point: locate (6) + corner
/// weights (6) + 8 weighted adds with plane split (3 each = 24) → 4×36 + 12.
pub const FLOPS_PER_PARTICLE: f64 = 156.0;

/// Deposits markers' weights onto `charge` (per-plane arrays of one
/// toroidal domain). `zeta_lo`/`dzeta` describe the domain's local planes:
/// plane `z` sits at `zeta_lo + z·dzeta`; a marker between planes `z` and
/// `z+1` splits its charge linearly (the last local plane pairs with the
/// ghost plane `charge[mzeta]`, merged toroidally by the caller).
///
/// Returns the number of markers deposited.
pub fn deposit(
    grid: &PoloidalGrid,
    particles: &Particles,
    charge: &mut [Vec<f64>],
    zeta_lo: f64,
    dzeta: f64,
) -> usize {
    deposit_range(grid, particles, 0, particles.len(), charge, zeta_lo, dzeta);
    particles.len()
}

/// Deposits markers `lo..hi` — the scatter body shared by the serial,
/// work-vector, and threaded paths.
fn deposit_range(
    grid: &PoloidalGrid,
    particles: &Particles,
    lo: usize,
    hi: usize,
    charge: &mut [Vec<f64>],
    zeta_lo: f64,
    dzeta: f64,
) {
    let mzeta = charge.len() - 1; // last slot is the ghost plane
    for p in lo..hi {
        let fz = ((particles.zeta[p] - zeta_lo) / dzeta).clamp(0.0, mzeta as f64 - 1e-12);
        let z = (fz as usize).min(mzeta - 1);
        let wz = fz - z as f64;
        let w_particle = particles.weight[p] * 0.25; // split over 4 ring points
        let rho = particles.rho[p];
        // 4-point gyro-averaging ring.
        for ring in 0..4 {
            let angle = ring as f64 * std::f64::consts::FRAC_PI_2;
            let r = particles.r[p] + rho * angle.cos();
            let theta = particles.theta[p] + rho * angle.sin() / particles.r[p].max(1e-6);
            let ((i, j), (wr, wt)) = grid.locate(r, theta);
            let jp = (j + 1) % grid.mtheta;
            let c00 = (1.0 - wr) * (1.0 - wt) * w_particle;
            let c10 = wr * (1.0 - wt) * w_particle;
            let c01 = (1.0 - wr) * wt * w_particle;
            let c11 = wr * wt * w_particle;
            let (za, zb) = (z, z + 1);
            let (wa, wb) = (1.0 - wz, wz);
            for (cz, cw) in [(za, wa), (zb, wb)] {
                let plane = &mut charge[cz];
                plane[grid.idx(i, j)] += c00 * cw;
                plane[grid.idx(i + 1, j)] += c10 * cw;
                plane[grid.idx(i, jp)] += c01 * cw;
                plane[grid.idx(i + 1, jp)] += c11 * cw;
            }
        }
    }
}

/// The work-vector method made literal for threads: particles are split
/// into fixed-size chunks ([`DEPOSIT_CHUNK`], grown past `MAX_CHUNKS`
/// copies), each chunk scatters into a private copy of the charge grid
/// (conflict-free — no two chunks touch the same memory), and the copies
/// are reduced into `charge` in chunk order.
///
/// Determinism: the decomposition and the reduction order depend only on
/// the particle count, so the result is **bitwise identical for any
/// worker count** — including forced-serial. When the particles fit one
/// chunk the private copy is skipped and this *is* the serial
/// [`deposit`], bit for bit. Across the one-chunk/many-chunk boundary the
/// sums differ only by association (≤ 1 ulp per addend); the sim's
/// conservation tolerances absorb that.
///
/// Returns the number of markers deposited.
pub fn deposit_threaded(
    grid: &PoloidalGrid,
    particles: &Particles,
    charge: &mut [Vec<f64>],
    zeta_lo: f64,
    dzeta: f64,
    threads: &Threads,
) -> usize {
    let n = particles.len();
    let chunk = DEPOSIT_CHUNK.max(n.div_ceil(MAX_CHUNKS));
    if n <= chunk {
        return deposit(grid, particles, charge, zeta_lo, dzeta);
    }
    let planes = charge.len();
    let plane_len = charge[0].len();
    let nchunks = n.div_ceil(chunk);
    let tasks: Vec<_> = (0..nchunks)
        .map(|c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            move || {
                let mut private: Vec<Vec<f64>> =
                    (0..planes).map(|_| vec![0.0; plane_len]).collect();
                deposit_range(grid, particles, lo, hi, &mut private, zeta_lo, dzeta);
                private
            }
        })
        .collect();
    let partials = threads.par_tasks(tasks);
    // Fixed-order reduction: chunk 0, then 1, ... regardless of which
    // worker produced which partial.
    for part in &partials {
        for (z, plane) in part.iter().enumerate() {
            for (dst, src) in charge[z].iter_mut().zip(plane) {
                *dst += *src;
            }
        }
    }
    n
}

/// Work-vector deposition: scatters into `replicas` private grid copies
/// (round-robin over markers, the way vector-register slots would) and
/// reduces them into `charge`. Produces bit-different but numerically
/// equivalent sums; the memory cost is `replicas ×` the grid — the paper's
/// explanation of why GTC's vector ports need 2–8× more memory and cannot
/// also afford OpenMP grid copies.
///
/// Returns the number of markers deposited.
pub fn deposit_work_vector(
    grid: &PoloidalGrid,
    particles: &Particles,
    charge: &mut [Vec<f64>],
    zeta_lo: f64,
    dzeta: f64,
    replicas: usize,
) -> usize {
    assert!(replicas > 0, "need at least one replica");
    let mzeta = charge.len() - 1;
    let plane_len = grid.len();
    // Private copies: replicas × planes.
    let mut private: Vec<Vec<Vec<f64>>> =
        (0..replicas).map(|_| (0..=mzeta).map(|_| vec![0.0; plane_len]).collect()).collect();
    // Deal markers round-robin to replicas — the register-slot pattern.
    for (p, copy) in (0..particles.len()).map(|p| (p, p % replicas)) {
        let one = single_marker_view(particles, p);
        deposit(grid, &one, &mut private[copy], zeta_lo, dzeta);
    }
    // Reduction of the work-vector copies.
    for copy in &private {
        for (z, plane) in copy.iter().enumerate() {
            for (dst, src) in charge[z].iter_mut().zip(plane) {
                *dst += *src;
            }
        }
    }
    particles.len()
}

/// Borrowless single-marker view used by the work-vector path.
fn single_marker_view(p: &Particles, i: usize) -> Particles {
    let mut one = Particles::default();
    one.push(p.get(i));
    one
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particles::load_uniform;

    fn grid() -> PoloidalGrid {
        PoloidalGrid { mpsi: 12, mtheta: 24, r_inner: 0.1, r_outer: 0.9 }
    }

    fn empty_planes(g: &PoloidalGrid, mzeta: usize) -> Vec<Vec<f64>> {
        (0..=mzeta).map(|_| vec![0.0; g.len()]).collect()
    }

    #[test]
    fn deposition_conserves_total_charge() {
        let g = grid();
        let parts = load_uniform(500, 0.15, 0.85, 0.0, 1.0, 9);
        let mut charge = empty_planes(&g, 4);
        deposit(&g, &parts, &mut charge, 0.0, 0.25);
        let total: f64 = charge.iter().flatten().sum();
        assert!(
            (total - parts.total_weight()).abs() < 1e-9 * parts.total_weight(),
            "deposited {total} vs loaded {}",
            parts.total_weight()
        );
    }

    #[test]
    fn work_vector_matches_serial_deposition() {
        let g = grid();
        let parts = load_uniform(300, 0.15, 0.85, 0.0, 1.0, 4);
        let mut serial = empty_planes(&g, 2);
        deposit(&g, &parts, &mut serial, 0.0, 0.5);
        for replicas in [1usize, 4, 8] {
            let mut wv = empty_planes(&g, 2);
            deposit_work_vector(&g, &parts, &mut wv, 0.0, 0.5, replicas);
            for (a, b) in serial.iter().flatten().zip(wv.iter().flatten()) {
                assert!((a - b).abs() < 1e-10, "replicas={replicas}");
            }
        }
    }

    #[test]
    fn marker_on_plane_deposits_only_there() {
        let g = grid();
        let mut parts = crate::particles::Particles::default();
        // ζ exactly on plane 1 of a 3-plane domain with dζ = 0.5, ρ = 0.
        parts.push([0.5, 0.3, 0.5, 0.0, 2.0, 0.0]);
        let mut charge = empty_planes(&g, 3);
        deposit(&g, &parts, &mut charge, 0.0, 0.5);
        let per_plane: Vec<f64> = charge.iter().map(|p| p.iter().sum()).collect();
        assert!((per_plane[1] - 2.0).abs() < 1e-12, "{per_plane:?}");
        assert!(per_plane[0].abs() < 1e-12 && per_plane[2].abs() < 1e-12);
    }

    #[test]
    fn ghost_plane_collects_boundary_charge() {
        let g = grid();
        let mut parts = crate::particles::Particles::default();
        // ζ near the top of the wedge: most charge goes to the ghost plane.
        parts.push([0.5, 1.0, 0.95, 0.0, 1.0, 0.0]);
        let mut charge = empty_planes(&g, 2); // planes at ζ = 0, 0.5; ghost at 1.0
        deposit(&g, &parts, &mut charge, 0.0, 0.5);
        let ghost: f64 = charge[2].iter().sum();
        assert!((ghost - 0.9).abs() < 1e-12, "ghost got {ghost}");
    }

    #[test]
    fn scatter_points_constant_is_consistent() {
        assert_eq!(SCATTER_POINTS, 4 * 4 * 2);
    }

    #[test]
    fn threaded_deposit_is_bitwise_invariant_across_worker_counts() {
        let g = grid();
        // Enough markers to force several private-grid chunks.
        let parts = load_uniform(3 * DEPOSIT_CHUNK + 17, 0.15, 0.85, 0.0, 1.0, 21);
        let mut reference = empty_planes(&g, 3);
        deposit_threaded(&g, &parts, &mut reference, 0.0, 1.0 / 3.0, &Threads::serial());
        for workers in [2usize, 3, 4, 8] {
            let mut charge = empty_planes(&g, 3);
            deposit_threaded(&g, &parts, &mut charge, 0.0, 1.0 / 3.0, &Threads::new(workers));
            for (a, b) in reference.iter().flatten().zip(charge.iter().flatten()) {
                assert_eq!(a.to_bits(), b.to_bits(), "workers={workers}");
            }
        }
        // And the chunked sum agrees with the classic serial scatter to
        // round-off (association differs, values don't).
        let mut serial = empty_planes(&g, 3);
        deposit(&g, &parts, &mut serial, 0.0, 1.0 / 3.0);
        for (a, b) in serial.iter().flatten().zip(reference.iter().flatten()) {
            assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn binned_deposit_matches_unbinned_within_tolerance() {
        // Binning permutes the scatter order, so per-point sums differ only
        // by association: the identity oracle is a relative-1e-12 bound per
        // grid point (documented in EXPERIMENTS.md), not bit equality.
        let g = grid();
        let parts = load_uniform(2500, 0.15, 0.85, 0.0, 1.0, 33);
        let mut unbinned = empty_planes(&g, 3);
        deposit(&g, &parts, &mut unbinned, 0.0, 1.0 / 3.0);
        let mut sorted = parts.clone();
        assert!(sorted.bin_by_cell(&g) > 1);
        let mut binned = empty_planes(&g, 3);
        deposit(&g, &sorted, &mut binned, 0.0, 1.0 / 3.0);
        for (a, b) in unbinned.iter().flatten().zip(binned.iter().flatten()) {
            assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{a} vs {b}");
        }
        // Total deposited charge is unchanged to round-off.
        let ta: f64 = unbinned.iter().flatten().sum();
        let tb: f64 = binned.iter().flatten().sum();
        assert!((ta - tb).abs() < 1e-9 * ta.abs().max(1.0));
    }

    #[test]
    fn threaded_deposit_is_exactly_serial_below_one_chunk() {
        let g = grid();
        let parts = load_uniform(DEPOSIT_CHUNK / 2, 0.15, 0.85, 0.0, 1.0, 7);
        let mut serial = empty_planes(&g, 2);
        deposit(&g, &parts, &mut serial, 0.0, 0.5);
        let mut threaded = empty_planes(&g, 2);
        deposit_threaded(&g, &parts, &mut threaded, 0.0, 0.5, &Threads::new(4));
        for (a, b) in serial.iter().flatten().zip(threaded.iter().flatten()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
