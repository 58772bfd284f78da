//! Flux-form upwind advection — the Lin–Rood kernel.
//!
//! One-dimensional van-Leer-limited upwind fluxes applied dimension by
//! dimension (longitude, then latitude), in flux form so tracer mass is
//! conserved to round-off. The scheme is "fundamentally one-sided
//! (upwind)" with limiter branches in every flux computation — the paper's
//! §3.1 explanation of why vectorizing FVCAM required hoisting the
//! latitude loops inward and pre-computing branch conditions.

use crate::grid::{LevelBlock, SphereGrid};
use hec_core::pool::Threads;

/// Flops per flux evaluation, audited from `flux_1d` below: upwind select
/// (2), van Leer slope (6), limiter (3), flux assembly (4).
pub const FLOPS_PER_FLUX: f64 = 15.0;

/// Flops per cell per 2D advection step: two flux evaluations per
/// direction plus the divergence update (4).
pub const FLOPS_PER_CELL: f64 = 2.0 * FLOPS_PER_FLUX + 2.0 * FLOPS_PER_FLUX + 8.0;

/// Van-Leer (monotonized central) slope of `q` given its neighbors.
#[inline(always)]
fn vanleer_slope(qm: f64, q0: f64, qp: f64) -> f64 {
    let d1 = q0 - qm;
    let d2 = qp - q0;
    if d1 * d2 <= 0.0 {
        0.0
    } else {
        let davg = 0.5 * (d1 + d2);
        let dmin = 2.0 * d1.abs().min(d2.abs());
        davg.signum() * davg.abs().min(dmin)
    }
}

/// Upwind flux through the interface between cells `q0` (left) and `q1`
/// (right), with their outer neighbors for the slope; `c` is the signed
/// Courant number at the interface.
#[inline(always)]
fn flux_1d(qmm: f64, q0: f64, q1: f64, qpp: f64, c: f64) -> f64 {
    if c >= 0.0 {
        let s = vanleer_slope(qmm, q0, q1);
        c * (q0 + 0.5 * s * (1.0 - c))
    } else {
        let s = vanleer_slope(q0, q1, qpp);
        c * (q1 - 0.5 * s * (1.0 + c))
    }
}

/// Zonal (periodic) advection pass: updates the interior rows in place.
/// Returns the number of interior cells updated. Halo rows are untouched —
/// callers must refresh them before the meridional pass.
pub fn advect_zonal(q: &mut LevelBlock, cx: &LevelBlock) -> usize {
    advect_zonal_with(&Threads::serial(), q, cx)
}

/// [`advect_zonal`] with the latitude lines split across workers — the
/// paper's line-parallel structure: a zonal flux row depends only on its
/// own latitude line, so every row is an independent task and the result
/// is **bitwise identical** to the serial pass for any worker count.
pub fn advect_zonal_with(threads: &Threads, q: &mut LevelBlock, cx: &LevelBlock) -> usize {
    assert!(q.halo >= 2, "advection needs 2 halo rows");
    let nlon = q.nlon;
    let nlat = q.nlat;
    let halo = q.halo;
    let interior = &mut q.data[halo * nlon..(halo + nlat) * nlon];
    threads.par_chunks_mut(interior, nlon, |j, row| {
        let crow = cx.row(j as isize);
        let mut fx = vec![0.0; nlon + 1];
        for i in 0..=nlon {
            let im2 = (i + nlon - 2) % nlon;
            let im1 = (i + nlon - 1) % nlon;
            let i0 = i % nlon;
            let ip1 = (i + 1) % nlon;
            // Courant number at the west face of cell i.
            let c = 0.5 * (crow[im1] + crow[i0]);
            fx[i] = flux_1d(row[im2], row[im1], row[i0], row[ip1], c);
        }
        for i in 0..nlon {
            row[i] -= fx[i + 1] - fx[i];
        }
    });
    nlat * nlon
}

/// Meridional advection pass with cos-latitude area weighting. Requires
/// halo rows consistent with the *current* (post-zonal) interior. The
/// area weights make the update conservative on the sphere:
/// `q_new·A = q·A − Δ(flux·A_face)`; pole faces carry zero flux.
pub fn advect_meridional(
    grid: &SphereGrid,
    q: &mut LevelBlock,
    cy: &LevelBlock,
    lat0: usize,
) -> usize {
    advect_meridional_with(&Threads::serial(), grid, q, cy, lat0)
}

/// [`advect_meridional`] with the latitude lines split across workers.
/// Interface fluxes are computed first from the frozen field (each
/// interface row an independent task), then interior rows update from
/// the flux table — both phases write disjoint rows, so the result is
/// **bitwise identical** to the serial pass for any worker count.
pub fn advect_meridional_with(
    threads: &Threads,
    grid: &SphereGrid,
    q: &mut LevelBlock,
    cy: &LevelBlock,
    lat0: usize,
) -> usize {
    assert!(q.halo >= 2, "advection needs 2 halo rows");
    let nlon = q.nlon;
    let nlat = q.nlat;
    let faces: Vec<usize> = (0..=nlat).collect();
    let q_ref = &*q;
    let fy: Vec<Vec<f64>> = threads.par_map(&faces, |&j| {
        let jj = j as isize; // interface between rows j-1 and j
        let glob = lat0 + j; // global index of the row north of the face
                             // Face weight: average of adjacent row weights; poles are closed.
        let w_face = if glob == 0 || glob >= grid.nlat {
            0.0
        } else {
            0.5 * (grid.coslat[glob - 1] + grid.coslat[glob])
        };
        let mut frow = vec![0.0; nlon];
        for (i, f) in frow.iter_mut().enumerate() {
            let c = 0.5 * (cy.get(jj - 1, i) + cy.get(jj, i));
            *f = w_face
                * flux_1d(
                    q_ref.get(jj - 2, i),
                    q_ref.get(jj - 1, i),
                    q_ref.get(jj, i),
                    q_ref.get(jj + 1, i),
                    c,
                );
        }
        frow
    });
    let halo = q.halo;
    let interior = &mut q.data[halo * nlon..(halo + nlat) * nlon];
    threads.par_chunks_mut(interior, nlon, |j, row| {
        let w_cell = grid.coslat[lat0 + j];
        for (i, v) in row.iter_mut().enumerate() {
            *v -= (fy[j + 1][i] - fy[j][i]) / w_cell;
        }
    });
    nlat * nlon
}

/// Both passes back to back — valid when the caller's halo rows remain
/// consistent through the zonal pass (single all-latitude block in the
/// serial tests; the parallel driver instead exchanges halos between the
/// passes). Returns the number of interior cells updated.
pub fn advect_level(
    grid: &SphereGrid,
    q: &mut LevelBlock,
    cx: &LevelBlock,
    cy: &LevelBlock,
    lat0: usize,
) -> usize {
    advect_zonal(q, cx);
    advect_meridional(grid, q, cy, lat0)
}

/// Total tracer mass (area-weighted sum) of a block's interior rows.
pub fn block_mass(grid: &SphereGrid, q: &LevelBlock, lat0: usize) -> f64 {
    let mut m = 0.0;
    for j in 0..q.nlat {
        let w = grid.area(lat0 + j);
        for i in 0..q.nlon {
            m += w * q.get(j as isize, i);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serial helper: fill halos periodically in longitude (implicit) and
    /// by mirroring across the poles in latitude (single block covering
    /// all latitudes).
    fn fill_polar_halo(q: &mut LevelBlock) {
        let nlat = q.nlat as isize;
        for h in 1..=(q.halo as isize) {
            for i in 0..q.nlon {
                // Pole mirror: the value across the pole is at the same
                // latitude, shifted half a revolution.
                let flip = (i + q.nlon / 2) % q.nlon;
                *q.get_mut(-h, i) = q.get(h - 1, flip);
                *q.get_mut(nlat - 1 + h, i) = q.get(nlat - h, flip);
            }
        }
    }

    fn setup(nlon: usize, nlat: usize) -> (SphereGrid, LevelBlock, LevelBlock, LevelBlock) {
        let grid = SphereGrid::new(nlon, nlat, 1);
        let q = LevelBlock::zeros(nlon, nlat, 2);
        let cx = LevelBlock::zeros(nlon, nlat, 2);
        let cy = LevelBlock::zeros(nlon, nlat, 2);
        (grid, q, cx, cy)
    }

    #[test]
    fn zero_wind_is_identity() {
        let (grid, mut q, cx, cy) = setup(16, 9);
        for j in 0..9 {
            for i in 0..16 {
                *q.get_mut(j as isize, i) = (i * 3 + j) as f64 * 0.1;
            }
        }
        let before = q.clone();
        fill_polar_halo(&mut q);
        advect_level(&grid, &mut q, &cx, &cy, 0);
        for j in 0..9 {
            for i in 0..16 {
                assert_eq!(q.get(j as isize, i), before.get(j as isize, i));
            }
        }
    }

    #[test]
    fn constant_field_is_preserved_under_uniform_zonal_flow() {
        // Flux-form advection preserves constants exactly when the wind is
        // non-divergent; uniform zonal flow is the divergence-free case on
        // this grid (constant meridional flow converges near the poles, as
        // it physically should).
        let (grid, mut q, mut cx, cy) = setup(24, 13);
        for j in -2..15isize {
            for i in 0..24 {
                *q.get_mut(j, i) = 7.5;
                *cx.get_mut(j, i) = 0.37;
            }
        }
        advect_level(&grid, &mut q, &cx, &cy, 0);
        for j in 0..13 {
            for i in 0..24 {
                assert!(
                    (q.get(j as isize, i) - 7.5).abs() < 1e-12,
                    "constancy broken at ({j},{i}): {}",
                    q.get(j as isize, i)
                );
            }
        }
    }

    #[test]
    fn zonal_advection_conserves_mass() {
        let (grid, mut q, mut cx, cy) = setup(32, 17);
        for j in 0..17 {
            for i in 0..32 {
                *q.get_mut(j as isize, i) =
                    (-((i as f64 - 16.0).powi(2)) / 20.0).exp() * (1.0 + j as f64 * 0.05);
            }
        }
        for j in -2..19isize {
            for i in 0..32 {
                *cx.get_mut(j, i) = 0.35;
            }
        }
        fill_polar_halo(&mut q);
        let m0 = block_mass(&grid, &q, 0);
        for _ in 0..10 {
            fill_polar_halo(&mut q);
            advect_level(&grid, &mut q, &cx, &cy, 0);
        }
        let m1 = block_mass(&grid, &q, 0);
        assert!((m0 - m1).abs() < 1e-10 * m0.abs().max(1.0), "{m0} vs {m1}");
    }

    #[test]
    fn zonal_advection_translates_a_pulse() {
        // Courant 0.5 for 8 steps moves the peak 4 cells east.
        let (grid, mut q, mut cx, cy) = setup(32, 5);
        let j_mid = 2isize;
        *q.get_mut(j_mid, 10) = 1.0;
        for j in -2..7isize {
            for i in 0..32 {
                *cx.get_mut(j, i) = 0.5;
            }
        }
        for _ in 0..8 {
            fill_polar_halo(&mut q);
            advect_level(&grid, &mut q, &cx, &cy, 0);
        }
        // Peak should now be at or next to column 14.
        let row = q.row(j_mid);
        let peak = row.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert!((peak as i64 - 14).abs() <= 1, "peak at {peak}, expected near 14: {row:?}");
    }

    #[test]
    fn limiter_prevents_new_extrema() {
        // Monotone initial data must stay within [min, max] (no over/
        // undershoots — the van Leer property).
        let (grid, mut q, mut cx, cy) = setup(32, 5);
        for j in 0..5 {
            for i in 0..32 {
                *q.get_mut(j as isize, i) = if (8..16).contains(&i) { 1.0 } else { 0.0 };
            }
        }
        for j in -2..7isize {
            for i in 0..32 {
                *cx.get_mut(j, i) = 0.3;
            }
        }
        for _ in 0..20 {
            fill_polar_halo(&mut q);
            advect_level(&grid, &mut q, &cx, &cy, 0);
        }
        for j in 0..5 {
            for i in 0..32 {
                let v = q.get(j as isize, i);
                assert!(v > -1e-12 && v < 1.0 + 1e-12, "over/undershoot {v} at ({j},{i})");
            }
        }
    }

    #[test]
    fn flux_flop_constant_is_positive() {
        assert!(FLOPS_PER_CELL > 30.0 && FLOPS_PER_CELL < 100.0);
    }

    #[test]
    fn threaded_advection_is_bitwise_serial() {
        let (grid, mut q, mut cx, mut cy) = setup(48, 37);
        for j in -2..39isize {
            for i in 0..48 {
                *q.get_mut(j, i) = ((i * 7 + (j + 2) as usize * 3) % 13) as f64 * 0.21;
                *cx.get_mut(j, i) = (((i + (j + 2) as usize) % 5) as f64 - 2.0) * 0.1;
                *cy.get_mut(j, i) = (((2 * i + (j + 2) as usize) % 7) as f64 - 3.0) * 0.07;
            }
        }
        let mut serial = q.clone();
        advect_level(&grid, &mut serial, &cx, &cy, 0);
        for workers in [1usize, 2, 4] {
            let mut par = q.clone();
            let threads = Threads::new(workers);
            advect_zonal_with(&threads, &mut par, &cx);
            advect_meridional_with(&threads, &grid, &mut par, &cy, 0);
            for (a, b) in serial.data.iter().zip(&par.data) {
                assert_eq!(a.to_bits(), b.to_bits(), "workers={workers}");
            }
        }
    }
}
