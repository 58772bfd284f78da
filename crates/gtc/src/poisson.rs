//! Gyrokinetic Poisson solve on each poloidal plane.
//!
//! GTC solves the gyro-averaged Poisson equation plane by plane; in
//! normalized form we use the Padé-simplified operator
//!
//! ```text
//! (−ρ_s² ∇⊥² + 1) φ = ρ_charge
//! ```
//!
//! on the annulus with Dirichlet walls and periodic θ. Multiplying the
//! equation through by `r` makes the polar finite-difference operator
//! symmetric positive-definite in the plain dot product, so it is solved
//! by conjugate gradient (`kernels`).
//! The screened (+1) term makes the operator well-conditioned, which is
//! also why this phase is a small share of GTC's runtime (the paper: ~85 %
//! of the work is particle-related).

use kernels::solve::{conjugate_gradient, CgResult};

use crate::geometry::PoloidalGrid;

/// Laplacian scale ρ_s² of the screened operator.
pub const RHO_S2: f64 = 4.0e-3;

/// Applies `r·(−ρ_s²∇⊥² + 1)` in polar coordinates on the annular grid —
/// the r-weighted form whose finite-difference matrix is symmetric.
/// Dirichlet (zero) at the radial walls, periodic in θ.
pub fn apply_operator(grid: &PoloidalGrid, x: &[f64], y: &mut [f64]) {
    let (dr, dt) = (grid.dr(), grid.dtheta());
    let (np, nt) = (grid.mpsi, grid.mtheta);
    // Dirichlet walls: identity rows; the CG iterates stay zero there
    // because the RHS is zeroed too.
    let last = (np - 1) * nt;
    y[..nt].copy_from_slice(&x[..nt]);
    y[last..last + nt].copy_from_slice(&x[last..last + nt]);
    for i in 1..np - 1 {
        let r = grid.radius(i).max(1e-9);
        // r∇⊥² = ∂r(r ∂r) + 1/r ∂θθ, discretized flux-style: the
        // coefficient r_{i±1/2} is shared by rows i and i±1, which is
        // exactly what makes the matrix symmetric.
        let rp = r + 0.5 * dr;
        let rm = r - 0.5 * dr;
        let row = i * nt;
        for ix in row..row + nt {
            // Periodic θ neighbours.
            let jp = if ix + 1 == row + nt { row } else { ix + 1 };
            let jm = if ix == row { row + nt - 1 } else { ix - 1 };
            let d2r = (rp * (x[ix + nt] - x[ix]) - rm * (x[ix] - x[ix - nt])) / (dr * dr);
            let d2t = (x[jp] - 2.0 * x[ix] + x[jm]) / (r * dt * dt);
            y[ix] = -RHO_S2 * (d2r + d2t) + r * x[ix];
        }
    }
}

/// Solves the screened Poisson equation for one plane's charge density,
/// writing φ in place. Returns the CG iteration record.
pub fn solve_plane(grid: &PoloidalGrid, charge: &[f64], phi: &mut [f64], tol: f64) -> CgResult {
    // Scale the RHS by r (the symmetrizing weight) and ground the walls.
    let mut rhs = charge.to_vec();
    for i in 0..grid.mpsi {
        let r = grid.radius(i);
        for j in 0..grid.mtheta {
            rhs[grid.idx(i, j)] *= r;
        }
    }
    for j in 0..grid.mtheta {
        rhs[grid.idx(0, j)] = 0.0;
        rhs[grid.idx(grid.mpsi - 1, j)] = 0.0;
    }
    // Walls of the initial guess must be zero: the identity rows then keep
    // them zero through every CG iterate.
    for j in 0..grid.mtheta {
        phi[grid.idx(0, j)] = 0.0;
        phi[grid.idx(grid.mpsi - 1, j)] = 0.0;
    }
    conjugate_gradient(|x, y| apply_operator(grid, x, y), &rhs, phi, tol, 500)
}

/// Flops of one operator application (audited: ~15 per interior point).
pub fn operator_flops(grid: &PoloidalGrid) -> f64 {
    15.0 * ((grid.mpsi - 2) * grid.mtheta) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> PoloidalGrid {
        PoloidalGrid { mpsi: 17, mtheta: 32, r_inner: 0.1, r_outer: 0.9 }
    }

    #[test]
    fn operator_is_symmetric() {
        // ⟨Ax, y⟩ = ⟨x, Ay⟩ for random-ish vectors (SPD requirement of CG).
        let g = grid();
        let n = g.len();
        // Wall-zero vectors: symmetry holds on the Dirichlet subspace.
        let zero_walls = |mut v: Vec<f64>| {
            for j in 0..g.mtheta {
                v[g.idx(0, j)] = 0.0;
                v[g.idx(g.mpsi - 1, j)] = 0.0;
            }
            v
        };
        let x = zero_walls((0..n).map(|i| ((i * 37 % 101) as f64) * 0.01 - 0.5).collect());
        let y = zero_walls((0..n).map(|i| ((i * 53 % 97) as f64) * 0.01 - 0.4).collect());
        let mut ax = vec![0.0; n];
        let mut ay = vec![0.0; n];
        apply_operator(&g, &x, &mut ax);
        apply_operator(&g, &y, &mut ay);
        let xay: f64 = x.iter().zip(&ay).map(|(a, b)| a * b).sum();
        let yax: f64 = y.iter().zip(&ax).map(|(a, b)| a * b).sum();
        assert!((xay - yax).abs() < 1e-10 * xay.abs().max(1.0), "not symmetric: {xay} vs {yax}");
    }

    #[test]
    fn solve_recovers_manufactured_solution() {
        // Pick φ*, build ρ = Aφ*, solve, compare.
        let g = grid();
        let n = g.len();
        let mut phi_star = vec![0.0; n];
        for i in 1..g.mpsi - 1 {
            let r = g.radius(i);
            for j in 0..g.mtheta {
                let t = j as f64 * g.dtheta();
                // Vanishes at both walls; smooth in θ.
                phi_star[g.idx(i, j)] = ((r - g.r_inner) * (g.r_outer - r)) * (2.0 * t).cos();
            }
        }
        let mut rhs = vec![0.0; n];
        apply_operator(&g, &phi_star, &mut rhs);
        // solve_plane applies the r-weight itself, so hand it the
        // *unweighted* charge ρ = (Aφ*)/r.
        for i in 0..g.mpsi {
            let r = g.radius(i);
            for j in 0..g.mtheta {
                rhs[g.idx(i, j)] /= r;
            }
        }
        let mut phi = vec![0.0; n];
        let res = solve_plane(&g, &rhs, &mut phi, 1e-12);
        assert!(res.converged, "CG stalled: {res:?}");
        for (a, b) in phi.iter().zip(&phi_star) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn screened_operator_damps_long_wavelengths_weakly() {
        // With tiny ρ_s², A ≈ I on smooth fields: φ ≈ ρ for a gentle charge.
        let g = grid();
        let n = g.len();
        let mut charge = vec![0.0; n];
        for i in 1..g.mpsi - 1 {
            let r = g.radius(i);
            for j in 0..g.mtheta {
                charge[g.idx(i, j)] = (r - g.r_inner) * (g.r_outer - r);
            }
        }
        let mut phi = vec![0.0; n];
        let res = solve_plane(&g, &charge, &mut phi, 1e-10);
        assert!(res.converged);
        // Interior mid-annulus point: φ within ~25 % of ρ.
        let mid = g.idx(g.mpsi / 2, 0);
        assert!((phi[mid] - charge[mid]).abs() < 0.25 * charge[mid].abs());
    }

    #[test]
    fn walls_stay_grounded() {
        let g = grid();
        let charge = vec![1.0; g.len()];
        let mut phi = vec![0.0; g.len()];
        solve_plane(&g, &charge, &mut phi, 1e-10);
        for j in 0..g.mtheta {
            assert_eq!(phi[g.idx(0, j)], 0.0);
            assert_eq!(phi[g.idx(g.mpsi - 1, j)], 0.0);
        }
    }
}
