//! Toroidal simulation geometry and field storage.
//!
//! The torus is discretized as `mzeta` poloidal planes (toroidal angle ζ),
//! each an annular (r, θ) grid of `mpsi × mtheta` points. GTC's field-line
//! coordinates make the potential quasi-2D along ζ, which is why the
//! toroidal direction never needs more than ~64 planes (paper §4.1) — the
//! physics, not the algorithm, caps the 1D domain decomposition.

use std::f64::consts::TAU;

/// `cos(ring·π/2)` of the four gyro-ring points: the exact bits libm
/// returns for `(ring as f64 * FRAC_PI_2).cos()` (π/2 rounds, so ring 1
/// is 6.1e-17, not 0), held as constants to keep libm out of the stencil.
pub(crate) const RING_COS: [f64; 4] = [1.0, 6.123233995736766e-17, -1.0, -1.8369701987210297e-16];

/// `sin(ring·π/2)` of the four gyro-ring points, bit for bit as libm.
pub(crate) const RING_SIN: [f64; 4] = [0.0, 1.0, 1.2246467991473532e-16, -1.0];

/// `x.rem_euclid(TAU)` bit for bit, without `rem_euclid`'s `fmod` call
/// for an x already in [0, 2π), as nearly every gyro-ring θ is.
#[inline(always)]
pub(crate) fn wrap_tau(x: f64) -> f64 {
    if (0.0..TAU).contains(&x) {
        x
    } else {
        x.rem_euclid(TAU)
    }
}

/// The annular poloidal grid shared by all planes.
#[derive(Clone, Copy, Debug)]
pub struct PoloidalGrid {
    /// Radial points (inner wall to outer wall).
    pub mpsi: usize,
    /// Poloidal points (periodic).
    pub mtheta: usize,
    /// Inner minor radius.
    pub r_inner: f64,
    /// Outer minor radius.
    pub r_outer: f64,
}

impl PoloidalGrid {
    /// Radial grid spacing.
    pub fn dr(&self) -> f64 {
        (self.r_outer - self.r_inner) / (self.mpsi - 1) as f64
    }

    /// Poloidal grid spacing in radians.
    pub fn dtheta(&self) -> f64 {
        std::f64::consts::TAU / self.mtheta as f64
    }

    /// Number of grid points per plane.
    pub fn len(&self) -> usize {
        self.mpsi * self.mtheta
    }

    /// True for a degenerate empty grid (never constructed in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index of radial index `i`, poloidal index `j` (periodic).
    #[inline(always)]
    pub fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.mpsi);
        i * self.mtheta + (j % self.mtheta)
    }

    /// Linear indices of the bilinear corners `(i, j), (i+1, j), (i, j+1),
    /// (i+1, j+1)` of the cell [`PoloidalGrid::locate`] returns; `j+1`
    /// wraps periodically with a branch, not a `%`.
    #[inline(always)]
    pub(crate) fn corners(&self, i: usize, j: usize) -> [usize; 4] {
        debug_assert!(i + 1 < self.mpsi && j < self.mtheta);
        let (row, jp) = (i * self.mtheta, if j + 1 == self.mtheta { 0 } else { j + 1 });
        [row + j, row + self.mtheta + j, row + jp, row + self.mtheta + jp]
    }

    /// Radius of radial index `i`.
    pub fn radius(&self, i: usize) -> f64 {
        self.r_inner + i as f64 * self.dr()
    }

    /// Maps a particle's `(r, θ)` to bilinear stencil weights:
    /// `((i, j), (wr, wt))` with the four corners `(i, j), (i+1, j),
    /// (i, j+1), (i+1, j+1)` weighted `(1−wr)(1−wt)` etc. `r` is clamped to
    /// the annulus.
    #[inline]
    pub fn locate(&self, r: f64, theta: f64) -> ((usize, usize), (f64, f64)) {
        let dr = self.dr();
        let rr = r.clamp(self.r_inner, self.r_outer - 1e-12 * dr);
        let fi = (rr - self.r_inner) / dr;
        let i = (fi as usize).min(self.mpsi - 2);
        let wr = fi - i as f64;
        let ft = wrap_tau(theta) / self.dtheta();
        let j = (ft as usize).min(self.mtheta - 1);
        let wt = ft - j as f64;
        ((i, j), (wr, wt))
    }
}

/// The toroidal safety-factor profile q(r): field-line twist used by the
/// particle push. A mild monotone profile like real tokamaks.
pub fn safety_factor(r: f64) -> f64 {
    0.85 + 2.2 * r * r
}

/// Per-plane scalar fields of one toroidal domain.
#[derive(Clone, Debug)]
pub struct Fields {
    /// The poloidal grid.
    pub grid: PoloidalGrid,
    /// Local toroidal planes.
    pub mzeta: usize,
    /// Charge density per plane (`mzeta` × grid.len()).
    pub charge: Vec<Vec<f64>>,
    /// Electrostatic potential per plane.
    pub phi: Vec<Vec<f64>>,
    /// Radial electric field per plane.
    pub e_r: Vec<Vec<f64>>,
    /// Poloidal electric field per plane.
    pub e_theta: Vec<Vec<f64>>,
}

impl Fields {
    /// Allocates zero-filled fields for `mzeta` local planes.
    pub fn new(grid: PoloidalGrid, mzeta: usize) -> Self {
        let z = || (0..mzeta).map(|_| vec![0.0; grid.len()]).collect::<Vec<_>>();
        Fields { grid, mzeta, charge: z(), phi: z(), e_r: z(), e_theta: z() }
    }

    /// Computes E = −∇φ on every plane (central differences; one-sided at
    /// the radial walls).
    pub fn electric_field_from_phi(&mut self) {
        let g = self.grid;
        let (dr, dt) = (g.dr(), g.dtheta());
        for z in 0..self.mzeta {
            let phi = &self.phi[z];
            let er = &mut self.e_r[z];
            let et = &mut self.e_theta[z];
            for i in 0..g.mpsi {
                let r = g.radius(i).max(1e-9);
                for j in 0..g.mtheta {
                    let ix = g.idx(i, j);
                    // Radial derivative.
                    let dphi_dr = if i == 0 {
                        (phi[g.idx(1, j)] - phi[ix]) / dr
                    } else if i == g.mpsi - 1 {
                        (phi[ix] - phi[g.idx(i - 1, j)]) / dr
                    } else {
                        (phi[g.idx(i + 1, j)] - phi[g.idx(i - 1, j)]) / (2.0 * dr)
                    };
                    // Poloidal derivative (periodic).
                    let jp = (j + 1) % g.mtheta;
                    let jm = (j + g.mtheta - 1) % g.mtheta;
                    let dphi_dt = (phi[g.idx(i, jp)] - phi[g.idx(i, jm)]) / (2.0 * dt);
                    er[ix] = -dphi_dr;
                    et[ix] = -dphi_dt / r;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> PoloidalGrid {
        PoloidalGrid { mpsi: 9, mtheta: 16, r_inner: 0.1, r_outer: 0.9 }
    }

    #[test]
    fn spacing_and_radius() {
        let g = grid();
        assert!((g.dr() - 0.1).abs() < 1e-15);
        assert!((g.radius(0) - 0.1).abs() < 1e-15);
        assert!((g.radius(8) - 0.9).abs() < 1e-15);
    }

    #[test]
    fn locate_interpolates_linearly() {
        let g = grid();
        let ((i, j), (wr, wt)) = g.locate(0.25, 0.0);
        assert_eq!(i, 1);
        assert!((wr - 0.5).abs() < 1e-12);
        assert_eq!(j, 0);
        assert!(wt.abs() < 1e-12);
    }

    #[test]
    fn locate_clamps_radius() {
        let g = grid();
        let ((i, _), (wr, _)) = g.locate(2.0, 0.0);
        assert_eq!(i, g.mpsi - 2);
        assert!(wr <= 1.0);
        let ((i0, _), (wr0, _)) = g.locate(0.0, 0.0);
        assert_eq!(i0, 0);
        assert_eq!(wr0, 0.0);
    }

    #[test]
    fn locate_wraps_theta() {
        let g = grid();
        let ((_, j1), _) = g.locate(0.5, 0.1);
        let ((_, j2), _) = g.locate(0.5, 0.1 + std::f64::consts::TAU);
        assert_eq!(j1, j2);
    }

    #[test]
    fn wrap_tau_matches_rem_euclid_bit_for_bit() {
        let below_4pi = f64::from_bits((2.0 * TAU).to_bits() - 1);
        let edges = [
            0.0,
            -0.0,
            TAU,
            -TAU,
            2.0 * TAU,
            below_4pi,
            -f64::MIN_POSITIVE,
            -1e-300,
            -1e-17,
            -f64::EPSILON,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e6,
            -1e6,
        ];
        let sweep = (-4000..4000).map(|k| k as f64 * 3.7e-3);
        for x in edges.into_iter().chain(sweep) {
            assert_eq!(wrap_tau(x).to_bits(), x.rem_euclid(TAU).to_bits(), "x = {x:e}");
        }
        // The tiny negatives round up to TAU itself, as rem_euclid does.
        assert_eq!(wrap_tau(-1e-17), TAU);
    }

    #[test]
    fn ring_tables_hold_libm_bits() {
        for ring in 0..4 {
            let angle = std::hint::black_box(ring as f64 * std::f64::consts::FRAC_PI_2);
            assert_eq!(RING_COS[ring].to_bits(), angle.cos().to_bits(), "cos, ring {ring}");
            assert_eq!(RING_SIN[ring].to_bits(), angle.sin().to_bits(), "sin, ring {ring}");
        }
    }

    #[test]
    fn corners_match_modular_indices() {
        let g = grid();
        for i in 0..g.mpsi - 1 {
            for j in 0..g.mtheta {
                let jp = (j + 1) % g.mtheta;
                let want = [g.idx(i, j), g.idx(i + 1, j), g.idx(i, jp), g.idx(i + 1, jp)];
                assert_eq!(g.corners(i, j), want, "cell ({i}, {j})");
            }
        }
    }

    #[test]
    fn electric_field_of_linear_potential_is_constant() {
        let g = grid();
        let mut f = Fields::new(g, 2);
        // φ = 3 r  →  E_r = −3, E_θ = 0.
        for z in 0..2 {
            for i in 0..g.mpsi {
                for j in 0..g.mtheta {
                    f.phi[z][g.idx(i, j)] = 3.0 * g.radius(i);
                }
            }
        }
        f.electric_field_from_phi();
        for z in 0..2 {
            for i in 0..g.mpsi {
                for j in 0..g.mtheta {
                    let ix = g.idx(i, j);
                    assert!((f.e_r[z][ix] + 3.0).abs() < 1e-12, "E_r at ({i},{j})");
                    assert!(f.e_theta[z][ix].abs() < 1e-12, "E_θ at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn safety_factor_is_monotone() {
        assert!(safety_factor(0.2) < safety_factor(0.8));
        assert!(safety_factor(0.0) > 0.0);
    }
}
