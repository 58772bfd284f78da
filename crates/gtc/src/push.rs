//! Field gather and particle push.
//!
//! The gather mirrors the deposition stencil (4 gyro-ring points × bilinear
//! × 2 planes — random reads instead of random writes), then a second-order
//! Runge–Kutta step advances the gyro-center drift equations:
//!
//! ```text
//! dr/dt     = E_θ / B                    (E×B, radial)
//! dθ/dt     = −E_r / (B r) + v∥ q(r)/r   (E×B + field-line twist)
//! dζ/dt     = v∥ / R₀
//! dw/dt     = −κ · (E_θ/B)               (δf weight: radial drift × gradient)
//! ```
//!
//! with B = R₀ = 1 in normalized units and κ the background temperature
//! gradient drive.

use crate::geometry::{safety_factor, PoloidalGrid, RING_COS, RING_SIN};
use crate::particles::Particles;
use hec_core::pool::Threads;

/// Background gradient drive for the δf weight equation.
pub const KAPPA: f64 = 2.0;

/// Flops per marker per gather, audited from the paper's kernel
/// arithmetic: 4 ring points × (locate 6 + corner weights 6 + 2 fields ×
/// 8 weighted adds + plane blend 4) ≈ 4 × 28, plus the ring setup 12.
/// Fixed, like the deposit's count: the model's counters rest on it.
pub const GATHER_FLOPS_PER_PARTICLE: f64 = 124.0;

/// Flops per marker per RK2 push, audited from the paper's kernel
/// arithmetic (two derivative evaluations at ~20 flops plus the update).
/// Fixed, like the deposit's count: the model's counters rest on it.
pub const PUSH_FLOPS_PER_PARTICLE: f64 = 58.0;

/// Gathered electric field at each marker.
#[derive(Clone, Debug, Default)]
pub struct GatheredField {
    /// Radial field per marker.
    pub e_r: Vec<f64>,
    /// Poloidal field per marker.
    pub e_theta: Vec<f64>,
}

/// Gathers (E_r, E_θ) at every marker from the per-plane field arrays
/// using the gyro-averaged stencil. `e_r`/`e_theta` hold `mzeta + 1`
/// planes (the last being the ghost plane already synchronized by the
/// caller).
pub fn gather(
    grid: &PoloidalGrid,
    particles: &Particles,
    e_r: &[Vec<f64>],
    e_theta: &[Vec<f64>],
    zeta_lo: f64,
    dzeta: f64,
) -> GatheredField {
    let n = particles.len();
    let mut out = GatheredField { e_r: vec![0.0; n], e_theta: vec![0.0; n] };
    gather_range(grid, particles, 0, e_r, e_theta, zeta_lo, dzeta, &mut out.e_r, &mut out.e_theta);
    out
}

/// Gathers markers `lo..lo + out_r.len()` into the output slices (local
/// index 0 = marker `lo`) — the read stencil shared by the serial and
/// threaded paths.
#[allow(clippy::too_many_arguments)]
fn gather_range(
    grid: &PoloidalGrid,
    particles: &Particles,
    lo: usize,
    e_r: &[Vec<f64>],
    e_theta: &[Vec<f64>],
    zeta_lo: f64,
    dzeta: f64,
    out_r: &mut [f64],
    out_t: &mut [f64],
) {
    let mzeta = e_r.len() - 1;
    for local in 0..out_r.len() {
        let p = lo + local;
        let fz = ((particles.zeta[p] - zeta_lo) / dzeta).clamp(0.0, mzeta as f64 - 1e-12);
        let z = (fz as usize).min(mzeta - 1);
        let wz = fz - z as f64;
        let (r0, rho) = (particles.r[p], particles.rho[p]);
        let r_safe = r0.max(1e-6);
        let (ra, rb, ta, tb) = (&e_r[z], &e_r[z + 1], &e_theta[z], &e_theta[z + 1]);
        let mut acc_r = 0.0;
        let mut acc_t = 0.0;
        for ring in 0..4 {
            let r = r0 + rho * RING_COS[ring];
            let theta = particles.theta[p] + rho * RING_SIN[ring] / r_safe;
            let ((i, j), (wr, wt)) = grid.locate(r, theta);
            let c = [(1.0 - wr) * (1.0 - wt), wr * (1.0 - wt), (1.0 - wr) * wt, wr * wt];
            for (ix, w) in grid.corners(i, j).into_iter().zip(c) {
                let blend_r = (1.0 - wz) * ra[ix] + wz * rb[ix];
                let blend_t = (1.0 - wz) * ta[ix] + wz * tb[ix];
                acc_r += w * blend_r;
                acc_t += w * blend_t;
            }
        }
        out_r[local] = acc_r * 0.25;
        out_t[local] = acc_t * 0.25;
    }
}

/// [`gather`] with the markers split across workers. Every marker's
/// field is an independent pure read, and each worker writes a disjoint
/// range of the output, so the result is **bitwise identical** to the
/// serial gather for any worker count.
pub fn gather_threaded(
    grid: &PoloidalGrid,
    particles: &Particles,
    e_r: &[Vec<f64>],
    e_theta: &[Vec<f64>],
    zeta_lo: f64,
    dzeta: f64,
    threads: &Threads,
) -> GatheredField {
    let n = particles.len();
    let chunk = n.div_ceil(threads.workers()).max(1);
    if chunk >= n {
        return gather(grid, particles, e_r, e_theta, zeta_lo, dzeta);
    }
    let mut out = GatheredField { e_r: vec![0.0; n], e_theta: vec![0.0; n] };
    let tasks: Vec<_> = out
        .e_r
        .chunks_mut(chunk)
        .zip(out.e_theta.chunks_mut(chunk))
        .enumerate()
        .map(|(c, (gr, gt))| {
            move || gather_range(grid, particles, c * chunk, e_r, e_theta, zeta_lo, dzeta, gr, gt)
        })
        .collect();
    threads.par_tasks(tasks);
    out
}

/// Drift derivatives for one marker state.
#[inline]
fn derivs(r: f64, v_par: f64, e_r: f64, e_theta: f64) -> [f64; 4] {
    let r_safe = r.max(1e-6);
    let dr = e_theta; // E×B radial drift (B = 1)
    let dtheta = -e_r / r_safe + v_par * safety_factor(r) / r_safe;
    let dzeta = v_par; // R₀ = 1
    let dw = -KAPPA * e_theta;
    [dr, dtheta, dzeta, dw]
}

/// RK2 (midpoint) push of all markers with a frozen gathered field.
/// Radial positions reflect off the annulus walls; angles wrap.
/// Returns the number of markers pushed.
pub fn push(
    grid: &PoloidalGrid,
    particles: &mut Particles,
    field: &GatheredField,
    dt: f64,
) -> usize {
    let n = particles.len();
    let Particles { r, theta, zeta, v_par, weight, .. } = particles;
    push_range(grid, r, theta, zeta, weight, v_par, &field.e_r, &field.e_theta, dt);
    n
}

/// RK2 update of one slice of markers: all slices are equal-length views
/// at the same particle offset. This is the per-marker arithmetic shared
/// by the serial and threaded paths.
#[allow(clippy::too_many_arguments)]
fn push_range(
    grid: &PoloidalGrid,
    r: &mut [f64],
    theta: &mut [f64],
    zeta: &mut [f64],
    weight: &mut [f64],
    v_par: &[f64],
    e_r: &[f64],
    e_theta: &[f64],
    dt: f64,
) {
    let tau = std::f64::consts::TAU;
    for p in 0..r.len() {
        let (er, et) = (e_r[p], e_theta[p]);
        let r0 = r[p];
        let k1 = derivs(r0, v_par[p], er, et);
        let r_mid = r0 + 0.5 * dt * k1[0];
        let k2 = derivs(r_mid, v_par[p], er, et);
        let mut r_new = r0 + dt * k2[0];
        // Reflect at the annulus walls.
        if r_new < grid.r_inner {
            r_new = 2.0 * grid.r_inner - r_new;
        } else if r_new > grid.r_outer {
            r_new = 2.0 * grid.r_outer - r_new;
        }
        r[p] = r_new.clamp(grid.r_inner, grid.r_outer);
        // Not `geometry::wrap_tau`: a push takes θ out of [0, 2π) too
        // often for its range test to beat `fmod`.
        theta[p] = (theta[p] + dt * k2[1]).rem_euclid(tau);
        zeta[p] = (zeta[p] + dt * k2[2]).rem_euclid(tau);
        weight[p] += dt * k2[3];
    }
}

/// [`push`] with the markers split across workers. Each worker owns a
/// disjoint range of every mutated attribute array, and no marker reads
/// another's state, so the result is **bitwise identical** to the serial
/// push for any worker count.
pub fn push_threaded(
    grid: &PoloidalGrid,
    particles: &mut Particles,
    field: &GatheredField,
    dt: f64,
    threads: &Threads,
) -> usize {
    let n = particles.len();
    let chunk = n.div_ceil(threads.workers()).max(1);
    if chunk >= n {
        return push(grid, particles, field, dt);
    }
    let Particles { r, theta, zeta, v_par, weight, .. } = particles;
    let tasks: Vec<_> = r
        .chunks_mut(chunk)
        .zip(theta.chunks_mut(chunk))
        .zip(zeta.chunks_mut(chunk))
        .zip(weight.chunks_mut(chunk))
        .enumerate()
        .map(|(c, (((cr, ct), cz), cw))| {
            let lo = c * chunk;
            let hi = lo + cr.len();
            let vp = &v_par[lo..hi];
            let er = &field.e_r[lo..hi];
            let et = &field.e_theta[lo..hi];
            move || push_range(grid, cr, ct, cz, cw, vp, er, et, dt)
        })
        .collect();
    threads.par_tasks(tasks);
    n
}

/// Indices of markers whose ζ has left the wedge `[zeta_lo, zeta_hi)` —
/// the shift candidates for the toroidal particle exchange.
pub fn escapees(particles: &Particles, zeta_lo: f64, zeta_hi: f64) -> Vec<usize> {
    (0..particles.len())
        .filter(|&p| {
            let z = particles.zeta[p];
            z < zeta_lo || z >= zeta_hi
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particles::load_uniform;

    fn grid() -> PoloidalGrid {
        PoloidalGrid { mpsi: 12, mtheta: 24, r_inner: 0.1, r_outer: 0.9 }
    }

    fn zero_field(g: &PoloidalGrid, mzeta: usize) -> Vec<Vec<f64>> {
        (0..=mzeta).map(|_| vec![0.0; g.len()]).collect()
    }

    #[test]
    fn gather_of_uniform_field_is_exact() {
        let g = grid();
        let parts = load_uniform(200, 0.15, 0.85, 0.0, 1.0, 5);
        let er: Vec<Vec<f64>> = (0..=2).map(|_| vec![3.0; g.len()]).collect();
        let et: Vec<Vec<f64>> = (0..=2).map(|_| vec![-1.5; g.len()]).collect();
        let f = gather(&g, &parts, &er, &et, 0.0, 0.5);
        for p in 0..parts.len() {
            assert!((f.e_r[p] - 3.0).abs() < 1e-12);
            assert!((f.e_theta[p] + 1.5).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_field_push_streams_along_field_lines() {
        let g = grid();
        let mut parts = crate::particles::Particles::default();
        parts.push([0.5, 0.0, 0.0, 1.0, 1.0, 0.0]);
        let field = GatheredField { e_r: vec![0.0], e_theta: vec![0.0] };
        let dt = 0.01;
        push(&g, &mut parts, &field, dt);
        // ζ advances by v∥ dt, θ by v∥ q(r)/r dt; r and w unchanged.
        assert!((parts.zeta[0] - 0.01).abs() < 1e-12);
        let want_theta = 1.0 * safety_factor(0.5) / 0.5 * dt;
        assert!((parts.theta[0] - want_theta).abs() < 1e-12);
        assert_eq!(parts.r[0], 0.5);
        assert_eq!(parts.weight[0], 1.0);
    }

    #[test]
    fn radial_reflection_keeps_markers_inside() {
        let g = grid();
        let mut parts = crate::particles::Particles::default();
        parts.push([0.89, 0.0, 0.5, 0.0, 1.0, 0.0]);
        // Strong outward E×B drift: E_θ > 0.
        let field = GatheredField { e_r: vec![0.0], e_theta: vec![5.0] };
        push(&g, &mut parts, &field, 0.01);
        assert!(parts.r[0] >= g.r_inner && parts.r[0] <= g.r_outer);
    }

    #[test]
    fn weights_respond_to_radial_drift() {
        let g = grid();
        let mut parts = crate::particles::Particles::default();
        parts.push([0.5, 0.0, 0.5, 0.0, 1.0, 0.0]);
        let field = GatheredField { e_r: vec![0.0], e_theta: vec![1.0] };
        push(&g, &mut parts, &field, 0.1);
        // dw = −κ E_θ dt = −2 × 1 × 0.1.
        assert!((parts.weight[0] - (1.0 - 0.2)).abs() < 1e-12);
    }

    #[test]
    fn escapees_detects_boundary_crossings() {
        let mut parts = crate::particles::Particles::default();
        parts.push([0.5, 0.0, 0.45, 0.0, 1.0, 0.0]); // inside
        parts.push([0.5, 0.0, 0.55, 0.0, 1.0, 0.0]); // above
        parts.push([0.5, 0.0, 6.1, 0.0, 1.0, 0.0]); // below (wrapped)
        let esc = escapees(&parts, 0.0, 0.5);
        assert_eq!(esc, vec![1, 2]);
    }

    #[test]
    fn gather_then_deposit_are_adjoint_in_count() {
        // The gather touches exactly the same 32 points the scatter does;
        // sanity-check via a delta field: a marker reads back only what it
        // would deposit to.
        let g = grid();
        let mut parts = crate::particles::Particles::default();
        parts.push([0.5, 0.3, 0.25, 0.0, 1.0, 0.0]);
        let mut er = zero_field(&g, 2);
        // Put a spike at the marker's nearest corner.
        let ((i, j), _) = g.locate(0.5, 0.3);
        er[0][g.idx(i, j)] = 1.0;
        let et = zero_field(&g, 2);
        let f = gather(&g, &parts, &er, &et, 0.0, 0.5);
        assert!(f.e_r[0] > 0.0, "marker must see the spike");
        assert!(f.e_r[0] <= 1.0);
    }

    #[test]
    fn threaded_gather_and_push_are_bitwise_serial() {
        let g = grid();
        let parts = load_uniform(501, 0.15, 0.85, 0.0, 1.0, 11);
        // A structured (non-uniform) field so the gather actually blends.
        let er: Vec<Vec<f64>> =
            (0..=2).map(|z| (0..g.len()).map(|i| (z * 7 + i) as f64 * 1e-3).collect()).collect();
        let et: Vec<Vec<f64>> = (0..=2)
            .map(|z| (0..g.len()).map(|i| ((i * 3) % 17) as f64 * 1e-3 - z as f64).collect())
            .collect();
        let f_serial = gather(&g, &parts, &er, &et, 0.0, 0.5);
        let mut p_serial = parts.clone();
        push(&g, &mut p_serial, &f_serial, 0.02);
        for workers in [1usize, 2, 4] {
            let t = Threads::new(workers);
            let f = gather_threaded(&g, &parts, &er, &et, 0.0, 0.5, &t);
            for p in 0..parts.len() {
                assert_eq!(f.e_r[p].to_bits(), f_serial.e_r[p].to_bits(), "workers={workers}");
                assert_eq!(f.e_theta[p].to_bits(), f_serial.e_theta[p].to_bits());
            }
            let mut pp = parts.clone();
            push_threaded(&g, &mut pp, &f, 0.02, &t);
            for p in 0..parts.len() {
                assert_eq!(pp.r[p].to_bits(), p_serial.r[p].to_bits(), "workers={workers}");
                assert_eq!(pp.theta[p].to_bits(), p_serial.theta[p].to_bits());
                assert_eq!(pp.zeta[p].to_bits(), p_serial.zeta[p].to_bits());
                assert_eq!(pp.weight[p].to_bits(), p_serial.weight[p].to_bits());
            }
        }
    }
}
