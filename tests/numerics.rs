//! Order-of-accuracy checks: each app solves its equations to its
//! scheme's order, not only bit-reproducibly. A rewrite that moves a
//! kernel and its reference together keeps every `to_bits` test green;
//! these tests compare against analytic solutions instead.
//!
//! GTC: the RK2 push in a fixed analytic field, and the Poisson
//! operator's manufactured solution at three grids. The measured orders
//! are recorded in EXPERIMENTS.md.

use gtc::geometry::{safety_factor, PoloidalGrid};
use gtc::particles::Particles;
use gtc::poisson::{solve_plane, RHO_S2};
use gtc::push::{gather, push};

/// Observed orders of accuracy between successive halvings.
fn orders(errors: &[f64]) -> Vec<f64> {
    errors.windows(2).map(|e| (e[0] / e[1]).log2()).collect()
}

#[test]
fn gtc_rk2_push_is_second_order_in_dt() {
    // A uniform field (E_r, E_θ) = (a, b), gathered from the grid every
    // step as the sim does. dr/dt = b is exact under RK2, so r(t) = r0 + b·t
    // and dθ/dt = (−a + v q(r))/r integrates in closed form:
    // θ(T) = θ0 + [(−a + 0.85 v) ln(r1/r0) + 1.1 v (r1² − r0²)] / b.
    let grid = PoloidalGrid { mpsi: 12, mtheta: 24, r_inner: 0.1, r_outer: 0.9 };
    let (a, b, v) = (0.3, 0.2, 0.5);
    let (r0, theta0, t_end): (f64, f64, f64) = (0.3, 1.0, 1.0);
    for r in [0.5, 1.0] {
        assert_eq!(safety_factor(r), 0.85 + 2.2 * r * r, "q(r) changed: update the closed form");
    }
    let e_r = vec![vec![a; grid.len()]; 3];
    let e_theta = vec![vec![b; grid.len()]; 3];
    let r1 = r0 + b * t_end;
    let theta_exact =
        theta0 + ((-a + 0.85 * v) * (r1 / r0).ln() + 1.1 * v * (r1 * r1 - r0 * r0)) / b;
    let errors: Vec<f64> = [10usize, 20, 40]
        .iter()
        .map(|&steps| {
            let mut p = Particles::default();
            p.push([r0, theta0, 0.2, v, 1.0, 0.01]);
            let dt = t_end / steps as f64;
            for _ in 0..steps {
                let f = gather(&grid, &p, &e_r, &e_theta, 0.0, 0.5);
                push(&grid, &mut p, &f, dt);
            }
            assert!((p.r[0] - r1).abs() < 1e-12, "r drifted: {}", p.r[0]);
            (p.theta[0] - theta_exact).abs()
        })
        .collect();
    let got = orders(&errors);
    println!("gtc push: errors {errors:?}, orders {got:?}");
    for q in got {
        assert!((1.8..2.2).contains(&q), "RK2 order {q} (errors {errors:?})");
    }
}

#[test]
fn gtc_poisson_solve_is_second_order_in_the_grid() {
    // φ*(r, θ) = (r − r_in)(r_out − r) cos 2θ vanishes on both walls. Its
    // charge is the continuous operator applied analytically:
    // ρ = −ρ_s² [f'' + f'/r − 4 f/r²] cos 2θ + φ*, with f = (r − r_in)(r_out − r).
    let (r_in, r_out) = (0.1, 0.9);
    let f = |r: f64| (r - r_in) * (r_out - r);
    let df = |r: f64| r_in + r_out - 2.0 * r;
    let errors: Vec<f64> = [(9usize, 16usize), (17, 32), (33, 64)]
        .iter()
        .map(|&(mpsi, mtheta)| {
            let g = PoloidalGrid { mpsi, mtheta, r_inner: r_in, r_outer: r_out };
            let mut charge = vec![0.0; g.len()];
            let mut exact = vec![0.0; g.len()];
            for i in 0..mpsi {
                let r = g.radius(i);
                for j in 0..mtheta {
                    let c = (2.0 * j as f64 * g.dtheta()).cos();
                    let lap = (-2.0 + df(r) / r - 4.0 * f(r) / (r * r)) * c;
                    exact[g.idx(i, j)] = f(r) * c;
                    charge[g.idx(i, j)] = -RHO_S2 * lap + f(r) * c;
                }
            }
            let mut phi = vec![0.0; g.len()];
            let res = solve_plane(&g, &charge, &mut phi, 1e-12);
            assert!(res.converged, "CG stalled at {mpsi}x{mtheta}: {res:?}");
            phi.iter().zip(&exact).map(|(p, e)| (p - e).abs()).fold(0.0, f64::max)
        })
        .collect();
    let got = orders(&errors);
    println!("gtc poisson: max errors {errors:?}, orders {got:?}");
    for q in got {
        assert!((1.8..2.2).contains(&q), "Poisson order {q} (errors {errors:?})");
    }
}
