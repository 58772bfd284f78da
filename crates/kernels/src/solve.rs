//! The conjugate-gradient solver shared by the applications.
//!
//! GTC's Poisson solve on each poloidal plane and PARATEC's Kohn–Sham
//! minimization are both built on conjugate-gradient iterations.

use crate::blas::{axpy, dot, nrm2};

/// Outcome of a conjugate-gradient solve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CgResult {
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final residual 2-norm.
    pub residual: f64,
    /// True when the residual tolerance was met.
    pub converged: bool,
}

/// Solves `A x = b` for a symmetric positive-definite operator given as a
/// matrix-free closure `apply(x, y)` computing `y = A x`.
///
/// `x` holds the initial guess on entry and the solution on exit.
pub fn conjugate_gradient<F>(
    mut apply: F,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
) -> CgResult
where
    F: FnMut(&[f64], &mut [f64]),
{
    let n = b.len();
    assert_eq!(x.len(), n, "solution/rhs length mismatch");
    let mut r = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut ap = vec![0.0; n];

    apply(x, &mut ap);
    for i in 0..n {
        r[i] = b[i] - ap[i];
    }
    p.copy_from_slice(&r);
    let mut rr = dot(&r, &r);
    let b_norm = nrm2(b).max(f64::MIN_POSITIVE);
    let target = tol * b_norm;

    for it in 0..max_iter {
        let res = rr.sqrt();
        if res <= target {
            return CgResult { iterations: it, residual: res, converged: true };
        }
        apply(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap <= 0.0 {
            // Operator is not SPD along p (or p vanished); bail out.
            return CgResult { iterations: it, residual: res, converged: false };
        }
        let alpha = rr / pap;
        axpy(alpha, &p, x);
        axpy(-alpha, &ap, &mut r);
        let rr_new = dot(&r, &r);
        let beta = rr_new / rr;
        rr = rr_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
    }
    CgResult { iterations: max_iter, residual: rr.sqrt(), converged: rr.sqrt() <= target }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense SPD apply for testing.
    fn dense_apply(a: &[f64], n: usize) -> impl Fn(&[f64], &mut [f64]) + '_ {
        move |x: &[f64], y: &mut [f64]| {
            for i in 0..n {
                y[i] = (0..n).map(|j| a[i * n + j] * x[j]).sum();
            }
        }
    }

    #[test]
    fn cg_solves_diagonal_system_exactly() {
        let n = 16;
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = (i + 1) as f64;
        }
        let b: Vec<f64> = (0..n).map(|i| (i + 1) as f64 * 2.0).collect();
        let mut x = vec![0.0; n];
        let res = conjugate_gradient(dense_apply(&a, n), &b, &mut x, 1e-12, 100);
        assert!(res.converged);
        for xi in &x {
            assert!((xi - 2.0).abs() < 1e-10);
        }
    }

    #[test]
    fn cg_solves_laplacian() {
        // 1D Laplacian with Dirichlet ends: classic SPD test problem.
        let n = 64;
        let apply = |x: &[f64], y: &mut [f64]| {
            for i in 0..n {
                let left = if i > 0 { x[i - 1] } else { 0.0 };
                let right = if i + 1 < n { x[i + 1] } else { 0.0 };
                y[i] = 2.0 * x[i] - left - right;
            }
        };
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let res = conjugate_gradient(apply, &b, &mut x, 1e-10, 500);
        assert!(res.converged, "residual {}", res.residual);
        // Verify A x = b directly.
        let mut ax = vec![0.0; n];
        apply(&x, &mut ax);
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((axi - bi).abs() < 1e-7);
        }
    }

    #[test]
    fn cg_converges_in_at_most_n_iterations_exact_arithmetic() {
        // CG on an n-dim SPD system converges in ≤ n steps (up to rounding).
        let n = 8;
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                a[i * n + j] = if i == j { 4.0 } else { 1.0 / (1.0 + (i as f64 - j as f64).abs()) };
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut x = vec![0.0; n];
        let res = conjugate_gradient(dense_apply(&a, n), &b, &mut x, 1e-10, n + 2);
        assert!(res.converged);
    }
}
