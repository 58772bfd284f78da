//! Local (single address space) 3D complex FFT over a dense cube.
//!
//! The distributed transforms in `paratec` decompose into exactly these
//! pencil sweeps separated by data transposes; this module is both the
//! building block for the per-rank work and the whole-problem oracle the
//! distributed version is tested against.

use crate::complex::Complex64;
use crate::fft::{Direction, FftPlan};

/// Pencils gathered per transpose block. Gathering `TB` neighboring
/// pencils at once turns the strided y/z sweeps into copies of
/// `TB`-element contiguous runs (a blocked transpose), instead of
/// touching one element per cache line. Pure data movement — the
/// transformed values are bitwise unchanged.
const TB: usize = 16;

/// Gathers pencils `i0..i0+tb` of length `len` and stride `stride` from
/// `data[base..]` into `buf` (line-major: pencil `it` at `buf[it*len..]`),
/// transforms each line, and scatters them back.
fn transform_pencil_block(
    plan: &FftPlan,
    dir: Direction,
    data: &mut [Complex64],
    base: usize,
    i0: usize,
    tb: usize,
    len: usize,
    stride: usize,
    buf: &mut [Complex64],
) {
    for e in 0..len {
        let row = &data[base + i0 + stride * e..][..tb];
        for (it, v) in row.iter().enumerate() {
            buf[it * len + e] = *v;
        }
    }
    for line in buf[..tb * len].chunks_exact_mut(len) {
        plan.execute(line, dir);
    }
    for e in 0..len {
        let row = &mut data[base + i0 + stride * e..][..tb];
        for (it, v) in row.iter_mut().enumerate() {
            *v = buf[it * len + e];
        }
    }
}

/// Dense 3D complex array with `x` fastest (Fortran-like `(nx, ny, nz)`
/// indexing, matching the layout the F90 applications use).
#[derive(Clone, Debug)]
pub struct Grid3 {
    /// Extent in x (fastest-varying).
    pub nx: usize,
    /// Extent in y.
    pub ny: usize,
    /// Extent in z (slowest-varying).
    pub nz: usize,
    /// `nx * ny * nz` values, x fastest.
    pub data: Vec<Complex64>,
}

impl Grid3 {
    /// Allocates a zero-filled grid.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        Grid3 { nx, ny, nz, data: vec![Complex64::ZERO; nx * ny * nz] }
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Linear index of `(i, j, k)`.
    #[inline(always)]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        i + self.nx * (j + self.ny * k)
    }

    /// Value at `(i, j, k)`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize, k: usize) -> Complex64 {
        self.data[self.idx(i, j, k)]
    }

    /// Mutable value at `(i, j, k)`.
    #[inline(always)]
    pub fn get_mut(&mut self, i: usize, j: usize, k: usize) -> &mut Complex64 {
        let ix = self.idx(i, j, k);
        &mut self.data[ix]
    }
}

/// Reusable 3D FFT plan for a fixed grid shape.
#[derive(Clone, Debug)]
pub struct Fft3Plan {
    plan_x: FftPlan,
    plan_y: FftPlan,
    plan_z: FftPlan,
}

impl Fft3Plan {
    /// Builds plans for all three pencil directions of an
    /// `(nx, ny, nz)` grid.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Fft3Plan { plan_x: FftPlan::new(nx), plan_y: FftPlan::new(ny), plan_z: FftPlan::new(nz) }
    }

    /// Transforms the grid in place: x pencils, then y, then z.
    ///
    /// # Panics
    /// Panics if the grid shape does not match the plan.
    pub fn execute(&self, g: &mut Grid3, dir: Direction) {
        assert_eq!(g.nx, self.plan_x.len());
        assert_eq!(g.ny, self.plan_y.len());
        assert_eq!(g.nz, self.plan_z.len());
        let (nx, ny, nz) = (g.nx, g.ny, g.nz);

        // x pencils are contiguous.
        for line in g.data.chunks_exact_mut(nx) {
            self.plan_x.execute(line, dir);
        }

        // y pencils: blocked transpose — TB neighboring pencils per
        // gather, so every copy is a contiguous TB-element run.
        let mut buf = vec![Complex64::ZERO; TB * ny.max(nz)];
        for k in 0..nz {
            for i0 in (0..nx).step_by(TB) {
                let tb = TB.min(nx - i0);
                transform_pencil_block(
                    &self.plan_y,
                    dir,
                    &mut g.data,
                    nx * ny * k,
                    i0,
                    tb,
                    ny,
                    nx,
                    &mut buf,
                );
            }
        }

        // z pencils: same blocked transpose with stride nx·ny.
        for j in 0..ny {
            for i0 in (0..nx).step_by(TB) {
                let tb = TB.min(nx - i0);
                transform_pencil_block(
                    &self.plan_z,
                    dir,
                    &mut g.data,
                    nx * j,
                    i0,
                    tb,
                    nz,
                    nx * ny,
                    &mut buf,
                );
            }
        }
    }

    /// Total flop count of one 3D transform.
    pub fn flops(&self) -> f64 {
        let nx = self.plan_x.len() as f64;
        let ny = self.plan_y.len() as f64;
        let nz = self.plan_z.len() as f64;
        ny * nz * self.plan_x.flops()
            + nx * nz * self.plan_y.flops()
            + nx * ny * self.plan_z.flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(g: &mut Grid3) {
        for k in 0..g.nz {
            for j in 0..g.ny {
                for i in 0..g.nx {
                    *g.get_mut(i, j, k) = Complex64::new(
                        ((i * 3 + j * 7 + k * 11) as f64 * 0.1).sin(),
                        ((i + 2 * j + 5 * k) as f64 * 0.05).cos(),
                    );
                }
            }
        }
    }

    #[test]
    fn round_trip_identity() {
        let mut g = Grid3::zeros(8, 6, 10);
        fill(&mut g);
        let orig = g.clone();
        let plan = Fft3Plan::new(8, 6, 10);
        plan.execute(&mut g, Direction::Forward);
        plan.execute(&mut g, Direction::Inverse);
        for (a, b) in g.data.iter().zip(&orig.data) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn single_mode_transforms_to_delta() {
        // A pure plane wave e^{2πi(ax/nx + by/ny + cz/nz)} must transform to a
        // single spike at (a, b, c) with amplitude nx*ny*nz (forward,
        // negative-exponent convention picks out k = +mode).
        let (nx, ny, nz) = (8, 4, 4);
        let (a, b, c) = (3usize, 1usize, 2usize);
        let mut g = Grid3::zeros(nx, ny, nz);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let phase = 2.0
                        * std::f64::consts::PI
                        * (a as f64 * i as f64 / nx as f64
                            + b as f64 * j as f64 / ny as f64
                            + c as f64 * k as f64 / nz as f64);
                    *g.get_mut(i, j, k) = Complex64::cis(phase);
                }
            }
        }
        Fft3Plan::new(nx, ny, nz).execute(&mut g, Direction::Forward);
        let total = (nx * ny * nz) as f64;
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let want = if (i, j, k) == (a, b, c) { total } else { 0.0 };
                    let got = g.get(i, j, k);
                    assert!(
                        (got - Complex64::real(want)).abs() < 1e-8 * total,
                        "at ({i},{j},{k}): {got:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn parseval_3d() {
        let mut g = Grid3::zeros(6, 9, 5); // lengths for the Stockham mixed-radix path
        fill(&mut g);
        let e_time: f64 = g.data.iter().map(|z| z.norm_sqr()).sum();
        Fft3Plan::new(6, 9, 5).execute(&mut g, Direction::Forward);
        let e_freq: f64 = g.data.iter().map(|z| z.norm_sqr()).sum::<f64>() / g.len() as f64;
        assert!((e_time - e_freq).abs() < 1e-8 * e_time.max(1.0));
    }

    #[test]
    fn flops_positive_and_scales() {
        let small = Fft3Plan::new(8, 8, 8).flops();
        let big = Fft3Plan::new(16, 16, 16).flops();
        assert!(small > 0.0);
        assert!(big > 8.0 * small); // superlinear in total points
    }
}
