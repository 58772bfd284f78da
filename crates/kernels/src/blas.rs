//! Blocked BLAS-style kernels.
//!
//! PARATEC spends most of its time in ZGEMM (nonlocal pseudopotential and
//! subspace products) and the paper attributes its high %-of-peak on every
//! platform to exactly these cache-friendly kernels. The implementations
//! here follow the classic packed-panel design (Goto-style): B is packed
//! once into `NR`-wide column panels, each band of A into `MR`-tall row
//! micro-panels, and an `MR×NR` register-tile microkernel accumulates the
//! full-`k` dot products in registers before a single writeback. They are
//! not meant to beat vendor BLAS, but they have the same
//! arithmetic-intensity profile, which is what the architectural model
//! consumes.
//!
//! Determinism: the microkernel accumulates each output element's products
//! in `p = 0..k` order starting from zero and writes back
//! `alpha·acc + beta·c`, which is *exactly* the chain
//! [`dgemm_reference`] computes — so the blocked [`dgemm`] is bitwise
//! identical to the naive reference, and (because each element's chain is
//! independent of row banding) [`par_dgemm`] is bitwise identical at every
//! worker count.

use crate::complex::Complex64;
use hec_core::pool::Threads;
use hec_core::probe::{self, Counters};

/// Microkernel register-tile rows (real kernel). At 6×8 the accumulator
/// tile is 12 256-bit registers; with two B loads and one A broadcast it
/// fills a 16-register SIMD file without spilling.
const MR: usize = 6;
/// Microkernel register-tile columns (real kernel): one packed B panel is
/// `NR` doubles wide, the unit-stride width of the innermost loop.
const NR: usize = 8;
/// Column-block width (in output columns): the group of packed B panels a
/// sweep of A micro-panels re-reads while it stays cache-resident.
const NC: usize = 256;
/// Microkernel register-tile rows (complex kernel).
const ZMR: usize = 2;
/// Microkernel register-tile columns (complex kernel): 4 complex = 8
/// doubles of unit-stride width.
const ZNR: usize = 4;

/// Minimum flops per worker before the `par_*` GEMMs spawn threads:
/// below this the spawn cost exceeds the banded work (n = 64–128
/// measured slower threaded than serial), so the handle is clamped
/// toward serial.
pub const GEMM_MIN_FLOPS_PER_WORKER: u64 = 8 * 1024 * 1024;

/// Records the probe events of one `m×n×k` real GEMM. Counted once per
/// API call (never per band), so captures are identical for any worker
/// count. The innermost vectorizable loop is the `NR`-wide accumulator
/// update; it runs once per `(i, p, j-panel)` triple.
fn count_dgemm(m: usize, n: usize, k: usize) {
    if !probe::enabled() {
        return;
    }
    let (m, n, k) = (m as u64, n as u64, k as u64);
    probe::count(
        "kernels/dgemm",
        Counters {
            flops: 2 * m * n * k,
            // Each inner iteration streams B (read) and C (read+write);
            // A is re-read once per (i, p) pair.
            unit_stride_bytes: m * n * k * 24 + m * k * 8,
            vector_iters: m * n * k,
            vector_loops: m * k * n.div_ceil(NR as u64),
            ..Default::default()
        },
    );
}

/// Records the probe events of one `m×n×k` complex GEMM (8 flops per
/// multiply-add term). Counted once per API call — see [`count_dgemm`].
fn count_zgemm(m: usize, n: usize, k: usize) {
    if !probe::enabled() {
        return;
    }
    let (m, n, k) = (m as u64, n as u64, k as u64);
    probe::count(
        "kernels/zgemm",
        Counters {
            flops: 8 * m * n * k,
            unit_stride_bytes: m * n * k * 48 + m * k * 16,
            vector_iters: m * n * k,
            vector_loops: m * k * n.div_ceil(ZNR as u64),
            ..Default::default()
        },
    );
}

/// Packs row-major `k×n` B into `n.div_ceil(NR)` contiguous panels, panel
/// `jp` holding columns `jp·NR..` as `k` rows of `NR` doubles
/// (zero-padded past column `n`). Pure copies — no rounding.
fn pack_b(n: usize, k: usize, b: &[f64]) -> Vec<f64> {
    let ntiles = n.div_ceil(NR);
    let mut out = vec![0.0f64; ntiles * k * NR];
    for jp in 0..ntiles {
        let j0 = jp * NR;
        let w = NR.min(n - j0);
        let panel = &mut out[jp * k * NR..][..k * NR];
        for p in 0..k {
            panel[p * NR..p * NR + w].copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
        }
    }
    out
}

/// Packs `rows` rows of A starting at `row0` into `MR`-tall micro-panels,
/// panel `ip` holding rows `row0 + ip·MR..` as `k` columns of `MR`
/// doubles (zero-padded past the last row). Pure copies — no rounding.
fn pack_a(row0: usize, rows: usize, k: usize, a: &[f64]) -> Vec<f64> {
    let mtiles = rows.div_ceil(MR);
    let mut out = vec![0.0f64; mtiles * k * MR];
    for ip in 0..mtiles {
        let i0 = ip * MR;
        let h = MR.min(rows - i0);
        let panel = &mut out[ip * k * MR..][..k * MR];
        for ir in 0..h {
            let arow = &a[(row0 + i0 + ir) * k..][..k];
            for p in 0..k {
                panel[p * MR + ir] = arow[p];
            }
        }
    }
    out
}

/// The `MR×NR` register-tile microkernel: `acc[ir][jr] += Σ_p a·b` with
/// the sum taken in `p = 0..k` order (the reference chain). Both operands
/// are packed, so every load is unit-stride.
#[inline(always)]
fn dgemm_microkernel(k: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    for p in 0..k {
        let av = &ap[p * MR..p * MR + MR];
        let bv = &bp[p * NR..p * NR + NR];
        for ir in 0..MR {
            let a_ir = av[ir];
            for jr in 0..NR {
                acc[ir][jr] += a_ir * bv[jr];
            }
        }
    }
}

/// `C ← alpha · A·B + beta · C` for row-major `f64` matrices.
///
/// `a` is `m×k`, `b` is `k×n`, `c` is `m×n`, all dense row-major.
///
/// # Panics
/// Panics if the slice lengths do not match the given dimensions.
pub fn dgemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    par_dgemm(&Threads::serial(), m, n, k, alpha, a, b, beta, c);
}

/// The packed GEMM body on a band of C rows starting at global row
/// `row0`; `bp` is the output of [`pack_b`] (shared across bands). Each
/// output element's chain (`p = 0..k` accumulation, then
/// `alpha·acc + beta·c`) is independent of how rows are banded, so
/// splitting C into row bands — at any boundaries — is bitwise identical
/// to the full serial kernel *and* to [`dgemm_reference`].
#[allow(clippy::too_many_arguments)]
fn dgemm_band(
    row0: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    bp: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    let rows = c.len() / n.max(1);
    let ap = pack_a(row0, rows, k, a);
    let mtiles = rows.div_ceil(MR);
    let ntiles = n.div_ceil(NR);
    let nc_tiles = NC / NR;
    // Column blocks keep a `k × NC` chunk of packed B cache-resident
    // while every A micro-panel sweeps over it.
    for jc in (0..ntiles).step_by(nc_tiles) {
        let jc_max = (jc + nc_tiles).min(ntiles);
        for ip in 0..mtiles {
            let a_panel = &ap[ip * k * MR..][..k * MR];
            let h = MR.min(rows - ip * MR);
            for jp in jc..jc_max {
                let b_panel = &bp[jp * k * NR..][..k * NR];
                let w = NR.min(n - jp * NR);
                let mut acc = [[0.0f64; NR]; MR];
                dgemm_microkernel(k, a_panel, b_panel, &mut acc);
                for ir in 0..h {
                    let crow = &mut c[(ip * MR + ir) * n + jp * NR..][..w];
                    for (jr, cv) in crow.iter_mut().enumerate() {
                        *cv = alpha * acc[ir][jr] + beta * *cv;
                    }
                }
            }
        }
    }
}

/// [`dgemm`] with C's rows banded across workers. Each worker owns a
/// disjoint band of output rows and runs the unchanged blocked kernel on
/// it, so the result is **bitwise identical** to serial [`dgemm`] for
/// any worker count.
#[allow(clippy::too_many_arguments)]
pub fn par_dgemm(
    threads: &Threads,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    assert_eq!(a.len(), m * k, "A dimension mismatch");
    assert_eq!(b.len(), k * n, "B dimension mismatch");
    assert_eq!(c.len(), m * n, "C dimension mismatch");
    if m == 0 || n == 0 {
        return;
    }
    count_dgemm(m, n, k);
    let bp = pack_b(n, k, b);
    let min_rows = (GEMM_MIN_FLOPS_PER_WORKER / (2 * (n * k).max(1)) as u64).max(1) as usize;
    let threads = threads.clamp_for(m, min_rows);
    let band = m.div_ceil(threads.workers()).max(1);
    threads.par_chunks_mut(c, band * n, |band_idx, c_band| {
        dgemm_band(band_idx * band, n, k, alpha, a, &bp, beta, c_band);
    });
}

/// `C ← alpha · op(A)·op(B) + beta · C` for row-major complex matrices with
/// optional conjugate-transpose on `A` (the projector applications in
/// PARATEC need `Aᴴ·B`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use the matrix as stored.
    None,
    /// Use the conjugate transpose.
    ConjTrans,
}

/// Complex GEMM. `a` is `m×k` (or `k×m` when `ta == ConjTrans`), `b` is
/// `k×n`, `c` is `m×n`, all dense row-major.
pub fn zgemm(
    ta: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: Complex64,
    a: &[Complex64],
    b: &[Complex64],
    beta: Complex64,
    c: &mut [Complex64],
) {
    par_zgemm(&Threads::serial(), ta, m, n, k, alpha, a, b, beta, c);
}

/// Packs complex `k×n` B into `ZNR`-wide panels — the complex analog of
/// [`pack_b`]. Pure copies.
fn pack_zb(n: usize, k: usize, b: &[Complex64]) -> Vec<Complex64> {
    let ntiles = n.div_ceil(ZNR);
    let mut out = vec![Complex64::ZERO; ntiles * k * ZNR];
    for jp in 0..ntiles {
        let j0 = jp * ZNR;
        let w = ZNR.min(n - j0);
        let panel = &mut out[jp * k * ZNR..][..k * ZNR];
        for p in 0..k {
            panel[p * ZNR..p * ZNR + w].copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
        }
    }
    out
}

/// Packs `rows` rows of op(A) starting at `row0` into `ZMR`-tall
/// micro-panels; the conjugate (exact — it only flips a sign bit) is
/// applied at pack time so the microkernel reads both transposes the
/// same unit-stride way.
fn pack_za(
    ta: Trans,
    row0: usize,
    rows: usize,
    m: usize,
    k: usize,
    a: &[Complex64],
) -> Vec<Complex64> {
    let mtiles = rows.div_ceil(ZMR);
    let mut out = vec![Complex64::ZERO; mtiles * k * ZMR];
    for ip in 0..mtiles {
        let i0 = ip * ZMR;
        let h = ZMR.min(rows - i0);
        let panel = &mut out[ip * k * ZMR..][..k * ZMR];
        for ir in 0..h {
            let i = row0 + i0 + ir;
            for p in 0..k {
                panel[p * ZMR + ir] = match ta {
                    Trans::None => a[i * k + p],
                    Trans::ConjTrans => a[p * m + i].conj(),
                };
            }
        }
    }
    out
}

/// The packed complex GEMM body on a band of C rows starting at global
/// row `row0` of an `m×n` product (A indexing needs the global `m` for
/// the conjugate-transpose layout). Each element accumulates
/// `Σ_p op(A)·B` in `p` order in registers, then writes back
/// `alpha·acc + beta·c` — banding-invariant, so bitwise identical to the
/// full serial kernel for any worker count.
#[allow(clippy::too_many_arguments)]
fn zgemm_band(
    ta: Trans,
    row0: usize,
    m: usize,
    n: usize,
    k: usize,
    alpha: Complex64,
    a: &[Complex64],
    bp: &[Complex64],
    beta: Complex64,
    c: &mut [Complex64],
) {
    let rows = c.len() / n.max(1);
    let ap = pack_za(ta, row0, rows, m, k, a);
    let mtiles = rows.div_ceil(ZMR);
    let ntiles = n.div_ceil(ZNR);
    let nc_tiles = NC / ZNR;
    for jc in (0..ntiles).step_by(nc_tiles) {
        let jc_max = (jc + nc_tiles).min(ntiles);
        for ip in 0..mtiles {
            let a_panel = &ap[ip * k * ZMR..][..k * ZMR];
            let h = ZMR.min(rows - ip * ZMR);
            for jp in jc..jc_max {
                let b_panel = &bp[jp * k * ZNR..][..k * ZNR];
                let w = ZNR.min(n - jp * ZNR);
                let mut acc = [[Complex64::ZERO; ZNR]; ZMR];
                for p in 0..k {
                    let av = &a_panel[p * ZMR..p * ZMR + ZMR];
                    let bv = &b_panel[p * ZNR..p * ZNR + ZNR];
                    for ir in 0..ZMR {
                        let a_ir = av[ir];
                        for jr in 0..ZNR {
                            acc[ir][jr] = acc[ir][jr].mul_add(a_ir, bv[jr]);
                        }
                    }
                }
                for ir in 0..h {
                    let crow = &mut c[(ip * ZMR + ir) * n + jp * ZNR..][..w];
                    for (jr, cv) in crow.iter_mut().enumerate() {
                        *cv = alpha * acc[ir][jr] + beta * *cv;
                    }
                }
            }
        }
    }
}

/// [`zgemm`] with C's rows banded across workers — disjoint output
/// bands, so **bitwise identical** to serial [`zgemm`] for any worker
/// count.
#[allow(clippy::too_many_arguments)]
pub fn par_zgemm(
    threads: &Threads,
    ta: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: Complex64,
    a: &[Complex64],
    b: &[Complex64],
    beta: Complex64,
    c: &mut [Complex64],
) {
    match ta {
        Trans::None => assert_eq!(a.len(), m * k, "A dimension mismatch"),
        Trans::ConjTrans => assert_eq!(a.len(), k * m, "A dimension mismatch"),
    }
    assert_eq!(b.len(), k * n, "B dimension mismatch");
    assert_eq!(c.len(), m * n, "C dimension mismatch");
    if m == 0 || n == 0 {
        return;
    }
    count_zgemm(m, n, k);
    let bp = pack_zb(n, k, b);
    let min_rows = (GEMM_MIN_FLOPS_PER_WORKER / (8 * (n * k).max(1)) as u64).max(1) as usize;
    let threads = threads.clamp_for(m, min_rows);
    let band = m.div_ceil(threads.workers()).max(1);
    threads.par_chunks_mut(c, band * n, |band_idx, c_band| {
        zgemm_band(ta, band_idx * band, m, n, k, alpha, a, &bp, beta, c_band);
    });
}

/// Naive reference GEMM used by the tests and property checks.
pub fn dgemm_reference(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = alpha * acc + beta * c[i * n + j];
        }
    }
}

/// Real dot product.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// `y ← y + alpha x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * *xi;
    }
}

/// Euclidean norm.
#[inline]
pub fn nrm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Euclidean norm of a complex vector.
#[inline]
pub fn znrm2(x: &[Complex64]) -> f64 {
    x.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
}

/// Flop count of a real GEMM (used by the architectural model).
pub fn dgemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// Flop count of a complex GEMM (4 mul + 4 add per term).
pub fn zgemm_flops(m: usize, n: usize, k: usize) -> f64 {
    8.0 * m as f64 * n as f64 * k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(m: usize, n: usize, f: impl Fn(usize, usize) -> f64) -> Vec<f64> {
        (0..m * n).map(|ix| f(ix / n, ix % n)).collect()
    }

    #[test]
    fn dgemm_is_bitwise_identical_to_the_scalar_reference() {
        // The packed register-tile kernel replicates the reference's exact
        // chain (p-ordered accumulation from zero, alpha·acc + beta·c), so
        // serial and banded runs must match the naive loop bit for bit.
        for &(m, n, k) in &[(1, 1, 1), (3, 5, 7), (50, 49, 51), (97, 13, 64)] {
            let a = mat(m, k, |i, j| (i as f64 - j as f64) * 0.25 + 1.0);
            let b = mat(k, n, |i, j| (i * 31 + j) as f64 * 0.01 - 0.7);
            let c0 = mat(m, n, |i, j| (i + j) as f64 * 0.1);
            let mut want = c0.clone();
            dgemm_reference(m, n, k, 1.3, &a, &b, 0.5, &mut want);
            let mut c1 = c0.clone();
            dgemm(m, n, k, 1.3, &a, &b, 0.5, &mut c1);
            for (x, y) in c1.iter().zip(&want) {
                assert_eq!(x.to_bits(), y.to_bits(), "serial ({m},{n},{k})");
            }
            for workers in [1usize, 2, 4] {
                let mut cp = c0.clone();
                par_dgemm(&Threads::new(workers), m, n, k, 1.3, &a, &b, 0.5, &mut cp);
                for (x, y) in cp.iter().zip(&want) {
                    assert_eq!(x.to_bits(), y.to_bits(), "({m},{n},{k}) workers={workers}");
                }
            }
        }
    }

    #[test]
    fn dgemm_identity_is_noop() {
        let n = 17;
        let ident = mat(n, n, |i, j| if i == j { 1.0 } else { 0.0 });
        let b = mat(n, n, |i, j| (i * n + j) as f64);
        let mut c = vec![0.0; n * n];
        dgemm(n, n, n, 1.0, &ident, &b, 0.0, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    fn zgemm_conj_trans_matches_manual() {
        let (m, n, k) = (4, 3, 5);
        // A stored k×m, used as Aᴴ (m×k).
        let a: Vec<Complex64> =
            (0..k * m).map(|i| Complex64::new(i as f64 * 0.1, -(i as f64) * 0.05)).collect();
        let b: Vec<Complex64> =
            (0..k * n).map(|i| Complex64::new((i as f64 * 0.3).sin(), 0.2)).collect();
        let mut c = vec![Complex64::ZERO; m * n];
        zgemm(Trans::ConjTrans, m, n, k, Complex64::ONE, &a, &b, Complex64::ZERO, &mut c);
        for i in 0..m {
            for j in 0..n {
                let mut want = Complex64::ZERO;
                for p in 0..k {
                    want += a[p * m + i].conj() * b[p * n + j];
                }
                assert!((c[i * n + j] - want).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn zgemm_none_matches_dgemm_on_real_data() {
        let (m, n, k) = (6, 7, 8);
        let ar = mat(m, k, |i, j| (i + 2 * j) as f64 * 0.5);
        let br = mat(k, n, |i, j| (3 * i + j) as f64 * 0.25);
        let az: Vec<Complex64> = ar.iter().map(|&x| Complex64::real(x)).collect();
        let bz: Vec<Complex64> = br.iter().map(|&x| Complex64::real(x)).collect();
        let mut cr = vec![0.0; m * n];
        let mut cz = vec![Complex64::ZERO; m * n];
        dgemm(m, n, k, 1.0, &ar, &br, 0.0, &mut cr);
        zgemm(Trans::None, m, n, k, Complex64::ONE, &az, &bz, Complex64::ZERO, &mut cz);
        for (r, z) in cr.iter().zip(&cz) {
            assert!((r - z.re).abs() < 1e-10 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn level1_helpers() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![4.0, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![6.0, 9.0, 12.0]);
        assert!((nrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn flop_counters() {
        assert_eq!(dgemm_flops(2, 3, 4), 48.0);
        assert_eq!(zgemm_flops(2, 3, 4), 192.0);
    }

    #[test]
    fn par_dgemm_is_bitwise_serial() {
        for &(m, n, k) in &[(1, 1, 1), (7, 5, 3), (97, 53, 61), (128, 64, 96)] {
            let a = mat(m, k, |i, j| ((i * 13 + j * 7) % 23) as f64 * 0.37 - 2.1);
            let b = mat(k, n, |i, j| ((i * 5 + j * 11) % 19) as f64 * 0.23 - 1.3);
            let c0 = mat(m, n, |i, j| (i as f64 - j as f64) * 0.11);
            let mut serial = c0.clone();
            dgemm(m, n, k, 1.7, &a, &b, 0.6, &mut serial);
            for workers in [1usize, 2, 4] {
                let mut par = c0.clone();
                par_dgemm(&Threads::new(workers), m, n, k, 1.7, &a, &b, 0.6, &mut par);
                for (x, y) in serial.iter().zip(&par) {
                    assert_eq!(x.to_bits(), y.to_bits(), "({m},{n},{k}) workers={workers}");
                }
            }
        }
    }

    #[test]
    fn par_gemms_clamp_small_problems_serial() {
        // dgemm at n = 64..128 measured slower on 4 workers than on 1:
        // below the flop floor the clamped handle must be serial.
        let t = Threads::new(4);
        let min_rows_128 = (GEMM_MIN_FLOPS_PER_WORKER / (2 * 128 * 128)) as usize;
        assert_eq!(t.clamp_for(128, min_rows_128).workers(), 1);
        let min_rows_512 = (GEMM_MIN_FLOPS_PER_WORKER / (2 * 512 * 512)) as usize;
        assert_eq!(t.clamp_for(512, min_rows_512).workers(), 4);
    }

    #[test]
    fn gemm_probe_counts_match_the_documented_constants() {
        use hec_core::probe;
        let (m, n, k) = (7usize, 50, 9);
        let a = mat(m, k, |i, j| (i + j) as f64 + 1.0);
        let b = mat(k, n, |i, j| (i * 2 + j) as f64 * 0.5);
        let az: Vec<Complex64> = a.iter().map(|&x| Complex64::real(x)).collect();
        let bz: Vec<Complex64> = b.iter().map(|&x| Complex64::real(x)).collect();
        let ((), cap) = probe::capture(|| {
            let mut c = vec![0.0; m * n];
            dgemm(m, n, k, 1.0, &a, &b, 0.0, &mut c);
            let mut cz = vec![Complex64::ZERO; m * n];
            par_zgemm(
                &Threads::new(2),
                Trans::None,
                m,
                n,
                k,
                Complex64::ONE,
                &az,
                &bz,
                Complex64::ZERO,
                &mut cz,
            );
        });
        let (mu, nu, ku) = (m as u64, n as u64, k as u64);
        let d = cap.get("kernels/dgemm");
        assert_eq!(d.flops, 2 * mu * nu * ku);
        assert_eq!(d.unit_stride_bytes, mu * nu * ku * 24 + mu * ku * 8);
        assert_eq!(d.vector_iters, mu * nu * ku);
        assert_eq!(d.vector_loops, mu * ku * nu.div_ceil(NR as u64));
        let z = cap.get("kernels/zgemm");
        assert_eq!(z.flops, 8 * mu * nu * ku);
        assert_eq!(z.vector_loops, mu * ku * nu.div_ceil(ZNR as u64));
    }

    #[test]
    fn par_zgemm_is_bitwise_serial_both_transposes() {
        let (m, n, k) = (61, 33, 47);
        let mk: Vec<Complex64> = (0..m * k)
            .map(|i| Complex64::new((i % 17) as f64 * 0.3, (i % 11) as f64 * -0.2))
            .collect();
        let km: Vec<Complex64> = (0..k * m)
            .map(|i| Complex64::new((i % 13) as f64 * 0.25, (i % 7) as f64 * 0.4))
            .collect();
        let b: Vec<Complex64> = (0..k * n)
            .map(|i| Complex64::new((i % 9) as f64 * -0.15, (i % 5) as f64 * 0.6))
            .collect();
        let c0: Vec<Complex64> =
            (0..m * n).map(|i| Complex64::new(i as f64 * 1e-3, -(i as f64) * 2e-3)).collect();
        let alpha = Complex64::new(0.8, -0.3);
        let beta = Complex64::new(0.2, 0.1);
        for (ta, a) in [(Trans::None, &mk), (Trans::ConjTrans, &km)] {
            let mut serial = c0.clone();
            zgemm(ta, m, n, k, alpha, a, &b, beta, &mut serial);
            for workers in [2usize, 3, 4] {
                let mut par = c0.clone();
                par_zgemm(&Threads::new(workers), ta, m, n, k, alpha, a, &b, beta, &mut par);
                for (x, y) in serial.iter().zip(&par) {
                    assert_eq!(x.re.to_bits(), y.re.to_bits(), "{ta:?} workers={workers}");
                    assert_eq!(x.im.to_bits(), y.im.to_bits(), "{ta:?} workers={workers}");
                }
            }
        }
    }
}
