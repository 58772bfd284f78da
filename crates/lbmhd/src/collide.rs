//! The fused collide+stream kernel.
//!
//! Following Wellein et al. (the optimization the paper adopted in §5), the
//! stream and collide phases are combined: for each cell, the post-stream
//! distributions are *gathered* from the upwind neighbors (`x − cᵢ`), the
//! macroscopic moments and MHD equilibria are computed, and the relaxed
//! values are written to the destination lattice. Only block-boundary
//! points ever get copied (by the halo exchange).
//!
//! Physics: Dellar's lattice kinetic MHD scheme. The scalar distributions
//! relax toward
//!
//! ```text
//! fᵢ^eq = wᵢ [ ρ + 3 cᵢ·(ρu) + 9/2 cᵢᵀΠcᵢ − 3/2 tr Π ],
//! Π    = ρuu + (|B|²/2) I − BB        (Maxwell stress included)
//! ```
//!
//! and the vector (magnetic) distributions toward
//!
//! ```text
//! gᵢ^eq = wᵢ [ B + 3 ( (cᵢ·u) B − (cᵢ·B) u ) ],
//! ```
//!
//! whose first moment is the induction-equation flux `uB − Bu`.
//!
//! ## Kernel structure
//!
//! The hot path is written the way the paper's §5.1 describes the vector
//! ports: the direction loop is *outside*, the grid loop is *inside*, and
//! every inner loop is a unit-stride f64 stream over one x-line of the
//! line-contiguous [`Block`] storage. Each (j,k) lattice line is processed
//! in three phases over per-line scratch lanes — gather (Q streaming
//! passes that copy the upwind x-lines into the destination and accumulate
//! the moments), point-local prep (1/ρ, u, Π, tr Π), and per-direction
//! equilibrium+relax in place on the destination — so the autovectorizer
//! sees plain `for i { a[i] = b[i] op c[i] }` loops with no struct
//! gathers. The gather reads x-lines of the nine neighbouring line blocks,
//! once; the 108 destination x-lines are one contiguous run that stays in
//! cache from the gather to the relaxation.
//!
//! Every floating-point chain replicates [`step_reference`] exactly
//! (including multiplications by cᵢ components that are ±0 — eliding them
//! could flip a zero's sign), so the lane kernel is **bitwise identical**
//! to the scalar reference, at every worker count. Parallelism is over
//! z-slabs: each worker's destination planes are one contiguous `&mut`
//! window, so workers write in place with no serial commit pass.

use hec_core::pool::Threads;
use hec_core::probe::{self, Counters};

use crate::lattice::{C, Q, W};
use crate::state::{directions_mut, g_lane, Block};

/// Flops per lattice point of the fused kernel, from the audited count
/// below (moment gather 158, point-local prep 53, and 44 per direction for
/// equilibria+relaxation). This is the "valid baseline flop-count" used for
/// the Gflop/s figures, exactly as the paper normalizes its rates.
pub const FLOPS_PER_POINT: f64 = point_flops();

const fn point_flops() -> f64 {
    // Moment gather: ρ (26 adds) + ρu (54: one add per nonzero cᵢ component
    // over all i) + B (78: 26 adds × 3 components).
    let gather = 26.0 + 54.0 + 78.0;
    // Point prep: 1/ρ (1) + u (3) + u·u (5) + B·B (5) + Π (27: six unique
    // components at ~4 flops + 3 diagonal adds) + tr Π (2) + 3/2 & 9/2
    // scalings (2) + ω blends prep (8).
    let prep = 53.0;
    // Per direction: cᵢ·u (2) + cᵢ·B (2) + cᵢ·ρu (2) + cᵢᵀΠcᵢ (8) + f^eq
    // assembly (5) + f relax (3) + g^eq 3 components (13) + g relax (9).
    let per_dir = 44.0;
    gather + prep + per_dir * Q as f64
}

/// Bytes of lattice data read+written per point per step: 27 scalar + 81
/// vector-component doubles in, the same out.
pub const BYTES_PER_POINT: f64 = (Q as f64) * 4.0 * 2.0 * 8.0;

/// Number of concurrent unit-stride streams of the paper's formulation
/// (27 f-reads + 81 g-reads + 27 f-writes + 81 g-writes over 216 separate
/// arrays), which is what `hec-arch` models for the Table 5 machines. It
/// does not describe this host's kernel: [`Block`]'s line-contiguous
/// layout folds those into one write run and nine read neighbourhoods.
pub const CONCURRENT_STREAMS: f64 = (Q as f64) * 4.0 * 2.0;

/// Computes the discrete MHD equilibria for macroscopic state
/// `(ρ, u, B)`. Returns `(f_eq, g_eq)`.
pub fn equilibrium(rho: f64, u: [f64; 3], b: [f64; 3]) -> ([f64; Q], [[f64; 3]; Q]) {
    let mom = [rho * u[0], rho * u[1], rho * u[2]];
    let usqr = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
    let bsqr = b[0] * b[0] + b[1] * b[1] + b[2] * b[2];
    // Π = ρuu + (B²/2)I − BB
    let mut pi = [[0.0f64; 3]; 3];
    for a in 0..3 {
        for c in 0..3 {
            pi[a][c] = rho * u[a] * u[c] - b[a] * b[c];
        }
        pi[a][a] += 0.5 * bsqr;
    }
    let tr_pi = rho * usqr + 0.5 * bsqr;

    let mut feq = [0.0f64; Q];
    let mut geq = [[0.0f64; 3]; Q];
    for i in 0..Q {
        let c = [C[i][0] as f64, C[i][1] as f64, C[i][2] as f64];
        let cmom = c[0] * mom[0] + c[1] * mom[1] + c[2] * mom[2];
        let cu = c[0] * u[0] + c[1] * u[1] + c[2] * u[2];
        let cb = c[0] * b[0] + c[1] * b[1] + c[2] * b[2];
        let mut cpc = 0.0;
        for a in 0..3 {
            for d in 0..3 {
                cpc += c[a] * pi[a][d] * c[d];
            }
        }
        feq[i] = W[i] * (rho + 3.0 * cmom + 4.5 * cpc - 1.5 * tr_pi);
        for a in 0..3 {
            geq[i][a] = W[i] * (b[a] + 3.0 * (cu * b[a] - cb * u[a]));
        }
    }
    (feq, geq)
}

/// One fused collide+stream step: reads `src` (whose halo must be current)
/// and writes the interior of `dst`. Returns the number of interior points
/// updated (× [`FLOPS_PER_POINT`] gives the step's flop count).
///
/// Resolves the worker count from the environment; [`step_with`] takes an
/// explicit [`Threads`] handle.
pub fn step(src: &Block, dst: &mut Block, omega: f64, omega_m: f64) -> usize {
    step_with(&Threads::from_env(), src, dst, omega, omega_m)
}

/// Per-line scratch lanes (a padded x-line each, `nx` used): ρ, ρu (3),
/// B (3), u (3), Π (9), tr Π, cᵢ·u, cᵢ·B.
const SCRATCH_LANES: usize = 22;

/// Collide+stream the lattice line at padded `(j, k)`: gathers from `src`,
/// writes the line block `dst` (all lanes' padded x-lines, lane order).
fn collide_line(
    src: &Block,
    (j, k): (usize, usize),
    omega: f64,
    omega_m: f64,
    dst: &mut [f64],
    scratch: &mut [f64],
) {
    let (nx, px) = (src.nx, src.px());
    // The x-line streaming into this one along direction q: lane `lane` of
    // the line block at (j − c_y, k − c_z), shifted by −c_x. Every slice
    // below is cut to exactly `nx` once, so the loops carry no bounds checks.
    let upwind = |lane: usize, q: usize| -> &[f64] {
        let line = src.line(lane, (j as i32 - C[q][1]) as usize, (k as i32 - C[q][2]) as usize);
        &line[(1 - C[q][0]) as usize..][..nx]
    };
    // The seven moment accumulators come first and start from zero.
    scratch[..7 * px].fill(0.0);
    let mut lanes = scratch.chunks_exact_mut(px);
    let mut lane = || &mut lanes.next().expect("scratch holds SCRATCH_LANES x-lines")[..nx];
    let rho = lane();
    // Gathered ρu during phase 1; overwritten with the recomputed ρ·u of
    // `equilibrium` during phase 2 (the reference recomputes it, and the
    // two differ in the last bit for some inputs — so must we).
    let m = [lane(), lane(), lane()];
    let b = [lane(), lane(), lane()];
    let u = [lane(), lane(), lane()];
    // Π is mathematically symmetric but (ρ·u[a])·u[d] and (ρ·u[d])·u[a]
    // can round differently, so all nine entries `a*3+d` are kept exactly
    // as the reference computes them.
    let pi: [&mut [f64]; 9] = std::array::from_fn(|_| lane());
    let (tr_pi, cu_l, cb_l) = (lane(), lane(), lane());

    // Phase 1 — gather and moments. One unit-stride pass per direction
    // copies the upwind line into `dst`; each accumulator sees its
    // contributions in the same q order as the scalar reference, so the
    // sums are bitwise identical.
    for (q, (fd, gd)) in directions_mut(dst, px).enumerate() {
        let c = [C[q][0] as f64, C[q][1] as f64, C[q][2] as f64];
        let fs = upwind(q, q);
        let fd = &mut fd[1..][..nx];
        // Multiplications by c components that are ±0 are kept: the
        // reference performs them, and x + f·0 is not always x bitwise
        // (the product's sign of zero matters).
        for i in 0..nx {
            let fv = fs[i];
            rho[i] += fv;
            m[0][i] += fv * c[0];
            m[1][i] += fv * c[1];
            m[2][i] += fv * c[2];
            fd[i] = fv;
        }
        for (a, gd) in gd.chunks_exact_mut(px).enumerate() {
            let gs = upwind(g_lane(q, a), q);
            let gd = &mut gd[1..][..nx];
            for i in 0..nx {
                let gv = gs[i];
                b[a][i] += gv;
                gd[i] = gv;
            }
        }
    }

    // Phase 2 — point-local prep: 1/ρ, u, ρ·u (recomputed, see above),
    // Π, tr Π. Still one unit-stride pass.
    for i in 0..nx {
        let r = rho[i];
        let inv = 1.0 / r;
        let uu = [m[0][i] * inv, m[1][i] * inv, m[2][i] * inv];
        let bv = [b[0][i], b[1][i], b[2][i]];
        let usqr = uu[0] * uu[0] + uu[1] * uu[1] + uu[2] * uu[2];
        let bsqr = bv[0] * bv[0] + bv[1] * bv[1] + bv[2] * bv[2];
        for a in 0..3 {
            u[a][i] = uu[a];
            m[a][i] = r * uu[a];
            for d in 0..3 {
                pi[a * 3 + d][i] = r * uu[a] * uu[d] - bv[a] * bv[d];
            }
            pi[a * 3 + a][i] += 0.5 * bsqr;
        }
        tr_pi[i] = r * usqr + 0.5 * bsqr;
    }

    // Phase 3 — per direction: equilibrium, then relax the gathered value
    // in place. The f pass also stores cᵢ·u and cᵢ·B so the three g passes
    // reuse the exact values.
    for (q, (fd, gd)) in directions_mut(dst, px).enumerate() {
        let c = [C[q][0] as f64, C[q][1] as f64, C[q][2] as f64];
        let w = W[q];
        let fd = &mut fd[1..][..nx];
        for i in 0..nx {
            let cmom = c[0] * m[0][i] + c[1] * m[1][i] + c[2] * m[2][i];
            let cu = c[0] * u[0][i] + c[1] * u[1][i] + c[2] * u[2][i];
            let cb = c[0] * b[0][i] + c[1] * b[1][i] + c[2] * b[2][i];
            let mut cpc = 0.0;
            for a in 0..3 {
                for d in 0..3 {
                    cpc += c[a] * pi[a * 3 + d][i] * c[d];
                }
            }
            let feq = w * (rho[i] + 3.0 * cmom + 4.5 * cpc - 1.5 * tr_pi[i]);
            let fg = fd[i];
            fd[i] = fg + omega * (feq - fg);
            cu_l[i] = cu;
            cb_l[i] = cb;
        }
        for (a, gd) in gd.chunks_exact_mut(px).enumerate() {
            let gd = &mut gd[1..][..nx];
            let (ba, ua) = (&b[a], &u[a]);
            for i in 0..nx {
                let geq = w * (ba[i] + 3.0 * (cu_l[i] * ba[i] - cb_l[i] * ua[i]));
                let gg = gd[i];
                gd[i] = gg + omega_m * (geq - gg);
            }
        }
    }
}

/// [`step`] with an explicit worker handle. Workers own disjoint z-slabs,
/// each one contiguous window of `dst`, so every worker streams straight
/// into `dst` — no intermediate rows, no commit pass — and the result is
/// bitwise identical for every worker count.
pub fn step_with(
    threads: &Threads,
    src: &Block,
    dst: &mut Block,
    omega: f64,
    omega_m: f64,
) -> usize {
    assert_eq!((src.nx, src.ny, src.nz), (dst.nx, dst.ny, dst.nz));
    let (nx, ny, nz) = (src.nx, src.ny, src.nz);
    let (line_block, plane) = (src.line_block_len(), src.plane_len());

    let nslabs = threads.workers().min(nz).max(1);
    // Taken out of `dst` for the call so it can be borrowed beside the
    // slab windows; a no-op resize after the first step.
    let mut scratch = std::mem::take(&mut dst.scratch);
    let per_worker = SCRATCH_LANES * src.px();
    scratch.resize(nslabs * per_worker, 0.0);
    let tasks: Vec<_> = dst
        .z_slabs_mut(nslabs)
        .into_iter()
        .zip(scratch.chunks_exact_mut(per_worker))
        .map(|((k_lo, window), scratch)| {
            move || {
                for (k, planes) in window.chunks_exact_mut(plane).enumerate() {
                    let lines = planes.chunks_exact_mut(line_block).enumerate();
                    for (j, line) in lines.skip(1).take(ny) {
                        collide_line(src, (j, k_lo + k + 1), omega, omega_m, line, scratch);
                    }
                }
            }
        })
        .collect();
    threads.par_tasks(tasks);
    dst.scratch = scratch;

    let points = (nx * ny * nz) as u64;
    // One x-line per (j,k) pair is the vectorizable loop; totals derive
    // from the lattice extents, never from worker chunking.
    probe::count(
        "lbmhd/collide+stream",
        Counters {
            flops: points * FLOPS_PER_POINT as u64,
            unit_stride_bytes: points * BYTES_PER_POINT as u64,
            vector_iters: points,
            vector_loops: (ny * nz) as u64,
            ..Default::default()
        },
    );

    nx * ny * nz
}

/// The serial scalar reference: one point at a time, gather → moments →
/// [`equilibrium`] → relax, exactly as the pre-SoA kernel computed it.
/// The lane kernel in [`step_with`] must stay **bitwise identical** to
/// this (the equivalence is pinned by tests); it exists as the oracle and
/// is not instrumented.
pub fn step_reference(src: &Block, dst: &mut Block, omega: f64, omega_m: f64) -> usize {
    assert_eq!((src.nx, src.ny, src.nz), (dst.nx, dst.ny, dst.nz));
    let (nx, ny, nz) = (src.nx, src.ny, src.nz);

    for k in 1..=nz {
        for j in 1..=ny {
            for i in 1..=nx {
                // Upwind gather: the value streaming into x along
                // direction q comes from x − c_q.
                let mut fg = [0.0f64; Q];
                let mut gg = [[0.0f64; 3]; Q];
                for q in 0..Q {
                    let up = [0, 1, 2].map(|a| ([i, j, k][a] as i32 - C[q][a]) as usize);
                    fg[q] = src.at(q, up[0], up[1], up[2]);
                    for a in 0..3 {
                        gg[q][a] = src.at(g_lane(q, a), up[0], up[1], up[2]);
                    }
                }
                let mut rho = 0.0;
                let mut mom = [0.0f64; 3];
                let mut b = [0.0f64; 3];
                for q in 0..Q {
                    rho += fg[q];
                    for a in 0..3 {
                        mom[a] += fg[q] * C[q][a] as f64;
                        b[a] += gg[q][a];
                    }
                }
                let inv_rho = 1.0 / rho;
                let u = [mom[0] * inv_rho, mom[1] * inv_rho, mom[2] * inv_rho];
                let (feq, geq) = equilibrium(rho, u, b);
                for q in 0..Q {
                    *dst.at_mut(q, i, j, k) = fg[q] + omega * (feq[q] - fg[q]);
                    for a in 0..3 {
                        *dst.at_mut(g_lane(q, a), i, j, k) =
                            gg[q][a] + omega_m * (geq[q][a] - gg[q][a]);
                    }
                }
            }
        }
    }
    nx * ny * nz
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{set_equilibrium, Moments, LANES};

    /// Fill src halo by periodic wrap from its own interior (serial helper).
    fn wrap_halo(b: &mut Block) {
        for axis in 0..3 {
            b.wrap_axis(axis);
        }
    }

    #[test]
    fn equilibrium_reproduces_moments() {
        let rho = 1.05;
        let u = [0.03, -0.02, 0.01];
        let b = [0.04, 0.05, -0.02];
        let (feq, geq) = equilibrium(rho, u, b);
        let s: f64 = feq.iter().sum();
        assert!((s - rho).abs() < 1e-13, "density moment");
        for a in 0..3 {
            let m: f64 = (0..Q).map(|i| feq[i] * C[i][a] as f64).sum();
            assert!((m - rho * u[a]).abs() < 1e-13, "momentum moment {a}");
            let bb: f64 = (0..Q).map(|i| geq[i][a]).sum();
            assert!((bb - b[a]).abs() < 1e-13, "B moment {a}");
        }
    }

    #[test]
    fn equilibrium_second_moment_is_maxwell_stress() {
        let rho = 1.0;
        let u = [0.05, 0.02, -0.03];
        let b = [0.06, -0.01, 0.02];
        let bsqr: f64 = b.iter().map(|x| x * x).sum();
        let (feq, _) = equilibrium(rho, u, b);
        for a in 0..3 {
            for c in 0..3 {
                let m: f64 = (0..Q).map(|i| feq[i] * (C[i][a] * C[i][c]) as f64).sum();
                let mut want = rho * u[a] * u[c] - b[a] * b[c];
                if a == c {
                    want += rho / 3.0 + 0.5 * bsqr; // pressure + magnetic
                }
                assert!((m - want).abs() < 1e-12, "stress ({a},{c}): {m} vs {want}");
            }
        }
    }

    #[test]
    fn magnetic_equilibrium_first_moment_is_induction_flux() {
        let rho = 1.0;
        let u = [0.04, -0.01, 0.02];
        let b = [0.03, 0.05, -0.02];
        let (_, geq) = equilibrium(rho, u, b);
        for a in 0..3 {
            for c in 0..3 {
                let m: f64 = (0..Q).map(|i| geq[i][a] * C[i][c] as f64).sum();
                let want = u[c] * b[a] - b[c] * u[a];
                assert!((m - want).abs() < 1e-13, "induction flux ({a},{c})");
            }
        }
    }

    #[test]
    fn uniform_equilibrium_is_a_fixed_point() {
        let m = Moments { rho: 1.0, mom: [0.0; 3], b: [0.02, -0.03, 0.05] };
        let mut src = Block::zeros(4, 4, 4);
        set_equilibrium(&mut src, |_, _, _| m);
        wrap_halo(&mut src);
        let mut dst = Block::zeros(4, 4, 4);
        step(&src, &mut dst, 1.0, 1.0);
        for k in 0..4 {
            for j in 0..4 {
                for i in 0..4 {
                    let got = dst.moments(i, j, k);
                    assert!((got.rho - 1.0).abs() < 1e-12);
                    for a in 0..3 {
                        assert!(got.mom[a].abs() < 1e-12);
                        assert!((got.b[a] - m.b[a]).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn step_conserves_mass_momentum_and_flux() {
        // Random-ish smooth initial condition; conservation must hold to
        // round-off under periodic wrap.
        let n = 6;
        let mut src = Block::zeros(n, n, n);
        set_equilibrium(&mut src, |i, j, k| {
            let x = i as f64 / n as f64 * std::f64::consts::TAU;
            let y = j as f64 / n as f64 * std::f64::consts::TAU;
            let z = k as f64 / n as f64 * std::f64::consts::TAU;
            Moments {
                rho: 1.0 + 0.02 * x.sin() * y.cos(),
                mom: [0.03 * y.sin(), -0.02 * z.sin(), 0.01 * x.cos()],
                b: [0.04 * z.cos(), 0.03 * x.sin(), -0.02 * y.sin()],
            }
        });
        let before = src.totals();
        let mut dst = Block::zeros(n, n, n);
        wrap_halo(&mut src);
        step(&src, &mut dst, 1.8, 1.2);
        let after = dst.totals();
        assert!((before.rho - after.rho).abs() < 1e-10, "mass");
        for a in 0..3 {
            assert!((before.mom[a] - after.mom[a]).abs() < 1e-10, "momentum {a}");
            assert!((before.b[a] - after.b[a]).abs() < 1e-10, "total B {a}");
        }
    }

    #[test]
    fn pure_streaming_is_a_permutation() {
        // With ω = 0 the update is pure streaming: the multiset of f values
        // must be exactly preserved (no element lost or duplicated).
        let n = 4;
        let mut src = Block::zeros(n, n, n);
        let interior =
            || (1..=n).flat_map(|k| (1..=n).flat_map(move |j| (1..=n).map(move |i| (i, j, k))));
        // Distinct values everywhere.
        for q in 0..Q {
            for (i, j, k) in interior() {
                *src.at_mut(q, i, j, k) = (q * 1000 + i * 100 + j * 10 + k) as f64;
            }
        }
        wrap_halo(&mut src);
        let mut dst = Block::zeros(n, n, n);
        step(&src, &mut dst, 0.0, 0.0);
        for q in 0..Q {
            let mut a: Vec<f64> = interior().map(|(i, j, k)| src.at(q, i, j, k)).collect();
            let mut b: Vec<f64> = interior().map(|(i, j, k)| dst.at(q, i, j, k)).collect();
            a.sort_by(f64::total_cmp);
            b.sort_by(f64::total_cmp);
            assert_eq!(a, b, "direction {q} not a permutation");
        }
    }

    #[test]
    fn lane_kernel_is_bitwise_identical_to_scalar_reference() {
        // The line kernel vs. the per-point scalar oracle, at several
        // worker counts and at x extents around the SIMD widths (a lone
        // point, one short of / exactly / one past a multiple of 8, and
        // several vectors plus a tail): every f64 bit must match (see
        // module docs for why the chains are replicable at all).
        for nx in [1, 7, 8, 9, 33] {
            let (ny, nz) = (5, 6);
            let mut src = Block::zeros(nx, ny, nz);
            set_equilibrium(&mut src, |i, j, k| {
                let x = i as f64 / nx as f64 * std::f64::consts::TAU;
                let y = j as f64 / ny as f64 * std::f64::consts::TAU;
                let z = k as f64 / nz as f64 * std::f64::consts::TAU;
                Moments {
                    rho: 1.0 + 0.05 * (x + 2.0 * y).sin() * z.cos(),
                    mom: [0.04 * (y + z).sin(), -0.03 * (x * 1.7).cos(), 0.02 * (z - x).sin()],
                    b: [0.05 * (z * 1.3).cos(), 0.04 * (x + y).sin(), -0.03 * (y * 0.7).cos()],
                }
            });
            wrap_halo(&mut src);

            let mut want = Block::zeros(nx, ny, nz);
            step_reference(&src, &mut want, 1.9, 1.1);

            for workers in [1, 2, 4] {
                let mut got = Block::zeros(nx, ny, nz);
                step_with(&Threads::new(workers), &src, &mut got, 1.9, 1.1);
                for lane in 0..LANES {
                    for k in 1..=nz {
                        for j in 1..=ny {
                            for i in 1..=nx {
                                assert_eq!(
                                    got.at(lane, i, j, k).to_bits(),
                                    want.at(lane, i, j, k).to_bits(),
                                    "lane {lane} ({i},{j},{k}) nx={nx} workers={workers}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn flop_constant_is_audited_value() {
        assert_eq!(FLOPS_PER_POINT, 26.0 + 54.0 + 78.0 + 53.0 + 44.0 * 27.0);
        assert!(FLOPS_PER_POINT > 1300.0 && FLOPS_PER_POINT < 1500.0);
    }
}
