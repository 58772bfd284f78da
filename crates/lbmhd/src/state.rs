//! Distribution storage and macroscopic moments.
//!
//! All `4·Q = 108` distribution *lanes* — lane `q` is the scalar
//! distribution f_q, lane [`g_lane`]`(q, a)` component `a` of the vector
//! distribution g_q — live in **one flat allocation in line-contiguous
//! order**: element (lane ℓ, padded point `(i, j, k)`) sits at
//!
//! ```text
//! ((k·py + j)·LANES + ℓ)·px + i
//! ```
//!
//! so the lattice is `pz` planes × `py` *line blocks* × `LANES` x-lines of
//! `px` doubles. The paper's §5 story for LBMHD3D on cache machines is a
//! memory-system one: the fused kernel is a few streaming passes, and what
//! decides its speed is how many concurrent streams those passes walk.
//! Here every x-line is still a unit-stride stream for the vectorizer
//! (§5.1), but all 108 destination lines of a lattice line are one
//! contiguous run, the upwind gather reads from at most nine neighbouring
//! line blocks, a z-face of every lane is one slice and a y-face one slice
//! per plane.
//!
//! This module is the layout's only owner: everything else goes through
//! [`Block::at`] / [`Block::at_mut`] and, inside the crate, `line`,
//! `directions_mut`, `z_slabs_mut` and the face copies.
//!
//! Every local block is padded with a one-point halo on all sides; the halo
//! is filled by `decomp` (from neighbor ranks or periodic wrap).

use crate::lattice::Q;

/// Distribution lanes per lattice point: `Q` scalar + `3Q` vector components.
pub const LANES: usize = 4 * Q;

/// Lane of component `a` of the vector distribution g_q (f_q is lane `q`).
#[inline(always)]
pub const fn g_lane(q: usize, a: usize) -> usize {
    Q + 3 * q + a
}

/// Per direction `q`, in order: the f_q x-line of a line block and the
/// three g_q x-lines (one `3·px` run, component-major) behind it.
pub(crate) fn directions_mut(
    line_block: &mut [f64],
    px: usize,
) -> impl Iterator<Item = (&mut [f64], &mut [f64])> {
    let (f, g) = line_block.split_at_mut(Q * px);
    f.chunks_exact_mut(px).zip(g.chunks_exact_mut(3 * px))
}

/// One rank's block of the distributed lattice, with a 1-point halo.
#[derive(Clone, Debug)]
pub struct Block {
    /// Interior extent in x.
    pub nx: usize,
    /// Interior extent in y.
    pub ny: usize,
    /// Interior extent in z.
    pub nz: usize,
    /// All lanes, line-contiguous (see the module docs).
    data: Vec<f64>,
    /// Per-worker line scratch of the collide kernel writing into this
    /// block; sized on first use, so stepping allocates nothing.
    pub(crate) scratch: Vec<f64>,
}

impl Block {
    /// Allocates a zero-filled block for an `nx × ny × nz` interior.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        let len = LANES * (nx + 2) * (ny + 2) * (nz + 2);
        Block { nx, ny, nz, data: vec![0.0; len], scratch: Vec::new() }
    }

    /// Padded x extent.
    #[inline(always)]
    pub fn px(&self) -> usize {
        self.nx + 2
    }

    /// Padded y extent.
    #[inline(always)]
    pub fn py(&self) -> usize {
        self.ny + 2
    }

    /// Padded z extent.
    #[inline(always)]
    pub fn pz(&self) -> usize {
        self.nz + 2
    }

    /// Doubles in one (j, k) line block: all lanes' padded x-lines.
    #[inline(always)]
    pub(crate) fn line_block_len(&self) -> usize {
        LANES * self.px()
    }

    /// Doubles in one z-plane of line blocks.
    #[inline(always)]
    pub(crate) fn plane_len(&self) -> usize {
        self.py() * self.line_block_len()
    }

    /// Linear index of `lane` at padded coordinates `(i, j, k)` (0 = low halo).
    #[inline(always)]
    fn idx(&self, lane: usize, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(lane < LANES && i < self.px() && j < self.py() && k < self.pz());
        ((k * self.py() + j) * LANES + lane) * self.px() + i
    }

    /// Value of `lane` at padded coordinates `(i, j, k)` (0 = low halo).
    #[inline(always)]
    pub fn at(&self, lane: usize, i: usize, j: usize, k: usize) -> f64 {
        self.data[self.idx(lane, i, j, k)]
    }

    /// Mutable value of `lane` at padded coordinates `(i, j, k)`.
    #[inline(always)]
    pub fn at_mut(&mut self, lane: usize, i: usize, j: usize, k: usize) -> &mut f64 {
        let ix = self.idx(lane, i, j, k);
        &mut self.data[ix]
    }

    /// The padded x-line (`px` doubles) of `lane` at padded `(j, k)`.
    #[inline(always)]
    pub(crate) fn line(&self, lane: usize, j: usize, k: usize) -> &[f64] {
        &self.data[self.idx(lane, 0, j, k)..][..self.px()]
    }

    /// Number of interior points.
    pub fn interior_len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Splits the interior planes into `n` contiguous z-slabs. Slab `s`
    /// owns interior planes `k_lo..k_hi` (`k_lo = s·nz/n`) and gets their
    /// padded planes — `k_hi − k_lo` chunks of `plane_len()`, each
    /// `py` line blocks of `LANES` x-lines in lane order — as one disjoint
    /// `&mut` window, returned as `(k_lo, window)`.
    pub(crate) fn z_slabs_mut(&mut self, n: usize) -> Vec<(usize, &mut [f64])> {
        let (nz, plane) = (self.nz, self.plane_len());
        let mut rest = &mut self.data[plane..];
        (0..n)
            .map(|s| {
                let (k_lo, k_hi) = (s * nz / n, (s + 1) * nz / n);
                let (head, tail) = std::mem::take(&mut rest).split_at_mut((k_hi - k_lo) * plane);
                rest = tail;
                (k_lo, head)
            })
            .collect()
    }

    /// The padded plane at `fixed` along `axis` (halo of the other two axes
    /// included) as `count` runs of `run` doubles, `stride` apart from
    /// `start`: `(start, run, stride, count)`.
    fn face(&self, axis: usize, fixed: usize) -> (usize, usize, usize, usize) {
        let (lb, plane) = (self.line_block_len(), self.plane_len());
        match axis {
            0 => (fixed, 1, self.px(), self.data.len() / self.px()),
            1 => (fixed * lb, lb, plane, self.pz()),
            2 => (fixed * plane, plane, plane, 1),
            _ => panic!("axis out of range"),
        }
    }

    /// Doubles in one face along `axis`: every lane over the padded plane.
    pub(crate) fn face_len(&self, axis: usize) -> usize {
        let (_, run, _, count) = self.face(axis, 0);
        run * count
    }

    /// Copies the face at `fixed` along `axis` into `buf` (of exactly
    /// `face_len(axis)` doubles).
    pub(crate) fn pack_face(&self, axis: usize, fixed: usize, buf: &mut [f64]) {
        let (start, run, stride, count) = self.face(axis, fixed);
        assert_eq!(buf.len(), run * count, "face buffer length along axis {axis}");
        if run == 1 {
            for (d, s) in buf.iter_mut().zip(self.data[start..].iter().step_by(stride)) {
                *d = *s;
            }
        } else {
            for (c, d) in buf.chunks_exact_mut(run).enumerate() {
                d.copy_from_slice(&self.data[start + c * stride..][..run]);
            }
        }
    }

    /// Overwrites the face at `fixed` along `axis` with a buffer written
    /// by `pack_face` on a block of the same cross-section.
    ///
    /// # Panics
    /// Panics unless `buf` holds exactly `face_len(axis)` doubles.
    pub(crate) fn unpack_face(&mut self, axis: usize, fixed: usize, buf: &[f64]) {
        let (start, run, stride, count) = self.face(axis, fixed);
        assert_eq!(
            buf.len(),
            run * count,
            "face buffer along axis {axis}: expected {} doubles, got {}",
            run * count,
            buf.len()
        );
        if run == 1 {
            for (d, s) in self.data[start..].iter_mut().step_by(stride).zip(buf) {
                *d = *s;
            }
        } else {
            for (c, s) in buf.chunks_exact(run).enumerate() {
                self.data[start + c * stride..][..run].copy_from_slice(s);
            }
        }
    }

    /// Periodic self-wrap along `axis`: the first and last interior planes
    /// are copied onto the opposite halo planes in place, with no buffer.
    pub(crate) fn wrap_axis(&mut self, axis: usize) {
        let n = [self.nx, self.ny, self.nz][axis];
        if axis == 0 {
            // An x-face is a column of the px-wide row matrix: one pass.
            for row in self.data.chunks_exact_mut(n + 2) {
                row[n + 1] = row[1];
                row[0] = row[n];
            }
            return;
        }
        for (from, to) in [(1, n + 1), (n, 0)] {
            let (src, run, stride, count) = self.face(axis, from);
            let (dst, ..) = self.face(axis, to);
            for c in (0..count).map(|c| c * stride) {
                self.data.copy_within(src + c..src + c + run, dst + c);
            }
        }
    }

    /// Macroscopic moments (ρ, ρu, B) at interior point `(i, j, k)`,
    /// computed from the stored (post-collision) distributions.
    pub fn moments(&self, i: usize, j: usize, k: usize) -> Moments {
        use crate::lattice::C;
        let mut rho = 0.0;
        let mut mom = [0.0; 3];
        let mut b = [0.0; 3];
        for q in 0..Q {
            let fq = self.at(q, i + 1, j + 1, k + 1);
            rho += fq;
            for a in 0..3 {
                mom[a] += fq * C[q][a] as f64;
                b[a] += self.at(g_lane(q, a), i + 1, j + 1, k + 1);
            }
        }
        Moments { rho, mom, b }
    }

    /// Sums (ρ, ρu, B) over the whole interior — conservation diagnostics.
    pub fn totals(&self) -> Moments {
        let mut t = Moments::default();
        for k in 0..self.nz {
            for j in 0..self.ny {
                for i in 0..self.nx {
                    let m = self.moments(i, j, k);
                    t.rho += m.rho;
                    for a in 0..3 {
                        t.mom[a] += m.mom[a];
                        t.b[a] += m.b[a];
                    }
                }
            }
        }
        t
    }
}

/// Macroscopic moments at one point (or summed over a region).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Moments {
    /// Mass density ρ.
    pub rho: f64,
    /// Momentum density ρu.
    pub mom: [f64; 3],
    /// Magnetic field B.
    pub b: [f64; 3],
}

impl Moments {
    /// Fluid velocity u = ρu / ρ.
    pub fn velocity(&self) -> [f64; 3] {
        [self.mom[0] / self.rho, self.mom[1] / self.rho, self.mom[2] / self.rho]
    }
}

/// Sets a block's distributions to the MHD equilibrium for the given
/// macroscopic fields (interior points only; halos stay zero until the
/// first exchange).
pub fn set_equilibrium(block: &mut Block, mut fields: impl FnMut(usize, usize, usize) -> Moments) {
    for k in 0..block.nz {
        for j in 0..block.ny {
            for i in 0..block.nx {
                let m = fields(i, j, k);
                let u = m.velocity();
                let (feq, geq) = crate::collide::equilibrium(m.rho, u, m.b);
                for q in 0..Q {
                    *block.at_mut(q, i + 1, j + 1, k + 1) = feq[q];
                    for a in 0..3 {
                        *block.at_mut(g_lane(q, a), i + 1, j + 1, k + 1) = geq[q][a];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A block whose every element (halo included) holds its own flat index.
    fn numbered(nx: usize, ny: usize, nz: usize) -> Block {
        let mut b = Block::zeros(nx, ny, nz);
        for (n, v) in b.data.iter_mut().enumerate() {
            *v = n as f64;
        }
        b
    }

    #[test]
    fn indexing_is_dense_disjoint_and_line_contiguous() {
        let b = numbered(4, 3, 2);
        let mut seen = vec![false; LANES * b.px() * b.py() * b.pz()];
        for k in 0..b.pz() {
            for j in 0..b.py() {
                for lane in 0..LANES {
                    // Lanes of one (j,k) line block follow each other, and
                    // line blocks follow each other in (k, j) order.
                    let first = ((k * b.py() + j) * LANES + lane) * b.px();
                    assert_eq!(b.line(lane, j, k)[0], first as f64);
                    for i in 0..b.px() {
                        let ix = b.at(lane, i, j, k) as usize;
                        assert_eq!(ix, first + i);
                        assert!(!seen[ix]);
                        seen[ix] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn z_slabs_tile_the_interior_planes() {
        let mut b = numbered(2, 3, 5);
        let plane = b.plane_len();
        for n in [1usize, 2, 3, 5] {
            let slabs = b.z_slabs_mut(n);
            assert_eq!(slabs.len(), n);
            let mut next = plane; // padded plane 1 = interior plane 0
            for (s, (k_lo, w)) in slabs.iter().enumerate() {
                assert_eq!(*k_lo, s * 5 / n);
                assert_eq!(w[0], next as f64, "slab {s} of {n} starts at its first plane");
                next += w.len();
            }
            assert_eq!(next, 6 * plane, "slabs end where the high halo plane begins");
        }
    }

    #[test]
    fn pack_unpack_round_trip_on_every_axis() {
        let b = numbered(3, 4, 5);
        for axis in 0..3 {
            let mut buf = vec![0.0; b.face_len(axis)];
            assert_eq!(buf.len(), b.data.len() / [b.px(), b.py(), b.pz()][axis]);
            b.pack_face(axis, 2, &mut buf);
            // Exactly the elements whose `axis` coordinate is 2, each once.
            let mut b2 = b.clone();
            for lane in 0..LANES {
                for k in 0..b.pz() {
                    for j in 0..b.py() {
                        for i in 0..b.px() {
                            if [i, j, k][axis] == 2 {
                                *b2.at_mut(lane, i, j, k) = -1.0;
                            }
                        }
                    }
                }
            }
            assert_eq!(b2.data.iter().filter(|&&v| v == -1.0).count(), buf.len());
            b2.unpack_face(axis, 2, &buf);
            assert_eq!(b.data, b2.data, "axis {axis}");
        }
    }

    #[test]
    #[should_panic(expected = "face buffer along axis 1: expected 3780 doubles, got 3781")]
    fn unpack_rejects_a_buffer_of_the_wrong_length() {
        let mut b = Block::zeros(3, 4, 5);
        let buf = vec![0.0; b.face_len(1) + 1];
        b.unpack_face(1, 0, &buf);
    }

    #[test]
    fn wrap_axis_copies_interior_faces_onto_opposite_halos() {
        for axis in 0..3 {
            let mut b = numbered(3, 4, 2);
            let want = b.clone();
            b.wrap_axis(axis);
            let n = [b.nx, b.ny, b.nz][axis];
            for lane in [0, Q, LANES - 1] {
                for k in 0..b.pz() {
                    for j in 0..b.py() {
                        for i in 0..b.px() {
                            let mut c = [i, j, k];
                            if c[axis] == 0 {
                                c[axis] = n;
                            } else if c[axis] == n + 1 {
                                c[axis] = 1;
                            }
                            assert_eq!(
                                b.at(lane, i, j, k),
                                want.at(lane, c[0], c[1], c[2]),
                                "axis {axis} lane {lane} ({i},{j},{k})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn equilibrium_moments_round_trip() {
        let mut b = Block::zeros(3, 3, 3);
        let want = Moments { rho: 1.1, mom: [0.022, -0.011, 0.033], b: [0.05, 0.02, -0.04] };
        set_equilibrium(&mut b, |_, _, _| want);
        let got = b.moments(1, 1, 1);
        assert!((got.rho - want.rho).abs() < 1e-12);
        for a in 0..3 {
            assert!((got.mom[a] - want.mom[a]).abs() < 1e-12, "mom[{a}]");
            assert!((got.b[a] - want.b[a]).abs() < 1e-12, "b[{a}]");
        }
    }

    #[test]
    fn totals_scale_with_volume() {
        let mut b = Block::zeros(4, 4, 4);
        set_equilibrium(&mut b, |_, _, _| Moments { rho: 2.0, mom: [0.0; 3], b: [0.1, 0.0, 0.0] });
        let t = b.totals();
        assert!((t.rho - 2.0 * 64.0).abs() < 1e-9);
        assert!((t.b[0] - 0.1 * 64.0).abs() < 1e-9);
    }

    #[test]
    fn velocity_divides_momentum_by_density() {
        let m = Moments { rho: 2.0, mom: [1.0, -2.0, 4.0], b: [0.0; 3] };
        assert_eq!(m.velocity(), [0.5, -1.0, 2.0]);
    }
}
