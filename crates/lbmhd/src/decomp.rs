//! 3D Cartesian block decomposition and halo exchange.
//!
//! The global grid is block-distributed over a 3D processor grid (paper
//! §5). The halo exchange runs in three sweeps (x, then y, then z), each a
//! pair of face exchanges that *include the already-received halo layers*
//! of previous sweeps — the standard trick that propagates edge and corner
//! values without explicit diagonal messages.
//!
//! A face is copied plane by plane (`Block::pack_face`); a periodic
//! self-wrap moves it in place; and face buffers circulate instead of being
//! allocated: each one is handed to `msim` by value, and the buffer
//! received from a neighbor becomes the next one sent.

use msim::Comm;

use crate::state::Block;

/// Factorization of `p` ranks into a 3D processor grid, closest to a cube:
/// the `[px, py, pz]` with the lowest surface-to-volume score, ties going
/// to the lexicographically smallest `(px, py)`.
pub fn processor_grid(p: usize) -> [usize; 3] {
    // The score is symmetric in the three extents, so sorting any minimizer
    // gives a minimizer no later in (px, py) order: the answer has
    // px ≤ py ≤ pz, hence px³ ≤ p and py² ≤ p / px, and both are divisors
    // of `p` no larger than √p.
    let divisors: Vec<usize> =
        (1..).take_while(|&d| d <= p / d).filter(|&d| p.is_multiple_of(d)).collect();
    let mut best = [p, 1, 1];
    let mut best_score = usize::MAX;
    for (i, &px) in divisors.iter().enumerate().take_while(|&(_, &px)| px * px <= p / px) {
        let rem = p / px;
        for &py in divisors[i..].iter().take_while(|&&py| py <= rem / py) {
            if !rem.is_multiple_of(py) {
                continue;
            }
            let pz = rem / py;
            // Surface-to-volume proxy: product of pairwise maxima.
            let score = px.max(py) * py.max(pz) * px.max(pz);
            if score < best_score {
                best_score = score;
                best = [px, py, pz];
            }
        }
    }
    best
}

/// One rank's placement in the processor grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CartRank {
    /// Processor-grid shape.
    pub dims: [usize; 3],
    /// This rank's coordinates.
    pub coords: [usize; 3],
}

impl CartRank {
    /// Builds coordinates for `rank` in row-major order over `dims`.
    pub fn new(rank: usize, dims: [usize; 3]) -> Self {
        let x = rank % dims[0];
        let y = (rank / dims[0]) % dims[1];
        let z = rank / (dims[0] * dims[1]);
        CartRank { dims, coords: [x, y, z] }
    }

    /// The communicator rank at `coords` (periodic).
    pub fn rank_of(&self, coords: [i64; 3]) -> usize {
        let w = |v: i64, n: usize| v.rem_euclid(n as i64) as usize;
        let c =
            [w(coords[0], self.dims[0]), w(coords[1], self.dims[1]), w(coords[2], self.dims[2])];
        c[0] + self.dims[0] * (c[1] + self.dims[1] * c[2])
    }

    /// Neighbor rank one step along `axis` in direction `dir` (±1).
    pub fn neighbor(&self, axis: usize, dir: i64) -> usize {
        let mut c = [self.coords[0] as i64, self.coords[1] as i64, self.coords[2] as i64];
        c[axis] += dir;
        self.rank_of(c)
    }
}

/// Local block extents for a global `n` split over `parts`, giving the
/// first `n % parts` parts one extra point.
pub fn local_extent(n: usize, parts: usize, coord: usize) -> usize {
    n / parts + usize::from(coord < n % parts)
}

/// Exchanges all six face halos with the Cartesian neighbors (periodic).
/// `spare` holds one face buffer per axis between calls (empty before the
/// first). Returns the number of payload bytes this rank sent.
pub fn exchange_halos(
    comm: &Comm,
    cart: &CartRank,
    b: &mut Block,
    spare: &mut [Vec<f64>; 3],
) -> usize {
    let mut sent = 0;
    let interior_hi = [b.nx, b.ny, b.nz];
    for axis in 0..3 {
        if cart.dims[axis] == 1 {
            b.wrap_axis(axis);
            continue;
        }
        let hi_plane = interior_hi[axis]; // last interior plane
        let n_lo = cart.neighbor(axis, -1);
        let n_hi = cart.neighbor(axis, 1);
        let tag = 100 + axis as u64;

        // Send my low interior plane down, receive my high halo from up.
        let mut buf = std::mem::take(&mut spare[axis]);
        buf.resize(b.face_len(axis), 0.0);
        b.pack_face(axis, 1, &mut buf);
        sent += buf.len() * 8;
        comm.send_vec_f64(n_lo, tag, buf);
        let mut buf = comm.recv_f64(n_hi, tag);
        b.unpack_face(axis, hi_plane + 1, &buf);

        // Send my high interior plane up, receive my low halo from down.
        b.pack_face(axis, hi_plane, &mut buf);
        sent += buf.len() * 8;
        comm.send_vec_f64(n_hi, tag + 10, buf);
        let buf = comm.recv_f64(n_lo, tag + 10);
        b.unpack_face(axis, 0, &buf);
        spare[axis] = buf;
    }
    sent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TABLE5_CONFIGS;

    /// The original `(px, py)` ascending scan over `1..=p`: the first
    /// minimum wins.
    fn processor_grid_reference(p: usize) -> [usize; 3] {
        let mut best = [p, 1, 1];
        let mut best_score = usize::MAX;
        for px in 1..=p {
            if p % px != 0 {
                continue;
            }
            let rem = p / px;
            for py in 1..=rem {
                if rem % py != 0 {
                    continue;
                }
                let pz = rem / py;
                let score = px.max(py) * py.max(pz) * px.max(pz);
                if score < best_score {
                    best_score = score;
                    best = [px, py, pz];
                }
            }
        }
        best
    }

    #[test]
    fn processor_grid_matches_the_brute_force_reference() {
        let awkward = [
            27_720,
            30_240,
            32_760,
            32_768,
            720_720,
            997_920,
            (1 << 20) - 1,
            1 << 20,
            1_048_573, // prime
        ];
        let table5 = TABLE5_CONFIGS.iter().map(|&(procs, _)| procs);
        for p in (1..=4096).chain(table5).chain(awkward) {
            assert_eq!(processor_grid(p), processor_grid_reference(p), "p={p}");
        }
    }

    #[test]
    fn processor_grid_is_exact_factorization() {
        for p in [1usize, 2, 3, 4, 8, 12, 16, 64, 256] {
            let d = processor_grid(p);
            assert_eq!(d[0] * d[1] * d[2], p, "p={p}");
        }
    }

    #[test]
    fn processor_grid_prefers_cubes() {
        assert_eq!(processor_grid(8), [2, 2, 2]);
        assert_eq!(processor_grid(64), [4, 4, 4]);
        let d27 = processor_grid(27);
        assert_eq!(d27, [3, 3, 3]);
    }

    #[test]
    fn cart_rank_round_trips() {
        let dims = [4, 3, 2];
        for r in 0..24 {
            let c = CartRank::new(r, dims);
            let back = c.rank_of([c.coords[0] as i64, c.coords[1] as i64, c.coords[2] as i64]);
            assert_eq!(back, r);
        }
    }

    #[test]
    fn neighbors_wrap_periodically() {
        let c = CartRank::new(0, [4, 1, 1]);
        assert_eq!(c.neighbor(0, -1), 3);
        assert_eq!(c.neighbor(0, 1), 1);
        // Axis with a single rank: neighbor is self.
        assert_eq!(c.neighbor(1, 1), 0);
    }

    #[test]
    fn local_extents_cover_global() {
        for (n, parts) in [(17usize, 4usize), (64, 8), (5, 5), (7, 3)] {
            let total: usize = (0..parts).map(|c| local_extent(n, parts, c)).sum();
            assert_eq!(total, n);
            // Extents differ by at most one.
            let exts: Vec<usize> = (0..parts).map(|c| local_extent(n, parts, c)).collect();
            let (mn, mx) = (exts.iter().min().unwrap(), exts.iter().max().unwrap());
            assert!(mx - mn <= 1);
        }
    }

    #[test]
    fn self_wrap_fills_halos_periodically() {
        let mut b = Block::zeros(3, 3, 3);
        // Tag interior points with their coordinates in f[0].
        for k in 1..=3 {
            for j in 1..=3 {
                for i in 1..=3 {
                    *b.at_mut(0, i, j, k) = (100 * i + 10 * j + k) as f64;
                }
            }
        }
        // Run the self-wrap path through msim with one rank.
        let cart = CartRank::new(0, [1, 1, 1]);
        msim::run(1, move |comm| {
            let mut local = b.clone();
            let mut spare = Default::default();
            assert_eq!(exchange_halos(comm, &cart, &mut local, &mut spare), 0);
            // Low-x halo must equal the high-x interior plane — and the
            // corner halo the diagonally opposite interior corner, which
            // only the sweep order (each axis carrying the earlier halos)
            // delivers.
            for k in 1..=3 {
                for j in 1..=3 {
                    assert_eq!(local.at(0, 0, j, k), local.at(0, 3, j, k));
                }
            }
            assert_eq!(local.at(0, 0, 0, 0), local.at(0, 3, 3, 3));
            assert_eq!(local.at(0, 4, 0, 4), local.at(0, 1, 3, 1));
        })
        .unwrap();
    }
}
