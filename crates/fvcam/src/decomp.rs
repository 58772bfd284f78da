//! Domain decompositions, halo exchange, and the dynamics↔remap transpose.
//!
//! Rank layout (latitude fastest, matching the paper's Figure 2): rank
//! `r = jz·Py + jy`, where `jy` indexes `Py` latitude bands and `jz`
//! indexes `Pz` level groups. The 1D decomposition is the `Pz = 1` case.
//!
//! * **Dynamics** phase: rank `(jz, jy)` owns all longitudes × latitude
//!   band `jy` × level group `jz`. Halo exchange runs north/south within a
//!   level group (`r ± 1`), producing the continuous diagonal segments of
//!   Figure 2; vertical coupling connects the `Pz` ranks of one latitude
//!   band (`r ± k·Py`), the fainter parallel lines.
//! * **Remap** phase: rank `(jz, jy)` owns longitude chunk `jz` × latitude
//!   band `jy` × *all* levels. The transposes between the two phases form
//!   the tilted grid of lines in Figure 2(b). As §3.2 notes, the number of
//!   processes decomposing longitude in the remap equals the number
//!   decomposing levels in the dynamics, which minimizes transposition
//!   cost.

use msim::Comm;

use crate::grid::{LevelBlock, SphereGrid};

/// A 2D processor decomposition (1D when `pz == 1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decomp {
    /// Latitude bands.
    pub py: usize,
    /// Level groups (and remap-phase longitude chunks).
    pub pz: usize,
}

impl Decomp {
    /// 1D latitude-only decomposition.
    pub fn one_d(p: usize) -> Self {
        Decomp { py: p, pz: 1 }
    }

    /// 2D decomposition with `pz` vertical groups.
    ///
    /// # Panics
    /// Panics if `pz` does not divide `p`.
    pub fn two_d(p: usize, pz: usize) -> Self {
        assert!(p % pz == 0, "pz must divide the process count");
        Decomp { py: p / pz, pz }
    }

    /// Total ranks.
    pub fn nprocs(&self) -> usize {
        self.py * self.pz
    }

    /// (jz, jy) coordinates of `rank`.
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        (rank / self.py, rank % self.py)
    }

    /// Rank of coordinates (jz, jy).
    pub fn rank_of(&self, jz: usize, jy: usize) -> usize {
        jz * self.py + jy
    }

    /// Latitude rows of band `jy` for a grid of `nlat` rows:
    /// `(start, count)`, remainder rows going to the low bands.
    pub fn lat_band(&self, nlat: usize, jy: usize) -> (usize, usize) {
        let base = nlat / self.py;
        let rem = nlat % self.py;
        let start = jy * base + jy.min(rem);
        let count = base + usize::from(jy < rem);
        (start, count)
    }

    /// Level range of group `jz` for `nlev` levels: `(start, count)`.
    pub fn lev_group(&self, nlev: usize, jz: usize) -> (usize, usize) {
        let base = nlev / self.pz;
        let rem = nlev % self.pz;
        let start = jz * base + jz.min(rem);
        let count = base + usize::from(jz < rem);
        (start, count)
    }

    /// Longitude chunk of group `jz` in the remap phase: `(start, count)`.
    pub fn lon_chunk(&self, nlon: usize, jz: usize) -> (usize, usize) {
        let base = nlon / self.pz;
        let rem = nlon % self.pz;
        let start = jz * base + jz.min(rem);
        let count = base + usize::from(jz < rem);
        (start, count)
    }
}

/// Fills the 2-row latitude halos of every local level of `field`.
/// Interior boundaries exchange with the `jy ± 1` neighbors; the poles use
/// the mirror-across-the-pole rule (value at the same latitude, half a
/// revolution away). Returns the bytes this rank sent.
pub fn exchange_lat_halos(
    comm: &Comm,
    decomp: &Decomp,
    levels: &mut [LevelBlock],
    rank: usize,
    tag_base: u64,
) -> usize {
    let (jz, jy) = decomp.coords(rank);
    let halo = 2usize;
    let mut sent = 0;

    // Pack the 2 northmost / southmost interior rows of every level.
    let pack = |levels: &[LevelBlock], north: bool| -> Vec<f64> {
        let mut buf = Vec::new();
        for b in levels {
            for h in 0..halo {
                let j =
                    if north { h as isize } else { b.nlat as isize - halo as isize + h as isize };
                buf.extend_from_slice(b.row(j));
            }
        }
        buf
    };
    let unpack = |levels: &mut [LevelBlock], buf: &[f64], north: bool| {
        let nlon = levels[0].nlon;
        let mut it = buf.chunks_exact(nlon);
        for b in levels.iter_mut() {
            for h in 0..halo {
                let j = if north {
                    -(halo as isize) + h as isize
                } else {
                    b.nlat as isize + h as isize
                };
                let row = it.next().expect("halo buffer too short");
                b.row_mut(j).copy_from_slice(row);
            }
        }
    };
    // Mirror across a pole: same rows reversed in order, shifted nlon/2.
    let mirror = |levels: &mut [LevelBlock], north: bool| {
        let nlon = levels[0].nlon;
        for b in levels.iter_mut() {
            for h in 1..=halo as isize {
                for i in 0..nlon {
                    let flip = (i + nlon / 2) % nlon;
                    if north {
                        let v = b.get(h - 1, flip);
                        *b.get_mut(-h, i) = v;
                    } else {
                        let n = b.nlat as isize;
                        let v = b.get(n - h, flip);
                        *b.get_mut(n - 1 + h, i) = v;
                    }
                }
            }
        }
    };

    // North edge (toward j = 0 / the south pole in index space: we treat
    // row 0 as the southernmost; "north neighbor" = jy + 1).
    if jy + 1 < decomp.py {
        let peer = decomp.rank_of(jz, jy + 1);
        let buf = pack(levels, false);
        sent += buf.len() * 8;
        comm.send_vec_f64(peer, tag_base, buf);
        let got = comm.recv_f64(peer, tag_base);
        unpack(levels, &got, false);
    } else {
        mirror(levels, false);
    }
    if jy > 0 {
        let peer = decomp.rank_of(jz, jy - 1);
        let buf = pack(levels, true);
        sent += buf.len() * 8;
        comm.send_vec_f64(peer, tag_base, buf);
        let got = comm.recv_f64(peer, tag_base);
        unpack(levels, &got, true);
    } else {
        mirror(levels, true);
    }
    sent
}

/// A remap-phase block: all `nlev` levels of one longitude chunk × one
/// latitude band, column-major in the vertical for the remap loops.
#[derive(Clone, Debug)]
pub struct ColumnBlock {
    /// Longitude points in this chunk.
    pub nlon: usize,
    /// Latitude rows in this band.
    pub nlat: usize,
    /// Global levels.
    pub nlev: usize,
    /// `nlev × nlat × nlon` values, longitude fastest, level slowest.
    pub data: Vec<f64>,
}

impl ColumnBlock {
    /// Zero-filled block.
    pub fn zeros(nlon: usize, nlat: usize, nlev: usize) -> Self {
        ColumnBlock { nlon, nlat, nlev, data: vec![0.0; nlon * nlat * nlev] }
    }

    /// Index of `(level, lat, lon)`.
    #[inline(always)]
    pub fn idx(&self, k: usize, j: usize, i: usize) -> usize {
        debug_assert!(k < self.nlev && j < self.nlat && i < self.nlon);
        (k * self.nlat + j) * self.nlon + i
    }

    /// Extracts the vertical column at `(j, i)`.
    pub fn column(&self, j: usize, i: usize) -> Vec<f64> {
        (0..self.nlev).map(|k| self.data[self.idx(k, j, i)]).collect()
    }

    /// Stores a vertical column at `(j, i)`.
    pub fn set_column(&mut self, j: usize, i: usize, col: &[f64]) {
        assert_eq!(col.len(), self.nlev);
        for (k, v) in col.iter().enumerate() {
            let ix = self.idx(k, j, i);
            self.data[ix] = *v;
        }
    }
}

/// Dynamics → remap transpose: each rank scatters its (levels × band ×
/// all-lon) data so that afterwards it holds (all levels × band × its lon
/// chunk). Only ranks in the same latitude band exchange. Returns
/// `(block, bytes_sent)`.
pub fn transpose_to_columns(
    comm: &Comm,
    grid: &SphereGrid,
    decomp: &Decomp,
    levels: &[LevelBlock],
    rank: usize,
    tag: u64,
) -> (ColumnBlock, usize) {
    let (jz, jy) = decomp.coords(rank);
    let (_, nlat_loc) = decomp.lat_band(grid.nlat, jy);
    let (lev0, nlev_loc) = decomp.lev_group(grid.nlev, jz);
    assert_eq!(levels.len(), nlev_loc, "level count mismatch");
    let mut sent = 0;

    // Send to each peer (kz, jy) the slice [its lon chunk] × band × my levels.
    for kz in 0..decomp.pz {
        if kz == jz {
            continue;
        }
        let (lon0, nlon_chunk) = decomp.lon_chunk(grid.nlon, kz);
        let mut buf = Vec::with_capacity(nlev_loc * nlat_loc * nlon_chunk);
        for b in levels {
            for j in 0..nlat_loc {
                let row = b.row(j as isize);
                buf.extend_from_slice(&row[lon0..lon0 + nlon_chunk]);
            }
        }
        sent += buf.len() * 8;
        comm.send_vec_f64(decomp.rank_of(kz, jy), tag, buf);
    }

    // Assemble my column block: my own levels directly, peers' by receive.
    let (my_lon0, my_nlon) = decomp.lon_chunk(grid.nlon, jz);
    let mut out = ColumnBlock::zeros(my_nlon, nlat_loc, grid.nlev);
    for (kl, b) in levels.iter().enumerate() {
        for j in 0..nlat_loc {
            let row = b.row(j as isize);
            for i in 0..my_nlon {
                let ix = out.idx(lev0 + kl, j, i);
                out.data[ix] = row[my_lon0 + i];
            }
        }
    }
    for kz in 0..decomp.pz {
        if kz == jz {
            continue;
        }
        let (peer_lev0, peer_nlev) = decomp.lev_group(grid.nlev, kz);
        let buf = comm.recv_f64(decomp.rank_of(kz, jy), tag);
        assert_eq!(buf.len(), peer_nlev * nlat_loc * my_nlon, "transpose slice mismatch");
        let mut it = buf.iter();
        for k in 0..peer_nlev {
            for j in 0..nlat_loc {
                for i in 0..my_nlon {
                    let ix = out.idx(peer_lev0 + k, j, i);
                    out.data[ix] = *it.next().unwrap();
                }
            }
        }
    }
    (out, sent)
}

/// Remap → dynamics transpose: the exact inverse of
/// [`transpose_to_columns`]. Writes back into `levels` and returns the
/// bytes sent.
pub fn transpose_to_levels(
    comm: &Comm,
    grid: &SphereGrid,
    decomp: &Decomp,
    cols: &ColumnBlock,
    levels: &mut [LevelBlock],
    rank: usize,
    tag: u64,
) -> usize {
    let (jz, jy) = decomp.coords(rank);
    let (_, nlat_loc) = decomp.lat_band(grid.nlat, jy);
    let (lev0, nlev_loc) = decomp.lev_group(grid.nlev, jz);
    let (my_lon0, my_nlon) = decomp.lon_chunk(grid.nlon, jz);
    let mut sent = 0;

    // Send each peer (kz, jy) its levels of my longitude chunk.
    for kz in 0..decomp.pz {
        if kz == jz {
            continue;
        }
        let (peer_lev0, peer_nlev) = decomp.lev_group(grid.nlev, kz);
        let mut buf = Vec::with_capacity(peer_nlev * nlat_loc * my_nlon);
        for k in 0..peer_nlev {
            for j in 0..nlat_loc {
                for i in 0..my_nlon {
                    buf.push(cols.data[cols.idx(peer_lev0 + k, j, i)]);
                }
            }
        }
        sent += buf.len() * 8;
        comm.send_vec_f64(decomp.rank_of(kz, jy), tag, buf);
    }

    // My own levels of my chunk.
    for (kl, b) in levels.iter_mut().enumerate() {
        for j in 0..nlat_loc {
            let row = b.row_mut(j as isize);
            for i in 0..my_nlon {
                row[my_lon0 + i] = cols.data[cols.idx(lev0 + kl, j, i)];
            }
        }
    }
    // Receive my levels of the peers' chunks.
    for kz in 0..decomp.pz {
        if kz == jz {
            continue;
        }
        let (lon0, nlon_chunk) = decomp.lon_chunk(grid.nlon, kz);
        let buf = comm.recv_f64(decomp.rank_of(kz, jy), tag);
        assert_eq!(buf.len(), nlev_loc * nlat_loc * nlon_chunk, "transpose slice mismatch");
        let mut it = buf.iter();
        for b in levels.iter_mut() {
            for j in 0..nlat_loc {
                let row = b.row_mut(j as isize);
                for v in row[lon0..lon0 + nlon_chunk].iter_mut() {
                    *v = *it.next().unwrap();
                }
            }
        }
    }
    sent
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_and_groups_cover_everything() {
        let d = Decomp::two_d(12, 4);
        assert_eq!((d.py, d.pz), (3, 4));
        let total: usize = (0..d.py).map(|jy| d.lat_band(19, jy).1).sum();
        assert_eq!(total, 19);
        let total: usize = (0..d.pz).map(|jz| d.lev_group(26, jz).1).sum();
        assert_eq!(total, 26);
        let total: usize = (0..d.pz).map(|jz| d.lon_chunk(576, jz).1).sum();
        assert_eq!(total, 576);
    }

    #[test]
    fn coords_round_trip() {
        let d = Decomp::two_d(28, 7);
        for r in 0..28 {
            let (jz, jy) = d.coords(r);
            assert_eq!(d.rank_of(jz, jy), r);
        }
    }

    #[test]
    fn one_d_has_single_level_group() {
        let d = Decomp::one_d(8);
        assert_eq!(d.pz, 1);
        assert_eq!(d.lev_group(26, 0), (0, 26));
    }

    #[test]
    fn halo_exchange_delivers_neighbor_rows() {
        let grid = SphereGrid::new(8, 12, 2);
        let d = Decomp::one_d(3);
        msim::run(3, move |comm| {
            let (lat0, nlat) = d.lat_band(grid.nlat, comm.rank() % d.py);
            let mut levels: Vec<LevelBlock> = (0..2)
                .map(|k| {
                    let mut b = LevelBlock::zeros(grid.nlon, nlat, 2);
                    for j in 0..nlat {
                        for i in 0..grid.nlon {
                            // Tag with global (level, lat, lon).
                            *b.get_mut(j as isize, i) = (k * 10000 + (lat0 + j) * 100 + i) as f64;
                        }
                    }
                    b
                })
                .collect();
            exchange_lat_halos(comm, &d, &mut levels, comm.rank(), 50);
            // Interior boundary halos hold the neighbor's edge rows.
            let (jz, jy) = d.coords(comm.rank());
            assert_eq!(jz, 0);
            if jy + 1 < d.py {
                let (nlat0, _) = d.lat_band(grid.nlat, jy + 1);
                for k in 0..2usize {
                    for i in 0..grid.nlon {
                        let want = (k * 10000 + nlat0 * 100 + i) as f64;
                        assert_eq!(levels[k].get(nlat as isize, i), want);
                    }
                }
            }
            if jy == 0 {
                // South pole mirror: halo row -1 equals row 0 shifted 180°.
                for i in 0..grid.nlon {
                    let flip = (i + grid.nlon / 2) % grid.nlon;
                    assert_eq!(levels[0].get(-1, i), levels[0].get(0, flip));
                }
            }
        })
        .unwrap();
    }

    #[test]
    fn transpose_round_trip_is_identity() {
        let grid = SphereGrid::new(12, 9, 8);
        let d = Decomp::two_d(4, 2);
        msim::run(4, move |comm| {
            let (jz, jy) = d.coords(comm.rank());
            let (lat0, nlat) = d.lat_band(grid.nlat, jy);
            let (lev0, nlev) = d.lev_group(grid.nlev, jz);
            let mut levels: Vec<LevelBlock> = (0..nlev)
                .map(|k| {
                    let mut b = LevelBlock::zeros(grid.nlon, nlat, 2);
                    for j in 0..nlat {
                        for i in 0..grid.nlon {
                            *b.get_mut(j as isize, i) =
                                ((lev0 + k) * 10000 + (lat0 + j) * 100 + i) as f64;
                        }
                    }
                    b
                })
                .collect();
            let original: Vec<Vec<f64>> = levels.iter().map(|b| b.data.clone()).collect();

            let (cols, sent) = transpose_to_columns(comm, &grid, &d, &levels, comm.rank(), 60);
            assert!(sent > 0);
            // The column block holds globally-tagged values for my chunk.
            let (lon0, _) = d.lon_chunk(grid.nlon, jz);
            for k in 0..grid.nlev {
                for j in 0..cols.nlat {
                    for i in 0..cols.nlon {
                        let want = (k * 10000 + (lat0 + j) * 100 + (lon0 + i)) as f64;
                        assert_eq!(cols.data[cols.idx(k, j, i)], want, "({k},{j},{i})");
                    }
                }
            }
            // Wipe and restore through the inverse transpose.
            for b in levels.iter_mut() {
                b.data.iter_mut().for_each(|v| *v = -1.0);
            }
            transpose_to_levels(comm, &grid, &d, &cols, &mut levels, comm.rank(), 61);
            for (b, orig) in levels.iter().zip(&original) {
                // Halo rows were not transported; compare interiors only.
                for j in 0..b.nlat {
                    for i in 0..b.nlon {
                        assert_eq!(b.get(j as isize, i), orig[b.idx(j as isize, i)]);
                    }
                }
            }
        })
        .unwrap();
    }

    #[test]
    fn column_block_round_trips_columns() {
        let mut c = ColumnBlock::zeros(4, 3, 5);
        let col = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        c.set_column(2, 1, &col);
        assert_eq!(c.column(2, 1), col);
        assert_eq!(c.column(0, 0), vec![0.0; 5]);
    }
}
