//! The distributed sphere↔real-space 3D FFT.
//!
//! This is PARATEC's hand-written transform (paper §6): wavefunction
//! coefficients live on the load-balanced G-sphere (whole columns per
//! rank); real-space fields live as z-slabs. One forward transform is:
//!
//! 1. **column FFTs** — each rank gathers its columns' dense z-lines into
//!    one `[z][column]` batch and 1D-inverse-transforms them along gz in
//!    one batched call (the sphere is sparse, so only resident columns are
//!    touched);
//! 2. **global transpose** — every rank sends, for each of its columns,
//!    the z-range owned by each slab rank (an all-to-all; "the global data
//!    transposes within these FFT operations account for the bulk of
//!    PARATEC's communication overhead");
//! 3. **plane FFTs** — each slab rank 2D-transforms its z-planes: the x
//!    pencils as one batch over the transposed plane, then the y pencils
//!    as one batch over the plane in place (its rows already interleave
//!    them).
//!
//! Every 1D transform runs through [`FftPlan::execute_batch`], vectorized
//! across the pencils as the paper's vector machines ran their FFTs, with
//! each pencil's arithmetic — and so every output bit — the same as a
//! lone transform's. The inverse direction reverses the three stages.
//! Complex values travel through msim as (re, im) pairs.

use hec_core::pool::Threads;
use hec_core::probe::{self, Counters};
use kernels::fft::{Direction, FftPlan};
use kernels::Complex64;
use msim::Comm;

use crate::basis::{wrap_freq, GSphere};

/// Z-slab ownership: rank `p` owns planes `[start(p), start(p+1))`.
pub fn slab_start(nz: usize, nprocs: usize, p: usize) -> usize {
    // Even split with remainders to the low ranks.
    let base = nz / nprocs;
    let rem = nz % nprocs;
    p * base + p.min(rem)
}

/// Number of planes rank `p` owns.
pub fn slab_len(nz: usize, nprocs: usize, p: usize) -> usize {
    slab_start(nz, nprocs, p + 1) - slab_start(nz, nprocs, p)
}

/// Per-rank state for distributed transforms of one fixed basis.
pub struct DistFft {
    /// The shared basis description.
    pub sphere: GSphere,
    /// Indices of this rank's columns.
    pub my_columns: Vec<usize>,
    /// All ranks' column assignments (identical table everywhere).
    pub assignment: Vec<Vec<usize>>,
    plan_z: FftPlan,
    plan_x: FftPlan,
    plan_y: FftPlan,
    /// Number of ranks.
    pub nprocs: usize,
    /// This rank.
    pub rank: usize,
    /// Shared-memory worker handle for the per-rank FFT and transpose
    /// stages. All threaded stages are bitwise invariant in the worker
    /// count.
    pub threads: Threads,
    /// Bytes sent in transposes so far (instrumentation).
    pub transpose_bytes: u64,
    /// Flops executed in FFT stages so far (instrumentation).
    pub fft_flops: f64,
    /// Where each of my columns starts in a local coefficient slice, plus
    /// the total: `ncols + 1` entries.
    col_offsets: Vec<usize>,
    /// Each local coefficient's index on its column's dense z-line (its
    /// gz wrapped onto `0..nz`), so no transform takes a remainder.
    z_of: Vec<usize>,
    /// My columns' dense z-lines, `nz · ncols` values: one panel per
    /// worker, each a `[z][column]` batch of a contiguous column range
    /// (see [`DistFft::panel_width`]).
    cols: Vec<Complex64>,
    /// This rank's real-space slab, reused by every transform.
    slab: Vec<Complex64>,
    /// One transposed `[x][y]` plane per worker, for the x pencils.
    plane_tmp: Vec<Complex64>,
}

/// Where column `i` lives in the column panels, for `ncols` columns of
/// length `nz` in panels of `width` columns (the last panel may be
/// narrower): element `z` sits at `start + z * step`.
fn col_slot(ncols: usize, nz: usize, width: usize, i: usize) -> (usize, usize) {
    let (p, j) = (i / width, i % width);
    (p * width * nz + j, width.min(ncols - p * width))
}

impl DistFft {
    /// Builds the per-rank transform state at the environment's worker
    /// count.
    pub fn new(sphere: GSphere, rank: usize, nprocs: usize) -> Self {
        Self::with_threads(sphere, rank, nprocs, Threads::from_env())
    }

    /// Builds the per-rank transform state with an explicit worker
    /// handle.
    pub fn with_threads(sphere: GSphere, rank: usize, nprocs: usize, threads: Threads) -> Self {
        let assignment = sphere.balance(nprocs);
        let my_columns = assignment[rank].clone();
        let col_offsets: Vec<usize> = std::iter::once(0)
            .chain(my_columns.iter().scan(0usize, |off, &ci| {
                *off += sphere.columns[ci].len();
                Some(*off)
            }))
            .collect();
        let (nx, ny, nz) = (sphere.nx, sphere.ny, sphere.nz);
        let z_of = my_columns
            .iter()
            .flat_map(|&ci| sphere.columns[ci].gz.iter().map(|&gz| wrap_freq(gz, nz)))
            .collect();
        DistFft {
            plan_z: FftPlan::new(nz),
            plan_x: FftPlan::new(nx),
            plan_y: FftPlan::new(ny),
            cols: vec![Complex64::ZERO; nz * my_columns.len()],
            slab: vec![Complex64::ZERO; nx * ny * slab_len(nz, nprocs, rank)],
            plane_tmp: Vec::new(),
            col_offsets,
            z_of,
            sphere,
            my_columns,
            assignment,
            nprocs,
            rank,
            threads,
            transpose_bytes: 0,
            fft_flops: 0.0,
        }
    }

    /// Local G-vector count (the length of a local coefficient slice).
    pub fn local_ng(&self) -> usize {
        self.col_offsets[self.my_columns.len()]
    }

    /// Local slab size in real space: `nx × ny × slab_len` points.
    pub fn local_slab_len(&self) -> usize {
        self.slab.len()
    }

    /// Columns per worker panel: my columns split into one contiguous
    /// range per worker, so each worker transforms its own batch.
    fn panel_width(&self) -> usize {
        self.my_columns.len().div_ceil(self.threads.workers()).max(1)
    }

    /// Forward transform: sphere coefficients (this rank's columns,
    /// concatenated in `my_columns` order) → real-space z-slab
    /// (x-fastest, then y, then local plane).
    pub fn to_real_space(&mut self, comm: &mut Comm, coeffs: &[Complex64]) -> Vec<Complex64> {
        self.sphere_to_slab(comm, coeffs).to_vec()
    }

    /// [`DistFft::to_real_space`] into the transform's own slab buffer,
    /// which it returns: the caller may work on it in place and hand it
    /// back with [`DistFft::slab_to_sphere`], with no allocation per band.
    pub fn sphere_to_slab(&mut self, comm: &mut Comm, coeffs: &[Complex64]) -> &mut [Complex64] {
        assert_eq!(coeffs.len(), self.local_ng(), "coefficient slice mismatch");
        let (nx, ny, nz) = (self.sphere.nx, self.sphere.ny, self.sphere.nz);
        let ncols = self.my_columns.len();
        let width = self.panel_width();

        // Stage 1: scatter each column's sparse gz points onto its dense
        // z-line and inverse-FFT the lines (G→r along z), one batch per
        // worker panel.
        let (offsets, z_of, plan_z) = (&self.col_offsets, &self.z_of, &self.plan_z);
        self.threads.par_chunks_mut(&mut self.cols, width * nz, |p, panel| {
            let w = panel.len() / nz;
            panel.fill(Complex64::ZERO);
            for j in 0..w {
                let (lo, hi) = (offsets[p * width + j], offsets[p * width + j + 1]);
                for (&z, &c) in z_of[lo..hi].iter().zip(&coeffs[lo..hi]) {
                    panel[z * w + j] = c;
                }
            }
            plan_z.execute_batch(panel, w, Direction::Inverse);
        });
        self.fft_flops += ncols as f64 * self.plan_z.flops();
        self.count_z_stage();

        // Stage 2: transpose — ship each slab rank its z-range of every
        // column, tagged with the column's (gx, gy). One pack task per
        // destination rank (each builds its own buffer).
        let (sphere, my_columns, nprocs, cols) =
            (&self.sphere, &self.my_columns, self.nprocs, &self.cols);
        let send: Vec<Vec<f64>> = self.threads.par_tasks(
            (0..nprocs)
                .map(|p| {
                    move || {
                        let (s, l) = (slab_start(nz, nprocs, p), slab_len(nz, nprocs, p));
                        let mut buf = Vec::with_capacity(ncols * (2 + 2 * l));
                        for (i, &ci) in my_columns.iter().enumerate() {
                            let col = &sphere.columns[ci];
                            buf.push(col.gx as f64);
                            buf.push(col.gy as f64);
                            let (start, step) = col_slot(ncols, nz, width, i);
                            for z in s..s + l {
                                let v = cols[start + z * step];
                                buf.push(v.re);
                                buf.push(v.im);
                            }
                        }
                        buf
                    }
                })
                .collect::<Vec<_>>(),
        );
        self.transpose_bytes += send
            .iter()
            .enumerate()
            .filter(|(p, _)| *p != self.rank)
            .map(|(_, b)| b.len() as u64 * 8)
            .sum::<u64>();
        let recv = comm.alltoall_f64(&send);

        // Unpack into the dense local slab, one plane per task: every
        // record carries one value for each local plane, so plane `z`
        // reads offset `2 + 2z` of every record and owns its writes.
        let my_len = slab_len(nz, self.nprocs, self.rank);
        if my_len > 0 {
            let rec_len = 2 + 2 * my_len;
            for buf in &recv {
                assert!(buf.len() % rec_len == 0, "corrupt transpose record");
            }
            let recv_ref = &recv;
            self.threads.par_chunks_mut(&mut self.slab, nx * ny, |z, plane| {
                plane.fill(Complex64::ZERO);
                for buf in recv_ref {
                    for rec in buf.chunks_exact(rec_len) {
                        let (gx, gy) = (rec[0] as usize, rec[1] as usize);
                        plane[gx + nx * gy] = Complex64::new(rec[2 + 2 * z], rec[3 + 2 * z]);
                    }
                }
            });
        }

        // Stage 3: inverse 2D FFT on each local plane (x pencils, then
        // y), planes split across workers.
        self.plane_ffts(Direction::Inverse);
        &mut self.slab
    }

    /// Records the probe events of one z-stage column sweep: baseline
    /// `5 n log₂ n` flops per column line, one vectorizable loop per line.
    fn count_z_stage(&self) {
        if !probe::enabled() {
            return;
        }
        let (ncols, nz) = (self.my_columns.len() as u64, self.sphere.nz as u64);
        probe::count(
            "paratec/3D FFTs",
            Counters {
                flops: (self.my_columns.len() as f64 * self.plan_z.flops()).round() as u64,
                unit_stride_bytes: ncols * nz * 32,
                vector_iters: ncols * nz,
                vector_loops: ncols,
                ..Default::default()
            },
        );
    }

    /// 2D x/y pencil FFTs on every `nx × ny` plane of the slab, planes
    /// split into one contiguous group per worker (each plane is a
    /// disjoint contiguous slice, so the result is bitwise identical to
    /// the serial sweep). A plane is a `[y][x]` batch of its y pencils as
    /// it stands; its x pencils are batched through the worker's
    /// transposed copy.
    fn plane_ffts(&mut self, dir: Direction) {
        let (nx, ny) = (self.sphere.nx, self.sphere.ny);
        let planes = self.slab.len() / (nx * ny);
        let workers = self.threads.workers();
        self.plane_tmp.resize(workers * nx * ny, Complex64::ZERO);
        let (plan_x, plan_y) = (&self.plan_x, &self.plan_y);
        let tasks: Vec<_> = self
            .slab
            .chunks_mut(planes.div_ceil(workers).max(1) * nx * ny)
            .zip(self.plane_tmp.chunks_exact_mut(nx * ny))
            .map(|(group, tmp)| {
                move || {
                    for plane in group.chunks_exact_mut(nx * ny) {
                        for (y, row) in plane.chunks_exact(nx).enumerate() {
                            for (x, v) in row.iter().enumerate() {
                                tmp[x * ny + y] = *v;
                            }
                        }
                        plan_x.execute_batch(tmp, ny, dir);
                        for (y, row) in plane.chunks_exact_mut(nx).enumerate() {
                            for (x, v) in row.iter_mut().enumerate() {
                                *v = tmp[x * ny + y];
                            }
                        }
                        plan_y.execute_batch(plane, nx, dir);
                    }
                }
            })
            .collect();
        self.threads.par_tasks(tasks);
        self.fft_flops +=
            planes as f64 * (ny as f64 * self.plan_x.flops() + nx as f64 * self.plan_y.flops());
        if probe::enabled() {
            let (pu, nxu, nyu) = (planes as u64, nx as u64, ny as u64);
            probe::count(
                "paratec/3D FFTs",
                Counters {
                    flops: (planes as f64
                        * (ny as f64 * self.plan_x.flops() + nx as f64 * self.plan_y.flops()))
                    .round() as u64,
                    unit_stride_bytes: pu * nxu * nyu * 64,
                    vector_iters: pu * nxu * nyu * 2,
                    vector_loops: pu * (nxu + nyu),
                    ..Default::default()
                },
            );
        }
    }

    /// Inverse transform: real-space z-slab → sphere coefficients (this
    /// rank's columns). Exactly adjoint to [`DistFft::to_real_space`].
    pub fn to_fourier_space(&mut self, comm: &mut Comm, slab: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(slab.len(), self.slab.len(), "slab slice mismatch");
        self.slab.copy_from_slice(slab);
        let mut coeffs = vec![Complex64::ZERO; self.local_ng()];
        self.slab_to_sphere(comm, &mut coeffs);
        coeffs
    }

    /// [`DistFft::to_fourier_space`] of the transform's own slab buffer
    /// (as [`DistFft::sphere_to_slab`] left it, or as the caller changed
    /// it in place) into `coeffs`. The slab buffer is overwritten.
    pub fn slab_to_sphere(&mut self, comm: &mut Comm, coeffs: &mut [Complex64]) {
        assert_eq!(coeffs.len(), self.local_ng(), "coefficient slice mismatch");
        let (nx, ny, nz) = (self.sphere.nx, self.sphere.ny, self.sphere.nz);
        let my_len = slab_len(nz, self.nprocs, self.rank);

        // Stage 3 adjoint: forward 2D FFT per plane, planes split across
        // workers.
        self.plane_ffts(Direction::Forward);

        // Stage 2 adjoint: ship every column owner its (gx, gy) values for
        // my z-range. One pack task per destination rank.
        let sphere = &self.sphere;
        let assignment = &self.assignment;
        let work_ref = &self.slab;
        let send: Vec<Vec<f64>> = self.threads.par_tasks(
            (0..self.nprocs)
                .map(|owner| {
                    move || {
                        let cols = &assignment[owner];
                        let mut buf = Vec::with_capacity(cols.len() * (2 + 2 * my_len));
                        for &ci in cols {
                            let col = &sphere.columns[ci];
                            buf.push(col.gx as f64);
                            buf.push(col.gy as f64);
                            for z in 0..my_len {
                                let v = work_ref[col.gx + nx * (col.gy + ny * z)];
                                buf.push(v.re);
                                buf.push(v.im);
                            }
                        }
                        buf
                    }
                })
                .collect::<Vec<_>>(),
        );
        self.transpose_bytes += send
            .iter()
            .enumerate()
            .filter(|(p, _)| *p != self.rank)
            .map(|(_, b)| b.len() as u64 * 8)
            .sum::<u64>();
        let recv = comm.alltoall_f64(&send);

        // Reassemble my columns' dense z-lines into the worker panels,
        // then stage 1 adjoint: forward z-FFT, one batch per panel. Every
        // rank packed its records in `assignment[me]` = `my_columns`
        // order, so column `i`'s record sits at a fixed offset in every
        // receive buffer (no search).
        let ncols = self.my_columns.len();
        for (p, buf) in recv.iter().enumerate() {
            let sl = slab_len(nz, self.nprocs, p);
            if sl > 0 {
                assert_eq!(buf.len(), ncols * (2 + 2 * sl), "corrupt transpose record");
            }
        }
        let width = self.panel_width();
        let (sphere, my_columns, plan_z) = (&self.sphere, &self.my_columns, &self.plan_z);
        let nprocs = self.nprocs;
        let recv_ref = &recv;
        self.threads.par_chunks_mut(&mut self.cols, width * nz, |p, panel| {
            let w = panel.len() / nz;
            for j in 0..w {
                let i = p * width + j;
                let col = &sphere.columns[my_columns[i]];
                for (src, buf) in recv_ref.iter().enumerate() {
                    let sl = slab_len(nz, nprocs, src);
                    if sl == 0 {
                        continue;
                    }
                    let ss = slab_start(nz, nprocs, src);
                    let rec_len = 2 + 2 * sl;
                    let rec = &buf[i * rec_len..(i + 1) * rec_len];
                    debug_assert_eq!((rec[0] as usize, rec[1] as usize), (col.gx, col.gy));
                    for z in 0..sl {
                        panel[(ss + z) * w + j] = Complex64::new(rec[2 + 2 * z], rec[3 + 2 * z]);
                    }
                }
            }
            plan_z.execute_batch(panel, w, Direction::Forward);
        });
        self.fft_flops += ncols as f64 * self.plan_z.flops();
        self.count_z_stage();

        // Harvest the sphere points. Normalization: the z-inverse already
        // divides by nz and the plane inverses by nx·ny, while the
        // forwards multiply by nothing — to_fourier_space ∘ to_real_space
        // is exactly the identity with this convention.
        for i in 0..ncols {
            let (lo, hi) = (self.col_offsets[i], self.col_offsets[i + 1]);
            let (start, step) = col_slot(ncols, nz, width, i);
            for (c, &z) in coeffs[lo..hi].iter_mut().zip(&self.z_of[lo..hi]) {
                *c = self.cols[start + z * step];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::fft3d::{Fft3Plan, Grid3};

    fn sphere() -> GSphere {
        GSphere::build(8, 8, 8, 5.0)
    }

    fn test_coeffs(n: usize, seed: u64) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                let t = (i as f64 + seed as f64) * 0.7;
                Complex64::new(t.sin(), (t * 1.3).cos() * 0.5)
            })
            .collect()
    }

    #[test]
    fn slab_partition_covers_all_planes() {
        for (nz, np) in [(8usize, 3usize), (16, 5), (7, 7), (4, 8)] {
            let total: usize = (0..np).map(|p| slab_len(nz, np, p)).sum();
            assert_eq!(total, nz, "nz={nz} np={np}");
            assert_eq!(slab_start(nz, np, 0), 0);
        }
    }

    #[test]
    fn round_trip_is_identity() {
        for nprocs in [1usize, 2, 4] {
            let s = sphere();
            let outs = msim::run(nprocs, move |comm| {
                let mut fft = DistFft::new(s.clone(), comm.rank(), comm.size());
                let coeffs = test_coeffs(fft.local_ng(), comm.rank() as u64);
                let slab = fft.to_real_space(comm, &coeffs);
                let back = fft.to_fourier_space(comm, &slab);
                (coeffs, back)
            })
            .unwrap();
            for (orig, back) in outs {
                assert_eq!(orig.len(), back.len());
                for (a, b) in orig.iter().zip(&back) {
                    assert!((*a - *b).abs() < 1e-10, "nprocs={nprocs}");
                }
            }
        }
    }

    #[test]
    fn distributed_matches_local_dense_fft() {
        // Build a full dense G-space cube from the sphere coefficients,
        // transform with the local reference, and compare to the gathered
        // distributed result.
        let s = sphere();
        let (nx, ny, nz) = (s.nx, s.ny, s.nz);
        let nprocs = 2;
        let slabs = msim::run(nprocs, {
            let s = s.clone();
            move |comm| {
                let mut fft = DistFft::new(s.clone(), comm.rank(), comm.size());
                // Deterministic coefficients derived from global column ids
                // so both ranks agree on the global field.
                let mut coeffs = Vec::new();
                for &ci in &fft.my_columns {
                    let col = &fft.sphere.columns[ci];
                    for (k, _) in col.gz.iter().enumerate() {
                        let t = (ci * 131 + k * 17) as f64 * 0.01;
                        coeffs.push(Complex64::new(t.sin(), t.cos()));
                    }
                }
                let slab = fft.to_real_space(comm, &coeffs);
                (comm.rank(), slab)
            }
        })
        .unwrap();

        // Local reference: dense cube, same deterministic fill.
        let mut cube = Grid3::zeros(nx, ny, nz);
        for (ci, col) in s.columns.iter().enumerate() {
            for (k, &gz) in col.gz.iter().enumerate() {
                let t = (ci * 131 + k * 17) as f64 * 0.01;
                *cube.get_mut(col.gx, col.gy, wrap_freq(gz, nz)) = Complex64::new(t.sin(), t.cos());
            }
        }
        Fft3Plan::new(nx, ny, nz).execute(&mut cube, Direction::Inverse);

        for (rank, slab) in slabs {
            let s0 = slab_start(nz, nprocs, rank);
            for (zi, z) in (s0..s0 + slab_len(nz, nprocs, rank)).enumerate() {
                for y in 0..ny {
                    for x in 0..nx {
                        let got = slab[x + nx * (y + ny * zi)];
                        let want = cube.get(x, y, z);
                        assert!(
                            (got - want).abs() < 1e-10,
                            "rank {rank} at ({x},{y},{z}): {got:?} vs {want:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_traffic_is_recorded() {
        let s = sphere();
        let bytes = msim::run(4, move |comm| {
            let mut fft = DistFft::new(s.clone(), comm.rank(), comm.size());
            let coeffs = test_coeffs(fft.local_ng(), 1);
            let _ = fft.to_real_space(comm, &coeffs);
            fft.transpose_bytes
        })
        .unwrap();
        for b in bytes {
            assert!(b > 0, "each rank must send transpose traffic");
        }
    }
}
