//! Workload model for Table 5's configurations.
//!
//! Table 5 runs LBMHD3D at concurrencies of 16–2048 processors on grids of
//! 256³–1024³ — far beyond what a thread-per-rank simulation can execute
//! directly. [`measured_workload`] builds the per-processor profile from
//! two sources, each field from one: the decomposition arithmetic gives
//! the *shape* (the pacing rank's block, its vector length and halo
//! messages) in closed form, and one small instrumented run gives the
//! per-point flops and bytes, rescaled to that block. The tests pin the
//! measured rates to the audited constants and the halo volume to a real
//! multi-rank run, which is what licenses the extrapolation.

use std::sync::OnceLock;

use hec_arch::capture::{recorded, Extensive};
use hec_arch::{CommEvent, PhaseProfile, WorkloadProfile};
use hec_core::probe::{self, Capture};

use crate::collide::{BYTES_PER_POINT, CONCURRENT_STREAMS};
use crate::decomp::{local_extent, processor_grid};
use crate::lattice::Q;
use crate::sim::{SimParams, Simulation};

/// The pacing rank's block of the (`n`, `procs`) decomposition: rank 0
/// owns the largest block.
struct Pacing {
    /// Processor-grid shape.
    dims: [usize; 3],
    /// Rank 0's local extents.
    ext: [usize; 3],
}

fn pacing_block(n: usize, procs: usize) -> Pacing {
    let dims = processor_grid(procs);
    Pacing { dims, ext: dims.map(|d| local_extent(n, d, 0)) }
}

impl Pacing {
    /// Lattice points of the block.
    fn points(&self) -> f64 {
        (self.ext[0] * self.ext[1] * self.ext[2]) as f64
    }

    /// Bytes of one face message along each axis: all Q + 3Q
    /// distributions over a padded face (the 3-sweep corner-propagating
    /// exchange).
    fn face_bytes(&self) -> [f64; 3] {
        let [lx, ly, lz] = self.ext;
        let face = |a: usize, b: usize| ((a + 2) * (b + 2)) as f64 * (4 * Q) as f64 * 8.0;
        [face(ly, lz), face(lx, lz), face(lx, ly)]
    }

    /// Face-message bytes along each axis that has neighbors.
    fn exchanged_faces(&self) -> Vec<f64> {
        let faces = self.face_bytes();
        (0..3).filter(|&a| self.dims[a] > 1).map(|a| faces[a]).collect()
    }
}

/// The (concurrency, grid size) pairs of paper Table 5.
pub const TABLE5_CONFIGS: [(usize, usize); 6] =
    [(16, 256), (64, 256), (256, 512), (512, 512), (1024, 1024), (2048, 1024)];

/// One small instrumented run (one rank, an 8³ block, one fused
/// collide+stream step), cached process-wide. The per-point rates it
/// measures are exactly `collide::FLOPS_PER_POINT` / [`BYTES_PER_POINT`]
/// — the validation tests pin that.
pub fn calibration_capture() -> &'static Capture {
    static CAP: OnceLock<Capture> = OnceLock::new();
    CAP.get_or_init(|| {
        let (_, cap) = probe::capture(|| {
            msim::run(1, |comm| {
                let mut sim = Simulation::new(
                    SimParams { n: 8, ..Default::default() },
                    comm.rank(),
                    comm.size(),
                );
                sim.step(comm);
            })
            .expect("LBMHD calibration run failed");
        });
        cap
    })
}

/// Workload profile for one timestep of LBMHD3D on a `n³` global grid over
/// `procs` ranks: the collide+stream phase's flops and bytes are the
/// per-point rates of [`calibration_capture`] scaled to the pacing rank's
/// block; everything else is the block's closed-form shape.
pub fn measured_workload(n: usize, procs: usize) -> WorkloadProfile {
    let b = pacing_block(n, procs);
    let [lx, ly, lz] = b.ext;
    let points = b.points();
    let c = recorded(calibration_capture(), "lbmhd/collide+stream");
    let m = Extensive::rescale(&c, points, c.vector_iters as f64);

    let collide = PhaseProfile {
        name: "fused collide+stream".into(),
        flops: m.flops,
        unit_stride_bytes: m.unit_stride_bytes,
        gather_scatter_bytes: m.gather_scatter_bytes,
        // The collision arithmetic is fully data-parallel (paper §5.1: "No
        // additional vectorization effort was required due to the
        // data-parallel nature of LBMHD"); the only scalar work is loop
        // bookkeeping.
        vector_fraction: 0.994,
        // The vectorized loop runs over the x extent of the local block.
        avg_vector_length: lx as f64,
        // The 26 shifted reads are still unit-stride but not cache-reusable
        // at these grid sizes.
        cacheable_fraction: 0.05,
        dense_fraction: 0.3, // long unrolled arithmetic blocks, few branches
        working_set_bytes: points * BYTES_PER_POINT / 2.0,
        concurrent_streams: CONCURRENT_STREAMS,
        // The (j, k) line loops are the streaming axis for the MSP compiler.
        outer_parallelism: (ly * lz) as f64,
    };

    // Halo exchange: six faces, two along each axis that has neighbors.
    let faces = b.exchanged_faces();
    let comm = if faces.is_empty() {
        Vec::new()
    } else {
        let avg = faces.iter().sum::<f64>() / faces.len() as f64;
        vec![CommEvent::Halo { bytes: avg, neighbors: 2.0 * faces.len() as f64 }]
    };
    WorkloadProfile { app: "LBMHD3D".into(), job_procs: procs, phases: vec![collide], comm }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collide::FLOPS_PER_POINT;

    /// Bytes a rank sends per step under the decomposition for (`n`,
    /// `procs`) — the analytic counterpart of `Simulation::halo_bytes_sent`.
    fn halo_bytes_per_step(n: usize, procs: usize) -> f64 {
        pacing_block(n, procs).exchanged_faces().iter().map(|f| 2.0 * f).sum()
    }

    #[test]
    fn model_matches_instrumented_run() {
        // The analytic halo-byte count must equal what the real simulation
        // actually sent through msim.
        for procs in [2usize, 4, 8] {
            let n = 8;
            let sent = msim::run(procs, move |comm| {
                let mut sim = Simulation::new(
                    SimParams { n, ..Default::default() },
                    comm.rank(),
                    comm.size(),
                );
                sim.step(comm);
                (sim.cart.coords, sim.halo_bytes_sent)
            })
            .unwrap();
            // Compare rank 0 (the model's pacing rank).
            let want = halo_bytes_per_step(n, procs);
            assert_eq!(sent[0].1 as f64, want, "procs={procs}");
        }
    }

    #[test]
    fn model_flops_match_instrumented_run() {
        let n = 8;
        let procs = 4;
        let flops = msim::run(procs, move |comm| {
            let mut sim =
                Simulation::new(SimParams { n, ..Default::default() }, comm.rank(), comm.size());
            sim.step(comm);
            sim.flops()
        })
        .unwrap();
        let w = measured_workload(n, procs);
        assert_eq!(flops[0], w.phases[0].flops);
    }

    #[test]
    fn measured_workload_equals_the_analytic_oracle() {
        // The measured per-point rates are exactly the audited constants,
        // so the rescaled counts equal the hand-counted ones bit for bit.
        for &(procs, n) in &TABLE5_CONFIGS {
            let points = pacing_block(n, procs).points();
            let m = &measured_workload(n, procs).phases[0];
            assert_eq!(m.flops, points * FLOPS_PER_POINT, "flops at P={procs}");
            assert_eq!(m.unit_stride_bytes, points * BYTES_PER_POINT, "bytes at P={procs}");
            assert_eq!(m.gather_scatter_bytes, 0.0);
        }
    }

    #[test]
    fn weak_scaling_keeps_per_rank_work_flat() {
        // Table 5 roughly doubles the grid with 8× the processors; the
        // per-rank point count across its configs stays within a factor ~4.
        let loads: Vec<f64> =
            TABLE5_CONFIGS.iter().map(|&(p, n)| measured_workload(n, p).phases[0].flops).collect();
        let (mn, mx) = loads.iter().fold((f64::MAX, 0.0f64), |(a, b), &x| (a.min(x), b.max(x)));
        assert!(mx / mn < 8.0, "per-rank work varies too much: {loads:?}");
    }

    #[test]
    fn vector_length_tracks_block_extent() {
        // 16 ranks → a [2, 2, 4] grid: a local x extent of 128.
        assert_eq!(processor_grid(16), [2, 2, 4]);
        let w = measured_workload(256, 16);
        assert!(w.phases[0].avg_vector_length >= 64.0);
        let w2 = measured_workload(256, 2048);
        assert!(w2.phases[0].avg_vector_length < w.phases[0].avg_vector_length * 1.01);
    }

    #[test]
    fn single_rank_has_no_network_events() {
        let w = measured_workload(64, 1);
        assert!(w.comm.is_empty());
        assert_eq!(halo_bytes_per_step(64, 1), 0.0);
    }
}
