//! Result generation for every table and figure.
//!
//! The per-cell evaluation core (measured workload → architectural model
//! → Gflop/P and % of peak) and the Table 3–6 rows
//! ([`hec_serve::engine::rows`]) live in [`hec_serve::engine`], since the
//! service and the CLI must produce bitwise-identical numbers. What
//! remains here is everything that needs the simulated runtime: the
//! Figure 2 traffic capture and the Figure 8 assembly.
//!
//! Results use the paper's 7-column platform layout (see
//! `report::paper::PLATFORMS`).

use hec_serve::engine::{self, AppId, Cell, Row};

/// Figure 8 data: the 256-processor slice of all four applications —
/// (% of peak, speed relative to ES) per platform per app.
pub struct Fig8App {
    /// Application name.
    pub app: &'static str,
    /// Per-platform cells at P=256.
    pub cells: [Option<Cell>; 7],
}

/// Collects the 256-processor rows of all four applications.
pub fn fig8_apps() -> Vec<Fig8App> {
    let pick = |rows: &[Row], label_filter: Option<&str>| -> [Option<Cell>; 7] {
        rows.iter()
            .find(|r| r.procs == 256 && label_filter.map(|f| r.label.contains(f)).unwrap_or(true))
            .map(|r| r.cells.clone())
            .unwrap_or([None; 7])
    };
    vec![
        Fig8App { app: "FVCAM", cells: pick(&engine::rows(AppId::Fvcam), Some("2D Pz=4")) },
        Fig8App { app: "GTC", cells: pick(&engine::rows(AppId::Gtc), None) },
        Fig8App { app: "LBMHD3D", cells: pick(&engine::rows(AppId::Lbmhd), None) },
        Fig8App { app: "PARATEC", cells: pick(&engine::rows(AppId::Paratec), None) },
    ]
}

/// Figure 2: runs the real FVCAM mini-app on the D mesh with 64 msim
/// ranks (the paper's 64 MPI processes × 4 OpenMP threads = 256 CPUs) and
/// captures the point-to-point traffic matrix for the 1D and the
/// 2D (Pz = 4) decompositions. `scale` shrinks the mesh for quick runs
/// (1 = full D mesh).
pub fn fig2_traffic(pz: usize, scale: usize) -> (Vec<u64>, usize) {
    let nlon = 576 / scale.max(1);
    let nlat = 361 / scale.max(1);
    let nlev = 26;
    let ranks = 64;
    let params = fvcam::FvParams { nlon, nlat, nlev, pz, courant: 0.3, ..Default::default() };
    let (_, traffic) = msim::run_with_traffic(ranks, move |comm| {
        let mut sim = fvcam::FvSim::new(params, comm.rank(), comm.size());
        // Capture a clean steady-state step, as IPM captures do.
        sim.step(comm);
        // One synchronized reset: all ranks must be past step 1 before the
        // matrix is cleared, and none may start step 2 before it happens.
        comm.barrier();
        if comm.rank() == 0 {
            comm.traffic().reset();
        }
        comm.barrier();
        sim.step(comm);
    })
    .expect("fig2 capture run failed");
    (traffic.snapshot(), ranks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tables_produce_rows() {
        assert_eq!(engine::rows(AppId::Gtc).len(), 6);
        assert_eq!(engine::rows(AppId::Lbmhd).len(), 6);
        assert_eq!(engine::rows(AppId::Paratec).len(), 6);
        assert_eq!(engine::rows(AppId::Fvcam).len(), 13);
    }

    #[test]
    fn every_defined_cell_is_positive_and_below_peak() {
        for rows in [
            engine::rows(AppId::Gtc),
            engine::rows(AppId::Lbmhd),
            engine::rows(AppId::Paratec),
            engine::rows(AppId::Fvcam),
        ] {
            for r in rows {
                for c in r.cells.iter().flatten() {
                    assert!(c.gflops > 0.0);
                    assert!(c.pct_peak > 0.0 && c.pct_peak <= 100.0, "{}", c.pct_peak);
                    assert!(c.step_secs > 0.0);
                }
            }
        }
    }

    #[test]
    fn fig8_has_all_four_apps() {
        let apps = fig8_apps();
        assert_eq!(apps.len(), 4);
        for a in &apps {
            assert!(a.cells.iter().any(|c| c.is_some()), "{} missing", a.app);
        }
    }

    #[test]
    fn fig2_capture_runs_on_a_reduced_mesh() {
        let (matrix, ranks) = fig2_traffic(1, 8);
        assert_eq!(matrix.len(), ranks * ranks);
        assert!(matrix.iter().sum::<u64>() > 0);
        // 1D: traffic only between adjacent ranks (and none on the
        // diagonal).
        for src in 0..ranks {
            assert_eq!(matrix[src * ranks + src], 0, "self-traffic at {src}");
            for dst in 0..ranks {
                let d = (src as i64 - dst as i64).abs();
                if matrix[src * ranks + dst] > 0 {
                    assert!(d == 1, "1D run has traffic at distance {d}");
                }
            }
        }
    }
}
