//! The evaluation core: one code path from (application, platform,
//! concurrency) to a predicted [`Cell`], shared by the served endpoints
//! and the Table 3–6 reproductions.
//!
//! Each driver builds, per (configuration, platform), the workload
//! profile from the application's *measured* calibration capture (each
//! app's `measured_workload`, its one workload builder) and evaluates it
//! with the architectural model.
//! Tables use the paper's 7-column platform layout; the same
//! [`eval_cell`] call answers a single served point, so a sweep row and
//! a point request for one of its cells are bitwise the same number.

use hec_arch::{predict, Platform, PlatformId, WorkloadProfile};

/// One reproduced cell: sustained Gflop/s per processor and % of peak.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cell {
    /// Gflop/s per processor.
    pub gflops: f64,
    /// Percent of the platform's peak.
    pub pct_peak: f64,
    /// Predicted seconds per timestep (Figure 4 needs this).
    pub step_secs: f64,
}

/// One reproduced table row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Processor count.
    pub procs: usize,
    /// Row label (decomposition, grid, particles/cell…).
    pub label: String,
    /// Per-platform cells in the paper's 7-column order.
    pub cells: [Option<Cell>; 7],
}

/// The four applications of the study.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AppId {
    /// FVCAM atmospheric dynamics (Table 3, Figures 3–4).
    Fvcam,
    /// GTC gyrokinetic turbulence (Table 4).
    Gtc,
    /// LBMHD3D magnetohydrodynamics (Table 5).
    Lbmhd,
    /// PARATEC ab-initio materials (Table 6).
    Paratec,
}

impl AppId {
    /// All applications in the paper's order.
    pub const ALL: [AppId; 4] = [AppId::Fvcam, AppId::Gtc, AppId::Lbmhd, AppId::Paratec];

    /// Canonical lowercase name (the wire spelling).
    pub fn name(self) -> &'static str {
        match self {
            AppId::Fvcam => "fvcam",
            AppId::Gtc => "gtc",
            AppId::Lbmhd => "lbmhd",
            AppId::Paratec => "paratec",
        }
    }

    /// Parses a service-supplied application name, case-insensitively;
    /// the paper's display names (`LBMHD3D`) are accepted too.
    pub fn parse(s: &str) -> Option<AppId> {
        match s.to_ascii_lowercase().as_str() {
            "fvcam" => Some(AppId::Fvcam),
            "gtc" => Some(AppId::Gtc),
            "lbmhd" | "lbmhd3d" => Some(AppId::Lbmhd),
            "paratec" => Some(AppId::Paratec),
            _ => None,
        }
    }
}

/// Platform selector for one evaluated cell: a real machine, or the
/// paper's "aggregate 4-SSP" X1 presentation (a derived quantity, not a
/// platform descriptor — see `eval_4ssp`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlatformSel {
    /// Evaluate directly on one platform descriptor.
    Direct(PlatformId),
    /// The X1 "4-SSP" column: same work on 4× SSP ranks.
    Agg4Ssp,
}

impl PlatformSel {
    /// Canonical wire token: the folded platform label, or `4ssp`.
    pub fn token(self) -> &'static str {
        match self {
            PlatformSel::Direct(PlatformId::Power3) => "power3",
            PlatformSel::Direct(PlatformId::Itanium2) => "itanium2",
            PlatformSel::Direct(PlatformId::Opteron) => "opteron",
            PlatformSel::Direct(PlatformId::X1Msp) => "x1msp",
            PlatformSel::Direct(PlatformId::X1Ssp) => "x1ssp",
            PlatformSel::Direct(PlatformId::X1e) => "x1emsp",
            PlatformSel::Direct(PlatformId::Es) => "es",
            PlatformSel::Direct(PlatformId::Sx8) => "sx8",
            PlatformSel::Agg4Ssp => "4ssp",
        }
    }

    /// Display label (paper table headers; `X1 (4-SSP)` for the
    /// aggregate column).
    pub fn label(self) -> &'static str {
        match self {
            PlatformSel::Direct(id) => id.label(),
            PlatformSel::Agg4Ssp => "X1 (4-SSP)",
        }
    }

    /// Parses a service-supplied platform name: `4ssp` / `X1 (4-SSP)`
    /// select the aggregate column, anything else goes through
    /// [`PlatformId::parse`] (label or folded alias).
    pub fn parse(s: &str) -> Option<PlatformSel> {
        let folded: String =
            s.chars().filter(char::is_ascii_alphanumeric).map(|c| c.to_ascii_lowercase()).collect();
        if folded == "4ssp" || folded == "x14ssp" {
            return Some(PlatformSel::Agg4Ssp);
        }
        PlatformId::parse(s).map(PlatformSel::Direct)
    }
}

/// The concurrency/problem-size coordinates of one evaluated point,
/// already canonicalized (which extras apply depends on the app: `pz`
/// is FVCAM's vertical decomposition, `n` is LBMHD's grid edge).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PointSpec {
    /// Total processors.
    pub procs: usize,
    /// FVCAM vertical groups (1 = the 1D decomposition).
    pub pz: Option<usize>,
    /// LBMHD grid size (n³ lattice).
    pub n: Option<usize>,
}

impl PointSpec {
    /// A processors-only spec (GTC, PARATEC).
    pub fn procs(procs: usize) -> PointSpec {
        PointSpec { procs, pz: None, n: None }
    }
}

fn eval(platform: &Platform, w: &WorkloadProfile) -> Cell {
    let p = predict(platform, w);
    Cell { gflops: p.gflops_per_proc, pct_peak: p.percent_of_peak, step_secs: p.breakdown.total() }
}

/// Evaluates a workload on the X1 in "aggregate 4-SSP" mode, the way
/// Tables 4 and 6 report it: the same total work spread over 4× as many
/// SSP ranks; the quoted Gflop/P is the aggregate of 4 SSPs.
fn eval_4ssp(w: &WorkloadProfile) -> Cell {
    let ssp = Platform::get(PlatformId::X1Ssp);
    let mut quarter = w.clone();
    quarter.job_procs = w.job_procs * 4;
    for ph in quarter.phases.iter_mut() {
        ph.flops /= 4.0;
        ph.unit_stride_bytes /= 4.0;
        ph.gather_scatter_bytes /= 4.0;
        ph.working_set_bytes /= 4.0;
        // The inner (vector) loops are the same loops — only the outer
        // block shrinks — so the vector length is left untouched.
    }
    for ev in quarter.comm.iter_mut() {
        use hec_arch::CommEvent::*;
        match ev {
            Halo { bytes, .. } => *bytes /= 4.0,
            Allreduce { procs, .. } => *procs *= 4.0,
            Transpose { procs, bytes_per_rank } => {
                *procs *= 4.0;
                *bytes_per_rank /= 4.0;
            }
        }
    }
    let p = predict(&ssp, &quarter);
    // The paper reports the *aggregate* of 4 SSPs against the MSP's 12.8
    // Gflop/s peak, so the two X1 columns are directly comparable.
    let aggregate = 4.0 * p.gflops_per_proc;
    Cell {
        gflops: aggregate,
        pct_peak: 100.0 * aggregate / Platform::get(PlatformId::X1Msp).peak_gflops,
        step_secs: p.breakdown.total(),
    }
}

/// Evaluates one (app, platform, concurrency) point. `None` means the
/// configuration is infeasible for the app (an em-dash table cell), not
/// an error: FVCAM decompositions with too few latitude rows per rank,
/// or the 4-SSP selector for FVCAM (the paper reports X1E there).
///
/// Per-app presentation quirks of the paper live here so that a sweep
/// row and a single-point request agree bitwise:
/// * FVCAM uses the hybrid OpenMP operating point on Power3 and ES
///   (4 threads preferred) and pure MPI elsewhere, falling back to the
///   other mode where the preferred one is infeasible.
/// * LBMHD's 4-SSP column is quoted per SSP, not aggregate: the
///   aggregate evaluation divided back by 4.
pub fn eval_cell(app: AppId, sel: PlatformSel, spec: &PointSpec) -> Option<Cell> {
    match app {
        AppId::Fvcam => {
            use fvcam::model::{measured_workload, FvConfig};
            let id = match sel {
                PlatformSel::Direct(id) => id,
                PlatformSel::Agg4Ssp => return None,
            };
            let procs = spec.procs;
            let pz = spec.pz.unwrap_or(1);
            let mk = |threads: usize| measured_workload(FvConfig { procs, pz, threads });
            // Prefer pure MPI; fall back to 4 threads where MPI alone is
            // infeasible (the paper's Power3/ES hybrid operating point).
            let prefer4 = matches!(id, PlatformId::Power3 | PlatformId::Es);
            let w = if prefer4 { mk(4).or_else(|| mk(1)) } else { mk(1).or_else(|| mk(4)) }?;
            Some(eval(&Platform::get(id), &w))
        }
        AppId::Gtc => {
            let w = gtc::model::measured_workload(spec.procs);
            Some(match sel {
                PlatformSel::Direct(id) => eval(&Platform::get(id), &w),
                PlatformSel::Agg4Ssp => eval_4ssp(&w),
            })
        }
        AppId::Lbmhd => {
            let n = spec.n?;
            let w = lbmhd::model::measured_workload(n, spec.procs);
            Some(match sel {
                PlatformSel::Direct(id) => eval(&Platform::get(id), &w),
                PlatformSel::Agg4Ssp => {
                    // The paper's X1 SSP column for LBMHD is per-SSP
                    // Gflop/s (not aggregate): divide back by 4.
                    let c = eval_4ssp(&w);
                    Cell { gflops: c.gflops / 4.0, ..c }
                }
            })
        }
        AppId::Paratec => {
            let w = paratec::model::measured_workload(spec.procs);
            Some(match sel {
                PlatformSel::Direct(id) => eval(&Platform::get(id), &w),
                PlatformSel::Agg4Ssp => eval_4ssp(&w),
            })
        }
    }
}

/// One sweep row before evaluation: the row coordinates plus the seven
/// column selectors (`None` columns are the paper's structurally empty
/// cells — machines the study has no data for).
#[derive(Clone, Debug)]
pub struct RowSpec {
    /// Processor count.
    pub procs: usize,
    /// Row label (decomposition, grid, particles/cell…).
    pub label: String,
    /// The concurrency coordinates shared by the row's cells.
    pub spec: PointSpec,
    /// Seven column selectors in table order.
    pub columns: [Option<PlatformSel>; 7],
}

/// The standard 7-column layout of Tables 4–6.
fn standard_columns() -> [Option<PlatformSel>; 7] {
    [
        Some(PlatformSel::Direct(PlatformId::Power3)),
        Some(PlatformSel::Direct(PlatformId::Itanium2)),
        Some(PlatformSel::Direct(PlatformId::Opteron)),
        Some(PlatformSel::Direct(PlatformId::X1Msp)),
        Some(PlatformSel::Agg4Ssp),
        Some(PlatformSel::Direct(PlatformId::Es)),
        Some(PlatformSel::Direct(PlatformId::Sx8)),
    ]
}

/// Table 3's layout: no Opteron or SX-8 data, and the X1E column sits in
/// the "4-SSP" slot (FVCAM reports X1E, not SSP mode).
fn fvcam_columns() -> [Option<PlatformSel>; 7] {
    [
        Some(PlatformSel::Direct(PlatformId::Power3)),
        Some(PlatformSel::Direct(PlatformId::Itanium2)),
        None,
        Some(PlatformSel::Direct(PlatformId::X1Msp)),
        Some(PlatformSel::Direct(PlatformId::X1e)),
        Some(PlatformSel::Direct(PlatformId::Es)),
        None,
    ]
}

/// The paper's sweep for `app`: every table row as coordinates +
/// column selectors, *before* evaluation. The service walks this to
/// decompose a sweep request into per-point cache entries; the row
/// builders below walk the same list, so the two agree cell for cell.
pub fn row_specs(app: AppId) -> Vec<RowSpec> {
    match app {
        AppId::Fvcam => fvcam::model::table3_configs(1)
            .into_iter()
            .map(|base| RowSpec {
                procs: base.procs,
                label: if base.pz == 1 { "1D".into() } else { format!("2D Pz={}", base.pz) },
                spec: PointSpec { procs: base.procs, pz: Some(base.pz), n: None },
                columns: fvcam_columns(),
            })
            .collect(),
        AppId::Gtc => gtc::model::TABLE4_CONFIGS
            .iter()
            .map(|&(procs, ppc)| RowSpec {
                procs,
                label: format!("{ppc} p/c"),
                spec: PointSpec::procs(procs),
                columns: standard_columns(),
            })
            .collect(),
        AppId::Lbmhd => lbmhd::model::TABLE5_CONFIGS
            .iter()
            .map(|&(procs, n)| RowSpec {
                procs,
                label: format!("{n}^3"),
                spec: PointSpec { procs, pz: None, n: Some(n) },
                columns: standard_columns(),
            })
            .collect(),
        AppId::Paratec => paratec::model::TABLE6_CONFIGS
            .iter()
            .map(|&procs| RowSpec {
                procs,
                label: String::new(),
                spec: PointSpec::procs(procs),
                columns: standard_columns(),
            })
            .collect(),
    }
}

/// Evaluates the full sweep for `app` directly (no cache): the Table
/// 3–6 reproduction rows.
pub fn rows(app: AppId) -> Vec<Row> {
    row_specs(app)
        .into_iter()
        .map(|rs| {
            let mut cells: [Option<Cell>; 7] = [None; 7];
            for (slot, col) in cells.iter_mut().zip(rs.columns) {
                *slot = col.and_then(|sel| eval_cell(app, sel, &rs.spec));
            }
            Row { procs: rs.procs, label: rs.label, cells }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_and_platform_parsing_round_trips() {
        for app in AppId::ALL {
            assert_eq!(AppId::parse(app.name()), Some(app));
            assert_eq!(AppId::parse(&app.name().to_uppercase()), Some(app));
        }
        assert_eq!(AppId::parse("LBMHD3D"), Some(AppId::Lbmhd));
        assert_eq!(AppId::parse("cactus"), None);
        for id in PlatformId::ALL {
            let sel = PlatformSel::Direct(id);
            assert_eq!(PlatformSel::parse(sel.token()), Some(sel), "{}", sel.token());
            assert_eq!(PlatformSel::parse(id.label()), Some(sel), "{}", id.label());
        }
        assert_eq!(PlatformSel::parse("4ssp"), Some(PlatformSel::Agg4Ssp));
        assert_eq!(PlatformSel::parse("X1 (4-SSP)"), Some(PlatformSel::Agg4Ssp));
    }

    #[test]
    fn point_evaluation_matches_sweep_rows_bitwise() {
        for app in AppId::ALL {
            for rs in row_specs(app) {
                let row_cells: Vec<Option<Cell>> = rs
                    .columns
                    .iter()
                    .map(|c| c.and_then(|sel| eval_cell(app, sel, &rs.spec)))
                    .collect();
                for (col, cell) in rs.columns.iter().zip(&row_cells) {
                    let Some(sel) = col else { continue };
                    let again = eval_cell(app, *sel, &rs.spec);
                    match (cell, again) {
                        (Some(a), Some(b)) => {
                            assert_eq!(a.gflops.to_bits(), b.gflops.to_bits());
                            assert_eq!(a.pct_peak.to_bits(), b.pct_peak.to_bits());
                            assert_eq!(a.step_secs.to_bits(), b.step_secs.to_bits());
                        }
                        (None, None) => {}
                        _ => panic!("feasibility flapped for {app:?} {sel:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn infeasible_points_are_none_not_panics() {
        // FVCAM: a vertical split finer than the level count.
        let spec = PointSpec { procs: 4096, pz: Some(64), n: None };
        assert!(eval_cell(AppId::Fvcam, PlatformSel::Direct(PlatformId::Es), &spec).is_none());
        // FVCAM has no 4-SSP presentation.
        let spec = PointSpec { procs: 256, pz: Some(4), n: None };
        assert!(eval_cell(AppId::Fvcam, PlatformSel::Agg4Ssp, &spec).is_none());
        // LBMHD without a grid size is underspecified.
        let spec = PointSpec::procs(64);
        assert!(eval_cell(AppId::Lbmhd, PlatformSel::Direct(PlatformId::Es), &spec).is_none());
    }
}
