//! Renders reproduced results in the paper's table/figure layouts.

use hec_arch::{Platform, PlatformId};
use hec_serve::engine::{self, AppId, Cell, PlatformSel, Row};
use msim::TrafficMatrix;

use crate::experiments::Fig8App;
use crate::plot::{bar_chart, xy_chart, Series};
use crate::table::Table;

/// The columns of `app`'s table that have a platform, as (column index,
/// header label): every renderer's header comes from here, and a column
/// with no selector in [`engine::columns`] is skipped everywhere.
pub fn labelled_columns(app: AppId) -> Vec<(usize, &'static str)> {
    let cols = engine::columns(app).into_iter().enumerate();
    cols.filter_map(|(ci, sel)| Some((ci, sel?.label()))).collect()
}

/// Paper Table 1: architectural highlights (straight from the platform
/// descriptors, which carry the measured values).
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1: Architectural highlights of the evaluated platforms",
        &[
            "Platform",
            "CPU/Node",
            "Clock (MHz)",
            "Peak (GF/s)",
            "Stream BW (GB/s)",
            "Bytes/Flop",
            "MPI Lat (usec)",
            "MPI BW (GB/s)",
            "Network",
        ],
    );
    for p in Platform::all() {
        // SSP mode shares the X1 row in the paper; keep it for completeness.
        t.push_row(vec![
            p.id.label().into(),
            p.net.cpus_per_node.to_string(),
            format!("{:.0}", p.clock_mhz),
            format!("{:.1}", p.peak_gflops),
            format!("{:.1}", p.stream_bw_gbps),
            format!("{:.2}", p.bytes_per_flop()),
            format!("{:.1}", p.net.latency_us),
            format!("{:.2}", p.net.bw_gbps),
            p.net.topology.label().into(),
        ]);
    }
    t
}

/// Paper Table 2: application overview, with this reproduction's line
/// counts alongside the originals'.
pub fn table2(our_loc: &[(&str, usize)]) -> Table {
    let mut t = Table::new(
        "Table 2: Overview of the scientific applications",
        &["Name", "Paper LoC", "Our LoC", "Discipline", "Methods", "Structure"],
    );
    let rows = [
        ("FVCAM", "200,000+", "Climate Modeling", "Finite Volume, Navier-Stokes, FFT", "Grid"),
        ("LBMHD3D", "1,500", "Plasma Physics", "MHD, Lattice Boltzmann", "Lattice/Grid"),
        ("PARATEC", "50,000", "Material Science", "DFT, Kohn-Sham, FFT", "Fourier/Grid"),
        ("GTC", "5,000", "Magnetic Fusion", "PIC, gyro-averaged Vlasov-Poisson", "Particle/Grid"),
    ];
    for (name, paper_loc, disc, meth, strct) in rows {
        let ours = our_loc
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, l)| l.to_string())
            .unwrap_or_else(|| "?".into());
        t.push_row(vec![
            name.into(),
            paper_loc.into(),
            ours,
            disc.into(),
            meth.into(),
            strct.into(),
        ]);
    }
    t
}

/// Renders the paper table for one application — the single source of
/// each table's title and rows: (decomp/label, P) × platform pairs of
/// `Gflop/P` and `%pk`.
pub fn app_table(app: AppId) -> Table {
    let title = match app {
        AppId::Fvcam => "Table 3: FVCAM performance on the D mesh (0.5 x 0.625 deg)",
        AppId::Gtc => "Table 4: GTC performance (weak scaling, 3.2M particles/processor)",
        AppId::Lbmhd => "Table 5: LBMHD3D performance",
        AppId::Paratec => "Table 6: PARATEC performance (488-atom CdSe quantum dot)",
    };
    let columns = labelled_columns(app);
    let mut headers: Vec<String> = vec!["Config".into(), "P".into()];
    for (_, label) in &columns {
        headers.push(format!("{label} GF/P"));
        headers.push(format!("{label} %pk"));
    }
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(title, &hdr_refs);
    for r in engine::rows(app) {
        let mut cells = vec![r.label.clone(), r.procs.to_string()];
        for &(ci, _) in &columns {
            let (g, p) = match r.cells[ci] {
                Some(c) => (format!("{:.2}", c.gflops), format!("{:.1}", c.pct_peak)),
                None => ("—".into(), "—".into()),
            };
            cells.push(g);
            cells.push(p);
        }
        t.push_row(cells);
    }
    t
}

/// Plot marker per table column (Figures 3 and 4).
const MARKERS: [char; 7] = ['p', 'i', 'o', 'x', 'e', 'E', 's'];

/// Figure 3: percentage of peak vs processor count (selected FVCAM
/// configurations), one marker per platform.
pub fn fig3(rows: &[Row]) -> String {
    let selected: Vec<&Row> = rows
        .iter()
        .filter(|r| {
            (r.procs == 32 && r.label == "1D")
                || (r.procs == 256 && r.label.contains("Pz=4"))
                || (r.procs == 336 && r.label.contains("Pz=7"))
                || (r.procs == 672 && r.label.contains("Pz=7"))
        })
        .collect();
    let series: Vec<Series> = labelled_columns(AppId::Fvcam)
        .into_iter()
        .map(|(ci, label)| Series {
            label: label.to_string(),
            points: selected
                .iter()
                .map(|r| (r.procs as f64, r.cells[ci].map(|c| c.pct_peak)))
                .collect(),
            marker: MARKERS[ci],
        })
        .collect();
    xy_chart("Figure 3: FVCAM percentage of peak vs processors (D mesh)", &series, 64, 18, false)
}

/// Figure 4: simulated days per wall-clock day vs processor count.
pub fn fig4(rows: &[Row], steps_per_day: f64) -> String {
    let series: Vec<Series> = labelled_columns(AppId::Fvcam)
        .into_iter()
        .map(|(ci, label)| Series {
            label: label.to_string(),
            points: rows
                .iter()
                .map(|r| {
                    (
                        r.procs as f64,
                        r.cells[ci].map(|c| {
                            fvcam::model::simulated_days_per_day(c.step_secs, steps_per_day)
                        }),
                    )
                })
                .collect(),
            marker: MARKERS[ci],
        })
        .collect();
    xy_chart("Figure 4: FVCAM simulated days per wall-clock day (D mesh)", &series, 64, 18, true)
}

/// Figure 8: 256-processor summary — % of peak and speed relative to ES,
/// per application per platform.
pub fn fig8(apps: &[Fig8App]) -> String {
    let es_sel = Some(PlatformSel::Direct(PlatformId::Es));
    let mut out = String::new();
    for metric in ["percent of peak", "speed relative to ES"] {
        for app in apps {
            let es = engine::columns(app.id).iter().position(|&c| c == es_sel);
            let es = es.and_then(|ci| app.cells[ci]);
            let bars: Vec<(String, f64)> = labelled_columns(app.id)
                .into_iter()
                .filter_map(|(ci, label)| {
                    let c: Cell = app.cells[ci]?;
                    let v = if metric == "percent of peak" {
                        c.pct_peak
                    } else {
                        c.gflops / es?.gflops
                    };
                    Some((label.to_string(), v))
                })
                .collect();
            out.push_str(&bar_chart(
                &format!("Figure 8 ({metric}): {} @ 256 processors", app.name),
                &bars,
                40,
            ));
            out.push('\n');
        }
    }
    out
}

/// Figure 2: ASCII heat maps of the captured communication matrices.
pub fn fig2(matrix_1d: &TrafficMatrix, matrix_2d: &TrafficMatrix) -> String {
    let render = |m: &TrafficMatrix, title: &str| {
        let total_mb = m.total_bytes() as f64 / 1e6;
        format!("{title}\n{}total volume: {total_mb:.1} MB per step\n", m.ascii_heatmap())
    };
    format!(
        "{}\n{}",
        render(matrix_1d, "Figure 2(a): FVCAM 1D decomposition, 64 MPI processes"),
        render(matrix_2d, "Figure 2(b): FVCAM 2D (Pz=4) decomposition, 64 MPI processes"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments;

    #[test]
    fn table1_lists_all_platforms() {
        let t = table1();
        assert_eq!(t.rows.len(), 8);
        let s = t.render();
        assert!(s.contains("Crossbar") && s.contains("SX-8"));
        // The CPU/Node column is the paper's, in table order.
        let cpus: Vec<&str> = t.rows.iter().map(|r| r[1].as_str()).collect();
        assert_eq!(cpus, ["16", "4", "2", "4", "16", "4", "8", "8"]);
    }

    #[test]
    fn table2_includes_our_loc() {
        let t = table2(&[("GTC", 2500), ("LBMHD3D", 2200)]);
        let s = t.render();
        assert!(s.contains("2500"));
        assert!(s.contains("200,000+"));
    }

    #[test]
    fn perf_table_renders_gtc() {
        let s = app_table(AppId::Gtc).render();
        assert!(s.contains("100 p/c"));
        assert!(s.contains("2048"));
    }

    #[test]
    fn fig3_and_fig4_render() {
        let rows = engine::rows(AppId::Fvcam);
        let f3 = fig3(&rows);
        assert!(f3.contains("Figure 3"));
        let f4 = fig4(&rows, 480.0);
        assert!(f4.contains("Figure 4"));
    }

    #[test]
    fn fig8_renders_bars() {
        let apps = experiments::fig8_apps();
        let s = fig8(&apps);
        assert!(s.contains("LBMHD3D"));
        assert!(s.contains("#"));
    }

    /// Every column label a table, figure or validation printout shows
    /// is the label of the engine's selector for that column.
    #[test]
    fn every_printed_column_label_is_the_engine_selector_label() {
        let want = |app: AppId| -> Vec<&str> {
            engine::columns(app).iter().flatten().map(|sel| sel.label()).collect()
        };
        let fig8 = fig8(&experiments::fig8_apps());
        for fig8_app in experiments::fig8_apps() {
            let app = fig8_app.id;
            let headers = app_table(app).headers;
            let table: Vec<&str> = headers.iter().filter_map(|h| h.strip_suffix(" GF/P")).collect();
            assert_eq!(table, want(app), "{app:?} table header");

            let paper = crate::paper::published(app);
            let diff = crate::validate::diff_table("T", app, &engine::rows(app), &paper);
            let header = diff.lines().nth(1).unwrap();
            let cells: Vec<char> = header.chars().skip(21).collect();
            let diff_labels: Vec<String> =
                cells.chunks(18).map(|c| c.iter().collect::<String>().trim().to_string()).collect();
            assert_eq!(diff_labels, want(app), "{app:?} validate header");

            // Each Figure 8 panel has one bar per column with a cell at P=256.
            let bars: Vec<&str> = engine::columns(app)
                .iter()
                .zip(fig8_app.cells)
                .filter_map(|(sel, cell)| cell.and(*sel).map(|sel| sel.label()))
                .collect();
            let title = format!(": {} @ 256 processors", fig8_app.name);
            let panels: Vec<&str> =
                fig8.split("Figure 8 (").filter(|p| p.contains(&title)).collect();
            assert_eq!(panels.len(), 2, "{app:?}: one panel per metric");
            for panel in panels {
                let got: Vec<&str> = panel
                    .lines()
                    .skip(1)
                    .filter_map(|l| Some(l.split_once(" |")?.0.trim()))
                    .collect();
                assert_eq!(got, bars, "{app:?} Figure 8 panel");
            }
        }
        let rows = engine::rows(AppId::Fvcam);
        for fig in [fig3(&rows), fig4(&rows, 480.0)] {
            let legend: Vec<&str> =
                fig.lines().filter_map(|l| Some(l.split_once(" = ")?.1)).collect();
            assert_eq!(legend, want(AppId::Fvcam), "{fig}");
        }
    }
}
