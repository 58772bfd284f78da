//! Renders reproduced results in the paper's table/figure layouts.

use hec_arch::Platform;
use report::plot::{bar_chart, xy_chart, Series};
use report::Table;

use hec_serve::engine::{self, AppId, Cell, Row};

use crate::experiments::Fig8App;

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

/// Renders one of Tables 3–6: rows of (decomp/label, P) × platform pairs
/// of `Gflop/P` and `%pk`.
pub fn perf_table(title: &str, platforms: &[&str; 7], rows: &[Row]) -> Table {
    let mut headers: Vec<String> = vec!["Config".into(), "P".into()];
    for p in platforms.iter() {
        if *p == "(n/a)" {
            continue;
        }
        headers.push(format!("{p} GF/P"));
        headers.push(format!("{p} %pk"));
    }
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(title, &hdr_refs);
    for r in rows {
        let mut cells = vec![r.label.clone(), r.procs.to_string()];
        for (ci, name) in platforms.iter().enumerate() {
            if *name == "(n/a)" {
                continue;
            }
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

/// Renders the paper table for one application — the single source of
/// each table's title, platform set, and rows, shared by the `repro
/// table3`–`table6` subcommands.
pub fn app_table(app: AppId) -> Table {
    let (title, platforms) = match app {
        AppId::Fvcam => (
            "Table 3: FVCAM performance on the D mesh (0.5 x 0.625 deg)",
            &report::paper::FVCAM_PLATFORMS,
        ),
        AppId::Gtc => (
            "Table 4: GTC performance (weak scaling, 3.2M particles/processor)",
            &report::paper::PLATFORMS,
        ),
        AppId::Lbmhd => ("Table 5: LBMHD3D performance", &report::paper::PLATFORMS),
        AppId::Paratec => {
            ("Table 6: PARATEC performance (488-atom CdSe quantum dot)", &report::paper::PLATFORMS)
        }
    };
    perf_table(title, platforms, &engine::rows(app))
}

/// Figure 3: percentage of peak vs processor count (selected FVCAM
/// configurations), one marker per platform.
pub fn fig3(rows: &[Row], platforms: &[&str; 7]) -> String {
    let selected: Vec<&Row> = rows
        .iter()
        .filter(|r| {
            (r.procs == 32 && r.label == "1D")
                || (r.procs == 256 && r.label.contains("Pz=4"))
                || (r.procs == 336 && r.label.contains("Pz=7"))
                || (r.procs == 672 && r.label.contains("Pz=7"))
        })
        .collect();
    let markers = ['p', 'i', 'o', 'x', 'e', 'E', 's'];
    let series: Vec<Series> = platforms
        .iter()
        .enumerate()
        .filter(|(_, n)| **n != "(n/a)")
        .map(|(ci, name)| Series {
            label: name.to_string(),
            points: selected
                .iter()
                .map(|r| (r.procs as f64, r.cells[ci].map(|c| c.pct_peak)))
                .collect(),
            marker: markers[ci],
        })
        .collect();
    xy_chart("Figure 3: FVCAM percentage of peak vs processors (D mesh)", &series, 64, 18, false)
}

/// Figure 4: simulated days per wall-clock day vs processor count.
pub fn fig4(rows: &[Row], platforms: &[&str; 7], steps_per_day: f64) -> String {
    let markers = ['p', 'i', 'o', 'x', 'e', 'E', 's'];
    let series: Vec<Series> = platforms
        .iter()
        .enumerate()
        .filter(|(_, n)| **n != "(n/a)")
        .map(|(ci, name)| Series {
            label: name.to_string(),
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
            marker: markers[ci],
        })
        .collect();
    xy_chart("Figure 4: FVCAM simulated days per wall-clock day (D mesh)", &series, 64, 18, true)
}

/// Figure 8: 256-processor summary — % of peak and speed relative to ES,
/// per application per platform.
pub fn fig8(apps: &[Fig8App], platforms: &[&str; 7]) -> String {
    let mut out = String::new();
    for metric in ["percent of peak", "speed relative to ES"] {
        for app in apps {
            let es = app.cells[5];
            let bars: Vec<(String, f64)> = platforms
                .iter()
                .enumerate()
                .filter_map(|(ci, name)| {
                    let c: Cell = app.cells[ci]?;
                    let v = if metric == "percent of peak" {
                        c.pct_peak
                    } else {
                        c.gflops / es?.gflops
                    };
                    Some((name.to_string(), v))
                })
                .collect();
            out.push_str(&bar_chart(
                &format!("Figure 8 ({metric}): {} @ 256 processors", app.app),
                &bars,
                40,
            ));
            out.push('\n');
        }
    }
    out
}

/// Figure 2: ASCII heat maps of the captured communication matrices.
pub fn fig2(matrix_1d: &[u64], matrix_2d: &[u64], ranks: usize) -> String {
    let render = |m: &[u64], title: &str| -> String {
        let max = m.iter().copied().max().unwrap_or(1).max(1) as f64;
        let mut s = format!("{title}\n");
        for src in 0..ranks {
            for dst in 0..ranks {
                let v = m[src * ranks + dst] as f64;
                s.push(if v == 0.0 {
                    '.'
                } else {
                    let t = 1.0 + 8.0 * (1.0 + (v / max).log10() / 4.0).clamp(0.0, 1.0);
                    char::from_digit(t as u32, 10).unwrap_or('9')
                });
            }
            s.push('\n');
        }
        let total: u64 = m.iter().sum();
        s.push_str(&format!("total volume: {:.1} MB per step\n", total as f64 / 1e6));
        s
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
        let rows = engine::rows(AppId::Gtc);
        let t = perf_table("Table 4: GTC", &report::paper::PLATFORMS, &rows);
        let s = t.render();
        assert!(s.contains("100 p/c"));
        assert!(s.contains("2048"));
    }

    #[test]
    fn fig3_and_fig4_render() {
        let rows = engine::rows(AppId::Fvcam);
        let f3 = fig3(&rows, &report::paper::FVCAM_PLATFORMS);
        assert!(f3.contains("Figure 3"));
        let f4 = fig4(&rows, &report::paper::FVCAM_PLATFORMS, 480.0);
        assert!(f4.contains("Figure 4"));
    }

    #[test]
    fn fig8_renders_bars() {
        let apps = experiments::fig8_apps();
        let s = fig8(&apps, &report::paper::PLATFORMS);
        assert!(s.contains("LBMHD3D"));
        assert!(s.contains("#"));
    }
}
