//! The headline reproduction criterion: for every performance table of the
//! paper, our model must reproduce the *shape* of the published results —
//! platform ordering and bounded multiplicative error — plus the paper's
//! qualitative claims.

use bench::{paper, validate};
use hec_arch::PlatformId;
use hec_serve::engine::{self, AppId, PlatformSel};

/// `app`'s shape scores against its published table.
fn shape(app: AppId) -> validate::Shape {
    validate::compare(&engine::rows(app), &paper::published(app))
}

/// The column of `app`'s table that holds `sel`, found by selector.
fn col(app: AppId, sel: PlatformSel) -> usize {
    engine::columns(app).iter().position(|c| *c == Some(sel)).unwrap()
}

/// [`col`] for a platform descriptor.
fn col_of(app: AppId, id: PlatformId) -> usize {
    col(app, PlatformSel::Direct(id))
}

#[test]
fn table3_fvcam_shape_holds() {
    let shape = shape(AppId::Fvcam);
    assert!(shape.rows >= 12, "rows matched: {}", shape.rows);
    assert!(shape.ordering >= 0.9, "ordering agreement {:.2}", shape.ordering);
    assert!(shape.factor < 2.5, "typical factor {:.2}", shape.factor);
}

#[test]
fn table4_gtc_shape_holds() {
    let shape = shape(AppId::Gtc);
    assert_eq!(shape.rows, 6);
    assert!(shape.ordering >= 0.9, "ordering agreement {:.2}", shape.ordering);
    assert!(shape.factor < 2.0, "typical factor {:.2}", shape.factor);
}

#[test]
fn table5_lbmhd_shape_holds() {
    let shape = shape(AppId::Lbmhd);
    assert_eq!(shape.rows, 6);
    assert!(shape.ordering >= 0.9, "ordering agreement {:.2}", shape.ordering);
    assert!(shape.factor < 2.0, "typical factor {:.2}", shape.factor);
}

#[test]
fn table6_paratec_shape_holds() {
    let shape = shape(AppId::Paratec);
    assert_eq!(shape.rows, 6);
    assert!(shape.ordering >= 0.9, "ordering agreement {:.2}", shape.ordering);
    assert!(shape.factor < 2.0, "typical factor {:.2}", shape.factor);
}

#[test]
fn headline_claims_hold() {
    use PlatformId::{Es, Itanium2, Opteron, Power3, Sx8};
    // "the vector architectures attain unprecedented aggregate performance
    // across our application suite."
    for app in [AppId::Gtc, AppId::Lbmhd] {
        let (es, sx8) = (col_of(app, Es), col_of(app, Sx8));
        for r in &engine::rows(app) {
            let g = |i: usize| r.cells[i].map(|c| c.gflops).unwrap_or(0.0);
            for scalar in [Power3, Itanium2, Opteron].map(|id| col_of(app, id)) {
                assert!(
                    g(es) > g(scalar) && g(sx8) > g(scalar),
                    "vector platforms must lead at P={}",
                    r.procs
                );
            }
        }
    }

    // "The SX-8 does achieve the highest per-processor performance for
    // LBMHD3D, GTC, and PARATEC."
    for app in [AppId::Lbmhd, AppId::Gtc, AppId::Paratec] {
        let r = &engine::rows(app)[0];
        let sx8_g = r.cells[col_of(app, Sx8)].unwrap().gflops;
        for (i, c) in r.cells.iter().enumerate() {
            if i == col(app, PlatformSel::Agg4Ssp) {
                continue; // aggregate-of-4 column, not per-processor
            }
            if let Some(c) = c {
                assert!(sx8_g >= c.gflops, "SX-8 must lead column {i}");
            }
        }
    }

    // "the ES sustains the highest fraction of peak" (LBMHD, GTC). The
    // X1 4-SSP column is excluded: our model overestimates SSP-mode
    // efficiency (a documented deviation — see EXPERIMENTS.md), and the
    // paper's claim concerns whole machines.
    for app in [AppId::Lbmhd, AppId::Gtc] {
        let r = &engine::rows(app)[0];
        let es_pct = r.cells[col_of(app, Es)].unwrap().pct_peak;
        for (i, c) in r.cells.iter().enumerate() {
            if i == col(app, PlatformSel::Agg4Ssp) {
                continue;
            }
            if let Some(c) = c {
                assert!(es_pct >= c.pct_peak - 1e-9, "ES leads %peak (col {i})");
            }
        }
    }

    // Opteron dramatically outperforms Itanium2 for GTC and LBMHD3D
    // (paper §7), while the situation reverses for PARATEC.
    let gflops =
        |app, row: usize, id| engine::rows(app)[row].cells[col_of(app, id)].unwrap().gflops;
    assert!(gflops(AppId::Gtc, 0, Opteron) > gflops(AppId::Gtc, 0, Itanium2));
    assert!(gflops(AppId::Lbmhd, 0, Opteron) > gflops(AppId::Lbmhd, 0, Itanium2));
    assert!(gflops(AppId::Paratec, 2, Itanium2) > gflops(AppId::Paratec, 2, Opteron));
}

#[test]
fn fixed_size_problems_lose_percent_of_peak_with_concurrency() {
    // FVCAM (fixed D mesh) and PARATEC (fixed cell): %peak declines as P
    // grows on every platform with data at both ends.
    let fv = engine::rows(AppId::Fvcam);
    let first = fv.iter().find(|r| r.procs == 128 && r.label.contains("Pz=4")).unwrap();
    let last = fv.iter().find(|r| r.procs == 512 && r.label.contains("Pz=4")).unwrap();
    for i in 0..7 {
        if let (Some(a), Some(b)) = (first.cells[i], last.cells[i]) {
            assert!(b.pct_peak < a.pct_peak * 1.05, "FVCAM %peak must fall (col {i})");
        }
    }
    let pt = engine::rows(AppId::Paratec);
    for id in [PlatformId::Power3, PlatformId::Itanium2, PlatformId::Es] {
        let i = col_of(AppId::Paratec, id);
        let a = pt[1].cells[i].unwrap().pct_peak; // P=128
        let b = pt[5].cells[i].unwrap().pct_peak; // P=2048
        assert!(b < a, "PARATEC %peak must fall from 128 to 2048 (col {i})");
    }
}

#[test]
fn fig4_speedup_reaches_thousands_of_simulated_days() {
    // The paper: >4200 simulated days/day on 672 X1E processors.
    let rows = engine::rows(AppId::Fvcam);
    let r = rows.iter().find(|r| r.procs == 672).unwrap();
    let x1e = r.cells[col_of(AppId::Fvcam, PlatformId::X1e)].unwrap();
    let sim_days =
        fvcam::model::simulated_days_per_day(x1e.step_secs, fvcam::model::D_MESH_STEPS_PER_DAY);
    assert!(
        sim_days > 1000.0 && sim_days < 40_000.0,
        "simulated days/day out of range: {sim_days}"
    );
}
