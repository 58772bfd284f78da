//! The headline reproduction criterion: for every performance table of the
//! paper, our model must reproduce the *shape* of the published results —
//! platform ordering and bounded multiplicative error — plus the paper's
//! qualitative claims.

use bench::validate;
use hec_serve::engine::{self, AppId};
use report::paper;

#[test]
fn table3_fvcam_shape_holds() {
    let shape = validate::compare(&engine::rows(AppId::Fvcam), &paper::table3());
    assert!(shape.rows >= 12, "rows matched: {}", shape.rows);
    assert!(shape.ordering >= 0.9, "ordering agreement {:.2}", shape.ordering);
    assert!(shape.factor < 2.5, "typical factor {:.2}", shape.factor);
}

#[test]
fn table4_gtc_shape_holds() {
    let shape = validate::compare(&engine::rows(AppId::Gtc), &paper::table4());
    assert_eq!(shape.rows, 6);
    assert!(shape.ordering >= 0.9, "ordering agreement {:.2}", shape.ordering);
    assert!(shape.factor < 2.0, "typical factor {:.2}", shape.factor);
}

#[test]
fn table5_lbmhd_shape_holds() {
    let shape = validate::compare(&engine::rows(AppId::Lbmhd), &paper::table5());
    assert_eq!(shape.rows, 6);
    assert!(shape.ordering >= 0.9, "ordering agreement {:.2}", shape.ordering);
    assert!(shape.factor < 2.0, "typical factor {:.2}", shape.factor);
}

#[test]
fn table6_paratec_shape_holds() {
    let shape = validate::compare(&engine::rows(AppId::Paratec), &paper::table6());
    assert_eq!(shape.rows, 6);
    assert!(shape.ordering >= 0.9, "ordering agreement {:.2}", shape.ordering);
    assert!(shape.factor < 2.0, "typical factor {:.2}", shape.factor);
}

#[test]
fn headline_claims_hold() {
    // "the vector architectures attain unprecedented aggregate performance
    // across our application suite."
    let idx = |name: &str| paper::PLATFORMS.iter().position(|p| *p == name).unwrap();
    let (es, sx8, power3, itanium2, opteron) =
        (idx("ES"), idx("SX-8"), idx("Power3"), idx("Itanium2"), idx("Opteron"));
    for rows in [engine::rows(AppId::Gtc), engine::rows(AppId::Lbmhd)] {
        for r in &rows {
            let g = |i: usize| r.cells[i].map(|c| c.gflops).unwrap_or(0.0);
            for scalar in [power3, itanium2, opteron] {
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
    for rows in [engine::rows(AppId::Lbmhd), engine::rows(AppId::Gtc), engine::rows(AppId::Paratec)]
    {
        let r = &rows[0];
        let sx8_g = r.cells[sx8].unwrap().gflops;
        for (i, c) in r.cells.iter().enumerate() {
            if i == idx("X1 (4-SSP)") {
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
    for rows in [engine::rows(AppId::Lbmhd), engine::rows(AppId::Gtc)] {
        let r = &rows[0];
        let es_pct = r.cells[es].unwrap().pct_peak;
        for (i, c) in r.cells.iter().enumerate() {
            if i == idx("X1 (4-SSP)") {
                continue;
            }
            if let Some(c) = c {
                assert!(es_pct >= c.pct_peak - 1e-9, "ES leads %peak (col {i})");
            }
        }
    }

    // Opteron dramatically outperforms Itanium2 for GTC and LBMHD3D
    // (paper §7), while the situation reverses for PARATEC.
    let gtc = &engine::rows(AppId::Gtc)[0];
    assert!(gtc.cells[opteron].unwrap().gflops > gtc.cells[itanium2].unwrap().gflops);
    let lb = &engine::rows(AppId::Lbmhd)[0];
    assert!(lb.cells[opteron].unwrap().gflops > lb.cells[itanium2].unwrap().gflops);
    let pt = &engine::rows(AppId::Paratec)[2];
    assert!(pt.cells[itanium2].unwrap().gflops > pt.cells[opteron].unwrap().gflops);
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
    for i in [0usize, 1, 5] {
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
    let x1e = r.cells[4].unwrap(); // X1E sits in the 4-SSP slot for FVCAM
    let sim_days =
        fvcam::model::simulated_days_per_day(x1e.step_secs, fvcam::model::D_MESH_STEPS_PER_DAY);
    assert!(
        sim_days > 1000.0 && sim_days < 40_000.0,
        "simulated days/day out of range: {sim_days}"
    );
}
