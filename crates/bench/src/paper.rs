//! The paper's published results (Gflop/s per processor), transcribed from
//! Tables 3–6, plus shape-comparison helpers.
//!
//! These are the ground truth the reproduction is judged against. We are
//! not expected to match absolute numbers (our substrate is a model, not
//! the authors' machines); EXPERIMENTS.md tracks, per table, whether the
//! *shape* holds: platform ordering, rough ratios, and where scaling rolls
//! over.

use hec_serve::engine::AppId;

/// One published row: concurrency plus per-platform Gflop/P (None = "—").
#[derive(Clone, Debug)]
pub struct PaperRow {
    /// Processor count.
    pub procs: usize,
    /// Extra row label (grid size, particles/cell, decomposition…).
    pub label: String,
    /// Gflop/P per platform, in the order of the app's
    /// [`hec_serve::engine::columns`].
    pub gflops: [Option<f64>; 7],
}

fn row(procs: usize, label: &str, g: [Option<f64>; 7]) -> PaperRow {
    PaperRow { procs, label: label.into(), gflops: g }
}

/// The published rows of `app`'s table (Table 3–6), in the table's
/// column order ([`hec_serve::engine::columns`]).
pub fn published(app: AppId) -> Vec<PaperRow> {
    match app {
        AppId::Fvcam => table3(),
        AppId::Gtc => table4(),
        AppId::Lbmhd => table5(),
        AppId::Paratec => table6(),
    }
}

/// Paper Table 3 (FVCAM): no Opteron or SX-8 data, X1E in the 4-SSP slot.
fn table3() -> Vec<PaperRow> {
    let n = None;
    vec![
        row(32, "1D", [Some(0.12), Some(0.40), n, Some(1.72), Some(1.88), Some(1.33), n]),
        row(64, "1D", [Some(0.12), n, n, n, Some(1.67), Some(1.12), n]),
        row(128, "1D", [Some(0.11), n, n, n, n, Some(0.81), n]),
        row(256, "1D", [Some(0.10), n, n, n, n, Some(0.54), n]),
        row(128, "2D Pz=4", [Some(0.11), Some(0.33), n, Some(1.34), Some(1.48), Some(1.01), n]),
        row(256, "2D Pz=4", [Some(0.09), Some(0.30), n, Some(1.05), Some(1.19), Some(0.83), n]),
        row(376, "2D Pz=4", [n, Some(0.27), n, n, Some(0.99), n, n]),
        row(512, "2D Pz=4", [Some(0.09), n, n, n, n, Some(0.57), n]),
        row(336, "2D Pz=7", [Some(0.09), Some(0.29), n, Some(0.96), Some(1.09), Some(0.79), n]),
        row(644, "2D Pz=7", [n, Some(0.23), n, n, Some(0.71), n, n]),
        row(672, "2D Pz=7", [Some(0.07), n, n, n, Some(0.70), Some(0.56), n]),
        row(896, "2D Pz=7", [Some(0.06), n, n, n, n, Some(0.44), n]),
        row(1680, "2D Pz=7", [Some(0.05), n, n, n, n, n, n]),
    ]
}

/// Paper Table 4 (GTC), 100–3200 particles per cell.
fn table4() -> Vec<PaperRow> {
    let n = None;
    vec![
        row(
            64,
            "100 p/c",
            [Some(0.14), Some(0.39), Some(0.59), Some(1.29), Some(1.12), Some(1.60), Some(2.39)],
        ),
        row(
            128,
            "200 p/c",
            [Some(0.14), Some(0.39), Some(0.59), Some(1.22), Some(1.00), Some(1.56), Some(2.28)],
        ),
        row(
            256,
            "400 p/c",
            [Some(0.14), Some(0.38), Some(0.57), Some(1.17), Some(0.92), Some(1.55), Some(2.32)],
        ),
        row(512, "800 p/c", [Some(0.14), Some(0.38), Some(0.51), n, n, Some(1.53), n]),
        row(1024, "1600 p/c", [Some(0.14), Some(0.37), n, n, n, Some(1.88), n]),
        row(2048, "3200 p/c", [Some(0.13), Some(0.37), n, n, n, Some(1.82), n]),
    ]
}

/// Paper Table 5 (LBMHD3D). The X1 SSP column reports per-SSP Gflop/s.
fn table5() -> Vec<PaperRow> {
    let n = None;
    vec![
        row(
            16,
            "256^3",
            [Some(0.14), Some(0.26), Some(0.70), Some(5.19), n, Some(5.50), Some(7.89)],
        ),
        row(
            64,
            "256^3",
            [Some(0.15), Some(0.35), Some(0.68), Some(5.24), n, Some(5.25), Some(8.10)],
        ),
        row(
            256,
            "512^3",
            [Some(0.14), Some(0.32), Some(0.60), Some(5.26), Some(1.34), Some(5.45), Some(9.52)],
        ),
        row(512, "512^3", [Some(0.14), Some(0.35), Some(0.59), n, Some(1.34), Some(5.21), n]),
        row(1024, "1024^3", [n, n, n, n, Some(1.30), Some(5.44), n]),
        row(2048, "1024^3", [n, n, n, n, n, Some(5.41), n]),
    ]
}

/// Paper Table 6 (PARATEC, 488-atom CdSe dot, 3 CG steps).
fn table6() -> Vec<PaperRow> {
    let n = None;
    vec![
        row(64, "", [Some(0.94), n, n, Some(4.25), Some(4.32), n, Some(7.91)]),
        row(128, "", [Some(0.93), Some(2.84), n, Some(3.19), Some(3.72), Some(5.12), Some(7.53)]),
        row(256, "", [Some(0.85), Some(2.63), Some(1.98), Some(3.05), n, Some(4.97), Some(6.81)]),
        row(512, "", [Some(0.73), Some(2.44), Some(0.95), n, n, Some(4.36), n]),
        row(1024, "", [Some(0.60), Some(1.77), n, n, n, Some(3.64), n]),
        row(2048, "", [n, n, n, n, n, Some(2.67), n]),
    ]
}

/// Compares two per-platform result vectors by *rank ordering*: the
/// fraction of defined pairs `(i, j)` whose order agrees. 1.0 = identical
/// ordering (the primary "shape" criterion).
pub fn ordering_agreement(ours: &[Option<f64>], paper: &[Option<f64>]) -> f64 {
    let mut total = 0.0;
    let mut agree = 0.0;
    for i in 0..ours.len() {
        for j in i + 1..ours.len() {
            if let (Some(a1), Some(a2), Some(b1), Some(b2)) = (ours[i], ours[j], paper[i], paper[j])
            {
                total += 1.0;
                if ((a1 - a2) * (b1 - b2)) >= 0.0 {
                    agree += 1.0;
                }
            }
        }
    }
    if total == 0.0 {
        1.0
    } else {
        agree / total
    }
}

/// Geometric-mean absolute log-ratio between our values and the paper's —
/// e^(this) is the typical multiplicative error.
pub fn typical_ratio(ours: &[Option<f64>], paper: &[Option<f64>]) -> f64 {
    let logs: Vec<f64> = ours
        .iter()
        .zip(paper)
        .filter_map(|(a, b)| match (a, b) {
            (Some(a), Some(b)) if *a > 0.0 && *b > 0.0 => Some((a / b).ln().abs()),
            _ => None,
        })
        .collect();
    if logs.is_empty() {
        1.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_expected_shapes() {
        let lens: Vec<usize> = AppId::ALL.iter().map(|&a| published(a).len()).collect();
        assert_eq!(lens, [13, 6, 6, 6]);
    }

    #[test]
    fn published_invariants_hold() {
        // ES beats every superscalar platform on GTC at P=64.
        let t4 = published(AppId::Gtc);
        let r = &t4[0].gflops;
        let es = r[5].unwrap();
        for scalar in [r[0], r[1], r[2]] {
            assert!(es > scalar.unwrap());
        }
        // SX-8 holds the absolute LBMHD record.
        let t5 = published(AppId::Lbmhd);
        let r = &t5[2].gflops;
        let sx8 = r[6].unwrap();
        for other in r.iter().take(6).flatten() {
            assert!(sx8 > *other);
        }
    }

    #[test]
    fn ordering_agreement_detects_perfect_and_inverted() {
        let a = [Some(1.0), Some(2.0), Some(3.0), None, None, None, None];
        let b = [Some(10.0), Some(20.0), Some(30.0), None, None, None, None];
        assert_eq!(ordering_agreement(&a, &b), 1.0);
        let c = [Some(3.0), Some(2.0), Some(1.0), None, None, None, None];
        assert_eq!(ordering_agreement(&c, &b), 0.0);
    }

    #[test]
    fn typical_ratio_is_multiplicative_error() {
        let a = [Some(2.0), Some(20.0)];
        let b = [Some(1.0), Some(10.0)];
        assert!((typical_ratio(&a, &b) - 2.0).abs() < 1e-12);
        assert_eq!(typical_ratio(&[None], &[None]), 1.0);
    }
}
