//! Shape validation against the paper's published values.
//!
//! We do not chase absolute numbers (the substrate is a model); the
//! validation criteria, recorded per table in EXPERIMENTS.md, are:
//!
//! 1. **Ordering** — does our model rank the platforms the way the paper's
//!    measurements do? (pairwise ordering agreement);
//! 2. **Factor** — is the typical multiplicative error bounded?
//! 3. **Trend** — do the paper's qualitative scaling statements hold
//!    (e.g. %peak falls with P for the fixed-size problems)?

use report::paper::{ordering_agreement, typical_ratio, PaperRow};

use hec_serve::engine::Row;

/// Shape scores for one table.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Mean pairwise platform-ordering agreement over rows (0–1).
    pub ordering: f64,
    /// Geometric-mean multiplicative error vs the paper.
    pub factor: f64,
    /// Rows compared.
    pub rows: usize,
}

/// Matches reproduced rows against published rows by (procs, label-ish)
/// and computes the shape scores.
pub fn compare(ours: &[Row], paper: &[PaperRow]) -> Shape {
    let mut ord_sum = 0.0;
    let mut ratio_sum = 0.0;
    let mut n = 0usize;
    for p in paper {
        // Match on processor count and label when the paper row has one.
        let m = ours.iter().find(|r| {
            r.procs == p.procs
                && (p.label.is_empty() || r.label.contains(&p.label) || p.label.contains(&r.label))
        });
        let Some(m) = m else { continue };
        let our_g: Vec<Option<f64>> = m.cells.iter().map(|c| c.map(|c| c.gflops)).collect();
        ord_sum += ordering_agreement(&our_g, &p.gflops);
        ratio_sum += typical_ratio(&our_g, &p.gflops).ln();
        n += 1;
    }
    if n == 0 {
        return Shape { ordering: 0.0, factor: f64::INFINITY, rows: 0 };
    }
    Shape { ordering: ord_sum / n as f64, factor: (ratio_sum / n as f64).exp(), rows: n }
}

/// Renders a side-by-side `ours vs paper` diff for calibration work.
pub fn diff_table(title: &str, ours: &[Row], paper: &[PaperRow]) -> String {
    let mut out = format!("{title}: reproduced vs published Gflop/P (ratio)\n");
    out.push_str(&format!(
        "{:<12} {:>6}  {}\n",
        "config",
        "P",
        report::paper::PLATFORMS.iter().map(|p| format!("{p:>18}")).collect::<String>()
    ));
    for p in paper {
        let m = ours.iter().find(|r| {
            r.procs == p.procs
                && (p.label.is_empty() || r.label.contains(&p.label) || p.label.contains(&r.label))
        });
        let Some(m) = m else { continue };
        out.push_str(&format!("{:<12} {:>6}  ", p.label, p.procs));
        for (c, pub_g) in m.cells.iter().zip(&p.gflops) {
            let cell = match (c, pub_g) {
                (Some(c), Some(g)) => {
                    format!("{:>6.2}/{:<5.2}x{:<4.1}", c.gflops, g, c.gflops / g)
                }
                (Some(c), None) => format!("{:>6.2}/  —       ", c.gflops),
                (None, Some(g)) => format!("     —/{g:<5.2}     "),
                (None, None) => "        —         ".into(),
            };
            out.push_str(&format!("{cell:>18}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hec_serve::engine::{self, AppId};

    #[test]
    fn gtc_shape_is_comparable() {
        let shape = compare(&engine::rows(AppId::Gtc), &report::paper::table4());
        assert_eq!(shape.rows, 6);
        assert!(shape.ordering > 0.0);
        assert!(shape.factor.is_finite());
    }

    #[test]
    fn diff_table_renders() {
        let s = diff_table("T4", &engine::rows(AppId::Gtc), &report::paper::table4());
        assert!(s.contains("T4"));
        assert!(s.contains('x'));
    }

    #[test]
    fn empty_comparison_is_flagged() {
        let shape = compare(&[], &report::paper::table4());
        assert_eq!(shape.rows, 0);
        assert!(shape.factor.is_infinite());
    }
}
