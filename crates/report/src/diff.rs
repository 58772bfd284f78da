//! Artifact-diff report: the findings table `repro diff` prints when
//! two artifact directories disagree.
//!
//! The diff engine (`bench::diff`) classifies every disagreement into a
//! [`FindingKind`]; this module owns the display types and the fixed
//! rendering so the golden-fixture tests can assert on stable report
//! text ("which file, which field") without reaching into the engine.

use crate::table::Table;

/// How a compared field (or whole artifact) disagreed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// An exact-deterministic field changed value.
    Drift,
    /// A field or artifact present in the old directory is gone.
    Missing,
    /// An artifact or field appeared that the old directory lacks.
    Extra,
}

impl FindingKind {
    /// Fixed label used in the report table.
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::Drift => "drift",
            FindingKind::Missing => "missing",
            FindingKind::Extra => "extra",
        }
    }
}

/// One disagreement between the two artifact directories.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Artifact file name, e.g. `PROFILE_gtc.json`.
    pub file: String,
    /// Dotted field path inside the artifact (empty for whole-file
    /// findings), e.g. `profile.captures[0].capture.phases[deposit].counters.flops`.
    pub path: String,
    /// What kind of disagreement this is.
    pub kind: FindingKind,
    /// Old vs new values, or which side holds the field.
    pub detail: String,
}

/// Renders the findings as a fixed-width table: drift first, then
/// missing, then extra, each sorted by file and field.
pub fn findings_table(title: &str, findings: &[Finding]) -> Table {
    let mut t = Table::new(title, &["kind", "file", "field", "detail"]);
    let rank = |k: FindingKind| match k {
        FindingKind::Drift => 0,
        FindingKind::Missing => 1,
        FindingKind::Extra => 2,
    };
    let mut sorted: Vec<&Finding> = findings.iter().collect();
    sorted.sort_by(|a, b| {
        rank(a.kind).cmp(&rank(b.kind)).then_with(|| (&a.file, &a.path).cmp(&(&b.file, &b.path)))
    });
    for f in sorted {
        let field = if f.path.is_empty() { "—".to_string() } else { f.path.clone() };
        t.push_row(vec![f.kind.label().to_string(), f.file.clone(), field, f.detail.clone()]);
    }
    t
}

/// One-line verdict for the bottom of the report.
pub fn summary_line(findings: &[Finding], files_compared: usize) -> String {
    let count = |k: FindingKind| findings.iter().filter(|f| f.kind == k).count();
    if findings.is_empty() {
        format!("diff: ok — {files_compared} artifacts compared, no drift")
    } else {
        format!(
            "diff: FAILED — {} drift, {} missing, {} extra across {} artifacts",
            count(FindingKind::Drift),
            count(FindingKind::Missing),
            count(FindingKind::Extra),
            files_compared,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(kind: FindingKind, file: &str, path: &str) -> Finding {
        Finding { file: file.into(), path: path.into(), kind, detail: "old 1 -> new 2".into() }
    }

    #[test]
    fn table_names_the_offending_file_and_field() {
        let t = findings_table(
            "artifact diff",
            &[f(FindingKind::Drift, "PROFILE_gtc.json", "profile.captures[0].flops")],
        );
        let s = t.render();
        assert!(s.contains("PROFILE_gtc.json"));
        assert!(s.contains("profile.captures[0].flops"));
        assert!(s.contains("drift"));
    }

    #[test]
    fn drift_sorts_before_missing_and_extra() {
        let t = findings_table(
            "d",
            &[
                f(FindingKind::Extra, "TABLE_new.json", ""),
                f(FindingKind::Missing, "CANON_eval.json", "responses[0].body"),
                f(FindingKind::Drift, "TABLE_gtc.json", "rows[0].cells[1].gflops_per_proc"),
            ],
        );
        let s = t.render();
        let at = |label: &str| s.find(label).unwrap();
        assert!(at("drift") < at("missing") && at("missing") < at("extra"), "{s}");
    }

    #[test]
    fn whole_file_findings_render_a_dash_field() {
        let t = findings_table("d", &[f(FindingKind::Missing, "TABLE_gtc.json", "")]);
        assert!(t.render().contains("—"));
    }

    #[test]
    fn summary_counts_each_kind() {
        let fs = [
            f(FindingKind::Drift, "a", "x"),
            f(FindingKind::Missing, "b", "y"),
            f(FindingKind::Missing, "b", "z"),
        ];
        let s = summary_line(&fs, 9);
        assert!(s.contains("FAILED"));
        assert!(s.contains("1 drift"));
        assert!(s.contains("2 missing"));
        assert!(s.contains("0 extra"));
        assert!(summary_line(&[], 9).contains("ok — 9 artifacts compared"));
    }
}
