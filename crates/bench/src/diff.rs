//! `repro diff` — the cross-commit reproducibility gate.
//!
//! Compares two artifact directories written by `repro all` and fails
//! with a readable report when they disagree. Fields fall into two
//! classes:
//!
//! * **exact** — phase counters, table cell values, canonical response
//!   bytes, the artifact schema itself. These are bitwise-deterministic
//!   by the suite's contracts (thread-invariant counters, one shared
//!   evaluation core), so *any* drift is a finding, on any host.
//! * **ignored** — what a clock or a checkout can move: the provenance
//!   half of the stamp (commit, host, thread count, creation time, keys
//!   older baselines still carry). No artifact records how fast anything
//!   ran; that is measured by `benchmark/` (see its README), not gated
//!   here.
//!
//! Exit codes (pinned by the golden-fixture tests): `0` clean, `1` any
//! finding (drift, missing or extra artifact/field), `2` usage or
//! unreadable directory.

use std::collections::BTreeMap;
use std::path::Path;

use hec_core::json::Json;
use report::diff::{findings_table, summary_line, Finding, FindingKind};

use crate::artifact;

/// Exit code: directories agree.
pub const EXIT_OK: i32 = 0;
/// Exit code: at least one finding.
pub const EXIT_FINDINGS: i32 = 1;
/// Exit code: usage error or unreadable input.
pub const EXIT_USAGE: i32 = 2;

/// Outcome of a directory comparison.
#[derive(Debug)]
pub struct DiffReport {
    /// Every disagreement, unordered (rendering sorts).
    pub findings: Vec<Finding>,
    /// Artifacts present in both directories.
    pub files_compared: usize,
}

/// How one field path is compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Exact,
    Ignore,
}

/// The field-class table: one place that says what is contract and what
/// is noise. Only the stamp carries noise; every other field of every
/// artifact family is exact.
fn classify(path: &[String]) -> Class {
    let named_leaf =
        path.iter().rev().find(|s| !s.starts_with('[')).map(String::as_str).unwrap_or("");
    if path.first().is_some_and(|s| s == "meta") {
        // The stamp: the schema and configuration must match for the
        // comparison to mean anything; commit, host and thread count
        // legitimately differ between runs.
        return match named_leaf {
            "schema_version" | "config_hash" | "apps" | "platforms" => Class::Exact,
            _ => Class::Ignore,
        };
    }
    Class::Exact
}

fn render_path(path: &[String]) -> String {
    let mut out = String::new();
    for seg in path {
        if seg.starts_with('[') || out.is_empty() {
            out.push_str(seg);
        } else {
            out.push('.');
            out.push_str(seg);
        }
    }
    out
}

fn leaf_repr(v: &Json) -> String {
    match v {
        Json::Str(s) if s.len() > 40 => format!("\"{}…\" ({} bytes)", &s[..20], s.len()),
        other => other.emit(),
    }
}

/// True when keyed matching applies (PROFILE capture phases): both
/// arrays hold objects carrying a unique string `name`.
fn keyed_by_name(items: &[Json]) -> Option<Vec<(&str, &Json)>> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let name = item.get("name")?.as_str()?;
        if !seen.insert(name) {
            return None;
        }
        out.push((name, item));
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

struct Differ<'a> {
    file: &'a str,
    findings: &'a mut Vec<Finding>,
}

impl Differ<'_> {
    fn push(&mut self, path: &[String], kind: FindingKind, detail: String) {
        self.findings.push(Finding {
            file: self.file.to_string(),
            path: render_path(path),
            kind,
            detail,
        });
    }

    /// Reports every non-ignored leaf of a subtree that exists on only
    /// one side, so the report names concrete fields, not just a prefix.
    fn one_sided(&mut self, v: &Json, path: &mut Vec<String>, kind: FindingKind) {
        match v {
            Json::Obj(fields) => {
                for (k, v) in fields {
                    path.push(k.clone());
                    self.one_sided(v, path, kind);
                    path.pop();
                }
            }
            Json::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    path.push(format!("[{i}]"));
                    self.one_sided(v, path, kind);
                    path.pop();
                }
            }
            leaf => {
                if classify(path) != Class::Ignore {
                    let side = if kind == FindingKind::Missing { "old" } else { "new" };
                    self.push(path, kind, format!("only in {side}: {}", leaf_repr(leaf)));
                }
            }
        }
    }

    fn walk(&mut self, old: &Json, new: &Json, path: &mut Vec<String>) {
        match (old, new) {
            (Json::Obj(of), Json::Obj(nf)) => {
                for (k, ov) in of {
                    path.push(k.clone());
                    match nf.iter().find(|(nk, _)| nk == k) {
                        Some((_, nv)) => self.walk(ov, nv, path),
                        None => self.one_sided(ov, path, FindingKind::Missing),
                    }
                    path.pop();
                }
                for (k, nv) in nf {
                    if !of.iter().any(|(ok, _)| ok == k) {
                        path.push(k.clone());
                        self.one_sided(nv, path, FindingKind::Extra);
                        path.pop();
                    }
                }
            }
            (Json::Arr(oi), Json::Arr(ni)) => {
                match (keyed_by_name(oi), keyed_by_name(ni)) {
                    (Some(om), Some(nm)) => {
                        // A whole named entry (a capture phase) appearing or
                        // vanishing is one finding, not one per leaf.
                        for (name, ov) in &om {
                            path.push(format!("[{name}]"));
                            match nm.iter().find(|(n, _)| n == name) {
                                Some((_, nv)) => self.walk(ov, nv, path),
                                None => self.push(
                                    path,
                                    FindingKind::Missing,
                                    "named entry missing from new".to_string(),
                                ),
                            }
                            path.pop();
                        }
                        for (name, _) in &nm {
                            if !om.iter().any(|(n, _)| n == name) {
                                path.push(format!("[{name}]"));
                                self.push(
                                    path,
                                    FindingKind::Extra,
                                    "named entry absent from old".to_string(),
                                );
                                path.pop();
                            }
                        }
                    }
                    _ => {
                        for (i, (ov, nv)) in oi.iter().zip(ni).enumerate() {
                            path.push(format!("[{i}]"));
                            self.walk(ov, nv, path);
                            path.pop();
                        }
                        for (i, ov) in oi.iter().enumerate().skip(ni.len()) {
                            path.push(format!("[{i}]"));
                            self.one_sided(ov, path, FindingKind::Missing);
                            path.pop();
                        }
                        for (i, nv) in ni.iter().enumerate().skip(oi.len()) {
                            path.push(format!("[{i}]"));
                            self.one_sided(nv, path, FindingKind::Extra);
                            path.pop();
                        }
                    }
                }
            }
            (ov, nv) => {
                if classify(path) == Class::Exact && ov != nv {
                    let detail = format!("{} -> {}", leaf_repr(ov), leaf_repr(nv));
                    self.push(path, FindingKind::Drift, detail);
                }
            }
        }
    }
}

/// Compares two loaded artifact directories.
pub fn diff_dirs(old: &BTreeMap<String, Json>, new: &BTreeMap<String, Json>) -> DiffReport {
    let mut findings = Vec::new();
    let mut files_compared = 0;
    for (name, odoc) in old {
        match new.get(name) {
            Some(ndoc) => {
                files_compared += 1;
                Differ { file: name, findings: &mut findings }.walk(odoc, ndoc, &mut Vec::new());
            }
            None => findings.push(Finding {
                file: name.clone(),
                path: String::new(),
                kind: FindingKind::Missing,
                detail: "artifact missing from the new directory".to_string(),
            }),
        }
    }
    for name in new.keys() {
        if !old.contains_key(name) {
            findings.push(Finding {
                file: name.clone(),
                path: String::new(),
                kind: FindingKind::Extra,
                detail: "artifact absent from the old directory".to_string(),
            });
        }
    }
    DiffReport { findings, files_compared }
}

/// The `repro diff <old-dir> [new-dir]` entry point: loads both
/// directories, diffs, prints the report, and returns the exit code.
pub fn run_cli(args: &[String]) -> i32 {
    let usage = || {
        eprintln!("usage: repro diff <old-dir> [new-dir]");
        EXIT_USAGE
    };
    let (old_dir, new_dir) = match args {
        // The gate takes no options: a flag is a usage error, not a directory.
        _ if args.iter().any(|a| a.starts_with("--")) => return usage(),
        [old] => (old.as_str(), crate::pipeline::DEFAULT_DIR),
        [old, new] => (old.as_str(), new.as_str()),
        _ => return usage(),
    };
    let load = |d: &str| artifact::load_dir(Path::new(d));
    let (old, new) = match (load(old_dir), load(new_dir)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("repro diff: {e}");
            return EXIT_USAGE;
        }
    };
    let report = diff_dirs(&old, &new);
    if !report.findings.is_empty() {
        let title = format!("Artifact diff: {old_dir} -> {new_dir}");
        print!("{}", findings_table(&title, &report.findings).render());
    }
    println!("{}", summary_line(&report.findings, report.files_compared));
    if report.findings.is_empty() {
        EXIT_OK
    } else {
        EXIT_FINDINGS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(meta_host: &str, fields: &[(&str, Json)]) -> Json {
        let mut all = vec![(
            "meta".to_string(),
            Json::obj([
                ("schema_version", Json::Num(artifact::SCHEMA_VERSION)),
                ("host", Json::Str(meta_host.to_string())),
                ("hec_threads", Json::Num(2.0)),
                ("config_hash", Json::Str("abc".into())),
            ]),
        )];
        all.extend(fields.iter().map(|(k, v)| (k.to_string(), v.clone())));
        Json::Obj(all)
    }

    fn dir_of(files: &[(&str, Json)]) -> BTreeMap<String, Json> {
        files.iter().map(|(n, d)| (n.to_string(), d.clone())).collect()
    }

    #[test]
    fn identical_directories_are_clean() {
        let d = dir_of(&[("TABLE_gtc.json", doc("h", &[("rows", Json::Num(5.0))]))]);
        let r = diff_dirs(&d, &d);
        assert!(r.findings.is_empty());
        assert_eq!(r.files_compared, 1);
    }

    #[test]
    fn exact_drift_is_a_finding_with_the_field_path() {
        let old = dir_of(&[(
            "PROFILE_gtc.json",
            doc("h", &[("profile", Json::obj([("flops", Json::Num(100.0))]))]),
        )]);
        let new = dir_of(&[(
            "PROFILE_gtc.json",
            doc("h", &[("profile", Json::obj([("flops", Json::Num(101.0))]))]),
        )]);
        let r = diff_dirs(&old, &new);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].kind, FindingKind::Drift);
        assert_eq!(r.findings[0].file, "PROFILE_gtc.json");
        assert_eq!(r.findings[0].path, "profile.flops");
    }

    #[test]
    fn profile_timing_fields_are_exact() {
        // No field outside the stamp is noise, whatever it is named.
        let mk = |ns: f64| {
            dir_of(&[(
                "PROFILE_gtc.json",
                doc("h", &[("timing", Json::obj([("total_ns", Json::Num(ns))]))]),
            )])
        };
        let r = diff_dirs(&mk(1.0), &mk(9e9));
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].kind, FindingKind::Drift);
        assert_eq!(r.findings[0].path, "timing.total_ns");
    }

    #[test]
    fn exact_fields_still_gate_between_different_hosts() {
        let old = dir_of(&[("TABLE_gtc.json", doc("hostA", &[("rows", Json::Num(1.0))]))]);
        let new = dir_of(&[("TABLE_gtc.json", doc("hostB", &[("rows", Json::Num(2.0))]))]);
        assert_eq!(diff_dirs(&old, &new).findings.len(), 1);
    }

    #[test]
    fn missing_and_extra_artifacts_are_findings() {
        let both =
            dir_of(&[("TABLE_gtc.json", doc("h", &[])), ("TABLE_fvcam.json", doc("h", &[]))]);
        let only_one = dir_of(&[("TABLE_gtc.json", doc("h", &[]))]);
        let r = diff_dirs(&both, &only_one);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].kind, FindingKind::Missing);
        assert_eq!(r.findings[0].file, "TABLE_fvcam.json");
        let r = diff_dirs(&only_one, &both);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].kind, FindingKind::Extra);
    }

    #[test]
    fn capture_phases_match_by_name_not_position() {
        let ph = |name: &str, flops: f64| {
            Json::obj([("name", Json::Str(name.to_string())), ("flops", Json::Num(flops))])
        };
        let mk = |phases: Vec<Json>| {
            dir_of(&[("PROFILE_gtc.json", doc("h", &[("phases", Json::Arr(phases))]))])
        };
        let old = mk(vec![ph("deposit", 10.0), ph("push", 20.0)]);
        // Reordered but equal: clean.
        assert!(diff_dirs(&old, &mk(vec![ph("push", 20.0), ph("deposit", 10.0)]))
            .findings
            .is_empty());
        // A counter moving is attributed to its phase by name.
        let r = diff_dirs(&old, &mk(vec![ph("push", 21.0), ph("deposit", 10.0)]));
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].path, "phases[push].flops");
        // A phase disappearing is one named finding.
        let r = diff_dirs(&old, &mk(vec![ph("push", 20.0)]));
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].kind, FindingKind::Missing);
        assert!(r.findings[0].path.contains("[deposit]"), "{}", r.findings[0].path);
    }

    #[test]
    fn config_hash_mismatch_is_drift() {
        let mut old = doc("h", &[]);
        let new = old.clone();
        if let Json::Obj(fields) = &mut old {
            if let Json::Obj(meta) = &mut fields[0].1 {
                meta.iter_mut().find(|(k, _)| k == "config_hash").unwrap().1 =
                    Json::Str("different".into());
            }
        }
        let r = diff_dirs(&dir_of(&[("TABLE_gtc.json", old)]), &dir_of(&[("TABLE_gtc.json", new)]));
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].path, "meta.config_hash");
    }
}
