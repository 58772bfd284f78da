//! Golden-fixture tests for `repro diff` — the cross-commit gate.
//!
//! The committed `baseline/` directory is the golden fixture. Each test
//! copies it, applies one synthetic mutation (counter drift, an extra
//! field, a missing artifact, an extra artifact), runs the
//! same `run_cli` entry point the `repro diff` subcommand uses, and
//! asserts the exact exit code plus that the report names the offending
//! file and field.

use std::path::{Path, PathBuf};

use bench::diff::{diff_dirs, run_cli, EXIT_FINDINGS, EXIT_OK, EXIT_USAGE};
use hec_core::json::Json;
use report::diff::{findings_table, FindingKind};

const BASELINE: &str = "baseline";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hec-diff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Copies the committed baseline into a fresh temp dir.
fn copy_baseline(tag: &str) -> PathBuf {
    let dst = tmpdir(tag);
    for entry in std::fs::read_dir(BASELINE).expect("committed baseline/ must exist") {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dst.join(path.file_name().unwrap())).unwrap();
    }
    dst
}

/// Rewrites one artifact in `dir` through an in-memory JSON edit.
fn mutate(dir: &Path, file: &str, edit: impl FnOnce(&mut Json)) {
    let path = dir.join(file);
    let mut doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    edit(&mut doc);
    std::fs::write(&path, doc.emit_pretty()).unwrap();
}

/// Nudges the first numeric leaf under the given top-level field by
/// `delta`.
fn bump_first_num(doc: &mut Json, field: &str, delta: f64) {
    fn walk(v: &mut Json, delta: f64) -> bool {
        match v {
            Json::Num(n) => {
                *n += delta;
                true
            }
            Json::Obj(fields) => fields.iter_mut().any(|(_, v)| walk(v, delta)),
            Json::Arr(items) => items.iter_mut().any(|v| walk(v, delta)),
            _ => false,
        }
    }
    let target = match doc {
        Json::Obj(fields) => {
            &mut fields.iter_mut().find(|(k, _)| k == field).expect("field exists").1
        }
        _ => panic!("artifact root must be an object"),
    };
    assert!(walk(target, delta), "no numeric leaf under {field}");
}

fn args(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

#[test]
fn identical_copies_diff_clean() {
    let a = copy_baseline("clean-a");
    let b = copy_baseline("clean-b");
    assert_eq!(run_cli(&args(&[a.to_str().unwrap(), b.to_str().unwrap()])), EXIT_OK);
    std::fs::remove_dir_all(&a).unwrap();
    std::fs::remove_dir_all(&b).unwrap();
}

#[test]
fn baseline_diffs_clean_against_itself_in_place() {
    assert_eq!(run_cli(&args(&[BASELINE, BASELINE])), EXIT_OK);
}

/// The pipeline regenerates the committed baseline bit for bit: every
/// table cell, canonical response and measured workload profile, so a
/// change to an app's workload builder that moves any field fails here.
#[test]
fn a_fresh_pipeline_run_diffs_clean_against_the_committed_baseline() {
    let dir = tmpdir("fresh");
    bench::pipeline::run_all(dir.to_str().unwrap()).unwrap();
    assert_eq!(run_cli(&args(&[BASELINE, dir.to_str().unwrap()])), EXIT_OK);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn counter_drift_fails_and_names_the_field() {
    let dir = copy_baseline("drift");
    // A phase counter in a profile is exact-deterministic: nudge one.
    mutate(&dir, "PROFILE_gtc.json", |doc| bump_first_num(doc, "profile", 1.0));
    assert_eq!(run_cli(&args(&[BASELINE, dir.to_str().unwrap()])), EXIT_FINDINGS);

    // The report must carry the offending file and field, not just a
    // pass/fail bit: check through the same engine the CLI prints from.
    let old = bench::artifact::load_dir(Path::new(BASELINE)).unwrap();
    let new = bench::artifact::load_dir(&dir).unwrap();
    let report = diff_dirs(&old, &new);
    let drift: Vec<_> = report.findings.iter().filter(|f| f.kind == FindingKind::Drift).collect();
    assert!(!drift.is_empty());
    assert!(drift.iter().all(|f| f.file == "PROFILE_gtc.json"), "{drift:?}");
    assert!(drift[0].path.starts_with("profile."), "{}", drift[0].path);
    let rendered = findings_table("t", &report.findings).render();
    assert!(rendered.contains("PROFILE_gtc.json"));
    assert!(rendered.contains(&drift[0].path));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn table_cell_drift_fails() {
    let dir = copy_baseline("cell");
    mutate(&dir, "TABLE_lbmhd3d.json", |doc| bump_first_num(doc, "table", 0.5));
    assert_eq!(run_cli(&args(&[BASELINE, dir.to_str().unwrap()])), EXIT_FINDINGS);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn canonical_response_byte_drift_fails() {
    let dir = copy_baseline("canon");
    mutate(&dir, "CANON_eval.json", |doc| {
        // Flip one byte of one snapshotted response body.
        fn first_body(v: &mut Json) -> Option<&mut String> {
            match v {
                Json::Obj(fields) => fields.iter_mut().find_map(|(k, v)| {
                    if k == "body" {
                        match v {
                            Json::Str(s) => Some(s),
                            _ => None,
                        }
                    } else {
                        first_body(v)
                    }
                }),
                Json::Arr(items) => items.iter_mut().find_map(first_body),
                _ => None,
            }
        }
        first_body(doc).expect("a response body").push(' ');
    });
    assert_eq!(run_cli(&args(&[BASELINE, dir.to_str().unwrap()])), EXIT_FINDINGS);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_artifact_fails_and_is_named() {
    let dir = copy_baseline("missing");
    std::fs::remove_file(dir.join("PROFILE_paratec.json")).unwrap();
    assert_eq!(run_cli(&args(&[BASELINE, dir.to_str().unwrap()])), EXIT_FINDINGS);
    let old = bench::artifact::load_dir(Path::new(BASELINE)).unwrap();
    let new = bench::artifact::load_dir(&dir).unwrap();
    let report = diff_dirs(&old, &new);
    assert!(report
        .findings
        .iter()
        .any(|f| f.kind == FindingKind::Missing && f.file == "PROFILE_paratec.json"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn extra_artifact_fails_and_is_named() {
    let dir = copy_baseline("extra");
    std::fs::write(
        dir.join("TABLE_surprise.json"),
        Json::obj([("note", Json::Str("synthetic".into()))]).emit_pretty(),
    )
    .unwrap();
    assert_eq!(run_cli(&args(&[BASELINE, dir.to_str().unwrap()])), EXIT_FINDINGS);
    let old = bench::artifact::load_dir(Path::new(BASELINE)).unwrap();
    let new = bench::artifact::load_dir(&dir).unwrap();
    let report = diff_dirs(&old, &new);
    assert!(report
        .findings
        .iter()
        .any(|f| f.kind == FindingKind::Extra && f.file == "TABLE_surprise.json"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unreadable_directories_and_bad_flags_are_usage_errors() {
    assert_eq!(run_cli(&args(&["/nonexistent/old", BASELINE])), EXIT_USAGE);
    assert_eq!(run_cli(&args(&[BASELINE, "/nonexistent/new"])), EXIT_USAGE);
    assert_eq!(run_cli(&args(&[])), EXIT_USAGE);
    assert_eq!(run_cli(&args(&["a", "b", "c"])), EXIT_USAGE);
    // The gate has no options: any flag, in any position, is a usage error.
    assert_eq!(run_cli(&args(&[BASELINE, BASELINE, "--threshold=0.3"])), EXIT_USAGE);
    assert_eq!(run_cli(&args(&[BASELINE, "--threshold=10"])), EXIT_USAGE);
    assert_eq!(run_cli(&args(&["--exact", BASELINE])), EXIT_USAGE);
}

/// The named field of a JSON object, for in-place edits.
fn field<'a>(doc: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(fields) = doc else { panic!("{key}: not inside an object") };
    &mut fields.iter_mut().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key}")).1
}

#[test]
fn wall_clock_and_sample_count_changes_are_tolerated() {
    let dir = copy_baseline("noise");
    // Simulated nondeterminism: a later creation stamp, a different
    // commit and host.
    for file in ["TABLE_gtc.json", "PROFILE_gtc.json"] {
        mutate(&dir, file, |doc| {
            let meta = field(doc, "meta");
            *field(meta, "created_unix") = Json::Num(4e9);
            *field(meta, "git_commit") = Json::Str("deadbeef0000".into());
            *field(meta, "host") = Json::Str("plan9-mips-64cpu".into());
        });
    }
    let d = dir.to_str().unwrap();
    assert_eq!(run_cli(&args(&[BASELINE, d])), EXIT_OK);

    // Outside the stamp nothing is noise: a capture phase carrying a
    // wall-clock `timing` block its baseline lacks is one extra field.
    let before = std::fs::read(dir.join("PROFILE_gtc.json")).unwrap();
    mutate(&dir, "PROFILE_gtc.json", |doc| {
        let profile = field(doc, "profile");
        let Json::Arr(captures) = field(profile, "captures") else { panic!("captures") };
        let Json::Arr(phases) = field(field(&mut captures[0], "capture"), "phases") else {
            panic!("phases")
        };
        let Json::Obj(phase) = &mut phases[0] else { panic!("a phase is an object") };
        phase.push(("timing".to_string(), Json::obj([("total_ns", Json::Num(1e10))])));
    });
    assert_eq!(run_cli(&args(&[BASELINE, d])), EXIT_FINDINGS);
    let old = bench::artifact::load_dir(Path::new(BASELINE)).unwrap();
    let report = diff_dirs(&old, &bench::artifact::load_dir(&dir).unwrap());
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].kind, FindingKind::Extra);
    assert_eq!(report.findings[0].file, "PROFILE_gtc.json");
    assert!(report.findings[0].path.ends_with(".timing.total_ns"), "{}", report.findings[0].path);
    std::fs::write(dir.join("PROFILE_gtc.json"), before).unwrap();

    // A different host stamp does not loosen the exact fields: one
    // table cell, then one counter, on that same foreign host is exactly
    // one named finding each.
    for (file, top) in [("TABLE_gtc.json", "table"), ("PROFILE_gtc.json", "profile")] {
        let before = std::fs::read(dir.join(file)).unwrap();
        mutate(&dir, file, |doc| bump_first_num(doc, top, 1.0));
        assert_eq!(run_cli(&args(&[BASELINE, d])), EXIT_FINDINGS);
        let old = bench::artifact::load_dir(Path::new(BASELINE)).unwrap();
        let new = bench::artifact::load_dir(&dir).unwrap();
        let report = diff_dirs(&old, &new);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].kind, FindingKind::Drift);
        assert_eq!(report.findings[0].file, file);
        assert!(report.findings[0].path.starts_with(top), "{}", report.findings[0].path);
        std::fs::write(dir.join(file), before).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_baseline_with_the_retired_meta_keys_diffs_clean() {
    // The committed baseline predates the removal of the load-test
    // stamp; what `repro all` writes today lacks these keys. A key only
    // one side carries is provenance, not a finding, whichever side.
    const RETIRED: [&str; 4] = ["load_secs", "clients", "replicas", "samples"];
    let dir = copy_baseline("retired");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        mutate(&dir, &name, |doc| {
            let Json::Obj(meta) = field(doc, "meta") else { panic!("{name}: meta is an object") };
            let before = meta.len();
            meta.retain(|(k, _)| !RETIRED.contains(&k.as_str()));
            assert_eq!(before - meta.len(), RETIRED.len(), "{name} carries the retired keys");
        });
    }
    let d = dir.to_str().unwrap();
    assert_eq!(run_cli(&args(&[BASELINE, d])), EXIT_OK);
    assert_eq!(run_cli(&args(&[d, BASELINE])), EXIT_OK);
    std::fs::remove_dir_all(&dir).unwrap();
}
