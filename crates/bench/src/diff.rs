//! `repro diff` — the cross-commit regression gate.
//!
//! Compares two artifact directories written by `repro all` and fails
//! with a readable report when they disagree. Fields fall into three
//! classes:
//!
//! * **exact** — phase counters, table cell values, canonical response
//!   bytes, the artifact schema itself. These are bitwise-deterministic
//!   by the suite's contracts (thread-invariant counters, one shared
//!   evaluation core), so *any* drift is a finding.
//! * **thresholded** — throughput, cache hit rate, latency quantiles.
//!   A regression beyond [`DEFAULT_THRESHOLD`] (relative) is a finding;
//!   noise inside the threshold is not. These comparisons only run when
//!   both directories' metadata agree on host fingerprint and worker
//!   count — numbers from different machines are not comparable.
//! * **ignored** — wall-clock spans, sample counts, ephemeral ports,
//!   creation times: expected nondeterminism.
//!
//! Exit codes (pinned by the golden-fixture tests): `0` clean, `1` any
//! finding (drift, regression, missing or extra artifact/field), `2`
//! usage or unreadable directory.

use std::collections::BTreeMap;
use std::path::Path;

use hec_core::json::Json;
use report::diff::{findings_table, summary_line, Finding, FindingKind};

use crate::artifact;

/// Default relative regression tolerance for thresholded fields.
pub const DEFAULT_THRESHOLD: f64 = 0.15;

/// Exit code: directories agree.
pub const EXIT_OK: i32 = 0;
/// Exit code: at least one finding.
pub const EXIT_FINDINGS: i32 = 1;
/// Exit code: usage error or unreadable input.
pub const EXIT_USAGE: i32 = 2;

/// Diff tuning.
#[derive(Clone, Copy, Debug)]
pub struct DiffOptions {
    /// Relative regression tolerance for thresholded fields (0.15 =
    /// fail beyond 15%).
    pub threshold: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions { threshold: DEFAULT_THRESHOLD }
    }
}

/// Outcome of a directory comparison.
#[derive(Debug)]
pub struct DiffReport {
    /// Every disagreement, unordered (rendering sorts).
    pub findings: Vec<Finding>,
    /// Artifacts present in both directories.
    pub files_compared: usize,
    /// False when performance fields were skipped (metadata declared
    /// the directories perf-incomparable).
    pub perf_checked: bool,
    /// Why performance fields were skipped, when they were.
    pub perf_note: Option<String>,
}

/// How one field path is compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Exact,
    /// Thresholded; lower new value is a regression (throughput).
    PerfLowerBad,
    /// Thresholded; higher new value is a regression (latency).
    PerfHigherBad,
    Ignore,
}

/// The field-class table: one place that says what is contract and what
/// is noise, per artifact family.
fn classify(file: &str, path: &[String]) -> Class {
    let named_leaf =
        path.iter().rev().find(|s| !s.starts_with('[')).map(String::as_str).unwrap_or("");
    if path.first().is_some_and(|s| s == "meta") {
        // The stamp: the schema and configuration must match for the
        // comparison to mean anything; commit, host, thread count, and
        // sample parameters legitimately differ between runs.
        return match named_leaf {
            "schema_version" | "config_hash" | "apps" | "platforms" => Class::Exact,
            _ => Class::Ignore,
        };
    }
    if file.starts_with("TABLE_") || file.starts_with("CANON_") {
        return Class::Exact;
    }
    if file.starts_with("PROFILE_") {
        // Span wall-times are explicitly outside the deterministic
        // contract (hec_core::probe); every counter and derived
        // workload number is inside it.
        return if path.iter().any(|s| s == "timing") { Class::Ignore } else { Class::Exact };
    }
    if file == "BENCH_kernels.json" || file == "BENCH_apps.json" {
        return match named_leaf {
            "harness" | "warmup" | "min_sample_ns" | "name" | "units" | "unit_label" => {
                Class::Exact
            }
            // Gflop/s is the paper's reporting unit: regressions in it
            // gate directly, not only via the generic throughput field.
            "throughput_per_sec" | "gflops" => Class::PerfLowerBad,
            // median/min/iters/samples/threads/speedup/efficiency:
            // provenance and derived noise, all folded into throughput.
            _ => Class::Ignore,
        };
    }
    if file == "BENCH_serve.json" || file == "BENCH_cluster.json" {
        if path.iter().any(|s| s == "by_class") {
            return if named_leaf == "errors" { Class::Exact } else { Class::Ignore };
        }
        // Autoscaler decisions are a pure function of the seeded run
        // (admitted-request ticks, deterministic thresholds): both the
        // up and down counts must reproduce bit-for-bit.
        if path.iter().any(|s| s == "autoscale_decisions") {
            return Class::Exact;
        }
        return match named_leaf {
            // Elasticity: the seeded churn plan fixes how many
            // membership events fire and exactly which tracked keys
            // change owners; cache warming is best-effort, so fewer
            // successful warms gates like a perf regression.
            "membership_events" | "keys_moved" => Class::Exact,
            "warm_hits" => Class::PerfLowerBad,
            "bench" | "secs" | "clients" | "errors" | "transport_errors" | "replicas" | "up" => {
                Class::Exact
            }
            // Open-loop provenance must match bit-for-bit (a baseline
            // recorded at a different offered rate or seed is not
            // comparable), and a drained target must report zero open
            // connections — a leak here is a reactor bug, not noise.
            "open_loop" | "seed" | "rate_offered_rps" | "connections_open_after_drain" => {
                Class::Exact
            }
            "throughput_rps" | "hit_rate" | "availability" => Class::PerfLowerBad,
            // Falling short of the offered rate means the target (or
            // the machine) got slower: gate it like a throughput drop.
            "rate_achieved_rps" => Class::PerfLowerBad,
            "p50" | "p95" | "p99" => Class::PerfHigherBad,
            // url (ephemeral port), requests (duration-dependent),
            // retried_ok, failovers, hedges, cache traffic counts, mean/max.
            _ => Class::Ignore,
        };
    }
    // Unknown artifact families are held to the strictest standard.
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

/// True when `samples`-style keyed matching applies: both arrays hold
/// objects carrying a unique string `name`.
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
    opts: DiffOptions,
    perf: bool,
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
                if classify(self.file, path) != Class::Ignore {
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
                        // A whole named entry (a bench sample, a capture
                        // phase) appearing or vanishing is one finding,
                        // not one per leaf.
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
            (ov, nv) => self.leaves(ov, nv, path),
        }
    }

    fn leaves(&mut self, old: &Json, new: &Json, path: &mut Vec<String>) {
        match classify(self.file, path) {
            Class::Ignore => {}
            Class::Exact => {
                if old != new {
                    self.push(
                        path,
                        FindingKind::Drift,
                        format!("{} -> {}", leaf_repr(old), leaf_repr(new)),
                    );
                }
            }
            perf @ (Class::PerfLowerBad | Class::PerfHigherBad) => {
                if !self.perf {
                    return;
                }
                let (Some(o), Some(n)) = (old.as_f64(), new.as_f64()) else {
                    self.push(
                        path,
                        FindingKind::Drift,
                        format!("non-numeric: {} -> {}", leaf_repr(old), leaf_repr(new)),
                    );
                    return;
                };
                if o <= 0.0 {
                    return; // nothing to regress from
                }
                let rel = (n - o) / o;
                let bad = match perf {
                    Class::PerfLowerBad => rel < -self.opts.threshold,
                    _ => rel > self.opts.threshold,
                };
                if bad {
                    self.push(
                        path,
                        FindingKind::Regression,
                        format!(
                            "{o:.4} -> {n:.4} ({:+.1}% vs {:.0}% tolerance)",
                            rel * 100.0,
                            self.opts.threshold * 100.0
                        ),
                    );
                }
            }
        }
    }
}

/// Whether thresholded comparisons are meaningful: both directories
/// must declare the same host fingerprint and worker count. Returns the
/// skip reason otherwise.
fn perf_comparability(
    old: &BTreeMap<String, Json>,
    new: &BTreeMap<String, Json>,
) -> Result<(), String> {
    let stamp = |docs: &BTreeMap<String, Json>| -> Option<(String, f64)> {
        let meta = docs.values().next()?.get("meta")?;
        Some((meta.str_field("host").ok()?.to_string(), meta.num_field("hec_threads").ok()?))
    };
    match (stamp(old), stamp(new)) {
        (Some((oh, ot)), Some((nh, nt))) if oh == nh && ot == nt => Ok(()),
        (Some((oh, ot)), Some((nh, nt))) => {
            Err(format!("perf skipped: {oh}/{ot} workers vs {nh}/{nt} workers are not comparable"))
        }
        _ => Err("perf skipped: missing metadata stamp".to_string()),
    }
}

/// Compares two loaded artifact directories.
pub fn diff_dirs(
    old: &BTreeMap<String, Json>,
    new: &BTreeMap<String, Json>,
    opts: DiffOptions,
) -> DiffReport {
    let mut findings = Vec::new();
    let (perf_checked, perf_note) = match perf_comparability(old, new) {
        Ok(()) => (true, None),
        Err(note) => (false, Some(note)),
    };
    let mut files_compared = 0;
    for (name, odoc) in old {
        match new.get(name) {
            Some(ndoc) => {
                files_compared += 1;
                let mut d =
                    Differ { file: name, opts, perf: perf_checked, findings: &mut findings };
                d.walk(odoc, ndoc, &mut Vec::new());
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
    DiffReport { findings, files_compared, perf_checked, perf_note }
}

/// The `repro diff <old> [new] [--threshold=F]` entry point: loads both
/// directories, diffs, prints the report, and returns the exit code.
pub fn run_cli(args: &[String]) -> i32 {
    let mut dirs: Vec<&str> = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD;
    for a in args {
        if let Some(v) = a.strip_prefix("--threshold=") {
            match v.parse::<f64>() {
                Ok(t) if t > 0.0 => threshold = t,
                _ => {
                    eprintln!("bad --threshold value '{v}' (want a positive fraction, e.g. 0.15)");
                    return EXIT_USAGE;
                }
            }
        } else {
            dirs.push(a);
        }
    }
    let (old_dir, new_dir) = match dirs.as_slice() {
        [old] => (*old, crate::pipeline::DEFAULT_DIR),
        [old, new] => (*old, *new),
        _ => {
            eprintln!("usage: repro diff <old-dir> [new-dir] [--threshold=F]");
            return EXIT_USAGE;
        }
    };
    let load = |d: &str| artifact::load_dir(Path::new(d));
    let (old, new) = match (load(old_dir), load(new_dir)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("repro diff: {e}");
            return EXIT_USAGE;
        }
    };
    let report = diff_dirs(&old, &new, DiffOptions { threshold });
    if !report.findings.is_empty() {
        let title = format!("Artifact diff: {old_dir} -> {new_dir}");
        print!("{}", findings_table(&title, &report.findings).render());
    }
    println!(
        "{}",
        summary_line(&report.findings, report.files_compared, report.perf_note.as_deref())
    );
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
        let r = diff_dirs(&d, &d, DiffOptions::default());
        assert!(r.findings.is_empty());
        assert_eq!(r.files_compared, 1);
        assert!(r.perf_checked);
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
        let r = diff_dirs(&old, &new, DiffOptions::default());
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].kind, FindingKind::Drift);
        assert_eq!(r.findings[0].file, "PROFILE_gtc.json");
        assert_eq!(r.findings[0].path, "profile.flops");
    }

    #[test]
    fn profile_timing_spans_are_tolerated() {
        let mk = |ns: f64| {
            dir_of(&[(
                "PROFILE_gtc.json",
                doc("h", &[("timing", Json::obj([("total_ns", Json::Num(ns))]))]),
            )])
        };
        let r = diff_dirs(&mk(1.0), &mk(9e9), DiffOptions::default());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn throughput_regression_beyond_threshold_fails() {
        let mk = |rps: f64| {
            dir_of(&[("BENCH_serve.json", doc("h", &[("throughput_rps", Json::Num(rps))]))])
        };
        let r = diff_dirs(&mk(1000.0), &mk(800.0), DiffOptions::default());
        assert_eq!(r.findings.len(), 1, "20% drop beats the 15% default");
        assert_eq!(r.findings[0].kind, FindingKind::Regression);
        assert_eq!(r.findings[0].path, "throughput_rps");
        // Inside the tolerance, or with a looser threshold: clean.
        assert!(diff_dirs(&mk(1000.0), &mk(900.0), DiffOptions::default()).findings.is_empty());
        assert!(diff_dirs(&mk(1000.0), &mk(800.0), DiffOptions { threshold: 0.3 })
            .findings
            .is_empty());
        // Improvements never fail.
        assert!(diff_dirs(&mk(1000.0), &mk(5000.0), DiffOptions::default()).findings.is_empty());
    }

    #[test]
    fn latency_regressions_point_the_other_way() {
        let mk = |p99: f64| {
            dir_of(&[(
                "BENCH_serve.json",
                doc("h", &[("latency_us", Json::obj([("p99", Json::Num(p99))]))]),
            )])
        };
        assert_eq!(diff_dirs(&mk(100.0), &mk(200.0), DiffOptions::default()).findings.len(), 1);
        assert!(diff_dirs(&mk(200.0), &mk(100.0), DiffOptions::default()).findings.is_empty());
    }

    #[test]
    fn open_loop_provenance_fields_gate_exactly() {
        // A baseline recorded open-loop must be compared open-loop, at
        // the same offered rate and seed — any drift is a finding even
        // between different hosts (they are Exact, not Perf).
        let mk = |open: bool, rate: f64, seed: f64, leak: f64| {
            dir_of(&[(
                "BENCH_serve.json",
                doc(
                    "h",
                    &[
                        ("open_loop", Json::Bool(open)),
                        ("rate_offered_rps", Json::Num(rate)),
                        ("seed", Json::Num(seed)),
                        ("connections_open_after_drain", Json::Num(leak)),
                    ],
                ),
            )])
        };
        let base = mk(true, 400.0, 5.0, 0.0);
        assert!(diff_dirs(&base, &base, DiffOptions::default()).findings.is_empty());
        for (label, other) in [
            ("methodology flip", mk(false, 400.0, 5.0, 0.0)),
            ("offered rate", mk(true, 300.0, 5.0, 0.0)),
            ("schedule seed", mk(true, 400.0, 6.0, 0.0)),
            ("connection leak", mk(true, 400.0, 5.0, 2.0)),
        ] {
            let r = diff_dirs(&base, &other, DiffOptions::default());
            assert_eq!(r.findings.len(), 1, "{label} must be a finding");
            assert_eq!(r.findings[0].kind, FindingKind::Drift, "{label}");
        }
    }

    #[test]
    fn achieved_rate_shortfall_gates_like_a_throughput_drop() {
        let mk = |rps: f64| {
            dir_of(&[("BENCH_serve.json", doc("h", &[("rate_achieved_rps", Json::Num(rps))]))])
        };
        let r = diff_dirs(&mk(400.0), &mk(300.0), DiffOptions::default());
        assert_eq!(r.findings.len(), 1, "25% shortfall beats the 15% default");
        assert_eq!(r.findings[0].kind, FindingKind::Regression);
        assert_eq!(r.findings[0].path, "rate_achieved_rps");
        assert!(diff_dirs(&mk(400.0), &mk(390.0), DiffOptions::default()).findings.is_empty());
        assert!(diff_dirs(&mk(400.0), &mk(500.0), DiffOptions::default()).findings.is_empty());
    }

    #[test]
    fn perf_fields_are_skipped_between_different_hosts() {
        let old =
            dir_of(&[("BENCH_serve.json", doc("hostA", &[("throughput_rps", Json::Num(1000.0))]))]);
        let new =
            dir_of(&[("BENCH_serve.json", doc("hostB", &[("throughput_rps", Json::Num(1.0))]))]);
        let r = diff_dirs(&old, &new, DiffOptions::default());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert!(!r.perf_checked);
        assert!(r.perf_note.unwrap().contains("not comparable"));
    }

    #[test]
    fn exact_fields_still_gate_between_different_hosts() {
        let old = dir_of(&[("TABLE_gtc.json", doc("hostA", &[("rows", Json::Num(1.0))]))]);
        let new = dir_of(&[("TABLE_gtc.json", doc("hostB", &[("rows", Json::Num(2.0))]))]);
        assert_eq!(diff_dirs(&old, &new, DiffOptions::default()).findings.len(), 1);
    }

    #[test]
    fn missing_and_extra_artifacts_are_findings() {
        let both =
            dir_of(&[("TABLE_gtc.json", doc("h", &[])), ("TABLE_fvcam.json", doc("h", &[]))]);
        let only_one = dir_of(&[("TABLE_gtc.json", doc("h", &[]))]);
        let r = diff_dirs(&both, &only_one, DiffOptions::default());
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].kind, FindingKind::Missing);
        assert_eq!(r.findings[0].file, "TABLE_fvcam.json");
        let r = diff_dirs(&only_one, &both, DiffOptions::default());
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].kind, FindingKind::Extra);
    }

    #[test]
    fn bench_samples_match_by_name_not_position() {
        let s = |name: &str, tput: f64| {
            Json::obj([
                ("name", Json::Str(name.to_string())),
                ("throughput_per_sec", Json::Num(tput)),
            ])
        };
        let old = dir_of(&[(
            "BENCH_kernels.json",
            doc("h", &[("samples", Json::Arr(vec![s("a", 10.0), s("b", 20.0)]))]),
        )]);
        // Reordered but equal: clean.
        let new = dir_of(&[(
            "BENCH_kernels.json",
            doc("h", &[("samples", Json::Arr(vec![s("b", 20.0), s("a", 10.0)]))]),
        )]);
        assert!(diff_dirs(&old, &new, DiffOptions::default()).findings.is_empty());
        // A sample disappearing is a named finding.
        let dropped = dir_of(&[(
            "BENCH_kernels.json",
            doc("h", &[("samples", Json::Arr(vec![s("b", 20.0)]))]),
        )]);
        let r = diff_dirs(&old, &dropped, DiffOptions::default());
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].kind, FindingKind::Missing);
        assert!(r.findings[0].path.contains("[a]"), "{}", r.findings[0].path);
    }

    #[test]
    fn gflops_regressions_gate_like_throughput() {
        let mk = |g: f64| {
            dir_of(&[(
                "BENCH_kernels.json",
                doc(
                    "h",
                    &[(
                        "samples",
                        Json::Arr(vec![Json::obj([
                            ("name", Json::Str("gemm/dgemm_128/t1".into())),
                            ("gflops", Json::Num(g)),
                        ])]),
                    )],
                ),
            )])
        };
        let r = diff_dirs(&mk(14.0), &mk(10.0), DiffOptions::default());
        assert_eq!(r.findings.len(), 1, "29% Gflop/s drop beats the 15% default");
        assert_eq!(r.findings[0].kind, FindingKind::Regression);
        assert!(r.findings[0].path.contains("gflops"), "{}", r.findings[0].path);
        // Noise inside the tolerance and improvements stay clean.
        assert!(diff_dirs(&mk(14.0), &mk(13.0), DiffOptions::default()).findings.is_empty());
        assert!(diff_dirs(&mk(14.0), &mk(20.0), DiffOptions::default()).findings.is_empty());
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
        let r = diff_dirs(
            &dir_of(&[("TABLE_gtc.json", old)]),
            &dir_of(&[("TABLE_gtc.json", new)]),
            DiffOptions::default(),
        );
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].path, "meta.config_hash");
    }
}
