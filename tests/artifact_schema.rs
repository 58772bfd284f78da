//! `hec_core::json` round-trip coverage over every artifact schema
//! `repro all` emits.
//!
//! The diff gate compares parsed values, but the canonical-bytes
//! contract (CANON_eval.json) and the committed baseline both depend on
//! the JSON layer being a fixed point: parse → emit → parse must
//! reproduce the same document, and emit must be deterministic. The
//! committed `baseline/` directory supplies one real instance of every
//! schema (TABLE_*, CANON_*, PROFILE_*), so this test covers
//! exactly what the pipeline writes, not a synthetic approximation.

use hec_core::json::Json;

fn baseline_files() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = std::fs::read_dir("baseline")
        .expect("committed baseline/ must exist")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read_to_string(&p).unwrap(),
            )
        })
        .collect();
    out.sort();
    let names: Vec<&str> = out.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        [
            "CANON_eval.json",
            "PROFILE_fvcam.json",
            "PROFILE_gtc.json",
            "PROFILE_lbmhd3d.json",
            "PROFILE_paratec.json",
            "TABLE_fvcam.json",
            "TABLE_gtc.json",
            "TABLE_lbmhd3d.json",
            "TABLE_paratec.json",
        ],
        "baseline/ holds exactly the artifacts `repro all` writes"
    );
    out
}

#[test]
fn every_artifact_schema_round_trips_exactly() {
    for (name, text) in baseline_files() {
        let first = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let emitted = first.emit();
        let second = Json::parse(&emitted).unwrap_or_else(|e| panic!("{name} re-parse: {e}"));
        assert_eq!(first, second, "{name}: parse → emit → parse drifted");
        // Emit is a fixed point from the first round on: the bytes the
        // baseline stores and the bytes a re-emit produces agree.
        assert_eq!(emitted, second.emit(), "{name}: emit is not deterministic");
        // Pretty form parses back to the same document too.
        assert_eq!(first, Json::parse(&first.emit_pretty()).unwrap(), "{name}: pretty drifted");
    }
}

#[test]
fn every_artifact_keeps_key_order_and_meta_first() {
    // The artifact writer puts the meta stamp first; order preservation
    // is what makes the emitted files stable enough to diff as text.
    for (name, text) in baseline_files() {
        let doc = Json::parse(&text).unwrap();
        let Json::Obj(fields) = &doc else { panic!("{name}: root must be an object") };
        assert_eq!(fields[0].0, "meta", "{name}: meta stamp must lead the document");
    }
}

#[test]
fn embedded_response_bodies_are_themselves_canonical_json() {
    // CANON_eval.json snapshots response *bytes*; each body must parse
    // and re-emit to the identical string, or the byte contract could
    // never survive a round trip through the artifact layer.
    let text = std::fs::read_to_string("baseline/CANON_eval.json").unwrap();
    let doc = Json::parse(&text).unwrap();
    let responses = doc.get("responses").and_then(|r| r.as_arr()).expect("responses array");
    assert!(!responses.is_empty());
    for r in responses {
        let query = r.str_field("query").unwrap();
        let body = r.str_field("body").unwrap();
        let parsed = Json::parse(body).unwrap_or_else(|e| panic!("{query}: {e}"));
        assert_eq!(body, parsed.emit_pretty(), "{query}: body is not in canonical form");
    }
}

#[test]
fn depth_and_non_finite_rejections_still_hold() {
    // Guardrails the artifact reader depends on: deeply nested and
    // non-finite inputs are rejected, not silently mangled.
    let mut deep = String::new();
    for _ in 0..200 {
        deep.push('[');
    }
    for _ in 0..200 {
        deep.push(']');
    }
    assert!(Json::parse(&deep).is_err(), "200-deep nesting must exceed MAX_PARSE_DEPTH");
    for bad in ["NaN", "Infinity", "-Infinity", "{\"x\": NaN}", "[1e999]"] {
        assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
    }
}
