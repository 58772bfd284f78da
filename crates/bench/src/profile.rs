//! Structured per-phase profiles from measured captures, the
//! `PROFILE_<app>.json` artifacts of `repro all`.
//!
//! Runs every application's calibration capture (the same captures the
//! measured Table 3–6 path consumes), derives a representative measured
//! workload profile from each, and writes one `PROFILE_<app>.json` per
//! application. Each file carries the raw capture — per-phase
//! hardware-style counters — and the derived per-processor workload, so
//! profile changes can be diffed across commits (`repro diff`: every
//! field exact).

use hec_arch::WorkloadProfile;
use hec_core::json::{Json, ToJson};
use hec_core::probe::Capture;

/// One application's profile artifact.
pub struct AppProfile {
    /// Application name as the tables spell it.
    pub app: &'static str,
    /// The owning crate's stable artifact tag (`PROFILE_<tag>.json`).
    pub tag: &'static str,
    /// The production configuration the workload was rescaled to.
    pub config: String,
    /// Named calibration captures (PARATEC has two; the rest one).
    pub captures: Vec<(&'static str, Capture)>,
    /// The measured per-processor workload derived from the captures.
    pub workload: WorkloadProfile,
}

impl ToJson for AppProfile {
    fn to_json(&self) -> Json {
        Json::obj([
            ("app", Json::Str(self.app.to_string())),
            ("config", Json::Str(self.config.clone())),
            (
                "captures",
                Json::Arr(
                    self.captures
                        .iter()
                        .map(|(name, cap)| {
                            Json::obj([
                                ("name", Json::Str(name.to_string())),
                                ("capture", cap.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("workload", self.workload.to_json()),
        ])
    }
}

/// Collects all four applications' profiles at a representative Table
/// 3–6 operating point (P = 256 everywhere it is feasible).
pub fn collect() -> Vec<AppProfile> {
    let mut out = Vec::new();

    out.push(AppProfile {
        app: "GTC",
        tag: gtc::ARTIFACT_TAG,
        config: "P=256, 100 particles/cell".into(),
        captures: vec![("calibration", gtc::model::calibration_capture().clone())],
        workload: gtc::model::measured_workload(256),
    });

    out.push(AppProfile {
        app: "LBMHD3D",
        tag: lbmhd::ARTIFACT_TAG,
        config: "P=256, 512^3 grid".into(),
        captures: vec![("calibration", lbmhd::model::calibration_capture().clone())],
        workload: lbmhd::model::measured_workload(512, 256),
    });

    {
        use fvcam::model::FvConfig;
        let base = FvConfig { procs: 256, pz: 4, threads: 1 };
        let workload = fvcam::model::measured_workload(base)
            .or_else(|| fvcam::model::measured_workload(FvConfig { threads: 4, ..base }))
            .expect("FVCAM P=256 Pz=4 must be feasible with 1 or 4 threads");
        out.push(AppProfile {
            app: "FVCAM",
            tag: fvcam::ARTIFACT_TAG,
            config: "P=256, 2D Pz=4, D mesh".into(),
            captures: vec![("calibration", fvcam::model::calibration_capture().clone())],
            workload,
        });
    }

    {
        let cal = paratec::model::calibration();
        out.push(AppProfile {
            app: "PARATEC",
            tag: paratec::ARTIFACT_TAG,
            config: "P=256, 488-atom CdSe".into(),
            captures: vec![("fft", cal.fft.clone()), ("gemm", cal.gemm.clone())],
            workload: paratec::model::measured_workload(256),
        });
    }

    out
}

/// The artifact file name for one profile, keyed by the owning crate's
/// stable tag.
pub fn file_name(p: &AppProfile) -> String {
    format!("PROFILE_{}.json", p.tag)
}

/// Runs the captures, prints a per-phase summary, and writes one
/// `PROFILE_<tag>.json` per application through `w`.
pub fn run_into(w: &crate::artifact::Writer) {
    for p in collect() {
        println!("== {} ({}) ==", p.app, p.config);
        for (name, cap) in &p.captures {
            for (phase, c) in &cap.counters {
                println!(
                    "  {name:<12} {phase:<28} {:>14} flops  {:>14} B unit-stride",
                    c.flops,
                    c.unit_stride_bytes + c.gather_scatter_bytes,
                );
            }
        }
        println!("  derived workload ({} phases):", p.workload.phases.len());
        for ph in &p.workload.phases {
            println!("    {:<28} {:>14.3e} flops/proc/step", ph.name, ph.flops);
        }
        let name = file_name(&p);
        // The committed baseline's bytes carry this source label.
        let payload = [("source", Json::Str("repro profile".into())), ("profile", p.to_json())];
        if let Err(e) = w.write(&name, payload) {
            eprintln!("warning: could not write {name}: {e}");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_app_profile_round_trips_through_json() {
        for p in collect() {
            let text = p.to_json().emit_pretty();
            let parsed = Json::parse(&text).unwrap();
            assert_eq!(parsed.field("app").unwrap().as_str().unwrap(), p.app);
            // Every capture is embedded, under its name; the capture bytes
            // themselves are pinned by tests/repro_diff.rs.
            let Json::Arr(caps) = parsed.field("captures").unwrap() else { panic!() };
            assert_eq!(caps.len(), p.captures.len());
            for (j, (name, _)) in caps.iter().zip(&p.captures) {
                assert_eq!(j.str_field("name").unwrap(), *name);
            }
            // The workload is non-trivial: every phase carries real work.
            assert!(!p.workload.phases.is_empty());
            for ph in &p.workload.phases {
                assert!(ph.flops > 0.0, "{}: {}", p.app, ph.name);
            }
        }
    }
}
