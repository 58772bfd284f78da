//! Artifact directory I/O for the reproduction pipeline.
//!
//! `repro all` writes every artifact — `TABLE_<app>.json`,
//! `CANON_eval.json`, `PROFILE_<app>.json` — through one [`Writer`],
//! which stamps each file with the same [`Meta`] block: git commit,
//! `HEC_THREADS`, host fingerprint, platform set and a config hash. The
//! stamp is what makes a directory of results comparable later (the
//! Sumatra argument: a number without its provenance cannot be trusted
//! across commits): `repro diff` holds its schema version and config
//! hash exact, and the rest says where and when the run was taken.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use hec_core::json::Json;
use hec_core::pool::Threads;
use hec_serve::engine::AppId;

/// Version of the artifact schema; bumped on incompatible layout
/// changes so `repro diff` refuses to compare across schemas.
pub const SCHEMA_VERSION: f64 = 1.0;

/// The stable artifact-file tag for an application (`TABLE_<tag>.json`,
/// `PROFILE_<tag>.json`): each app crate owns its tag so the naming
/// cannot drift per call site.
pub fn app_tag(app: AppId) -> &'static str {
    match app {
        AppId::Fvcam => fvcam::ARTIFACT_TAG,
        AppId::Gtc => gtc::ARTIFACT_TAG,
        AppId::Lbmhd => lbmhd::ARTIFACT_TAG,
        AppId::Paratec => paratec::ARTIFACT_TAG,
    }
}

/// The canonical `/eval` query strings: every app across several
/// platforms at table-sized concurrencies. This list is part of the
/// reproducibility contract — `repro all` snapshots each query's exact
/// response bytes into `CANON_eval.json`, and the list feeds the
/// `config_hash` stamped into artifact metadata, so changing it
/// deliberately invalidates old baselines.
pub(crate) fn eval_queries() -> Vec<String> {
    let mut qs = Vec::new();
    for (app, extra) in [("gtc", ""), ("lbmhd", "&n=512"), ("paratec", ""), ("fvcam", "&pz=4")] {
        for platform in ["power3", "x1msp", "es", "sx8"] {
            qs.push(format!("app={app}&platform={platform}&procs=256{extra}"));
        }
    }
    qs.push("app=gtc&platform=4ssp&procs=512".to_string());
    qs.push("app=lbmhd&platform=opteron&procs=1024&n=1024".to_string());
    qs
}

/// The metadata block stamped into every artifact.
#[derive(Clone, Debug)]
pub struct Meta {
    /// Abbreviated `git rev-parse HEAD`, or `"unknown"` outside a repo.
    pub git_commit: String,
    /// Resolved shared-memory worker count (`HEC_THREADS` policy).
    pub hec_threads: usize,
    /// Host fingerprint (`os-arch-Ncpu`): where the run was taken.
    pub host: String,
    /// Platform set the tables cover (paper display labels).
    pub platforms: Vec<String>,
    /// Application artifact tags, in the paper's order.
    pub apps: Vec<String>,
    /// Hash of the deterministic run configuration (schema version,
    /// apps, platforms, canonical eval workload) — equal hashes mean
    /// the exact-deterministic fields are directly comparable.
    pub config_hash: String,
    /// Wall-clock creation time (unix seconds; never compared).
    pub created_unix: f64,
}

impl Meta {
    /// Collects the metadata for a run started now.
    pub fn collect() -> Meta {
        let platforms: Vec<String> = AppId::ALL
            .iter()
            .flat_map(|&app| crate::render::labelled_columns(app))
            .map(|(_, label)| label.to_string())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let apps: Vec<String> = AppId::ALL.iter().map(|&a| app_tag(a).to_string()).collect();
        let mut config = format!("schema={SCHEMA_VERSION}");
        for a in &apps {
            config.push_str(&format!("|app={a}"));
        }
        for p in &platforms {
            config.push_str(&format!("|platform={p}"));
        }
        for q in eval_queries() {
            config.push_str(&format!("|eval={q}"));
        }
        let config_hash = format!("{:016x}", hec_cluster::stable_hash(config.as_bytes()));
        Meta {
            git_commit: git_commit(),
            hec_threads: Threads::from_env().workers(),
            host: host_fingerprint(),
            platforms,
            apps,
            config_hash,
            created_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs() as f64)
                .unwrap_or(0.0),
        }
    }

    /// The JSON form of the stamp.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::Num(SCHEMA_VERSION)),
            ("git_commit", Json::Str(self.git_commit.clone())),
            ("hec_threads", Json::Num(self.hec_threads as f64)),
            ("host", Json::Str(self.host.clone())),
            ("platforms", Json::Arr(self.platforms.iter().cloned().map(Json::Str).collect())),
            ("apps", Json::Arr(self.apps.iter().cloned().map(Json::Str).collect())),
            ("config_hash", Json::Str(self.config_hash.clone())),
            ("created_unix", Json::Num(self.created_unix)),
        ])
    }
}

/// `git rev-parse --short=12 HEAD`, or `"unknown"` when git (or the
/// repository) is unavailable — artifacts must still be writable from a
/// tarball checkout.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `os-arch-Ncpu`. Provenance only: directories from different
/// fingerprints diff their exact-deterministic fields all the same.
pub fn host_fingerprint() -> String {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    format!("{}-{}-{}cpu", std::env::consts::OS, std::env::consts::ARCH, cpus)
}

/// Writes metadata-stamped artifacts into one directory.
pub struct Writer {
    dir: PathBuf,
    meta: Json,
}

impl Writer {
    /// A writer into `dir` (created if absent) stamping `meta`.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn new(dir: impl Into<PathBuf>, meta: &Meta) -> io::Result<Writer> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Writer { dir, meta: meta.to_json() })
    }

    /// Writes `{"meta": …, payload…}` to `<dir>/<name>` (pretty JSON)
    /// and prints the path. Returns the full path.
    ///
    /// # Errors
    /// Propagates the underlying write failure.
    pub fn write(
        &self,
        name: &str,
        payload: impl IntoIterator<Item = (&'static str, Json)>,
    ) -> io::Result<PathBuf> {
        let mut fields = vec![("meta".to_string(), self.meta.clone())];
        fields.extend(payload.into_iter().map(|(k, v)| (k.to_string(), v)));
        let path = self.dir.join(name);
        std::fs::write(&path, Json::Obj(fields).emit_pretty())?;
        println!("wrote {}", path.display());
        Ok(path)
    }
}

/// Loads every `*.json` artifact in `dir`, keyed by file name.
///
/// # Errors
/// Returns a readable message when the directory is unreadable, a file
/// fails to parse, or the directory holds no artifacts at all.
pub fn load_dir(dir: &Path) -> Result<BTreeMap<String, Json>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut out = BTreeMap::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let path = entry.path();
        if !path.is_file() || path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc =
            Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
        out.insert(name, doc);
    }
    if out.is_empty() {
        return Err(format!("{} holds no *.json artifacts", dir.display()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hec-artifact-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn writer_stamps_meta_and_loader_reads_it_back() {
        let dir = tmpdir("rt");
        let meta = Meta::collect();
        let w = Writer::new(&dir, &meta).unwrap();
        w.write("TABLE_demo.json", [("rows", Json::Arr(vec![Json::Num(1.0)]))]).unwrap();
        let docs = load_dir(&dir).unwrap();
        let doc = &docs["TABLE_demo.json"];
        let m = doc.field("meta").unwrap();
        assert_eq!(m.num_field("schema_version").unwrap(), SCHEMA_VERSION);
        assert_eq!(m.str_field("config_hash").unwrap(), meta.config_hash);
        assert!(m.num_field("hec_threads").unwrap() >= 1.0);
        assert!(!m.str_field("host").unwrap().is_empty());
        assert_eq!(doc.get("rows").unwrap().as_arr().unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_hash_is_pinned_to_the_committed_baseline() {
        // The hash covers schema, apps, platforms and `eval_queries()`:
        // moving any of them must be a deliberate baseline regeneration.
        assert_eq!(Meta::collect().config_hash, "5301551bda966e64");
    }

    #[test]
    fn app_tags_are_the_crate_constants() {
        assert_eq!(app_tag(AppId::Fvcam), "fvcam");
        assert_eq!(app_tag(AppId::Gtc), "gtc");
        assert_eq!(app_tag(AppId::Lbmhd), "lbmhd3d");
        assert_eq!(app_tag(AppId::Paratec), "paratec");
    }

    #[test]
    fn load_dir_rejects_missing_and_empty_directories() {
        assert!(load_dir(Path::new("/nonexistent/xyzzy")).is_err());
        let dir = tmpdir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_dir(&dir).unwrap_err().contains("no *.json"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
