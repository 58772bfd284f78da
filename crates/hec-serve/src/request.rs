//! Request canonicalization: every spelling of an evaluation request —
//! query string or JSON body, platform label or folded alias, fields in
//! any order — collapses to one [`Point`], and the point's
//! [`Point::canonical_key`] is the cache key. Canonicalizing *before*
//! the cache is what lets overlapping sweeps and differently-spelled
//! single-point requests share work (DESIGN §8).

use crate::engine::{self, AppId, Cell, PlatformSel, PointSpec};
use hec_core::json::Json;

/// Upper bound on `procs` a request may ask for; the paper's largest
/// configuration is 32 768-way. The models are closed form, and the
/// costliest point under this bound is an LBMHD one at a divisor-rich
/// `procs`, since LBMHD factors it: about 10 µs per evaluation at
/// `procs` = 720 720 (release build, measured), against ≤ 3 µs for the
/// other three apps at any `procs`.
pub const MAX_PROCS: usize = 1 << 20;
/// Upper bound on LBMHD's grid edge (the paper tops out at 1024³).
pub const MAX_GRID_N: usize = 1 << 14;
/// Upper bound on FVCAM's vertical decomposition (26 levels exist).
pub const MAX_PZ: usize = 64;

/// One canonical evaluation point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Point {
    /// The application.
    pub app: AppId,
    /// The platform (or 4-SSP aggregate) selector.
    pub sel: PlatformSel,
    /// Concurrency / problem-size coordinates.
    pub spec: PointSpec,
}

/// A malformed or out-of-range request (HTTP 400).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BadRequest(pub String);

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BadRequest {}

fn bad(msg: impl Into<String>) -> BadRequest {
    BadRequest(msg.into())
}

/// Percent-decodes one URL component (`%41` → `A`, `+` → space).
/// Malformed escapes are passed through literally rather than rejected —
/// the field parser downstream gives the better error.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    let h = std::str::from_utf8(h).ok()?;
                    u8::from_str_radix(h, 16).ok()
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a query string into decoded `(key, value)` pairs.
pub fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (percent_decode(k), percent_decode(v))
        })
        .collect()
}

/// Raw request fields before canonicalization, source-agnostic: filled
/// from a query string or from a JSON body.
#[derive(Clone, Debug, Default)]
pub struct RawFields {
    /// `app` field.
    pub app: Option<String>,
    /// `platform` field.
    pub platform: Option<String>,
    /// `procs` field.
    pub procs: Option<f64>,
    /// `pz` field (FVCAM).
    pub pz: Option<f64>,
    /// `n` field (LBMHD).
    pub n: Option<f64>,
}

impl RawFields {
    /// Extracts the known fields from decoded query pairs. Unknown keys
    /// are rejected so typos fail loudly instead of evaluating defaults.
    pub fn from_query(query: &str) -> Result<RawFields, BadRequest> {
        let mut raw = RawFields::default();
        for (k, v) in parse_query(query) {
            let num = || {
                v.trim()
                    .parse::<f64>()
                    .map_err(|_| bad(format!("field '{k}' must be a number, got '{v}'")))
            };
            match k.as_str() {
                "app" => raw.app = Some(v),
                "platform" => raw.platform = Some(v),
                "procs" => raw.procs = Some(num()?),
                "pz" => raw.pz = Some(num()?),
                "n" => raw.n = Some(num()?),
                other => return Err(bad(format!("unknown field '{other}'"))),
            }
        }
        Ok(raw)
    }

    /// Extracts the known fields from a parsed JSON object body.
    pub fn from_json(v: &Json) -> Result<RawFields, BadRequest> {
        let Json::Obj(fields) = v else {
            return Err(bad("request body must be a JSON object"));
        };
        let mut raw = RawFields::default();
        for (k, v) in fields {
            let num = || v.as_f64().ok_or_else(|| bad(format!("field '{k}' must be a number")));
            let text = || {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| bad(format!("field '{k}' must be a string")))
            };
            match k.as_str() {
                "app" => raw.app = Some(text()?),
                "platform" => raw.platform = Some(text()?),
                "procs" => raw.procs = Some(num()?),
                "pz" => raw.pz = Some(num()?),
                "n" => raw.n = Some(num()?),
                other => return Err(bad(format!("unknown field '{other}'"))),
            }
        }
        Ok(raw)
    }
}

fn int_field(name: &str, v: f64, max: usize) -> Result<usize, BadRequest> {
    if !v.is_finite() || v.fract() != 0.0 || v < 1.0 {
        return Err(bad(format!("field '{name}' must be a positive integer, got {v}")));
    }
    if v > max as f64 {
        return Err(bad(format!("field '{name}' must be at most {max}, got {v}")));
    }
    Ok(v as usize)
}

impl Point {
    /// Canonicalizes raw fields into a point: parses app/platform names
    /// (aliases fold to one spelling), checks integer ranges, rejects
    /// extras that don't belong to the app, and fills LBMHD's paper grid
    /// size when `n` is omitted at a Table 5 concurrency.
    pub fn canonicalize(raw: &RawFields) -> Result<Point, BadRequest> {
        let app_name = raw.app.as_deref().ok_or_else(|| bad("missing field 'app'"))?;
        let app = AppId::parse(app_name)
            .ok_or_else(|| bad(format!("unknown app '{app_name}' (fvcam|gtc|lbmhd|paratec)")))?;
        let plat_name = raw.platform.as_deref().ok_or_else(|| bad("missing field 'platform'"))?;
        let sel = PlatformSel::parse(plat_name)
            .ok_or_else(|| bad(format!("unknown platform '{plat_name}'")))?;
        let procs =
            int_field("procs", raw.procs.ok_or_else(|| bad("missing field 'procs'"))?, MAX_PROCS)?;
        let mut pz = None;
        let mut n = None;
        match app {
            AppId::Fvcam => {
                pz = Some(match raw.pz {
                    Some(v) => int_field("pz", v, MAX_PZ)?,
                    None => 1,
                });
                if raw.n.is_some() {
                    return Err(bad("field 'n' does not apply to fvcam"));
                }
            }
            AppId::Lbmhd => {
                if raw.pz.is_some() {
                    return Err(bad("field 'pz' does not apply to lbmhd"));
                }
                n = Some(match raw.n {
                    Some(v) => int_field("n", v, MAX_GRID_N)?,
                    None => lbmhd::model::TABLE5_CONFIGS
                        .iter()
                        .find(|(p, _)| *p == procs)
                        .map(|&(_, n)| n)
                        .ok_or_else(|| {
                            bad(format!("field 'n' is required for lbmhd at procs={procs}"))
                        })?,
                });
            }
            AppId::Gtc | AppId::Paratec => {
                if raw.pz.is_some() {
                    return Err(bad(format!("field 'pz' does not apply to {}", app.name())));
                }
                if raw.n.is_some() {
                    return Err(bad(format!("field 'n' does not apply to {}", app.name())));
                }
            }
        }
        Ok(Point { app, sel, spec: PointSpec { procs, pz, n } })
    }

    /// Parses a point from an `/eval` query string.
    pub fn from_query(query: &str) -> Result<Point, BadRequest> {
        Point::canonicalize(&RawFields::from_query(query)?)
    }

    /// Parses a point from an `/eval` JSON body.
    pub fn from_json_text(body: &str) -> Result<Point, BadRequest> {
        let v = Json::parse(body).map_err(|e| bad(format!("bad JSON body: {e}")))?;
        Point::canonicalize(&RawFields::from_json(&v)?)
    }

    /// The canonical cache key: fixed field order, canonical tokens,
    /// optional fields present exactly when the app defines them.
    pub fn canonical_key(&self) -> String {
        let mut key = format!("{}|{}|procs={}", self.app.name(), self.sel.token(), self.spec.procs);
        if let Some(pz) = self.spec.pz {
            key.push_str(&format!("|pz={pz}"));
        }
        if let Some(n) = self.spec.n {
            key.push_str(&format!("|n={n}"));
        }
        key
    }

    /// Evaluates the point, containing model panics (a concurrency the
    /// app's decomposition arithmetic rejects) as infeasibility rather
    /// than a worker crash.
    pub fn eval(&self) -> Option<Cell> {
        let p = *self;
        std::panic::catch_unwind(|| engine::eval_cell(p.app, p.sel, &p.spec)).unwrap_or(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hec_arch::PlatformId;

    #[test]
    fn spellings_collapse_to_one_canonical_key() {
        let a = Point::from_query("app=gtc&platform=x1msp&procs=256").unwrap();
        let b = Point::from_query("procs=256&platform=X1%20%28MSP%29&app=GTC").unwrap();
        let c =
            Point::from_json_text(r#"{"app":"gtc","platform":"X1 (MSP)","procs":256}"#).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.canonical_key(), "gtc|x1msp|procs=256");
    }

    #[test]
    fn per_app_extras_are_enforced() {
        // fvcam defaults pz to 1; lbmhd fills the paper grid size.
        let f = Point::from_query("app=fvcam&platform=es&procs=64").unwrap();
        assert_eq!(f.spec.pz, Some(1));
        let l = Point::from_query("app=lbmhd&platform=es&procs=64").unwrap();
        assert_eq!(l.spec.n, Some(256));
        assert!(Point::from_query("app=lbmhd&platform=es&procs=96").is_err());
        assert!(Point::from_query("app=gtc&platform=es&procs=64&n=256").is_err());
        assert!(Point::from_query("app=paratec&platform=es&procs=64&pz=4").is_err());
        assert!(Point::from_query("app=fvcam&platform=es&procs=64&n=9").is_err());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for q in [
            "",
            "app=gtc",
            "app=gtc&platform=es",
            "app=gtc&platform=es&procs=0",
            "app=gtc&platform=es&procs=-4",
            "app=gtc&platform=es&procs=2.5",
            "app=gtc&platform=es&procs=1e30",
            "app=gtc&platform=es&procs=abc",
            "app=gtc&platform=t3e&procs=64",
            "app=qcd&platform=es&procs=64",
            "app=gtc&platform=es&procs=64&bogus=1",
        ] {
            assert!(Point::from_query(q).is_err(), "accepted: {q}");
        }
        assert!(Point::from_json_text("[1,2]").is_err());
        assert!(Point::from_json_text("{\"app\":3}").is_err());
        assert!(Point::from_json_text("not json").is_err());
    }

    #[test]
    fn eval_contains_model_panics() {
        // A degenerate concurrency must come back as infeasible, not
        // unwind the worker.
        let p = Point {
            app: AppId::Gtc,
            sel: PlatformSel::Direct(PlatformId::Es),
            spec: crate::engine::PointSpec::procs(7),
        };
        let _ = p.eval(); // Some or None both fine — just must not panic.
    }

    #[test]
    fn the_largest_concurrencies_evaluate_to_finite_cells() {
        // 720 720 is the most divisor-rich `procs` under the bound.
        let mut sels: Vec<PlatformSel> =
            PlatformId::ALL.into_iter().map(PlatformSel::Direct).collect();
        sels.push(PlatformSel::Agg4Ssp);
        for procs in [720_720, MAX_PROCS] {
            for app in AppId::ALL {
                let spec = PointSpec {
                    procs,
                    pz: (app == AppId::Fvcam).then_some(1),
                    n: (app == AppId::Lbmhd).then_some(1024),
                };
                for &sel in &sels {
                    let cell = engine::eval_cell(app, sel, &spec);
                    if app == AppId::Fvcam {
                        // Under 3 latitude rows per rank on any split.
                        assert!(cell.is_none(), "{app:?} {sel:?} procs={procs}");
                        continue;
                    }
                    let c = cell.unwrap_or_else(|| panic!("{app:?} {sel:?} procs={procs}"));
                    assert!(
                        c.gflops.is_finite() && c.pct_peak.is_finite() && c.step_secs.is_finite(),
                        "{app:?} {sel:?} procs={procs}: {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn percent_decoding_handles_escapes() {
        assert_eq!(percent_decode("X1%20%28MSP%29"), "X1 (MSP)");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }
}
