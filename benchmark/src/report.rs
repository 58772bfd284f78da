//! What one run of one workload reports, and how it is printed: a
//! name/value/unit table for people, then — as the last line of standard
//! output — the one JSON object the driver reads.

use crate::spec::{Workload, END_TO_END, PER_LAYER};

/// The result of one run of one workload.
pub struct RunOutput {
    /// The workload.
    pub workload: Workload,
    /// Whether the traced (`per_layer`) or untraced (`end_to_end`) metric
    /// set is reported.
    pub traced: bool,
    /// Operations attempted (requests, or solver steps).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// `(name, value)`; every name of the reported set exactly once.
    pub metrics: Vec<(&'static str, f64)>,
    /// Free-form lines for the table: validity flags, first failure, sizes.
    pub notes: Vec<String>,
}

impl RunOutput {
    /// True when nothing failed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    fn unit_of(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .find(|(n, _)| *n == name)
            .map(|(_, u)| u)
            .expect("a reported metric is in one of the tables")
    }

    /// Orders the metrics as the tables list them and checks that the set
    /// is exactly the reported table — a missing or stray name is a bug in
    /// the benchmark, not a measurement.
    pub fn finish(mut self) -> RunOutput {
        let names: Vec<&'static str> = if self.traced {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let mut ordered = Vec::with_capacity(names.len());
        for name in &names {
            let hits: Vec<f64> =
                self.metrics.iter().filter(|(n, _)| n == name).map(|(_, v)| *v).collect();
            assert_eq!(
                hits.len(),
                1,
                "{name} reported {} times on {}",
                hits.len(),
                self.workload.name()
            );
            ordered.push((*name, hits[0]));
        }
        assert_eq!(ordered.len(), self.metrics.len(), "a metric outside the table was reported");
        self.metrics = ordered;
        self
    }

    /// A traced run's result from the rows its layers measured: a layer this
    /// workload bypasses reads 0; a layer it exercises must have reported
    /// every one of its metrics.
    pub fn layers(
        w: Workload,
        mut rows: Vec<(&'static str, f64)>,
        attempted: u64,
        failed: u64,
        notes: Vec<String>,
    ) -> RunOutput {
        for (name, _, _) in &PER_LAYER {
            if !rows.iter().any(|(n, _)| n == name) {
                let prefix = name.split('.').next().expect("a layer prefix");
                assert!(
                    !crate::spec::layer_runs_on(prefix, w),
                    "{name} was not measured on {}",
                    w.name()
                );
                rows.push((name, 0.0));
            }
        }
        RunOutput { workload: w, traced: true, attempted, failed, metrics: rows, notes }.finish()
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} ({}) ==  attempted {}  failed {}  fail_frac {}\n",
            self.workload.name(),
            if self.traced { "traced, per-layer" } else { "untraced, end-to-end" },
            self.attempted,
            self.failed,
            if self.attempted > 0 { self.failed as f64 / self.attempted as f64 } else { 1.0 },
        );
        let mut bypassed: Vec<&str> = Vec::new();
        for (name, value) in &self.metrics {
            let layer = name.split('.').next().unwrap_or(name);
            if self.traced && !crate::spec::layer_runs_on(layer, self.workload) {
                if !bypassed.contains(&layer) {
                    bypassed.push(layer);
                }
                continue;
            }
            out.push_str(&format!("  {name:<28} {value:>16.4} {}\n", Self::unit_of(name)));
        }
        if !bypassed.is_empty() {
            out.push_str(&format!(
                "  layers this workload bypasses (every metric reported as 0): {}\n",
                bypassed.join(", ")
            ));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`; values with all their digits.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", Self::unit_of(name))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hec_core::json::Json;

    #[test]
    fn json_line_has_exactly_the_contract_keys_and_every_metric() {
        let out = RunOutput {
            workload: Workload::ServeHit,
            traced: false,
            attempted: 10,
            failed: 0,
            metrics: END_TO_END.iter().rev().map(|m| (m.name, 1.25e-3)).collect(),
            notes: vec![],
        }
        .finish();
        assert_eq!(out.metrics[0].0, "setup_s", "finish() restores table order");
        let doc = Json::parse(&out.json_line()).unwrap();
        let Json::Obj(fields) = &doc else { panic!("object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(doc.bool_field("correct").unwrap());
        let Some(Json::Obj(metrics)) = doc.get("metrics") else { panic!("metrics object") };
        assert_eq!(metrics.len(), END_TO_END.len());
        let p50 = doc.get("metrics").unwrap().get("p50_us").unwrap();
        assert_eq!(p50.num_field("value").unwrap(), 1.25e-3);
        assert_eq!(p50.str_field("unit").unwrap(), "us");
    }

    #[test]
    fn bypassed_layers_read_zero_and_exercised_layers_must_report() {
        let rows: Vec<(&'static str, f64)> = PER_LAYER
            .iter()
            .filter(|m| {
                crate::spec::layer_runs_on(m.0.split('.').next().unwrap(), Workload::ServeHit)
            })
            .map(|m| (m.0, 1.0))
            .collect();
        let out = RunOutput::layers(Workload::ServeHit, rows.clone(), 1, 0, vec![]);
        assert_eq!(out.metrics.len(), PER_LAYER.len());
        let get = |n: &str| out.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert_eq!(get("serve.parse_ns"), 1.0);
        assert_eq!(get("kernels.fft576_us"), 0.0);
        assert_eq!(get("cluster.hop_us"), 0.0);
        assert!(out.table().contains("bypasses"));
        let short = rows[1..].to_vec();
        let missing =
            std::panic::catch_unwind(|| RunOutput::layers(Workload::ServeHit, short, 1, 0, vec![]));
        assert!(missing.is_err());
    }

    #[test]
    fn a_failure_or_a_non_finite_value_is_not_correct() {
        let mk = |failed, v| RunOutput {
            workload: Workload::AppsSolve,
            traced: false,
            attempted: 5,
            failed,
            metrics: END_TO_END.iter().map(|m| (m.name, v)).collect(),
            notes: vec![],
        };
        assert!(mk(0, 1.0).correct());
        assert!(!mk(1, 1.0).correct());
        assert!(!mk(0, f64::NAN).correct());
    }
}
