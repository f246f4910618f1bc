//! What a run reports: operations attempted and failed, and named metrics.

use std::collections::BTreeMap;

use serde::Value;

/// End-to-end metrics, reported by untraced runs (`--trace 0`). Every
/// workload reports each of them; see README.md for what a job is on each.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`). A layer a
/// workload does not exercise reads 0 with a sample count of 0.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("rc4_accel.rekey_keys_per_s", "1/s"),
    ("rc4_accel.bulk_mb_per_s", "MB/s"),
    ("rc4_stats.generate_s.single", "s"),
    ("rc4_stats.generate_s.pairs", "s"),
    ("rc4_stats.generate_s.longterm", "s"),
    ("rc4_stats.generate_s.per_tsc", "s"),
    ("rc4_stats.keys_per_s", "1/s"),
    ("rc4_store.write_s", "s"),
    ("rc4_store.write_mb", "MB"),
    ("rc4_store.read_s", "s"),
    ("rc4_store.read_mb", "MB"),
    ("rc4_store.cache_hit_ratio", "ratio"),
    ("rc4_store.singleflight_coalesced", "count"),
    ("rc4_store.merge_s", "s"),
    ("rc4_store.v2_encode_mb_per_s", "MB/s"),
    ("rc4_store.v2_decode_mb_per_s", "MB/s"),
    ("rc4_exec.busy_s", "s"),
    ("rc4_exec.idle_s", "s"),
    ("rc4_exec.utilization", "ratio"),
    ("rc4_exec.tasks", "count"),
    ("rc4_exec.steals", "count"),
    ("plaintext_recovery.likelihood_s", "s"),
    ("plaintext_recovery.viterbi_s", "s"),
    ("plaintext_recovery.candidates_s", "s"),
    ("plaintext_recovery.candidates_per_s", "1/s"),
    ("wpa_tkip.attack_s", "s"),
    ("tls_rc4.capture_s", "s"),
    ("tls_rc4.score_s", "s"),
    ("stat_tests.s", "s"),
    ("rc4_attacks.headline_ms", "ms"),
    ("rc4_attacks.table1_ms", "ms"),
    ("rc4_attacks.fig4_ms", "ms"),
    ("rc4_attacks.table2_ms", "ms"),
    ("rc4_attacks.eq345_ms", "ms"),
    ("rc4_attacks.fig5_ms", "ms"),
    ("rc4_attacks.fig6_ms", "ms"),
    ("rc4_attacks.longterm_ms", "ms"),
    ("rc4_attacks.fig7_ms", "ms"),
    ("rc4_attacks.fig8_ms", "ms"),
    ("rc4_attacks.fig10_ms", "ms"),
    ("rc4_attacks.tkip-attack_ms", "ms"),
    ("rc4_attacks.tls-cookie_ms", "ms"),
    ("rc4_attacks.fig7-stream_ms", "ms"),
    ("rc4_attacks.fig10-stream_ms", "ms"),
    ("rc4_attacks.tls-cookie-stream_ms", "ms"),
    ("rc4_serve.queue_wait_ms_p50", "ms"),
    ("rc4_serve.queue_wait_ms_p90", "ms"),
    ("rc4_serve.budget_wait_ms_p50", "ms"),
    ("rc4_serve.budget_wait_ms_p90", "ms"),
    ("rc4_serve.run_ms_p50", "ms"),
    ("rc4_serve.run_ms_p90", "ms"),
    ("rc4_serve.submit_rtt_ms_p50", "ms"),
    ("rc4_serve.jobs_failed", "count"),
    ("reprod.job_p50_ms", "ms"),
    ("reprod.job_p90_ms", "ms"),
    ("campaign.plan_s", "s"),
    ("campaign.lease_s_p50", "s"),
    ("campaign.regrants", "count"),
    ("campaign.useful_key_ratio", "ratio"),
    ("campaign.keys_per_s", "1/s"),
    ("bench.disk_peak_mb", "MB"),
    ("rc4_obs.trace_overhead_pct", "%"),
];

/// One measured value and how many samples it summarises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value, in the unit the metric tables declare.
    pub value: f64,
    /// Samples behind the value (0 for a layer the workload skips).
    pub samples: usize,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs, or leases on `tsc-campaign`).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Largest on-disk footprint of the run's own files, in bytes.
    pub disk_peak_bytes: u64,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Records `name`.
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics
            .insert(name.to_string(), Metric { value, samples });
    }

    /// Records a guarded percentile: 0 when the guard refused it, with the
    /// sample count showing why.
    pub fn put_opt(&mut self, name: &str, value: Option<f64>, samples: usize) {
        self.put(name, value.unwrap_or(0.0), samples);
    }

    /// Notes the current size of a directory the run wrote.
    pub fn note_disk(&mut self, bytes: u64) {
        self.disk_peak_bytes = self.disk_peak_bytes.max(bytes);
    }

    /// The two result lines: the context line (host fingerprint, sample
    /// counts, disk footprint) and the final result object holding exactly
    /// the metrics of `table`.
    ///
    /// # Errors
    ///
    /// Names a metric of `table` the run did not measure. Per-layer metrics
    /// the workload skips must be recorded explicitly as 0.
    pub fn render(&self, table: &[(&str, &str)], context: Value) -> Result<[String; 2], String> {
        let mut metrics = Vec::with_capacity(table.len());
        let mut samples = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let m = self
                .metrics
                .get(*name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            metrics.push((
                (*name).to_string(),
                Value::Object(vec![
                    ("value".into(), Value::Float(value)),
                    ("unit".into(), Value::Str((*unit).to_string())),
                ]),
            ));
            samples.push(((*name).to_string(), Value::UInt(m.samples as u64)));
        }
        let Value::Object(mut fields) = context else {
            return Err("context must be an object".to_string());
        };
        fields.push(("samples".into(), Value::Object(samples)));
        fields.push((
            "disk_peak_mb".into(),
            Value::Float(self.disk_peak_bytes as f64 / 1e6),
        ));
        let result = Value::Object(vec![
            ("correct".into(), Value::Bool(self.failed == 0)),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        let line = |v: &Value| serde_json::to_string(v).expect("values serialize");
        Ok([line(&Value::Object(fields)), line(&result)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
        v.field(name).unwrap()
    }

    #[test]
    fn a_failed_check_makes_the_result_incorrect() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        out.check(false, || "corrupted report bytes".to_string());
        for (name, _) in END_TO_END {
            out.put(name, 1.5, 3);
        }
        let [_, last] = out.render(&END_TO_END, Value::Object(Vec::new())).unwrap();
        let v: Value = serde_json::from_str(&last).unwrap();
        assert_eq!(field(&v, "correct"), &Value::Bool(false));
        assert_eq!(field(&v, "attempted"), &Value::UInt(2));
        assert_eq!(field(&v, "failed"), &Value::UInt(1));
    }

    #[test]
    fn result_holds_exactly_the_table_with_units_and_counts() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        for (name, _) in END_TO_END {
            out.put(name, 0.25, 7);
        }
        out.put("not_in_the_table", 9.0, 1);
        let [context, last] = out.render(&END_TO_END, Value::Object(Vec::new())).unwrap();
        let v: Value = serde_json::from_str(&last).unwrap();
        assert_eq!(field(&v, "correct"), &Value::Bool(true));
        let Value::Object(metrics) = field(&v, "metrics") else {
            panic!("metrics is an object");
        };
        let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["setup_s", "pass_s", "peak_rss_mb", "jobs_per_s"]);
        let setup = field(&v, "metrics").field("setup_s").unwrap();
        assert_eq!(field(setup, "unit"), &Value::Str("s".into()));
        assert_eq!(field(setup, "value"), &Value::Float(0.25));
        let c: Value = serde_json::from_str(&context).unwrap();
        assert_eq!(
            field(c.field("samples").unwrap(), "pass_s"),
            &Value::UInt(7)
        );
    }

    #[test]
    fn an_unmeasured_metric_is_an_error() {
        let out = Outcome::default();
        assert!(out
            .render(&END_TO_END, Value::Object(Vec::new()))
            .unwrap_err()
            .contains("setup_s"));
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: Value = serde_json::from_str(&text).unwrap();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Value::Array(entries) = v.field(key).unwrap() else {
                panic!("{key} is an array");
            };
            let declared: Vec<(String, String)> = entries
                .iter()
                .map(|e| match (e.field("name"), e.field("unit")) {
                    (Ok(Value::Str(n)), Ok(Value::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("{key} entry lacks name/unit"),
                })
                .collect();
            let coded: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(declared, coded, "{key}");
        }
    }
}
