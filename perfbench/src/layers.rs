//! Per-layer attribution from what the program already emits: `rc4-obs`
//! spans (`experiment.run`, `store.*`) and metrics (`exec.*`, `store.*`,
//! `serve.*`), read in process or from the server's `metrics` frame.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

use serde::Value;

use crate::report::Outcome;
use crate::stats::ratio;

/// In-memory trace sink: spans stay in memory until the run ends.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer lock poisoned")
            .extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Turns on the program's span tracer and metrics registry for the rest of
/// the process (both are process-global and cannot be switched off, which
/// is why traced passes run after the untraced ones).
pub struct Recorder(Arc<Mutex<Vec<u8>>>);

impl Recorder {
    /// Installs the in-memory sink and enables metrics.
    ///
    /// # Errors
    ///
    /// When a trace writer was installed earlier in this process.
    pub fn start() -> Result<Recorder, String> {
        let buf = Arc::new(Mutex::new(Vec::new()));
        if !rc4_obs::trace::init_writer(Box::new(SharedBuf(Arc::clone(&buf)))) {
            return Err("a trace writer is already installed".to_string());
        }
        rc4_obs::metrics::enable();
        Ok(Recorder(buf))
    }

    /// Flushes the calling thread and parses every recorded span.
    ///
    /// # Errors
    ///
    /// On a span line that does not follow the `rc4-obs-trace` schema.
    pub fn spans(&self) -> Result<Vec<SpanRec>, String> {
        rc4_obs::trace::flush();
        let bytes = self.0.lock().expect("trace buffer lock poisoned").clone();
        parse_spans(&String::from_utf8_lossy(&bytes))
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Span name.
    pub name: String,
    /// Process-unique ID.
    pub id: u64,
    /// Enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Attributes.
    pub kv: BTreeMap<String, String>,
}

/// Parses the span lines of an `rc4-obs-trace` JSONL text (other line types
/// are skipped, as the schema's versioning policy asks).
///
/// # Errors
///
/// On malformed JSON or a span line lacking its fields.
pub fn parse_spans(text: &str) -> Result<Vec<SpanRec>, String> {
    let mut spans = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("trace line: {e}"))?;
        if v.field("type").ok() != Some(&Value::Str("span".into())) {
            continue;
        }
        let uint = |name: &str| match v.field(name) {
            Ok(Value::UInt(n)) => Ok(*n),
            _ => Err(format!("span line lacks `{name}`: {line}")),
        };
        let name = match v.field("name") {
            Ok(Value::Str(s)) => s.clone(),
            _ => return Err(format!("span line lacks `name`: {line}")),
        };
        let kv = match v.field("kv") {
            Ok(Value::Object(fields)) => fields
                .iter()
                .filter_map(|(k, v)| match v {
                    Value::Str(s) => Some((k.clone(), s.clone())),
                    _ => None,
                })
                .collect(),
            _ => BTreeMap::new(),
        };
        spans.push(SpanRec {
            name,
            id: uint("id")?,
            parent: uint("parent")?,
            dur_us: uint("dur_us")?,
            kv,
        });
    }
    Ok(spans)
}

/// `rc4_attacks.<name>_ms`: mean wall-clock of each experiment per pass,
/// from `experiment.run` spans.
pub fn experiment_times(spans: &[SpanRec], passes: usize, out: &mut Outcome) {
    let mut per_name: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "experiment.run") {
        if let Some(name) = s.kv.get("name") {
            let slot = per_name.entry(name).or_default();
            slot.0 += s.dur_us;
            slot.1 += 1;
        }
    }
    for (name, (us, count)) in per_name {
        out.put(
            &format!("rc4_attacks.{name}_ms"),
            us as f64 / 1e3 / passes as f64,
            count,
        );
    }
}

/// `rc4_stats.generate_s.<kind>` and `rc4_stats.keys_per_s` from
/// `store.load_or_generate` spans: a span's generation time is its duration
/// minus its `store.load` / `store.store` children; a span whose only store
/// child is a `store.load` was a cache hit and generated nothing.
pub fn generation(spans: &[SpanRec], passes: usize, out: &mut Outcome) {
    // Per parent span: (store µs, had a store.load child, had a store.store child).
    let mut store_children: BTreeMap<u64, (u64, bool, bool)> = BTreeMap::new();
    for s in spans {
        let (loaded, stored) = match s.name.as_str() {
            "store.load" => (true, false),
            "store.store" => (false, true),
            _ => continue,
        };
        let slot = store_children.entry(s.parent).or_default();
        slot.0 += s.dur_us;
        slot.1 |= loaded;
        slot.2 |= stored;
    }
    let mut per_kind: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    let mut keys = 0u64;
    let mut gen_s = 0.0;
    for s in spans.iter().filter(|s| s.name == "store.load_or_generate") {
        let (store_us, loaded, stored) = store_children.get(&s.id).copied().unwrap_or_default();
        if loaded && !stored {
            continue;
        }
        let secs = s.dur_us.saturating_sub(store_us) as f64 / 1e6;
        let kind = s.kv.get("kind").map_or("unknown", String::as_str);
        let slot = per_kind.entry(kind.replace('-', "_")).or_default();
        slot.0 += secs;
        slot.1 += 1;
        gen_s += secs;
        keys +=
            s.kv.get("keys")
                .and_then(|k| k.parse::<u64>().ok())
                .unwrap_or(0);
    }
    for (kind, (secs, count)) in &per_kind {
        out.put(
            &format!("rc4_stats.generate_s.{kind}"),
            secs / passes as f64,
            *count,
        );
    }
    let count = per_kind.values().map(|(_, c)| c).sum();
    out.put("rc4_stats.keys_per_s", ratio(keys as f64, gen_s), count);
}

/// A metrics snapshot flattened to numbers: counters by name, histograms as
/// `<name>.count` and `<name>.sum_us`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    /// Flattens the JSON form of a snapshot (the `metrics` frame, or
    /// `rc4_obs::metrics::snapshot().to_value()`).
    pub fn from_value(snapshot: &Value) -> Counters {
        let mut map = BTreeMap::new();
        if let Ok(Value::Object(counters)) = snapshot.field("counters") {
            for (name, v) in counters {
                if let Value::UInt(n) = v {
                    map.insert(name.clone(), *n as f64);
                }
            }
        }
        if let Ok(Value::Object(histograms)) = snapshot.field("histograms") {
            for (name, h) in histograms {
                for part in ["count", "sum_us"] {
                    if let Ok(Value::UInt(n)) = h.field(part) {
                        map.insert(format!("{name}.{part}"), *n as f64);
                    }
                }
            }
        }
        Counters(map)
    }

    /// The in-process registry right now.
    pub fn snapshot() -> Counters {
        Counters::from_value(&rc4_obs::metrics::snapshot().to_value())
    }

    /// What happened between `before` and `self`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k)))
                .collect(),
        )
    }

    /// A value, 0 when the program never touched it.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Store and executor metrics per pass.
pub fn store_and_exec(c: &Counters, passes: usize, out: &mut Outcome) {
    let per_pass = |v: f64| v / passes as f64;
    let writes = c.get("store.write_us.count") as usize;
    let reads = c.get("store.read_us.count") as usize;
    out.put(
        "rc4_store.write_s",
        per_pass(c.get("store.write_us.sum_us") / 1e6),
        writes,
    );
    out.put(
        "rc4_store.write_mb",
        per_pass(c.get("store.write_bytes") / 1e6),
        writes,
    );
    out.put(
        "rc4_store.read_s",
        per_pass(c.get("store.read_us.sum_us") / 1e6),
        reads,
    );
    out.put(
        "rc4_store.read_mb",
        per_pass(c.get("store.read_bytes") / 1e6),
        reads,
    );
    let (hits, misses) = (c.get("store.cache.hit"), c.get("store.cache.miss"));
    out.put(
        "rc4_store.cache_hit_ratio",
        ratio(hits, hits + misses),
        (hits + misses) as usize,
    );
    out.put(
        "rc4_store.singleflight_coalesced",
        per_pass(c.get("store.singleflight.coalesced")),
        c.get("store.singleflight.begun") as usize,
    );
    let merges = c.get("store.merge_us.count") as usize;
    out.put(
        "rc4_store.merge_s",
        per_pass(c.get("store.merge_us.sum_us") / 1e6),
        merges,
    );
    let (busy, idle) = (c.get("exec.worker_busy_us"), c.get("exec.worker_idle_us"));
    let maps = c.get("exec.map.calls") as usize;
    out.put("rc4_exec.busy_s", per_pass(busy / 1e6), maps);
    out.put("rc4_exec.idle_s", per_pass(idle / 1e6), maps);
    out.put("rc4_exec.utilization", ratio(busy, busy + idle), maps);
    out.put("rc4_exec.tasks", per_pass(c.get("exec.tasks")), maps);
    out.put("rc4_exec.steals", per_pass(c.get("exec.steals")), maps);
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = r#"{"type":"meta","schema":"rc4-obs-trace","version":1}
{"type":"span","name":"store.load","id":2,"parent":1,"thread":1,"depth":1,"start_us":0,"dur_us":100,"kv":{"kind":"pairs","keys":"64"}}
{"type":"span","name":"exec.map","id":3,"parent":1,"thread":1,"depth":1,"start_us":100,"dur_us":700}
{"type":"span","name":"store.store","id":4,"parent":1,"thread":1,"depth":1,"start_us":800,"dur_us":200}
{"type":"span","name":"store.load_or_generate","id":1,"parent":5,"thread":1,"depth":0,"start_us":0,"dur_us":1000,"kv":{"kind":"pairs","keys":"64"}}
{"type":"span","name":"store.load","id":7,"parent":6,"thread":1,"depth":1,"start_us":0,"dur_us":50,"kv":{"kind":"per-tsc","keys":"64"}}
{"type":"span","name":"store.load_or_generate","id":6,"parent":5,"thread":1,"depth":0,"start_us":0,"dur_us":60,"kv":{"kind":"per-tsc","keys":"64"}}
{"type":"span","name":"experiment.run","id":5,"parent":0,"thread":1,"depth":0,"start_us":0,"dur_us":3000,"kv":{"name":"table2"}}
{"type":"future-kind"}
"#;

    #[test]
    fn spans_parse_and_unknown_types_are_skipped() {
        let spans = parse_spans(TRACE).unwrap();
        assert_eq!(spans.len(), 7);
        assert_eq!(spans[0].kv["kind"], "pairs");
        assert!(parse_spans("{\"type\":\"span\",\"name\":\"x\"}").is_err());
        assert!(parse_spans("not json").is_err());
    }

    #[test]
    fn generation_excludes_store_io_and_cache_hits() {
        let spans = parse_spans(TRACE).unwrap();
        let mut out = Outcome::default();
        generation(&spans, 2, &mut out);
        experiment_times(&spans, 2, &mut out);
        // 1000 us span minus 300 us of store children, over two passes.
        let pairs = out.metrics["rc4_stats.generate_s.pairs"];
        assert!((pairs.value - 0.00035).abs() < 1e-12, "{pairs:?}");
        // The per-tsc span was a hit: no generation, no keys.
        assert!(!out.metrics.contains_key("rc4_stats.generate_s.per_tsc"));
        let kps = out.metrics["rc4_stats.keys_per_s"].value;
        assert!((kps - 64.0 / 0.0007).abs() < 1e-6, "{kps}");
        assert_eq!(out.metrics["rc4_attacks.table2_ms"].value, 1.5);
    }

    #[test]
    fn counters_flatten_and_subtract() {
        let before: Value = serde_json::from_str(
            r#"{"counters":{"store.cache.hit":1},"gauges":{},"histograms":{"serve.run_us":{"count":1,"sum_us":10,"max_us":10,"buckets":[]}}}"#,
        )
        .unwrap();
        let after: Value = serde_json::from_str(
            r#"{"counters":{"store.cache.hit":4,"store.cache.miss":1},"gauges":{},"histograms":{"serve.run_us":{"count":3,"sum_us":70,"max_us":40,"buckets":[]}}}"#,
        )
        .unwrap();
        let delta = Counters::from_value(&after).since(&Counters::from_value(&before));
        assert_eq!(delta.get("store.cache.hit"), 3.0);
        assert_eq!(delta.get("store.cache.miss"), 1.0);
        assert_eq!(delta.get("serve.run_us.count"), 2.0);
        assert_eq!(delta.get("serve.run_us.sum_us"), 60.0);
        assert_eq!(delta.get("never.touched"), 0.0);
        let mut out = Outcome::default();
        store_and_exec(&delta, 1, &mut out);
        assert_eq!(out.metrics["rc4_store.cache_hit_ratio"].value, 0.75);
        assert_eq!(out.metrics["rc4_exec.utilization"].value, 0.0);
    }
}
