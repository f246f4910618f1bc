//! `bias-suite` and `attack-suite`: rounds of eight registered experiments
//! at quick scale, run in this process through the registry with two
//! workers, exactly as `repro run NAME... --scale quick --workers 2` would.

use std::path::Path;
use std::time::Instant;

use rc4_attacks::{experiments::Scale, Experiment, ExperimentContext, Registry};
use rc4_stats::{longterm::LongTermDataset, single::SingleByteDataset, StorableDataset};

use crate::layers::{self, Counters, Recorder};
use crate::report::Outcome;
use crate::stats::{mean, median, overhead_pct};
use crate::{another_pass_fits, host, log_times, probes, Run};

/// Worker threads per experiment (at most `nproc` on the reference box).
const WORKERS: usize = 2;

/// Which eight experiments a round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// The §3 bias experiments, each round with an emptied dataset cache:
    /// keystream generation, counting and shard writes do the work.
    Bias,
    /// The §4–6 attacks: recovery and the TKIP/TLS substrates do the work.
    Attack,
}

impl Suite {
    fn names(self) -> [&'static str; 8] {
        match self {
            Suite::Bias => [
                "headline", "table1", "fig4", "table2", "eq345", "fig5", "fig6", "longterm",
            ],
            Suite::Attack => [
                "fig7",
                "fig8",
                "fig10",
                "tkip-attack",
                "tls-cookie",
                "fig7-stream",
                "fig10-stream",
                "tls-cookie-stream",
            ],
        }
    }
}

/// Reports of the first round, one JSON text (or error) per experiment.
type Reference = Vec<Result<String, String>>;

struct Rounds<'a> {
    experiments: Vec<Box<dyn Experiment>>,
    seed: u64,
    cache: Option<&'a Path>,
    reference: Option<Reference>,
}

impl Rounds<'_> {
    /// Runs one round and checks every report against the first round's
    /// bytes; returns the round's wall-clock in seconds.
    fn round(&mut self, out: &mut Outcome) -> Result<f64, String> {
        if let Some(dir) = self.cache {
            match std::fs::remove_dir_all(dir) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("{}: {e}", dir.display()))
                }
                _ => {}
            }
        }
        let ctx = |seed| -> Result<ExperimentContext, String> {
            let ctx = ExperimentContext::new()
                .with_seed(seed)
                .with_workers(WORKERS);
            match self.cache {
                Some(dir) => ctx.with_cache_dir(dir).map_err(|e| e.to_string()),
                None => Ok(ctx),
            }
        };
        // A streaming experiment stops when its data make it confident, so
        // its work depends on its seed (fig10-stream: 1.5-2.9 s at quick
        // scale). Streaming experiments keep their documented base seeds,
        // making every pass the same amount of work; the workload seed seeds
        // every other experiment.
        let (seeded, streaming) = (ctx(self.seed)?, ctx(0)?);
        let start = Instant::now();
        let reports: Reference = self
            .experiments
            .iter()
            .map(|e| {
                let ctx = if e.name().ends_with("-stream") {
                    &streaming
                } else {
                    &seeded
                };
                e.run_observed(ctx)
                    .map(|r| serde_json::to_string(&r).expect("reports serialize"))
                    .map_err(|err| format!("{}: {err}", e.name()))
            })
            .collect();
        let elapsed = start.elapsed().as_secs_f64();
        if let Some(dir) = self.cache {
            out.note_disk(host::disk_bytes(dir));
        }
        let reference = self.reference.get_or_insert_with(|| reports.clone());
        let names: Vec<&str> = self.experiments.iter().map(|e| e.name()).collect();
        check_reports(out, &names, &reports, reference);
        Ok(elapsed)
    }
}

/// Counts one operation per experiment: it fails when the experiment failed
/// or its report bytes differ from the reference round's.
fn check_reports(out: &mut Outcome, names: &[&str], got: &Reference, want: &Reference) {
    for ((name, got), want) in names.iter().zip(got).zip(want) {
        out.check(got.is_ok() && got == want, || match got {
            Err(msg) => msg.clone(),
            Ok(_) => format!("{name}: report bytes differ from the first round"),
        });
    }
}

pub fn run(run: &Run, suite: Suite, out: &mut Outcome) -> Result<(), String> {
    let registry = Registry::with_defaults();
    // Rounds run in registry order: a seeded order moved this process's peak
    // RSS between 73 and 91 MB on attack-suite through allocator reuse alone.
    let experiments = suite
        .names()
        .into_iter()
        .map(|name| {
            let mut e = registry.create(name).map_err(|e| e.to_string())?;
            e.apply_scale(Scale::Quick);
            Ok(e)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let cache = run.work.join("cache");
    let mut rounds = Rounds {
        experiments,
        seed: run.derive(1) & 0xFFFF,
        cache: (suite == Suite::Bias).then_some(cache.as_path()),
        reference: None,
    };

    // Set-up is one warm-up round: lazy state settles, and its reports
    // become the reference every later round must reproduce.
    let setup = rounds.round(out)?;
    let started = Instant::now();
    let mut passes = Vec::new();
    while another_pass_fits(run, started, &passes) {
        passes.push(rounds.round(out)?);
    }
    log_times(&[setup], &passes);
    if !run.trace {
        let jobs = passes.len() * 8;
        out.put("setup_s", setup, 1);
        out.put("pass_s", median(&passes).expect("a pass ran"), passes.len());
        out.put("jobs_per_s", jobs as f64 / passes.iter().sum::<f64>(), jobs);
        let rss = host::peak_rss_mb("self").ok_or("cannot read own VmHWM")?;
        out.put("peak_rss_mb", rss, 1);
        return Ok(());
    }

    let recorder = Recorder::start()?;
    let mut traced = Vec::with_capacity(passes.len());
    for _ in 0..passes.len() {
        traced.push(rounds.round(out)?);
    }
    let spans = recorder.spans()?;
    out.put(
        "rc4_obs.trace_overhead_pct",
        overhead_pct(mean(&traced), mean(&passes)),
        traced.len(),
    );
    layers::experiment_times(&spans, traced.len(), out);
    layers::generation(&spans, traced.len(), out);
    layers::store_and_exec(&Counters::snapshot(), traced.len(), out);
    match suite {
        Suite::Bias => {
            // fig6's 384-position single-byte table is the rekey shape; the
            // long-term table's block is the bulk shape.
            let rekey = SingleByteDataset::new(384).required_keystream_len();
            let bulk = LongTermDataset::new(255, 1 << 18)
                .map_err(|e| e.to_string())?
                .required_keystream_len();
            probes::keystream(run.derive(2), rekey, bulk, out);
            probes::stat_tests(run.derive(3), out)?;
        }
        Suite::Attack => {
            probes::recovery(run.derive(2), out)?;
            probes::substrates(run.derive(3), out)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_or_failed_reports_count_as_failed() {
        let want: Reference = vec![
            Ok("{\"id\":\"fig7\"}".into()),
            Ok("{\"id\":\"fig8\"}".into()),
        ];
        let mut out = Outcome::default();
        check_reports(&mut out, &["fig7", "fig8"], &want.clone(), &want);
        assert_eq!((out.attempted, out.failed), (2, 0));
        let corrupted: Reference = vec![
            Ok("{\"id\":\"fig7\"}".into()),
            Ok("{\"id\":\"fig9\"}".into()),
        ];
        check_reports(&mut out, &["fig7", "fig8"], &corrupted, &want);
        assert_eq!((out.attempted, out.failed), (4, 1));
        let errored: Reference = vec![
            Err("fig7: cancelled".into()),
            Ok("{\"id\":\"fig8\"}".into()),
        ];
        check_reports(&mut out, &["fig7", "fig8"], &errored, &want);
        assert_eq!((out.attempted, out.failed), (6, 2));
    }
}
