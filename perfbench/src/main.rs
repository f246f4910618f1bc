//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --repro PATH
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced pass plus layer probes. The last stdout line is the
//! result object; the line before it carries the host fingerprint and each
//! metric's sample count. Every file the run writes lives under
//! `.bench_work/` in the current directory and is deleted before exit.
//! `run.sh` builds the program and this binary, then calls it.

mod campaign;
mod host;
mod inproc;
mod layers;
mod probes;
mod report;
mod reprod;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use serde::Value;

use report::{Outcome, END_TO_END, PER_LAYER};

/// Workload names, in BENCHMARK.json order.
const WORKLOADS: [&str; 4] = ["bias-suite", "attack-suite", "reprod-mix", "tsc-campaign"];

/// Everything a workload needs to know about its run.
pub struct Run {
    /// Workload seed; experiment seeds and job order derive from it.
    pub seed: u64,
    /// Measurement budget: passes start only while they fit in it.
    pub budget: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The `repro` binary for the out-of-process workloads.
    pub repro: PathBuf,
    /// Private scratch directory, deleted when the run ends.
    pub work: PathBuf,
}

impl Run {
    /// The `i`-th value derived from the workload seed (splitmix64).
    pub fn derive(&self, i: u64) -> u64 {
        splitmix(self.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// `items` in an order derived from the workload seed.
    pub fn shuffled<T: Copy>(&self, items: &[T]) -> Vec<T> {
        let mut out = items.to_vec();
        for i in (1..out.len()).rev() {
            let j = (self.derive(0x5EED + i as u64) % (i as u64 + 1)) as usize;
            out.swap(i, j);
        }
        out
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Whether another pass of the mean duration so far still fits the budget.
pub fn another_pass_fits(run: &Run, started: std::time::Instant, passes: &[f64]) -> bool {
    passes.is_empty()
        || started.elapsed().as_secs_f64() + stats::mean(passes) <= run.budget.as_secs_f64()
}

/// Logs the raw set-up and pass times behind `setup_s` and `pass_s`.
pub fn log_times(setups: &[f64], passes: &[f64]) {
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "perfbench: set-up s [{}], pass s [{}]",
        fmt(setups),
        fmt(passes)
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repro: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut repro = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let int = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects an integer, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(int()?),
            "--seconds" => seconds = Some(int()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got '{value}'")),
                })
            }
            "--repro" => repro = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (choices: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        repro: repro.ok_or("--repro is required")?,
    })
}

fn run_workload(args: &Args, run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "bias-suite" => inproc::run(run, inproc::Suite::Bias, &mut out)?,
        "attack-suite" => inproc::run(run, inproc::Suite::Attack, &mut out)?,
        "reprod-mix" => reprod::run(run, &mut out)?,
        "tsc-campaign" => campaign::run(run, &mut out)?,
        _ => unreachable!("workload names are validated"),
    }
    Ok(out)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    if !args.repro.is_file() {
        eprintln!("perfbench: no repro binary at {}", args.repro.display());
        return ExitCode::from(2);
    }
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let run = Run {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
        repro: args.repro.clone(),
        work: work.clone(),
    };
    let outcome = run_workload(&args, &run);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("perfbench: {} failed: {msg}", args.workload);
            return ExitCode::from(1);
        }
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        for (name, _) in PER_LAYER {
            outcome
                .metrics
                .entry(name.to_string())
                .or_insert(report::Metric {
                    value: 0.0,
                    samples: 0,
                });
        }
        let disk_mb = outcome.disk_peak_bytes as f64 / 1e6;
        outcome.put("bench.disk_peak_mb", disk_mb, 1);
    }
    let context = Value::Object(vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::UInt(args.seed)),
        ("trace".into(), Value::Bool(args.trace)),
        ("host".into(), host::fingerprint()),
    ]);
    match outcome.render(table, context) {
        Ok([context, result]) => {
            println!("{context}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64) -> Run {
        Run {
            seed,
            budget: Duration::from_secs(1),
            trace: false,
            repro: PathBuf::new(),
            work: PathBuf::new(),
        }
    }

    #[test]
    fn derived_values_and_order_follow_the_seed() {
        assert_eq!(run(7).derive(3), run(7).derive(3));
        assert_ne!(run(7).derive(3), run(8).derive(3));
        assert_ne!(run(7).derive(3), run(7).derive(4));
        let items = [1, 2, 3, 4, 5, 6, 7, 8];
        let a = run(1).shuffled(&items);
        assert_eq!(a, run(1).shuffled(&items));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, items);
        assert!((0..20).any(|s| run(s).shuffled(&items) != a));
    }

    #[test]
    fn arguments_are_validated() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = parse("--workload bias-suite --seed 3 --seconds 10 --trace 1 --repro r").unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 10, true));
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0 --repro r").is_err());
        assert!(parse("--workload bias-suite --seed 3 --seconds 0 --trace 0 --repro r").is_err());
        assert!(parse("--workload bias-suite --seed 3 --seconds 10 --trace 2 --repro r").is_err());
        assert!(parse("--workload bias-suite --seconds 10 --trace 0 --repro r").is_err());
    }
}
