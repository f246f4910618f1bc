//! `tsc-campaign`: `repro campaign plan` of a TSC1-conditioned per-TSC
//! dataset over four leases, `campaign run --procs 2 --compress`, then
//! `dataset info` to verify the merged table's CRC. The lease coordinator,
//! worker processes, tiered merge and v2 codec do the work.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use rc4_stats::{tsc::PerTscDataset, GenerationConfig, StorableDataset};
use rc4_store::{read_shard, CampaignManifest, LeaseState};

use crate::report::Outcome;
use crate::stats::{mean, median, percentile};
use crate::{another_pass_fits, host, log_times, probes, Run};

/// Per-TSC shape: TSC1 conditioning (class 0) over keystream positions 1..=68.
/// A fully TSC-conditioned shape (`1,68`) writes ~9 GB per lease.
const SHAPE: [u64; 2] = [0, 68];
const LEASES: u64 = 4;
/// Logical generation streams (one per lease).
const STREAMS: u64 = 4;
const KEYS: u64 = 1 << 18;
const PROCS: &str = "2";

/// Runs `repro ARGS`, returning stdout or an error with stderr.
fn repro(run: &Run, args: &[&str]) -> Result<String, String> {
    let output = Command::new(&run.repro)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot spawn repro: {e}"))?;
    if output.status.success() {
        Ok(String::from_utf8_lossy(&output.stdout).into_owned())
    } else {
        Err(format!(
            "repro {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&output.stderr)
        ))
    }
}

/// Timings one `campaign run` printed on stderr, in seconds since its start.
#[derive(Debug, Default, PartialEq)]
struct RunLog {
    /// Grant-to-completion time of each lease.
    lease_s: Vec<f64>,
    /// From the last lease completing to the merge message.
    merge_s: f64,
}

/// Reads the coordinator's stderr lines (timestamped as they arrive).
fn parse_log(lines: &[(f64, String)]) -> RunLog {
    let mut granted = std::collections::BTreeMap::new();
    let mut log = RunLog::default();
    let mut last_complete = 0.0;
    for (t, line) in lines {
        let Some(rest) = line.strip_prefix("repro: campaign: lease ") else {
            if line.contains(": merged ") {
                log.merge_s = t - last_complete;
            }
            continue;
        };
        let id: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if rest.contains(" -> ") {
            granted.insert(id, *t);
        } else if rest.contains(" complete") {
            if let Some(start) = granted.remove(&id) {
                log.lease_s.push(t - start);
            }
            last_complete = *t;
        }
    }
    log
}

struct PassResult {
    run_s: f64,
    log: RunLog,
    regrants: u64,
    keys_done: u64,
}

/// `campaign run` + `dataset info` on a planned campaign.
fn run_campaign(run: &Run, dir: &Path, out: &mut Outcome) -> Result<PassResult, String> {
    let merged = dir.join("merged.ds");
    let start = Instant::now();
    let mut child = Command::new(&run.repro)
        .args(["campaign", "run", "--procs", PROCS, "--compress", "--dir"])
        .arg(dir)
        .arg("--out")
        .arg(&merged)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn repro campaign run: {e}"))?;
    let stderr = child.stderr.take().expect("piped stderr");
    let lines: Vec<(f64, String)> = BufReader::new(stderr)
        .lines()
        .map_while(Result::ok)
        .map(|l| (start.elapsed().as_secs_f64(), l))
        .collect();
    let status = child.wait().map_err(|e| e.to_string())?;
    let info = repro(run, &["dataset", "info", &merged.to_string_lossy()]);
    let run_s = start.elapsed().as_secs_f64();
    let manifest = CampaignManifest::load(dir.join("campaign.json")).map_err(|e| e.to_string())?;
    let verified = status.success()
        && info
            .as_ref()
            .is_ok_and(|text| text.contains("CRC-32 verified") && text.contains("(complete)"));
    for lease in &manifest.leases {
        out.check(verified && lease.state == LeaseState::Complete, || {
            format!(
                "lease {}: {:?}, run {status}, info {:?}; {}",
                lease.id,
                lease.state,
                info.as_ref().err(),
                lines
                    .iter()
                    .map(|(_, l)| l.as_str())
                    .collect::<Vec<_>>()
                    .join("\n")
            )
        });
    }
    Ok(PassResult {
        run_s,
        log: parse_log(&lines),
        regrants: manifest
            .leases
            .iter()
            .map(|l| l.attempts.saturating_sub(1))
            .sum(),
        keys_done: manifest.keys_done(),
    })
}

pub fn run(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let seed = (run.derive(1) % 1_000_000).to_string();
    let shape = format!("{},{}", SHAPE[0], SHAPE[1]);
    let (keys, leases, streams) = (KEYS.to_string(), LEASES.to_string(), STREAMS.to_string());
    let mut plans = Vec::new();
    let mut passes = Vec::new();
    let mut reference: Option<Vec<u8>> = None;
    let mut lease_s = Vec::new();
    let mut merge_s = Vec::new();
    let mut regrants = 0;
    let mut keys_done = 0;
    let mut last_merged = None;
    let started = Instant::now();
    while another_pass_fits(run, started, &passes) {
        let dir = run.work.join(format!("campaign-{}", passes.len()));
        let dir_arg = dir.to_string_lossy().into_owned();
        let plan_start = Instant::now();
        repro(
            run,
            &[
                "campaign",
                "plan",
                "--dir",
                &dir_arg,
                "--kind",
                "per-tsc",
                "--shape",
                &shape,
                "--leases",
                &leases,
                "--keys",
                &keys,
                "--workers",
                &streams,
                "--seed",
                &seed,
            ],
        )?;
        plans.push(plan_start.elapsed().as_secs_f64());
        let result = run_campaign(run, &dir, out)?;
        passes.push(result.run_s);
        lease_s.extend(result.log.lease_s);
        merge_s.push(result.log.merge_s);
        regrants += result.regrants;
        keys_done += result.keys_done;
        out.note_disk(host::disk_bytes(&dir));
        let merged = std::fs::read(dir.join("merged.ds")).map_err(|e| e.to_string())?;
        let same = reference.get_or_insert_with(|| merged.clone()) == &merged;
        out.check(same, || {
            "merged table differs from the first pass".to_string()
        });
        if run.trace {
            last_merged = Some(merged);
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    log_times(&plans, &passes);
    let total_s: f64 = passes.iter().sum();
    let leases_done = passes.len() * LEASES as usize;
    if !run.trace {
        out.put("setup_s", median(&plans).expect("a pass ran"), plans.len());
        out.put("pass_s", median(&passes).expect("a pass ran"), passes.len());
        out.put("jobs_per_s", leases_done as f64 / total_s, leases_done);
        out.put("peak_rss_mb", host::children_peak_rss_mb(), passes.len());
        return Ok(());
    }

    // The coordinator and its workers have no tracing switch: everything
    // below comes from their stderr, the manifest and the merged file.
    out.put("rc4_obs.trace_overhead_pct", 0.0, 0);
    out.put(
        "campaign.plan_s",
        median(&plans).expect("a pass ran"),
        plans.len(),
    );
    out.put_opt(
        "campaign.lease_s_p50",
        percentile(&lease_s, 0.5),
        lease_s.len(),
    );
    out.put("campaign.regrants", regrants as f64, leases_done);
    let merged_keys = (passes.len() as u64 * KEYS) as f64;
    out.put(
        "campaign.useful_key_ratio",
        merged_keys / keys_done as f64,
        leases_done,
    );
    out.put("campaign.keys_per_s", merged_keys / total_s, passes.len());
    out.put("rc4_store.merge_s", mean(&merge_s), merge_s.len());
    let empty = PerTscDataset::empty_with_shape(&SHAPE).map_err(|e| e.to_string())?;
    probes::keystream(run.derive(2), empty.required_keystream_len(), 0, out);
    let lease = GenerationConfig {
        keys: KEYS / STREAMS,
        workers: 1,
        seed: run.derive(3),
        key_len: 16,
    };
    probes::per_tsc_generation(&SHAPE, &lease, out);
    let path = run.work.join("merged.ds");
    std::fs::write(&path, last_merged.expect("a pass ran")).map_err(|e| e.to_string())?;
    let table = read_shard::<PerTscDataset>(&path).map_err(|e| e.to_string())?;
    probes::codec(&table.dataset, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_and_merge_times_come_from_the_coordinator_log() {
        let lines: Vec<(f64, String)> = [
            (
                0.0,
                "repro: campaign d: 4 lease(s) (0 complete), 2 worker process(es)",
            ),
            (
                0.1,
                "repro: campaign: lease 0 (workers 0..1) -> pid-1 (attempt 1)",
            ),
            (
                0.2,
                "repro: campaign: lease 1 (workers 1..2) -> pid-2 (attempt 1)",
            ),
            (0.6, "repro: campaign: lease 1 complete (1/2 lease(s) done)"),
            (0.9, "repro: campaign: lease 0 complete (2/2 lease(s) done)"),
            (
                1.2,
                "repro: campaign d: merged 2 lease shard(s) into o (raw encoding)",
            ),
        ]
        .into_iter()
        .map(|(t, l)| (t, l.to_string()))
        .collect();
        let log = parse_log(&lines);
        let rounded: Vec<f64> = log
            .lease_s
            .iter()
            .map(|s| (s * 10.0).round() / 10.0)
            .collect();
        assert_eq!(rounded, [0.4, 0.8]);
        assert!((log.merge_s - 0.3).abs() < 1e-9);
    }
}
