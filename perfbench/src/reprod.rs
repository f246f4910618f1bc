//! `reprod-mix`: a resident `repro serve --budget 2` under two closed-loop
//! TCP clients (submit, watch, result), running a seeded mix of quick specs.
//! Dataset-backed specs repeat, so after the warm-up they are store reads
//! (and single-flight when both clients ask at once); attack specs compute.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rc4_serve::{Client, JobSpec, JobStatus};
use serde::Value;

use crate::layers::{self, Counters};
use crate::report::Outcome;
use crate::stats::{mean, median, overhead_pct, percentile};
use crate::{another_pass_fits, host, log_times, probes, Run};

/// Specs whose experiments load a dataset through the server's cache.
const DATASET_SPECS: [&str; 5] = ["table2", "fig5", "eq345", "fig6", "headline"];
/// Specs whose experiments only compute.
const ATTACK_SPECS: [&str; 3] = ["fig8", "tkip-attack", "tls-cookie"];
/// Server worker budget; every job takes all of it, so the clients contend.
const BUDGET: &str = "2";
/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Jobs per pass of each spec; with eight specs, 104 jobs leave 10 beyond
/// the p90. Every pass runs the same composition in a seeded order, so the
/// seed moves inputs and interleaving, not the amount of work.
const JOBS_PER_SPEC: usize = 13;
/// Timed set-ups per run (each a fresh server and cache).
const SETUPS: usize = 3;

/// A running `repro serve`; dropping it shuts the server down and waits.
struct Server {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<Vec<String>>>,
}

impl Server {
    fn start(repro: &Path, state: &Path) -> Result<Server, String> {
        let mut child = Command::new(repro)
            .arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--state-dir")
            .arg(state)
            .args(["--budget", BUDGET, "--default-workers", BUDGET])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn repro serve: {e}"))?;
        let stderr = child.stderr.take().expect("piped stderr");
        let stderr = std::thread::spawn(move || {
            let mut tail = Vec::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if tail.len() == 20 {
                    tail.remove(0);
                }
                tail.push(line);
            }
            tail
        });
        let mut server = Server {
            child,
            addr: String::new(),
            stderr: Some(stderr),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr_file = state.join("addr");
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                let addr = text.trim();
                if !addr.is_empty() && Client::connect(addr).is_ok() {
                    server.addr = addr.to_string();
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("repro serve exited early ({status})"));
            }
            if Instant::now() > deadline {
                return Err("repro serve did not publish its address".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| e.to_string())
    }

    /// Drains the server and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        if let Ok(mut client) = self.client() {
            let _ = client.shutdown(5_000);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("repro serve did not drain; killed".to_string());
                }
            }
        };
        let tail = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        if status.success() {
            Ok(())
        } else {
            Err(format!("repro serve exited {status}: {}", tail.join("\n")))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.stderr.is_some() {
            let _ = self.stop();
        }
    }
}

/// One spec of the mix with its seed and the one-shot reference bytes.
struct Spec {
    name: &'static str,
    seed: u64,
    reference: String,
}

impl Spec {
    fn job(&self) -> JobSpec {
        JobSpec {
            name: self.name.to_string(),
            scale: "quick".to_string(),
            seed: self.seed,
            priority: 0,
            workers: 0,
        }
    }
}

/// What one served job took.
struct JobRec {
    spec: usize,
    latency_s: f64,
    submit_rtt_s: f64,
    telemetry: Option<Value>,
}

/// Submit, watch to the end, fetch the result and compare it with the
/// one-shot bytes of `specs[i]`.
fn serve_job(
    client: &mut Client,
    specs: &[Spec],
    i: usize,
    telemetry: bool,
) -> Result<JobRec, String> {
    let spec = &specs[i];
    let start = Instant::now();
    let id = client.submit(spec.job()).map_err(|e| e.to_string())?;
    let submit_rtt_s = start.elapsed().as_secs_f64();
    let (status, _) = client.watch(id, 0, |_, _| {}).map_err(|e| e.to_string())?;
    if status != JobStatus::Done {
        return Err(format!("job {id} ({}) ended {}", spec.name, status.name()));
    }
    let (document, telemetry) = if telemetry {
        client.result_with_telemetry(id)
    } else {
        client.result(id).map(|d| (d, None))
    }
    .map_err(|e| e.to_string())?;
    let latency_s = start.elapsed().as_secs_f64();
    if document != spec.reference {
        return Err(format!(
            "job {id} ({} seed {}): result differs from one-shot `repro run --json`",
            spec.name, spec.seed
        ));
    }
    Ok(JobRec {
        spec: i,
        latency_s,
        submit_rtt_s,
        telemetry,
    })
}

/// The one-shot `repro run NAME --scale quick --seed S --json` bytes.
fn one_shot(repro: &Path, name: &str, seed: u64) -> Result<String, String> {
    let output = Command::new(repro)
        .args([
            "run",
            name,
            "--scale",
            "quick",
            "--json",
            "--workers",
            BUDGET,
        ])
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot spawn repro run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "repro run {name} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    String::from_utf8(output.stdout).map_err(|e| e.to_string())
}

/// Starts a fresh server and warms its cache with one job per dataset-backed
/// spec, checking each against its one-shot bytes. Returns the server and
/// the set-up time.
fn set_up(run: &Run, k: usize, specs: &[Spec], out: &mut Outcome) -> Result<(Server, f64), String> {
    let state: PathBuf = run.work.join(format!("reprod-{k}"));
    let start = Instant::now();
    let server = Server::start(&run.repro, &state)?;
    let mut client = server.client()?;
    for i in (0..specs.len()).filter(|&i| DATASET_SPECS.contains(&specs[i].name)) {
        let result = serve_job(&mut client, specs, i, false);
        out.check(result.is_ok(), || result.err().unwrap_or_default());
    }
    Ok((server, start.elapsed().as_secs_f64()))
}

/// One pass: the seeded job sequence shared by the closed-loop clients.
fn pass(
    server: &Server,
    specs: &[Spec],
    order: &[usize],
    telemetry: bool,
    out: &mut Outcome,
) -> Result<(f64, Vec<JobRec>), String> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_client: Vec<Result<Vec<Result<JobRec, String>>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut client = server.client()?;
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&spec) = order.get(i) else {
                            return Ok(done);
                        };
                        done.push(serve_job(&mut client, specs, spec, telemetry));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut jobs = Vec::with_capacity(order.len());
    for client in per_client {
        for job in client? {
            out.check(job.is_ok(), || {
                job.as_ref().err().cloned().unwrap_or_default()
            });
            jobs.extend(job.ok());
        }
    }
    Ok((elapsed, jobs))
}

fn telemetry_ms<'a>(jobs: impl Iterator<Item = &'a JobRec>, field: &str) -> Vec<f64> {
    jobs.filter_map(|j| match j.telemetry.as_ref()?.field(field) {
        Ok(Value::UInt(us)) => Some(*us as f64 / 1e3),
        _ => None,
    })
    .collect()
}

pub fn run(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let names: Vec<&'static str> = DATASET_SPECS.iter().chain(&ATTACK_SPECS).copied().collect();
    let specs = names
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let seed = run.derive(100 + i as u64) % 1000;
            Ok(Spec {
                name,
                seed,
                reference: one_shot(&run.repro, name, seed)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let jobs: Vec<usize> = (0..specs.len() * JOBS_PER_SPEC)
        .map(|i| i % specs.len())
        .collect();
    let order = run.shuffled(&jobs);

    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    for k in 0..SETUPS {
        if let Some(previous) = server.take() {
            Server::shutdown(previous)?;
        }
        let (s, secs) = set_up(run, k, &specs, out)?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");

    let started = Instant::now();
    let mut passes = Vec::new();
    let mut latencies = Vec::new();
    while another_pass_fits(run, started, &passes) {
        let (secs, jobs) = pass(&server, &specs, &order, false, out)?;
        passes.push(secs);
        latencies.extend(jobs.iter().map(|j| j.latency_s * 1e3));
    }
    log_times(&setups, &passes);
    let jobs_done = latencies.len();
    if !run.trace {
        out.put(
            "setup_s",
            median(&setups).expect("set-ups ran"),
            setups.len(),
        );
        out.put("pass_s", median(&passes).expect("a pass ran"), passes.len());
        out.put(
            "jobs_per_s",
            jobs_done as f64 / passes.iter().sum::<f64>(),
            jobs_done,
        );
        let rss = host::peak_rss_mb(&server.child.id().to_string())
            .ok_or("cannot read the server's VmHWM")?;
        out.put("peak_rss_mb", rss, 1);
        out.note_disk(host::disk_bytes(&run.work));
        return server.shutdown();
    }

    out.put_opt("reprod.job_p50_ms", percentile(&latencies, 0.5), jobs_done);
    out.put_opt("reprod.job_p90_ms", percentile(&latencies, 0.9), jobs_done);
    // The snapshot connection closes before the clients connect, so the
    // server never sees more than two.
    let metrics = || -> Result<Counters, String> {
        let frame = server.client()?.metrics().map_err(|e| e.to_string())?;
        Ok(Counters::from_value(&frame))
    };
    let before = metrics()?;
    let mut traced = Vec::with_capacity(passes.len());
    let mut jobs = Vec::new();
    for _ in 0..passes.len() {
        let (secs, pass_jobs) = pass(&server, &specs, &order, true, out)?;
        traced.push(secs);
        jobs.extend(pass_jobs);
    }
    let delta = metrics()?.since(&before);
    out.note_disk(host::disk_bytes(&run.work));
    server.shutdown()?;

    out.put(
        "rc4_obs.trace_overhead_pct",
        overhead_pct(mean(&traced), mean(&passes)),
        traced.len(),
    );
    layers::store_and_exec(&delta, traced.len(), out);
    let n = jobs.len();
    for (metric, field) in [
        ("queue_wait_ms", "queue_wait_us"),
        ("budget_wait_ms", "budget_wait_us"),
        ("run_ms", "run_us"),
    ] {
        let samples = telemetry_ms(jobs.iter(), field);
        for (suffix, q) in [("p50", 0.5), ("p90", 0.9)] {
            out.put_opt(
                &format!("rc4_serve.{metric}_{suffix}"),
                percentile(&samples, q),
                samples.len(),
            );
        }
    }
    let rtts: Vec<f64> = jobs.iter().map(|j| j.submit_rtt_s * 1e3).collect();
    out.put_opt("rc4_serve.submit_rtt_ms_p50", percentile(&rtts, 0.5), n);
    out.put("rc4_serve.jobs_failed", delta.get("serve.jobs.failed"), n);
    for (i, spec) in specs.iter().enumerate() {
        let run_ms = telemetry_ms(jobs.iter().filter(|j| j.spec == i), "run_us");
        out.put(
            &format!("rc4_attacks.{}_ms", spec.name),
            mean(&run_ms),
            run_ms.len(),
        );
    }
    probes::recovery(run.derive(2), out)?;
    probes::substrates(run.derive(3), out)?;
    probes::stat_tests(run.derive(4), out)
}
