//! Fig. 10: success rate of brute-forcing a 16-character HTTPS cookie.
//!
//! The paper sweeps the number of captured encryptions of the cookie from
//! `1 x 2^27` to `15 x 2^27` and compares two decision rules: walking a list of
//! roughly `2^23` candidates (generated by Algorithm 2 over the cookie
//! alphabet) versus using only the single most likely candidate. With
//! `9 x 2^27` ciphertexts the candidate-list rule succeeds with ~94%.
//!
//! This driver reproduces the simulation in sampled mode: for every transition
//! of the cookie span it draws Fluhrer–McGrew pair counts and ABSAB
//! differential-vote tables from the analysis distributions, builds the
//! combined likelihoods, runs the list-Viterbi decoder and records where the
//! true cookie lands in the candidate list. The candidate budget and the
//! number of ABSAB relations are configurable so laptop runs finish in
//! minutes; the paper-scale values are documented in the report notes.

use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{DeError, Deserialize, Serialize, Value};

use plaintext_recovery::{
    charset::Charset,
    likelihood::PairLikelihoods,
    viterbi::{list_viterbi, PairCandidate, ViterbiConfig},
};
use rc4_biases::absab::alpha;
use rc4_stats::{
    pairs::{PairDataset, PositionPair},
    streaming::{StreamingCounts, StreamingVotes},
    worker::generate_with_exec,
    GenerationConfig,
};
use tls_rc4::attack::candidate_margin;

use crate::{
    context::ExperimentContext,
    experiment::{Configured, ExperimentConfig},
    experiments::{
        streaming::{
            format_units, headline_note, outcome_row, run_until_confident, StopRule, StreamStop,
        },
        CountSource, PairModel, Scale, DATASET_STREAMS,
    },
    report::{format_percent, ExperimentReport},
    sampling::{sample_standard_normal, stream_seed},
    ExperimentError,
};

/// Configuration of the Fig. 10 simulation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig10Config {
    /// Ciphertext (request) counts to sweep; the paper uses `k x 2^27` for `k in 1..=15`.
    pub request_counts: Vec<u64>,
    /// Simulations per point (the paper uses 256).
    pub trials: usize,
    /// Cookie length in bytes (the paper targets a 16-character cookie).
    pub cookie_len: usize,
    /// Cookie alphabet.
    pub charset: Charset,
    /// Candidate-list budget (the paper uses ~2^23).
    pub candidates: usize,
    /// Number of ABSAB relations contributing per transition (the paper uses 258).
    pub absab_relations: usize,
    /// Keystream position (1-based) of the first cookie byte, fixing the FM cells.
    pub cookie_position: u64,
    /// Where the ground-truth keystream-pair distributions come from:
    /// the analytic FM model (default) or measurement over real keystreams.
    pub source: CountSource,
    /// RNG seed.
    pub seed: u64,
}

/// Hand-written so config files from before the `source` field existed keep
/// deserializing (an absent `source` means the historical analytic mode).
impl Deserialize for Fig10Config {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Self {
            request_counts: Vec::<u64>::from_value(v.field("request_counts")?)?,
            trials: usize::from_value(v.field("trials")?)?,
            cookie_len: usize::from_value(v.field("cookie_len")?)?,
            charset: Charset::from_value(v.field("charset")?)?,
            candidates: usize::from_value(v.field("candidates")?)?,
            absab_relations: usize::from_value(v.field("absab_relations")?)?,
            cookie_position: u64::from_value(v.field("cookie_position")?)?,
            source: match v.field("source") {
                Ok(source) => CountSource::from_value(source)?,
                Err(_) => CountSource::Analytic,
            },
            seed: u64::from_value(v.field("seed")?)?,
        })
    }
}

impl Default for Fig10Config {
    fn default() -> Self {
        Self {
            request_counts: vec![1 << 27, 3 << 27, 5 << 27, 9 << 27, 15 << 27],
            trials: 16,
            cookie_len: 16,
            charset: Charset::base64(),
            candidates: 1 << 13,
            absab_relations: 64,
            cookie_position: 321,
            source: CountSource::Analytic,
            seed: 0xF1610,
        }
    }
}

impl Fig10Config {
    /// Seconds-long configuration for tests.
    pub fn quick() -> Self {
        Self {
            request_counts: vec![1 << 30],
            trials: 2,
            cookie_len: 6,
            candidates: 256,
            absab_relations: 12,
            ..Self::default()
        }
    }

    /// The preset for a [`Scale`].
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Self::quick(),
            Scale::Laptop => Self::default(),
            Scale::Extended => Self {
                request_counts: (1..=15u64).step_by(2).map(|k| k << 27).collect(),
                trials: 64,
                cookie_len: 16,
                candidates: 1 << 17,
                absab_relations: 258,
                ..Self::default()
            },
        }
    }
}

/// Per-point aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig10Point {
    /// Number of captured requests per trial.
    pub requests: u64,
    /// Success rate of the candidate-list brute force.
    pub success_list: f64,
    /// Success rate when only the single most likely candidate is used.
    pub success_top1: f64,
    /// Median position of the true cookie in the candidate list over the trials
    /// in which it appeared at all.
    pub median_position: Option<usize>,
}

/// Known plaintext bytes flanking the cookie (`=` before, `;` after).
const BEFORE: u8 = b'=';
const AFTER: u8 = b';';

/// The list-Viterbi settings shared by every trial: the cookie span between
/// its known boundary bytes, over `charset`, keeping `candidates`.
fn cookie_viterbi(charset: &Charset, candidates: usize) -> ViterbiConfig {
    ViterbiConfig {
        first_known: BEFORE,
        last_known: AFTER,
        candidates,
        charset: charset.clone(),
    }
}

/// The per-transition ground truth of a run: one [`PairModel`] for each of
/// the `cookie_len + 1` pairs from `cookie_position` on (analytic).
fn analytic_transitions(cookie_position: u64, cookie_len: usize) -> Vec<PairModel> {
    (0..=cookie_len)
        .map(|t| PairModel::analytic(cookie_position + t as u64))
        .collect()
}

/// One cookie transition of a [`Fig10Session`]: its true plaintext pair and
/// the FM counts and ABSAB votes accumulated so far.
struct Transition<'m> {
    truth: (u8, u8),
    model: &'m PairModel,
    fm: StreamingCounts,
    votes: StreamingVotes,
}

/// One simulated cookie recovery: the secret cookie plus, per transition of
/// the cookie span, the FM counts and ABSAB votes of every request ingested
/// so far. The fixed-grid driver ingests its `n` once; `fig10-stream`
/// ingests batch by batch and re-decodes after each.
struct Fig10Session<'m> {
    cookie: Vec<u8>,
    transitions: Vec<Transition<'m>>,
    absab_relations: usize,
    /// Sampling distribution of the FM table being drawn, rebuilt per draw.
    scratch: Vec<f64>,
    /// One batch's ABSAB votes for the transition being drawn.
    batch_votes: Vec<f64>,
}

impl<'m> Fig10Session<'m> {
    /// Starts a trial, drawing a random cookie over `charset` from `rng`;
    /// `models` holds one model per transition (`cookie_len + 1`).
    fn new(
        models: &'m [PairModel],
        charset: &Charset,
        absab_relations: usize,
        rng: &mut StdRng,
    ) -> Result<Self, ExperimentError> {
        let alphabet = charset.values();
        let cookie: Vec<u8> = (1..models.len())
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect();
        let full: Vec<u8> = std::iter::once(BEFORE)
            .chain(cookie.iter().copied())
            .chain(std::iter::once(AFTER))
            .collect();
        let transitions = full
            .windows(2)
            .zip(models)
            .map(|(pair, model)| {
                Ok(Transition {
                    truth: (pair[0], pair[1]),
                    model,
                    fm: StreamingCounts::new(65536)?,
                    votes: StreamingVotes::new(65536)?,
                })
            })
            .collect::<Result<_, ExperimentError>>()?;
        Ok(Self {
            cookie,
            transitions,
            absab_relations,
            scratch: vec![0.0; 65536],
            batch_votes: vec![0.0; 65536],
        })
    }

    /// Draws `n` more requests into every transition: the FM pair counts,
    /// then the weighted ABSAB votes of each relation.
    fn ingest(&mut self, n: u64, rng: &mut StdRng) -> Result<(), ExperimentError> {
        let n_f = n as f64;
        for tr in &mut self.transitions {
            tr.fm.absorb(&tr.model.sample_ciphertext_counts(
                tr.truth,
                n,
                &mut self.scratch,
                rng,
            ))?;
            // ABSAB part: accumulate weighted votes per candidate pair
            // directly. For each relation, the count of every differential
            // value is approximately normal; only the true differential has
            // an elevated mean. Summing relation-wise weighted counts gives
            // the combined ABSAB log-likelihood (up to a constant). Votes are
            // linear in counts, so the running table equals the votes of all
            // requests seen so far.
            self.batch_votes.fill(0.0);
            for rel in 0..self.absab_relations {
                let a = alpha(rel % 128);
                let weight = a.ln() - ((1.0 - a) / 65535.0).ln();
                let known = ((rel as u8).wrapping_mul(31), (rel as u8).wrapping_add(7));
                let true_diff_idx =
                    ((tr.truth.0 ^ known.0) as usize) << 8 | (tr.truth.1 ^ known.1) as usize;
                let u = (1.0 - a) / 65535.0;
                let mean_other = n_f * u;
                let sd_other = (n_f * u * (1.0 - u)).sqrt();
                let mean_true = n_f * a;
                let sd_true = (n_f * a * (1.0 - a)).sqrt();
                for d0 in 0..256usize {
                    for d1 in 0..256usize {
                        let idx = (d0 << 8) | d1;
                        let (mean, sd) = if idx == true_diff_idx {
                            (mean_true, sd_true)
                        } else {
                            (mean_other, sd_other)
                        };
                        let draw = mean + sd * sample_standard_normal(rng);
                        // XOR the known plaintext in so the vote lands on the
                        // candidate plaintext pair this differential implies.
                        let mu = ((d0 ^ known.0 as usize) << 8) | (d1 ^ known.1 as usize);
                        self.batch_votes[mu] += weight * draw.max(0.0);
                    }
                }
            }
            tr.votes.absorb(&self.batch_votes)?;
        }
        Ok(())
    }

    /// The combined FM + ABSAB likelihoods of each transition.
    fn likelihoods(&self) -> Result<Vec<PairLikelihoods>, ExperimentError> {
        self.transitions
            .iter()
            .map(|tr| {
                let mut combined = tr.model.fm_likelihoods(&tr.fm)?;
                combined.add_log_values(tr.votes.votes())?;
                Ok(combined)
            })
            .collect()
    }

    /// The ranked cookie candidates of everything ingested so far.
    fn candidates(&self, viterbi: &ViterbiConfig) -> Result<Vec<PairCandidate>, ExperimentError> {
        Ok(list_viterbi(&self.likelihoods()?, viterbi)?)
    }
}

/// Runs the Fig. 10 simulation.
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] for degenerate sweeps and
/// propagates component errors.
pub fn run(config: &Fig10Config) -> Result<(Vec<Fig10Point>, ExperimentReport), ExperimentError> {
    run_with_context(config, &ExperimentContext::default())
}

/// [`run`] under an explicit [`ExperimentContext`]: the context seed is mixed
/// into `config.seed`, progress is reported per sweep point, and cancellation
/// is honoured between trials.
///
/// # Errors
///
/// Everything [`run`] returns, plus [`ExperimentError::Cancelled`].
pub fn run_with_context(
    config: &Fig10Config,
    ctx: &ExperimentContext,
) -> Result<(Vec<Fig10Point>, ExperimentReport), ExperimentError> {
    if config.request_counts.is_empty() || config.trials == 0 || config.cookie_len == 0 {
        return Err(ExperimentError::InvalidConfig(
            "need at least one request count, one trial and a non-empty cookie".into(),
        ));
    }

    let base_seed = ctx.mix_seed(config.seed);

    // One ground-truth keystream-pair distribution per cookie transition
    // (positions cookie_position .. cookie_position + cookie_len), computed
    // once per run: analytic FM tables, or measured from real keystreams via
    // a single pair dataset covering every transition (cache-served).
    let models: Vec<PairModel> = match config.source {
        CountSource::Analytic => analytic_transitions(config.cookie_position, config.cookie_len),
        CountSource::Empirical { keys } => {
            let pairs: Vec<PositionPair> = (0..=config.cookie_len)
                .map(|t| {
                    let a = config.cookie_position as usize + t;
                    PositionPair { a, b: a + 1 }
                })
                .collect();
            // Fixed stream count (dataset identity), threads from the
            // context executor — see `experiments::DATASET_STREAMS`.
            let gen_config = GenerationConfig {
                keys,
                workers: DATASET_STREAMS,
                seed: ctx.mix_seed(config.seed) ^ 0x7E10,
                key_len: 16,
            };
            let ds = ctx.load_or_generate(PairDataset::new(pairs)?, &gen_config, |ds| {
                generate_with_exec(ds, &gen_config, &ctx.executor())?;
                Ok(())
            })?;
            (0..=config.cookie_len)
                .map(|t| {
                    PairModel::new(ds.joint_distribution(t), config.cookie_position + t as u64)
                })
                .collect()
        }
    };
    let viterbi = cookie_viterbi(&config.charset, config.candidates);

    // Monte-Carlo grid: one independent simulation per (point, trial), each
    // seeded from its own RNG stream, fanned out across the executor. The
    // per-trial outcome is the true cookie's candidate-list position, if it
    // made the list at all.
    let trials = config.trials;
    let mut grid = Vec::with_capacity(config.request_counts.len() * trials);
    for point in 0..config.request_counts.len() {
        for trial in 0..trials {
            grid.push((point, trial));
        }
    }
    let reporter = ctx.progress("fig10", grid.len() as u64, "trial");
    let outcomes: Vec<Option<usize>> = ctx
        .executor()
        .map(grid, |_, (point, trial)| {
            let mut rng =
                StdRng::seed_from_u64(stream_seed(base_seed, &[point as u64, trial as u64]));
            ctx.checkpoint()?;
            let mut session =
                Fig10Session::new(&models, &config.charset, config.absab_relations, &mut rng)?;
            session.ingest(config.request_counts[point], &mut rng)?;
            let candidates = session.candidates(&viterbi)?;
            let position = candidates
                .iter()
                .position(|c| c.plaintext == session.cookie);
            reporter.tick(1);
            Ok::<_, ExperimentError>(position)
        })
        .map_err(ExperimentError::from)?;

    let mut points = Vec::with_capacity(config.request_counts.len());
    for (point, &n) in config.request_counts.iter().enumerate() {
        let mut success_list = 0usize;
        let mut success_top1 = 0usize;
        let mut found_positions = Vec::new();
        for pos in outcomes[point * trials..(point + 1) * trials]
            .iter()
            .flatten()
        {
            found_positions.push(*pos);
            success_list += 1;
            if *pos == 0 {
                success_top1 += 1;
            }
        }
        found_positions.sort_unstable();
        let median = if found_positions.is_empty() {
            None
        } else {
            Some(found_positions[found_positions.len() / 2])
        };
        points.push(Fig10Point {
            requests: n,
            success_list: success_list as f64 / trials as f64,
            success_top1: success_top1 as f64 / trials as f64,
            median_position: median,
        });
    }

    let mut report = ExperimentReport::new(
        "fig10",
        "HTTPS cookie brute-force success rate (sampled-mode simulation)",
        &[
            "requests",
            "success (candidate list)",
            "success (1 candidate)",
            "median list position",
        ],
    );
    report.note(format!(
        "{} trials per point, {}-byte cookie over a {}-character alphabet, {} candidates, {} ABSAB relations (paper: 256 trials, 16 bytes, 90 characters, 2^23 candidates, 258 relations)",
        config.trials,
        config.cookie_len,
        config.charset.len(),
        config.candidates,
        config.absab_relations
    ));
    report.note("sampled mode: counts drawn from the analysis distributions (see DESIGN.md substitution #4)".to_string());
    if let CountSource::Empirical { keys } = config.source {
        report.note(format!(
            "empirical ground truth: per-transition pair distributions measured from {keys} keystreams"
        ));
    }
    for p in &points {
        report.push_row(&[
            format!(
                "{} (x2^27: {:.2})",
                p.requests,
                p.requests as f64 / (1u64 << 27) as f64
            ),
            format_percent(p.success_list),
            format_percent(p.success_top1),
            p.median_position
                .map(|m| m.to_string())
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    Ok((points, report))
}

/// [`Experiment`](crate::Experiment) carrier for the Fig. 10 HTTPS cookie brute-force sweep.
pub type Fig10Experiment = Configured<Fig10Config>;

impl ExperimentConfig for Fig10Config {
    const NAME: &'static str = "fig10";
    const SUMMARY: &'static str = "HTTPS cookie brute-force success rate, sampled mode (Sect. 6)";

    fn preset(scale: Scale) -> Self {
        Self::for_scale(scale)
    }

    fn run(&self, ctx: &ExperimentContext) -> Result<ExperimentReport, ExperimentError> {
        run_with_context(self, ctx).map(|(_points, report)| report)
    }
}

/// Configuration of the streaming cookie recovery (`fig10 --until-confident`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10StreamConfig {
    /// Independent streaming sessions to simulate.
    pub trials: usize,
    /// Cookie length in bytes.
    pub cookie_len: usize,
    /// Cookie alphabet.
    pub charset: Charset,
    /// Candidate-list budget per re-score.
    pub candidates: usize,
    /// ABSAB relations contributing per transition.
    pub absab_relations: usize,
    /// Keystream position (1-based) of the first cookie byte.
    pub cookie_position: u64,
    /// The early-stopping rule (units: captured requests).
    pub stop: StopRule,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig10StreamConfig {
    fn default() -> Self {
        Self::for_scale(Scale::Laptop)
    }
}

impl Fig10StreamConfig {
    /// The preset for a [`Scale`].
    pub fn for_scale(scale: Scale) -> Self {
        let base = Self {
            trials: 8,
            cookie_len: 8,
            charset: Charset::base64(),
            candidates: 1 << 10,
            absab_relations: 24,
            cookie_position: 321,
            stop: StopRule {
                threshold: 10.0,
                batch: 1 << 28,
                cap: 1 << 33,
            },
            seed: 0x57F10,
        };
        match scale {
            Scale::Quick => Self {
                trials: 2,
                cookie_len: 4,
                candidates: 128,
                absab_relations: 12,
                stop: StopRule {
                    threshold: 10.0,
                    batch: 1 << 29,
                    cap: 1 << 33,
                },
                ..base
            },
            Scale::Laptop => base,
            Scale::Extended => Self {
                trials: 32,
                cookie_len: 16,
                candidates: 1 << 15,
                absab_relations: 258,
                stop: StopRule {
                    threshold: 10.0,
                    batch: 1 << 28,
                    cap: 1 << 35,
                },
                ..base
            },
        }
    }
}

/// Runs one streaming fig10 session: ingest batches, re-decode the
/// accumulated tables, stop at the first confident batch or at the cap.
/// Returns where it stopped and whether the top candidate was the cookie.
pub(super) fn fig10_stream_trial(
    config: &Fig10StreamConfig,
    models: &[PairModel],
    rng: &mut StdRng,
    ctx: &ExperimentContext,
) -> Result<(StreamStop, bool), ExperimentError> {
    let mut session = Fig10Session::new(models, &config.charset, config.absab_relations, rng)?;
    let viterbi = cookie_viterbi(&config.charset, config.candidates);
    run_until_confident(&config.stop, ctx, |batch| {
        session.ingest(batch, rng)?;
        let candidates = session.candidates(&viterbi)?;
        Ok((
            candidate_margin(&candidates).unwrap_or(0.0),
            candidates
                .first()
                .is_some_and(|c| c.plaintext == session.cookie),
        ))
    })
}

/// Runs the streaming fig10 experiment under an explicit context.
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] for degenerate configurations,
/// [`ExperimentError::Cancelled`] when the context flag is raised, and
/// propagates component errors.
pub fn run_fig10_stream(
    config: &Fig10StreamConfig,
    ctx: &ExperimentContext,
) -> Result<ExperimentReport, ExperimentError> {
    if config.trials == 0 || config.cookie_len == 0 || config.candidates == 0 {
        return Err(ExperimentError::InvalidConfig(
            "need at least one trial, a non-empty cookie and a candidate budget".into(),
        ));
    }
    config.stop.test()?;
    let models = analytic_transitions(config.cookie_position, config.cookie_len);

    let base_seed = ctx.mix_seed(config.seed);
    let reporter = ctx.progress("fig10-stream", config.trials as u64, "trial");
    let outcomes: Vec<(StreamStop, bool)> = ctx
        .executor()
        .map((0..config.trials).collect(), |_, trial| {
            ctx.checkpoint()?;
            let mut rng = StdRng::seed_from_u64(stream_seed(base_seed, &[trial as u64]));
            let outcome = fig10_stream_trial(config, &models, &mut rng, ctx)?;
            reporter.tick(1);
            Ok::<_, ExperimentError>(outcome)
        })
        .map_err(ExperimentError::from)?;

    let mut report = ExperimentReport::new(
        "fig10-stream",
        "Streaming cookie recovery: requests consumed until confident",
        &[
            "trial",
            "requests at stop",
            "stopped",
            "margin",
            "cookie recovered",
        ],
    );
    headline_note(&mut report, &outcomes, "request", config.stop.cap);
    report.note(format!(
        "stop rule: top-candidate margin ≥ {} nats, re-scored every {} requests, cap {}; \
         {}-byte cookie over {} characters, {} candidates, {} ABSAB relations, sampled mode",
        config.stop.threshold,
        format_units(config.stop.batch),
        format_units(config.stop.cap),
        config.cookie_len,
        config.charset.len(),
        config.candidates,
        config.absab_relations
    ));
    for (trial, outcome) in outcomes.iter().enumerate() {
        report.push_row(&outcome_row(trial, outcome));
    }
    Ok(report)
}

/// [`Experiment`](crate::Experiment) carrier for the streaming fig10 variant.
pub type Fig10StreamExperiment = Configured<Fig10StreamConfig>;

impl ExperimentConfig for Fig10StreamConfig {
    const NAME: &'static str = "fig10-stream";
    const SUMMARY: &'static str =
        "Streaming cookie recovery with early stopping (fig10 --until-confident)";

    fn preset(scale: Scale) -> Self {
        Self::for_scale(scale)
    }

    fn run(&self, ctx: &ExperimentContext) -> Result<ExperimentReport, ExperimentError> {
        run_fig10_stream(self, ctx)
    }
}

#[cfg(test)]
mod tests {
    use rc4_biases::{distributions::PairDistribution, fm, UNIFORM_PAIR};

    use super::*;
    use crate::sampling::sample_counts_normal;
    use crate::{experiment::config_to_value, Experiment};

    /// A fixed-grid trial's per-transition tables as computed before the
    /// session existed: per transition, FM counts then the ABSAB votes, each
    /// scored on its own and combined.
    fn reference_trial(
        n: u64,
        cookie_len: usize,
        absab_relations: usize,
        cookie_position: u64,
        charset: &Charset,
        rng: &mut StdRng,
    ) -> Vec<PairLikelihoods> {
        let alphabet = charset.values();
        let cookie: Vec<u8> = (0..cookie_len)
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect();
        let full: Vec<u8> = std::iter::once(b'=')
            .chain(cookie.iter().copied())
            .chain(std::iter::once(b';'))
            .collect();
        let mut likelihoods = Vec::new();
        for t in 0..=cookie_len {
            let truth = (full[t], full[t + 1]);
            let position = cookie_position + t as u64;
            let fm_dist = PairDistribution::fluhrer_mcgrew(position);
            let mut ct_probs = vec![0.0f64; 65536];
            for k1 in 0..256usize {
                for k2 in 0..256usize {
                    ct_probs[((k1 ^ truth.0 as usize) << 8) | (k2 ^ truth.1 as usize)] =
                        fm_dist.prob(k1 as u8, k2 as u8);
                }
            }
            let counts = sample_counts_normal(&ct_probs, n, rng);
            let cells: Vec<(u8, u8, f64)> = fm::fm_biases_at(position)
                .into_iter()
                .map(|b| (b.first, b.second, b.probability))
                .collect();
            let mut combined = PairLikelihoods::from_counts_sparse(
                &counts,
                &cells,
                UNIFORM_PAIR,
                counts.iter().sum(),
            )
            .unwrap();
            let mut votes = vec![0.0f64; 65536];
            for rel in 0..absab_relations {
                let a = alpha(rel % 128);
                let weight = a.ln() - ((1.0 - a) / 65535.0).ln();
                let known = ((rel as u8).wrapping_mul(31), (rel as u8).wrapping_add(7));
                let true_diff_idx =
                    ((truth.0 ^ known.0) as usize) << 8 | (truth.1 ^ known.1) as usize;
                let (u, n_f) = ((1.0 - a) / 65535.0, n as f64);
                for idx in 0..65536usize {
                    let (mean, sd) = if idx == true_diff_idx {
                        (n_f * a, (n_f * a * (1.0 - a)).sqrt())
                    } else {
                        (n_f * u, (n_f * u * (1.0 - u)).sqrt())
                    };
                    let draw = mean + sd * sample_standard_normal(rng);
                    let mu =
                        (((idx >> 8) ^ known.0 as usize) << 8) | ((idx & 0xff) ^ known.1 as usize);
                    votes[mu] += weight * draw.max(0.0);
                }
            }
            combined.combine(&PairLikelihoods::from_log_values(votes).unwrap());
            likelihoods.push(combined);
        }
        likelihoods
    }

    fn bits(tables: &[PairLikelihoods]) -> Vec<Vec<u64>> {
        tables
            .iter()
            .map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn fixed_trial_at_n_equals_first_stream_batch_of_n() {
        // Every per-transition table of a fixed-grid trial at n equals the
        // streaming session's after one batch of n, and the RNG ends in the
        // same state — bit for bit.
        let charset = Charset::hex_lower();
        let models = analytic_transitions(321, 3);
        let ctx = ExperimentContext::default();
        for (seed, n, relations) in [(1u64, 1u64 << 27, 4usize), (2, 9 << 27, 6), (3, 1 << 33, 2)] {
            let mut reference_rng = StdRng::seed_from_u64(seed);
            let reference = reference_trial(n, 3, relations, 321, &charset, &mut reference_rng);
            let next_draw = reference_rng.gen::<u64>();

            // The fixed-grid driver: one ingest of n.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fixed = Fig10Session::new(&models, &charset, relations, &mut rng).unwrap();
            fixed.ingest(n, &mut rng).unwrap();
            assert_eq!(
                bits(&fixed.likelihoods().unwrap()),
                bits(&reference),
                "seed {seed}"
            );
            assert_eq!(rng.gen::<u64>(), next_draw, "seed {seed}");

            // The streaming driver: the stop loop with one batch of n.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut session = Fig10Session::new(&models, &charset, relations, &mut rng).unwrap();
            let stop = StopRule {
                threshold: 1e15,
                batch: n,
                cap: n,
            };
            let (_, streamed) = run_until_confident(&stop, &ctx, |batch| {
                session.ingest(batch, &mut rng)?;
                Ok((0.0, session.likelihoods()?))
            })
            .unwrap();
            assert_eq!(bits(&streamed), bits(&reference), "seed {seed}");
            assert_eq!(rng.gen::<u64>(), next_draw, "seed {seed}");
        }
    }

    #[test]
    fn validation() {
        let bad = Fig10Config {
            request_counts: vec![],
            ..Fig10Config::quick()
        };
        assert!(run(&bad).is_err());
    }

    #[test]
    fn config_serde_roundtrip_including_charset() {
        let config = Fig10Config::for_scale(Scale::Quick);
        let json = serde_json::to_string(&config).unwrap();
        let back: Fig10Config = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn trait_run_matches_free_function_and_cancels() {
        let config = Fig10Config {
            request_counts: vec![1 << 28],
            trials: 1,
            cookie_len: 3,
            candidates: 32,
            absab_relations: 4,
            charset: Charset::hex_lower(),
            ..Fig10Config::quick()
        };
        let mut exp = Fig10Experiment::new();
        exp.set_config_value(&config_to_value(&config)).unwrap();
        let via_trait = exp.run(&ExperimentContext::default()).unwrap();
        let (_, direct) = run(&config).unwrap();
        assert_eq!(via_trait, direct);

        let handle = crate::context::CancelHandle::new();
        handle.cancel();
        let ctx = ExperimentContext::default().with_cancel(handle);
        assert_eq!(exp.run(&ctx), Err(ExperimentError::Cancelled));
    }

    #[test]
    fn config_without_source_field_defaults_to_analytic() {
        let mut legacy = serde_json::to_string(&Fig10Config::quick()).unwrap();
        // Strip the `source` object to simulate a pre-`source` config file.
        legacy = legacy.replace(r#""source":{"kind":"analytic"},"#, "");
        assert!(!legacy.contains("source"));
        let config: Fig10Config = serde_json::from_str(&legacy).unwrap();
        assert_eq!(config.source, CountSource::Analytic);
        assert_eq!(config, Fig10Config::quick());
    }

    #[test]
    fn empirical_source_runs_with_cache_and_matches_fresh() {
        let config = Fig10Config {
            request_counts: vec![1 << 30],
            trials: 1,
            cookie_len: 3,
            candidates: 32,
            absab_relations: 4,
            charset: Charset::hex_lower(),
            source: CountSource::Empirical { keys: 1 << 12 },
            ..Fig10Config::quick()
        };
        let (_, fresh) = run(&config).unwrap();
        assert!(fresh
            .notes
            .iter()
            .any(|n| n.contains("empirical ground truth")));

        let dir = std::env::temp_dir().join(format!("fig10-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = ExperimentContext::default().with_cache_dir(&dir).unwrap();
        let (_, miss) = run_with_context(&config, &ctx).unwrap();
        let (_, hit) = run_with_context(&config, &ctx).unwrap();
        assert_eq!(miss, fresh);
        assert_eq!(hit, fresh);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn candidate_list_beats_single_candidate_and_succeeds_at_large_n() {
        let config = Fig10Config {
            request_counts: vec![1 << 33],
            trials: 2,
            cookie_len: 5,
            candidates: 512,
            absab_relations: 48,
            charset: Charset::hex_lower(),
            ..Fig10Config::quick()
        };
        let (points, report) = run(&config).unwrap();
        assert_eq!(points.len(), 1);
        let p = points[0];
        assert!(p.success_list >= p.success_top1);
        assert!(
            p.success_list > 0.4,
            "candidate-list success too low: {:?}\n{}",
            p,
            report.render()
        );
    }
}
