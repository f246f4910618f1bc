//! Fig. 7: average success rate of decrypting two plaintext bytes with
//! (1) a single ABSAB relation, (2) the Fluhrer–McGrew biases, and (3) the
//! combination of FM with many ABSAB relations.
//!
//! The paper runs 2048 simulations per point over ciphertext counts from
//! `2^27` to `2^39`. This driver reproduces the simulation in *sampled mode*:
//! the per-pair ciphertext counts and per-relation differential counts are
//! drawn from the exact distributions the analysis assumes (normal
//! approximation per cell), which makes paper-scale ciphertext counts
//! affordable. The qualitative result — combined ≫ FM-only ≫ single ABSAB,
//! with the crossover to near-certain recovery moving left as biases are
//! added — is what the experiment checks.

use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{DeError, Deserialize, Serialize, Value};

use plaintext_recovery::likelihood::PairLikelihoods;
use rc4_biases::absab::alpha;
use rc4_stats::{
    pairs::{PairDataset, PositionPair},
    streaming::StreamingCounts,
    worker::generate_with_exec,
    GenerationConfig,
};

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
    sampling::{sample_counts_normal, stream_seed},
    ExperimentError,
};

/// Which bias families a simulated recovery uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStrategy {
    /// A single ABSAB relation with gap 0.
    AbsabOnly,
    /// The Fluhrer–McGrew biases at the target position.
    FmOnly,
    /// FM combined with `absab_relations` ABSAB relations.
    Combined,
}

impl RecoveryStrategy {
    /// Display label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryStrategy::AbsabOnly => "ABSAB only",
            RecoveryStrategy::FmOnly => "FM only",
            RecoveryStrategy::Combined => "Combined",
        }
    }
}

/// Configuration of the Fig. 7 simulation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig7Config {
    /// Ciphertext counts to sweep (the paper sweeps `2^27 ..= 2^39`).
    pub ciphertext_counts: Vec<u64>,
    /// Simulations per point (the paper uses 2048).
    pub trials: usize,
    /// Number of ABSAB relations available in the combined strategy
    /// (the paper uses `2 * 129 = 258` with a maximum gap of 128).
    pub absab_relations: usize,
    /// Keystream position of the unknown pair (determines the FM cells).
    pub position: u64,
    /// Where the ground-truth keystream-pair distribution comes from:
    /// the analytic FM model (default) or measurement over real keystreams.
    pub source: CountSource,
    /// RNG seed.
    pub seed: u64,
}

/// Hand-written so config files from before the `source` field existed keep
/// deserializing (an absent `source` means the historical analytic mode).
impl Deserialize for Fig7Config {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Self {
            ciphertext_counts: Vec::<u64>::from_value(v.field("ciphertext_counts")?)?,
            trials: usize::from_value(v.field("trials")?)?,
            absab_relations: usize::from_value(v.field("absab_relations")?)?,
            position: u64::from_value(v.field("position")?)?,
            source: match v.field("source") {
                Ok(source) => CountSource::from_value(source)?,
                Err(_) => CountSource::Analytic,
            },
            seed: u64::from_value(v.field("seed")?)?,
        })
    }
}

impl Default for Fig7Config {
    fn default() -> Self {
        Self {
            ciphertext_counts: vec![1 << 27, 1 << 29, 1 << 31, 1 << 33, 1 << 35, 1 << 37],
            trials: 64,
            absab_relations: 258,
            position: 257,
            source: CountSource::Analytic,
            seed: 0xF167,
        }
    }
}

impl Fig7Config {
    /// A seconds-long configuration for tests.
    pub fn quick() -> Self {
        Self {
            ciphertext_counts: vec![1 << 29, 1 << 35],
            trials: 8,
            absab_relations: 32,
            ..Self::default()
        }
    }

    /// The preset for a [`Scale`].
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Self::quick(),
            Scale::Laptop => Self {
                ciphertext_counts: vec![1 << 27, 1 << 29, 1 << 31, 1 << 33, 1 << 35],
                trials: 32,
                absab_relations: 64,
                ..Self::default()
            },
            Scale::Extended => Self {
                ciphertext_counts: vec![
                    1 << 27,
                    1 << 29,
                    1 << 31,
                    1 << 33,
                    1 << 35,
                    1 << 37,
                    1 << 39,
                ],
                trials: 128,
                absab_relations: 258,
                ..Self::default()
            },
        }
    }
}

/// One ABSAB relation of a [`Fig7Session`]: the known plaintext pair, the
/// bias `α` of its gap, and the differential counts accumulated so far.
struct AbsabRelation {
    known: (u8, u8),
    alpha: f64,
    acc: StreamingCounts,
}

/// One simulated recovery of a plaintext pair: the secret pair plus the FM
/// and ABSAB counts of every ciphertext ingested so far. The fixed-grid
/// driver ingests its `n` once; `fig7-stream` ingests batch by batch and
/// re-scores after each. The FM-only strategy is a session without
/// relations, the ABSAB-only strategy one without the FM part.
struct Fig7Session<'m> {
    truth: (u8, u8),
    model: &'m PairModel,
    fm: Option<StreamingCounts>,
    relations: Vec<AbsabRelation>,
    /// Sampling distribution of the table being drawn, rebuilt per draw.
    scratch: Vec<f64>,
}

impl<'m> Fig7Session<'m> {
    /// Starts a trial of `strategy`, drawing the secret pair from `rng`.
    fn new(
        strategy: RecoveryStrategy,
        absab_relations: usize,
        model: &'m PairModel,
        rng: &mut StdRng,
    ) -> Result<Self, ExperimentError> {
        let truth: (u8, u8) = (rng.gen(), rng.gen());
        let (use_fm, relations) = match strategy {
            // A single relation with gap 0.
            RecoveryStrategy::AbsabOnly => (false, 1),
            RecoveryStrategy::FmOnly => (true, 0),
            RecoveryStrategy::Combined => (true, absab_relations),
        };
        let fm = use_fm.then(|| StreamingCounts::new(65536)).transpose()?;
        let relations = (0..relations)
            .map(|rel| {
                // Gaps cycle 0..=127 on both sides, mirroring the paper's
                // setup; the known pair is arbitrary but known.
                let gap = rel % 128;
                Ok(AbsabRelation {
                    known: ((gap as u8).wrapping_mul(17), (gap as u8).wrapping_add(91)),
                    alpha: alpha(gap),
                    acc: StreamingCounts::new(65536)?,
                })
            })
            .collect::<Result<_, ExperimentError>>()?;
        Ok(Self {
            truth,
            model,
            fm,
            relations,
            scratch: vec![0.0; 65536],
        })
    }

    /// Draws the counts of `n` more ciphertexts into the accumulators: the
    /// FM pair counts first, then each relation's differential counts.
    fn ingest(&mut self, n: u64, rng: &mut StdRng) -> Result<(), ExperimentError> {
        if let Some(fm) = &mut self.fm {
            fm.absorb(
                &self
                    .model
                    .sample_ciphertext_counts(self.truth, n, &mut self.scratch, rng),
            )?;
        }
        for rel in &mut self.relations {
            // Differential distribution: the true differential with
            // probability alpha, everything else uniform.
            let true_diff = (self.truth.0 ^ rel.known.0, self.truth.1 ^ rel.known.1);
            self.scratch.fill((1.0 - rel.alpha) / 65535.0);
            self.scratch[(true_diff.0 as usize) << 8 | true_diff.1 as usize] = rel.alpha;
            rel.acc
                .absorb(&sample_counts_normal(&self.scratch, n, rng))?;
        }
        Ok(())
    }

    /// The combined likelihoods of everything ingested so far (Eq. 25): the
    /// FM table plus, per relation in order, the ABSAB score of
    /// `plaintext_recovery::absab::absab_pair_likelihoods`, computed directly
    /// on the accumulated differential-count table.
    fn score(&self) -> Result<PairLikelihoods, ExperimentError> {
        let mut log = match &self.fm {
            Some(fm) => self.model.fm_likelihoods(fm)?.as_slice().to_vec(),
            None => vec![0.0; 65536],
        };
        for rel in &self.relations {
            let total = rel.acc.total() as f64;
            let ln_alpha = rel.alpha.ln();
            let ln_rest = ((1.0 - rel.alpha) / 65535.0).ln();
            let counts = rel.acc.counts();
            for (mu1, row) in log.chunks_mut(256).enumerate() {
                let d0 = mu1 ^ rel.known.0 as usize;
                let counts_row = &counts[(d0 << 8)..(d0 << 8) + 256];
                for (mu2, slot) in row.iter_mut().enumerate() {
                    let hits = counts_row[mu2 ^ rel.known.1 as usize] as f64;
                    *slot += (total - hits) * ln_rest + hits * ln_alpha;
                }
            }
        }
        Ok(PairLikelihoods::from_log_values(log)?)
    }
}

/// Runs the Fig. 7 experiment and reports the success rate per strategy and
/// ciphertext count.
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] for empty sweeps and propagates
/// component errors.
pub fn run(config: &Fig7Config) -> Result<ExperimentReport, ExperimentError> {
    run_with_context(config, &ExperimentContext::default())
}

/// [`run`] under an explicit [`ExperimentContext`]: the context seed is mixed
/// into `config.seed`, progress is reported per sweep point, and the
/// cancellation flag is honoured between trials.
///
/// # Errors
///
/// Everything [`run`] returns, plus [`ExperimentError::Cancelled`].
pub fn run_with_context(
    config: &Fig7Config,
    ctx: &ExperimentContext,
) -> Result<ExperimentReport, ExperimentError> {
    if config.ciphertext_counts.is_empty() || config.trials == 0 {
        return Err(ExperimentError::InvalidConfig(
            "need at least one ciphertext count and one trial".into(),
        ));
    }
    // Ground-truth keystream-pair distribution for the target position:
    // analytic FM model, or measured from real keystreams (cache-served).
    let model = match config.source {
        CountSource::Analytic => PairModel::analytic(config.position),
        CountSource::Empirical { keys } => {
            let position = config.position as usize;
            // Fixed stream count (dataset identity), threads from the
            // context executor — see `experiments::DATASET_STREAMS`.
            let gen_config = GenerationConfig {
                keys,
                workers: DATASET_STREAMS,
                seed: ctx.mix_seed(config.seed) ^ 0x7E1,
                key_len: 16,
            };
            let ds = ctx.load_or_generate(
                PairDataset::new(vec![PositionPair {
                    a: position,
                    b: position + 1,
                }])?,
                &gen_config,
                |ds| {
                    generate_with_exec(ds, &gen_config, &ctx.executor())?;
                    Ok(())
                },
            )?;
            PairModel::new(ds.joint_distribution(0), config.position)
        }
    };

    let mut report = ExperimentReport::new(
        "fig7",
        "Success rate of decrypting two bytes (sampled-mode simulation)",
        &["ciphertexts", "ABSAB only", "FM only", "Combined"],
    );
    report.note(format!(
        "{} trials per point, {} ABSAB relations in the combined strategy (paper: 2048 trials, 258 relations)",
        config.trials, config.absab_relations
    ));
    report.note(
        "sampled mode: counts drawn from the analysis distributions (normal approximation)"
            .to_string(),
    );
    if let CountSource::Empirical { keys } = config.source {
        report.note(format!(
            "empirical ground truth: pair distribution at position {} measured from {keys} keystreams",
            config.position
        ));
    }

    // Monte-Carlo grid: every (point, strategy, trial) cell is an
    // independent simulation seeded from its own RNG stream, so the whole
    // grid fans out across the executor and the aggregate rates are
    // byte-identical for any worker count.
    const STRATEGIES: [RecoveryStrategy; 3] = [
        RecoveryStrategy::AbsabOnly,
        RecoveryStrategy::FmOnly,
        RecoveryStrategy::Combined,
    ];
    let base_seed = ctx.mix_seed(config.seed);
    let trials = config.trials;
    let mut grid = Vec::with_capacity(config.ciphertext_counts.len() * STRATEGIES.len() * trials);
    for point in 0..config.ciphertext_counts.len() {
        for strategy in 0..STRATEGIES.len() {
            for trial in 0..trials {
                grid.push((point, strategy, trial));
            }
        }
    }
    let reporter = ctx.progress("fig7", grid.len() as u64, "trial");
    let outcomes: Vec<bool> = ctx
        .executor()
        .map(grid, |_, (point, strategy, trial)| {
            let mut rng = StdRng::seed_from_u64(stream_seed(
                base_seed,
                &[point as u64, strategy as u64, trial as u64],
            ));
            let mut session = Fig7Session::new(
                STRATEGIES[strategy],
                config.absab_relations,
                &model,
                &mut rng,
            )?;
            session.ingest(config.ciphertext_counts[point], &mut rng)?;
            let success = session.score()?.best() == session.truth;
            reporter.tick(1);
            Ok::<_, ExperimentError>(success)
        })
        .map_err(ExperimentError::from)?;

    for (point, &n) in config.ciphertext_counts.iter().enumerate() {
        let rate = |strategy: usize| {
            let first = (point * STRATEGIES.len() + strategy) * trials;
            let successes = outcomes[first..first + trials]
                .iter()
                .filter(|&&s| s)
                .count();
            format_percent(successes as f64 / trials as f64)
        };
        report.push_row(&[
            format!("2^{:.1}", (n as f64).log2()),
            rate(0),
            rate(1),
            rate(2),
        ]);
    }
    Ok(report)
}

/// [`Experiment`](crate::Experiment) carrier for the Fig. 7 two-byte recovery simulation.
pub type Fig7Experiment = Configured<Fig7Config>;

impl ExperimentConfig for Fig7Config {
    const NAME: &'static str = "fig7";
    const SUMMARY: &'static str =
        "Success rate of decrypting two bytes: ABSAB vs FM vs combined (Sect. 4.3)";

    fn preset(scale: Scale) -> Self {
        Self::for_scale(scale)
    }

    fn run(&self, ctx: &ExperimentContext) -> Result<ExperimentReport, ExperimentError> {
        run_with_context(self, ctx)
    }
}

/// Configuration of the streaming two-byte recovery (`fig7 --until-confident`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7StreamConfig {
    /// Independent streaming sessions to simulate.
    pub trials: usize,
    /// ABSAB relations combined with the FM biases (as in `fig7`'s combined
    /// strategy).
    pub absab_relations: usize,
    /// Keystream position of the unknown pair (determines the FM cells).
    pub position: u64,
    /// The early-stopping rule (units: ciphertexts).
    pub stop: StopRule,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig7StreamConfig {
    fn default() -> Self {
        Self::for_scale(Scale::Laptop)
    }
}

impl Fig7StreamConfig {
    /// The preset for a [`Scale`].
    pub fn for_scale(scale: Scale) -> Self {
        let base = Self {
            trials: 16,
            absab_relations: 64,
            position: 257,
            stop: StopRule {
                threshold: 10.0,
                batch: 1 << 30,
                cap: 1 << 35,
            },
            seed: 0x57F7,
        };
        match scale {
            Scale::Quick => Self {
                trials: 4,
                absab_relations: 32,
                stop: StopRule {
                    threshold: 10.0,
                    batch: 1 << 31,
                    cap: 1 << 35,
                },
                ..base
            },
            Scale::Laptop => base,
            Scale::Extended => Self {
                trials: 64,
                absab_relations: 258,
                stop: StopRule {
                    threshold: 10.0,
                    batch: 1 << 30,
                    cap: 1 << 37,
                },
                ..base
            },
        }
    }
}

/// Runs one streaming fig7 session (the combined strategy): ingest batches,
/// re-score the accumulated tables, stop at the first confident batch or at
/// the cap. Returns where it stopped and whether the top pair was the truth.
pub(super) fn fig7_stream_trial(
    config: &Fig7StreamConfig,
    model: &PairModel,
    rng: &mut StdRng,
    ctx: &ExperimentContext,
) -> Result<(StreamStop, bool), ExperimentError> {
    let mut session = Fig7Session::new(
        RecoveryStrategy::Combined,
        config.absab_relations,
        model,
        rng,
    )?;
    run_until_confident(&config.stop, ctx, |batch| {
        session.ingest(batch, rng)?;
        let combined = session.score()?;
        Ok((combined.margin(), combined.best() == session.truth))
    })
}

/// Runs the streaming fig7 experiment under an explicit context.
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] for degenerate configurations,
/// [`ExperimentError::Cancelled`] when the context flag is raised, and
/// propagates component errors.
pub fn run_fig7_stream(
    config: &Fig7StreamConfig,
    ctx: &ExperimentContext,
) -> Result<ExperimentReport, ExperimentError> {
    if config.trials == 0 {
        return Err(ExperimentError::InvalidConfig(
            "need at least one streaming trial".into(),
        ));
    }
    config.stop.test()?;
    let model = PairModel::analytic(config.position);

    // Every trial is an independent streaming session on its own RNG stream,
    // fanned out across the executor: byte-identical for any worker count.
    let base_seed = ctx.mix_seed(config.seed);
    let reporter = ctx.progress("fig7-stream", config.trials as u64, "trial");
    let outcomes: Vec<(StreamStop, bool)> = ctx
        .executor()
        .map((0..config.trials).collect(), |_, trial| {
            ctx.checkpoint()?;
            let mut rng = StdRng::seed_from_u64(stream_seed(base_seed, &[trial as u64]));
            let outcome = fig7_stream_trial(config, &model, &mut rng, ctx)?;
            reporter.tick(1);
            Ok::<_, ExperimentError>(outcome)
        })
        .map_err(ExperimentError::from)?;

    let mut report = ExperimentReport::new(
        "fig7-stream",
        "Streaming two-byte recovery: ciphertexts consumed until confident",
        &[
            "trial",
            "ciphertexts at stop",
            "stopped",
            "margin",
            "correct",
        ],
    );
    headline_note(&mut report, &outcomes, "ciphertext", config.stop.cap);
    report.note(format!(
        "stop rule: top-candidate margin ≥ {} nats, re-scored every {} ciphertexts, cap {}; \
         FM + {} ABSAB relations, sampled mode",
        config.stop.threshold,
        format_units(config.stop.batch),
        format_units(config.stop.cap),
        config.absab_relations
    ));
    for (trial, outcome) in outcomes.iter().enumerate() {
        report.push_row(&outcome_row(trial, outcome));
    }
    Ok(report)
}

/// [`Experiment`](crate::Experiment) carrier for the streaming fig7 variant.
pub type Fig7StreamExperiment = Configured<Fig7StreamConfig>;

impl ExperimentConfig for Fig7StreamConfig {
    const NAME: &'static str = "fig7-stream";
    const SUMMARY: &'static str =
        "Streaming two-byte recovery with early stopping (fig7 --until-confident)";

    fn preset(scale: Scale) -> Self {
        Self::for_scale(scale)
    }

    fn run(&self, ctx: &ExperimentContext) -> Result<ExperimentReport, ExperimentError> {
        run_fig7_stream(self, ctx)
    }
}

/// Extracts the success rates from a Fig. 7 report row for programmatic checks.
pub fn parse_rates(report: &ExperimentReport, row: usize) -> (f64, f64, f64) {
    let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap_or(0.0) / 100.0;
    let cells = &report.rows[row].cells;
    (parse(&cells[1]), parse(&cells[2]), parse(&cells[3]))
}

#[cfg(test)]
mod tests {
    use plaintext_recovery::absab::combine_pair_likelihoods;
    use rc4_biases::{distributions::PairDistribution, fm, UNIFORM_PAIR};

    use super::*;
    use crate::{experiment::config_to_value, Experiment};

    /// A fixed-grid Combined trial as computed before the session existed:
    /// every table sampled and scored on its own, then summed (Eq. 25).
    fn reference_combined_trial(
        n: u64,
        absab_relations: usize,
        position: u64,
        rng: &mut StdRng,
    ) -> PairLikelihoods {
        let truth: (u8, u8) = (rng.gen(), rng.gen());
        let fm_dist = PairDistribution::fluhrer_mcgrew(position);
        let mut ct_probs = vec![0.0f64; 65536];
        for k1 in 0..256usize {
            for k2 in 0..256usize {
                ct_probs[((k1 ^ truth.0 as usize) << 8) | (k2 ^ truth.1 as usize)] =
                    fm_dist.prob(k1 as u8, k2 as u8);
            }
        }
        let cells: Vec<(u8, u8, f64)> = fm::fm_biases_at(position)
            .into_iter()
            .map(|b| (b.first, b.second, b.probability))
            .collect();
        let counts = sample_counts_normal(&ct_probs, n, rng);
        let total = counts.iter().sum();
        let mut parts =
            vec![
                PairLikelihoods::from_counts_sparse(&counts, &cells, UNIFORM_PAIR, total).unwrap(),
            ];
        for rel in 0..absab_relations {
            let gap = rel % 128;
            let known = ((gap as u8).wrapping_mul(17), (gap as u8).wrapping_add(91));
            let a = alpha(gap);
            let mut probs = vec![(1.0 - a) / 65535.0; 65536];
            probs[((truth.0 ^ known.0) as usize) << 8 | (truth.1 ^ known.1) as usize] = a;
            let counts = sample_counts_normal(&probs, n, rng);
            let total = counts.iter().sum::<u64>() as f64;
            let (ln_alpha, ln_rest) = (a.ln(), ((1.0 - a) / 65535.0).ln());
            let mut log = vec![0.0f64; 65536];
            for mu1 in 0..256usize {
                for mu2 in 0..256usize {
                    let d = ((mu1 ^ known.0 as usize) << 8) | (mu2 ^ known.1 as usize);
                    let hits = counts[d] as f64;
                    log[(mu1 << 8) | mu2] = (total - hits) * ln_rest + hits * ln_alpha;
                }
            }
            parts.push(PairLikelihoods::from_log_values(log).unwrap());
        }
        combine_pair_likelihoods(&parts).unwrap()
    }

    fn bits(likelihoods: &PairLikelihoods) -> Vec<u64> {
        likelihoods.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn fixed_trial_at_n_equals_first_stream_batch_of_n() {
        // The premise of sharing one session: a fixed-grid Combined trial at
        // n and a streaming trial's first batch of n give the same table and
        // leave the RNG in the same state — bit for bit.
        let model = PairModel::analytic(257);
        let ctx = ExperimentContext::default();
        for (seed, n, relations) in [
            (1u64, 1u64 << 27, 8usize),
            (2, 1 << 31, 8),
            (3, 1 << 35, 8),
            (4, 3 << 29, 130),
        ] {
            let mut reference_rng = StdRng::seed_from_u64(seed);
            let reference = reference_combined_trial(n, relations, 257, &mut reference_rng);
            let next_draw = reference_rng.gen::<u64>();

            // The fixed-grid driver: one ingest of n.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fixed =
                Fig7Session::new(RecoveryStrategy::Combined, relations, &model, &mut rng).unwrap();
            fixed.ingest(n, &mut rng).unwrap();
            assert_eq!(
                bits(&fixed.score().unwrap()),
                bits(&reference),
                "seed {seed}"
            );
            assert_eq!(rng.gen::<u64>(), next_draw, "seed {seed}");

            // The streaming driver: the stop loop with one batch of n.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut session =
                Fig7Session::new(RecoveryStrategy::Combined, relations, &model, &mut rng).unwrap();
            let stop = StopRule {
                threshold: 1e15,
                batch: n,
                cap: n,
            };
            let (_, streamed) = run_until_confident(&stop, &ctx, |batch| {
                session.ingest(batch, &mut rng)?;
                let score = session.score()?;
                Ok((score.margin(), score))
            })
            .unwrap();
            assert_eq!(bits(&streamed), bits(&reference), "seed {seed}");
            assert_eq!(rng.gen::<u64>(), next_draw, "seed {seed}");
        }
    }

    #[test]
    fn validation() {
        let empty = Fig7Config {
            ciphertext_counts: vec![],
            ..Fig7Config::quick()
        };
        assert!(run(&empty).is_err());
    }

    #[test]
    fn quick_run_shows_expected_ordering_at_large_n() {
        // At 2^35 sampled ciphertexts the combined strategy must essentially always
        // succeed and dominate the single-ABSAB strategy; FM-only sits in between
        // or equals combined.
        let config = Fig7Config {
            ciphertext_counts: vec![1 << 35],
            trials: 6,
            absab_relations: 16,
            ..Fig7Config::quick()
        };
        let report = run(&config).unwrap();
        let (absab, fm, combined) = parse_rates(&report, 0);
        assert!(combined >= fm, "combined {combined} < fm {fm}");
        assert!(combined >= absab, "combined {combined} < absab {absab}");
        assert!(combined > 0.8, "combined rate too low: {combined}");
    }

    #[test]
    fn trait_run_matches_free_function_and_cancels() {
        let mut exp = Fig7Experiment::new();
        exp.apply_scale(Scale::Quick);
        let config = Fig7Config {
            ciphertext_counts: vec![1 << 28],
            trials: 2,
            absab_relations: 4,
            ..Fig7Config::quick()
        };
        exp.set_config_value(&config_to_value(&config)).unwrap();
        let via_trait = exp.run(&ExperimentContext::default()).unwrap();
        let direct = run(&config).unwrap();
        assert_eq!(via_trait, direct);
        // Config JSON roundtrip is lossless.
        let json = serde_json::to_string(&config).unwrap();
        let back: Fig7Config = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
        // Cancellation aborts between trials.
        let handle = crate::context::CancelHandle::new();
        handle.cancel();
        let ctx = ExperimentContext::default().with_cancel(handle);
        assert_eq!(exp.run(&ctx), Err(ExperimentError::Cancelled));
    }

    #[test]
    fn config_without_source_field_defaults_to_analytic() {
        // Config files written before the `source` field existed keep working.
        let legacy = r#"{"ciphertext_counts":[1024],"trials":2,"absab_relations":4,"position":257,"seed":9}"#;
        let config: Fig7Config = serde_json::from_str(legacy).unwrap();
        assert_eq!(config.source, CountSource::Analytic);
        assert_eq!(config.trials, 2);
    }

    #[test]
    fn empirical_source_runs_and_is_cache_stable() {
        let config = Fig7Config {
            ciphertext_counts: vec![1 << 33],
            trials: 2,
            absab_relations: 4,
            source: CountSource::Empirical { keys: 1 << 13 },
            ..Fig7Config::quick()
        };
        let fresh = run(&config).unwrap();
        assert!(fresh
            .notes
            .iter()
            .any(|n| n.contains("empirical ground truth")));

        // A cached context must reproduce the uncached run byte for byte:
        // first call populates the cache, second call loads from it.
        let dir = std::env::temp_dir().join(format!("fig7-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = ExperimentContext::default().with_cache_dir(&dir).unwrap();
        let miss = run_with_context(&config, &ctx).unwrap();
        let hit = run_with_context(&config, &ctx).unwrap();
        assert_eq!(miss, fresh);
        assert_eq!(hit, fresh);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn small_n_gives_low_single_absab_rate() {
        let config = Fig7Config {
            ciphertext_counts: vec![1 << 24],
            trials: 6,
            absab_relations: 8,
            ..Fig7Config::quick()
        };
        let report = run(&config).unwrap();
        let (absab, _fm, _combined) = parse_rates(&report, 0);
        // With only 2^24 ciphertexts a single ABSAB relation almost never recovers
        // the pair (the paper's curve is ~0% until 2^31).
        assert!(absab < 0.5, "single-ABSAB rate implausibly high: {absab}");
    }
}
