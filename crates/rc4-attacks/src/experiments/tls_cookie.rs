//! The `tls-cookie` experiment: the Section-6 HTTPS cookie attack end to
//! end, promoted from the `https_cookie_attack` example into a registered
//! experiment so the full paper pipeline is reachable from the registry.
//!
//! One run drives the real machinery the paper's tool used:
//!
//! 1. build the manipulated request of Listing 3 and align the cookie to a
//!    favourable keystream position,
//! 2. generate victim traffic over real TLS RC4-SHA1 record-layer
//!    connections and capture the encrypted requests,
//! 3. accumulate Fluhrer–McGrew and ABSAB statistics at the cookie
//!    positions, and
//! 4. generate the ranked candidate list (Algorithm 2 over the cookie
//!    alphabet) and brute-force it against an oracle standing in for the web
//!    server.
//!
//! Real RC4 biases need `~9 x 2^27` captures for a reliable hit, so at quick
//! and laptop scales the brute force usually misses — the experiment reports
//! the full pipeline's mechanics (capture rates, candidate ranking, wall-clock
//! budgets) faithfully either way; the Fig. 10 experiment covers the success
//! curves in sampled mode.

use serde::{Deserialize, Serialize};

use plaintext_recovery::{charset::Charset, viterbi::PairCandidate};
use tls_rc4::{
    attack::{
        brute_force_cookie, brute_force_rate_seconds, candidate_margin,
        cookie_candidates_with_exec, CookieAttackConfig, CookieStatistics,
    },
    http::RequestTemplate,
    record::MAC_LEN,
    traffic::{TrafficConfig, TrafficGenerator},
};

use crate::{
    context::ExperimentContext,
    experiment::{Configured, ExperimentConfig},
    experiments::{
        streaming::{run_until_confident, StopRule},
        Scale,
    },
    report::ExperimentReport,
    ExperimentError,
};

/// Configuration of the end-to-end HTTPS cookie attack experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TlsCookieConfig {
    /// Encrypted requests to capture (the paper needs `~9 x 2^27`).
    pub captures: u64,
    /// The secret cookie value (must be non-empty and drawn from `charset`).
    pub cookie: String,
    /// Cookie alphabet used for candidate generation.
    pub charset: Charset,
    /// Maximum ABSAB gap exploited (the paper uses 128).
    pub max_gap: usize,
    /// Candidate-list budget (the paper brute-forces `2^23`).
    pub candidates: usize,
    /// Base RNG seed for the traffic generator.
    pub seed: u64,
}

impl Default for TlsCookieConfig {
    fn default() -> Self {
        TlsCookieConfig::for_scale(Scale::Laptop)
    }
}

impl TlsCookieConfig {
    /// The preset for a [`Scale`].
    pub fn for_scale(scale: Scale) -> Self {
        let base = Self {
            captures: 20_000,
            cookie: "dGhpc2lzc2VjcmV0".to_string(),
            charset: Charset::base64(),
            max_gap: 64,
            candidates: 1 << 12,
            seed: 0x71C5,
        };
        match scale {
            Scale::Quick => Self {
                captures: 1_500,
                max_gap: 32,
                candidates: 256,
                ..base
            },
            Scale::Laptop => base,
            Scale::Extended => Self {
                captures: 200_000,
                max_gap: 128,
                candidates: 1 << 15,
                ..base
            },
        }
    }
}

/// Captures the fixed-grid driver ingests per batch (cancellation and
/// progress land between batches), and the most a session holds in memory
/// at once whatever batch it is asked to ingest.
const CAPTURE_BATCH: u64 = 1024;

/// One HTTPS cookie attack: the victim's traffic generator and the
/// incremental statistics of every capture ingested so far. The fixed-grid
/// driver ingests its captures in [`CAPTURE_BATCH`]es; `tls-cookie-stream`
/// ingests `stop.batch` at a time and re-ranks after each. The generator
/// captures request by request, so the batching never changes the result.
struct TlsCookieSession {
    traffic: TrafficGenerator,
    stats: CookieStatistics,
}

impl TlsCookieSession {
    /// Aligns the manipulated request's cookie and opens the victim's
    /// traffic, seeded with `seed`.
    fn new(cookie: &[u8], max_gap: usize, seed: u64) -> Result<Self, ExperimentError> {
        let mut template = RequestTemplate::new("site.com", "auth", cookie.len());
        template.align_cookie(0, 0, MAC_LEN);
        let traffic = TrafficGenerator::new(
            template,
            cookie.to_vec(),
            TrafficConfig {
                seed,
                ..TrafficConfig::default()
            },
        )?;
        let stats = CookieStatistics::new(traffic.template(), max_gap)?;
        Ok(Self { traffic, stats })
    }

    /// Captures the next `captures` encrypted requests and folds each into
    /// the per-transition count tables, [`CAPTURE_BATCH`] captures at a time
    /// so a huge configured batch cannot exhaust memory.
    fn ingest(&mut self, captures: u64) -> Result<(), ExperimentError> {
        let mut left = captures;
        while left > 0 {
            let chunk = left.min(CAPTURE_BATCH);
            for capture in self.traffic.capture(chunk as usize)? {
                self.stats.add(&capture)?;
            }
            left -= chunk;
        }
        Ok(())
    }

    /// The ranked cookie candidates of everything ingested so far (the
    /// analysis fans out on `ctx`'s executor — worker-invariant).
    fn candidates(
        &self,
        config: &CookieAttackConfig,
        ctx: &ExperimentContext,
    ) -> Result<Vec<PairCandidate>, ExperimentError> {
        Ok(cookie_candidates_with_exec(
            &self.stats,
            config,
            &ctx.executor(),
        )?)
    }
}

/// The FM + ABSAB attack settings both drivers rank candidates with.
fn attack_config(max_gap: usize, candidates: usize, charset: &Charset) -> CookieAttackConfig {
    CookieAttackConfig {
        max_gap,
        candidates,
        charset: charset.clone(),
        use_fm: true,
        use_absab: true,
    }
}

/// Pushes the brute-force rows: whether the oracle accepted a candidate,
/// and after how many attempts.
fn push_brute_force_rows(
    report: &mut ExperimentReport,
    candidates: &[PairCandidate],
    cookie: &[u8],
    missed: &str,
) {
    let outcome = brute_force_cookie(candidates, |guess| guess == cookie);
    report.push_row(&[
        "brute force".to_string(),
        "cookie recovered".to_string(),
        if outcome.cookie.is_some() {
            "yes"
        } else {
            missed
        }
        .to_string(),
    ]);
    report.push_row(&[
        "brute force".to_string(),
        "attempts / candidate rank".to_string(),
        format!(
            "{} / {}",
            outcome.attempts,
            outcome
                .candidate_index
                .map(|i| i.to_string())
                .unwrap_or_else(|| "-".to_string())
        ),
    ]);
}

/// Runs the end-to-end attack and returns the report.
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] for degenerate configurations
/// (empty cookie, cookie outside the charset, zero captures),
/// [`ExperimentError::Cancelled`] when the context flag is raised, and
/// propagates component errors.
pub fn run_with_context(
    config: &TlsCookieConfig,
    ctx: &ExperimentContext,
) -> Result<ExperimentReport, ExperimentError> {
    let cookie = config.cookie.as_bytes().to_vec();
    if cookie.is_empty() || config.captures == 0 || config.candidates == 0 {
        return Err(ExperimentError::InvalidConfig(
            "captures, candidates and the cookie must all be non-empty".into(),
        ));
    }
    if !config.charset.accepts(&cookie) {
        return Err(ExperimentError::InvalidConfig(
            "the cookie contains bytes outside the configured charset".into(),
        ));
    }

    let mut report = ExperimentReport::new(
        "tls-cookie",
        "End-to-end HTTPS cookie recovery over real TLS RC4-SHA1 traffic (Sect. 6)",
        &["stage", "metric", "value"],
    );
    report.note(format!(
        "{} captures, {}-byte cookie over a {}-character alphabet, {} candidates, max ABSAB gap {} \
         (paper: 9 x 2^27 captures, 2^23 candidates, gap 128)",
        config.captures,
        cookie.len(),
        config.charset.len(),
        config.candidates,
        config.max_gap
    ));

    // Stage 1: the manipulated request with the cookie aligned.
    ctx.checkpoint()?;
    let mut session = TlsCookieSession::new(&cookie, config.max_gap, ctx.mix_seed(config.seed))?;
    let template = session.traffic.template();
    report.push_row(&[
        "request".to_string(),
        "bytes (known prefix / secret / known suffix)".to_string(),
        format!(
            "{} ({} / {} / {})",
            template.request_len(),
            template.cookie_offset(),
            cookie.len(),
            template.known_suffix().len()
        ),
    ]);

    // Stage 2: victim traffic over real TLS RC4-SHA1 connections, captured in
    // batches so cancellation lands between batches. The traffic generator
    // is stateful (persistent connections), so capture stays sequential;
    // per-batch progress goes through the throttled reporter so a
    // multi-million-capture run cannot flood the sink.
    let reporter = ctx.progress("tls-cookie", config.captures, "capture");
    let mut captured = 0u64;
    while captured < config.captures {
        ctx.checkpoint()?;
        let batch = (config.captures - captured).min(CAPTURE_BATCH);
        session.ingest(batch)?;
        captured += batch;
        reporter.tick(batch);
    }
    report.push_row(&[
        "traffic".to_string(),
        "encrypted requests captured".to_string(),
        session.stats.requests().to_string(),
    ]);
    report.push_row(&[
        "traffic".to_string(),
        "hours for 9 x 2^27 requests at 4450 req/s".to_string(),
        format!("{:.0}", session.traffic.hours_for(9 * (1u64 << 27))),
    ]);

    // Stage 3 + 4: FM + ABSAB statistics -> Algorithm 2 candidate list ->
    // brute force against the oracle (a stand-in for the real web server).
    ctx.checkpoint()?;
    let attack_config = attack_config(config.max_gap, config.candidates, &config.charset);
    let candidates = session.candidates(&attack_config, ctx)?;
    report.push_row(&[
        "candidates".to_string(),
        "ranked cookie candidates generated".to_string(),
        candidates.len().to_string(),
    ]);
    report.push_row(&[
        "candidates".to_string(),
        "minutes to brute-force 2^23 at 20000 req/s".to_string(),
        format!("{:.1}", brute_force_rate_seconds(1 << 23, 20_000) / 60.0),
    ]);
    push_brute_force_rows(
        &mut report,
        &candidates,
        &cookie,
        "no (expected below ~2^30 captures; see fig10 for the success curve)",
    );
    Ok(report)
}

/// [`Experiment`](crate::Experiment) carrier for the end-to-end HTTPS cookie attack.
pub type TlsCookieExperiment = Configured<TlsCookieConfig>;

impl ExperimentConfig for TlsCookieConfig {
    const NAME: &'static str = "tls-cookie";
    const SUMMARY: &'static str =
        "End-to-end HTTPS cookie attack over real TLS RC4-SHA1 traffic (Sect. 6)";

    fn preset(scale: Scale) -> Self {
        Self::for_scale(scale)
    }

    fn run(&self, ctx: &ExperimentContext) -> Result<ExperimentReport, ExperimentError> {
        run_with_context(self, ctx)
    }
}

/// Configuration of the streaming end-to-end HTTPS cookie attack
/// (`tls-cookie --until-confident`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TlsCookieStreamConfig {
    /// The secret cookie value (non-empty, drawn from `charset`).
    pub cookie: String,
    /// Cookie alphabet used for candidate generation.
    pub charset: Charset,
    /// Maximum ABSAB gap exploited.
    pub max_gap: usize,
    /// Candidate-list budget per re-score.
    pub candidates: usize,
    /// The early-stopping rule (units: captured requests).
    pub stop: StopRule,
    /// Base RNG seed for the traffic generator.
    pub seed: u64,
}

impl Default for TlsCookieStreamConfig {
    fn default() -> Self {
        Self::for_scale(Scale::Laptop)
    }
}

impl TlsCookieStreamConfig {
    /// The preset for a [`Scale`].
    pub fn for_scale(scale: Scale) -> Self {
        let base = Self {
            cookie: "dGhpc2lzc2VjcmV0".to_string(),
            charset: Charset::base64(),
            max_gap: 64,
            candidates: 1 << 12,
            stop: StopRule {
                threshold: 20.0,
                batch: 4096,
                cap: 20_000,
            },
            seed: 0x71C6,
        };
        match scale {
            Scale::Quick => Self {
                max_gap: 32,
                candidates: 256,
                stop: StopRule {
                    threshold: 20.0,
                    batch: 512,
                    cap: 1536,
                },
                ..base
            },
            Scale::Laptop => base,
            Scale::Extended => Self {
                max_gap: 128,
                candidates: 1 << 15,
                stop: StopRule {
                    threshold: 20.0,
                    batch: 16_384,
                    cap: 200_000,
                },
                ..base
            },
        }
    }
}

/// Runs the streaming end-to-end HTTPS cookie attack: real TLS RC4-SHA1
/// captures stream into the incremental [`CookieStatistics`] table and the
/// ranked candidate list is re-scored after every batch.
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] for degenerate configurations,
/// [`ExperimentError::Cancelled`] when the context flag is raised, and
/// propagates component errors.
pub fn run_tls_cookie_stream(
    config: &TlsCookieStreamConfig,
    ctx: &ExperimentContext,
) -> Result<ExperimentReport, ExperimentError> {
    let cookie = config.cookie.as_bytes().to_vec();
    if cookie.is_empty() || config.candidates == 0 {
        return Err(ExperimentError::InvalidConfig(
            "candidates and the cookie must be non-empty".into(),
        ));
    }
    if !config.charset.accepts(&cookie) {
        return Err(ExperimentError::InvalidConfig(
            "the cookie contains bytes outside the configured charset".into(),
        ));
    }
    config.stop.test()?;

    let mut report = ExperimentReport::new(
        "tls-cookie-stream",
        "Streaming HTTPS cookie recovery over real TLS RC4-SHA1 traffic",
        &["stage", "metric", "value"],
    );
    report.note(format!(
        "stop rule: top-candidate margin ≥ {} nats, re-scored every {} captures, cap {}; \
         real biases need ~9 x 2^27 captures, so sub-paper-scale runs are expected to \
         end at the cap with no decision",
        config.stop.threshold, config.stop.batch, config.stop.cap
    ));

    let mut session = TlsCookieSession::new(&cookie, config.max_gap, ctx.mix_seed(config.seed))?;
    let attack_config = attack_config(config.max_gap, config.candidates, &config.charset);
    // A streaming capture loop has no predetermined length — the whole point
    // is to stop early — so the progress total is "unknown" (0) and every
    // tick goes through the plain rate limiter.
    let reporter = ctx.progress("tls-cookie-stream", 0, "capture");
    let (stop, candidates) = run_until_confident(&config.stop, ctx, |batch| {
        session.ingest(batch)?;
        reporter.tick(batch);
        let candidates = session.candidates(&attack_config, ctx)?;
        Ok((candidate_margin(&candidates).unwrap_or(0.0), candidates))
    })?;

    report.push_row(&[
        "streaming".to_string(),
        "captures consumed at stop".to_string(),
        stop.consumed.to_string(),
    ]);
    report.push_row(&[
        "streaming".to_string(),
        format!("stop decision (threshold {} nats)", config.stop.threshold),
        if stop.decided {
            format!("confident (margin {:.1})", stop.margin)
        } else {
            format!("no decision — cap reached (margin {:.1})", stop.margin)
        },
    ]);
    report.push_row(&[
        "candidates".to_string(),
        "ranked cookie candidates generated".to_string(),
        candidates.len().to_string(),
    ]);
    push_brute_force_rows(&mut report, &candidates, &cookie, "no");
    Ok(report)
}

/// [`Experiment`](crate::Experiment) carrier for the streaming TLS cookie attack.
pub type TlsCookieStreamExperiment = Configured<TlsCookieStreamConfig>;

impl ExperimentConfig for TlsCookieStreamConfig {
    const NAME: &'static str = "tls-cookie-stream";
    const SUMMARY: &'static str =
        "Streaming HTTPS cookie attack with early stopping (tls-cookie --until-confident)";

    fn preset(scale: Scale) -> Self {
        Self::for_scale(scale)
    }

    fn run(&self, ctx: &ExperimentContext) -> Result<ExperimentReport, ExperimentError> {
        run_tls_cookie_stream(self, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{experiment::config_to_value, Experiment};

    #[test]
    fn validation_and_config_roundtrip() {
        let empty_cookie = TlsCookieConfig {
            cookie: String::new(),
            ..TlsCookieConfig::for_scale(Scale::Quick)
        };
        assert!(run_with_context(&empty_cookie, &ExperimentContext::default()).is_err());
        let outside_charset = TlsCookieConfig {
            cookie: "white space".into(),
            ..TlsCookieConfig::for_scale(Scale::Quick)
        };
        assert!(run_with_context(&outside_charset, &ExperimentContext::default()).is_err());

        let config = TlsCookieConfig::for_scale(Scale::Quick);
        let json = serde_json::to_string(&config).unwrap();
        let back: TlsCookieConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn quick_run_reports_the_full_pipeline() {
        let mut exp = TlsCookieExperiment::new();
        exp.apply_scale(Scale::Quick);
        let config = TlsCookieConfig {
            captures: 400,
            candidates: 64,
            ..TlsCookieConfig::for_scale(Scale::Quick)
        };
        exp.set_config_value(&config_to_value(&config)).unwrap();
        let report = exp.run(&ExperimentContext::default()).unwrap();
        assert_eq!(report.id, "tls-cookie");
        let captured = report
            .rows
            .iter()
            .find(|r| r.cells[1].contains("captured"))
            .unwrap();
        assert_eq!(captured.cells[2], "400");
        let generated = report
            .rows
            .iter()
            .find(|r| r.cells[1].contains("generated"))
            .unwrap();
        assert_eq!(generated.cells[2], "64");
    }

    #[test]
    fn capture_batching_never_changes_the_session() {
        // The fixed driver ingests CAPTURE_BATCH captures at a time, the
        // stream driver `stop.batch` at a time; both must see exactly the
        // statistics and candidates of one call over all captures.
        let config = TlsCookieStreamConfig::for_scale(Scale::Quick);
        let cookie = config.cookie.as_bytes();
        let captures = 2500u64;
        let session = || TlsCookieSession::new(cookie, config.max_gap, 0x5E55).unwrap();

        let mut fixed = session();
        let mut captured = 0u64;
        while captured < captures {
            let batch = (captures - captured).min(CAPTURE_BATCH);
            fixed.ingest(batch).unwrap();
            captured += batch;
        }
        let ctx = ExperimentContext::default();
        let mut streamed = session();
        let stop = StopRule {
            threshold: 1e15,
            cap: captures,
            ..config.stop
        };
        let (stopped, ()) = run_until_confident(&stop, &ctx, |batch| {
            streamed.ingest(batch)?;
            Ok((0.0, ()))
        })
        .unwrap();
        assert_eq!(stopped.consumed, captures);
        let mut once = session();
        once.ingest(captures).unwrap();

        assert_eq!(once.stats.requests(), captures);
        assert!(fixed.stats == once.stats, "1024-capture batches differ");
        assert!(streamed.stats == once.stats, "stop.batch batches differ");
        let attack = attack_config(config.max_gap, 64, &config.charset);
        let expected = once.candidates(&attack, &ctx).unwrap();
        assert_eq!(expected.len(), 64);
        assert_eq!(fixed.candidates(&attack, &ctx).unwrap(), expected);
        assert_eq!(streamed.candidates(&attack, &ctx).unwrap(), expected);
    }

    #[test]
    fn cancellation_aborts() {
        let handle = crate::context::CancelHandle::new();
        handle.cancel();
        let ctx = ExperimentContext::default().with_cancel(handle);
        let mut exp = TlsCookieExperiment::new();
        exp.apply_scale(Scale::Quick);
        assert_eq!(exp.run(&ctx), Err(ExperimentError::Cancelled));
    }
}
