//! Sequential early stopping for the streaming attack variants.
//!
//! The fixed-grid experiments (`fig7`, `fig10`, `tls-cookie`) answer "does
//! the attack succeed at `n` ciphertexts" for a sweep of `n`. Production
//! traffic arrives continuously, so the operational question is the
//! converse: **how many ciphertexts did *this* session actually need?**
//!
//! Each attack keeps one private session type next to its fixed-grid driver
//! (`fig7::Fig7Session`, `fig10::Fig10Session`,
//! `tls_cookie::TlsCookieSession`) that owns a trial's state and ingests
//! ciphertext copies into in-place accumulators
//! ([`rc4_stats::streaming::StreamingCounts`] /
//! [`rc4_stats::streaming::StreamingVotes`], or the TLS
//! `CookieStatistics`). The fixed-grid driver ingests its `n` once; the
//! `-stream` driver hands the same session to `run_until_confident`, which
//! ingests batch by batch, re-scores the accumulated tables after every
//! batch, and feeds the top candidate's likelihood margin over the runner-up
//! into a latching sequential test
//! ([`plaintext_recovery::streaming::SequentialTest`]). The attack stops at
//! the first batch whose margin clears the configured confidence threshold;
//! a stream that never clears it runs to the configured cap and reports
//! "no decision". The headline metric is ciphertexts consumed at stop.
//!
//! Because both drivers share the session, a fixed-grid trial at `n` equals
//! a streaming trial's first batch of `n`, bit for bit: the same likelihood
//! tables and the same RNG state afterwards (pinned by tests in `fig7` and
//! `fig10`).
//!
//! Determinism: every trial draws from its own RNG stream
//! (`stream_seed(base, &[trial])`), ingests its batches sequentially within
//! the trial, and the trials fan out across the context's executor — so the
//! full report is byte-identical for any `--workers` count.

use serde::{Deserialize, Serialize};

use plaintext_recovery::streaming::SequentialTest;

use crate::{context::ExperimentContext, report::ExperimentReport, ExperimentError};

/// The early-stopping rule shared by every streaming experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StopRule {
    /// Confidence threshold on the top-candidate log-likelihood margin over
    /// the runner-up, in nats. The attack stops at the first batch whose
    /// margin reaches it.
    pub threshold: f64,
    /// Units (ciphertexts, requests, captures) ingested per batch; the
    /// ranking is re-scored after every batch.
    pub batch: u64,
    /// Hard cap on units consumed. Reaching it without a decision ends the
    /// trial with an explicit "no decision" outcome.
    pub cap: u64,
}

impl StopRule {
    /// Validates the rule and builds its sequential test.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::InvalidConfig`] for a zero batch, a cap
    /// smaller than one batch, or a non-positive/non-finite threshold.
    pub fn test(&self) -> Result<SequentialTest, ExperimentError> {
        if self.batch == 0 {
            return Err(ExperimentError::InvalidConfig(
                "streaming batch size must be > 0".into(),
            ));
        }
        if self.cap < self.batch {
            return Err(ExperimentError::InvalidConfig(format!(
                "streaming cap ({}) must be at least one batch ({})",
                self.cap, self.batch
            )));
        }
        Ok(SequentialTest::new(self.threshold)?)
    }
}

/// Where one streaming trial stopped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StreamStop {
    /// Units consumed when the trial ended (at the decision, or the cap).
    pub(crate) consumed: u64,
    /// Whether the sequential test decided before the cap.
    pub(crate) decided: bool,
    /// The margin at the decision (or at the cap, for undecided trials).
    pub(crate) margin: f64,
}

/// The stop loop of every streaming attack: checkpoint → ingest → rescore →
/// observe → decision, until the test decides or the cap is reached.
///
/// `step(batch)` ingests `batch` units into the caller's session, re-scores
/// the accumulated tables and returns the top-candidate margin together with
/// whatever the caller keeps from the score (the last one is returned).
/// Cancellation is polled before every batch, so a raised flag interrupts a
/// long stream promptly.
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] for an invalid rule,
/// [`ExperimentError::Cancelled`] when the context flag is raised, and
/// propagates `step`'s errors.
pub(crate) fn run_until_confident<T>(
    stop: &StopRule,
    ctx: &ExperimentContext,
    mut step: impl FnMut(u64) -> Result<(f64, T), ExperimentError>,
) -> Result<(StreamStop, T), ExperimentError> {
    let mut test = stop.test()?;
    let mut consumed = 0u64;
    loop {
        ctx.checkpoint()?;
        let batch = (stop.cap - consumed).min(stop.batch);
        let (margin, score) = step(batch)?;
        consumed += batch;
        if test.observe(consumed, margin).is_decided() || consumed >= stop.cap {
            let decided = test.is_decided();
            let (consumed, margin) = test.decision().unwrap_or((consumed, margin));
            let stop = StreamStop {
                consumed,
                decided,
                margin,
            };
            return Ok((stop, score));
        }
    }
}

/// Formats a unit count as `count (2^x)` for the report tables.
pub(crate) fn format_units(n: u64) -> String {
    format!("{} (2^{:.1})", n, (n as f64).log2())
}

/// Renders the per-trial row of a multi-trial streaming report: where the
/// trial stopped and whether its top candidate was the true plaintext.
pub(crate) fn outcome_row(trial: usize, (stop, correct): &(StreamStop, bool)) -> Vec<String> {
    vec![
        trial.to_string(),
        format_units(stop.consumed),
        if stop.decided {
            "early (confident)".to_string()
        } else {
            "cap (no decision)".to_string()
        },
        format!("{:.1}", stop.margin),
        if *correct { "yes" } else { "no" }.to_string(),
    ]
}

/// Appends the headline note — units consumed at stop — plus the explicit
/// no-decision accounting.
pub(crate) fn headline_note(
    report: &mut ExperimentReport,
    outcomes: &[(StreamStop, bool)],
    unit: &str,
    cap: u64,
) {
    let mut at_stop: Vec<u64> = outcomes
        .iter()
        .filter(|(stop, _)| stop.decided)
        .map(|(stop, _)| stop.consumed)
        .collect();
    at_stop.sort_unstable();
    if at_stop.is_empty() {
        report.note(format!(
            "headline — {unit}s consumed at stop: NO DECISION on any trial; every stream ran to \
             the cap of {} without clearing the confidence threshold",
            format_units(cap)
        ));
    } else {
        let median = at_stop[at_stop.len() / 2];
        report.note(format!(
            "headline — {unit}s consumed at stop: median {} over {}/{} decided trials \
             ({} hit the cap of {} with no decision)",
            format_units(median),
            at_stop.len(),
            outcomes.len(),
            outcomes.len() - at_stop.len(),
            format_units(cap)
        ));
    }
}

#[cfg(test)]
mod tests {
    use rand::{rngs::StdRng, SeedableRng};

    use plaintext_recovery::charset::Charset;

    use super::*;
    use crate::experiments::{
        fig10::{fig10_stream_trial, run_fig10_stream, Fig10StreamConfig},
        fig7::{fig7_stream_trial, run_fig7_stream, Fig7StreamConfig, Fig7StreamExperiment},
        tls_cookie::{run_tls_cookie_stream, TlsCookieStreamConfig, TlsCookieStreamExperiment},
        PairModel, Scale,
    };
    use crate::Experiment;

    fn small_fig7() -> Fig7StreamConfig {
        Fig7StreamConfig {
            trials: 2,
            absab_relations: 8,
            stop: StopRule {
                threshold: 10.0,
                batch: 1 << 28,
                cap: 1 << 30,
            },
            ..Fig7StreamConfig::for_scale(Scale::Quick)
        }
    }

    #[test]
    fn stop_rule_validation() {
        let mut rule = StopRule {
            threshold: 5.0,
            batch: 10,
            cap: 100,
        };
        assert!(rule.test().is_ok());
        rule.batch = 0;
        assert!(rule.test().is_err());
        rule.batch = 200;
        assert!(rule.test().is_err(), "cap smaller than one batch");
        rule.batch = 10;
        rule.threshold = 0.0;
        assert!(rule.test().is_err());
        rule.threshold = f64::INFINITY;
        assert!(rule.test().is_err());
    }

    #[test]
    fn stop_loop_runs_to_the_cap_or_stops_at_the_decision() {
        let ctx = ExperimentContext::default();
        let rule = StopRule {
            threshold: 5.0,
            batch: 40,
            cap: 100,
        };
        // Never confident: batches of 40, 40 and the 20 left under the cap.
        let mut batches = Vec::new();
        let (stop, last) = run_until_confident(&rule, &ctx, |batch| {
            batches.push(batch);
            Ok((1.0, batches.len()))
        })
        .unwrap();
        assert_eq!(batches, [40, 40, 20]);
        assert_eq!((stop.consumed, stop.decided, last), (100, false, 3));
        // Confident at the second re-score: the loop stops there.
        let mut rescores = 0;
        let (stop, _) = run_until_confident(&rule, &ctx, |_| {
            rescores += 1;
            Ok((3.0 * rescores as f64, ()))
        })
        .unwrap();
        assert_eq!((stop.consumed, stop.decided, stop.margin), (80, true, 6.0));
        // A raised flag stops the loop before the first ingest.
        let handle = crate::context::CancelHandle::new();
        handle.cancel();
        let cancelled = ExperimentContext::default().with_cancel(handle);
        let result = run_until_confident(&rule, &cancelled, |_| -> Result<(f64, ()), _> {
            panic!("ingested after cancellation")
        });
        assert_eq!(
            result.map(|(stop, _)| stop),
            Err(ExperimentError::Cancelled)
        );
    }

    #[test]
    fn fig7_stream_validation_and_roundtrip() {
        let no_trials = Fig7StreamConfig {
            trials: 0,
            ..small_fig7()
        };
        assert!(run_fig7_stream(&no_trials, &ExperimentContext::default()).is_err());

        let config = Fig7StreamConfig::for_scale(Scale::Quick);
        let json = serde_json::to_string(&config).unwrap();
        let back: Fig7StreamConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn fig7_stream_never_clearing_threshold_reports_no_decision() {
        // A threshold no simulated margin can reach: every trial must run to
        // the cap and say so explicitly.
        let config = Fig7StreamConfig {
            stop: StopRule {
                threshold: 1e15,
                batch: 1 << 27,
                cap: 1 << 28,
            },
            ..small_fig7()
        };
        let report = run_fig7_stream(&config, &ExperimentContext::default()).unwrap();
        assert!(report.notes.iter().any(|n| n.contains("NO DECISION")));
        for row in &report.rows {
            assert_eq!(row.cells[1], format_units(1 << 28));
            assert_eq!(row.cells[2], "cap (no decision)");
        }
    }

    #[test]
    fn fig7_stream_tiny_threshold_stops_after_first_batch() {
        // Any non-degenerate ranking clears a near-zero threshold at the
        // first re-score, so every trial stops after exactly one batch.
        let config = Fig7StreamConfig {
            stop: StopRule {
                threshold: 1e-9,
                batch: 1 << 27,
                cap: 1 << 30,
            },
            ..small_fig7()
        };
        let report = run_fig7_stream(&config, &ExperimentContext::default()).unwrap();
        for row in &report.rows {
            assert_eq!(row.cells[1], format_units(1 << 27));
            assert_eq!(row.cells[2], "early (confident)");
        }
        assert!(report.notes.iter().any(|n| n.contains("2/2 decided")));
    }

    #[test]
    fn fig7_stream_is_worker_invariant_and_cancellable() {
        let config = small_fig7();
        let one = run_fig7_stream(&config, &ExperimentContext::default().with_workers(1)).unwrap();
        let four = run_fig7_stream(&config, &ExperimentContext::default().with_workers(4)).unwrap();
        assert_eq!(one, four);

        let handle = crate::context::CancelHandle::new();
        handle.cancel();
        let ctx = ExperimentContext::default().with_cancel(handle);
        let mut exp = Fig7StreamExperiment::new();
        exp.apply_scale(Scale::Quick);
        assert_eq!(exp.run(&ctx), Err(ExperimentError::Cancelled));
    }

    #[test]
    fn streaming_trials_poll_cancellation_per_ingest_batch() {
        // The trial functions themselves must observe the flag between ingest
        // batches: with a raised flag a direct trial call may not run to the
        // cap (before the fix it had no cancellation path at all and would).
        let handle = crate::context::CancelHandle::new();
        handle.cancel();
        let ctx = ExperimentContext::default().with_cancel(handle);

        let fig7 = small_fig7();
        let mut rng = StdRng::seed_from_u64(1);
        let model = PairModel::new(vec![1.0 / 65536.0; 65536], fig7.position);
        assert_eq!(
            fig7_stream_trial(&fig7, &model, &mut rng, &ctx),
            Err(ExperimentError::Cancelled)
        );

        let fig10 = Fig10StreamConfig {
            trials: 1,
            cookie_len: 2,
            candidates: 16,
            absab_relations: 2,
            charset: Charset::hex_lower(),
            ..Fig10StreamConfig::for_scale(Scale::Quick)
        };
        let models: Vec<PairModel> = (0..=fig10.cookie_len as u64)
            .map(|t| PairModel::new(vec![1.0 / 65536.0; 65536], fig10.cookie_position + t))
            .collect();
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(
            fig10_stream_trial(&fig10, &models, &mut rng, &ctx),
            Err(ExperimentError::Cancelled)
        );
    }

    #[test]
    fn fig7_stream_cancel_mid_trial_interrupts_between_batches() {
        // One trial, many batches: a cancel raised while the trial is in its
        // ingest loop must abort that trial at the next batch boundary
        // instead of letting it stream to the cap.
        let config = Fig7StreamConfig {
            trials: 1,
            absab_relations: 8,
            stop: StopRule {
                threshold: 1e15, // undecidable: only cancellation can stop early
                batch: 1 << 27,
                cap: 1 << 40, // ~8000 batches; a full run would take hours
            },
            ..Fig7StreamConfig::for_scale(Scale::Quick)
        };
        let handle = crate::context::CancelHandle::new();
        let ctx = ExperimentContext::default().with_cancel(handle.clone());
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            handle.cancel();
        });
        let result = run_fig7_stream(&config, &ctx);
        canceller.join().unwrap();
        assert_eq!(result, Err(ExperimentError::Cancelled));
    }

    #[test]
    fn fig10_stream_runs_and_is_worker_invariant() {
        let config = Fig10StreamConfig {
            trials: 1,
            cookie_len: 3,
            candidates: 32,
            absab_relations: 4,
            charset: Charset::hex_lower(),
            stop: StopRule {
                threshold: 1e15,
                batch: 1 << 28,
                cap: 1 << 29,
            },
            ..Fig10StreamConfig::for_scale(Scale::Quick)
        };
        let one = run_fig10_stream(&config, &ExperimentContext::default().with_workers(1)).unwrap();
        let four =
            run_fig10_stream(&config, &ExperimentContext::default().with_workers(4)).unwrap();
        assert_eq!(one, four);
        assert_eq!(one.rows.len(), 1);
        assert_eq!(one.rows[0].cells[2], "cap (no decision)");

        let json = serde_json::to_string(&config).unwrap();
        let back: Fig10StreamConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn tls_cookie_stream_hits_cap_without_paper_scale_captures() {
        // Real biases are far too weak at a few hundred captures: the honest
        // outcome is "no decision at the cap", reported clearly.
        let config = TlsCookieStreamConfig {
            candidates: 64,
            stop: StopRule {
                threshold: 1e15,
                batch: 128,
                cap: 384,
            },
            ..TlsCookieStreamConfig::for_scale(Scale::Quick)
        };
        let report = run_tls_cookie_stream(&config, &ExperimentContext::default()).unwrap();
        let consumed = report
            .rows
            .iter()
            .find(|r| r.cells[1].contains("consumed"))
            .unwrap();
        assert_eq!(consumed.cells[2], "384");
        let decision = report
            .rows
            .iter()
            .find(|r| r.cells[1].contains("stop decision"))
            .unwrap();
        assert!(decision.cells[2].contains("no decision"));

        let json = serde_json::to_string(&config).unwrap();
        let back: TlsCookieStreamConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn tls_cookie_stream_validation_and_cancellation() {
        let empty_cookie = TlsCookieStreamConfig {
            cookie: String::new(),
            ..TlsCookieStreamConfig::for_scale(Scale::Quick)
        };
        assert!(run_tls_cookie_stream(&empty_cookie, &ExperimentContext::default()).is_err());

        let handle = crate::context::CancelHandle::new();
        handle.cancel();
        let ctx = ExperimentContext::default().with_cancel(handle);
        let mut exp = TlsCookieStreamExperiment::new();
        exp.apply_scale(Scale::Quick);
        assert_eq!(exp.run(&ctx), Err(ExperimentError::Cancelled));
    }
}
