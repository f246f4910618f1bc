//! Top-level crate of the reproduction: experiment registry, simulation
//! drivers and report formatting for every table and figure of the paper.
//!
//! The lower-level crates implement the pieces (RC4, statistics, bias
//! catalogue, likelihood machinery, the TKIP and TLS substrates); this crate
//! assembles them into the concrete experiments of the evaluation:
//!
//! | Experiment | Module |
//! |---|---|
//! | Table 1 / Fig. 4 — Fluhrer–McGrew digraphs, long-term and short-term | [`experiments::biases`] |
//! | Table 2 / Eq. 3–5 — new short-term biases | [`experiments::biases`] |
//! | Fig. 5 — influence of `Z_1`/`Z_2` | [`experiments::biases`] |
//! | Fig. 6 — single-byte biases beyond position 256 | [`experiments::biases`] |
//! | §3.4 — long-term `256`-aligned biases | [`experiments::biases`] |
//! | Fig. 7 — two-byte recovery: ABSAB vs FM vs combined | [`experiments::fig7`] |
//! | Fig. 8 / Fig. 9 — TKIP MIC-key recovery | [`experiments::fig8`] |
//! | Fig. 10 — HTTPS cookie brute force | [`experiments::fig10`] |
//! | Sect. 5 — end-to-end WPA-TKIP attack | [`experiments::tkip_attack`] |
//! | Sect. 6 — end-to-end HTTPS cookie attack | [`experiments::tls_cookie`] |
//! | Streaming `--until-confident` variants with early stopping | [`experiments::streaming`] |
//!
//! Every experiment implements the [`Experiment`] trait — a
//! serde-roundtrippable config with per-scale defaults plus a deterministic
//! `run(&ExperimentContext)` — and is registered in
//! [`Registry::with_defaults`], which drivers like `repro` iterate instead of
//! hardcoding experiment lists. The [`ExperimentContext`] carries the global
//! seed, worker count, progress sink and cooperative cancellation flag. Each
//! run returns a [`report::ExperimentReport`] that the `repro` binary renders
//! and that `EXPERIMENTS.md` summarizes.
//!
//! Because the paper-scale data volumes (`2^44+` keys, `2^27`–`2^31`
//! ciphertexts) are not laptop-feasible, attack experiments support a
//! *sampled mode*: instead of generating every ciphertext, the per-position
//! count vectors are drawn from the same multinomial distributions the
//! likelihood analysis assumes (normal approximation per cell). DESIGN.md
//! documents why this substitution preserves the qualitative results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod experiment;
pub mod experiments;
pub mod registry;
pub mod report;
pub mod sampling;

pub use context::{CancelHandle, EventSink, ExperimentContext, ProgressEvent};
pub use experiment::{Configured, Experiment, ExperimentConfig};
pub use registry::Registry;
pub use report::{ExperimentReport, ReportRow};

/// Errors surfaced by the experiment drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// Invalid experiment configuration.
    InvalidConfig(String),
    /// A lower-level component failed.
    Component(String),
    /// The run's cooperative cancellation flag was raised mid-experiment.
    Cancelled,
    /// A registry lookup failed; carries every registered name so callers can
    /// print an always-current list.
    UnknownExperiment {
        /// The name that was requested.
        name: String,
        /// All registered primary names, in registration order.
        registered: Vec<String>,
    },
}

impl core::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExperimentError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ExperimentError::Component(msg) => write!(f, "component failure: {msg}"),
            ExperimentError::Cancelled => write!(f, "experiment cancelled"),
            ExperimentError::UnknownExperiment { name, registered } => write!(
                f,
                "unknown experiment '{name}'; registered experiments: {}",
                registered.join(", ")
            ),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<rc4_stats::DatasetError> for ExperimentError {
    fn from(e: rc4_stats::DatasetError) -> Self {
        match e {
            rc4_stats::DatasetError::Cancelled => ExperimentError::Cancelled,
            other => ExperimentError::Component(other.to_string()),
        }
    }
}

impl From<stat_tests::StatError> for ExperimentError {
    fn from(e: stat_tests::StatError) -> Self {
        ExperimentError::Component(e.to_string())
    }
}

impl From<plaintext_recovery::RecoveryError> for ExperimentError {
    fn from(e: plaintext_recovery::RecoveryError) -> Self {
        match e {
            plaintext_recovery::RecoveryError::Cancelled => ExperimentError::Cancelled,
            other => ExperimentError::Component(other.to_string()),
        }
    }
}

/// Executor outcomes fold back into the experiment error model: a cancelled
/// parallel stage IS a cancelled experiment, and a task failure surfaces as
/// the task's own error.
impl From<rc4_exec::ExecError<ExperimentError>> for ExperimentError {
    fn from(e: rc4_exec::ExecError<ExperimentError>) -> Self {
        match e {
            rc4_exec::ExecError::Cancelled => ExperimentError::Cancelled,
            rc4_exec::ExecError::Task { error, .. } => error,
        }
    }
}

impl From<wpa_tkip::TkipError> for ExperimentError {
    fn from(e: wpa_tkip::TkipError) -> Self {
        ExperimentError::Component(e.to_string())
    }
}

impl From<tls_rc4::TlsError> for ExperimentError {
    fn from(e: tls_rc4::TlsError) -> Self {
        match e {
            tls_rc4::TlsError::Cancelled => ExperimentError::Cancelled,
            other => ExperimentError::Component(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversions() {
        let e = ExperimentError::InvalidConfig("bad".into());
        assert!(e.to_string().contains("bad"));
        let from_stats: ExperimentError =
            rc4_stats::DatasetError::InvalidConfig("keys".into()).into();
        assert!(matches!(from_stats, ExperimentError::Component(_)));
        let from_tkip: ExperimentError = wpa_tkip::TkipError::IntegrityFailure("ICV").into();
        assert!(from_tkip.to_string().contains("ICV"));
        let cancelled: ExperimentError = rc4_stats::DatasetError::Cancelled.into();
        assert_eq!(cancelled, ExperimentError::Cancelled);
        let unknown = ExperimentError::UnknownExperiment {
            name: "fig99".into(),
            registered: vec!["fig7".into(), "fig8".into()],
        };
        let msg = unknown.to_string();
        assert!(msg.contains("fig99") && msg.contains("fig7, fig8"));
    }
}
