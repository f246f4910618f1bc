//! The [`Experiment`] trait: the uniform contract every paper experiment —
//! bias tables, recovery figures and the end-to-end attacks — implements.
//!
//! An experiment is a *stateful config plus a pure runner*: the instance owns
//! a serde-roundtrippable configuration with per-[`Scale`] defaults, and
//! [`Experiment::run`] consumes an [`ExperimentContext`] (seed, workers,
//! progress sink, cancellation) to produce an
//! [`crate::report::ExperimentReport`]. The trait is object-safe so the
//! [`crate::registry::Registry`] can hold heterogeneous experiments behind
//! `Box<dyn Experiment>` and drivers like `repro` need no per-experiment code.
//!
//! Implementing a custom experiment takes ~10 lines plus a config struct; see
//! the registry documentation and README for a complete example.

use serde::{Deserialize, Serialize, Value};

use crate::{
    context::{ExperimentContext, ProgressEvent},
    experiments::Scale,
    report::ExperimentReport,
    ExperimentError,
};

/// A runnable, configurable reproduction experiment.
///
/// # Contract
///
/// * `name()` is the stable registry identifier (also the CLI name); it must
///   be unique within a registry and should match the paper artefact
///   (`"fig7"`, `"table1"`, `"tkip-attack"`, ...).
/// * The configuration exposed through [`Experiment::config_value`] /
///   [`Experiment::set_config_value`] must roundtrip unchanged through JSON.
/// * [`Experiment::apply_scale`] resets the configuration to the preset for
///   that scale (it does not merge with previous overrides).
/// * [`Experiment::run`] must be deterministic for a fixed configuration and
///   context seed, derive all randomness via
///   [`ExperimentContext::mix_seed`], honour
///   [`ExperimentContext::checkpoint`] in its hot loops, and leave `self`
///   unchanged (it takes `&self`).
pub trait Experiment: Send {
    /// Stable registry/CLI name.
    fn name(&self) -> &'static str;

    /// One-line human-readable description (shown by `repro list`).
    fn summary(&self) -> &'static str;

    /// Resets the configuration to the preset for `scale`.
    fn apply_scale(&mut self, scale: Scale);

    /// The current configuration as a serde value tree.
    fn config_value(&self) -> Value;

    /// Replaces the configuration from a serde value tree.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::InvalidConfig`] when the value does not
    /// deserialize into this experiment's config type.
    fn set_config_value(&mut self, value: &Value) -> Result<(), ExperimentError>;

    /// Executes the experiment under `ctx`.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::Cancelled`] when the context's flag was
    /// raised mid-run, and experiment-specific errors otherwise.
    fn run(&self, ctx: &ExperimentContext) -> Result<ExperimentReport, ExperimentError>;

    /// [`Experiment::run`] wrapped in an `experiment.run` trace span and the
    /// `experiment.runs` counter (provided). Drivers call this so every
    /// execution shows up in traces and metrics; both are no-ops unless
    /// observability is enabled, so results are unchanged either way.
    ///
    /// # Errors
    ///
    /// Exactly [`Experiment::run`]'s errors.
    fn run_observed(&self, ctx: &ExperimentContext) -> Result<ExperimentReport, ExperimentError> {
        let _span =
            rc4_obs::Span::enter_with("experiment.run", rc4_obs::kv! { "name" => self.name() });
        rc4_obs::metrics::counter_add("experiment.runs", 1);
        self.run(ctx)
    }

    /// The current configuration as pretty JSON (provided).
    fn config_json(&self) -> String {
        serde_json::to_string_pretty(&self.config_value())
            .expect("config value trees always serialize")
    }

    /// Replaces the configuration from a JSON string (provided).
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::InvalidConfig`] on parse or shape errors.
    fn set_config_json(&mut self, json: &str) -> Result<(), ExperimentError> {
        let value: Value = serde_json::from_str(json)
            .map_err(|e| ExperimentError::InvalidConfig(format!("config JSON: {e}")))?;
        self.set_config_value(&value)
    }
}

/// Deserializes a typed config from a value tree with a uniform error shape —
/// the shared body of every `set_config_value` implementation.
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] naming `experiment` when the
/// value does not match `C`.
pub fn config_from_value<C: Deserialize>(
    experiment: &str,
    value: &Value,
) -> Result<C, ExperimentError> {
    C::from_value(value)
        .map_err(|e| ExperimentError::InvalidConfig(format!("{experiment} config: {e}")))
}

/// Serializes a typed config into a value tree — the shared body of every
/// `config_value` implementation.
pub fn config_to_value<C: Serialize>(config: &C) -> Value {
    config.to_value()
}

/// A typed experiment configuration: its registry name and summary, its
/// per-[`Scale`] presets and its runner. [`Configured`] turns any
/// implementor into an [`Experiment`].
pub trait ExperimentConfig: Serialize + Deserialize + Send + 'static {
    /// Stable registry/CLI name (see [`Experiment::name`]).
    const NAME: &'static str;
    /// One-line description (see [`Experiment::summary`]).
    const SUMMARY: &'static str;

    /// The preset for `scale`.
    fn preset(scale: Scale) -> Self;

    /// Runs the experiment with this configuration under `ctx`.
    ///
    /// # Errors
    ///
    /// As [`Experiment::run`].
    fn run(&self, ctx: &ExperimentContext) -> Result<ExperimentReport, ExperimentError>;
}

/// The [`Experiment`] carrier of an [`ExperimentConfig`]: it holds the
/// current configuration (the `Laptop` preset until a scale or a config is
/// applied) and brackets every run with the `Started`/`Finished` progress
/// events.
pub struct Configured<C> {
    config: C,
}

impl<C: ExperimentConfig> Configured<C> {
    /// Creates the experiment with the `Laptop`-scale preset.
    pub fn new() -> Self {
        Self {
            config: C::preset(Scale::Laptop),
        }
    }
}

impl<C: ExperimentConfig> Default for Configured<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: ExperimentConfig> Experiment for Configured<C> {
    fn name(&self) -> &'static str {
        C::NAME
    }

    fn summary(&self) -> &'static str {
        C::SUMMARY
    }

    fn apply_scale(&mut self, scale: Scale) {
        self.config = C::preset(scale);
    }

    fn config_value(&self) -> Value {
        config_to_value(&self.config)
    }

    fn set_config_value(&mut self, value: &Value) -> Result<(), ExperimentError> {
        self.config = config_from_value(C::NAME, value)?;
        Ok(())
    }

    fn run(&self, ctx: &ExperimentContext) -> Result<ExperimentReport, ExperimentError> {
        ctx.emit(ProgressEvent::Started {
            experiment: C::NAME,
        });
        let report = self.config.run(ctx)?;
        ctx.emit(ProgressEvent::Finished {
            experiment: C::NAME,
        });
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal experiment used to exercise the provided JSON methods.
    struct Doubler {
        config: DoublerConfig,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct DoublerConfig {
        n: u64,
    }

    impl Experiment for Doubler {
        fn name(&self) -> &'static str {
            "doubler"
        }
        fn summary(&self) -> &'static str {
            "doubles n"
        }
        fn apply_scale(&mut self, scale: Scale) {
            self.config.n = match scale {
                Scale::Quick => 1,
                Scale::Laptop => 10,
                Scale::Extended => 100,
            };
        }
        fn config_value(&self) -> Value {
            config_to_value(&self.config)
        }
        fn set_config_value(&mut self, value: &Value) -> Result<(), ExperimentError> {
            self.config = config_from_value(self.name(), value)?;
            Ok(())
        }
        fn run(&self, ctx: &ExperimentContext) -> Result<ExperimentReport, ExperimentError> {
            ctx.checkpoint()?;
            let mut report = ExperimentReport::new("doubler", "test", &["2n"]);
            report.push_row(&[(self.config.n * 2).to_string()]);
            Ok(report)
        }
    }

    #[test]
    fn json_config_roundtrip_and_run() {
        let mut e = Doubler {
            config: DoublerConfig { n: 3 },
        };
        let json = e.config_json();
        e.apply_scale(Scale::Extended);
        assert_eq!(e.config.n, 100);
        e.set_config_json(&json).unwrap();
        assert_eq!(e.config.n, 3);
        assert!(e.set_config_json("{\"n\": \"not a number\"}").is_err());
        assert!(e.set_config_json("not json").is_err());

        let report = e.run(&ExperimentContext::new()).unwrap();
        assert_eq!(report.rows[0].cells[0], "6");

        let cancelled = ExperimentContext::new().with_cancel({
            let h = crate::context::CancelHandle::new();
            h.cancel();
            h
        });
        assert_eq!(e.run(&cancelled), Err(ExperimentError::Cancelled));
    }
}
