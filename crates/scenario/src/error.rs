//! Error type of the scenario subsystem.

use std::fmt;

use crate::diag::{Diagnostic, Location, INVALID_FIELD};

/// Errors from loading, validating or running scenarios.
#[derive(Debug)]
pub enum ScenarioError {
    /// The file's schema version is outside the range this binary
    /// understands: the typed form of `E002 schema-version`.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Version this binary supports.
        supported: u32,
    },
    /// A structurally valid file described an invalid scenario: the first
    /// error-level finding of [`crate::Scenario::diagnose`], or an `E004`
    /// raised by a spec builder, the generator or the runner. It carries
    /// the lint code, the location (scenario, node, field) and the message.
    Invalid(Box<Diagnostic>),
    /// The file could not be parsed.
    Parse(String),
    /// Filesystem error.
    Io(String),
    /// No built-in scenario with the given name.
    UnknownBuiltin(String),
    /// A model backend failed to evaluate.
    Eval(wsnem_core::CoreError),
    /// The DES kernel rejected a workload/parameter combination.
    Des(wsnem_des::DesError),
    /// The scenario exceeded the per-scenario wall-clock watchdog
    /// (`--scenario-timeout`, or the distributed lease watchdog).
    Timeout {
        /// Watchdog budget that was exceeded, in seconds.
        seconds: f64,
    },
    /// A distributed worker reported a failure; the typed error cannot be
    /// reconstructed across the wire, so the rendered message is carried.
    Remote(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnsupportedVersion { found, supported } => write!(
                f,
                "scenario schema version {found} is not supported (this build understands {supported})"
            ),
            ScenarioError::Invalid(d) => {
                write!(f, "invalid scenario [{}]: ", d.code)?;
                if !d.location.is_empty() {
                    write!(f, "{}: ", d.location)?;
                }
                f.write_str(&d.message)
            }
            ScenarioError::Parse(msg) => write!(f, "parse error: {msg}"),
            ScenarioError::Io(msg) => write!(f, "io error: {msg}"),
            ScenarioError::UnknownBuiltin(name) => {
                write!(f, "no built-in scenario named `{name}` (see `wsnem list`)")
            }
            ScenarioError::Eval(e) => write!(f, "model evaluation failed: {e}"),
            ScenarioError::Des(e) => write!(f, "simulation failed: {e}"),
            ScenarioError::Timeout { seconds } => write!(
                f,
                "scenario exceeded the {seconds} s wall-clock watchdog and was marked failed"
            ),
            ScenarioError::Remote(msg) => write!(f, "remote worker: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl ScenarioError {
    /// An `E004 invalid-field` error on `field`.
    pub fn invalid(field: impl Into<String>, message: impl Into<String>) -> Self {
        ScenarioError::Invalid(Box::new(
            INVALID_FIELD.at(Location::default().with_field(field), message),
        ))
    }
}

impl From<wsnem_core::CoreError> for ScenarioError {
    fn from(e: wsnem_core::CoreError) -> Self {
        ScenarioError::Eval(e)
    }
}

impl From<wsnem_des::DesError> for ScenarioError {
    fn from(e: wsnem_des::DesError) -> Self {
        ScenarioError::Des(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = ScenarioError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains('9'));
        assert!(ScenarioError::UnknownBuiltin("x".into())
            .to_string()
            .contains("wsnem list"));
        assert_eq!(
            ScenarioError::invalid("cpu.mu", "bad").to_string(),
            "invalid scenario [E004]: cpu.mu: bad"
        );
    }
}
