//! Error type shared by the statistics substrate.

use std::fmt;

/// Errors produced by distribution constructors and estimators.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A distribution parameter was out of its valid domain.
    InvalidParameter {
        /// Which distribution rejected the parameter.
        what: &'static str,
        /// Human-readable description of the violated constraint.
        constraint: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An estimator was asked for a result before seeing enough data.
    InsufficientData {
        /// What was being estimated.
        what: &'static str,
        /// How many observations are required.
        needed: usize,
        /// How many observations were available.
        got: usize,
    },
    /// Two series of different lengths were compared.
    LengthMismatch {
        /// Length of the left series.
        left: usize,
        /// Length of the right series.
        right: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::InvalidParameter {
                what,
                constraint,
                value,
            } => write!(f, "{what}: parameter {value} violates {constraint}"),
            StatsError::InsufficientData { what, needed, got } => {
                write!(f, "{what}: needs {needed} observations, got {got}")
            }
            StatsError::LengthMismatch { left, right } => {
                write!(f, "series length mismatch: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StatsError::InvalidParameter {
            what: "Exponential",
            constraint: "rate > 0",
            value: -1.0,
        };
        assert!(e.to_string().contains("Exponential"));
        assert!(e.to_string().contains("rate > 0"));

        let e = StatsError::InsufficientData {
            what: "confidence interval",
            needed: 2,
            got: 0,
        };
        assert!(e.to_string().contains("confidence interval"));

        let e = StatsError::LengthMismatch { left: 3, right: 4 };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('4'));
    }
}
