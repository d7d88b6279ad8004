//! Series-comparison metrics.
//!
//! The paper's Tables 4 and 5 report the *average absolute difference*
//! between model predictions across a parameter sweep (Sim-vs-Markov,
//! Sim-vs-PN, Markov-vs-PN). These helpers compute exactly those deltas.

use crate::error::StatsError;

fn check_lengths(a: &[f64], b: &[f64]) -> Result<(), StatsError> {
    if a.len() != b.len() {
        return Err(StatsError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.is_empty() {
        return Err(StatsError::InsufficientData {
            what: "series comparison",
            needed: 1,
            got: 0,
        });
    }
    Ok(())
}

/// Mean absolute error between two equal-length series.
pub fn mean_abs_error(a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
    check_lengths(a, b)?;
    Ok(a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_series_zero_error() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(mean_abs_error(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn known_deltas() {
        let a = [0.0, 0.0, 0.0, 0.0];
        let b = [1.0, -1.0, 3.0, -3.0];
        assert_eq!(mean_abs_error(&a, &b).unwrap(), 2.0);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        assert!(mean_abs_error(&[1.0], &[1.0, 2.0]).is_err());
        assert!(mean_abs_error(&[], &[]).is_err());
        assert!(mean_abs_error(&[1.0, 2.0], &[1.0]).is_err());
        assert!(mean_abs_error(&[1.0], &[]).is_err());
    }
}
