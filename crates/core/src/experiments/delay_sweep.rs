//! Extension experiment E9: where exactly does the supplementary-variable
//! approximation break?
//!
//! Tables 4/5 sample three Power-Up Delays; this sweep walks `D` finely and
//! reports each model's error against the DES ground truth, locating the
//! `λD` boundary beyond which the paper's Markov model should not be
//! trusted — the constant behind `wsn::tuning`'s backend choice.

use wsnem_energy::StateFractions;
use wsnem_stats::par;

use crate::backend::{self, BackendId, EvalOptions};
use crate::error::CoreError;
use crate::params::CpuModelParams;

/// One row of the delay sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DelaySweepRow {
    /// Power Up Delay (s).
    pub d: f64,
    /// λD — the dimensionless backlog measure that governs validity.
    pub lambda_d: f64,
    /// DES reference fractions.
    pub des: StateFractions,
    /// Supplementary-variable error vs DES (pp).
    pub markov_err: f64,
    /// Exact `Mg1` closed-form error vs DES (pp) — the DES's own noise.
    pub mg1_err: f64,
    /// Petri-net error vs DES (pp).
    pub petri_err: f64,
}

/// Sweep the Power Up Delay and measure each model's deviation from DES.
///
/// Points run in parallel; inner models run single-threaded.
pub fn delay_sweep(
    params: CpuModelParams,
    d_values: &[f64],
) -> Result<Vec<DelaySweepRow>, CoreError> {
    params.validate()?;
    par::map_indexed(d_values.len(), None, |i| sweep_point(params, d_values[i]))
        .into_iter()
        .collect()
}

fn sweep_point(base: CpuModelParams, d: f64) -> Result<DelaySweepRow, CoreError> {
    let params = base.with_power_up_delay(d);
    let opts = EvalOptions::default().with_threads(Some(1));
    let solve = |id| backend::global().solve(id, &params, &opts);
    let des = solve(BackendId::Des)?;
    let markov = solve(BackendId::Markov)?;
    let petri = solve(BackendId::PetriNet)?;
    let mg1 = solve(BackendId::Mg1)?;
    Ok(DelaySweepRow {
        d,
        lambda_d: params.lambda * d,
        des: des.fractions,
        markov_err: des.fractions.mean_abs_delta_pct(&markov.fractions),
        mg1_err: des.fractions.mean_abs_delta_pct(&mg1.fractions),
        petri_err: des.fractions.mean_abs_delta_pct(&petri.fractions),
    })
}

/// The smallest swept `λD` at which the supplementary-variable error exceeds
/// `threshold_pp` percentage points (`None` if it never does).
pub fn markov_validity_boundary(rows: &[DelaySweepRow], threshold_pp: f64) -> Option<f64> {
    rows.iter()
        .filter(|r| r.markov_err > threshold_pp)
        .map(|r| r.lambda_d)
        .fold(None, |acc, x| match acc {
            None => Some(x),
            Some(a) => Some(a.min(x)),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> CpuModelParams {
        CpuModelParams::paper_defaults()
            .with_replications(6)
            .with_horizon(2500.0)
            .with_warmup(150.0)
    }

    /// How far the DES at the `quick()` budget lands from the exact answer
    /// (pp, mean over the four states) — its own sampling noise.
    const DES_NOISE_PP: f64 = 1.0;

    #[test]
    fn errors_grow_with_delay_for_markov_only() {
        let rows = delay_sweep(quick(), &[0.01, 1.0, 5.0]).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].markov_err < 1.0, "{}", rows[0].markov_err);
        assert!(
            rows[2].markov_err > rows[0].markov_err + 3.0,
            "{} vs {}",
            rows[2].markov_err,
            rows[0].markov_err
        );
        // The exact closed form stays inside the DES noise band at every D,
        // and so does the Petri net; the supplementary-variable model leaves
        // the band once the delay is large.
        for r in &rows {
            assert!(r.petri_err < 1.5, "D={}: pn {}", r.d, r.petri_err);
            assert!(r.mg1_err < DES_NOISE_PP, "D={}: mg1 {}", r.d, r.mg1_err);
            assert!((r.lambda_d - r.d).abs() < 1e-12, "λ = 1 here");
        }
        for r in &rows[1..] {
            assert!(
                r.markov_err > DES_NOISE_PP,
                "D={}: markov {} inside the DES noise",
                r.d,
                r.markov_err
            );
        }
    }

    #[test]
    fn boundary_detection() {
        let rows = delay_sweep(quick(), &[0.01, 2.0]).unwrap();
        let boundary = markov_validity_boundary(&rows, 1.0);
        assert_eq!(boundary, Some(2.0), "rows: {rows:?}");
        assert_eq!(markov_validity_boundary(&rows, 1e9), None);
    }

    #[test]
    fn empty_delay_sweep_returns_empty_vec() {
        let params = CpuModelParams::paper_defaults()
            .with_replications(1)
            .with_horizon(50.0);
        assert!(delay_sweep(params, &[]).unwrap().is_empty());
    }
}
