//! Paper Tables 4 and 5: model disagreement as the Power Up Delay grows.

use wsnem_energy::PowerProfile;

use crate::backend::BackendId;
use crate::error::CoreError;
use crate::experiments::sweep::{SweepResult, ThresholdSweep};
use crate::params::CpuModelParams;

/// One row of Table 4/5: pairwise model deltas at a given `D`, averaged over
/// the threshold sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    /// Power Up Delay of this row (s).
    pub d: f64,
    /// Mean |Simulation − Markov| over the sweep.
    pub sim_markov: f64,
    /// Mean |Simulation − Petri net| over the sweep.
    pub sim_pn: f64,
    /// Mean |Markov − Petri net| over the sweep.
    pub markov_pn: f64,
    /// The underlying sweep (kept for drill-down printing).
    pub sweep: SweepResult,
}

fn pairwise_pct_delta(sweep: &SweepResult, a: BackendId, b: BackendId) -> f64 {
    let n = sweep.points.len() as f64;
    sweep
        .points
        .iter()
        .map(|p| p.of(a).fractions.mean_abs_delta_pct(&p.of(b).fractions))
        .sum::<f64>()
        / n
}

fn pairwise_energy_delta(
    sweep: &SweepResult,
    a: BackendId,
    b: BackendId,
    profile: &PowerProfile,
) -> f64 {
    let ea = sweep.energy_series(a, profile);
    let eb = sweep.energy_series(b, profile);
    // Both series come from the same sweep, so the lengths always match.
    match wsnem_stats::mean_abs_error(&ea, &eb) {
        Ok(delta) => delta,
        Err(_) => unreachable!("energy series from one sweep differ in length"),
    }
}

/// Table 4: Δ steady-state percentages for each Power Up Delay.
///
/// Reported as the mean (over the threshold sweep) of the mean absolute
/// per-state difference in percentage points. The paper's table appears to
/// aggregate differently (its values scale with the sweep size) but the
/// *ordering* — Sim–PN ≪ Sim–Markov for large `D`, comparable at
/// `D = 0.001` — is the claim under reproduction.
pub fn table4(params: CpuModelParams, d_values: &[f64]) -> Result<Vec<DeltaRow>, CoreError> {
    let mut rows = Vec::with_capacity(d_values.len());
    for &d in d_values {
        let sweep = ThresholdSweep::paper(params, d).run()?;
        rows.push(DeltaRow {
            d,
            sim_markov: pairwise_pct_delta(&sweep, BackendId::Des, BackendId::Markov),
            sim_pn: pairwise_pct_delta(&sweep, BackendId::Des, BackendId::PetriNet),
            markov_pn: pairwise_pct_delta(&sweep, BackendId::Markov, BackendId::PetriNet),
            sweep,
        });
    }
    Ok(rows)
}

/// Table 5: Δ energy (J) for each Power Up Delay, over the same sweeps.
pub fn table5(
    params: CpuModelParams,
    d_values: &[f64],
    profile: &PowerProfile,
) -> Result<Vec<DeltaRow>, CoreError> {
    let mut rows = Vec::with_capacity(d_values.len());
    for &d in d_values {
        let sweep = ThresholdSweep::paper(params, d).run()?;
        rows.push(DeltaRow {
            d,
            sim_markov: pairwise_energy_delta(&sweep, BackendId::Des, BackendId::Markov, profile),
            sim_pn: pairwise_energy_delta(&sweep, BackendId::Des, BackendId::PetriNet, profile),
            markov_pn: pairwise_energy_delta(
                &sweep,
                BackendId::Markov,
                BackendId::PetriNet,
                profile,
            ),
            sweep,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> CpuModelParams {
        CpuModelParams::paper_defaults()
            .with_replications(6)
            .with_horizon(1500.0)
            .with_warmup(100.0)
    }

    #[test]
    fn table4_headline_claim() {
        // At D = 10 s the Markov approximation must be far worse than the
        // Petri net; at D = 0.001 they are comparable. (Paper Table 4.)
        let rows = table4(quick_params(), &[0.001, 10.0]).unwrap();
        assert_eq!(rows.len(), 2);
        let small_d = &rows[0];
        let large_d = &rows[1];
        assert!(
            small_d.sim_markov < 3.0,
            "D=0.001 Sim-Markov Δ = {}",
            small_d.sim_markov
        );
        assert!(
            small_d.sim_pn < 3.0,
            "D=0.001 Sim-PN Δ = {}",
            small_d.sim_pn
        );
        assert!(
            large_d.sim_markov > 3.0 * large_d.sim_pn,
            "D=10: Markov Δ {} must dwarf PN Δ {}",
            large_d.sim_markov,
            large_d.sim_pn
        );
    }

    #[test]
    fn table5_headline_claim() {
        let rows = table5(quick_params(), &[0.001, 10.0], &PowerProfile::pxa271()).unwrap();
        let small_d = &rows[0];
        let large_d = &rows[1];
        assert!(small_d.sim_markov < 2.0, "{}", small_d.sim_markov);
        assert!(small_d.sim_pn < 2.0, "{}", small_d.sim_pn);
        assert!(
            large_d.sim_markov > 3.0 * large_d.sim_pn,
            "D=10: Markov energy Δ {} must dwarf PN Δ {}",
            large_d.sim_markov,
            large_d.sim_pn
        );
        // Markov-PN disagreement mirrors Sim-Markov at large D (the paper's
        // Table 5 third column).
        assert!(large_d.markov_pn > large_d.sim_pn);
    }
}
