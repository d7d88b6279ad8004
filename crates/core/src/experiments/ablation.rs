//! Ablation E8: simulation convergence.

use wsnem_energy::StateFractions;

use crate::backend::{self, BackendId, EvalOptions};
use crate::error::CoreError;
use crate::params::CpuModelParams;

/// One row of the convergence ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceRow {
    /// Per-replication horizon used (s).
    pub horizon: f64,
    /// Replication count used.
    pub replications: usize,
    /// Petri-net estimate at this budget.
    pub fractions: StateFractions,
    /// Mean absolute delta vs the high-budget DES reference (pp).
    pub delta_vs_reference: f64,
    /// Wall-clock seconds for the PN evaluation.
    pub eval_seconds: f64,
}

/// E8: how the Petri net estimate converges with simulation budget — the §6
/// drawback ("long simulation time … before the percentages stabilize").
pub fn convergence_ablation(
    params: CpuModelParams,
    budgets: &[(f64, usize)],
) -> Result<(StateFractions, Vec<ConvergenceRow>), CoreError> {
    let solve = |id, p| backend::global().solve(id, &p, &EvalOptions::default());
    // High-budget DES reference.
    let reference = solve(
        BackendId::Des,
        params
            .with_horizon(20_000.0)
            .with_warmup(1000.0)
            .with_replications(16),
    )?;
    let mut rows = Vec::with_capacity(budgets.len());
    for &(horizon, replications) in budgets {
        let p = params
            .with_horizon(horizon)
            .with_replications(replications)
            .with_warmup((horizon * 0.05).min(100.0));
        let eval = solve(BackendId::PetriNet, p)?;
        rows.push(ConvergenceRow {
            horizon,
            replications,
            fractions: eval.fractions,
            delta_vs_reference: eval.fractions.mean_abs_delta_pct(&reference.fractions),
            eval_seconds: eval.eval_seconds,
        });
    }
    Ok((reference.fractions, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convergence_improves_with_budget() {
        let params = CpuModelParams::paper_defaults();
        let (reference, rows) = convergence_ablation(params, &[(200.0, 2), (5000.0, 8)]).unwrap();
        assert!(reference.is_normalized(1e-6));
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].delta_vs_reference < rows[0].delta_vs_reference + 0.5,
            "bigger budget should not be much worse: {} vs {}",
            rows[1].delta_vs_reference,
            rows[0].delta_vs_reference
        );
    }
}
