//! The experiment harness: every table and figure of the paper's evaluation
//! section, plus the DESIGN.md ablations.
//!
//! | Artifact | Function | Bench binary |
//! |---|---|---|
//! | Fig. 4 (state percentages vs `T`) | [`sweep::ThresholdSweep`] | `fig4` |
//! | Fig. 5 (energy vs `T`) | [`sweep::SweepResult::energy_series`] | `fig5` |
//! | Table 4 (Δ percentages vs `D`) | [`tables::table4`] | `table4` |
//! | Table 5 (Δ energy vs `D`) | [`tables::table5`] | `table5` |
//! | E8 convergence ablation | [`ablation::convergence_ablation`] | `ablation_convergence` |
//! | E9 Power-Up-Delay sweep | [`delay_sweep::delay_sweep`] | `ext_delay_sweep` |

pub mod ablation;
pub mod delay_sweep;
pub mod sweep;
pub mod tables;

pub use ablation::{convergence_ablation, ConvergenceRow};
pub use delay_sweep::{delay_sweep, markov_validity_boundary, DelaySweepRow};
pub use sweep::{SweepPoint, SweepResult, ThresholdSweep};
pub use tables::{table4, table5, DeltaRow};

use crate::error::CoreError;
use crate::evaluation::{CpuModel, ModelEvaluation};
use crate::models::des_model::DesCpuModel;
use crate::models::markov_model::MarkovCpuModel;
use crate::models::petri_model::PetriCpuModel;
use crate::params::CpuModelParams;

/// Evaluate all three models on the same parameters
/// (order: Markov, Petri net, DES).
pub fn compare_all(
    params: CpuModelParams,
) -> Result<(ModelEvaluation, ModelEvaluation, ModelEvaluation), CoreError> {
    let markov = MarkovCpuModel::new(params).evaluate()?;
    let petri = PetriCpuModel::new(params).evaluate()?;
    let des = DesCpuModel::new(params).evaluate()?;
    Ok((markov, petri, des))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_all_returns_three_normalized_evaluations() {
        let params = CpuModelParams::paper_defaults()
            .with_replications(4)
            .with_horizon(400.0);
        let (m, p, d) = compare_all(params).unwrap();
        for e in [&m, &p, &d] {
            assert!(e.fractions.is_normalized(1e-6));
        }
        assert_eq!(m.kind, crate::BackendId::Markov);
        assert_eq!(p.kind, crate::BackendId::PetriNet);
        assert_eq!(d.kind, crate::BackendId::Des);
    }
}
